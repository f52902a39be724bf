#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/rng.h"

/// Tests for the view decoders, the codec's only parsers of record
/// blocks: Materialize() must reproduce the encoded message bit for bit,
/// and records extracted through a view are deep copies — mutating the
/// frame afterwards must not corrupt them.

namespace casper {
namespace {

Rect RandomRect(Rng* rng) {
  const Point a = rng->PointIn(Rect(0, 0, 1, 1));
  return Rect(a.x, a.y, a.x + rng->NextDouble(), a.y + rng->NextDouble());
}

processor::ExtendedArea RandomArea(Rng* rng) {
  processor::ExtendedArea area;
  area.a_ext = RandomRect(rng);
  for (processor::EdgeExtension& edge : area.edges) {
    edge.max_d = rng->NextDouble();
    edge.has_middle = rng->Bernoulli(0.5);
    if (edge.has_middle) edge.middle = rng->PointIn(area.a_ext);
  }
  return area;
}

std::vector<processor::PublicTarget> RandomPublicTargets(Rng* rng,
                                                         size_t max_n) {
  std::vector<processor::PublicTarget> targets(rng->UniformInt(0, max_n));
  for (processor::PublicTarget& t : targets) {
    t.id = rng->Next();
    t.position = rng->PointIn(Rect(0, 0, 1, 1));
  }
  return targets;
}

std::vector<processor::PrivateTarget> RandomPrivateTargets(Rng* rng,
                                                           size_t max_n) {
  std::vector<processor::PrivateTarget> targets(rng->UniformInt(0, max_n));
  for (processor::PrivateTarget& t : targets) {
    t.id = rng->Next();
    t.region = RandomRect(rng);
  }
  return targets;
}

ServerPayload RandomPayload(Rng* rng, QueryKind kind) {
  switch (kind) {
    case QueryKind::kNearestPublic: {
      processor::PublicCandidateList list;
      list.candidates = RandomPublicTargets(rng, 8);
      list.area = RandomArea(rng);
      return list;
    }
    case QueryKind::kKNearestPublic: {
      processor::KnnCandidateList list;
      list.candidates = RandomPublicTargets(rng, 8);
      list.a_ext = RandomRect(rng);
      list.k = rng->UniformInt(1, 16);
      return list;
    }
    case QueryKind::kRangePublic: {
      processor::PublicRangeCandidates list;
      list.candidates = RandomPublicTargets(rng, 8);
      list.search_window = RandomRect(rng);
      return list;
    }
    case QueryKind::kNearestPrivate: {
      processor::PrivateCandidateList list;
      list.candidates = RandomPrivateTargets(rng, 8);
      list.area = RandomArea(rng);
      return list;
    }
    case QueryKind::kPublicNearest: {
      processor::PublicNNCandidates list;
      list.candidates.resize(rng->UniformInt(0, 8));
      for (auto& candidate : list.candidates) {
        candidate.target.id = rng->Next();
        candidate.target.region = RandomRect(rng);
        candidate.min_dist = rng->NextDouble();
        candidate.max_dist = candidate.min_dist + rng->NextDouble();
      }
      list.minimax_bound = rng->NextDouble();
      return list;
    }
    case QueryKind::kPublicRange: {
      processor::RangeCountResult result;
      result.overlapping = RandomPrivateTargets(rng, 8);
      result.possible = result.overlapping.size();
      result.certain = rng->UniformInt(0, result.possible);
      result.expected = rng->Uniform(static_cast<double>(result.certain),
                                     static_cast<double>(result.possible));
      return result;
    }
    case QueryKind::kDensity:
    default: {
      const int cols = static_cast<int>(rng->UniformInt(1, 8));
      const int rows = static_cast<int>(rng->UniformInt(1, 8));
      std::vector<double> cells(static_cast<size_t>(cols) * rows);
      for (double& c : cells) c = rng->NextDouble();
      auto map = processor::DensityMap::FromCells(Rect(0, 0, 1, 1), cols,
                                                  rows, std::move(cells));
      CASPER_DCHECK(map.ok());
      return std::move(map).value();
    }
  }
}

CandidateListMsg RandomCandidateList(Rng* rng) {
  CandidateListMsg msg;
  msg.kind = static_cast<QueryKind>(rng->UniformInt(0, 6));
  msg.request_id = rng->Next();
  msg.degraded = rng->Bernoulli(0.25);
  msg.processor_seconds = rng->NextDouble();
  msg.payload = RandomPayload(rng, msg.kind);
  return msg;
}

/// View → Materialize reproduces the encoded message exactly, for every
/// payload kind.
TEST(MessagesViewTest, MaterializeMatchesOwningDecode) {
  Rng rng(0x51DE);
  for (int i = 0; i < 300; ++i) {
    const CandidateListMsg msg = RandomCandidateList(&rng);
    const std::string frame = Encode(msg);
    auto view = DecodeCandidateListView(frame);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE(view->Materialize() == msg) << "round " << i;
  }
}

TEST(MessagesViewTest, SnapshotViewMaterializeMatchesOwningDecode) {
  Rng rng(0x54AF);
  for (int i = 0; i < 200; ++i) {
    SnapshotMsg msg;
    msg.regions = RandomPrivateTargets(&rng, 32);
    const std::string frame = Encode(msg);
    auto view = DecodeSnapshotView(frame);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view->regions.size(), msg.regions.size());
    for (size_t j = 0; j < msg.regions.size(); ++j) {
      EXPECT_TRUE(view->regions[j] == msg.regions[j]);
    }
    EXPECT_TRUE(view->Materialize() == msg);
  }
}

/// Records pulled through a WireSpan are deep copies: overwriting the
/// frame afterwards must leave previously-extracted results intact.
TEST(MessagesViewTest, ExtractedRecordsSurviveFrameMutation) {
  Rng rng(0xA11A5);
  SnapshotMsg msg;
  msg.regions = RandomPrivateTargets(&rng, 32);
  while (msg.regions.empty()) msg.regions = RandomPrivateTargets(&rng, 32);
  std::string frame = Encode(msg);

  auto view = DecodeSnapshotView(frame);
  ASSERT_TRUE(view.ok());
  const processor::PrivateTarget first = view->regions[0];
  const SnapshotMsg materialized = view->Materialize();

  for (char& b : frame) b = '\x5a';  // Scribble over the whole frame.

  EXPECT_TRUE(first == msg.regions[0]);
  EXPECT_TRUE(materialized == msg);
  // The live span aliases the frame, so re-reading through it now sees
  // the scribbled bytes — that is the documented borrow semantics.
  EXPECT_FALSE(view->regions[0] == msg.regions[0]);
}

TEST(MessagesViewTest, CandidateListExtractionSurvivesFrameMutation) {
  Rng rng(0xBEE5);
  CandidateListMsg msg;
  msg.kind = QueryKind::kPublicNearest;
  msg.request_id = 77;
  msg.payload = RandomPayload(&rng, msg.kind);
  std::string frame = Encode(msg);

  auto view = DecodeCandidateListView(frame);
  ASSERT_TRUE(view.ok());
  const CandidateListMsg materialized = view->Materialize();
  for (char& b : frame) b = '\x00';
  EXPECT_TRUE(materialized == msg);
  EXPECT_EQ(materialized.request_id, 77u);
}

TEST(MessagesViewTest, ViewRejectsTruncatedAndMistypedFrames) {
  EXPECT_FALSE(DecodeCandidateListView("").ok());
  EXPECT_FALSE(DecodeSnapshotView("").ok());
  RegionRemoveMsg remove;
  remove.handle = 9;
  const std::string bytes = Encode(remove);
  EXPECT_FALSE(DecodeCandidateListView(bytes).ok());
  EXPECT_FALSE(DecodeSnapshotView(bytes).ok());

  Rng rng(0x7A11);
  const std::string frame = Encode(RandomCandidateList(&rng));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(
        DecodeCandidateListView(std::string_view(frame).substr(0, cut)).ok());
  }
}

}  // namespace
}  // namespace casper
