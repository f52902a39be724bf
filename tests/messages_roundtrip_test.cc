#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/rng.h"

/// Property tests for the wire-message binary codec: for randomized
/// instances of every message type, Decode(Encode(msg)) == msg exactly
/// (doubles travel as bit patterns, so equality is bitwise). Truncated,
/// mistyped, and trailing-garbage buffers must fail with
/// InvalidArgument rather than crash or mis-parse.

namespace casper {
namespace {

constexpr int kRounds = 200;

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

processor::FilterPolicy RandomPolicy(Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return processor::FilterPolicy::kOneFilter;
    case 1:
      return processor::FilterPolicy::kTwoFilters;
    default:
      return processor::FilterPolicy::kFourFilters;
  }
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

CloakedQueryMsg RandomCloakedQuery(Rng* rng) {
  CloakedQueryMsg msg;
  msg.kind = static_cast<QueryKind>(rng->UniformInt(0, 6));
  msg.request_id = rng->Bernoulli(0.5) ? rng->Next() : 0;
  switch (msg.kind) {
    case QueryKind::kNearestPublic:
      msg.cloak = RandomRect(rng);
      break;
    case QueryKind::kKNearestPublic:
      msg.cloak = RandomRect(rng);
      msg.k = rng->UniformInt(1, 64);
      break;
    case QueryKind::kRangePublic:
      msg.cloak = RandomRect(rng);
      msg.radius = rng->NextDouble();
      break;
    case QueryKind::kNearestPrivate:
      msg.cloak = RandomRect(rng);
      msg.has_exclude = rng->Bernoulli(0.5);
      if (msg.has_exclude) msg.exclude_handle = rng->Next();
      break;
    case QueryKind::kPublicNearest:
      msg.point = rng->PointIn(Rect(0, 0, 1, 1));
      break;
    case QueryKind::kPublicRange:
      msg.region = RandomRect(rng);
      break;
    case QueryKind::kDensity:
      msg.cols = static_cast<int32_t>(rng->UniformInt(1, 16));
      msg.rows = static_cast<int32_t>(rng->UniformInt(1, 16));
      break;
  }
  return msg;
}

ServerPayload RandomPayload(Rng* rng, QueryKind kind) {
  switch (kind) {
    case QueryKind::kNearestPublic: {
      processor::PublicCandidateList list;
      list.candidates = RandomPublicTargets(rng, 8);
      list.area = RandomArea(rng);
      list.policy = RandomPolicy(rng);
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
      list.policy = RandomPolicy(rng);
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

TEST(MessagesRoundtripTest, CloakedQuery) {
  Rng rng(0xC0FFEE);
  for (int i = 0; i < kRounds; ++i) {
    const CloakedQueryMsg msg = RandomCloakedQuery(&rng);
    auto decoded = DecodeCloakedQuery(Encode(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == msg) << "round " << i;
  }
}

TEST(MessagesRoundtripTest, RegionUpsert) {
  Rng rng(0xBEEF);
  for (int i = 0; i < kRounds; ++i) {
    RegionUpsertMsg msg;
    msg.request_id = rng.Bernoulli(0.5) ? rng.Next() : 0;
    msg.handle = rng.Next();
    msg.has_replaces = rng.Bernoulli(0.5);
    if (msg.has_replaces) msg.replaces = rng.Next();
    msg.region = RandomRect(&rng);
    auto decoded = DecodeRegionUpsert(Encode(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == msg) << "round " << i;
  }
}

TEST(MessagesRoundtripTest, RegionRemove) {
  Rng rng(0xF00D);
  for (int i = 0; i < kRounds; ++i) {
    RegionRemoveMsg msg;
    msg.request_id = rng.Bernoulli(0.5) ? rng.Next() : 0;
    msg.handle = rng.Next();
    auto decoded = DecodeRegionRemove(Encode(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == msg) << "round " << i;
  }
}

TEST(MessagesRoundtripTest, Snapshot) {
  Rng rng(0xCA5);
  for (int i = 0; i < kRounds; ++i) {
    SnapshotMsg msg;
    msg.regions = RandomPrivateTargets(&rng, 32);
    auto decoded = DecodeSnapshot(Encode(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == msg) << "round " << i;
  }
}

TEST(MessagesRoundtripTest, CandidateList) {
  Rng rng(0xD1CE);
  for (int i = 0; i < kRounds; ++i) {
    CandidateListMsg msg;
    msg.kind = static_cast<QueryKind>(rng.UniformInt(0, 6));
    msg.request_id = rng.Bernoulli(0.5) ? rng.Next() : 0;
    msg.degraded = rng.Bernoulli(0.25);
    msg.payload = RandomPayload(&rng, msg.kind);
    msg.processor_seconds = rng.NextDouble();
    auto decoded = DecodeCandidateList(Encode(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == msg) << "round " << i;
  }
}

TEST(MessagesRoundtripTest, Ack) {
  Rng rng(0xACC);
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
      StatusCode::kInternal,     StatusCode::kDeadlineExceeded,
      StatusCode::kUnavailable,  StatusCode::kDataLoss,
  };
  for (int i = 0; i < kRounds; ++i) {
    AckMsg msg;
    msg.request_id = rng.Bernoulli(0.5) ? rng.Next() : 0;
    msg.code = codes[rng.UniformInt(0, 9)];
    if (msg.code != StatusCode::kOk && rng.Bernoulli(0.7)) {
      msg.message = "error detail " + std::to_string(i);
    }
    auto decoded = DecodeAck(Encode(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == msg) << "round " << i;
    EXPECT_EQ(decoded->ToStatus().code(), msg.code);
  }
}

TEST(MessagesRoundtripTest, AckForStatusCarriesCodeAndMessage) {
  const AckMsg ack = AckMsg::For(42, Status::NotFound("no such handle"));
  EXPECT_EQ(ack.request_id, 42u);
  EXPECT_EQ(ack.code, StatusCode::kNotFound);
  EXPECT_EQ(ack.message, "no such handle");
  EXPECT_FALSE(ack.ok());
  EXPECT_TRUE(AckMsg::For(7, Status::OK()).ok());
}

TEST(MessagesRoundtripTest, AckRejectsUnknownStatusCode) {
  AckMsg msg;
  msg.request_id = 1;
  msg.code = StatusCode::kUnavailable;
  std::string bytes = Encode(msg);
  // The code byte sits after the tag and the 8-byte request id; an
  // out-of-range enum value must be rejected, not cast blindly.
  bytes[9] = '\x7f';
  EXPECT_FALSE(DecodeAck(bytes).ok());
}

TEST(MessagesRoundtripTest, TagOfIdentifiesEveryMessage) {
  EXPECT_EQ(TagOf(Encode(CloakedQueryMsg{})).value(),
            MessageTag::kCloakedQuery);
  EXPECT_EQ(TagOf(Encode(RegionUpsertMsg{})).value(),
            MessageTag::kRegionUpsert);
  EXPECT_EQ(TagOf(Encode(RegionRemoveMsg{})).value(),
            MessageTag::kRegionRemove);
  EXPECT_EQ(TagOf(Encode(SnapshotMsg{})).value(), MessageTag::kSnapshot);
  EXPECT_EQ(TagOf(Encode(AckMsg{})).value(), MessageTag::kAck);
  EXPECT_FALSE(TagOf("").ok());
  EXPECT_FALSE(TagOf(std::string_view("\x00", 1)).ok());
}

TEST(MessagesRoundtripTest, RecordCountSurvivesTheWire) {
  Rng rng(0xFACE);
  for (int i = 0; i < kRounds; ++i) {
    CandidateListMsg msg;
    msg.kind = static_cast<QueryKind>(rng.UniformInt(0, 6));
    msg.payload = RandomPayload(&rng, msg.kind);
    auto decoded = DecodeCandidateList(Encode(msg));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(RecordCount(decoded->payload), RecordCount(msg.payload));
  }
}

/// Every proper prefix of `bytes` fails `decode` with kInvalidArgument.
template <typename Decode>
void ExpectEveryPrefixRejected(const std::string& bytes, Decode decode) {
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = decode(std::string_view(bytes).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut " << cut << " of " << bytes.size();
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(MessagesRoundtripTest, TruncationFailsCleanly) {
  Rng rng(0xACE);
  for (int i = 0; i < 50; ++i) {
    ExpectEveryPrefixRejected(Encode(RandomCloakedQuery(&rng)),
                              DecodeCloakedQuery);

    RegionUpsertMsg upsert;
    upsert.request_id = rng.Next();
    upsert.handle = rng.Next();
    upsert.has_replaces = rng.Bernoulli(0.5);
    upsert.replaces = rng.Next();
    upsert.region = RandomRect(&rng);
    ExpectEveryPrefixRejected(Encode(upsert), DecodeRegionUpsert);

    RegionRemoveMsg remove;
    remove.request_id = rng.Next();
    remove.handle = rng.Next();
    ExpectEveryPrefixRejected(Encode(remove), DecodeRegionRemove);

    SnapshotMsg snapshot;
    snapshot.regions = RandomPrivateTargets(&rng, 8);
    ExpectEveryPrefixRejected(Encode(snapshot), DecodeSnapshot);

    for (int kind = 0; kind <= 6; ++kind) {
      CandidateListMsg list;
      list.kind = static_cast<QueryKind>(kind);
      list.request_id = rng.Next();
      list.payload = RandomPayload(&rng, list.kind);
      ExpectEveryPrefixRejected(Encode(list), DecodeCandidateList);
    }

    const AckMsg ack = AckMsg::For(
        rng.Next(), Status::Unavailable("retry " + std::to_string(i)));
    ExpectEveryPrefixRejected(Encode(ack), DecodeAck);
    if (HasFatalFailure()) return;
  }
}

/// Decoded messages own their records: scribbling over the frame after
/// the decode leaves them intact.
TEST(MessagesRoundtripTest, DecodedRecordsSurviveFrameMutation) {
  Rng rng(0xA11A5);
  SnapshotMsg snapshot;
  while (snapshot.regions.empty()) {
    snapshot.regions = RandomPrivateTargets(&rng, 32);
  }
  std::string snapshot_frame = Encode(snapshot);
  auto decoded_snapshot = DecodeSnapshot(snapshot_frame);
  ASSERT_TRUE(decoded_snapshot.ok());
  for (char& b : snapshot_frame) b = '\x5a';
  EXPECT_TRUE(*decoded_snapshot == snapshot);

  CandidateListMsg list;
  list.kind = QueryKind::kPublicNearest;
  list.request_id = 77;
  while (RecordCount(list.payload) == 0) {
    list.payload = RandomPayload(&rng, list.kind);
  }
  std::string list_frame = Encode(list);
  auto decoded_list = DecodeCandidateList(list_frame);
  ASSERT_TRUE(decoded_list.ok());
  for (char& b : list_frame) b = '\0';
  EXPECT_TRUE(*decoded_list == list);
  EXPECT_EQ(decoded_list->request_id, 77u);
}

TEST(MessagesRoundtripTest, TrailingGarbageRejected) {
  Rng rng(0xABBA);
  CandidateListMsg msg;
  msg.kind = QueryKind::kNearestPublic;
  msg.payload = RandomPayload(&rng, msg.kind);
  const std::string bytes = Encode(msg) + "x";
  auto decoded = DecodeCandidateList(bytes);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(MessagesRoundtripTest, MistypedBufferRejected) {
  RegionRemoveMsg remove;
  remove.handle = 7;
  const std::string bytes = Encode(remove);
  // Feed a remove message to every other decoder.
  EXPECT_FALSE(DecodeCloakedQuery(bytes).ok());
  EXPECT_FALSE(DecodeRegionUpsert(bytes).ok());
  EXPECT_FALSE(DecodeSnapshot(bytes).ok());
  EXPECT_FALSE(DecodeCandidateList(bytes).ok());
  EXPECT_FALSE(DecodeAck(bytes).ok());
}

TEST(MessagesRoundtripTest, CorruptLengthPrefixRejected) {
  SnapshotMsg msg;
  msg.regions.resize(2);
  msg.regions[0] = {1, Rect(0, 0, 0.5, 0.5)};
  msg.regions[1] = {2, Rect(0.5, 0.5, 1, 1)};
  std::string bytes = Encode(msg);
  // The vector length prefix sits right after the 1-byte tag; blow it
  // up far past the buffer and the sanity cap must reject it.
  bytes[1] = '\xff';
  bytes[2] = '\xff';
  bytes[3] = '\xff';
  bytes[4] = '\x7f';
  auto decoded = DecodeSnapshot(bytes);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(MessagesRoundtripTest, EmptyBufferRejected) {
  EXPECT_FALSE(DecodeCloakedQuery("").ok());
  EXPECT_FALSE(DecodeRegionUpsert("").ok());
  EXPECT_FALSE(DecodeRegionRemove("").ok());
  EXPECT_FALSE(DecodeSnapshot("").ok());
  EXPECT_FALSE(DecodeCandidateList("").ok());
  EXPECT_FALSE(DecodeAck("").ok());
}

}  // namespace
}  // namespace casper
