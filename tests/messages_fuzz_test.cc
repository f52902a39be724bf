#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/rng.h"

/// Randomized byte-flip / truncation fuzz smoke over every messages.h
/// codec (~10k seeded mutations per message type). Three properties:
///
///  1. Decoding an arbitrarily mutated buffer never crashes — it either
///     succeeds or fails with a typed Status.
///  2. The Checksum64 frame seal rejects every mutant this test
///     produces (byte flips, bursts, truncations, garbage suffixes):
///     with the fixed seeds below, zero mutants decode. This is the
///     "never silently accepts a corrupted payload" guarantee — a
///     flipped bit inside a raw double would otherwise decode as a
///     different valid measurement.
///  3. *Canonical acceptance*, as a belt-and-braces backstop: if a
///     mutant ever were accepted (a checksum collision), re-encoding
///     the decoded message must reproduce it byte for byte — the
///     accepted language stays exactly the image of Encode().

namespace casper {
namespace {

constexpr int kCorpusSize = 40;
constexpr int kMutationsPerMessage = 256;  // 40 * 256 = 10240 per type.

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

std::vector<processor::PublicTarget> RandomPublicTargets(Rng* rng) {
  std::vector<processor::PublicTarget> targets(rng->UniformInt(0, 4));
  for (processor::PublicTarget& t : targets) {
    t.id = rng->Next();
    t.position = rng->PointIn(Rect(0, 0, 1, 1));
  }
  return targets;
}

std::vector<processor::PrivateTarget> RandomPrivateTargets(Rng* rng) {
  std::vector<processor::PrivateTarget> targets(rng->UniformInt(0, 4));
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
      list.candidates = RandomPublicTargets(rng);
      list.area = RandomArea(rng);
      list.policy = processor::FilterPolicy::kFourFilters;
      return list;
    }
    case QueryKind::kKNearestPublic: {
      processor::KnnCandidateList list;
      list.candidates = RandomPublicTargets(rng);
      list.a_ext = RandomRect(rng);
      list.k = rng->UniformInt(1, 8);
      return list;
    }
    case QueryKind::kRangePublic: {
      processor::PublicRangeCandidates list;
      list.candidates = RandomPublicTargets(rng);
      list.search_window = RandomRect(rng);
      return list;
    }
    case QueryKind::kNearestPrivate: {
      processor::PrivateCandidateList list;
      list.candidates = RandomPrivateTargets(rng);
      list.area = RandomArea(rng);
      list.policy = processor::FilterPolicy::kTwoFilters;
      return list;
    }
    case QueryKind::kPublicNearest: {
      processor::PublicNNCandidates list;
      list.candidates.resize(rng->UniformInt(0, 4));
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
      result.overlapping = RandomPrivateTargets(rng);
      result.possible = result.overlapping.size();
      result.certain = rng->UniformInt(0, result.possible);
      result.expected = static_cast<double>(result.certain);
      return result;
    }
    case QueryKind::kDensity:
    default: {
      const int cols = static_cast<int>(rng->UniformInt(1, 4));
      const int rows = static_cast<int>(rng->UniformInt(1, 4));
      std::vector<double> cells(static_cast<size_t>(cols) * rows);
      for (double& c : cells) c = rng->NextDouble();
      auto map = processor::DensityMap::FromCells(Rect(0, 0, 1, 1), cols,
                                                  rows, std::move(cells));
      CASPER_DCHECK(map.ok());
      return std::move(map).value();
    }
  }
}

/// Apply one random mutation; may return the input unchanged (the
/// driver skips those).
std::string Mutate(Rng* rng, const std::string& base) {
  std::string mutant = base;
  switch (rng->UniformInt(0, 3)) {
    case 0: {  // Flip one byte (XOR with a non-zero mask: never a no-op).
      if (mutant.empty()) break;
      const size_t pos = rng->UniformInt(0, mutant.size() - 1);
      mutant[pos] = static_cast<char>(static_cast<uint8_t>(mutant[pos]) ^
                                      rng->UniformInt(1, 255));
      break;
    }
    case 1: {  // Flip a burst of up to 4 bytes.
      if (mutant.empty()) break;
      const uint64_t flips = rng->UniformInt(1, 4);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t pos = rng->UniformInt(0, mutant.size() - 1);
        mutant[pos] = static_cast<char>(static_cast<uint8_t>(mutant[pos]) ^
                                        rng->UniformInt(1, 255));
      }
      break;
    }
    case 2:  // Truncate.
      mutant.resize(rng->UniformInt(0, mutant.size()));
      break;
    case 3: {  // Append garbage.
      const uint64_t extra = rng->UniformInt(1, 8);
      for (uint64_t e = 0; e < extra; ++e) {
        mutant.push_back(static_cast<char>(rng->UniformInt(0, 255)));
      }
      break;
    }
  }
  return mutant;
}

/// Decode the mutant; if accepted, return the re-encoding.
template <typename Msg, typename Decoder>
std::optional<std::string> DecodeReencode(const Decoder& decode,
                                          std::string_view mutant) {
  Result<Msg> decoded = decode(mutant);
  if (!decoded.ok()) return std::nullopt;
  return Encode(decoded.value());
}

template <typename Msg, typename Decoder>
void FuzzCodec(uint64_t seed, const std::vector<std::string>& corpus,
               const Decoder& decode) {
  Rng rng(seed);
  size_t accepted = 0;
  for (const std::string& base : corpus) {
    // The unmutated encoding must round-trip — a baseline for the
    // corpus being valid at all.
    ASSERT_TRUE(decode(base).ok());
    for (int m = 0; m < kMutationsPerMessage; ++m) {
      const std::string mutant = Mutate(&rng, base);
      if (mutant == base) continue;
      std::optional<std::string> reencoded =
          DecodeReencode<Msg>(decode, mutant);
      if (reencoded.has_value()) {
        ++accepted;
        ASSERT_EQ(*reencoded, mutant)
            << "codec accepted a corrupted buffer as a message that "
               "encodes differently (non-canonical acceptance)";
      }
    }
  }
  // With the Checksum64 frame seal, every mutation class this
  // test produces (flips, bursts, truncations, garbage suffixes)
  // corrupts the body/checksum pairing and is rejected. Deterministic
  // under the fixed seeds above.
  EXPECT_EQ(accepted, 0u);
}

TEST(MessagesFuzzTest, CloakedQuery) {
  Rng rng(0xFC1);
  std::vector<std::string> corpus;
  for (int i = 0; i < kCorpusSize; ++i) {
    CloakedQueryMsg msg;
    msg.kind = static_cast<QueryKind>(rng.UniformInt(0, 6));
    msg.request_id = rng.Next();
    msg.cloak = RandomRect(&rng);
    msg.k = rng.UniformInt(1, 64);
    msg.radius = rng.NextDouble();
    msg.has_exclude = rng.Bernoulli(0.5);
    msg.exclude_handle = rng.Next();
    msg.point = rng.PointIn(Rect(0, 0, 1, 1));
    msg.region = RandomRect(&rng);
    msg.cols = static_cast<int32_t>(rng.UniformInt(1, 16));
    msg.rows = static_cast<int32_t>(rng.UniformInt(1, 16));
    corpus.push_back(Encode(msg));
  }
  FuzzCodec<CloakedQueryMsg>(0xFC1D, corpus, DecodeCloakedQuery);
}

TEST(MessagesFuzzTest, RegionUpsert) {
  Rng rng(0xFC2);
  std::vector<std::string> corpus;
  for (int i = 0; i < kCorpusSize; ++i) {
    RegionUpsertMsg msg;
    msg.request_id = rng.Next();
    msg.handle = rng.Next();
    msg.has_replaces = rng.Bernoulli(0.5);
    if (msg.has_replaces) msg.replaces = rng.Next();
    msg.region = RandomRect(&rng);
    corpus.push_back(Encode(msg));
  }
  FuzzCodec<RegionUpsertMsg>(0xFC2D, corpus, DecodeRegionUpsert);
}

TEST(MessagesFuzzTest, RegionRemove) {
  Rng rng(0xFC3);
  std::vector<std::string> corpus;
  for (int i = 0; i < kCorpusSize; ++i) {
    RegionRemoveMsg msg;
    msg.request_id = rng.Next();
    msg.handle = rng.Next();
    corpus.push_back(Encode(msg));
  }
  FuzzCodec<RegionRemoveMsg>(0xFC3D, corpus, DecodeRegionRemove);
}

TEST(MessagesFuzzTest, Snapshot) {
  Rng rng(0xFC4);
  std::vector<std::string> corpus;
  for (int i = 0; i < kCorpusSize; ++i) {
    SnapshotMsg msg;
    msg.regions = RandomPrivateTargets(&rng);
    corpus.push_back(Encode(msg));
  }
  FuzzCodec<SnapshotMsg>(0xFC4D, corpus, DecodeSnapshot);
}

TEST(MessagesFuzzTest, CandidateList) {
  Rng rng(0xFC5);
  std::vector<std::string> corpus;
  for (int i = 0; i < kCorpusSize; ++i) {
    CandidateListMsg msg;
    msg.kind = static_cast<QueryKind>(rng.UniformInt(0, 6));
    msg.request_id = rng.Next();
    msg.degraded = rng.Bernoulli(0.25);
    msg.payload = RandomPayload(&rng, msg.kind);
    msg.processor_seconds = rng.NextDouble();
    corpus.push_back(Encode(msg));
  }
  FuzzCodec<CandidateListMsg>(0xFC5D, corpus, DecodeCandidateList);
}

TEST(MessagesFuzzTest, Ack) {
  Rng rng(0xFC6);
  std::vector<std::string> corpus;
  const StatusCode codes[] = {
      StatusCode::kOk,         StatusCode::kNotFound,
      StatusCode::kUnavailable, StatusCode::kDataLoss,
      StatusCode::kDeadlineExceeded,
  };
  for (int i = 0; i < kCorpusSize; ++i) {
    AckMsg msg;
    msg.request_id = rng.Next();
    msg.code = codes[rng.UniformInt(0, 4)];
    if (rng.Bernoulli(0.5)) msg.message = "detail " + std::to_string(i);
    corpus.push_back(Encode(msg));
  }
  FuzzCodec<AckMsg>(0xFC6D, corpus, DecodeAck);
}

}  // namespace
}  // namespace casper
