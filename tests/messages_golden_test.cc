#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/casper/messages.h"

/// Golden wire bytes: one small message of every type, and one
/// CandidateListMsg per ServerPayload alternative, pinned as hex. Encode
/// must reproduce each frame byte for byte, and decoding the frame must
/// give back the message — so a codec refactor that shifts a field, a
/// stride or the checksum fails here even if it round-trips with itself.

namespace casper {
namespace {

// Recorded Encode() output. Change these only together with a deliberate
// wire-format change.

constexpr const char* kCloakedQueryHex =
    "c1038877665544332211000000000000d03f000000000000e03f000000000000"
    "e83f000000000000f03f0300000000000000000000000000c03f012a00000000"
    "000000333333333333d33f333333333333e33f9a9999999999b93f9a99999999"
    "99c93f333333333333d33f9a9999999999d93f04000000feffffff5f79427236"
    "d0837c";

constexpr const char* kRegionUpsertHex =
    "c20700000000000000efcdab0000000000016300000000000000000000000000"
    "f8bf00000000000000400000000000000a400000000000001240bf0149da7c20"
    "1105";

constexpr const char* kRegionRemoveHex =
    "c30800000000000000393000000000000020dab516852265fd";

constexpr const char* kSnapshotHex =
    "c40200000000000000d4c3b2a1000000009a9999999999b93f9a9999999999c9"
    "3f333333333333d33f9a9999999999d93f1100000000000000000000000000f8"
    "bf00000000000004c00000000000000a400000000000001340b08012e6c1e837"
    "1e";

constexpr const char* kAckHex =
    "c60900000000000000020e000000000000006e6f20737563682068616e646c65"
    "1e1d001b26f240ff";

/// Indexed by QueryKind: one frame per ServerPayload alternative.
constexpr const char* kCandidateListHex[] = {
    // 0
    "c500005a00000000000001000000000000603f00020000000000000008070605"
    "04030201000000000000e03f000000000000d0bf0900000000000000fca9f1d2"
    "4d62503f77be9f1a2fdd5e40000000000000c03f000000000000d03f00000000"
    "0000ec3f000000000000e83f000000000000b03f000000000000000000000000"
    "0000000000000000000000c03f01000000000000e03f000000000000803f0000"
    "00000000c83f0000000000000000000000000000000000000000000000d03f01"
    "000000000000e03f000000000000983f0299f27fdddf6626ab",
    // 1
    "c501015a00000000000000000000000000603f01020000000000000008070605"
    "04030201000000000000e03f000000000000d0bf0900000000000000fca9f1d2"
    "4d62503f77be9f1a2fdd5e400000000000000000000000000000000000000000"
    "0000e03f000000000000e03f0300000000000000997d2c5114c37f5f",
    // 2
    "c502025a00000000000000000000000000603f02020000000000000008070605"
    "04030201000000000000e03f000000000000d0bf0900000000000000fca9f1d2"
    "4d62503f77be9f1a2fdd5e40000000000000d03f000000000000d03f00000000"
    "0000e43f000000000000e43f6c78a653a783a86b",
    // 3
    "c503035a00000000000000000000000000603f030200000000000000d4c3b2a1"
    "000000009a9999999999b93f9a9999999999c93f333333333333d33f9a999999"
    "9999d93f1100000000000000000000000000f8bf00000000000004c000000000"
    "00000a400000000000001340000000000000c03f000000000000d03f00000000"
    "0000ec3f000000000000e83f000000000000b03f000000000000000000000000"
    "0000000000000000000000c03f01000000000000e03f000000000000803f0000"
    "00000000c83f0000000000000000000000000000000000000000000000d03f01"
    "000000000000e03f000000000000983f048d6c5707aae6c741",
    // 4
    "c504045a00000000000000000000000000603f040200000000000000d4c3b2a1"
    "000000009a9999999999b93f9a9999999999c93f333333333333d33f9a999999"
    "9999d93f000000000000d03f000000000000e83f110000000000000000000000"
    "0000f8bf00000000000004c00000000000000a40000000000000134000000000"
    "0000d03f000000000000e83f000000000000e03f6685966ee7ebdddd",
    // 5
    "c505055a00000000000000000000000000603f05010000000000000002000000"
    "00000000000000000000f83f0200000000000000d4c3b2a1000000009a999999"
    "9999b93f9a9999999999c93f333333333333d33f9a9999999999d93f11000000"
    "00000000000000000000f8bf00000000000004c00000000000000a4000000000"
    "000013407f3f9ec45f01957f",
    // 6
    "c506065a00000000000000000000000000603f06000000000000000000000000"
    "00000000000000000000f03f000000000000f03f020000000300000000000000"
    "00000000000000000000e03f000000000000f03f000000000000f83f00000000"
    "000000400000000000000440f2ff650a2417d2b8",
};

processor::ExtendedArea GoldenArea() {
  processor::ExtendedArea area;
  area.a_ext = Rect(0.125, 0.25, 0.875, 0.75);
  for (size_t i = 0; i < area.edges.size(); ++i) {
    area.edges[i].max_d = 0.0625 * static_cast<double>(i + 1);
    area.edges[i].has_middle = i % 2 == 1;
    if (area.edges[i].has_middle) {
      area.edges[i].middle = Point{0.5, 0.0078125 * static_cast<double>(i)};
    }
  }
  return area;
}

std::vector<processor::PublicTarget> GoldenPublicTargets() {
  return {{0x0102030405060708ull, Point{0.5, -0.25}},
          {9, Point{1e-3, 123.456}}};
}

std::vector<processor::PrivateTarget> GoldenPrivateTargets() {
  return {{0xA1B2C3D4ull, Rect(0.1, 0.2, 0.3, 0.4)},
          {17, Rect(-1.5, -2.5, 3.25, 4.75)}};
}

CandidateListMsg GoldenCandidateList(QueryKind kind) {
  CandidateListMsg msg;
  msg.kind = kind;
  msg.request_id = 0x5A00 + static_cast<uint64_t>(kind);
  msg.degraded = kind == QueryKind::kNearestPublic;
  msg.processor_seconds = 0.001953125;
  switch (kind) {
    case QueryKind::kNearestPublic:
      msg.payload = processor::PublicCandidateList{
          GoldenPublicTargets(), GoldenArea(),
          processor::FilterPolicy::kTwoFilters};
      break;
    case QueryKind::kKNearestPublic:
      msg.payload = processor::KnnCandidateList{
          GoldenPublicTargets(), Rect(0.0, 0.0, 0.5, 0.5), 3};
      break;
    case QueryKind::kRangePublic:
      msg.payload = processor::PublicRangeCandidates{
          GoldenPublicTargets(), Rect(0.25, 0.25, 0.625, 0.625)};
      break;
    case QueryKind::kNearestPrivate:
      msg.payload = processor::PrivateCandidateList{
          GoldenPrivateTargets(), GoldenArea(),
          processor::FilterPolicy::kFourFilters};
      break;
    case QueryKind::kPublicNearest: {
      processor::PublicNNCandidates list;
      for (const processor::PrivateTarget& t : GoldenPrivateTargets()) {
        list.candidates.push_back({t, 0.25, 0.75});
      }
      list.minimax_bound = 0.5;
      msg.payload = list;
      break;
    }
    case QueryKind::kPublicRange:
      msg.payload = processor::RangeCountResult{1, 2, 1.5,
                                                GoldenPrivateTargets()};
      break;
    case QueryKind::kDensity:
      msg.payload = processor::DensityMap::FromCells(
                        Rect(0.0, 0.0, 1.0, 1.0), 2, 3,
                        {0.0, 0.5, 1.0, 1.5, 2.0, 2.5})
                        .value();
      break;
  }
  return msg;
}

CloakedQueryMsg GoldenCloakedQuery() {
  CloakedQueryMsg msg;
  msg.kind = QueryKind::kNearestPrivate;
  msg.request_id = 0x1122334455667788ull;
  msg.cloak = Rect(0.25, 0.5, 0.75, 1.0);
  msg.k = 3;
  msg.radius = 0.125;
  msg.has_exclude = true;
  msg.exclude_handle = 42;
  msg.point = Point{0.3, 0.6};
  msg.region = Rect(0.1, 0.2, 0.3, 0.4);
  msg.cols = 4;
  msg.rows = -2;
  return msg;
}

RegionUpsertMsg GoldenRegionUpsert() {
  RegionUpsertMsg msg;
  msg.request_id = 7;
  msg.handle = 0xABCDEF;
  msg.has_replaces = true;
  msg.replaces = 99;
  msg.region = Rect(-1.5, 2.0, 3.25, 4.5);
  return msg;
}

RegionRemoveMsg GoldenRegionRemove() {
  RegionRemoveMsg msg;
  msg.request_id = 8;
  msg.handle = 12345;
  return msg;
}

SnapshotMsg GoldenSnapshot() {
  SnapshotMsg msg;
  msg.regions = GoldenPrivateTargets();
  return msg;
}

AckMsg GoldenAck() {
  return AckMsg::For(9, Status::NotFound("no such handle"));
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    const std::string byte(hex.substr(i, 2));
    bytes.push_back(static_cast<char>(std::stoi(byte, nullptr, 16)));
  }
  return bytes;
}

TEST(MessagesGoldenTest, CloakedQuery) {
  const std::string golden = FromHex(kCloakedQueryHex);
  EXPECT_EQ(Encode(GoldenCloakedQuery()), golden);
  auto decoded = DecodeCloakedQuery(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == GoldenCloakedQuery());
  EXPECT_EQ(RequestIdOf(golden), GoldenCloakedQuery().request_id);
}

TEST(MessagesGoldenTest, RegionUpsert) {
  const std::string golden = FromHex(kRegionUpsertHex);
  EXPECT_EQ(Encode(GoldenRegionUpsert()), golden);
  auto decoded = DecodeRegionUpsert(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == GoldenRegionUpsert());
  EXPECT_EQ(RequestIdOf(golden), GoldenRegionUpsert().request_id);
}

TEST(MessagesGoldenTest, RegionRemove) {
  const std::string golden = FromHex(kRegionRemoveHex);
  EXPECT_EQ(Encode(GoldenRegionRemove()), golden);
  auto decoded = DecodeRegionRemove(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == GoldenRegionRemove());
  EXPECT_EQ(RequestIdOf(golden), GoldenRegionRemove().request_id);
}

TEST(MessagesGoldenTest, Snapshot) {
  const std::string golden = FromHex(kSnapshotHex);
  EXPECT_EQ(Encode(GoldenSnapshot()), golden);
  auto decoded = DecodeSnapshotView(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->Materialize() == GoldenSnapshot());
  EXPECT_EQ(RequestIdOf(golden), 0u);
}

TEST(MessagesGoldenTest, CandidateListEveryPayload) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(QueryKind::kDensity); ++k) {
    const auto kind = static_cast<QueryKind>(k);
    const CandidateListMsg msg = GoldenCandidateList(kind);
    const std::string golden = FromHex(kCandidateListHex[k]);
    EXPECT_EQ(Encode(msg), golden) << "payload " << int{k};
    auto decoded = DecodeCandidateList(golden);
    ASSERT_TRUE(decoded.ok()) << "payload " << int{k} << ": "
                              << decoded.status().ToString();
    EXPECT_TRUE(*decoded == msg) << "payload " << int{k};
    EXPECT_EQ(RecordCount(decoded->payload), RecordCount(msg.payload));
  }
}

TEST(MessagesGoldenTest, Ack) {
  const std::string golden = FromHex(kAckHex);
  EXPECT_EQ(Encode(GoldenAck()), golden);
  auto decoded = DecodeAck(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == GoldenAck());
}

}  // namespace
}  // namespace casper
