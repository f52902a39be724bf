#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/casper/messages.h"
#include "src/common/codec.h"

/// The two word-at-a-time kernels under every frame: the Checksum64
/// seal and the bulk record-block copy.
///
///  * Checksum64 is XXH64 (seed 0): pinned to the published XXH64 test
///    vectors and to known answers across the lane, tail and stripe
///    boundaries; and the seal it backs rejects every single-bit flip,
///    truncation and extension of a big candidate-list frame.
///  * WriteRecords / ReadList copy a block with one memcpy
///    where the in-memory record is the wire record; that path must be
///    byte-identical to the per-field WireRecord<T> loop, also for
///    -0.0 and NaN payloads.

namespace casper {
namespace {

using wire::Checksum64;

std::string Pattern(size_t n) {
  std::string bytes(n, '\0');
  for (size_t i = 0; i < n; ++i) bytes[i] = static_cast<char>(i * 131 + 7);
  return bytes;
}

TEST(Checksum64Test, MatchesPublishedXxh64Vectors) {
  EXPECT_EQ(Checksum64(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(Checksum64("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Checksum64("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(Checksum64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
}

TEST(Checksum64Test, KnownAnswersAcrossLaneAndStripeBoundaries) {
  const struct {
    size_t length;
    uint64_t sum;
  } kCases[] = {
      {0, 0xef46db3751d8e999ull},     {1, 0xa96c7f0ce858bbb7ull},
      {7, 0x2744460dd675d2c0ull},     {8, 0x994b676b71ce94ddull},
      {31, 0x6711d55e306b5d8full},    {32, 0x07f7b8e3bc5d6e25ull},
      {33, 0x09f85eeb4e1cbe9full},    {98304, 0x6b7b9ba18bc9c8ddull},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(Checksum64(Pattern(c.length)), c.sum) << c.length << " bytes";
  }
}

/// A 4,000-record private-NN answer: the big_lists frame shape.
std::string BigCandidateListFrame() {
  processor::PublicCandidateList list;
  for (uint64_t i = 0; i < 4000; ++i) {
    list.candidates.push_back(
        {i * 7919 % 1000000, {0.25 + i * 1e-4, 0.75 - i * 1e-4}});
  }
  list.area.a_ext = Rect(0.25, 0.25, 0.75, 0.75);
  CandidateListMsg msg;
  msg.kind = QueryKind::kNearestPublic;
  msg.request_id = 11;
  msg.payload = std::move(list);
  return Encode(msg);
}

TEST(Checksum64Test, SealRejectsEverySingleBitFlipOfABigFrame) {
  std::string frame = BigCandidateListFrame();
  ASSERT_TRUE(DecodeCandidateList(frame).ok());
  size_t accepted = 0;
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      frame[byte] = static_cast<char>(frame[byte] ^ (1 << bit));
      if (wire::Unseal(frame, "CandidateList").ok()) ++accepted;
      frame[byte] = static_cast<char>(frame[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(accepted, 0u) << "of " << frame.size() * 8 << " flips";
}

TEST(Checksum64Test, SealRejectsEveryOneByteTruncationOrExtension) {
  const std::string frame = BigCandidateListFrame();
  EXPECT_FALSE(DecodeCandidateList(frame.substr(0, frame.size() - 1)).ok());
  EXPECT_FALSE(DecodeCandidateList(frame.substr(1)).ok());
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    EXPECT_FALSE(DecodeCandidateList(frame + c).ok()) << "append " << byte;
    EXPECT_FALSE(DecodeCandidateList(c + frame).ok()) << "prepend " << byte;
  }
}

// --- Bulk record blocks ------------------------------------------------------

constexpr double kNegZero = -0.0;

double Bits(uint64_t bits) { return std::bit_cast<double>(bits); }

/// Doubles a lossy copy would change: -0.0, NaNs with payloads (quiet,
/// signalling, negative), infinities, the smallest subnormal.
std::vector<double> SpecialDoubles() {
  return {kNegZero,
          0.0,
          Bits(0x7ff8000000000123ull),
          Bits(0x7ff0000000000001ull),
          Bits(0xfff800000000beefull),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min(),
          0.1,
          -1e300};
}

template <typename T>
std::vector<T> SpecialRecords();

template <>
std::vector<double> SpecialRecords<double>() {
  return SpecialDoubles();
}

template <>
std::vector<processor::PublicTarget> SpecialRecords<processor::PublicTarget>() {
  const std::vector<double> d = SpecialDoubles();
  std::vector<processor::PublicTarget> out;
  for (size_t i = 0; i < d.size(); ++i) {
    out.push_back({~uint64_t{0} - i, {d[i], d[d.size() - 1 - i]}});
  }
  return out;
}

template <>
std::vector<processor::PrivateTarget>
SpecialRecords<processor::PrivateTarget>() {
  const std::vector<double> d = SpecialDoubles();
  std::vector<processor::PrivateTarget> out;
  for (size_t i = 0; i < d.size(); ++i) {
    processor::PrivateTarget t;
    t.id = uint64_t{1} << (i % 64);
    t.region.min = {d[i], d[(i + 1) % d.size()]};
    t.region.max = {d[(i + 2) % d.size()], d[(i + 3) % d.size()]};
    out.push_back(t);
  }
  return out;
}

template <>
std::vector<processor::PublicNNCandidates::Candidate>
SpecialRecords<processor::PublicNNCandidates::Candidate>() {
  const std::vector<double> d = SpecialDoubles();
  std::vector<processor::PublicNNCandidates::Candidate> out;
  for (const processor::PrivateTarget& t :
       SpecialRecords<processor::PrivateTarget>()) {
    processor::PublicNNCandidates::Candidate c;
    c.target = t;
    c.min_dist = d[out.size() % d.size()];
    c.max_dist = d[(out.size() + 5) % d.size()];
    out.push_back(c);
  }
  return out;
}

template <typename T>
class BulkRecordsTest : public ::testing::Test {};

using RecordTypes =
    ::testing::Types<double, processor::PublicTarget, processor::PrivateTarget,
                     processor::PublicNNCandidates::Candidate>;
TYPED_TEST_SUITE(BulkRecordsTest, RecordTypes);

TYPED_TEST(BulkRecordsTest, BlockCopyMatchesPerFieldLoop) {
  using T = TypeParam;
  using Layout = WireRecord<T>;
  // On a little-endian host every record type takes the memcpy path, so
  // this compares it against the portable loop.
  if constexpr (std::endian::native == std::endian::little) {
    static_assert(kBulkRecords<T>);
  }
  const std::vector<T> records = SpecialRecords<T>();

  wire::Writer w;
  WriteRecords(w, records);
  const std::string block = w.Take();
  std::string fields(records.size() * Layout::kBytes, '\0');
  for (size_t i = 0; i < records.size(); ++i) {
    Layout::Write(fields.data() + i * Layout::kBytes, records[i]);
  }
  EXPECT_EQ(block, fields);

  // The same block behind its count, read back through ReadList.
  wire::Writer lw;
  WriteList(lw, records);
  const std::string list = lw.Take();
  ASSERT_EQ(list.substr(8), block);
  wire::Reader r(list);
  const std::vector<T> copied = ReadList<T>(r);
  ASSERT_TRUE(r.Finish("list").ok());
  ASSERT_EQ(copied.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const T read = Layout::Read(block.data() + i * Layout::kBytes);
    // Bytes, not operator==: NaN != NaN, and -0.0 == 0.0.
    EXPECT_EQ(std::memcmp(&copied[i], &read, sizeof(T)), 0) << "record " << i;
    EXPECT_EQ(std::memcmp(&copied[i], &records[i], sizeof(T)), 0)
        << "record " << i;
  }

  wire::Writer empty;
  WriteRecords(empty, std::vector<T>{});
  EXPECT_TRUE(empty.Take().empty());
  wire::Writer empty_list;
  WriteList(empty_list, std::vector<T>{});
  const std::string empty_bytes = empty_list.Take();
  wire::Reader er(empty_bytes);
  EXPECT_TRUE(ReadList<T>(er).empty());
  EXPECT_TRUE(er.Finish("empty list").ok());
}

}  // namespace
}  // namespace casper
