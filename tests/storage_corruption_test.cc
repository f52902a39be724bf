#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/codec.h"
#include "src/common/rng.h"
#include "src/obs/casper_metrics.h"
#include "src/obs/metrics.h"
#include "src/storage/disk_storage.h"

/// Torn-write recovery: a page file corrupted or truncated underneath a
/// committed store must surface as a *typed* kDataLoss on the next read
/// — never a crash, never silently served garbage. Each test commits a
/// store, damages the files out-of-band (what a torn sector or a
/// half-finished write leaves behind), and asserts the typed failure
/// plus the checksum-failure counter.

namespace casper::storage {
namespace {

class StorageCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = std::make_unique<obs::CasperMetrics>(registry_.get());
    path_ = testing::TempDir() + "casper_corrupt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid());
  }

  void TearDown() override {
    std::remove(dat().c_str());
    std::remove(idx().c_str());
  }

  std::string dat() const { return path_ + ".dat"; }
  std::string idx() const { return path_ + ".idx"; }

  DiskStorageOptions Options() {
    DiskStorageOptions options;
    options.metrics = metrics_.get();
    return options;
  }

  /// Create a store holding one committed page; returns its id.
  PageId CommitOnePage(const std::string& payload) {
    auto created = DiskStorageManager::Create(path_, Options());
    EXPECT_TRUE(created.ok());
    auto stored = (*created)->Store(kNoPage, payload);
    EXPECT_TRUE(stored.ok());
    EXPECT_TRUE((*created)->Flush().ok());
    return *stored;
  }

  /// XOR one byte at `offset` in `file` (a torn sector in miniature).
  void FlipByte(const std::string& file, long offset) {
    std::FILE* f = std::fopen(file.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    if (offset < 0) {
      ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
      offset = std::ftell(f) + offset;
    }
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_NE(std::fputc(c ^ 0x40, f), EOF);
    std::fclose(f);
  }

  void Truncate(const std::string& file, long keep_bytes) {
    std::string contents;
    {
      std::FILE* f = std::fopen(file.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      char buf[1 << 14];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        contents.append(buf, n);
      std::fclose(f);
    }
    ASSERT_LT(static_cast<size_t>(keep_bytes), contents.size());
    std::FILE* f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(contents.data(), 1, keep_bytes, f),
              static_cast<size_t>(keep_bytes));
    std::fclose(f);
  }

  uint64_t ChecksumFailures() const {
    return metrics_->storage_checksum_failures_total->Value();
  }

  std::string path_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::CasperMetrics> metrics_;
};

TEST_F(StorageCorruptionTest, CorruptedPagePayloadFailsDataLoss) {
  const PageId id = CommitOnePage(std::string(2000, 'p'));
  FlipByte(dat(), 100);

  auto reopened = DiskStorageManager::Open(path_, Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::string out;
  const Status loaded = (*reopened)->Load(id, &out);
  EXPECT_EQ(loaded.code(), StatusCode::kDataLoss) << loaded.ToString();
  EXPECT_GE(ChecksumFailures(), 1u);
}

TEST_F(StorageCorruptionTest, TruncatedDataFileFailsDataLoss) {
  // A payload spanning two slots, with the second slot torn off — the
  // classic torn multi-slot write after a crash.
  const PageId id = CommitOnePage(std::string(6000, 'q'));
  Truncate(dat(), 4096);

  auto reopened = DiskStorageManager::Open(path_, Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::string out;
  const Status loaded = (*reopened)->Load(id, &out);
  EXPECT_EQ(loaded.code(), StatusCode::kDataLoss) << loaded.ToString();
  EXPECT_GE(ChecksumFailures(), 1u);
}

TEST_F(StorageCorruptionTest, CorruptedHeaderFailsDataLossOnOpen) {
  CommitOnePage("payload");
  FlipByte(idx(), 24);

  const auto reopened = DiskStorageManager::Open(path_, Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
      << reopened.status().ToString();
}

TEST_F(StorageCorruptionTest, TruncatedHeaderFailsDataLossOnOpen) {
  CommitOnePage("payload");
  Truncate(idx(), 10);

  const auto reopened = DiskStorageManager::Open(path_, Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
      << reopened.status().ToString();
}

TEST_F(StorageCorruptionTest, CorruptedHeaderChecksumTrailerFails) {
  CommitOnePage("payload");
  FlipByte(idx(), -3);  // Inside the trailing Checksum64 seal.

  const auto reopened = DiskStorageManager::Open(path_, Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageCorruptionTest, OldHeaderVersionFailsWithVersionError) {
  CommitOnePage("payload");
  // Rewrite the header's version field (bytes 8-11, little-endian) to
  // 1, the FNV-1a-64 format, which is refused rather than migrated.
  std::FILE* f = std::fopen(idx().c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
  ASSERT_NE(std::fputc(1, f), EOF);
  std::fclose(f);

  const auto reopened = DiskStorageManager::Open(path_, Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("version 1"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(StorageCorruptionTest, IntactStoreStillOpensAfterFailedLoad) {
  // kDataLoss on one page must not poison the manager: other pages
  // keep loading.
  auto created = DiskStorageManager::Create(path_, Options());
  ASSERT_TRUE(created.ok());
  auto good = (*created)->Store(kNoPage, "good");
  auto bad = (*created)->Store(kNoPage, std::string(3000, 'b'));
  ASSERT_TRUE(good.ok() && bad.ok());
  ASSERT_TRUE((*created)->Flush().ok());
  created->reset();

  // Damage only the second page's payload region. The first page is
  // tiny and occupies slot 0; the big page spans slots 1..2, so byte
  // 5000 lands inside it.
  FlipByte(dat(), 5000);
  auto reopened = DiskStorageManager::Open(path_, Options());
  ASSERT_TRUE(reopened.ok());
  std::string out;
  EXPECT_TRUE((*reopened)->Load(*good, &out).ok());
  EXPECT_EQ(out, "good");
  EXPECT_EQ((*reopened)->Load(*bad, &out).code(), StatusCode::kDataLoss);
}

/// The page ids a header body names, its root slots and its page
/// records, read as far as the body parses.
std::vector<PageId> NamedPages(std::string_view body) {
  wire::Reader r(body);
  r.U64();  // Magic.
  r.U32();  // Version.
  r.U64();  // Page size.
  r.U64();  // Next page id.
  r.U64();  // Next slot.
  std::vector<PageId> ids;
  for (size_t slot = 0; slot < kRootSlots; ++slot) ids.push_back(r.U64());
  r.Skip(8 * r.Count(8));  // Free slots.
  r.Skip(8 * r.Count(8));  // Free page ids.
  const size_t pages = r.Count(32);
  for (size_t i = 0; i < pages && !r.failed(); ++i) {
    ids.push_back(r.U64());
    r.U64();  // Length.
    r.U64();  // Checksum.
    r.Skip(8 * r.Count(8));  // Slots.
  }
  return ids;
}

/// Seeded 1-to-3-byte mutants of a committed header's body, resealed so
/// that they get past the checksum to the parser. Each mutant either
/// fails Open with a typed status, or opens a manager whose every named
/// page loads or fails typed. Run it under ASan to catch the reads.
TEST_F(StorageCorruptionTest, ResealedHeaderMutantsFailTypedOrLoadTyped) {
  {
    DiskStorageOptions options = Options();
    options.page_size = 128;
    auto created = DiskStorageManager::Create(path_, options);
    ASSERT_TRUE(created.ok());
    DiskStorageManager& sm = **created;
    std::vector<PageId> ids;
    for (const size_t size : {1, 300, 1000, 0, 128, 129, 40, 700}) {
      auto id = sm.Store(kNoPage,
                         std::string(size, static_cast<char>('a' + size % 26)));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(sm.SetRoot(0, ids[2]).ok());
    ASSERT_TRUE(sm.SetRoot(3, ids[7]).ok());
    ASSERT_TRUE(sm.Flush().ok());
    // A delete and an overwrite leave free page ids and free slots.
    ASSERT_TRUE(sm.Delete(ids[1]).ok());
    ASSERT_TRUE(sm.Store(ids[5], std::string(20, 'z')).ok());
    ASSERT_TRUE(sm.Flush().ok());
  }
  std::string frame;
  {
    std::FILE* f = std::fopen(idx().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[1 << 12];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) frame.append(buf, n);
    std::fclose(f);
  }
  auto body = wire::Unseal(frame, "storage header");
  ASSERT_TRUE(body.ok());
  const std::string original(*body);
  ASSERT_EQ(NamedPages(original).size(), kRootSlots + 7);

  Rng rng(0x1DEA);
  size_t opened = 0;
  for (int m = 0; m < 20480; ++m) {
    std::string mutant = original;
    const uint64_t flips = rng.UniformInt(1, 3);
    for (uint64_t i = 0; i < flips; ++i) {
      const size_t pos = rng.UniformInt(0, mutant.size() - 1);
      mutant[pos] = static_cast<char>(static_cast<uint8_t>(mutant[pos]) ^
                                      rng.UniformInt(1, 255));
    }
    const std::string sealed = wire::Seal(mutant);
    std::FILE* f = std::fopen(idx().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(sealed.data(), 1, sealed.size(), f), sealed.size());
    std::fclose(f);

    auto reopened = DiskStorageManager::Open(path_, Options());
    if (!reopened.ok()) {
      ASSERT_EQ(reopened.status().code(), StatusCode::kDataLoss)
          << "mutant " << m << ": " << reopened.status().ToString();
      continue;
    }
    ++opened;
    for (const PageId id : NamedPages(mutant)) {
      std::string out;
      const Status loaded = (*reopened)->Load(id, &out);
      ASSERT_TRUE(loaded.ok() || loaded.code() == StatusCode::kNotFound ||
                  loaded.code() == StatusCode::kDataLoss)
          << "mutant " << m << ", page " << id << ": " << loaded.ToString();
    }
  }
  // Mutants of a checksum, a free-list entry or a root open, so the
  // loads run.
  EXPECT_GT(opened, 0u);
}

}  // namespace
}  // namespace casper::storage
