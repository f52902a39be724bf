#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

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

}  // namespace
}  // namespace casper::storage
