#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "src/obs/casper_metrics.h"
#include "src/obs/metrics.h"
#include "src/storage/disk_storage.h"
#include "src/storage/memory_storage.h"
#include "src/storage/storage_manager.h"

/// IStorageManager contract tests, run against both backends, plus the
/// disk backend's durability semantics: only Flush()ed state survives a
/// reopen, and an overwrite that never committed leaves the previous
/// committed payload intact (copy-on-write slots).

namespace casper::storage {
namespace {

std::string TestPath(const char* name) {
  std::string safe = name;
  std::replace(safe.begin(), safe.end(), '/', '_');
  return testing::TempDir() + "casper_storage_" + safe + "_" +
         std::to_string(::getpid());
}

/// Both backends behind one fixture: the disk variant gets a private
/// metrics bundle so counter asserts elsewhere never race the global
/// registry.
class StorageManagerTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      registry_ = std::make_unique<obs::MetricsRegistry>();
      metrics_ = std::make_unique<obs::CasperMetrics>(registry_.get());
      DiskStorageOptions options;
      options.metrics = metrics_.get();
      path_ = TestPath(
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
      auto created = DiskStorageManager::Create(path_, options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      disk_ = std::move(created).value();
      sm_ = disk_.get();
    } else {
      memory_ = std::make_unique<MemoryStorageManager>();
      sm_ = memory_.get();
    }
  }

  void TearDown() override {
    disk_.reset();
    if (!path_.empty()) {
      std::remove((path_ + ".dat").c_str());
      std::remove((path_ + ".idx").c_str());
    }
  }

  IStorageManager* sm_ = nullptr;
  std::string path_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::CasperMetrics> metrics_;
  std::unique_ptr<MemoryStorageManager> memory_;
  std::unique_ptr<DiskStorageManager> disk_;
};

TEST_P(StorageManagerTest, StoreLoadRoundTrip) {
  auto id = sm_->Store(kNoPage, "hello pages");
  ASSERT_TRUE(id.ok());
  std::string out;
  ASSERT_TRUE(sm_->Load(*id, &out).ok());
  EXPECT_EQ(out, "hello pages");
}

TEST_P(StorageManagerTest, EmptyPageRoundTrip) {
  auto id = sm_->Store(kNoPage, "");
  ASSERT_TRUE(id.ok());
  std::string out = "stale";
  ASSERT_TRUE(sm_->Load(*id, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(StorageManagerTest, LargePageRoundTrip) {
  // Spans many physical slots on the disk backend.
  std::string big;
  for (int i = 0; i < 50000; ++i) big.push_back(static_cast<char>(i * 31));
  auto id = sm_->Store(kNoPage, big);
  ASSERT_TRUE(id.ok());
  std::string out;
  ASSERT_TRUE(sm_->Load(*id, &out).ok());
  EXPECT_EQ(out, big);
}

TEST_P(StorageManagerTest, AllocatedIdsAreDistinct) {
  auto a = sm_->Store(kNoPage, "a");
  auto b = sm_->Store(kNoPage, "b");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  std::string out;
  ASSERT_TRUE(sm_->Load(*a, &out).ok());
  EXPECT_EQ(out, "a");
}

TEST_P(StorageManagerTest, OverwriteReplacesAndCanShrinkOrGrow) {
  auto id = sm_->Store(kNoPage, std::string(9000, 'x'));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(sm_->Store(*id, "small now").ok());
  std::string out;
  ASSERT_TRUE(sm_->Load(*id, &out).ok());
  EXPECT_EQ(out, "small now");
  ASSERT_TRUE(sm_->Store(*id, std::string(20000, 'y')).ok());
  ASSERT_TRUE(sm_->Load(*id, &out).ok());
  EXPECT_EQ(out, std::string(20000, 'y'));
}

TEST_P(StorageManagerTest, MissingPageIsNotFound) {
  std::string out;
  EXPECT_EQ(sm_->Load(999, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(sm_->Store(999, "x").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(sm_->Delete(999).code(), StatusCode::kNotFound);
}

TEST_P(StorageManagerTest, DeleteThenLoadIsNotFound) {
  auto id = sm_->Store(kNoPage, "doomed");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(sm_->Delete(*id).ok());
  std::string out;
  EXPECT_EQ(sm_->Load(*id, &out).code(), StatusCode::kNotFound);
}

TEST_P(StorageManagerTest, DeletedIdsAreReused) {
  auto a = sm_->Store(kNoPage, "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(sm_->Delete(*a).ok());
  auto b = sm_->Store(kNoPage, "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_P(StorageManagerTest, RootSlots) {
  for (size_t slot = 0; slot < kRootSlots; ++slot) {
    auto unset = sm_->Root(slot);
    ASSERT_TRUE(unset.ok());
    EXPECT_EQ(*unset, kNoPage);
  }
  ASSERT_TRUE(sm_->SetRoot(1, 42).ok());
  auto root = sm_->Root(1);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, 42u);
  EXPECT_EQ(sm_->SetRoot(kRootSlots, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(sm_->Root(kRootSlots).status().code(), StatusCode::kOutOfRange);
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageManagerTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Disk" : "Memory";
                         });

class DiskReopenTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove((path_ + ".dat").c_str());
    std::remove((path_ + ".idx").c_str());
  }
  std::string path_;
};

TEST_F(DiskReopenTest, FlushedStateSurvivesReopen) {
  path_ = TestPath("reopen");
  PageId id_a, id_b;
  {
    auto created = DiskStorageManager::Create(path_);
    ASSERT_TRUE(created.ok());
    auto& sm = **created;
    auto a = sm.Store(kNoPage, "alpha");
    auto b = sm.Store(kNoPage, std::string(10000, 'b'));
    ASSERT_TRUE(a.ok() && b.ok());
    id_a = *a;
    id_b = *b;
    ASSERT_TRUE(sm.SetRoot(0, id_a).ok());
    ASSERT_TRUE(sm.Flush().ok());
  }
  auto opened = DiskStorageManager::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& sm = **opened;
  std::string out;
  ASSERT_TRUE(sm.Load(id_a, &out).ok());
  EXPECT_EQ(out, "alpha");
  ASSERT_TRUE(sm.Load(id_b, &out).ok());
  EXPECT_EQ(out, std::string(10000, 'b'));
  auto root = sm.Root(0);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, id_a);
}

TEST_F(DiskReopenTest, UncommittedOverwriteDoesNotReachDisk) {
  path_ = TestPath("cow");
  PageId id;
  {
    auto created = DiskStorageManager::Create(path_);
    ASSERT_TRUE(created.ok());
    auto& sm = **created;
    auto stored = sm.Store(kNoPage, "committed payload");
    ASSERT_TRUE(stored.ok());
    id = *stored;
    ASSERT_TRUE(sm.Flush().ok());
    // Overwrite WITHOUT flushing — simulates a crash mid-update. The
    // copy-on-write slot policy must leave the committed bytes intact.
    ASSERT_TRUE(sm.Store(id, "torn uncommitted overwrite").ok());
  }
  auto opened = DiskStorageManager::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::string out;
  ASSERT_TRUE((*opened)->Load(id, &out).ok());
  EXPECT_EQ(out, "committed payload");
}

TEST_F(DiskReopenTest, QuarantinedSlotsAreReusableAfterCommit) {
  path_ = TestPath("quarantine");
  auto created = DiskStorageManager::Create(path_);
  ASSERT_TRUE(created.ok());
  auto& sm = **created;
  auto id = sm.Store(kNoPage, std::string(5000, 'x'));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(sm.Store(*id, std::string(5000, 'y')).ok());
  EXPECT_GT(sm.stats().quarantined, 0u);
  ASSERT_TRUE(sm.Flush().ok());
  EXPECT_EQ(sm.stats().quarantined, 0u);
  EXPECT_GT(sm.stats().free_slots, 0u);
  const size_t slots_before = sm.stats().slots;
  ASSERT_TRUE(sm.Store(*id, std::string(5000, 'z')).ok());
  // The rewrite reuses freed slots instead of growing the file.
  EXPECT_EQ(sm.stats().slots, slots_before);
}

TEST_F(DiskReopenTest, MissingFilesAreNotFound) {
  const auto opened = DiskStorageManager::Open(TestPath("missing"));
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST_F(DiskReopenTest, CreateUnderMissingParentDirIsTypedNotFound) {
  // Checkpoints land under caller-chosen directories; a typo'd
  // directory must surface as a typed error, not an opaque fopen
  // failure.
  const std::string base =
      TestPath("no_such_dir") + "/deeper/checkpoint";
  const auto created = DiskStorageManager::Create(base);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
  EXPECT_NE(created.status().message().find("parent directory"),
            std::string::npos)
      << created.status().ToString();
  // Nothing may have been created on disk.
  EXPECT_FALSE(DiskStorageManager::Open(base).ok());
}

TEST_F(DiskReopenTest, CreateInExistingDirectoryStillWorks) {
  path_ = TestPath("plain_name_in_cwd");
  // A bare file name (parent == ".") and an absolute temp path must both
  // pass the parent check.
  auto created = DiskStorageManager::Create(path_);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE((*created)->Flush().ok());
}

}  // namespace
}  // namespace casper::storage
