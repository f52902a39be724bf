#ifndef CASPER_STORAGE_DISK_STORAGE_H_
#define CASPER_STORAGE_DISK_STORAGE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/casper_metrics.h"
#include "src/storage/storage_manager.h"

/// \file
/// Disk-backed IStorageManager over two files:
///
///   <base>.dat — fixed-size physical slots (`page_size` bytes each).
///     A logical page of any length occupies a chain of slots; slot
///     payloads are raw bytes, all framing lives in the index.
///   <base>.idx — the committed header: a wire::Seal'd frame holding
///     the root slots, the free-slot list, and the page table (per
///     page: id, byte length, Checksum64 of the payload, slot chain).
///
/// Crash safety is write-ahead-of-the-header + copy-on-write slots:
/// Store() never overwrites a slot the committed header references —
/// rewrites allocate fresh slots and quarantine the old ones. Flush()
/// is the commit point: it fflushes the data file, writes the new
/// header to <base>.idx.tmp, and rename()s it into place atomically.
/// A crash at any moment leaves the previous committed state fully
/// readable (the old header still points at intact slots); a torn or
/// corrupted slot under the *committed* header is caught by the
/// per-page checksum at Load() and surfaced as a typed kDataLoss.

namespace casper::storage {

struct DiskStorageOptions {
  /// Physical slot size in the data file. Pages longer than this chain
  /// across multiple slots.
  size_t page_size = 4096;

  /// Instrument bundle for casper_storage_* counters; null resolves to
  /// obs::CasperMetrics::Default().
  obs::CasperMetrics* metrics = nullptr;
};

class DiskStorageManager final : public IStorageManager {
 public:
  /// Create a fresh store at `base_path` (writes `<base_path>.dat` and
  /// `<base_path>.idx`, truncating any previous pair). A base path
  /// whose parent directory does not exist is kNotFound — rejected
  /// before any file is touched.
  static Result<std::unique_ptr<DiskStorageManager>> Create(
      const std::string& base_path, const DiskStorageOptions& options = {});

  /// Reopen the last committed state at `base_path`. A missing pair is
  /// kNotFound; a truncated or checksum-invalid header is kDataLoss.
  static Result<std::unique_ptr<DiskStorageManager>> Open(
      const std::string& base_path, const DiskStorageOptions& options = {});

  ~DiskStorageManager() override;
  DiskStorageManager(const DiskStorageManager&) = delete;
  DiskStorageManager& operator=(const DiskStorageManager&) = delete;

  Status Load(PageId id, std::string* out) override;
  Result<PageId> Store(PageId id, std::string_view data) override;
  Status Delete(PageId id) override;
  Status SetRoot(size_t slot, PageId page) override;
  Result<PageId> Root(size_t slot) const override;
  Status Flush() override;

  struct Stats {
    size_t pages = 0;        ///< Logical pages in the table.
    size_t slots = 0;        ///< Physical slots ever allocated.
    size_t free_slots = 0;   ///< Reusable now.
    size_t quarantined = 0;  ///< Freed but pinned by the committed header.
    size_t page_size = 0;
  };
  Stats stats() const;

  const std::string& base_path() const { return base_path_; }

 private:
  /// One logical page's footprint in the data file.
  struct PageRecord {
    uint64_t length = 0;    ///< Payload bytes.
    uint64_t checksum = 0;  ///< Checksum64 of the payload.
    std::vector<uint64_t> slots;
  };

  DiskStorageManager(std::string base_path, const DiskStorageOptions& options);

  Status OpenDataFile(bool truncate);
  Status ReadHeader();
  std::string EncodeHeader() const;
  Status WriteSlots(const std::vector<uint64_t>& slots,
                    std::string_view data);
  uint64_t AllocSlot();

  std::string base_path_;
  size_t page_size_;
  obs::CasperMetrics* metrics_;

  std::FILE* dat_ = nullptr;

  std::unordered_map<PageId, PageRecord> pages_;
  std::vector<PageId> free_ids_;
  std::vector<uint64_t> free_slots_;    ///< Safe to reuse immediately.
  std::vector<uint64_t> quarantined_;   ///< Reusable after the next commit.
  std::array<PageId, kRootSlots> roots_;
  PageId next_id_ = 0;
  uint64_t next_slot_ = 0;
};

}  // namespace casper::storage

#endif  // CASPER_STORAGE_DISK_STORAGE_H_
