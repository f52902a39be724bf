#ifndef CASPER_STORAGE_STORAGE_MANAGER_H_
#define CASPER_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/status.h"

/// \file
/// The page-based storage abstraction the persistent tier is built on.
/// A storage manager hands out logical pages — opaque byte strings
/// addressed by PageId — plus a small set of named root slots so a
/// client (a persisted R-tree, a checkpointed store) can find its
/// entry page again after reopen. Backends: MemoryStorageManager
/// (unordered_map, for tests and as the in-RAM default),
/// DiskStorageManager (fixed-size slots in a data file, crash-safe
/// header commit, per-page checksums).
///
/// The interface is deliberately byte-oriented: layers above serialize
/// their nodes with the wire codec (src/common/codec.h) and never see
/// file offsets, so swapping backends is a constructor argument, not a
/// code change.

namespace casper::storage {

/// Logical page address. Ids are dense-ish, reused after Delete, and
/// stable across Flush/reopen on the disk backend.
using PageId = uint64_t;

/// "No page": pass to Store() to allocate, returned by Root() for an
/// unset slot, and usable by clients as a null link.
inline constexpr PageId kNoPage = ~0ull;

/// Number of named root slots a manager persists alongside its pages.
inline constexpr size_t kRootSlots = 4;

class IStorageManager {
 public:
  virtual ~IStorageManager() = default;

  /// Read page `id` into `*out` (replacing its contents). kNotFound if
  /// the page was never stored or has been deleted; kDataLoss if the
  /// backend detects corruption.
  virtual Status Load(PageId id, std::string* out) = 0;

  /// Write a page. `id == kNoPage` allocates a fresh page and returns
  /// its id; otherwise overwrites page `id` (which must exist) and
  /// returns `id`. Pages may be any length, including empty.
  virtual Result<PageId> Store(PageId id, std::string_view data) = 0;

  /// Free page `id`. kNotFound if it does not exist.
  virtual Status Delete(PageId id) = 0;

  /// Record page id `page` in root slot `slot` (< kRootSlots). Pass
  /// kNoPage to clear the slot. Persisted by Flush on durable backends.
  virtual Status SetRoot(size_t slot, PageId page) = 0;

  /// The page recorded in `slot`, or kNoPage if unset.
  virtual Result<PageId> Root(size_t slot) const = 0;

  /// Make everything stored so far durable. On the disk backend this
  /// is the commit point: the header is rewritten and atomically
  /// renamed into place, after which reopen sees exactly this state.
  virtual Status Flush() = 0;
};

}  // namespace casper::storage

#endif  // CASPER_STORAGE_STORAGE_MANAGER_H_
