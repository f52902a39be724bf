#include "src/storage/disk_storage.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/common/codec.h"

namespace casper::storage {
namespace {

// "CSPRPAG1", little-endian, plus a format version for forward schema
// changes. The magic rejects a foreign file before any field parses.
// Version 2 seals the header and checksums pages with Checksum64
// (version 1 used FNV-1a-64); older files are refused, not migrated.
constexpr uint64_t kHeaderMagic = 0x3147415052505343ull;
constexpr uint32_t kHeaderVersion = 2;
constexpr size_t kHeaderVersionEnd = 8 + 4;  // Magic, then version.

constexpr size_t kPageRecordMinBytes = 8 + 8 + 8 + 8;  // id, len, sum, count.

// Slot sizes a store may have. The cap bounds what one slot read
// allocates, whatever a header says.
constexpr size_t kMinPageSize = 64;
constexpr size_t kMaxPageSize = size_t{1} << 20;

std::string IdxPath(const std::string& base) { return base + ".idx"; }
std::string DatPath(const std::string& base) { return base + ".dat"; }
std::string TmpPath(const std::string& base) { return base + ".idx.tmp"; }

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::NotFound("cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::Internal("read failed for " + path);
  return bytes;
}

}  // namespace

DiskStorageManager::DiskStorageManager(std::string base_path,
                                       const DiskStorageOptions& options)
    : base_path_(std::move(base_path)),
      page_size_(std::clamp(options.page_size, kMinPageSize, kMaxPageSize)),
      metrics_(options.metrics ? options.metrics
                               : obs::CasperMetrics::Default()) {
  roots_.fill(kNoPage);
}

DiskStorageManager::~DiskStorageManager() {
  if (dat_) std::fclose(dat_);
}

namespace {

/// The directory that will hold `base`'s .dat/.idx files. "ckpt" and
/// "./ckpt" live in the current directory.
std::string ParentDirOf(const std::string& base) {
  const size_t slash = base.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return base.substr(0, slash);
}

}  // namespace

Result<std::unique_ptr<DiskStorageManager>> DiskStorageManager::Create(
    const std::string& base_path, const DiskStorageOptions& options) {
  // fopen("wb+") on a path with a missing parent fails with an opaque
  // errno; callers writing checkpoints need a typed answer
  // they can branch on, so check the directory explicitly first.
  struct stat st;
  const std::string parent = ParentDirOf(base_path);
  if (stat(parent.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::NotFound("parent directory does not exist: " + parent);
  }
  auto mgr = std::unique_ptr<DiskStorageManager>(
      new DiskStorageManager(base_path, options));
  CASPER_RETURN_IF_ERROR(mgr->OpenDataFile(/*truncate=*/true));
  // Commit the empty state so a crash before the first real Flush
  // reopens as an empty store, not a missing one.
  CASPER_RETURN_IF_ERROR(mgr->Flush());
  return mgr;
}

Result<std::unique_ptr<DiskStorageManager>> DiskStorageManager::Open(
    const std::string& base_path, const DiskStorageOptions& options) {
  auto mgr = std::unique_ptr<DiskStorageManager>(
      new DiskStorageManager(base_path, options));
  CASPER_RETURN_IF_ERROR(mgr->ReadHeader());
  CASPER_RETURN_IF_ERROR(mgr->OpenDataFile(/*truncate=*/false));
  return mgr;
}

Status DiskStorageManager::OpenDataFile(bool truncate) {
  dat_ = std::fopen(DatPath(base_path_).c_str(), truncate ? "wb+" : "rb+");
  if (!dat_) {
    return truncate
               ? Status::Internal("cannot create " + DatPath(base_path_))
               : Status::NotFound("cannot open " + DatPath(base_path_));
  }
  return Status::OK();
}

std::string DiskStorageManager::EncodeHeader() const {
  wire::Writer w;
  w.U64(kHeaderMagic);
  w.U32(kHeaderVersion);
  w.U64(page_size_);
  w.U64(next_id_);
  w.U64(next_slot_);
  for (const PageId root : roots_) w.U64(root);
  // Quarantined slots are unreferenced the moment this header commits,
  // so the committed free list absorbs them — nothing leaks on reopen.
  w.Count(free_slots_.size() + quarantined_.size());
  for (const uint64_t s : free_slots_) w.U64(s);
  for (const uint64_t s : quarantined_) w.U64(s);
  w.Count(free_ids_.size());
  for (const PageId id : free_ids_) w.U64(id);
  w.Count(pages_.size());
  for (const auto& [id, rec] : pages_) {
    w.U64(id);
    w.U64(rec.length);
    w.U64(rec.checksum);
    w.Count(rec.slots.size());
    for (const uint64_t s : rec.slots) w.U64(s);
  }
  return wire::Seal(w.Take());
}

Status DiskStorageManager::ReadHeader() {
  CASPER_ASSIGN_OR_RETURN(frame, ReadFile(IdxPath(base_path_)));
  // Another version's header fails as such, before its seal is checked.
  if (frame.size() >= kHeaderVersionEnd &&
      wire::LoadU64LE(frame.data()) == kHeaderMagic &&
      wire::LoadU32LE(frame.data() + 8) != kHeaderVersion) {
    return Status::DataLoss(
        "unsupported storage header version " +
        std::to_string(wire::LoadU32LE(frame.data() + 8)) + " (want " +
        std::to_string(kHeaderVersion) + "): " + IdxPath(base_path_));
  }
  auto body = wire::Unseal(frame, "storage header");
  if (!body.ok()) {
    metrics_->storage_checksum_failures_total->Increment();
    return Status::DataLoss(body.status().message());
  }
  wire::Reader r(*body);
  if (r.U64() != kHeaderMagic || r.U32() != kHeaderVersion || r.failed()) {
    return Status::DataLoss("not a casper storage header: " +
                            IdxPath(base_path_));
  }
  page_size_ = r.U64();
  if (page_size_ < kMinPageSize || page_size_ > kMaxPageSize) {
    return Status::DataLoss("storage header page size out of range: " +
                            IdxPath(base_path_));
  }
  next_id_ = r.U64();
  next_slot_ = r.U64();
  for (PageId& root : roots_) root = r.U64();
  const size_t n_free = r.Count(8);
  free_slots_.resize(n_free);
  for (uint64_t& s : free_slots_) s = r.U64();
  const size_t n_free_ids = r.Count(8);
  free_ids_.resize(n_free_ids);
  for (PageId& id : free_ids_) id = r.U64();
  const size_t n_pages = r.Count(kPageRecordMinBytes);
  pages_.reserve(n_pages);
  for (size_t i = 0; i < n_pages; ++i) {
    const PageId id = r.U64();
    PageRecord rec;
    rec.length = r.U64();
    rec.checksum = r.U64();
    const size_t n_slots = r.Count(8);
    rec.slots.resize(n_slots);
    for (uint64_t& s : rec.slots) s = r.U64();
    if (r.failed()) break;
    // Store cuts a page into exactly this many slots, so a length that
    // disagrees cannot make Load read or allocate past them.
    if (n_slots != rec.length / page_size_ + (rec.length % page_size_ != 0)) {
      return Status::DataLoss("storage header page length disagrees with "
                              "its slots: " + IdxPath(base_path_));
    }
    pages_.emplace(id, std::move(rec));
  }
  if (!r.Finish("storage header").ok()) {
    return Status::DataLoss("malformed storage header: " +
                            IdxPath(base_path_));
  }
  return Status::OK();
}

Status DiskStorageManager::Load(PageId id, std::string* out) {
  const auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(id));
  }
  const PageRecord& rec = it->second;
  out->clear();
  out->reserve(rec.length);
  uint64_t remaining = rec.length;
  std::string chunk;
  for (const uint64_t slot : rec.slots) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(remaining, page_size_));
    chunk.resize(want);
    if (std::fseek(dat_, static_cast<long>(slot * page_size_), SEEK_SET) !=
            0 ||
        std::fread(chunk.data(), 1, want, dat_) != want) {
      metrics_->storage_checksum_failures_total->Increment();
      return Status::DataLoss("short read in page " + std::to_string(id) +
                              " of " + DatPath(base_path_));
    }
    out->append(chunk);
    remaining -= want;
  }
  if (remaining != 0 || wire::Checksum64(*out) != rec.checksum) {
    metrics_->storage_checksum_failures_total->Increment();
    return Status::DataLoss("checksum mismatch in page " +
                            std::to_string(id) + " of " +
                            DatPath(base_path_));
  }
  metrics_->storage_pages_read_total->Increment();
  return Status::OK();
}

uint64_t DiskStorageManager::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint64_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  return next_slot_++;
}

Status DiskStorageManager::WriteSlots(const std::vector<uint64_t>& slots,
                                      std::string_view data) {
  size_t offset = 0;
  for (const uint64_t slot : slots) {
    const size_t n = std::min(page_size_, data.size() - offset);
    if (std::fseek(dat_, static_cast<long>(slot * page_size_), SEEK_SET) !=
            0 ||
        std::fwrite(data.data() + offset, 1, n, dat_) != n) {
      return Status::Internal("write failed for " + DatPath(base_path_));
    }
    offset += n;
  }
  return Status::OK();
}

Result<PageId> DiskStorageManager::Store(PageId id, std::string_view data) {
  PageRecord* rec;
  if (id == kNoPage) {
    if (!free_ids_.empty()) {
      id = free_ids_.back();
      free_ids_.pop_back();
    } else {
      id = next_id_++;
    }
    rec = &pages_[id];
  } else {
    const auto it = pages_.find(id);
    if (it == pages_.end()) {
      return Status::NotFound("page " + std::to_string(id));
    }
    rec = &it->second;
    // Copy-on-write: the committed header may still reference these
    // slots, so they stay quarantined until the next commit.
    quarantined_.insert(quarantined_.end(), rec->slots.begin(),
                        rec->slots.end());
    rec->slots.clear();
  }
  const size_t n_slots = (data.size() + page_size_ - 1) / page_size_;
  rec->slots.reserve(n_slots);
  for (size_t i = 0; i < n_slots; ++i) rec->slots.push_back(AllocSlot());
  const Status written = WriteSlots(rec->slots, data);
  if (!written.ok()) return written;
  rec->length = data.size();
  rec->checksum = wire::Checksum64(data);
  metrics_->storage_pages_written_total->Increment();
  return id;
}

Status DiskStorageManager::Delete(PageId id) {
  const auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(id));
  }
  quarantined_.insert(quarantined_.end(), it->second.slots.begin(),
                      it->second.slots.end());
  pages_.erase(it);
  free_ids_.push_back(id);
  return Status::OK();
}

Status DiskStorageManager::SetRoot(size_t slot, PageId page) {
  if (slot >= kRootSlots) {
    return Status::OutOfRange("root slot " + std::to_string(slot));
  }
  roots_[slot] = page;
  return Status::OK();
}

Result<PageId> DiskStorageManager::Root(size_t slot) const {
  if (slot >= kRootSlots) {
    return Status::OutOfRange("root slot " + std::to_string(slot));
  }
  return roots_[slot];
}

Status DiskStorageManager::Flush() {
  if (std::fflush(dat_) != 0) {
    return Status::Internal("flush failed for " + DatPath(base_path_));
  }
  const std::string header = EncodeHeader();
  const std::string tmp = TmpPath(base_path_);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Status::Internal("cannot create " + tmp);
  const bool written =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!written) {
    std::remove(tmp.c_str());
    return Status::Internal("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), IdxPath(base_path_).c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("commit rename failed for " + tmp);
  }
  // The old header is gone; its slots are reusable now.
  free_slots_.insert(free_slots_.end(), quarantined_.begin(),
                     quarantined_.end());
  quarantined_.clear();
  return Status::OK();
}

DiskStorageManager::Stats DiskStorageManager::stats() const {
  Stats s;
  s.pages = pages_.size();
  s.slots = static_cast<size_t>(next_slot_);
  s.free_slots = free_slots_.size();
  s.quarantined = quarantined_.size();
  s.page_size = page_size_;
  return s;
}

}  // namespace casper::storage
