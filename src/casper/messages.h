#ifndef CASPER_CASPER_MESSAGES_H_
#define CASPER_CASPER_MESSAGES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/common/codec.h"
#include "src/common/geometry.h"
#include "src/common/result.h"
#include "src/processor/density.h"
#include "src/processor/private_knn.h"
#include "src/processor/private_nn.h"
#include "src/processor/private_range.h"
#include "src/processor/public_nn_private.h"
#include "src/processor/public_range.h"
#include "src/processor/target_store.h"

/// \file
/// The wire-message protocol between the paper's three trust domains
/// (Figure 1): mobile clients, the trusted location anonymizer, and the
/// privacy-aware database server. Everything that crosses the
/// anonymizer/server boundary is one of the message types below — the
/// server tier never receives a user id, an exact position, or a
/// privacy profile; only cloaked regions and opaque pseudonym handles.
///
/// Every message has a lossless binary encoding (little-endian,
/// length-prefixed containers, leading type tag, trailing checksum), and
/// every deployment speaks it: the in-process facade sends the same
/// bytes through a direct channel that a socket carries between
/// processes.

namespace casper {

// ---------------------------------------------------------------------------
// Query taxonomy
// ---------------------------------------------------------------------------

/// Every query kind the framework answers. The first four are *private*
/// queries (the querying user is cloaked); the last three are *public*
/// queries over the private (cloaked-region) data.
enum class QueryKind : uint8_t {
  kNearestPublic = 0,   ///< Private NN over public data (Algorithm 2).
  kKNearestPublic = 1,  ///< Private k-NN over public data.
  kRangePublic = 2,     ///< Private circular range over public data.
  kNearestPrivate = 3,  ///< Private NN over private data (buddies).
  kPublicNearest = 4,   ///< Public NN over private data (known point).
  kPublicRange = 5,     ///< Public range count over private data.
  kDensity = 6,         ///< Expected-density map over private data.
};

// --- Client -> anonymizer: one query, any kind -----------------------------
//
// The per-kind parameter structs make "exactly the parameters this kind
// needs" hold by construction; the eight former Query*/Evaluate* entry
// points all collapse into this one variant plus a single dispatch.

struct NearestPublicQ {
  uint64_t uid = 0;
};
struct KNearestPublicQ {
  uint64_t uid = 0;
  uint64_t k = 1;
};
struct RangePublicQ {
  uint64_t uid = 0;
  double radius = 0.0;
};
struct NearestPrivateQ {
  uint64_t uid = 0;
};
struct PublicNearestQ {
  Point q;
};
struct PublicRangeQ {
  Rect region;
};
struct DensityQ {
  int32_t cols = 0;
  int32_t rows = 0;
};

/// The unified query request. Alternative order matches QueryKind.
using QueryRequest =
    std::variant<NearestPublicQ, KNearestPublicQ, RangePublicQ,
                 NearestPrivateQ, PublicNearestQ, PublicRangeQ, DensityQ>;

inline QueryKind KindOf(const QueryRequest& request) {
  return static_cast<QueryKind>(request.index());
}

/// True for the kinds that cloak a querying user (and therefore carry a
/// uid that must never leave the trusted tier).
inline bool IsCloakedKind(QueryKind kind) {
  return kind == QueryKind::kNearestPublic ||
         kind == QueryKind::kKNearestPublic ||
         kind == QueryKind::kRangePublic ||
         kind == QueryKind::kNearestPrivate;
}

/// True for the kinds evaluated against the private-data snapshot
/// (which the facade guards with its staleness precondition).
inline bool UsesPrivateData(QueryKind kind) {
  return kind == QueryKind::kNearestPrivate ||
         kind == QueryKind::kPublicNearest ||
         kind == QueryKind::kPublicRange || kind == QueryKind::kDensity;
}

/// The querying user of a private-kind request; 0 for public kinds.
inline uint64_t UidOf(const QueryRequest& request) {
  if (const auto* q = std::get_if<NearestPublicQ>(&request)) return q->uid;
  if (const auto* q = std::get_if<KNearestPublicQ>(&request)) return q->uid;
  if (const auto* q = std::get_if<RangePublicQ>(&request)) return q->uid;
  if (const auto* q = std::get_if<NearestPrivateQ>(&request)) return q->uid;
  return 0;
}

// ---------------------------------------------------------------------------
// Anonymizer -> server: queries with identity stripped
// ---------------------------------------------------------------------------

/// A query as the database server sees it: for private kinds the exact
/// location is replaced by the cloaked region and the user id by
/// nothing at all — only for buddy queries does the requester's
/// *current pseudonym handle* ride along, so the server can exclude the
/// requester's own stored region from the answer (it can still not link
/// the handle to any identity). Public kinds carry their exact
/// parameters unchanged.
struct CloakedQueryMsg {
  QueryKind kind = QueryKind::kNearestPublic;

  /// Transport-level idempotency key (0 = unkeyed). A retry re-sends the
  /// same id; the server echoes it in the CandidateListMsg so a client
  /// can reject responses that belong to a different request. Carries no
  /// identity: ids are per-connection sequence numbers, not user data.
  uint64_t request_id = 0;

  Rect cloak;                   ///< Private kinds: the cloaked region.
  uint64_t k = 1;               ///< kKNearestPublic.
  double radius = 0.0;          ///< kRangePublic.
  bool has_exclude = false;     ///< kNearestPrivate: exclude handle set?
  uint64_t exclude_handle = 0;  ///< Requester's stored-region handle.

  Point point;       ///< kPublicNearest.
  Rect region;       ///< kPublicRange.
  int32_t cols = 0;  ///< kDensity.
  int32_t rows = 0;  ///< kDensity.

  friend bool operator==(const CloakedQueryMsg& a, const CloakedQueryMsg& b) {
    return a.kind == b.kind && a.request_id == b.request_id &&
           a.cloak == b.cloak && a.k == b.k &&
           a.radius == b.radius && a.has_exclude == b.has_exclude &&
           a.exclude_handle == b.exclude_handle && a.point == b.point &&
           a.region == b.region && a.cols == b.cols && a.rows == b.rows;
  }
};

/// Private-store maintenance: store `region` under the opaque handle
/// `handle` (a pseudonym — the server cannot resolve it). When
/// `has_replaces` is set, the region previously stored under `replaces`
/// is dropped first (pseudonyms rotate on every re-publication, so the
/// new handle is always fresh).
struct RegionUpsertMsg {
  /// Idempotency key (0 = unkeyed): a duplicated delivery with the same
  /// id replays the original outcome instead of double-applying.
  uint64_t request_id = 0;
  uint64_t handle = 0;
  bool has_replaces = false;
  uint64_t replaces = 0;
  Rect region;

  friend bool operator==(const RegionUpsertMsg& a, const RegionUpsertMsg& b) {
    return a.request_id == b.request_id && a.handle == b.handle &&
           a.has_replaces == b.has_replaces &&
           a.replaces == b.replaces && a.region == b.region;
  }
};

/// Drop the region stored under `handle` (deregistration).
struct RegionRemoveMsg {
  /// Idempotency key (0 = unkeyed); see RegionUpsertMsg::request_id.
  uint64_t request_id = 0;
  uint64_t handle = 0;

  friend bool operator==(const RegionRemoveMsg& a, const RegionRemoveMsg& b) {
    return a.request_id == b.request_id && a.handle == b.handle;
  }
};

/// Bulk snapshot replacing the server's whole private store (the batch
/// SyncPrivateData model): (handle, region) pairs, identities already
/// stripped and rotated by the anonymizer.
struct SnapshotMsg {
  std::vector<processor::PrivateTarget> regions;

  friend bool operator==(const SnapshotMsg& a, const SnapshotMsg& b) {
    return a.regions == b.regions;
  }
};

// ---------------------------------------------------------------------------
// Server -> client (via the anonymizer): candidate lists
// ---------------------------------------------------------------------------

/// The server-side answer payload, one alternative per QueryKind (same
/// order).
using ServerPayload =
    std::variant<processor::PublicCandidateList, processor::KnnCandidateList,
                 processor::PublicRangeCandidates,
                 processor::PrivateCandidateList, processor::PublicNNCandidates,
                 processor::RangeCountResult, processor::DensityMap>;

/// The candidate list (or aggregate answer) for one CloakedQueryMsg,
/// plus the server-side processing cost for the Figure-17 breakdown.
struct CandidateListMsg {
  QueryKind kind = QueryKind::kNearestPublic;
  /// Echo of CloakedQueryMsg::request_id (0 = unkeyed), so a resilient
  /// client can reject a response that answers a different request.
  uint64_t request_id = 0;
  /// Served from a possibly-stale cache while the server tier was
  /// unreachable: inclusiveness still holds (the candidate list was
  /// computed for the same cloak under the same privacy profile), but
  /// minimality may not. Never set on the healthy path.
  bool degraded = false;
  ServerPayload payload;
  double processor_seconds = 0.0;

  friend bool operator==(const CandidateListMsg& a, const CandidateListMsg& b) {
    return a.kind == b.kind && a.request_id == b.request_id &&
           a.degraded == b.degraded &&
           a.processor_seconds == b.processor_seconds &&
           a.payload == b.payload;
  }
};

/// Number of candidate-list records shipped to the client — the input
/// of the §6.3 transmission-cost model.
size_t RecordCount(const ServerPayload& payload);

// --- Server -> anonymizer: maintenance acknowledgements --------------------

/// Outcome of a maintenance message (RegionUpsert / RegionRemove /
/// Snapshot) or a failed query, echoed back over the channel so errors
/// travel the wire as typed statuses instead of being implied by
/// silence. `request_id` echoes the request's idempotency key.
struct AckMsg {
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;

  bool ok() const { return code == StatusCode::kOk; }

  /// The Status this ack transports (OK when `code` is kOk).
  Status ToStatus() const;

  /// Build the ack for `status` (any code, including kOk).
  static AckMsg For(uint64_t request_id, const Status& status);

  friend bool operator==(const AckMsg& a, const AckMsg& b) {
    return a.request_id == b.request_id && a.code == b.code &&
           a.message == b.message;
  }
};

// ---------------------------------------------------------------------------
// Tier plumbing
// ---------------------------------------------------------------------------

/// Receiving end of the anonymizer's private-store maintenance stream.
/// The server tier implements this; the anonymizer tier publishes into
/// it without ever knowing the concrete server type.
class PrivateStoreSink {
 public:
  virtual ~PrivateStoreSink() = default;
  virtual Status Apply(const RegionUpsertMsg& msg) = 0;
  virtual Status Apply(const RegionRemoveMsg& msg) = 0;
};

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------
//
// Each Encode() emits a self-describing byte string (leading message
// tag); each Decode*() validates the checksum, the tag, every length
// prefix and enum, and that the buffer is fully consumed, so truncated
// or mistyped buffers fail with InvalidArgument instead of crashing.
//
// The two messages that carry repeated records — candidate lists and
// snapshots — have exactly one parser each, and it is a view:
// DecodeCandidateListView / DecodeSnapshotView validate the frame and
// leave the records in place, addressed by WireSpans. Materialize()
// copies them out; DecodeCandidateList is that view plus Materialize().
// Views borrow the frame — it must outlive the view — while any value
// read *out* of a view is an independent copy.

std::string Encode(const CloakedQueryMsg& msg);
std::string Encode(const RegionUpsertMsg& msg);
std::string Encode(const RegionRemoveMsg& msg);
std::string Encode(const SnapshotMsg& msg);
std::string Encode(const CandidateListMsg& msg);
std::string Encode(const AckMsg& msg);

Result<CloakedQueryMsg> DecodeCloakedQuery(std::string_view bytes);
Result<RegionUpsertMsg> DecodeRegionUpsert(std::string_view bytes);
Result<RegionRemoveMsg> DecodeRegionRemove(std::string_view bytes);
Result<CandidateListMsg> DecodeCandidateList(std::string_view bytes);
Result<AckMsg> DecodeAck(std::string_view bytes);

/// Leading type tag of an encoded message, or kInvalidArgument for an
/// empty/unknown buffer — the transport's dispatch key.
enum class MessageTag : uint8_t {
  kCloakedQuery = 0xC1,
  kRegionUpsert = 0xC2,
  kRegionRemove = 0xC3,
  kSnapshot = 0xC4,
  kCandidateList = 0xC5,
  kAck = 0xC6,
};

Result<MessageTag> TagOf(std::string_view bytes);

/// Idempotency key of an encoded request, without a full decode: the
/// request_id sits at a fixed offset behind the tag in every keyed
/// request message (queries and maintenance); snapshots are unkeyed and
/// answer 0. The transport's admission layer uses this to address a
/// typed shed/reject ack to the request it is refusing — for a buffer
/// too short to carry the field, 0 (the "unkeyed" id) is returned, and
/// the real decoder will produce the typed error.
uint64_t RequestIdOf(std::string_view bytes);

// ---------------------------------------------------------------------------
// Record layouts and decode views
// ---------------------------------------------------------------------------

/// Wire layout of one repeated record type: its fixed stride and the
/// per-field read and write. Specialized for every record that appears
/// in a record block; no other code knows a record's offsets.
template <typename T>
struct WireRecord;

template <>
struct WireRecord<double> {
  static constexpr size_t kBytes = 8;
  static double Read(const char* p) { return wire::LoadF64LE(p); }
  static void Write(char* p, double v) { wire::StoreF64LE(p, v); }
};

template <>
struct WireRecord<processor::PublicTarget> {
  static constexpr size_t kBytes = 24;
  static processor::PublicTarget Read(const char* p) {
    processor::PublicTarget t;
    t.id = wire::LoadU64LE(p);
    t.position = Point{wire::LoadF64LE(p + 8), wire::LoadF64LE(p + 16)};
    return t;
  }
  static void Write(char* p, const processor::PublicTarget& t) {
    wire::StoreU64LE(p, t.id);
    wire::StoreF64LE(p + 8, t.position.x);
    wire::StoreF64LE(p + 16, t.position.y);
  }
};

template <>
struct WireRecord<processor::PrivateTarget> {
  static constexpr size_t kBytes = 40;
  static processor::PrivateTarget Read(const char* p) {
    processor::PrivateTarget t;
    t.id = wire::LoadU64LE(p);
    t.region = Rect(wire::LoadF64LE(p + 8), wire::LoadF64LE(p + 16),
                    wire::LoadF64LE(p + 24), wire::LoadF64LE(p + 32));
    return t;
  }
  static void Write(char* p, const processor::PrivateTarget& t) {
    wire::StoreU64LE(p, t.id);
    wire::StoreF64LE(p + 8, t.region.min.x);
    wire::StoreF64LE(p + 16, t.region.min.y);
    wire::StoreF64LE(p + 24, t.region.max.x);
    wire::StoreF64LE(p + 32, t.region.max.y);
  }
};

template <>
struct WireRecord<processor::PublicNNCandidates::Candidate> {
  /// The target's record, then min_dist and max_dist.
  static constexpr size_t kTargetBytes =
      WireRecord<processor::PrivateTarget>::kBytes;
  static constexpr size_t kBytes = kTargetBytes + 16;
  static processor::PublicNNCandidates::Candidate Read(const char* p) {
    processor::PublicNNCandidates::Candidate c;
    c.target = WireRecord<processor::PrivateTarget>::Read(p);
    c.min_dist = wire::LoadF64LE(p + kTargetBytes);
    c.max_dist = wire::LoadF64LE(p + kTargetBytes + 8);
    return c;
  }
  static void Write(char* p,
                    const processor::PublicNNCandidates::Candidate& c) {
    WireRecord<processor::PrivateTarget>::Write(p, c.target);
    wire::StoreF64LE(p + kTargetBytes, c.min_dist);
    wire::StoreF64LE(p + kTargetBytes + 8, c.max_dist);
  }
};

/// True when a T in memory is byte for byte its wire record: the host
/// is little-endian, T has no padding or members beyond the record's
/// fields, and memcpy may copy it. Every WireRecord<T> lays its fields
/// out in declaration order at their natural offsets, so a whole block
/// of such records is then one memcpy; otherwise the per-field
/// Read/Write loop, the portable path, runs. codec_test pins the two
/// paths byte-identical.
template <typename T>
inline constexpr bool kBulkRecords =
    std::endian::native == std::endian::little &&
    sizeof(T) == WireRecord<T>::kBytes && std::is_trivially_copyable_v<T>;

/// Lazily-decoded span of fixed-stride records inside a validated
/// frame. Indexing decodes record i on the fly; nothing is copied until
/// the caller asks for it.
template <typename T>
class WireSpan {
 public:
  WireSpan() = default;
  WireSpan(const char* data, size_t count) : data_(data), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Decode record i out of the frame (an independent copy).
  T operator[](size_t i) const {
    return WireRecord<T>::Read(data_ + i * WireRecord<T>::kBytes);
  }

  /// Copy every record into an owning vector.
  std::vector<T> Materialize() const {
    if constexpr (kBulkRecords<T>) {
      std::vector<T> out(count_);
      if (count_ > 0) std::memcpy(out.data(), data_, count_ * sizeof(T));
      return out;
    } else {
      std::vector<T> out;
      out.reserve(count_);
      for (size_t i = 0; i < count_; ++i) out.push_back((*this)[i]);
      return out;
    }
  }

 private:
  const char* data_ = nullptr;
  size_t count_ = 0;
};

/// Append `records` back to back, WireRecord<T>::kBytes each.
template <typename T>
void WriteRecords(wire::Writer& w, const std::vector<T>& records) {
  char* p = w.Extend(records.size() * WireRecord<T>::kBytes);
  if constexpr (kBulkRecords<T>) {
    if (!records.empty()) {
      std::memcpy(p, records.data(), records.size() * sizeof(T));
    }
  } else {
    for (const T& record : records) {
      WireRecord<T>::Write(p, record);
      p += WireRecord<T>::kBytes;
    }
  }
}

/// The next `n` records, left in place. Empty, with `r` failed, when
/// fewer bytes remain.
template <typename T>
WireSpan<T> ReadRecords(wire::Reader& r, size_t n) {
  const char* data = r.Skip(n * WireRecord<T>::kBytes);
  return data != nullptr ? WireSpan<T>(data, n) : WireSpan<T>();
}

/// A record block behind its u64 count: the layout of every repeated
/// field in the protocol.
template <typename T>
void WriteList(wire::Writer& w, const std::vector<T>& records) {
  w.Count(records.size());
  WriteRecords(w, records);
}

template <typename T>
WireSpan<T> ReadList(wire::Reader& r) {
  return ReadRecords<T>(r, r.Count(WireRecord<T>::kBytes));
}

// One view per ServerPayload alternative (same order). The small
// fixed-size trailers (extended area, policy, bounds) are decoded
// eagerly — they are a few dozen bytes; only the repeated records stay
// lazy.

struct PublicCandidateListView {
  WireSpan<processor::PublicTarget> candidates;
  processor::ExtendedArea area;
  processor::FilterPolicy policy = processor::FilterPolicy::kFourFilters;
  processor::PublicCandidateList Materialize() const;
};

struct KnnCandidateListView {
  WireSpan<processor::PublicTarget> candidates;
  Rect a_ext;
  uint64_t k = 1;
  processor::KnnCandidateList Materialize() const;
};

struct PublicRangeCandidatesView {
  WireSpan<processor::PublicTarget> candidates;
  Rect search_window;
  processor::PublicRangeCandidates Materialize() const;
};

struct PrivateCandidateListView {
  WireSpan<processor::PrivateTarget> candidates;
  processor::ExtendedArea area;
  processor::FilterPolicy policy = processor::FilterPolicy::kFourFilters;
  processor::PrivateCandidateList Materialize() const;
};

struct PublicNNCandidatesView {
  WireSpan<processor::PublicNNCandidates::Candidate> candidates;
  double minimax_bound = 0.0;
  processor::PublicNNCandidates Materialize() const;
};

struct RangeCountResultView {
  uint64_t certain = 0;
  uint64_t possible = 0;
  double expected = 0.0;
  WireSpan<processor::PrivateTarget> overlapping;
  processor::RangeCountResult Materialize() const;
};

struct DensityMapView {
  Rect extent;
  int32_t cols = 0;
  int32_t rows = 0;
  WireSpan<double> cells;  ///< Row-major, rows * cols records.
  processor::DensityMap Materialize() const;
};

using ServerPayloadView =
    std::variant<PublicCandidateListView, KnnCandidateListView,
                 PublicRangeCandidatesView, PrivateCandidateListView,
                 PublicNNCandidatesView, RangeCountResultView, DensityMapView>;

/// Zero-copy counterpart of CandidateListMsg. Scalar header fields are
/// decoded eagerly; the payload's candidate records stay in the frame.
struct CandidateListView {
  QueryKind kind = QueryKind::kNearestPublic;
  uint64_t request_id = 0;
  bool degraded = false;
  double processor_seconds = 0.0;
  ServerPayloadView payload;
  CandidateListMsg Materialize() const;
};

/// Zero-copy counterpart of SnapshotMsg: the (handle, region) records
/// stay in the frame until consumed.
struct SnapshotView {
  WireSpan<processor::PrivateTarget> regions;
  SnapshotMsg Materialize() const;
};

/// CloakedQueryMsg is all fixed-width scalars, so its eager decode
/// already allocates nothing: the message doubles as its own view.
using CloakedQueryView = CloakedQueryMsg;

Result<CandidateListView> DecodeCandidateListView(std::string_view frame);
Result<SnapshotView> DecodeSnapshotView(std::string_view frame);
inline Result<CloakedQueryView> DecodeCloakedQueryView(
    std::string_view frame) {
  return DecodeCloakedQuery(frame);
}

}  // namespace casper

#endif  // CASPER_CASPER_MESSAGES_H_
