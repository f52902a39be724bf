#include "src/casper/messages.h"

#include "src/common/codec.h"

namespace casper {
namespace {

// Leading message tags: a decoder handed the wrong message type (or
// arbitrary bytes) fails fast instead of misinterpreting the payload.
constexpr uint8_t kTagCloakedQuery = 0xC1;
constexpr uint8_t kTagRegionUpsert = 0xC2;
constexpr uint8_t kTagRegionRemove = 0xC3;
constexpr uint8_t kTagSnapshot = 0xC4;
constexpr uint8_t kTagCandidateList = 0xC5;
constexpr uint8_t kTagAck = 0xC6;

// --- Frame integrity -------------------------------------------------------
//
// Every encoded message carries a trailing 64-bit checksum of the
// frame body (wire::Seal / wire::Unseal, shared with the storage tier
// via src/common/codec.h). Without it, a transport-corrupted byte
// inside a raw double (a coordinate, a distance) is indistinguishable
// from a different valid measurement and would decode as a *different
// valid message* — the one class of corruption field validation cannot
// catch. With it, a corrupted frame fails decode, the endpoint acks
// kDataLoss, and the resilient client re-sends: corruption is converted
// into a retryable transport failure instead of a silent wrong answer.

using wire::Reader;
using wire::Seal;
using wire::Unseal;
using wire::Writer;

bool ValidKind(uint8_t kind) {
  return kind <= static_cast<uint8_t>(QueryKind::kDensity);
}

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kDataLoss);
}

bool ValidPolicy(uint8_t policy) {
  return policy == 1 || policy == 2 || policy == 4;
}

void Put(Writer& w, const processor::ExtendedArea& area) {
  w.R(area.a_ext);
  for (const processor::EdgeExtension& e : area.edges) {
    w.F64(e.max_d);
    w.Bool(e.has_middle);
    w.P(e.middle);
  }
}

processor::ExtendedArea GetExtendedArea(Reader& r) {
  processor::ExtendedArea area;
  area.a_ext = r.R();
  for (processor::EdgeExtension& e : area.edges) {
    e.max_d = r.F64();
    e.has_middle = r.Bool();
    e.middle = r.P();
  }
  return area;
}

Result<processor::FilterPolicy> GetPolicy(Reader& r) {
  const uint8_t policy = r.U8();
  if (r.failed()) return Status::InvalidArgument("truncated payload");
  if (!ValidPolicy(policy)) {
    return Status::InvalidArgument("bad filter policy");
  }
  return static_cast<processor::FilterPolicy>(policy);
}

/// The repeated records of each payload alternative.
template <typename Payload>
const auto& RecordsOf(const Payload& p) {
  return p.candidates;
}
const auto& RecordsOf(const processor::RangeCountResult& p) {
  return p.overlapping;
}
const auto& RecordsOf(const processor::DensityMap& p) { return p.cells(); }

/// Upper bound on a CandidateListMsg frame's bytes outside its record
/// block: the 19-byte header, the payload tag, a count and the largest
/// trailer (an ExtendedArea and a policy, 133 bytes), and the seal.
constexpr size_t kCandidateListFixedBytes = 256;

void PutPayload(Writer& w, const ServerPayload& payload) {
  w.U8(static_cast<uint8_t>(payload.index()));
  if (const auto* p = std::get_if<processor::PublicCandidateList>(&payload)) {
    WriteList(w, p->candidates);
    Put(w, p->area);
    w.U8(static_cast<uint8_t>(p->policy));
  } else if (const auto* p =
                 std::get_if<processor::KnnCandidateList>(&payload)) {
    WriteList(w, p->candidates);
    w.R(p->a_ext);
    w.U64(p->k);
  } else if (const auto* p =
                 std::get_if<processor::PublicRangeCandidates>(&payload)) {
    WriteList(w, p->candidates);
    w.R(p->search_window);
  } else if (const auto* p =
                 std::get_if<processor::PrivateCandidateList>(&payload)) {
    WriteList(w, p->candidates);
    Put(w, p->area);
    w.U8(static_cast<uint8_t>(p->policy));
  } else if (const auto* p =
                 std::get_if<processor::PublicNNCandidates>(&payload)) {
    WriteList(w, p->candidates);
    w.F64(p->minimax_bound);
  } else if (const auto* p =
                 std::get_if<processor::RangeCountResult>(&payload)) {
    w.U64(p->certain);
    w.U64(p->possible);
    w.F64(p->expected);
    WriteList(w, p->overlapping);
  } else if (const auto* p = std::get_if<processor::DensityMap>(&payload)) {
    w.R(p->extent());
    w.I32(p->cols());
    w.I32(p->rows());
    WriteRecords(w, p->cells());  // Count implied by cols * rows.
  }
}

/// The one parser of every payload layout. Record blocks are skipped in
/// place and wrapped in WireSpans; the small fixed trailers are decoded
/// eagerly.
Result<ServerPayloadView> GetPayloadView(Reader& r) {
  const uint8_t index = r.U8();
  if (r.failed()) return Status::InvalidArgument("truncated payload");
  switch (index) {
    case 0: {
      PublicCandidateListView view;
      view.candidates = ReadList<processor::PublicTarget>(r);
      view.area = GetExtendedArea(r);
      CASPER_ASSIGN_OR_RETURN(policy, GetPolicy(r));
      view.policy = policy;
      return ServerPayloadView(view);
    }
    case 1: {
      KnnCandidateListView view;
      view.candidates = ReadList<processor::PublicTarget>(r);
      view.a_ext = r.R();
      view.k = r.U64();
      return ServerPayloadView(view);
    }
    case 2: {
      PublicRangeCandidatesView view;
      view.candidates = ReadList<processor::PublicTarget>(r);
      view.search_window = r.R();
      return ServerPayloadView(view);
    }
    case 3: {
      PrivateCandidateListView view;
      view.candidates = ReadList<processor::PrivateTarget>(r);
      view.area = GetExtendedArea(r);
      CASPER_ASSIGN_OR_RETURN(policy, GetPolicy(r));
      view.policy = policy;
      return ServerPayloadView(view);
    }
    case 4: {
      PublicNNCandidatesView view;
      view.candidates = ReadList<processor::PublicNNCandidates::Candidate>(r);
      view.minimax_bound = r.F64();
      return ServerPayloadView(view);
    }
    case 5: {
      RangeCountResultView view;
      view.certain = r.U64();
      view.possible = r.U64();
      view.expected = r.F64();
      view.overlapping = ReadList<processor::PrivateTarget>(r);
      return ServerPayloadView(view);
    }
    case 6: {
      DensityMapView view;
      view.extent = r.R();
      view.cols = r.I32();
      view.rows = r.I32();
      // DensityMap::FromCells' preconditions, so Materialize cannot fail.
      if (r.failed() || view.cols < 1 || view.rows < 1 ||
          static_cast<uint64_t>(view.cols) * static_cast<uint64_t>(view.rows) >
              r.Remaining() / WireRecord<double>::kBytes) {
        return Status::InvalidArgument("bad density grid");
      }
      view.cells = ReadRecords<double>(
          r, static_cast<size_t>(view.cols) * static_cast<size_t>(view.rows));
      return ServerPayloadView(view);
    }
    default:
      return Status::InvalidArgument("unknown payload kind");
  }
}

}  // namespace

size_t RecordCount(const ServerPayload& payload) {
  return std::visit([](const auto& p) { return RecordsOf(p).size(); },
                    payload);
}

std::string Encode(const CloakedQueryMsg& msg) {
  Writer w;
  w.U8(kTagCloakedQuery);
  w.U8(static_cast<uint8_t>(msg.kind));
  w.U64(msg.request_id);
  w.R(msg.cloak);
  w.U64(msg.k);
  w.F64(msg.radius);
  w.Bool(msg.has_exclude);
  w.U64(msg.exclude_handle);
  w.P(msg.point);
  w.R(msg.region);
  w.I32(msg.cols);
  w.I32(msg.rows);
  return Seal(w.Take());
}

Result<CloakedQueryMsg> DecodeCloakedQuery(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(bytes, "CloakedQuery"));
  Reader r(body);
  if (!r.Tag(kTagCloakedQuery)) {
    return Status::InvalidArgument("not a CloakedQueryMsg");
  }
  CloakedQueryMsg msg;
  const uint8_t kind = r.U8();
  if (r.failed() || !ValidKind(kind)) {
    return Status::InvalidArgument("bad query kind");
  }
  msg.kind = static_cast<QueryKind>(kind);
  msg.request_id = r.U64();
  msg.cloak = r.R();
  msg.k = r.U64();
  msg.radius = r.F64();
  msg.has_exclude = r.Bool();
  msg.exclude_handle = r.U64();
  msg.point = r.P();
  msg.region = r.R();
  msg.cols = r.I32();
  msg.rows = r.I32();
  CASPER_RETURN_IF_ERROR(r.Finish("CloakedQuery"));
  return msg;
}

std::string Encode(const RegionUpsertMsg& msg) {
  Writer w;
  w.U8(kTagRegionUpsert);
  w.U64(msg.request_id);
  w.U64(msg.handle);
  w.Bool(msg.has_replaces);
  w.U64(msg.replaces);
  w.R(msg.region);
  return Seal(w.Take());
}

Result<RegionUpsertMsg> DecodeRegionUpsert(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(bytes, "RegionUpsert"));
  Reader r(body);
  if (!r.Tag(kTagRegionUpsert)) {
    return Status::InvalidArgument("not a RegionUpsertMsg");
  }
  RegionUpsertMsg msg;
  msg.request_id = r.U64();
  msg.handle = r.U64();
  msg.has_replaces = r.Bool();
  msg.replaces = r.U64();
  msg.region = r.R();
  CASPER_RETURN_IF_ERROR(r.Finish("RegionUpsert"));
  return msg;
}

std::string Encode(const RegionRemoveMsg& msg) {
  Writer w;
  w.U8(kTagRegionRemove);
  w.U64(msg.request_id);
  w.U64(msg.handle);
  return Seal(w.Take());
}

Result<RegionRemoveMsg> DecodeRegionRemove(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(bytes, "RegionRemove"));
  Reader r(body);
  if (!r.Tag(kTagRegionRemove)) {
    return Status::InvalidArgument("not a RegionRemoveMsg");
  }
  RegionRemoveMsg msg;
  msg.request_id = r.U64();
  msg.handle = r.U64();
  CASPER_RETURN_IF_ERROR(r.Finish("RegionRemove"));
  return msg;
}

std::string Encode(const SnapshotMsg& msg) {
  Writer w;
  w.U8(kTagSnapshot);
  WriteList(w, msg.regions);
  return Seal(w.Take());
}

std::string Encode(const CandidateListMsg& msg) {
  const size_t record_bytes = std::visit(
      [](const auto& p) {
        const auto& records = RecordsOf(p);
        using Record = typename std::decay_t<decltype(records)>::value_type;
        return records.size() * WireRecord<Record>::kBytes;
      },
      msg.payload);
  Writer w(kCandidateListFixedBytes + record_bytes);
  w.U8(kTagCandidateList);
  w.U8(static_cast<uint8_t>(msg.kind));
  w.U64(msg.request_id);
  w.Bool(msg.degraded);
  w.F64(msg.processor_seconds);
  PutPayload(w, msg.payload);
  return Seal(w.Take());
}

Result<CandidateListMsg> DecodeCandidateList(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(view, DecodeCandidateListView(bytes));
  return view.Materialize();
}

Status AckMsg::ToStatus() const {
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument: return Status::InvalidArgument(message);
    case StatusCode::kNotFound: return Status::NotFound(message);
    case StatusCode::kAlreadyExists: return Status::AlreadyExists(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kOutOfRange: return Status::OutOfRange(message);
    case StatusCode::kInternal: return Status::Internal(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kUnavailable: return Status::Unavailable(message);
    case StatusCode::kDataLoss: return Status::DataLoss(message);
  }
  return Status::Internal("unknown status code in ack");
}

AckMsg AckMsg::For(uint64_t request_id, const Status& status) {
  AckMsg ack;
  ack.request_id = request_id;
  ack.code = status.code();
  ack.message = status.message();
  return ack;
}

std::string Encode(const AckMsg& msg) {
  Writer w;
  w.U8(kTagAck);
  w.U64(msg.request_id);
  w.U8(static_cast<uint8_t>(msg.code));
  w.Str(msg.message);
  return Seal(w.Take());
}

Result<AckMsg> DecodeAck(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(bytes, "Ack"));
  Reader r(body);
  if (!r.Tag(kTagAck)) {
    return Status::InvalidArgument("not an AckMsg");
  }
  AckMsg msg;
  msg.request_id = r.U64();
  const uint8_t code = r.U8();
  if (r.failed() || !ValidStatusCode(code)) {
    return Status::InvalidArgument("bad status code");
  }
  msg.code = static_cast<StatusCode>(code);
  msg.message = r.Str();
  CASPER_RETURN_IF_ERROR(r.Finish("Ack"));
  return msg;
}

processor::PublicCandidateList PublicCandidateListView::Materialize() const {
  return {candidates.Materialize(), area, policy};
}

processor::KnnCandidateList KnnCandidateListView::Materialize() const {
  return {candidates.Materialize(), a_ext, static_cast<size_t>(k)};
}

processor::PublicRangeCandidates PublicRangeCandidatesView::Materialize()
    const {
  return {candidates.Materialize(), search_window};
}

processor::PrivateCandidateList PrivateCandidateListView::Materialize() const {
  return {candidates.Materialize(), area, policy};
}

processor::PublicNNCandidates PublicNNCandidatesView::Materialize() const {
  return {candidates.Materialize(), minimax_bound};
}

processor::RangeCountResult RangeCountResultView::Materialize() const {
  return {static_cast<size_t>(certain), static_cast<size_t>(possible),
          expected, overlapping.Materialize()};
}

processor::DensityMap DensityMapView::Materialize() const {
  // GetPayloadView enforced FromCells' preconditions (cols >= 1,
  // rows >= 1, cells.size() == cols * rows), so this cannot fail.
  return processor::DensityMap::FromCells(extent, cols, rows,
                                          cells.Materialize())
      .value();
}

CandidateListMsg CandidateListView::Materialize() const {
  CandidateListMsg msg;
  msg.kind = kind;
  msg.request_id = request_id;
  msg.degraded = degraded;
  msg.processor_seconds = processor_seconds;
  msg.payload = std::visit(
      [](const auto& p) -> ServerPayload { return p.Materialize(); }, payload);
  return msg;
}

SnapshotMsg SnapshotView::Materialize() const {
  SnapshotMsg msg;
  msg.regions = regions.Materialize();
  return msg;
}

Result<CandidateListView> DecodeCandidateListView(std::string_view frame) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(frame, "CandidateList"));
  Reader r(body);
  if (!r.Tag(kTagCandidateList)) {
    return Status::InvalidArgument("not a CandidateListMsg");
  }
  const uint8_t kind = r.U8();
  if (r.failed() || !ValidKind(kind)) {
    return Status::InvalidArgument("bad query kind");
  }
  CandidateListView view;
  view.kind = static_cast<QueryKind>(kind);
  view.request_id = r.U64();
  view.degraded = r.Bool();
  view.processor_seconds = r.F64();
  CASPER_ASSIGN_OR_RETURN(payload, GetPayloadView(r));
  CASPER_RETURN_IF_ERROR(r.Finish("CandidateList"));
  view.payload = payload;
  return view;
}

Result<SnapshotView> DecodeSnapshotView(std::string_view frame) {
  CASPER_ASSIGN_OR_RETURN(body, Unseal(frame, "Snapshot"));
  Reader r(body);
  if (!r.Tag(kTagSnapshot)) {
    return Status::InvalidArgument("not a SnapshotMsg");
  }
  SnapshotView view;
  view.regions = ReadList<processor::PrivateTarget>(r);
  CASPER_RETURN_IF_ERROR(r.Finish("Snapshot"));
  return view;
}

Result<MessageTag> TagOf(std::string_view bytes) {
  if (bytes.empty()) return Status::InvalidArgument("empty message");
  const auto tag = static_cast<uint8_t>(bytes[0]);
  switch (tag) {
    case kTagCloakedQuery: return MessageTag::kCloakedQuery;
    case kTagRegionUpsert: return MessageTag::kRegionUpsert;
    case kTagRegionRemove: return MessageTag::kRegionRemove;
    case kTagSnapshot: return MessageTag::kSnapshot;
    case kTagCandidateList: return MessageTag::kCandidateList;
    case kTagAck: return MessageTag::kAck;
  }
  return Status::InvalidArgument("unknown message tag");
}

uint64_t RequestIdOf(std::string_view bytes) {
  Result<MessageTag> tag = TagOf(bytes);
  if (!tag.ok()) return 0;
  size_t offset = 0;
  switch (tag.value()) {
    case MessageTag::kCloakedQuery:
      offset = 2;  // tag u8, kind u8
      break;
    case MessageTag::kRegionUpsert:
    case MessageTag::kRegionRemove:
      offset = 1;  // tag u8
      break;
    default:
      return 0;  // Snapshots and responses are unkeyed.
  }
  if (bytes.size() < offset + 8) return 0;
  return wire::LoadU64LE(bytes.data() + offset);
}

}  // namespace casper
