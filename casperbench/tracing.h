#ifndef CASPERBENCH_TRACING_H_
#define CASPERBENCH_TRACING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/casper/casper.h"
#include "src/common/stats.h"
#include "src/server/query_server.h"
#include "src/transport/channel.h"
#include "src/transport/server_endpoint.h"

/// \file
/// The benchmark's own tracing: spans recorded around calls into each
/// layer's public functions, from files of the benchmark alone. A span
/// has a name, a start, an end, the span that caused it, and the id of
/// the benchmark request it belongs to. Spans stay in memory and are
/// written out when the run ends.
///
/// Layers and the calls that bound them:
///   anonymizer.cloak     AnonymizerTier::Cloak
///   casper.strip         AnonymizerTier::StripIdentity
///   transport.client     ResilientClient::Execute / Apply
///   transport.channel    Channel::Call (socket or in-process)
///   server.handle        the benchmark-owned request handler
///   codec.decode_query   DecodeCloakedQueryView
///   server.execute.KIND  QueryServer::Execute
///   codec.encode         Encode(CandidateListMsg)
///   server.apply         QueryServer::Apply(RegionUpsertMsg)
///   casper.refine        AnonymizerTier::RefineForClient
///   anonymizer.update    AnonymizerTier::UpdateLocation
///   codec.decode         DecodeCandidateListView + DecodeCandidateList,
///                        re-run on the response bytes after the request
///                        (see TapChannel)
///   trace.copy           the benchmark copying those bytes; overhead

namespace casperbench {

struct Span {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0: a root.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe in-memory span store (the server handler records from
/// listener worker threads).
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  uint32_t NextId() { return next_id_.fetch_add(1); }
  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// One JSON object per line: request, id, parent, name, start_ns,
  /// end_ns. False when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span from construction to End() (or destruction).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint64_t request, uint32_t parent,
             const char* name)
      : log_(log),
        span_{request, log->NextId(), parent, name, log->Now(), 0} {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return span_.id; }
  void End() {
    if (log_ == nullptr) return;
    span_.end_ns = log_->Now();
    log_->Record(span_);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  Span span_;
};

/// The traced request in flight, shared by the client-side calls, the
/// channel tap and the server handler. Requests are traced one at a
/// time, so one slot is enough.
struct TraceContext {
  SpanLog* log = nullptr;
  std::atomic<bool> active{false};
  std::atomic<uint64_t> request{0};
  std::atomic<uint32_t> client_span{0};   ///< Parent of transport.channel.
  std::atomic<uint32_t> channel_span{0};  ///< Parent of server.handle.

  bool on() const { return log != nullptr && active.load(); }
};

/// Server side of the wire, owned by the benchmark: the same steps as
/// transport::ServerEndpoint::Handle for queries and region upserts,
/// through the same public calls, with a span around each step while a
/// trace is active. Every other message, and every message while no
/// trace is active, goes to a ServerEndpoint unchanged.
class ServerHandler {
 public:
  ServerHandler(casper::server::QueryServer* server, TraceContext* trace)
      : server_(server), endpoint_(server), trace_(trace) {}

  casper::Result<std::string> Handle(std::string_view request,
                                     const casper::transport::CallContext&
                                         context);

 private:
  casper::server::QueryServer* server_;
  casper::transport::ServerEndpoint endpoint_;
  TraceContext* trace_;
};

/// In-process channel into a ServerHandler (stands where DirectChannel
/// stands in the facade). The handler is attached after the service is
/// built, because it serves the service's own QueryServer.
class HandlerChannel : public casper::transport::Channel {
 public:
  casper::Result<std::string> Call(
      std::string_view request,
      const casper::transport::CallContext& context) override {
    return handler->Handle(request, context);
  }
  ServerHandler* handler = nullptr;
};

/// Client-side channel wrapper: a transport.channel span around each
/// call while a trace is active, and a copy of the response bytes so
/// the benchmark can time the two decode passes ResilientClient makes
/// inside Execute, which cannot be split from outside.
class TapChannel : public casper::transport::Channel {
 public:
  TapChannel(std::unique_ptr<casper::transport::Channel> inner,
             TraceContext* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  casper::Result<std::string> Call(
      std::string_view request,
      const casper::transport::CallContext& context) override;

  const std::string& last_response() const { return last_response_; }

 private:
  std::unique_ptr<casper::transport::Channel> inner_;
  TraceContext* trace_;
  std::string last_response_;
};

/// PrivateStoreSink wrapper for AnonymizerTier::UpdateLocation: a
/// transport.client span around each publication, so the update's
/// anonymizer self time excludes its sink time.
class TracedSink : public casper::PrivateStoreSink {
 public:
  TracedSink(casper::PrivateStoreSink* inner, TraceContext* trace)
      : inner_(inner), trace_(trace) {}
  casper::Status Apply(const casper::RegionUpsertMsg& msg) override;
  casper::Status Apply(const casper::RegionRemoveMsg& msg) override;

  uint32_t parent = 0;  ///< The anonymizer.update span of the update.

 private:
  casper::PrivateStoreSink* inner_;
  TraceContext* trace_;
};

/// Facts about one traced query, beyond its spans.
struct TracedQuery {
  casper::QueryKind kind = casper::QueryKind::kNearestPublic;
  size_t records = 0;         ///< Candidate records shipped.
  size_t response_bytes = 0;  ///< Encoded CandidateListMsg.
  double cloak_area = 0.0;    ///< Cloaked kinds only.
};

/// One query through the public calls CasperService::Execute makes —
/// Cloak, StripIdentity, transport_client().Execute, RefineForClient —
/// with a span around each, under a `query` root span, followed by the
/// decode replay. `tap` is the service's channel wrapper.
casper::Result<casper::QueryResponse> TracedExecute(
    casper::CasperService* service, TapChannel* tap, TraceContext* trace,
    uint64_t request_id, const casper::QueryRequest& request,
    TracedQuery* facts);

/// One location update through AnonymizerTier::UpdateLocation, under an
/// `update` root span, publishing through the service's transport
/// client (as CasperService::UpdateUserLocation does).
casper::Status TracedUpdate(casper::CasperService* service,
                            TraceContext* trace, uint64_t request_id,
                            uint64_t uid, const casper::Point& position);

/// Per-span-name totals, keyed "<root name>/<span name>". A span's self
/// time is its duration minus the durations of its children.
struct SpanTotals {
  double self_ns = 0.0;
  double total_ns = 0.0;
  uint64_t count = 0;
  casper::SummaryStats durations_ns;
};
std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans);

}  // namespace casperbench

#endif  // CASPERBENCH_TRACING_H_
