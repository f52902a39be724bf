#include "casperbench/tracing.h"

#include <cstdio>
#include <unordered_map>
#include <utility>

namespace casperbench {

using casper::CandidateListMsg;
using casper::CloakedQueryMsg;
using casper::QueryRequest;
using casper::QueryResponse;
using casper::Result;
using casper::Status;

namespace {

constexpr const char* kExecuteSpanNames[casper::obs::kQueryKindCount] = {
    "server.execute.nearest_public", "server.execute.k_nearest_public",
    "server.execute.range_public",   "server.execute.nearest_private",
    "server.execute.public_nearest", "server.execute.public_range",
    "server.execute.density",
};

std::string DataLossAck(uint64_t request_id) {
  return casper::Encode(casper::AckMsg::For(
      request_id, Status::DataLoss("undecodable request")));
}

}  // namespace

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(out,
                 "{\"request\": %llu, \"id\": %u, \"parent\": %u, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.request), s.id, s.parent,
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

Result<std::string> ServerHandler::Handle(
    std::string_view request, const casper::transport::CallContext& context) {
  if (trace_ == nullptr || !trace_->on()) {
    return endpoint_.Handle(request, context);
  }
  SpanLog* log = trace_->log;
  const uint64_t rid = trace_->request.load();
  Result<casper::MessageTag> tag = casper::TagOf(request);
  if (!tag.ok()) return endpoint_.Handle(request, context);

  if (tag.value() == casper::MessageTag::kCloakedQuery) {
    ScopedSpan handle(log, rid, trace_->channel_span.load(), "server.handle");
    Result<casper::CloakedQueryView> query = [&] {
      ScopedSpan span(log, rid, handle.id(), "codec.decode_query");
      return casper::DecodeCloakedQueryView(request);
    }();
    if (!query.ok()) return DataLossAck(0);
    Result<CandidateListMsg> answer = [&] {
      ScopedSpan span(log, rid, handle.id(),
                      kExecuteSpanNames[static_cast<size_t>(query->kind)]);
      return server_->Execute(query.value(), context.cache);
    }();
    if (!answer.ok()) {
      return casper::Encode(
          casper::AckMsg::For(query->request_id, answer.status()));
    }
    CandidateListMsg response = std::move(answer).value();
    response.request_id = query->request_id;
    ScopedSpan span(log, rid, handle.id(), "codec.encode");
    return casper::Encode(response);
  }

  if (tag.value() == casper::MessageTag::kRegionUpsert) {
    ScopedSpan handle(log, rid, trace_->channel_span.load(), "server.handle");
    Result<casper::RegionUpsertMsg> msg = casper::DecodeRegionUpsert(request);
    if (!msg.ok()) return DataLossAck(0);
    Status applied = [&] {
      ScopedSpan span(log, rid, handle.id(), "server.apply");
      return server_->Apply(msg.value());
    }();
    return casper::Encode(casper::AckMsg::For(msg->request_id, applied));
  }
  return endpoint_.Handle(request, context);
}

Result<std::string> TapChannel::Call(
    std::string_view request, const casper::transport::CallContext& context) {
  if (!trace_->on()) return inner_->Call(request, context);
  SpanLog* log = trace_->log;
  const uint64_t rid = trace_->request.load();
  const uint32_t parent = trace_->client_span.load();
  Result<std::string> response = [&] {
    ScopedSpan span(log, rid, parent, "transport.channel");
    trace_->channel_span.store(span.id());
    return inner_->Call(request, context);
  }();
  ScopedSpan copy(log, rid, parent, "trace.copy");
  if (response.ok()) {
    last_response_ = response.value();
  } else {
    last_response_.clear();
  }
  return response;
}

Status TracedSink::Apply(const casper::RegionUpsertMsg& msg) {
  ScopedSpan span(trace_->log, trace_->request.load(), parent,
                  "transport.client");
  trace_->client_span.store(span.id());
  return inner_->Apply(msg);
}

Status TracedSink::Apply(const casper::RegionRemoveMsg& msg) {
  ScopedSpan span(trace_->log, trace_->request.load(), parent,
                  "transport.client");
  trace_->client_span.store(span.id());
  return inner_->Apply(msg);
}

Result<QueryResponse> TracedExecute(casper::CasperService* service,
                                    TapChannel* tap, TraceContext* trace,
                                    uint64_t request_id,
                                    const QueryRequest& request,
                                    TracedQuery* facts) {
  SpanLog* log = trace->log;
  casper::anonymizer::AnonymizerTier& tier = service->anonymizer_tier();
  trace->request.store(request_id);
  trace->active.store(true);
  facts->kind = casper::KindOf(request);

  Result<QueryResponse> response = [&]() -> Result<QueryResponse> {
    ScopedSpan root(log, request_id, 0, "query");
    casper::anonymizer::CloakingResult cloak;
    if (casper::IsCloakedKind(facts->kind)) {
      ScopedSpan span(log, request_id, root.id(), "anonymizer.cloak");
      CASPER_ASSIGN_OR_RETURN(cloaked, tier.Cloak(casper::UidOf(request)));
      cloak = cloaked;
      facts->cloak_area = cloak.region.Area();
    }
    Result<CloakedQueryMsg> stripped = [&] {
      ScopedSpan span(log, request_id, root.id(), "casper.strip");
      return tier.StripIdentity(request, cloak);
    }();
    if (!stripped.ok()) return stripped.status();
    Result<CandidateListMsg> answer = [&] {
      ScopedSpan span(log, request_id, root.id(), "transport.client");
      trace->client_span.store(span.id());
      return service->transport_client().Execute(stripped.value(), nullptr);
    }();
    if (!answer.ok()) return answer.status();
    facts->records = casper::RecordCount(answer->payload);
    ScopedSpan span(log, request_id, root.id(), "casper.refine");
    return tier.RefineForClient(request, cloak, std::move(answer).value(),
                                service->options().transmission);
  }();
  trace->active.store(false);

  // The two decode passes ResilientClient made inside Execute, re-run on
  // the same bytes outside the request's root span.
  const std::string& bytes = tap->last_response();
  facts->response_bytes = bytes.size();
  if (response.ok() && !bytes.empty()) {
    ScopedSpan span(log, request_id, 0, "codec.decode");
    Result<casper::CandidateListView> view =
        casper::DecodeCandidateListView(bytes);
    Result<CandidateListMsg> owned = casper::DecodeCandidateList(bytes);
    if (!view.ok() || !owned.ok()) return Status::DataLoss("replay decode");
  }
  return response;
}

Status TracedUpdate(casper::CasperService* service, TraceContext* trace,
                    uint64_t request_id, uint64_t uid,
                    const casper::Point& position) {
  SpanLog* log = trace->log;
  trace->request.store(request_id);
  trace->active.store(true);
  TracedSink sink(&service->transport_client(), trace);
  Status status = [&] {
    ScopedSpan root(log, request_id, 0, "update");
    ScopedSpan span(log, request_id, root.id(), "anonymizer.update");
    sink.parent = span.id();
    return service->anonymizer_tier().UpdateLocation(uid, position, &sink);
  }();
  trace->active.store(false);
  return status;
}

std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    auto parent = index.find(s.parent);
    if (s.parent != 0 && parent != index.end()) {
      child_ns[parent->second] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }

  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span* root = &spans[i];
    while (root->parent != 0) {
      auto parent = index.find(root->parent);
      if (parent == index.end()) break;
      root = &spans[parent->second];
    }
    const double duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SpanTotals& t = totals[std::string(root->name) + "/" + spans[i].name];
    t.self_ns += duration - child_ns[i];
    t.total_ns += duration;
    t.count += 1;
    t.durations_ns.Add(duration);
  }
  return totals;
}

}  // namespace casperbench
