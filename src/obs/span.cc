#include "src/obs/span.h"

#include <vector>

namespace casper::obs {
namespace {

/// Shared bounds for all phase histograms: 1µs .. 1s, roughly
/// logarithmic — cloaking sits in the low microseconds, Algorithm 2
/// evaluations in the tens to hundreds.
std::vector<double> PhaseBounds() {
  return {1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
          5e-4, 1e-3,   5e-3, 1e-2, 5e-2,   0.1,  0.5,  1.0};
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kCloak:
      return "cloak";
    case Phase::kWireEncode:
      return "wire_encode";
    case Phase::kEvaluate:
      return "evaluate";
    case Phase::kRefine:
      return "refine";
  }
  return "unknown";
}

QueryTracer::QueryTracer(MetricsRegistry* registry) {
  for (size_t i = 0; i < kPhaseCount; ++i) {
    phase_seconds_[i] = registry->GetHistogram(
        "casper_query_phase_seconds",
        "Wall time of one query-pipeline phase.", PhaseBounds(),
        {{"phase", PhaseName(static_cast<Phase>(i))}});
  }
  traces_total_ = registry->GetCounter("casper_query_traces_total",
                                       "Query spans finished.");
}

QuerySpan QueryTracer::Start(const char* kind) {
  QuerySpan span;
  span.trace_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.kind = kind;
  return span;
}

void QueryTracer::RecordPhase(Phase phase, double seconds) {
  phase_seconds_[static_cast<size_t>(phase)]->Observe(seconds);
}

void QueryTracer::Finish(const QuerySpan& span) {
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (span.phase_seconds[i] > 0.0) {
      phase_seconds_[i]->Observe(span.phase_seconds[i]);
    }
  }
  traces_total_->Increment();
}

uint64_t QueryTracer::finished_count() const { return traces_total_->Value(); }

}  // namespace casper::obs
