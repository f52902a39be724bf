#ifndef CASPER_OBS_SPAN_H_
#define CASPER_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/obs/metrics.h"

/// \file
/// Span-based tracing of the query path. Every query owns one QuerySpan
/// tagged with the four phases of the three-tier pipeline —
///
///   cloak        trusted anonymizer, Algorithm 1
///   wire_encode  identity stripping into the CloakedQueryMsg
///   evaluate     server-tier candidate-list evaluation
///   refine       client-side refinement of the candidate list
///
/// — and the tracer folds finished spans into per-phase latency
/// histograms (`casper_query_phase_seconds{phase=...}`). A span is built
/// on whichever threads run its phases (the batch engine cloaks on the
/// caller and evaluates on a worker); it is handed off by value, never
/// shared, so only Start() and Finish() touch tracer state, and both are
/// lock-free.

namespace casper::obs {

enum class Phase : uint8_t {
  kCloak = 0,
  kWireEncode = 1,
  kEvaluate = 2,
  kRefine = 3,
};

inline constexpr size_t kPhaseCount = 4;

/// Stable label value for a phase ("cloak", "wire_encode", ...).
const char* PhaseName(Phase phase);

/// One query's trace: a monotonically assigned id, the query-kind label
/// it was started with, and the measured duration of each phase (zero =
/// phase not run, e.g. public kinds never cloak).
struct QuerySpan {
  uint64_t trace_id = 0;
  const char* kind = "";
  double phase_seconds[kPhaseCount] = {};

  double TotalSeconds() const {
    double total = 0.0;
    for (double seconds : phase_seconds) total += seconds;
    return total;
  }
};

/// RAII phase timer: adds the scope's wall time onto the span's phase.
class ScopedPhase {
 public:
  ScopedPhase(QuerySpan* span, Phase phase)
      : span_(span), phase_(phase),
        start_(std::chrono::steady_clock::now()) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    span_->phase_seconds[static_cast<size_t>(phase_)] +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
  }

 private:
  QuerySpan* span_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

class QueryTracer {
 public:
  /// Registers the phase histograms and trace counter on `registry`.
  explicit QueryTracer(MetricsRegistry* registry);
  QueryTracer(const QueryTracer&) = delete;
  QueryTracer& operator=(const QueryTracer&) = delete;

  /// Opens a span for one query; `kind` must outlive the tracer (use a
  /// string literal / static label).
  QuerySpan Start(const char* kind);

  /// Records an out-of-span phase measurement directly (used when a
  /// phase is timed before its span exists, e.g. standalone cloaks).
  void RecordPhase(Phase phase, double seconds);

  /// Folds a finished span into the phase histograms.
  void Finish(const QuerySpan& span);

  uint64_t finished_count() const;

 private:
  Histogram* phase_seconds_[kPhaseCount];
  Counter* traces_total_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace casper::obs

#endif  // CASPER_OBS_SPAN_H_
