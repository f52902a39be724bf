#ifndef CASPERBENCH_WORKLOADS_H_
#define CASPERBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// The three workloads (big_lists, uds_mixed, moving_city) and what one
/// run of one of them reports. See casperbench/README.md for why each
/// exists and how to read its numbers.

namespace casperbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the end-to-end metrics (no spans recorded). true: the
  /// per-layer metrics, from an untraced phase plus a traced phase.
  bool trace = false;
  /// Self-test sizes: small data, same code paths.
  bool tiny = false;
  std::string spans_path;         ///< Trace runs write their spans here.
  std::string scratch_dir = ".";  ///< Where Unix-domain sockets live.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;  ///< Queries and updates issued.
  uint64_t failed = 0;     ///< Of those, failed or refused.
  uint64_t query_samples = 0;
  uint64_t update_samples = 0;
  uint64_t gate_checks = 0;
  std::vector<std::string> violations;  ///< Correctness gate failures.
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload for options.seconds of measurement. Never throws;
/// problems land in report.violations.
Report RunWorkload(const RunOptions& options);

}  // namespace casperbench

#endif  // CASPERBENCH_WORKLOADS_H_
