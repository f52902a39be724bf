#ifndef CASPER_OBS_EXPORTERS_H_
#define CASPER_OBS_EXPORTERS_H_

#include <string>

#include "src/obs/metrics.h"

/// \file
/// Renderers for a MetricsSnapshot. Both are deterministic — families
/// by name, samples by label set, doubles through one shared formatter
/// — so identical registries render byte-identical output (golden-file
/// tested).

namespace casper::obs {

/// Prometheus text exposition format (version 0.0.4): one `# HELP` /
/// `# TYPE` pair per family, counters and gauges as single sample
/// lines, histograms as cumulative `_bucket{le=...}` lines plus `_sum`
/// and `_count`.
std::string ExportPrometheus(const MetricsSnapshot& snapshot);

/// JSON snapshot: `{"metrics": [{name, type, help, samples: [...]}]}`
/// with histogram samples carrying per-bucket (non-cumulative) counts.
/// This is what `casper_cli metrics json` prints and what the scenario
/// reports embed.
std::string ExportJson(const MetricsSnapshot& snapshot);

}  // namespace casper::obs

#endif  // CASPER_OBS_EXPORTERS_H_
