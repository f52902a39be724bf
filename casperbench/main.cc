#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "casperbench/gates.h"
#include "casperbench/workloads.h"

/// \file
/// casperbench: runs one workload of the Casper benchmark and prints,
/// as its last line, one JSON object with the keys correct, attempted,
/// failed and metrics. Usage:
///
///   casperbench --workload big_lists|uds_mixed|moving_city --seed N
///               --seconds S --trace 0|1 [--spans FILE] [--scratch DIR]
///               [--commit SHA] [--tiny]
///   casperbench --selftest
///
/// The lines before the result state the build and the run (an `env`
/// object and an `info` object). Exit status: 0 when every correctness
/// gate held, 1 when one failed, 2 on bad arguments, 3 when the build
/// is not fit to measure.

namespace {

/// Why this binary must not report numbers, or null when it may.
const char* UnfitBuild() {
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG is not defined)";
#endif
#ifndef __OPTIMIZE__
  return "the build is not optimized";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the build is sanitized";
#endif
  const std::string flags = CASPERBENCH_CXX_FLAGS;
  for (const char* bad : {"-fsanitize", "--coverage", "-fprofile-arcs"}) {
    if (flags.find(bad) != std::string::npos) {
      return "the build is sanitized or instrumented for coverage";
    }
  }
  return nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "casperbench: %s\nusage: casperbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE] [--scratch DIR] "
               "[--commit SHA] [--tiny]\n       casperbench --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using casperbench::RunOptions;
  RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return casperbench::RunGateSelfTest();
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else if (arg == "--scratch") {
      options.scratch_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : casperbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (const char* why = UnfitBuild()) {
    std::fprintf(stderr, "casperbench: refusing to measure: %s\n", why);
    return 3;
  }

  std::printf(
      "{\"env\": {\"hardware_threads\": %u, \"compiler\": %s, "
      "\"build_type\": %s, \"ndebug\": true, \"commit\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d}}\n",
      std::thread::hardware_concurrency(), JsonString(__VERSION__).c_str(),
      JsonString(CASPERBENCH_BUILD_TYPE).c_str(), JsonString(commit).c_str(),
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0);

  const casperbench::Report report = casperbench::RunWorkload(options);

  std::printf(
      "{\"info\": {\"query_samples\": %llu, \"update_samples\": %llu, "
      "\"gate_checks\": %llu, \"violations\": %zu}}\n",
      static_cast<unsigned long long>(report.query_samples),
      static_cast<unsigned long long>(report.update_samples),
      static_cast<unsigned long long>(report.gate_checks),
      report.violations.size());

  const bool correct = report.violations.empty();
  std::string metrics;
  for (const casperbench::Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
