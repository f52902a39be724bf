#include "src/obs/exporters.h"

#include <cstdio>

namespace casper::obs {
namespace {

/// Shortest %g rendering with enough digits to round-trip metric
/// values; both exporters share it so they can never disagree.
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

/// Escapes a Prometheus label value / JSON string body (the escape set
/// of the two formats coincides for what label values may contain).
std::string Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// `{k1="v1",k2="v2"}`, or empty when there are no labels; `extra`
/// (e.g. `le="0.5"`) is appended last.
std::string PromLabels(const LabelSet& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  for (const auto& [name, value] : labels) {
    out += name + "=\"" + Escape(value) + "\",";
  }
  if (!extra.empty()) {
    out += extra;
  } else {
    out.pop_back();  // Trailing comma.
  }
  out += "}";
  return out;
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string ExportPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricFamily& family : snapshot.families) {
    out += "# HELP " + family.name + " " + family.help + "\n";
    out += "# TYPE " + family.name + " " + std::string(TypeName(family.type)) +
           "\n";
    for (const MetricSample& sample : family.samples) {
      if (family.type != MetricType::kHistogram) {
        out += family.name + PromLabels(sample.labels) + " " +
               FormatDouble(sample.value) + "\n";
        continue;
      }
      const HistogramData& hist = sample.histogram;
      uint64_t cumulative = 0;
      for (size_t i = 0; i < hist.bounds.size(); ++i) {
        cumulative += hist.buckets[i];
        out += family.name + "_bucket" +
               PromLabels(sample.labels,
                          "le=\"" + FormatDouble(hist.bounds[i]) + "\"") +
               " " + std::to_string(cumulative) + "\n";
      }
      out += family.name + "_bucket" + PromLabels(sample.labels, "le=\"+Inf\"") +
             " " + std::to_string(hist.count) + "\n";
      out += family.name + "_sum" + PromLabels(sample.labels) + " " +
             FormatDouble(hist.sum) + "\n";
      out += family.name + "_count" + PromLabels(sample.labels) + " " +
             std::to_string(hist.count) + "\n";
    }
  }
  return out;
}

std::string ExportJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"metrics\": [\n";
  bool first_family = true;
  for (const MetricFamily& family : snapshot.families) {
    if (!first_family) out += ",\n";
    first_family = false;
    out += "  {\"name\": \"" + Escape(family.name) + "\", \"type\": \"" +
           TypeName(family.type) + "\", \"help\": \"" + Escape(family.help) +
           "\", \"samples\": [";
    bool first_sample = true;
    for (const MetricSample& sample : family.samples) {
      if (!first_sample) out += ", ";
      first_sample = false;
      out += "{\"labels\": {";
      bool first_label = true;
      for (const auto& [name, value] : sample.labels) {
        if (!first_label) out += ", ";
        first_label = false;
        out.append("\"").append(Escape(name)).append("\": \"");
        out.append(Escape(value)).append("\"");
      }
      out += "}";
      if (family.type != MetricType::kHistogram) {
        out += ", \"value\": " + FormatDouble(sample.value) + "}";
        continue;
      }
      const HistogramData& hist = sample.histogram;
      out += ", \"count\": " + std::to_string(hist.count) +
             ", \"sum\": " + FormatDouble(hist.sum) + ", \"buckets\": [";
      for (size_t i = 0; i < hist.bounds.size(); ++i) {
        out += "{\"le\": " + FormatDouble(hist.bounds[i]) +
               ", \"count\": " + std::to_string(hist.buckets[i]) + "}, ";
      }
      out += "{\"le\": \"+Inf\", \"count\": " +
             std::to_string(hist.buckets.empty() ? 0 : hist.buckets.back()) +
             "}]}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace casper::obs
