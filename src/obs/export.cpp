#include "obs/export.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpcfail::obs {

namespace {

// Shortest round-trip decimal rendering; JSON has no infinity literal, so
// non-finite values become very large sentinels only JSON needs (the
// snapshot never produces them for counts/sums, only min/max of empty
// histograms, which snapshot() already zeroes).
std::string format_number(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string out(buf, res.ptr);
  return out;
}

std::string format_number(std::uint64_t v) { return std::to_string(v); }

// Splits "base{k=v,k2=v2}" into the base name and the label list.
void split_labels(std::string_view name, std::string& base,
                  std::vector<std::pair<std::string, std::string>>& labels) {
  const auto brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}') {
    base = std::string(name);
    return;
  }
  base = std::string(name.substr(0, brace));
  std::string_view inside = name.substr(brace + 1,
                                        name.size() - brace - 2);
  while (!inside.empty()) {
    const auto comma = inside.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? inside : inside.substr(0, comma);
    const auto eq = item.find('=');
    if (eq != std::string_view::npos) {
      labels.emplace_back(std::string(item.substr(0, eq)),
                          std::string(item.substr(eq + 1)));
    }
    if (comma == std::string_view::npos) break;
    inside.remove_prefix(comma + 1);
  }
}

std::string prom_sanitize(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_name(std::string_view name,
                      std::vector<std::pair<std::string, std::string>>&
                          labels) {
  std::string base;
  split_labels(name, base, labels);
  return "hpcfail_" + prom_sanitize(base);
}

std::string prom_labels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    std::string_view extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += prom_sanitize(k) + "=\"" + std::string(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

}  // namespace

ExportFormat export_format_from_string(std::string_view text) {
  if (text == "json") return ExportFormat::json;
  if (text == "csv") return ExportFormat::csv;
  if (text == "prom" || text == "prometheus") return ExportFormat::prometheus;
  throw ValidationError("unknown metrics format '" + std::string(text) +
                        "' (expected json, csv, or prom)");
}

std::string to_string(ExportFormat format) {
  switch (format) {
    case ExportFormat::json: return "json";
    case ExportFormat::csv: return "csv";
    case ExportFormat::prometheus: return "prom";
  }
  return "json";
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"";
  out += kMetricsSchemaName;
  out += "\",\n";
  out += "  \"schema_version\": " + std::to_string(kMetricsSchemaVersion) +
         ",\n";

  out += "  \"counters\": [";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& [name, value] = snapshot.counters[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": \"" + json_escape(name) +
           "\", \"value\": " + format_number(value) + "}";
  }
  out += snapshot.counters.empty() ? "],\n" : "\n  ],\n";

  out += "  \"gauges\": [";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& [name, value] = snapshot.gauges[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": \"" + json_escape(name) +
           "\", \"value\": " + format_number(value) + "}";
  }
  out += snapshot.gauges.empty() ? "],\n" : "\n  ],\n";

  out += "  \"histograms\": [";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": \"" + json_escape(h.name) +
           "\", \"count\": " + format_number(h.count) +
           ", \"sum\": " + format_number(h.sum) +
           ", \"min\": " + format_number(h.min) +
           ", \"max\": " + format_number(h.max) + ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b) out += ", ";
      out += "{\"le\": " + format_number(h.buckets[b].first) +
             ", \"count\": " + format_number(h.buckets[b].second) + "}";
    }
    out += "]}";
  }
  out += snapshot.histograms.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string to_csv(const MetricsSnapshot& snapshot) {
  // One flat series per row: kind,name,field,value, ready for gnuplot or a
  // spreadsheet. Labelled metric names hold commas, so names go through
  // csv_escape.
  std::string out = "kind,name,field,value\n";
  for (const auto& [name, value] : snapshot.counters) {
    out += "counter," + csv_escape(name) + ",value," + format_number(value) +
           "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += "gauge," + csv_escape(name) + ",value," + format_number(value) +
           "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = csv_escape(h.name);
    out += "histogram," + name + ",count," + format_number(h.count) + "\n";
    out += "histogram," + name + ",sum," + format_number(h.sum) + "\n";
    out += "histogram," + name + ",min," + format_number(h.min) + "\n";
    out += "histogram," + name + ",max," + format_number(h.max) + "\n";
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  // The text format allows one TYPE line per family. A family's labelled
  // series are adjacent (the snapshot is sorted by name), so a TYPE line
  // is written only when it differs from the previous series' one.
  std::string last_type;
  const auto type_line = [&](const std::string& metric, const char* kind) {
    std::string line = "# TYPE " + metric + " " + kind + "\n";
    if (line == last_type) return;
    out += line;
    last_type = std::move(line);
  };
  for (const auto& [name, value] : snapshot.counters) {
    std::vector<std::pair<std::string, std::string>> labels;
    const std::string metric = prom_name(name, labels);
    type_line(metric, "counter");
    out += metric + prom_labels(labels) + " " + format_number(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::vector<std::pair<std::string, std::string>> labels;
    const std::string metric = prom_name(name, labels);
    type_line(metric, "gauge");
    out += metric + prom_labels(labels) + " " + format_number(value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    std::vector<std::pair<std::string, std::string>> labels;
    const std::string metric = prom_name(h.name, labels);
    type_line(metric, "histogram");
    std::uint64_t cumulative = 0;
    for (const auto& [le, n] : h.buckets) {
      cumulative += n;
      if (std::isinf(le)) continue;  // folded into the +Inf bucket below
      out += metric + "_bucket" +
             prom_labels(labels, "le=\"" + format_number(le) + "\"") + " " +
             format_number(cumulative) + "\n";
    }
    out += metric + "_bucket" + prom_labels(labels, "le=\"+Inf\"") + " " +
           format_number(h.count) + "\n";
    out += metric + "_sum" + prom_labels(labels) + " " +
           format_number(h.sum) + "\n";
    out += metric + "_count" + prom_labels(labels) + " " +
           format_number(h.count) + "\n";
  }
  return out;
}

std::string export_metrics(const MetricsSnapshot& snapshot,
                           ExportFormat format) {
  switch (format) {
    case ExportFormat::json: return to_json(snapshot);
    case ExportFormat::csv: return to_csv(snapshot);
    case ExportFormat::prometheus: return to_prometheus(snapshot);
  }
  return to_json(snapshot);
}

void write_metrics_file(const std::string& path, ExportFormat format,
                        const Registry& reg) {
  std::ofstream out(path);
  if (!out) {
    throw IoError("cannot open '" + path + "' for writing");
  }
  out << export_metrics(reg.snapshot(), format);
  out.flush();  // the destructor's flush would swallow a full disk
  if (!out) throw IoError("write failed for '" + path + "'");
}

}  // namespace hpcfail::obs
