#include "telemetry/export.h"

#include <algorithm>

#include "util/strings.h"

namespace phocus {
namespace telemetry {

namespace {

Json SpanToJson(const SpanRecord& span) {
  Json out = Json::Object();
  out.Set("name", span.name);
  out.Set("start_ns", static_cast<std::uint64_t>(span.start_ns));
  out.Set("duration_ns", static_cast<std::uint64_t>(span.duration_ns));
  if (!span.attributes.empty()) {
    Json attributes = Json::Object();
    for (const auto& [key, value] : span.attributes) {
      attributes.Set(key, value);
    }
    out.Set("attributes", std::move(attributes));
  }
  if (!span.children.empty()) {
    Json children = Json::Array();
    for (const SpanRecord& child : span.children) {
      children.Append(SpanToJson(child));
    }
    out.Set("children", std::move(children));
  }
  return out;
}

SpanRecord SpanFromJson(const Json& json) {
  SpanRecord span;
  span.name = json.Get("name").AsString();
  span.start_ns =
      static_cast<std::uint64_t>(json.Get("start_ns").AsDouble());
  span.duration_ns =
      static_cast<std::uint64_t>(json.Get("duration_ns").AsDouble());
  if (json.Has("attributes")) {
    for (const auto& [key, value] : json.Get("attributes").entries()) {
      span.attributes.emplace_back(key, value.AsString());
    }
  }
  if (json.Has("children")) {
    for (const Json& child : json.Get("children").items()) {
      span.children.push_back(SpanFromJson(child));
    }
  }
  return span;
}

void RenderSpanLine(const SpanRecord& span, std::uint64_t root_duration,
                    int depth, std::string& out) {
  std::uint64_t child_total = 0;
  for (const SpanRecord& child : span.children) {
    child_total += child.duration_ns;
  }
  const std::uint64_t self_ns =
      span.duration_ns > child_total ? span.duration_ns - child_total : 0;
  const double share =
      root_duration == 0
          ? 100.0
          : 100.0 * static_cast<double>(span.duration_ns) /
                static_cast<double>(root_duration);
  std::string label(static_cast<std::size_t>(2 * depth), ' ');
  label += span.name;
  for (const auto& [key, value] : span.attributes) {
    label += " " + key + "=" + value;
  }
  out += StrFormat("%-56s  %10s  %10s  %5.1f%%\n", label.c_str(),
                   HumanDuration(static_cast<double>(span.duration_ns)).c_str(),
                   HumanDuration(static_cast<double>(self_ns)).c_str(), share);
  for (const SpanRecord& child : span.children) {
    RenderSpanLine(child, root_duration, depth + 1, out);
  }
}

/// "service.endpoint.plan_ns" -> "phocus_service_endpoint_plan_ns".
std::string PrometheusName(const std::string& name) {
  std::string out = "phocus_";
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
    out += keep ? c : '_';
  }
  return out;
}

}  // namespace

void SortSpans(std::vector<SpanRecord>& spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.name != b.name) return a.name < b.name;
              return a.duration_ns < b.duration_ns;
            });
}

std::string MetricsToPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const CounterValue& counter : snapshot.counters) {
    const std::string name = PrometheusName(counter.name);
    out += StrFormat("# TYPE %s counter\n%s %llu\n", name.c_str(),
                     name.c_str(),
                     static_cast<unsigned long long>(counter.value));
  }
  for (const GaugeValue& gauge : snapshot.gauges) {
    const std::string name = PrometheusName(gauge.name);
    out += StrFormat("# TYPE %s gauge\n%s %g\n", name.c_str(), name.c_str(),
                     gauge.value);
  }
  for (const HistogramValue& histogram : snapshot.histograms) {
    const std::string name = PrometheusName(histogram.name);
    out += StrFormat("# TYPE %s summary\n", name.c_str());
    out += StrFormat("%s{quantile=\"0.5\"} %g\n", name.c_str(),
                     histogram.p50);
    out += StrFormat("%s{quantile=\"0.9\"} %g\n", name.c_str(),
                     histogram.p90);
    out += StrFormat("%s{quantile=\"0.99\"} %g\n", name.c_str(),
                     histogram.p99);
    out += StrFormat("%s_sum %g\n", name.c_str(), histogram.sum);
    out += StrFormat("%s_count %llu\n", name.c_str(),
                     static_cast<unsigned long long>(histogram.count));
  }
  return out;
}

std::string HumanDuration(double nanos) {
  if (nanos < 1e3) return StrFormat("%.0fns", nanos);
  if (nanos < 1e6) return StrFormat("%.1fus", nanos / 1e3);
  if (nanos < 1e9) return StrFormat("%.1fms", nanos / 1e6);
  return StrFormat("%.2fs", nanos / 1e9);
}

Json MetricsToJson(const MetricsSnapshot& snapshot) {
  Json out = Json::Object();
  Json counters = Json::Object();
  for (const CounterValue& counter : snapshot.counters) {
    counters.Set(counter.name, counter.value);
  }
  out.Set("counters", std::move(counters));
  Json gauges = Json::Object();
  for (const GaugeValue& gauge : snapshot.gauges) {
    gauges.Set(gauge.name, gauge.value);
  }
  out.Set("gauges", std::move(gauges));
  Json histograms = Json::Object();
  for (const HistogramValue& histogram : snapshot.histograms) {
    Json entry = Json::Object();
    entry.Set("count", histogram.count);
    entry.Set("sum", histogram.sum);
    entry.Set("mean", histogram.mean);
    entry.Set("p50", histogram.p50);
    entry.Set("p90", histogram.p90);
    entry.Set("p99", histogram.p99);
    entry.Set("max", histogram.max);
    histograms.Set(histogram.name, std::move(entry));
  }
  out.Set("histograms", std::move(histograms));
  return out;
}

Json SpansToJson(const std::vector<SpanRecord>& spans) {
  Json out = Json::Array();
  for (const SpanRecord& span : spans) out.Append(SpanToJson(span));
  return out;
}

Json TelemetryToJson(const MetricsSnapshot& snapshot,
                     const std::vector<SpanRecord>& spans,
                     std::uint64_t dropped_spans) {
  Json out = Json::Object();
  Json meta = Json::Object();
  meta.Set("enabled", Enabled());
  out.Set("telemetry", std::move(meta));
  const Json metrics = MetricsToJson(snapshot);
  out.Set("counters", metrics.Get("counters"));
  out.Set("gauges", metrics.Get("gauges"));
  out.Set("histograms", metrics.Get("histograms"));
  // Metric maps are name-sorted by construction; sorting the span roots too
  // makes the whole export independent of thread deposit order.
  std::vector<SpanRecord> ordered = spans;
  SortSpans(ordered);
  out.Set("spans", SpansToJson(ordered));
  out.Set("dropped_spans", dropped_spans);
  return out;
}

MetricsSnapshot MetricsFromJson(const Json& json) {
  MetricsSnapshot snapshot;
  for (const auto& [name, value] : json.Get("counters").entries()) {
    snapshot.counters.push_back(
        {name, static_cast<std::uint64_t>(value.AsDouble())});
  }
  for (const auto& [name, value] : json.Get("gauges").entries()) {
    snapshot.gauges.push_back({name, value.AsDouble()});
  }
  for (const auto& [name, value] : json.Get("histograms").entries()) {
    HistogramValue histogram;
    histogram.name = name;
    histogram.count = static_cast<std::uint64_t>(value.Get("count").AsDouble());
    histogram.sum = value.Get("sum").AsDouble();
    histogram.mean = value.Get("mean").AsDouble();
    histogram.p50 = value.Get("p50").AsDouble();
    histogram.p90 = value.Get("p90").AsDouble();
    histogram.p99 = value.Get("p99").AsDouble();
    histogram.max = value.Get("max").AsDouble();
    snapshot.histograms.push_back(std::move(histogram));
  }
  return snapshot;
}

std::vector<SpanRecord> SpansFromJson(const Json& json) {
  std::vector<SpanRecord> spans;
  for (const Json& span : json.items()) spans.push_back(SpanFromJson(span));
  return spans;
}

TextTable MetricsToTable(const MetricsSnapshot& snapshot) {
  TextTable table;
  table.SetHeader({"metric", "type", "count", "value", "p50", "p90", "p99",
                   "max"});
  for (const CounterValue& counter : snapshot.counters) {
    table.AddRow({counter.name, "counter", "",
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        counter.value)),
                  "", "", "", ""});
  }
  for (const GaugeValue& gauge : snapshot.gauges) {
    table.AddRow({gauge.name, "gauge", "", StrFormat("%g", gauge.value), "",
                  "", "", ""});
  }
  for (const HistogramValue& histogram : snapshot.histograms) {
    table.AddRow({histogram.name, "histogram",
                  StrFormat("%llu",
                            static_cast<unsigned long long>(histogram.count)),
                  StrFormat("%g", histogram.mean),
                  StrFormat("%g", histogram.p50),
                  StrFormat("%g", histogram.p90),
                  StrFormat("%g", histogram.p99),
                  StrFormat("%g", histogram.max)});
  }
  return table;
}

TextTable LatencyTable(const MetricsSnapshot& snapshot,
                       const std::string& prefix) {
  TextTable table;
  table.SetHeader({"stage", "count", "mean", "p50", "p90", "p99", "max"});
  for (const HistogramValue& histogram : snapshot.histograms) {
    if (!prefix.empty() && histogram.name.rfind(prefix, 0) != 0) continue;
    table.AddRow({histogram.name,
                  StrFormat("%llu",
                            static_cast<unsigned long long>(histogram.count)),
                  HumanDuration(histogram.mean), HumanDuration(histogram.p50),
                  HumanDuration(histogram.p90), HumanDuration(histogram.p99),
                  HumanDuration(histogram.max)});
  }
  return table;
}

std::string RenderSpanTree(const std::vector<SpanRecord>& spans) {
  if (spans.empty()) return "(no spans recorded)\n";
  std::string out = StrFormat("%-56s  %10s  %10s  %6s\n", "span", "total",
                              "self", "%root");
  for (const SpanRecord& root : spans) {
    RenderSpanLine(root, root.duration_ns, 0, out);
  }
  return out;
}

void WriteTelemetryJson(const std::string& path) {
  const Json json = TelemetryToJson(MetricsRegistry::Current().Snapshot(),
                                    TraceCollector::Global().Snapshot(),
                                    TraceCollector::Global().dropped());
  WriteFile(path, json.Dump(2) + "\n");
}

}  // namespace telemetry
}  // namespace phocus
