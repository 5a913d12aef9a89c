#ifndef PHOCUS_TELEMETRY_EXPORT_H_
#define PHOCUS_TELEMETRY_EXPORT_H_

#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/json.h"
#include "util/table.h"

/// \file export.h
/// Telemetry exporters: JSON snapshot dumps plus a human-readable
/// flame-style span summary. Formats are documented in
/// docs/OBSERVABILITY.md.

namespace phocus {
namespace telemetry {

/// Sorts a span forest's roots by (start_ns, name, duration_ns) so exported
/// snapshots do not depend on which worker thread deposited first; children
/// keep their (deterministic, single-threaded) creation order.
/// TelemetryToJson applies this, making exports diffable across runs.
void SortSpans(std::vector<SpanRecord>& spans);

/// Metrics snapshot in the Prometheus text exposition format: names
/// prefixed `phocus_` with dots mapped to underscores, counters and gauges
/// as single samples, histograms as summaries (quantile-labelled samples
/// plus `_sum` / `_count`). Deterministic: snapshot order is name-sorted.
std::string MetricsToPrometheus(const MetricsSnapshot& snapshot);

/// Metrics snapshot as a JSON object:
///   {"counters": {name: value},
///    "gauges": {name: value},
///    "histograms": {name: {count, sum, mean, p50, p90, p99, max}}}
Json MetricsToJson(const MetricsSnapshot& snapshot);

/// Span forest as a JSON array of
///   {"name", "start_ns", "duration_ns", "attributes": {k: v},
///    "children": [...]}.
Json SpansToJson(const std::vector<SpanRecord>& spans);

/// Full snapshot: {"telemetry": {...}, "counters", "gauges", "histograms",
/// "spans", "dropped_spans"}.
Json TelemetryToJson(const MetricsSnapshot& snapshot,
                     const std::vector<SpanRecord>& spans,
                     std::uint64_t dropped_spans = 0);

/// Inverse of MetricsToJson / SpansToJson (export round-trips; used by tests
/// and offline analysis tooling).
MetricsSnapshot MetricsFromJson(const Json& json);
std::vector<SpanRecord> SpansFromJson(const Json& json);

/// Metrics as one flat table (metric, type, count, value/mean, p50, p90,
/// p99, max) — render with Render() for humans or RenderCsv() for plots.
TextTable MetricsToTable(const MetricsSnapshot& snapshot);

/// Histogram-only latency table (metric, count, mean, p50, p90, p99, max)
/// with durations humanized; optionally restricted to names starting with
/// `prefix`. The REPL's \stats uses this for per-stage percentiles.
TextTable LatencyTable(const MetricsSnapshot& snapshot,
                       const std::string& prefix = "");

/// Flame-style indented span summary: per span its total time, self time
/// (total minus children), and share of its root.
std::string RenderSpanTree(const std::vector<SpanRecord>& spans);

/// "1.5us" / "23.4ms" / "2.1s" from nanoseconds.
std::string HumanDuration(double nanos);

/// Snapshots MetricsRegistry::Current() plus the global TraceCollector and
/// writes them to `path` as JSON. Throws CheckFailure on I/O failure.
void WriteTelemetryJson(const std::string& path);

}  // namespace telemetry
}  // namespace phocus

#endif  // PHOCUS_TELEMETRY_EXPORT_H_
