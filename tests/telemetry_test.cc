#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace phocus {
namespace telemetry {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    TraceCollector::Global().Clear();
  }
  void TearDown() override { TraceCollector::Global().Clear(); }
};

TEST_F(TelemetryTest, CounterTotalsAreExactUnderThreadPoolConcurrency) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test.hits");
  const std::size_t tasks = 10'000;
  ThreadPool pool(8);
  pool.ParallelFor(tasks, [&](std::size_t i) { counter.Add(i % 3 + 1); });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < tasks; ++i) expected += i % 3 + 1;
  EXPECT_EQ(counter.value(), expected);
}

TEST_F(TelemetryTest, GetCounterReturnsTheSameInstancePerName) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("same.name");
  Counter& b = registry.GetCounter("same.name");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
}

TEST_F(TelemetryTest, GaugeKeepsTheLastWrite) {
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("test.depth");
  gauge.Set(1.5);
  gauge.Set(-3.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -3.0);
}

TEST_F(TelemetryTest, HistogramBucketBoundsAreMonotoneAndConsistent) {
  for (int i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    EXPECT_LT(Histogram::BucketUpperBound(i), Histogram::BucketUpperBound(i + 1));
  }
  for (double value : {0.5, 1.0, 3.0, 100.0, 1e6, 1e12}) {
    const int index = Histogram::BucketIndex(value);
    EXPECT_LE(value, Histogram::BucketUpperBound(index)) << value;
    if (index > 0) {
      EXPECT_GT(value, Histogram::BucketUpperBound(index - 1)) << value;
    }
  }
}

TEST_F(TelemetryTest, HistogramQuantilesAreWithinBucketResolution) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test.latency_ns");
  for (int v = 1; v <= 1000; ++v) hist.Record(static_cast<double>(v));
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_DOUBLE_EQ(hist.sum(), 1000.0 * 1001.0 / 2.0);
  EXPECT_DOUBLE_EQ(hist.max(), 1000.0);
  // Log-scale buckets (4 per doubling) guarantee <= 2^{1/4}-1 ~ 19% relative
  // overestimate of the true quantile; never an underestimate beyond one
  // bucket's width.
  for (double q : {0.5, 0.9, 0.99}) {
    const double truth = 1000.0 * q;
    const double approx = hist.Quantile(q);
    EXPECT_GE(approx, truth * 0.80) << q;
    EXPECT_LE(approx, truth * 1.20) << q;
  }
  EXPECT_LE(hist.Quantile(1.0), 1000.0);
}

TEST_F(TelemetryTest, HistogramCountSumMaxSurviveConcurrentRecording) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test.concurrent_ns");
  const std::size_t tasks = 20'000;
  ThreadPool pool(8);
  pool.ParallelFor(tasks, [&](std::size_t i) {
    hist.Record(static_cast<double>(i % 100 + 1));
  });
  EXPECT_EQ(hist.count(), tasks);
  double expected_sum = 0.0;
  for (std::size_t i = 0; i < tasks; ++i) expected_sum += i % 100 + 1;
  EXPECT_DOUBLE_EQ(hist.sum(), expected_sum);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);
}

TEST_F(TelemetryTest, ScopedRegistryRedirectsCurrent) {
  MetricsRegistry run_registry;
  EXPECT_EQ(&MetricsRegistry::Current(), &MetricsRegistry::Default());
  {
    ScopedMetricsRegistry scope(&run_registry);
    EXPECT_EQ(&MetricsRegistry::Current(), &run_registry);
    MetricsRegistry::Current().GetCounter("scoped.hits").Increment();
  }
  EXPECT_EQ(&MetricsRegistry::Current(), &MetricsRegistry::Default());
  EXPECT_EQ(run_registry.GetCounter("scoped.hits").value(), 1u);
}

TEST_F(TelemetryTest, SpansNestByScopeOnOneThread) {
  SpanRecord root;
  {
    TraceSpan outer("outer");
    outer.SetAttribute("k", std::string("v"));
    {
      TraceSpan inner("inner");
      TraceSpan sibling_after_close("ignored");
      (void)sibling_after_close;
    }
    { TraceSpan second("second"); }
    root = outer.Close();
  }
  ASSERT_EQ(root.name, "outer");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "inner");
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "ignored");
  EXPECT_EQ(root.children[1].name, "second");
  EXPECT_EQ(root.TotalSpans(), 4u);
  ASSERT_EQ(root.attributes.size(), 1u);
  EXPECT_EQ(root.attributes[0].first, "k");
  EXPECT_EQ(root.attributes[0].second, "v");
  // The same root was also deposited into the global collector.
  const std::vector<SpanRecord> collected = TraceCollector::Global().Snapshot();
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].TotalSpans(), 4u);
}

TEST_F(TelemetryTest, ChildDurationsFitInsideTheParent) {
  MetricsRegistry registry;
  Histogram& outer_ns = registry.GetHistogram("test.outer_ns");
  SpanRecord root;
  {
    TraceSpan outer("outer", &outer_ns);
    { TraceSpan inner("inner"); }
    root = outer.Close();
    // Closing freezes the span's clock at the duration it recorded.
    EXPECT_EQ(outer.ElapsedNanos(), root.duration_ns);
  }
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_GE(root.children[0].start_ns, root.start_ns);
  EXPECT_LE(root.children[0].duration_ns, root.duration_ns);
  // The owned histogram got exactly one sample: the span's duration.
  EXPECT_EQ(outer_ns.count(), 1u);
  EXPECT_DOUBLE_EQ(outer_ns.sum(), static_cast<double>(root.duration_ns));
}

TEST_F(TelemetryTest, PoolThreadsDepositTheirOwnRootsIntoTheCollector) {
  const std::size_t tasks = 64;
  ThreadPool pool(4);
  pool.ParallelFor(tasks, [&](std::size_t i) {
    TraceSpan span("task");
    span.SetAttribute("index", static_cast<std::uint64_t>(i));
    { TraceSpan child("step"); }
  });
  const std::vector<SpanRecord> roots = TraceCollector::Global().Drain();
  ASSERT_EQ(roots.size(), tasks);
  for (const SpanRecord& root : roots) {
    EXPECT_EQ(root.name, "task");
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].name, "step");
  }
}

TEST_F(TelemetryTest, CollectorCapsRootsAndCountsTheOverflow) {
  TraceCollector collector;
  for (std::size_t i = 0; i < TraceCollector::kMaxRoots + 10; ++i) {
    SpanRecord record;
    record.name = "r";
    collector.Deposit(std::move(record));
  }
  EXPECT_EQ(collector.Snapshot().size(), TraceCollector::kMaxRoots);
  EXPECT_EQ(collector.dropped(), 10u);
}

TEST_F(TelemetryTest, DisabledSpansRecordNothing) {
  MetricsRegistry registry;
  Histogram& span_ns = registry.GetHistogram("test.invisible_ns");
  SetEnabled(false);
  SpanRecord closed;
  std::uint64_t elapsed_ns = 0;
  {
    TraceSpan span("invisible", &span_ns);
    EXPECT_FALSE(span.active());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    closed = span.Close();
    elapsed_ns = span.ElapsedNanos();
  }
  SetEnabled(true);
  EXPECT_TRUE(closed.name.empty());
  EXPECT_TRUE(TraceCollector::Global().Snapshot().empty());
  // The span is still the interval's timer; it just records nowhere.
  EXPECT_GE(elapsed_ns, 1'000'000u);
  EXPECT_EQ(span_ns.count(), 0u);
}

TEST_F(TelemetryTest, MetricsRoundTripThroughJson) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Add(42);
  registry.GetGauge("b.gauge").Set(2.25);
  Histogram& hist = registry.GetHistogram("c.hist_ns");
  for (int v = 1; v <= 50; ++v) hist.Record(static_cast<double>(v));
  const MetricsSnapshot snapshot = registry.Snapshot();

  const MetricsSnapshot parsed =
      MetricsFromJson(Json::Parse(MetricsToJson(snapshot).Dump()));
  ASSERT_EQ(parsed.counters.size(), 1u);
  EXPECT_EQ(parsed.counters[0].name, "a.count");
  EXPECT_EQ(parsed.counters[0].value, 42u);
  ASSERT_EQ(parsed.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.gauges[0].value, 2.25);
  ASSERT_EQ(parsed.histograms.size(), 1u);
  EXPECT_EQ(parsed.histograms[0].count, 50u);
  EXPECT_DOUBLE_EQ(parsed.histograms[0].sum, snapshot.histograms[0].sum);
  EXPECT_DOUBLE_EQ(parsed.histograms[0].p90, snapshot.histograms[0].p90);
  EXPECT_DOUBLE_EQ(parsed.histograms[0].max, snapshot.histograms[0].max);
}

TEST_F(TelemetryTest, SpansRoundTripThroughJson) {
  SpanRecord root;
  {
    TraceSpan outer("plan");
    outer.SetAttribute("photos", static_cast<std::uint64_t>(7));
    { TraceSpan inner("solve"); }
    root = outer.Close();
  }
  const std::vector<SpanRecord> spans = {root};
  const std::vector<SpanRecord> parsed =
      SpansFromJson(Json::Parse(SpansToJson(spans).Dump()));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "plan");
  EXPECT_EQ(parsed[0].start_ns, root.start_ns);
  EXPECT_EQ(parsed[0].duration_ns, root.duration_ns);
  ASSERT_EQ(parsed[0].children.size(), 1u);
  EXPECT_EQ(parsed[0].children[0].name, "solve");
  ASSERT_EQ(parsed[0].attributes.size(), 1u);
  EXPECT_EQ(parsed[0].attributes[0].first, "photos");
  EXPECT_EQ(parsed[0].attributes[0].second, "7");
}

TEST_F(TelemetryTest, JsonFileIsWrittenAndParseable) {
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(&registry);
  registry.GetCounter("file.count").Add(3);
  registry.GetHistogram("file.lat_ns").Record(1000.0);
  { TraceSpan span("file.span"); }

  const std::string json_path = ::testing::TempDir() + "/phocus_telemetry.json";
  WriteTelemetryJson(json_path);
  const Json dump = Json::Parse(ReadFile(json_path));
  EXPECT_EQ(dump.Get("counters").Get("file.count").AsInt(), 3);
  EXPECT_EQ(dump.Get("histograms").Get("file.lat_ns").Get("count").AsInt(), 1);
  bool saw_span = false;
  for (const Json& span : dump.Get("spans").items()) {
    if (span.Get("name").AsString() == "file.span") saw_span = true;
  }
  EXPECT_TRUE(saw_span);
}

TEST_F(TelemetryTest, RenderSpanTreeShowsSelfAndTotalTimes) {
  SpanRecord root;
  root.name = "root";
  root.duration_ns = 1'000'000;
  SpanRecord child;
  child.name = "child";
  child.start_ns = 100;
  child.duration_ns = 400'000;
  root.children.push_back(child);
  const std::string rendered = RenderSpanTree({root});
  EXPECT_NE(rendered.find("root"), std::string::npos);
  EXPECT_NE(rendered.find("child"), std::string::npos);
  EXPECT_NE(rendered.find("100.0%"), std::string::npos);
  EXPECT_NE(rendered.find("40.0%"), std::string::npos);
}

TEST_F(TelemetryTest, LatencyTableFiltersByPrefix) {
  MetricsRegistry registry;
  registry.GetHistogram("system.stage.solve_ns").Record(5000.0);
  registry.GetHistogram("other.lat_ns").Record(5000.0);
  const TextTable table = LatencyTable(registry.Snapshot(), "system.stage.");
  EXPECT_EQ(table.num_rows(), 1u);
  const TextTable all = LatencyTable(registry.Snapshot());
  EXPECT_EQ(all.num_rows(), 2u);
}

TEST_F(TelemetryTest, HumanDurationPicksSensibleUnits) {
  EXPECT_EQ(HumanDuration(12.0), "12ns");
  EXPECT_EQ(HumanDuration(1500.0), "1.5us");
  EXPECT_EQ(HumanDuration(23'400'000.0), "23.4ms");
  EXPECT_EQ(HumanDuration(2'100'000'000.0), "2.10s");
}

}  // namespace
}  // namespace telemetry
}  // namespace phocus
