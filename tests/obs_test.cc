#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "engine/real_executor.h"
#include "engine/report.h"
#include "matrix/generator.h"
#include "mm/methods.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace distme::obs {
namespace {

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("distme.test.counter");
  Counter* b = registry.GetCounter("distme.test.counter");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3);

  // Different labels are different instruments; same labels (in any order)
  // are the same one.
  Counter* red = registry.GetCounter("distme.test.labeled",
                                     {{"color", "red"}, {"size", "s"}});
  Counter* blue = registry.GetCounter("distme.test.labeled",
                                      {{"color", "blue"}, {"size", "s"}});
  Counter* red_again = registry.GetCounter(
      "distme.test.labeled", {{"size", "s"}, {"color", "red"}});
  EXPECT_NE(red, blue);
  EXPECT_EQ(red, red_again);
}

TEST(MetricsRegistryTest, ConcurrentCountersAreExact) {
  constexpr int kThreads = 8;
  constexpr int kCounters = 4;
  constexpr int kIncrements = 20000;

  MetricsRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIncrements; ++i) {
        // Every thread registers lazily, exercising FindOrCreate under
        // contention, then hammers the lock-free Add path.
        const std::string name =
            "distme.test.c" + std::to_string((t + i) % kCounters);
        registry.GetCounter(name)->Add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  int64_t total = 0;
  for (int c = 0; c < kCounters; ++c) {
    total += registry.GetCounter("distme.test.c" + std::to_string(c))->Value();
  }
  EXPECT_EQ(total, int64_t{kThreads} * kIncrements);
}

TEST(MetricsRegistryTest, GaugeSetMaxRecordsPeak) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("distme.test.peak");
  gauge->SetMax(10);
  gauge->SetMax(4);
  EXPECT_EQ(gauge->Value(), 10);
  gauge->SetMax(25);
  EXPECT_EQ(gauge->Value(), 25);
}

TEST(MetricsRegistryTest, SnapshotFindAndTotals) {
  MetricsRegistry registry;
  registry.GetCounter("distme.test.retries", {{"reason", "timeout"}})->Add(2);
  registry.GetCounter("distme.test.retries", {{"reason", "crash"}})->Add(5);
  registry.GetGauge("distme.test.gauge")->Set(-7);

  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricPoint* timeout =
      snapshot.Find("distme.test.retries", {{"reason", "timeout"}});
  ASSERT_NE(timeout, nullptr);
  EXPECT_EQ(timeout->value, 2);
  EXPECT_EQ(snapshot.TotalValue("distme.test.retries"), 7);
  const MetricPoint* gauge = snapshot.Find("distme.test.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->kind, MetricKind::kGauge);
  EXPECT_EQ(gauge->value, -7);
  EXPECT_EQ(snapshot.Find("distme.test.absent"), nullptr);

  registry.Reset();
  EXPECT_EQ(registry.Snapshot().TotalValue("distme.test.retries"), 0);
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, CountSumMinMaxAreExact) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("distme.test.h");
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    h->Observe(i * 0.5);
    sum += i * 0.5;
  }
  EXPECT_EQ(h->Count(), 1000);
  EXPECT_DOUBLE_EQ(h->Sum(), sum);
  EXPECT_DOUBLE_EQ(h->Min(), 0.5);
  EXPECT_DOUBLE_EQ(h->Max(), 500.0);
}

TEST(HistogramTest, PercentilesAreWithinABucket) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("distme.test.p");
  // Uniform 1..10000: p50 = 5000, p95 = 9500, p99 = 9900. The base-2
  // buckets bound the estimate within a factor of two of the true value.
  for (int i = 1; i <= 10000; ++i) h->Observe(i);
  const double p50 = h->Percentile(50);
  const double p95 = h->Percentile(95);
  const double p99 = h->Percentile(99);
  EXPECT_GE(p50, 2500.0);
  EXPECT_LE(p50, 10000.0);
  EXPECT_GE(p95, 4750.0);
  EXPECT_LE(p95, 10000.0);
  EXPECT_GE(p99, 4950.0);
  EXPECT_LE(p99, 10000.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Extremes are clamped to the exact observed min/max.
  EXPECT_DOUBLE_EQ(h->Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h->Percentile(100), 10000.0);
}

TEST(HistogramTest, SingleValuePercentilesCollapse) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("distme.test.one");
  h->Observe(42.0);
  EXPECT_DOUBLE_EQ(h->Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h->Percentile(99), 42.0);
}

// --- Tracer / TraceSpan ----------------------------------------------------

TEST(TraceSpanTest, DisabledTracerRecordsNothing) {
  Tracer tracer;  // disabled by default
  {
    TraceSpan span(&tracer, "noop");
    span.AddArg("k", int64_t{1});
  }
  { TraceSpan null_span(nullptr, "noop"); }
  EXPECT_EQ(tracer.EventCount(), 0u);
}

TEST(TraceSpanTest, CancelDiscardsTheSpan) {
  Tracer tracer;
  tracer.SetEnabled(true);
  {
    TraceSpan span(&tracer, "kept");
  }
  {
    TraceSpan span(&tracer, "discarded");
    span.Cancel();
  }
  std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "kept");
}

TEST(TraceSpanTest, NestedSpansDrainEnclosingFirst) {
  Tracer tracer;
  tracer.SetEnabled(true);
  {
    TraceSpan outer(&tracer, "outer");
    // The children start measurably after the parent, so this checks the
    // ts order; RecordStampsUnstampedEventsInRecordOrder covers ties.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(2);
    while (std::chrono::steady_clock::now() < until) {
    }
    {
      TraceSpan inner(&tracer, "inner");
      TraceSpan innermost(&tracer, "innermost");
    }
  }
  std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 3u);
  // Drain() sorts by (ts asc, open order): parents precede their children.
  EXPECT_EQ(events[0].name, "outer");
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[0].ts_us);
    EXPECT_LE(events[i].ts_us + events[i].dur_us,
              events[0].ts_us + events[0].dur_us);
  }
}

TEST(TraceSpanTest, RecordStampsUnstampedEventsInRecordOrder) {
  Tracer tracer;
  tracer.SetEnabled(true);
  {
    TraceSpan enclosing(&tracer, "enclosing");
    // Direct records leave seq 0; Record stamps them after the span's
    // open stamp. On a ts tie they drain in record order, whatever dur.
    TraceEvent first;
    first.name = "first";
    first.ts_us = 0;
    first.dur_us = 1;
    TraceEvent second = first;
    second.name = "second";
    second.dur_us = 10;
    tracer.Record(first);
    tracer.Record(second);
  }
  std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 3u);
  std::vector<TraceEvent> recorded;
  for (const TraceEvent& e : events) {
    EXPECT_GT(e.seq, 0u) << e.name;
    if (e.name != "enclosing") recorded.push_back(e);
  }
  ASSERT_EQ(recorded.size(), 2u);
  EXPECT_EQ(recorded[0].name, "first");
  EXPECT_EQ(recorded[1].name, "second");
  const auto enclosing = std::find_if(
      events.begin(), events.end(),
      [](const TraceEvent& e) { return e.name == "enclosing"; });
  ASSERT_NE(enclosing, events.end());
  EXPECT_LT(enclosing->seq, recorded[0].seq);
}

TEST(TraceSpanTest, ScopedTrackRoutesSpans) {
  Tracer tracer;
  tracer.SetEnabled(true);
  {
    Tracer::ScopedTrack track(2, 5);
    TraceSpan span(&tracer, "on-node2");
    EXPECT_EQ(Tracer::CurrentPid(), 2);
    EXPECT_EQ(Tracer::CurrentTid(), 5);
  }
  EXPECT_EQ(Tracer::CurrentPid(), 0);
  {
    TraceSpan span(&tracer, "on-node0");
  }
  std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "on-node2");
  EXPECT_EQ(events[0].pid, 2);
  EXPECT_EQ(events[0].tid, 5);
  EXPECT_EQ(events[1].pid, 0);
}

TEST(TracerTest, ManyThreadsLoseNoEvents) {
  constexpr int kThreads = 8;
  constexpr int kSpans = 2000;
  Tracer tracer;
  tracer.SetEnabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      Tracer::ScopedTrack track(0, t);
      for (int i = 0; i < kSpans; ++i) {
        TraceSpan span(&tracer, "w");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tracer.Drain().size(), size_t{kThreads} * kSpans);
}

// --- Exporters -------------------------------------------------------------

TEST(ChromeTraceTest, EmitsRequiredKeysAndMetadata) {
  Tracer tracer;
  tracer.SetEnabled(true);
  tracer.SetProcessName(0, "node0");
  tracer.SetThreadName(0, 1, "slot1");
  {
    Tracer::ScopedTrack track(0, 1);
    TraceSpan span(&tracer, "task.attempt", "engine");
    span.AddArg("task", int64_t{7});
    span.AddArg("ratio", 0.5);
    span.AddArg("why", std::string("test \"quoted\" value"));
  }
  const std::string json = ChromeTraceJson(tracer, tracer.Drain());

  // Document structure plus the keys every trace viewer requires.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"task.attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  // Track-name metadata events.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("node0"), std::string::npos);
  EXPECT_NE(json.find("slot1"), std::string::npos);
  // Args, including escaped strings.
  EXPECT_NE(json.find("\"task\":7"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(MetricsJsonTest, RendersEveryInstrumentKind) {
  MetricsRegistry registry;
  registry.GetCounter("distme.test.counter")->Add(11);
  registry.GetGauge("distme.test.gauge")->Set(3);
  registry.GetHistogram("distme.test.histogram")->Observe(2.0);
  const std::string json = MetricsJson(registry.Snapshot());
  EXPECT_NE(json.find("\"name\":\"distme.test.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":11"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// --- RealExecutor integration ---------------------------------------------

engine::DistributedMatrix MakeMatrix(int64_t rows, int64_t cols, int nodes,
                                     uint64_t seed) {
  GeneratorOptions g;
  g.rows = rows;
  g.cols = cols;
  g.block_size = 8;
  g.sparsity = 1.0;
  g.seed = seed;
  return engine::DistributedMatrix::FromGridHashed(GenerateUniform(g), nodes);
}

TEST(ObsIntegrationTest, RealRunSpansAndCountersMatchTheReport) {
  const ClusterConfig cluster = ClusterConfig::Local(3, 2);
  engine::RealExecutor executor(cluster);
  engine::DistributedMatrix a = MakeMatrix(48, 40, 3, 11);
  engine::DistributedMatrix b = MakeMatrix(40, 32, 3, 12);

  MetricsRegistry metrics;
  Tracer tracer;
  tracer.SetEnabled(true);
  engine::RealOptions options;
  options.metrics = &metrics;
  options.tracer = &tracer;

  auto result = executor.Run(a, b, mm::CpmmMethod(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const engine::MMReport& report = result->report;
  ASSERT_TRUE(report.outcome.ok());

  // Every task attempt opened exactly one "task.attempt" span.
  std::vector<TraceEvent> events = tracer.Drain();
  int64_t attempt_spans = 0;
  for (const TraceEvent& e : events) attempt_spans += e.name == "task.attempt";
  EXPECT_EQ(attempt_spans, report.num_tasks + report.task_retries);
  EXPECT_EQ(attempt_spans,
            metrics.Snapshot().TotalValue("distme.task.attempts"));

  // The report's shuffle bytes are populated from the registry, and the
  // registry agrees with the report's total.
  const MetricsSnapshot snapshot = metrics.Snapshot();
  const int64_t counted =
      snapshot.TotalValue("distme.shuffle.repartition_bytes") +
      snapshot.TotalValue("distme.shuffle.aggregation_bytes");
  EXPECT_EQ(static_cast<double>(counted), report.total_shuffle_bytes());

  // Span tracks stay within the cluster: pids in [0, nodes] (nodes = driver).
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.pid, 0);
    EXPECT_LE(e.pid, cluster.num_nodes);
    EXPECT_GE(e.ts_us, 0);
    EXPECT_GE(e.dur_us, 0);
  }
}

TEST(ObsIntegrationTest, InjectedFaultsShowUpAsLabeledRetries) {
  const ClusterConfig cluster = ClusterConfig::Local(2, 2);
  engine::RealExecutor executor(cluster);
  engine::DistributedMatrix a = MakeMatrix(32, 24, 2, 21);
  engine::DistributedMatrix b = MakeMatrix(24, 16, 2, 22);

  MetricsRegistry metrics;
  engine::RealOptions options;
  options.metrics = &metrics;
  options.task_failure_rate = 0.5;
  options.max_task_attempts = 100;  // retries always succeed eventually

  auto result = executor.Run(a, b, mm::BmmMethod(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->report.outcome.ok());
  ASSERT_GT(result->report.task_retries, 0);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  const MetricPoint* injected = snapshot.Find(
      "distme.task.retries", {{"reason", "injected_crash"}});
  ASSERT_NE(injected, nullptr);
  EXPECT_EQ(injected->value, result->report.task_retries);

  // The structured run report carries the labeled breakdown.
  const std::string json = engine::RunReportJson(result->report, &snapshot);
  EXPECT_NE(json.find("\"task_retries_by_reason\""), std::string::npos);
  EXPECT_NE(json.find("\"injected_crash\""), std::string::npos);
}

}  // namespace
}  // namespace distme::obs
