// Unit tests for the observability subsystem: counter / gauge /
// histogram semantics, percentile math, exact totals under concurrent
// sharded increments, and golden renderings of the Prometheus text
// exposition and the Chrome trace_event JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fgpm {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;

// Most write-path assertions are meaningless when the subsystem is
// compiled out (increments are no-ops by design).
#define SKIP_IF_COMPILED_OUT()                                 \
  if (!obs::kCompiledIn) {                                     \
    GTEST_SKIP() << "observability compiled out (FGPM_OBS=OFF)"; \
  }

TEST(CounterTest, IncrementAndReset) {
  SKIP_IF_COMPILED_OUT();
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, RuntimeKillSwitchDropsIncrements) {
  SKIP_IF_COMPILED_OUT();
  Counter c;
  obs::SetEnabled(false);
  c.Increment(100);
  obs::SetEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  c.Increment(1);
  EXPECT_EQ(c.Value(), 1u);
}

TEST(GaugeTest, SetAddReset) {
  SKIP_IF_COMPILED_OUT();
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), -1.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, BucketMath) {
  // Pure static math — valid regardless of FGPM_OBS.
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(7), 3);
  EXPECT_EQ(Histogram::BucketOf(8), 4);
  EXPECT_EQ(Histogram::BucketOf(~0ull), 64);
  EXPECT_EQ(Histogram::BucketUpper(0), 0u);
  EXPECT_EQ(Histogram::BucketUpper(1), 1u);
  EXPECT_EQ(Histogram::BucketUpper(2), 3u);
  EXPECT_EQ(Histogram::BucketUpper(3), 7u);
  EXPECT_EQ(Histogram::BucketUpper(64), ~0ull);
  // Every bucket's range is [upper(b-1)+1, upper(b)].
  for (int b = 1; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketUpper(b - 1) + 1), b);
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketUpper(b)), b);
  }
}

TEST(HistogramTest, CountSumAndBucketsExact) {
  SKIP_IF_COMPILED_OUT();
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(5);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 11u);
  EXPECT_EQ(s.counts[0], 1u);  // {0}
  EXPECT_EQ(s.counts[1], 1u);  // [1, 1]
  EXPECT_EQ(s.counts[2], 0u);
  EXPECT_EQ(s.counts[3], 2u);  // [4, 7]
}

TEST(HistogramTest, PercentileMath) {
  SKIP_IF_COMPILED_OUT();
  // Empty histogram: percentile of nothing is 0.
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Snap().Percentile(0.5), 0.0);

  // All mass on the zero bucket.
  Histogram zeros;
  for (int i = 0; i < 10; ++i) zeros.Observe(0);
  EXPECT_DOUBLE_EQ(zeros.Snap().Percentile(0.99), 0.0);

  // {0, 1, 5, 5}: rank(p50) = 2 -> last sample of bucket [1,1] = 1;
  // rank(p95) = 3 -> first of the two samples in [4,7], interpolated to
  // the bucket midpoint 5.5.
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(5);
  Histogram::Snapshot s = h.Snap();
  EXPECT_DOUBLE_EQ(s.Percentile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.95), 5.5);
  EXPECT_DOUBLE_EQ(s.Percentile(0.99), 5.5);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 7.0);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(s.Percentile(-1.0), s.Percentile(0.0));
  EXPECT_DOUBLE_EQ(s.Percentile(2.0), s.Percentile(1.0));
  // Percentiles are monotone in p and bounded by the bucket containing
  // the true value (log-bucket error is at most a factor of 2).
  double prev = 0;
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    double v = s.Percentile(p);
    EXPECT_GE(v, prev);
    EXPECT_LE(v, 7.0);
    prev = v;
  }
}

TEST(ConcurrencyTest, EightThreadsExactCounterTotal) {
  SKIP_IF_COMPILED_OUT();
  Counter c;
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kIters = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.Increment();
        c.Increment(2);
        h.Observe(static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  // Sharded cells must not lose a single relaxed add: the aggregate is
  // exact once writers are quiescent.
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kIters * 3);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kIters);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<uint64_t>(t) * kIters;
  }
  EXPECT_EQ(s.sum, expected_sum);
}

TEST(RegistryTest, PointersStableAndSharedByName) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x_total", "help");
  Counter* b = reg.GetCounter("x_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  reg.GetGauge("y");
  reg.GetHistogram("z");
  EXPECT_EQ(reg.size(), 3u);
}

TEST(RegistryTest, ResetZeroesButKeepsPointers) {
  SKIP_IF_COMPILED_OUT();
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  c->Increment(7);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(reg.GetCounter("c"), c);
}

TEST(RegistryTest, PrometheusTextGolden) {
  SKIP_IF_COMPILED_OUT();
  MetricsRegistry reg;
  reg.GetCounter("t_counter", "a counter")->Increment(3);
  reg.GetGauge("t_gauge", "a gauge")->Set(2.5);
  Histogram* h = reg.GetHistogram("t_hist", "a hist");
  h->Observe(0);
  h->Observe(1);
  h->Observe(5);
  h->Observe(5);
  const char* expected =
      "# HELP t_counter a counter\n"
      "# TYPE t_counter counter\n"
      "t_counter 3\n"
      "# HELP t_gauge a gauge\n"
      "# TYPE t_gauge gauge\n"
      "t_gauge 2.5\n"
      "# HELP t_hist a hist\n"
      "# TYPE t_hist histogram\n"
      "t_hist_bucket{le=\"0\"} 1\n"
      "t_hist_bucket{le=\"1\"} 2\n"
      "t_hist_bucket{le=\"3\"} 2\n"
      "t_hist_bucket{le=\"7\"} 4\n"
      "t_hist_bucket{le=\"+Inf\"} 4\n"
      "t_hist_sum 11\n"
      "t_hist_count 4\n";
  EXPECT_EQ(reg.ToPrometheusText(), expected);
}

TEST(RegistryTest, JsonGolden) {
  SKIP_IF_COMPILED_OUT();
  MetricsRegistry reg;
  reg.GetCounter("t_counter")->Increment(3);
  reg.GetGauge("t_gauge")->Set(2.5);
  Histogram* h = reg.GetHistogram("t_hist");
  h->Observe(0);
  h->Observe(1);
  h->Observe(5);
  h->Observe(5);
  const char* expected =
      "{\"counters\": {\"t_counter\": 3}, "
      "\"gauges\": {\"t_gauge\": 2.5}, "
      "\"histograms\": {\"t_hist\": {\"count\": 4, \"sum\": 11, "
      "\"p50\": 1, \"p95\": 5.5, \"p99\": 5.5, "
      "\"buckets\": [[0, 1], [1, 1], [7, 2]]}}}";
  EXPECT_EQ(reg.ToJson(), expected);
}

TEST(RegistryTest, EmptyExports) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.ToPrometheusText(), "");
  EXPECT_EQ(reg.ToJson(),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}");
}

// --- sliding window ---------------------------------------------------------

uint64_t g_fake_now_ns = 0;
uint64_t FakeClock() { return g_fake_now_ns; }

// 6 slices of 1000ns each; one full window is 6000ns of fake time.
constexpr uint64_t kWin = 6000;

TEST(WindowTest, EmptyAndDisabledWindows) {
  SKIP_IF_COMPILED_OUT();
  Histogram no_window;
  no_window.Observe(5);
  EXPECT_FALSE(no_window.window_enabled());
  EXPECT_EQ(no_window.WindowSnap().count, 0u);

  g_fake_now_ns = 0;
  Histogram h;
  h.EnableWindow(kWin, FakeClock);
  EXPECT_TRUE(h.window_enabled());
  Histogram::Snapshot w = h.WindowSnap();
  EXPECT_EQ(w.count, 0u);
  EXPECT_DOUBLE_EQ(w.Percentile(0.99), 0.0);
}

TEST(WindowTest, WindowedP99MatchesOfflineRecompute) {
  SKIP_IF_COMPILED_OUT();
  g_fake_now_ns = 0;
  Histogram h;
  h.EnableWindow(kWin, FakeClock);

  // Phase A: stale samples that must age out of the window.
  for (uint64_t s : {100u, 200u, 3000u, 3000u}) h.Observe(s);
  // Jump two full windows ahead: every ring slot rotates to "now", so
  // phase A sits entirely behind the oldest retained boundary.
  g_fake_now_ns = 2 * kWin;
  EXPECT_EQ(h.WindowSnap().count, 0u);

  // Phase B: the live window.
  const std::vector<uint64_t> live = {1, 5, 5, 9000};
  for (uint64_t s : live) h.Observe(s);

  // Offline recompute over exactly the live samples.
  Histogram::Snapshot expect;
  for (uint64_t s : live) {
    expect.counts[Histogram::BucketOf(s)]++;
    expect.count++;
    expect.sum += s;
  }
  Histogram::Snapshot w = h.WindowSnap();
  EXPECT_EQ(w.count, expect.count);
  EXPECT_EQ(w.sum, expect.sum);
  EXPECT_EQ(w.counts, expect.counts);
  EXPECT_DOUBLE_EQ(w.Percentile(0.50), expect.Percentile(0.50));
  EXPECT_DOUBLE_EQ(w.Percentile(0.95), expect.Percentile(0.95));
  EXPECT_DOUBLE_EQ(w.Percentile(0.99), expect.Percentile(0.99));
  // The cumulative view still has everything: the window is a view, not
  // a second histogram.
  EXPECT_EQ(h.Snap().count, 8u);
}

TEST(WindowTest, SingleRotationKeepsThenAgesSamples) {
  SKIP_IF_COMPILED_OUT();
  g_fake_now_ns = 0;
  Histogram h;
  h.EnableWindow(kWin, FakeClock);
  h.Observe(7);
  h.Observe(7);

  // One slice boundary: a single rotation. The ring has not wrapped, so
  // the oldest snapshot is still the zero snapshot — both samples stay
  // in the window.
  g_fake_now_ns = kWin / Histogram::kWindowSlices;
  EXPECT_EQ(h.WindowSnap().count, 2u);

  // One full window later the boundary snapshot that contains them
  // becomes the subtrahend and they age out.
  g_fake_now_ns += kWin;
  EXPECT_EQ(h.WindowSnap().count, 0u);
}

TEST(WindowTest, ExemplarStampsBucketLastWriterWins) {
  SKIP_IF_COMPILED_OUT();
  g_fake_now_ns = 42;
  Histogram h;
  h.EnableWindow(kWin, FakeClock);
  h.ObserveWithExemplar(5, 0xdeadu);
  Histogram::Exemplar ex = h.BucketExemplar(Histogram::BucketOf(5));
  EXPECT_EQ(ex.trace_id, 0xdeadu);
  h.ObserveWithExemplar(6, 0xbeefu);  // same bucket [4,7]
  EXPECT_EQ(h.BucketExemplar(Histogram::BucketOf(5)).trace_id, 0xbeefu);
  // Untouched bucket has no exemplar; trace_id 0 never stamps.
  EXPECT_EQ(h.BucketExemplar(Histogram::BucketOf(1u << 20)).trace_id, 0u);
  h.Observe(1u << 20);
  EXPECT_EQ(h.BucketExemplar(Histogram::BucketOf(1u << 20)).trace_id, 0u);
}

TEST(RegistryTest, WindowedSeriesInExports) {
  SKIP_IF_COMPILED_OUT();
  g_fake_now_ns = 0;
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("w_hist", "windowed");
  h->EnableWindow(kWin, FakeClock);
  h->ObserveWithExemplar(5, 0xabcu);
  std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("w_hist_window{quantile=\"p50\"}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("w_hist_window{quantile=\"p99\"}"), std::string::npos);
  EXPECT_NE(text.find("w_hist_window_count 1"), std::string::npos);
  EXPECT_NE(text.find("# {trace_id=\"0000000000000abc\"}"), std::string::npos)
      << text;
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"window\": {\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"0000000000000abc\""), std::string::npos);
}

// --- exporter hardening -----------------------------------------------------

TEST(RegistryTest, PoisonedGaugeDegradesGracefully) {
  SKIP_IF_COMPILED_OUT();
  MetricsRegistry reg;
  reg.GetGauge("poisoned_a")->Set(std::nan(""));
  reg.GetGauge("poisoned_b")->Set(std::numeric_limits<double>::infinity());
  reg.GetGauge("poisoned_c")->Set(-std::numeric_limits<double>::infinity());
  reg.GetCounter("fine_total")->Increment(1);

  // Prometheus exposition has canonical spellings for non-finite values.
  std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("poisoned_a NaN\n"), std::string::npos) << text;
  EXPECT_NE(text.find("poisoned_b +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("poisoned_c -Inf\n"), std::string::npos);
  EXPECT_NE(text.find("fine_total 1\n"), std::string::npos);

  // JSON has no NaN/Inf literals at all: poisoned values become null and
  // the document stays parseable.
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"poisoned_a\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"poisoned_b\": null"), std::string::npos);
  EXPECT_NE(json.find("\"poisoned_c\": null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("Inf"), std::string::npos);
}

TEST(RegistryTest, MetricNamesSanitizedInExposition) {
  SKIP_IF_COMPILED_OUT();
  MetricsRegistry reg;
  reg.GetCounter("bad name-1!", "weird\nhelp\\text")->Increment(2);
  reg.GetCounter("9starts_with_digit")->Increment(1);
  std::string text = reg.ToPrometheusText();
  // Every char outside [a-zA-Z0-9_:] maps to '_'; a leading digit too.
  EXPECT_NE(text.find("bad_name_1_ 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("_starts_with_digit 1\n"), std::string::npos);
  // HELP text escapes newline and backslash per the exposition format.
  EXPECT_NE(text.find("# HELP bad_name_1_ weird\\nhelp\\\\text\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("bad name"), std::string::npos);
}

TEST(TraceTest, ChromeJsonGolden) {
  // AddCompleteSpan takes explicit timestamps, so the rendering is
  // deterministic with or without FGPM_OBS.
  QueryTrace trace;
  uint32_t root =
      trace.AddCompleteSpan("root", "query", -1, 0.0, 1000.0, 250.0);
  trace.AddArg(root, "rows", 5);
  uint32_t child =
      trace.AddCompleteSpan("FETCH(A->B)", "operator",
                            static_cast<int32_t>(root), 100.0, 500.0, 0.0);
  trace.AddArg(child, "rows_out", 3);
  const char* expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"root\", "
      "\"cat\": \"query\", \"ts\": 0.000, \"dur\": 1000.000, "
      "\"args\": {\"cpu_us\": 250.000, \"rows\": 5}},\n"
      "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"FETCH(A->B)\", "
      "\"cat\": \"operator\", \"ts\": 100.000, \"dur\": 500.000, "
      "\"args\": {\"cpu_us\": 0.000, \"rows_out\": 3}},\n"
      "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"SELECT(A->C)\", "
      "\"cat\": \"operator\", \"ts\": 100.000, \"dur\": 500.000, "
      "\"args\": {\"cpu_us\": 0.000}}\n"
      "]}\n";
  trace.AddCompleteSpan("SELECT(A->C)", "operator",
                        static_cast<int32_t>(child), 100.0, 500.0, 0.0);
  EXPECT_EQ(trace.ToChromeJson(), expected);
}

TEST(TraceTest, ToStringIndentsByParentDepth) {
  QueryTrace trace;
  uint32_t root = trace.AddCompleteSpan("q", "query", -1, 0, 10, 0);
  uint32_t op = trace.AddCompleteSpan("FETCH(A->B)", "operator",
                                      static_cast<int32_t>(root), 0, 5, 0);
  trace.AddCompleteSpan("SELECT(B->C)", "operator",
                        static_cast<int32_t>(op), 0, 5, 0);
  std::string s = trace.ToString();
  EXPECT_EQ(s.rfind("q ", 0), 0u);  // root at depth 0, no indent
  EXPECT_NE(s.find("  FETCH(A->B)"), std::string::npos);
  EXPECT_NE(s.find("    SELECT(B->C)"), std::string::npos);
}

TEST(TraceTest, BeginEndSpanMeasuresTime) {
  QueryTrace trace;
  uint32_t id = trace.BeginSpan("work", "operator");
  // Spin a touch so wall time is strictly positive on coarse clocks.
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x = x + static_cast<uint64_t>(i);
  trace.EndSpan(id);
  ASSERT_EQ(trace.spans().size(), 1u);
  const TraceSpan& s = trace.spans()[0];
  EXPECT_EQ(s.name, "work");
  EXPECT_GT(s.wall_us, 0.0);
  EXPECT_GE(s.start_us, 0.0);
}

TEST(TraceTest, FindArg) {
  QueryTrace trace;
  uint32_t id = trace.AddCompleteSpan("s", "operator", -1, 0, 1, 0);
  trace.AddArg(id, "rows_out", 17);
  const TraceSpan& s = trace.spans()[0];
  ASSERT_NE(s.FindArg("rows_out"), nullptr);
  EXPECT_EQ(*s.FindArg("rows_out"), 17u);
  EXPECT_EQ(s.FindArg("missing"), nullptr);
}

}  // namespace
}  // namespace fgpm
