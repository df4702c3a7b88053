// Serving-path observability integration tests (ctest label: obs2).
//
// Covers the pieces that only make sense end-to-end over real sockets:
// cross-shard trace stitching against the shard-exec counter, windowed
// /metrics with exemplars that resolve through /debug/traces, trace-ring
// bounding, head-based sampling, client-supplied trace context, the SLO
// watchdog freezing a flight-recorder dump, and the scheduler profiler.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/scheduler.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "server_fixture.h"

namespace fgpm {
namespace {

using net::QueryRequest;
using net::QueryResponse;
using net::ServerOptions;

#define SKIP_IF_COMPILED_OUT()                                  \
  if (!FGPM_OBS_ENABLED) {                                      \
    GTEST_SKIP() << "observability compiled out (FGPM_OBS=OFF)"; \
  }

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

QueryRequest ChecksumRequest(uint64_t id, const std::string& pattern) {
  QueryRequest req;
  req.id = id;
  req.flags = net::kFlagChecksumOnly;
  req.pattern = pattern;
  return req;
}

std::string Hex16(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// The acceptance-criterion test: one sampled cross-shard query over 4
// shards yields ONE stitched trace whose per-shard exec spans sum to
// the server-measured shard-exec time (the fgpm_server_shard_exec_us_total
// delta), within the per-sub microsecond truncation.
TEST(Obs2Test, FourShardStitchedTraceMatchesShardExecCounter) {
  SKIP_IF_COMPILED_OUT();
  ServerOptions opts;
  opts.num_shards = 4;
  opts.trace_requests = true;
  // Two labels per shard: the chain below alternates shard-local and
  // cross-shard edges, so PlanCross scatters one sub-pattern per shard.
  opts.matcher.label_to_shard = {0, 0, 1, 1, 2, 2, 3, 3};
  ServerFixture f(opts);
  auto client = f.Connect();

  const uint64_t exec_before = CounterValue("fgpm_server_shard_exec_us_total");
  auto resp = client->Query(ChecksumRequest(
      1, "L0->L1; L1->L2; L2->L3; L3->L4; L4->L5; L5->L6; L6->L7"));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_TRUE(resp->ok()) << resp->error;
  const uint64_t exec_delta =
      CounterValue("fgpm_server_shard_exec_us_total") - exec_before;

  std::vector<QueryTrace> traces = f.server->RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const QueryTrace& t = traces.back();
  EXPECT_NE(t.trace_id(), 0u);

  // One stitched trace: root + queue + exec + gather on the origin, plus
  // queue:shardN / exec:shardN pairs grafted from every shard worker.
  bool shard_seen[4] = {false, false, false, false};
  double exec_span_sum_us = 0;
  int exec_spans = 0;
  for (const TraceSpan& s : t.spans()) {
    if (s.name.rfind("exec:shard", 0) == 0) {
      uint32_t shard = static_cast<uint32_t>(
          std::stoul(s.name.substr(strlen("exec:shard"))));
      ASSERT_LT(shard, 4u);
      shard_seen[shard] = true;
      EXPECT_EQ(s.tid, shard) << s.name;
      EXPECT_EQ(s.category, "shard");
      EXPECT_GE(s.parent, 0) << "shard spans must stitch under the request";
      exec_span_sum_us += s.wall_us;
      ++exec_spans;
    }
  }
  for (int sh = 0; sh < 4; ++sh) {
    EXPECT_TRUE(shard_seen[sh]) << "no exec span for shard " << sh;
  }
  // The counter adds floor(ns/1000) per sub-execution from the same
  // timestamps the spans carry, so it can only trail the span sum, by
  // less than 1us per sub.
  EXPECT_GE(exec_span_sum_us + 1e-6, static_cast<double>(exec_delta));
  EXPECT_LT(exec_span_sum_us - static_cast<double>(exec_delta),
            static_cast<double>(exec_spans) + 1.0);

  std::string json = t.ToChromeJson();
  EXPECT_NE(json.find("\"traceId\""), std::string::npos);
  EXPECT_NE(json.find("exec:shard3"), std::string::npos);
  EXPECT_NE(json.find("queue:shard0"), std::string::npos);
  EXPECT_NE(json.find("gather"), std::string::npos);
}

TEST(Obs2Test, MetricsExemplarResolvesToStitchedTrace) {
  SKIP_IF_COMPILED_OUT();
  ServerOptions opts;
  opts.num_shards = 2;
  opts.trace_requests = true;
  ServerFixture f(opts);
  auto client = f.Connect();
  auto resp = client->Query(ChecksumRequest(7, "L0->L1"));
  ASSERT_TRUE(resp.ok() && resp->ok());

  std::vector<QueryTrace> traces = f.server->RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const std::string hex = Hex16(traces.back().trace_id());

  // /metrics carries the windowed series and stamps the trace as the
  // exemplar of its latency bucket.
  std::string metrics = HttpGet(f.server->port(), "/metrics");
  EXPECT_NE(metrics.find("fgpm_server_latency_us_window{quantile=\"p99\"}"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("fgpm_server_latency_us_window{quantile=\"p50\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("# {trace_id=\"" + hex + "\"}"), std::string::npos)
      << metrics;

  // The exemplar's trace_id resolves to the full stitched Chrome trace.
  std::string body =
      HttpGet(f.server->port(), "/debug/traces?trace_id=" + hex);
  EXPECT_NE(body.find("200 OK"), std::string::npos) << body;
  EXPECT_NE(body.find("\"traceId\": \"" + hex + "\""), std::string::npos);
  EXPECT_NE(body.find("traceEvents"), std::string::npos);

  // Unknown ids are a 404, and the bare endpoint lists the ring.
  std::string missing = HttpGet(f.server->port(),
                                "/debug/traces?trace_id=ffffffffffffffff");
  EXPECT_NE(missing.find("404"), std::string::npos);
  std::string index = HttpGet(f.server->port(), "/debug/traces");
  EXPECT_NE(index.find(hex), std::string::npos);
}

TEST(Obs2Test, TraceRingBoundedWithDropCounter) {
  SKIP_IF_COMPILED_OUT();
  ServerOptions opts;
  opts.num_shards = 1;
  opts.trace_requests = true;
  opts.trace_ring = 4;
  ServerFixture f(opts);
  auto client = f.Connect();
  const uint64_t dropped_before = CounterValue("fgpm_trace_dropped_total");
  for (int i = 0; i < 10; ++i) {
    auto resp = client->Query(ChecksumRequest(i, "L0->L1"));
    ASSERT_TRUE(resp.ok() && resp->ok());
  }
  EXPECT_EQ(f.server->RecentTraces().size(), 4u);
  EXPECT_EQ(CounterValue("fgpm_trace_dropped_total") - dropped_before, 6u);
}

TEST(Obs2Test, HeadSamplingTracesEveryNth) {
  SKIP_IF_COMPILED_OUT();
  ServerOptions opts;
  opts.num_shards = 1;
  opts.trace_sample_n = 2;
  ServerFixture f(opts);
  auto client = f.Connect();
  for (int i = 0; i < 10; ++i) {
    auto resp = client->Query(ChecksumRequest(i, "L0->L1"));
    ASSERT_TRUE(resp.ok() && resp->ok());
  }
  std::vector<QueryTrace> traces = f.server->RecentTraces();
  EXPECT_EQ(traces.size(), 5u) << "every 2nd admitted request is traced";
  for (const QueryTrace& t : traces) EXPECT_NE(t.trace_id(), 0u);
}

TEST(Obs2Test, ClientTraceContextPropagates) {
  SKIP_IF_COMPILED_OUT();
  ServerOptions opts;  // neither trace_requests nor sampling enabled
  opts.num_shards = 2;
  ServerFixture f(opts);
  auto client = f.Connect();

  // sampled=false: the context rides the wire but the server must not
  // trace the request.
  QueryRequest unsampled = ChecksumRequest(1, "L0->L1");
  unsampled.has_trace = true;
  unsampled.trace_id = 0x5555;
  unsampled.trace_sampled = false;
  auto resp = client->Query(unsampled);
  ASSERT_TRUE(resp.ok() && resp->ok());
  EXPECT_TRUE(f.server->RecentTraces().empty());

  // sampled=true: the server adopts the caller's trace id and records
  // the parent span so the client can graft our trace under its own.
  QueryRequest sampled = ChecksumRequest(2, "L0->L1");
  sampled.has_trace = true;
  sampled.trace_id = 0x1234cafe;
  sampled.parent_span = 7;
  sampled.trace_sampled = true;
  resp = client->Query(sampled);
  ASSERT_TRUE(resp.ok() && resp->ok());

  std::vector<QueryTrace> traces = f.server->RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces.back().trace_id(), 0x1234cafeu);
  const uint64_t* parent = traces.back().spans()[0].FindArg(
      "client_parent_span");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(*parent, 7u);
}

TEST(Obs2Test, SloBreachFreezesFlightRecorderDump) {
  SKIP_IF_COMPILED_OUT();
  ServerOptions opts;
  opts.num_shards = 1;
  opts.slo_p99_ms = 1;
  // A CPU-heavy star (about 61k rows) blows well past the 1ms SLO.
  ServerFixture f(opts, /*num_labels=*/4, /*seed=*/7, /*num_nodes=*/2000);
  const char* kSlow = "L0->L1; L0->L2; L0->L3";
  auto client = f.Connect();

  const uint64_t breach_before = CounterValue("fgpm_slo_breach_total");
  for (int i = 0; i < 10; ++i) {
    auto resp = client->Query(ChecksumRequest(i, kSlow));
    ASSERT_TRUE(resp.ok() && resp->ok());
  }
  // The watchdog recomputes windowed p99 at most every 250ms; one more
  // slow query after the throttle window guarantees a check that sees
  // the slow samples.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto resp = client->Query(ChecksumRequest(99, kSlow));
  ASSERT_TRUE(resp.ok() && resp->ok());

  EXPECT_GE(CounterValue("fgpm_slo_breach_total") - breach_before, 1u);
  std::string dump = HttpGet(f.server->port(), "/debug/slo");
  EXPECT_NE(dump.find("slo_breach"), std::string::npos) << dump;
  EXPECT_NE(dump.find("slow_query"), std::string::npos);
}

TEST(Obs2Test, FlightRecorderRecordsAndServesEvents) {
  SKIP_IF_COMPILED_OUT();
  obs::FlightRecorder& fr = obs::FlightRecorder::Default();
  fr.Reset();
  obs::RecordFlight(obs::FlightEvent::kAdmissionShed, 7, "drr");
  obs::RecordFlight(obs::FlightEvent::kBackpressurePause);
  EXPECT_GE(fr.EventCount(), 2u);
  std::string dump = fr.DumpJson();
  EXPECT_NE(dump.find("\"event\": \"admission_shed\""), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"arg\": 7"), std::string::npos);
  EXPECT_NE(dump.find("\"detail\": \"drr\""), std::string::npos);
  EXPECT_NE(dump.find("\"event\": \"backpressure_pause\""), std::string::npos);

  // Server path: the result cache records hit/miss flight events, and
  // the endpoint serves the merged ring as JSON.
  ServerOptions opts;
  opts.matcher.exec.use_result_cache = true;
  ServerFixture f(opts);
  auto client = f.Connect();
  auto r1 = client->Query(ChecksumRequest(1, "L0->L1"));
  ASSERT_TRUE(r1.ok() && r1->ok());
  auto r2 = client->Query(ChecksumRequest(2, "L0->L1"));
  ASSERT_TRUE(r2.ok() && r2->ok());
  std::string body = HttpGet(f.server->port(), "/debug/flightrecorder");
  EXPECT_NE(body.find("application/json"), std::string::npos);
  EXPECT_NE(body.find("\"event\": \"cache_miss\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"event\": \"cache_hit\""), std::string::npos);
}

TEST(Obs2Test, ProfilerCapturesSchedulerLabels) {
  obs::SchedProfiler prof;
  obs::SchedProfiler::Options po;
  po.sample_interval_us = 100;
  prof.Start(po);

  ThreadPool pool(4);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    ScopedSchedLabel label(Scheduler::InternLabel("match;OBS2"));
    pool.ParallelFor(256, 1, [](unsigned, size_t, size_t, size_t) {
      // Each morsel burns ~100us so the sampler reliably observes
      // workers inside labeled regions.
      const auto stop =
          std::chrono::steady_clock::now() + std::chrono::microseconds(100);
      volatile uint64_t sink = 0;
      while (std::chrono::steady_clock::now() < stop) sink = sink + 1;
    });
  }
  prof.Stop();
  EXPECT_FALSE(prof.running());
  EXPECT_GT(prof.SampleCount(), 0u);
  std::string folded = prof.FoldedStacks();
  EXPECT_NE(folded.find("match;OBS2"), std::string::npos) << folded;
  // Label interning dedupes: same text, same pointer.
  EXPECT_EQ(Scheduler::InternLabel("match;OBS2"),
            Scheduler::InternLabel("match;OBS2"));

  prof.Reset();
  EXPECT_EQ(prof.FoldedStacks(), "");
  // Profiling is off again: the per-morsel gate is back to one relaxed
  // load and labels stop being published.
  EXPECT_FALSE(Scheduler::ProfilingEnabled());
}

TEST(Obs2Test, ServerStartsDefaultProfiler) {
  ServerOptions opts;
  opts.num_shards = 2;
  opts.profile_sample_us = 200;
  {
    ServerFixture f(opts);
    EXPECT_TRUE(obs::SchedProfiler::Default().running());
    auto client = f.Connect();
    for (int i = 0; i < 8; ++i) {
      auto resp = client->Query(ChecksumRequest(i, "L0->L1; L1->L2"));
      ASSERT_TRUE(resp.ok() && resp->ok());
    }
    std::string body = HttpGet(f.server->port(), "/debug/profile");
    EXPECT_NE(body.find("200 OK"), std::string::npos);
  }
  // Server shutdown stops the profiler it started.
  EXPECT_FALSE(obs::SchedProfiler::Default().running());
}

}  // namespace
}  // namespace fgpm
