// serve_zipf: the repository's server bench pool — 28 patterns over 32
// labels on a 6000-node scale-free graph, drawn Zipf(0.9), eight label
// groups placed group-wise on the shards, checksum-only responses —
// served by net::Server with 2 shards, CPU-bound (no simulated disk
// latency; every shard's pool holds its partition) with the result cache
// off. Load comes from this process: at most 2 connections and 2 load
// threads, so the 2 server workers plus the load fit in 4 cores.
//
// Each run has two phases: closed-loop saturation (each connection keeps
// a fixed window of requests outstanding; throughput comes from the
// quieter half of half-second windows, the p95 latency from all of
// them), then an open loop at one fixed arrival rate, each request timed
// from its scheduled send time (the p50 of all its requests).
// References come from a direct, unsharded GraphMatcher::Match of every
// pool pattern.
//
// The structure uses the server bench's generator seed; --seed draws the
// node-id permutation (inputs.h) and the request streams.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "suite.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint32_t kLabels = 32;  // 8 groups of 4 co-located labels
constexpr uint32_t kGroups = 8;
constexpr uint32_t kShards = 2;
constexpr double kTheta = 0.9;
constexpr size_t kPoolBytesPerShard = size_t{8} << 20;
// Closed loop: one connection per server worker (one load thread
// each), each keeping kWindow requests outstanding. Connections are
// placed on a known worker (ConnectToWorker): SO_REUSEPORT hashing would
// otherwise put both on one worker in half of the runs.
constexpr size_t kWindow = 8;
constexpr double kQpsWindowS = 0.5;
// Open loop: worker 0's connection, one sender and one receiver thread,
// at a fixed absolute rate (BENCHMARK.json names it in the workload's
// why).
constexpr double kOpenRate = 4000;
// The open-loop phase is invalid when the sender's p99 lag behind its
// schedule exceeds this: its latencies would measure the client.
constexpr double kMaxLagP99Us = 2000;
constexpr int kOpenAttempts = 3;
// Open-loop latency windows (see OpenLoopResult::QuietLatencies); the
// last, partial window is dropped.
constexpr double kLatencyWindowS = 1.0;
// Request ids carry the pool index: id = sequence * kIdStride + index.
constexpr uint64_t kIdStride = 64;

// Pool of pattern texts, hot to cold (Zipf rank = index), as in the
// server bench: three snake sweeps over the label groups so the hottest
// patterns land on different shards, then a cross-group tail whose
// edges cross shard boundaries (scatter-gather).
std::vector<std::string> BuildPool() {
  auto L = [](uint32_t l) {
    std::string s = "L";
    return s += std::to_string(l);
  };
  std::vector<std::string> pool;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (uint32_t i = 0; i < kGroups; ++i) {
      const uint32_t g = (sweep == 1) ? (kGroups - 1 - i) : i;
      const uint32_t b = 4 * g;
      switch (sweep) {
        case 0: pool.push_back(L(b) + "->" + L(b + 1)); break;
        case 1:
          pool.push_back(L(b + 1) + "->" + L(b + 2) + "; " + L(b + 2) + "->" +
                         L(b + 3));
          break;
        default:
          pool.push_back(L(b) + "->" + L(b + 2) + "; " + L(b) + "->" + L(b + 3));
          break;
      }
    }
  }
  pool.push_back(L(1) + "->" + L(5));
  pool.push_back(L(9) + "->" + L(13) + "; " + L(13) + "->" + L(17));
  pool.push_back(L(21) + "->" + L(25));
  pool.push_back(L(29) + "->" + L(2));
  return pool;
}

struct Reference {
  std::vector<uint64_t> checksum, rows;
};

// Outcome counts of one load thread, merged after it joins.
struct Tally {
  uint64_t ok = 0, shed = 0, errors = 0, wrong = 0;
  std::string first_wrong;

  void Check(const fgpm::net::QueryResponse& resp, const Reference& ref,
             const std::vector<std::string>& pool) {
    if (!resp.ok()) {
      ++(resp.code == fgpm::StatusCode::kResourceExhausted ? shed : errors);
      return;
    }
    const size_t idx = resp.id % kIdStride;
    if (idx >= pool.size() || resp.checksum != ref.checksum[idx] ||
        resp.row_count != ref.rows[idx]) {
      if (wrong++ == 0) first_wrong = idx < pool.size() ? pool[idx] : "?";
      return;
    }
    ++ok;
  }
  void Merge(const Tally& o) {
    ok += o.ok;
    shed += o.shed;
    errors += o.errors;
    if (wrong == 0 && o.wrong) first_wrong = o.first_wrong;
    wrong += o.wrong;
  }
  uint64_t total() const { return ok + shed + errors + wrong; }
  void Fold(Report* rep, const char* phase) const {
    rep->AttemptMany(total(), shed + errors + wrong);
    if (wrong) {
      rep->Wrong(std::string(phase) + ": " + std::to_string(wrong) +
                 " responses differ from the reference, first: " + first_wrong);
    }
    if (errors) {
      rep->Wrong(std::string(phase) + ": " + std::to_string(errors) +
                 " error responses");
    }
  }
};

fgpm::net::QueryRequest MakeRequest(uint64_t seq, size_t idx,
                                    const std::vector<std::string>& pool) {
  fgpm::net::QueryRequest req;
  req.id = seq * kIdStride + idx;
  req.flags = fgpm::net::kFlagChecksumOnly;
  req.pattern = pool[idx];
  return req;
}

std::unique_ptr<fgpm::net::Client> Connect(uint16_t port) {
  auto c = fgpm::net::Client::Connect("127.0.0.1", port);
  FGPM_CHECK(c.ok());
  return std::move(*c);
}

// Which server worker accepted `client`: sends one request carrying a
// sampled trace context and reads the worker index off the root span of
// the trace the server records for it.
std::optional<uint32_t> AcceptingWorker(fgpm::net::Server* server,
                                        fgpm::net::Client* client,
                                        const std::string& pattern,
                                        uint64_t trace_id) {
  fgpm::net::QueryRequest req;
  req.flags = fgpm::net::kFlagChecksumOnly;
  req.pattern = pattern;
  req.has_trace = true;
  req.trace_id = trace_id;
  req.trace_sampled = true;
  auto resp = client->Query(req);
  if (!resp.ok() || !resp->ok()) return std::nullopt;
  for (const fgpm::QueryTrace& t : server->RecentTraces()) {
    if (t.trace_id() == trace_id && !t.spans().empty()) {
      return t.spans().front().tid;
    }
  }
  return std::nullopt;
}

// Connects until the server accepts on `worker` (bounded attempts; the
// last connection is kept either way and *placed says whether it landed).
std::unique_ptr<fgpm::net::Client> ConnectToWorker(
    fgpm::net::Server* server, uint32_t worker, const std::string& pattern,
    bool* placed) {
  static uint64_t next_trace_id = 0x5eed0000;
  std::unique_ptr<fgpm::net::Client> client;
  for (int attempt = 0; attempt < 64; ++attempt) {
    client = Connect(server->port());
    if (AcceptingWorker(server, client.get(), pattern, ++next_trace_id) ==
        worker) {
      *placed = true;
      return client;
    }
  }
  *placed = false;
  return client;
}

// Sends every pool pattern twice on one connection: fills the shards'
// plan caches and buffer pools before anything is timed.
Tally WarmUp(uint16_t port, const std::vector<std::string>& pool,
             const Reference& ref) {
  auto client = Connect(port);
  Tally tally;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < pool.size(); ++i) {
      auto resp = client->Query(MakeRequest(round, i, pool));
      FGPM_CHECK(resp.ok());
      tally.Check(*resp, ref, pool);
    }
  }
  return tally;
}

// Closed loop: each connection keeps kWindow requests outstanding until
// `seconds` have passed, then drains. Completions are grouped into
// kQpsWindowS windows: completed requests per second and each request's
// send-to-response latency.
struct ClosedLoopResult {
  std::vector<double> qps;                          // per window
  std::vector<std::vector<double>> latency_us;      // per window

  // Windows of the quieter half (higher throughput).
  std::vector<size_t> QuietWindows() const {
    std::vector<double> slowness;
    for (double q : qps) slowness.push_back(-q);
    return QuietHalf(slowness);
  }
};

ClosedLoopResult ClosedLoop(
    const std::vector<std::unique_ptr<fgpm::net::Client>>& clients,
    const std::vector<std::string>& pool, const Reference& ref, uint64_t seed,
    double seconds, Tally* tally) {
  const size_t conns = clients.size();
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kQpsWindowS));
  // [connection][window] latencies; merged after the threads join.
  std::vector<std::vector<std::vector<double>>> lat(
      conns, std::vector<std::vector<double>>(windows));
  std::vector<Tally> tallies(conns);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      fgpm::net::Client* client = clients[c].get();
      fgpm::Rng rng(seed * 7919 + c);
      fgpm::ZipfDistribution zipf(pool.size(), kTheta);
      std::vector<Clock::time_point> sent;  // indexed by sequence number
      auto send = [&] {
        const uint64_t seq = sent.size();
        sent.push_back(Clock::now());
        FGPM_CHECK(client->Send(MakeRequest(seq, zipf.Sample(&rng), pool)).ok());
      };
      for (size_t k = 0; k < kWindow; ++k) send();
      size_t outstanding = kWindow;
      fgpm::net::QueryResponse resp;
      while (outstanding > 0) {
        FGPM_CHECK(client->Recv(&resp).ok());
        const auto now = Clock::now();
        --outstanding;
        tallies[c].Check(resp, ref, pool);
        const size_t w = static_cast<size_t>(
            std::chrono::duration<double>(now - t0).count() / kQpsWindowS);
        if (w < windows) {
          lat[c][w].push_back(std::chrono::duration<double, std::micro>(
                                  now - sent[resp.id / kIdStride])
                                  .count());
          send();
          ++outstanding;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoopResult out;
  out.qps.resize(windows);
  out.latency_us.resize(windows);
  for (size_t w = 0; w < windows; ++w) {
    for (size_t c = 0; c < conns; ++c) {
      out.qps[w] += lat[c][w].size() / kQpsWindowS;
      out.latency_us[w].insert(out.latency_us[w].end(), lat[c][w].begin(),
                               lat[c][w].end());
    }
  }
  for (const Tally& t : tallies) tally->Merge(t);
  return out;
}

struct OpenLoopResult {
  std::vector<double> latency_us;  // completion - scheduled send time
  std::vector<double> lag_us;      // actual - scheduled send time
  // Latencies grouped by the kLatencyWindowS window of their due time.
  std::vector<std::vector<double>> window_latency_us;
  double seconds = 0;

  // Latencies of the quieter half of the windows (QuietHalf by window
  // median), pooled.
  std::vector<double> QuietLatencies() const {
    std::vector<double> p50;
    for (const auto& w : window_latency_us) p50.push_back(Median(w));
    std::vector<double> pooled;
    for (size_t i : QuietHalf(p50)) {
      pooled.insert(pooled.end(), window_latency_us[i].begin(),
                    window_latency_us[i].end());
    }
    return pooled;
  }
};

// Open loop on one connection: request k is due at t0 + k / kOpenRate
// whatever has completed; a receiver thread times each response from its
// request's due time.
OpenLoopResult OpenLoop(fgpm::net::Client* client,
                        const std::vector<std::string>& pool,
                        const Reference& ref, uint64_t seed, size_t total,
                        Tally* tally) {
  OpenLoopResult out;
  out.lag_us.reserve(total);
  out.latency_us.reserve(total);
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(total / (kOpenRate * kLatencyWindowS)));
  out.window_latency_us.resize(windows);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](uint64_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(k / kOpenRate));
  };
  Tally recv_tally;
  std::thread receiver([&] {
    fgpm::net::QueryResponse resp;
    for (size_t k = 0; k < total; ++k) {
      FGPM_CHECK(client->Recv(&resp).ok());
      recv_tally.Check(resp, ref, pool);
      if (resp.ok()) {
        const uint64_t k = resp.id / kIdStride;
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - due(k))
                .count();
        out.latency_us.push_back(us);
        const size_t w = static_cast<size_t>(k / (kOpenRate * kLatencyWindowS));
        if (w < windows) out.window_latency_us[w].push_back(us);
      }
    }
  });
  fgpm::Rng rng(seed * 104729 + 1);
  fgpm::ZipfDistribution zipf(pool.size(), kTheta);
  for (size_t k = 0; k < total; ++k) {
    // Sleep to shortly before the due time, then spin: a sleeping sender
    // wakes late on a contended host and would measure itself.
    const auto at = due(k);
    std::this_thread::sleep_until(at - std::chrono::microseconds(200));
    while (Clock::now() < at) {
    }
    out.lag_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - due(k)).count());
    FGPM_CHECK(client->Send(MakeRequest(k, zipf.Sample(&rng), pool)).ok());
  }
  receiver.join();
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  tally->Merge(recv_tally);
  return out;
}

// Registry state the server exports, for deltas over a phase.
struct ServerCounters {
  fgpm::obs::Histogram::Snapshot queue, latency;
  uint64_t requests = 0, rejected = 0, cross = 0, exec_us = 0;
  uint64_t plan_hits = 0, plan_misses = 0;

  static ServerCounters Now() {
    auto& r = fgpm::obs::MetricsRegistry::Default();
    ServerCounters c;
    c.queue = r.GetHistogram("fgpm_server_queue_us")->Snap();
    c.latency = r.GetHistogram("fgpm_server_latency_us")->Snap();
    c.requests = r.GetCounter("fgpm_server_requests_total")->Value();
    c.rejected = r.GetCounter("fgpm_server_rejected_total")->Value();
    c.cross = r.GetCounter("fgpm_server_cross_total")->Value();
    c.exec_us = r.GetCounter("fgpm_server_shard_exec_us_total")->Value();
    c.plan_hits = r.GetCounter("fgpm_plan_cache_hits_total")->Value();
    c.plan_misses = r.GetCounter("fgpm_plan_cache_misses_total")->Value();
    return c;
  }
};

fgpm::obs::Histogram::Snapshot Delta(const fgpm::obs::Histogram::Snapshot& a,
                                     const fgpm::obs::Histogram::Snapshot& b) {
  fgpm::obs::Histogram::Snapshot d;
  for (int i = 0; i < fgpm::obs::Histogram::kBuckets; ++i) {
    d.counts[i] = b.counts[i] - a.counts[i];
    d.count += d.counts[i];
  }
  d.sum = b.sum - a.sum;
  return d;
}

// GraphDatabase::Io() summed over the server's shards.
fgpm::IoSnapshot ShardIo(fgpm::ShardedMatcher* sm) {
  fgpm::IoSnapshot sum;
  for (uint32_t s = 0; s < kShards; ++s) {
    AddIo({}, sm->shard(s)->db().Io(), &sum);
  }
  return sum;
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / v.size();
}

}  // namespace

void RunServeZipf(const Options& o, Report* rep) {
  const uint32_t nodes = o.tiny ? 600 : 6000;
  const std::vector<std::string> pool = BuildPool();

  fgpm::net::ServerOptions so;
  so.num_shards = kShards;
  so.matcher.label_to_shard.resize(kLabels);
  for (uint32_t l = 0; l < kLabels; ++l) {
    so.matcher.label_to_shard[l] = (l / 4) % kShards;  // group placement
  }
  so.matcher.db.buffer_pool_bytes = kPoolBytesPerShard;
  so.matcher.exec.use_result_cache = false;

  // Set-up: graph generation + Server::Start, repeated so setup_s is a
  // median. The graph outlives the server (declared first).
  std::unique_ptr<fgpm::Graph> g;
  std::unique_ptr<fgpm::net::Server> server;
  std::vector<double> setup_s;
  const int setups = o.trace ? 1 : 15;
  for (int k = 0; k < setups; ++k) {
    server.reset();
    g.reset();
    const auto t0 = Clock::now();
    g = std::make_unique<fgpm::Graph>(
        Relabel(fgpm::gen::ScaleFree(nodes, 3, kLabels, 0xfeed), o.seed));
    auto s = fgpm::net::Server::Start(g.get(), so);
    setup_s.push_back(SecondsSince(t0));
    if (!s.ok()) {
      rep->Wrong("Server::Start: " + s.status().ToString());
      return;
    }
    server = std::move(*s);
  }
  std::fprintf(stderr, "serve_zipf: set-up %s\n", Summary(setup_s, "s").c_str());

  // References from a direct, unsharded matcher.
  Reference ref;
  {
    double build_s = 0;
    auto direct = BuildMatcher(*g, {}, {}, &build_s);
    FGPM_CHECK(direct != nullptr);
    for (const std::string& text : pool) {
      auto r = direct->Match(text);
      if (!r.ok()) {
        rep->Wrong("reference for " + text + ": " + r.status().ToString());
        return;
      }
      ref.checksum.push_back(fgpm::RowSetChecksum(r->rows));
      ref.rows.push_back(r->rows.size());
    }
  }

  fgpm::ShardedMatcher* sm = server->matcher();
  size_t db_pages = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    db_pages = std::max(db_pages,
                        sm->shard(s)->db().buffer_pool()->disk()->NumPages());
  }
  const size_t pool_pages = sm->shard(0)->db().buffer_pool()->num_frames();
  if (db_pages > pool_pages) rep->Wrong("a shard is larger than its pool");
  rep->Stamp("nodes", g->NumNodes());
  rep->Stamp("edges", static_cast<double>(g->NumEdges()));
  rep->Stamp("patterns", pool.size());
  rep->Stamp("zipf_theta", kTheta);
  rep->Stamp("shards", kShards);
  rep->Stamp("server_workers", server->num_workers());
  rep->Stamp("buffer_pool_bytes_per_shard", kPoolBytesPerShard);
  rep->Stamp("pool_pages", pool_pages);
  rep->Stamp("db_pages_max_shard", db_pages);
  rep->Stamp("code_cache_entries", so.matcher.db.code_cache_capacity);
  rep->Stamp("plan_cache", "on");
  rep->Stamp("result_cache", "off");
  rep->Stamp("closed_loop", std::to_string(kShards) + " connections x " +
                                std::to_string(kWindow) + " outstanding");
  rep->Stamp("open_loop_rate", kOpenRate);
  rep->Stamp("reference_engine", "direct unsharded GraphMatcher");

  WarmUp(server->port(), pool, ref).Fold(rep, "warm-up");
  std::vector<std::unique_ptr<fgpm::net::Client>> clients;
  bool placed = true;
  for (uint32_t w = 0; w < kShards; ++w) {
    bool ok = false;
    clients.push_back(ConnectToWorker(server.get(), w, pool[0], &ok));
    placed = placed && ok;
  }
  rep->Stamp("connections_placed", placed ? "one per worker" : "random");

  // Phases: 45% of the time closed loop, then the open loop's requests
  // for another 45% at the fixed rate.
  const double closed_s = 0.45 * o.seconds;
  const size_t open_total =
      std::max<size_t>(200, static_cast<size_t>(kOpenRate * 0.45 * o.seconds));
  const ServerCounters c0 = ServerCounters::Now();
  const fgpm::IoSnapshot io0 = ShardIo(sm);
  const SchedSnapshot s0 = SchedSnapshot::Now();
  const double cpu0 = ProcessCpuSeconds();
  const auto phase0 = Clock::now();

  Tally closed_tally;
  const ClosedLoopResult closed =
      ClosedLoop(clients, pool, ref, o.seed, closed_s, &closed_tally);
  const std::vector<double>& qps = closed.qps;
  closed_tally.Fold(rep, "closed loop");

  // The open loop is repeated (up to kOpenAttempts) while its sender
  // lags the schedule: a lagging generator measures the client.
  ServerCounters c1, c2;
  OpenLoopResult open;
  double lag_p99 = 0;
  int attempts = 0;
  do {
    ++attempts;
    c1 = ServerCounters::Now();
    Tally open_tally;
    open = OpenLoop(clients[0].get(), pool, ref, o.seed + attempts - 1,
                    open_total, &open_tally);
    open_tally.Fold(rep, "open loop");
    c2 = ServerCounters::Now();
    lag_p99 = Percentile(open.lag_us, 0.99);
    std::fprintf(stderr,
                 "serve_zipf: open loop %zu requests at %.0f/s (achieved "
                 "%.0f/s): latency %s, quiet half %s, sender lag p99 %.0f us\n",
                 open_total, kOpenRate, open_total / open.seconds,
                 Summary(open.latency_us, "us").c_str(),
                 Summary(open.QuietLatencies(), "us").c_str(), lag_p99);
  } while (lag_p99 > kMaxLagP99Us && attempts < kOpenAttempts);
  fgpm::IoSnapshot served_io;
  AddIo(io0, ShardIo(sm), &served_io);
  const SchedSnapshot s2 = SchedSnapshot::Now();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double phase_s = SecondsSince(phase0);

  rep->Stamp("gen_lag_p99_us", lag_p99);
  rep->Stamp("open_loop_attempts", attempts);
  rep->Stamp("closed_loop_windows", qps.size());
  rep->Stamp("open_loop_requests", open_total);
  std::fprintf(stderr, "serve_zipf: closed loop %s\n",
               Summary(qps, "/s").c_str());
  if (lag_p99 > kMaxLagP99Us) {
    rep->Invalid("open-loop sender lagged its schedule in " +
                 std::to_string(attempts) + " attempts: p99 " +
                 std::to_string(lag_p99) + " us");
  }

  if (!o.trace) {
    // Throughput comes from the quieter half of the closed loop's
    // windows (higher throughput); the tail (p95 at saturation, as for
    // the query suites) from all its windows and the p50 from all of the
    // open loop's requests, so stalls hitting some windows show. The open
    // loop's own p99 is not steady here: host preemption delays the
    // sender and receiver by milliseconds in some runs, so it is stamped,
    // not gated. Quieter-half latencies are stamped for diagnosis.
    std::vector<double> quiet_qps, saturated_us, quiet_saturated_us;
    for (size_t w : closed.QuietWindows()) {
      quiet_qps.push_back(qps[w]);
      quiet_saturated_us.insert(quiet_saturated_us.end(),
                                closed.latency_us[w].begin(),
                                closed.latency_us[w].end());
    }
    for (const auto& w : closed.latency_us) {
      saturated_us.insert(saturated_us.end(), w.begin(), w.end());
    }
    size_t beyond = 0;
    const double p95_us = TailPercentile(saturated_us, kTailPct, &beyond);
    rep->Set("setup_s", Median(setup_s));
    rep->Set("throughput_qps", Median(quiet_qps));
    rep->Set("latency_p50_ms", Median(open.latency_us) / 1e3);
    rep->Set("latency_tail_ms", p95_us / 1e3);
    rep->Stamp("serve_qps_all_windows", Median(qps));
    rep->Stamp("latency_p50", "open loop, all requests");
    rep->Stamp("latency_p50_samples", open.latency_us.size());
    rep->Stamp("latency_p50_ms_quiet_half", Median(open.QuietLatencies()) / 1e3);
    rep->Stamp("latency_tail", "p95 at saturation (closed loop, all windows)");
    rep->Stamp("latency_tail_samples", saturated_us.size());
    rep->Stamp("latency_tail_beyond", beyond);
    rep->Stamp("latency_tail_ms_quiet_half",
               Percentile(quiet_saturated_us, kTailPct / 100) / 1e3);
    rep->Stamp("saturation_p99_ms", Percentile(saturated_us, 0.99) / 1e3);
    rep->Stamp("open_loop_p99_ms", Percentile(open.latency_us, 0.99) / 1e3);
    return;
  }

  // Traced: server-side layers from the registry deltas over the open
  // loop, scheduler and CPU over both phases.
  const auto queue = Delta(c1.queue, c2.queue);
  const auto latency = Delta(c1.latency, c2.latency);
  const double requests = c2.requests - c1.requests;
  const double all_requests = std::max<double>(1, c2.requests - c0.requests);
  const double client_p50 = Median(open.latency_us);
  rep->Set("net.queue_p50_us", queue.Percentile(0.5));
  rep->Set("net.queue_p99_us", queue.Percentile(0.99));
  rep->Set("net.server_p50_us", latency.Percentile(0.5));
  rep->Set("net.wire_us", client_p50 - latency.Percentile(0.5));
  rep->Set("net.rejected", static_cast<double>(c2.rejected - c0.rejected));
  rep->Set("gen.lag_p99_us", lag_p99);
  rep->Set("shard.cross_frac", (c2.cross - c0.cross) / all_requests);
  const double plan_probes =
      (c2.plan_hits - c0.plan_hits) + (c2.plan_misses - c0.plan_misses);
  rep->Set("core.plan_cache_hit_frac",
           plan_probes > 0 ? (c2.plan_hits - c0.plan_hits) / plan_probes : 0);
  rep->Set("core.plan_cache_misses",
           static_cast<double>(c2.plan_misses - c0.plan_misses));
  // Attribution of the open loop's mean client latency: admission queue
  // and shard-local execution as the server reports them; the rest is
  // decode, routing, gather, encode, the socket and the client.
  const double queue_mean = queue.count ? double(queue.sum) / queue.count : 0;
  const double exec_mean = requests > 0 ? (c2.exec_us - c1.exec_us) / requests : 0;
  const double client_mean = Mean(open.latency_us);

  // Direct path: the same Zipf mix through a ShardedMatcher of the same
  // configuration on this thread — plain (net.engine_us) and with the
  // outside layer calls on single-shard requests (exec/opt).
  server->Stop();
  fgpm::ShardedMatcherOptions dmo = so.matcher;
  dmo.num_shards = kShards;
  auto direct = fgpm::ShardedMatcher::Create(g.get(), dmo);
  FGPM_CHECK(direct.ok());
  fgpm::ShardedMatcher& dm = **direct;
  std::vector<fgpm::Pattern> patterns;
  for (const std::string& text : pool) {
    auto p = fgpm::Pattern::Parse(text);
    FGPM_CHECK(p.ok());
    patterns.push_back(std::move(*p));
  }
  fgpm::Rng rng(o.seed * 15485863 + 7);
  fgpm::ZipfDistribution zipf(pool.size(), kTheta);
  std::vector<size_t> mix(2000);
  for (size_t& idx : mix) idx = zipf.Sample(&rng);
  for (size_t i = 0; i < pool.size(); ++i) (void)dm.Match(patterns[i]);  // warm

  std::vector<double> engine_us;
  fgpm::CrossShardStats cross;
  const double direct_budget = 0.1 * o.seconds;
  const auto d0 = Clock::now();
  double plain_ms = 0;
  for (size_t k = 0; k < mix.size() && (k < 100 || SecondsSince(d0) < direct_budget);
       ++k) {
    const size_t idx = mix[k];
    const auto q0 = Clock::now();
    auto r = dm.Match(patterns[idx], {}, &cross);
    const double us = SecondsSince(q0) * 1e6;
    engine_us.push_back(us);
    plain_ms += us / 1e3;
    rep->Attempt(r.ok() && fgpm::RowSetChecksum(r->rows) == ref.checksum[idx]);
  }
  const double direct_n = std::max<size_t>(1, engine_us.size());
  rep->Set("net.engine_us", Median(engine_us));
  rep->Set("shard.filters_shipped", cross.filters_shipped / direct_n);
  rep->Set("shard.probe_pairs", cross.probe_pairs / direct_n);

  LayerTotals lt;
  double traced_ms = 0;
  const auto t0 = Clock::now();
  for (size_t k = 0; k < engine_us.size(); ++k) {
    const size_t idx = mix[k];
    const auto q0 = Clock::now();
    auto home = dm.Route(patterns[idx]);
    if (home) {
      Case c;
      c.name = pool[idx];
      c.matcher = dm.shard(*home);
      c.pattern = patterns[idx];
      c.ref_checksum = ref.checksum[idx];
      c.ref_rows = ref.rows[idx];
      TraceQuery(c, &lt, rep, nullptr);
    } else {
      auto r = dm.Match(patterns[idx]);
      rep->Attempt(r.ok() && fgpm::RowSetChecksum(r->rows) == ref.checksum[idx]);
    }
    traced_ms += SecondsSince(q0) * 1e3;
  }
  lt.pass_wall_ms = SecondsSince(t0) * 1e3;
  SetLayerMetrics(lt, rep);
  rep->Set("trace.overhead_frac", plain_ms > 0 ? traced_ms / plain_ms - 1 : 0);
  // Buffer pools, code caches, scheduler, CPU and attribution describe
  // the served phases (read from the shards that served them), not the
  // direct replay SetLayerMetrics just summarized.
  SetIoMetrics(served_io, all_requests, rep);
  rep->Set("sched.busy_cores", (s2.busy_ns - s0.busy_ns) * 1e-9 / phase_s);
  rep->Set("sched.tasks", (s2.tasks - s0.tasks) / all_requests);
  rep->Set("sched.steals", (s2.steals - s0.steals) / all_requests);
  rep->Set("proc.cpu_cores", cpu_s / phase_s);
  rep->Set("attr.covered_frac",
           client_mean > 0 ? (queue_mean + exec_mean) / client_mean : 0);
  rep->Set("attr.unattributed_ms", (client_mean - queue_mean - exec_mean) / 1e3);

  double build_s = 0, cover_s = 0;
  BuildMatcher(*g, {}, {}, &build_s);
  const double cover = TimeCoverBuild(*g, &cover_s);
  rep->Set("gdb.build_s", build_s);
  rep->Set("reach.cover_build_s", cover_s);
  rep->Set("reach.cover_per_node", cover / g->NumNodes());
}

}  // namespace perfbench
