// Async query server: thread-per-core workers over a sharded
// GraphDatabase (src/shard). Worker w owns shard w's matcher plus one
// SO_REUSEPORT listener and one epoll loop; a connection is accepted by
// exactly one worker and all of its socket I/O stays there. Requests
// are admitted into bounded per-connection queues and released by a
// deficit-round-robin scheduler (a greedy pipelining client cannot
// starve others sharing its worker); released requests are deadline-
// checked, routed (ShardedMatcher::Route), and shipped to the owning
// worker's task queue — cross-shard queries scatter shard-local
// sub-patterns to their owners and gather + join on the origin worker.
//
// The same loops speak enough HTTP for observability: a connection
// whose first bytes are "GET " is served /metrics (Prometheus text of
// the default registry, including the fgpm_server_* family), /healthz,
// or /stats (registry JSON), then closed.
//
// Overload behavior: when a worker's admitted total hits max_queue the
// request is answered immediately with ResourceExhausted (framed error,
// connection stays usable). When one connection's queue hits
// max_conn_queue the server stops reading from it (EPOLLIN disarmed)
// until half drained — TCP backpressure, no unbounded buffering.
#ifndef FGPM_NET_SERVER_H_
#define FGPM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "shard/sharded_matcher.h"

namespace fgpm::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; read back via Server::port()
  uint32_t num_shards = 1;  // == number of worker threads
  // Shard placement + per-shard database/exec options (num_shards in
  // here is overridden by the field above).
  ShardedMatcherOptions matcher;
  // Admission bound per worker (requests sitting in connection queues).
  size_t max_queue = 4096;
  // Per-connection queue bound; reaching it pauses reads (backpressure).
  size_t max_conn_queue = 1024;
  // Dispatch window per worker: requests released (executing or queued
  // at their target shard) at once. Small values sharpen fairness;
  // larger values keep more shards busy from one origin worker.
  size_t dispatch_window = 4;
  // Applied when a request carries deadline_ms == 0. 0 = none.
  uint32_t default_deadline_ms = 0;
  // Record a QueryTrace per request (spans: queue, exec, per-shard
  // sub-spans, gather) into per-worker rings readable via
  // RecentTraces() / GET /debug/traces.
  bool trace_requests = false;
  // Head-based sampling: trace every Nth admitted request per worker
  // even when trace_requests is false. A request whose wire trace
  // context says sampled is always traced. 0 = no sampling.
  uint32_t trace_sample_n = 0;
  // Per-worker completed-trace ring capacity; the oldest trace is
  // dropped (counted in fgpm_trace_dropped_total) when full.
  size_t trace_ring = 64;
  // Sliding window (seconds) for fgpm_server_latency_us /
  // fgpm_server_queue_us windowed percentiles + exemplars. 0 disables.
  uint32_t metrics_window_s = 30;
  // Windowed-p99 SLO (ms). When > 0 and the windowed p99 crosses it,
  // fgpm_slo_breach_total increments and the flight recorder is dumped
  // to /debug/slo; per-query latencies above it record kSlowQuery
  // flight events. 0 disables.
  uint32_t slo_p99_ms = 0;
  // When > 0, starts the scheduler sampling profiler (SchedProfiler)
  // with this sampling period; folded stacks at /debug/profile.
  uint64_t profile_sample_us = 0;
};

class Server {
 public:
  // Builds the sharded matcher (one shard per worker), binds
  // num_shards SO_REUSEPORT listeners and starts the worker threads.
  // The graph must outlive the server.
  static Result<std::unique_ptr<Server>> Start(const Graph* g,
                                               ServerOptions options = {});
  ~Server();  // Stop()

  // Idempotent; joins all workers.
  void Stop();

  uint16_t port() const { return port_; }
  uint32_t num_workers() const { return static_cast<uint32_t>(workers_.size()); }
  ShardedMatcher* matcher() { return matcher_.get(); }

  // Most recent completed request traces across all workers, oldest
  // first (empty unless tracing/sampling is on). Each worker keeps a
  // bounded ring of options.trace_ring traces; completions beyond that
  // drop the oldest and count fgpm_trace_dropped_total.
  std::vector<QueryTrace> RecentTraces();

 private:
  struct Conn;
  struct Worker;
  struct InFlight;

  Server(std::unique_ptr<ShardedMatcher> matcher, ServerOptions options);

  void WorkerMain(Worker* w);
  void HandleListen(Worker* w);
  void HandleConnIo(Worker* w, uint64_t conn_id, uint32_t events);
  void ProcessDecoded(Worker* w, Conn* c);
  void HandleHttp(Worker* w, Conn* c);
  void Schedule(Worker* w);
  void Dispatch(Worker* w, Conn* c);
  // Runs on the owning shard's worker; sub_index -1 = the full pattern.
  void ExecuteSub(uint32_t shard, std::shared_ptr<InFlight> fl,
                  int sub_index);
  void FinishCross(Worker* w, std::shared_ptr<InFlight> fl);
  void Complete(Worker* w, std::shared_ptr<InFlight> fl, QueryResponse resp);
  void SendResponse(Worker* w, Conn* c, const QueryResponse& resp);
  void TryWrite(Worker* w, Conn* c);
  void CloseConn(Worker* w, uint64_t conn_id);
  Conn* FindConn(Worker* w, uint64_t conn_id);
  void PushTrace(Worker* w, std::unique_ptr<QueryTrace> trace);
  uint64_t NewTraceId(Worker* w);
  void CheckSlo(uint64_t latency_us);
  std::string DebugTracesBody(const std::string& query, const char** ctype);

  ServerOptions options_;
  std::unique_ptr<ShardedMatcher> matcher_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool stopped_ = false;
  bool profiler_started_ = false;

  // Global completion order for merging per-worker trace rings.
  std::atomic<uint64_t> trace_seq_{0};

  // SLO watchdog (Complete on any worker): throttled windowed-p99
  // check + last breach's flight-recorder dump for /debug/slo.
  std::atomic<uint64_t> slo_last_check_ns_{0};
  std::mutex slo_mu_;
  std::string slo_dump_;  // guarded by slo_mu_
};

}  // namespace fgpm::net

#endif  // FGPM_NET_SERVER_H_
