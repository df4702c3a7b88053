#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/scheduler.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/sched_metrics.h"
#include "storage/page.h"

namespace fgpm::net {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            since)
          .count());
}

uint64_t NowSteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// SplitMix64: worker index + local sequence -> well-spread trace id.
uint64_t MixTraceId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x != 0 ? x : 1;
}

struct ServerMetrics {
  obs::Gauge* connections;
  obs::Counter* requests;
  obs::Counter* ok;
  obs::Counter* errors;
  obs::Counter* rejected;
  obs::Counter* deadline_exceeded;
  obs::Counter* cross;
  obs::Counter* http;
  obs::Counter* rx_bytes;
  obs::Counter* tx_bytes;
  obs::Counter* rows;
  obs::Counter* trace_dropped;
  obs::Counter* slo_breach;
  obs::Counter* shard_exec_us;
  obs::Histogram* latency_us;
  obs::Histogram* queue_us;
  static ServerMetrics& Get() {
    static ServerMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      ServerMetrics m;
      m.connections =
          r.GetGauge("fgpm_server_connections", "Open client connections");
      m.requests =
          r.GetCounter("fgpm_server_requests_total", "Requests admitted");
      m.ok = r.GetCounter("fgpm_server_ok_total", "Successful responses");
      m.errors = r.GetCounter("fgpm_server_errors_total", "Error responses");
      m.rejected = r.GetCounter("fgpm_server_rejected_total",
                                "Requests rejected by admission control");
      m.deadline_exceeded =
          r.GetCounter("fgpm_server_deadline_exceeded_total",
                       "Requests expired before dispatch");
      m.cross = r.GetCounter("fgpm_server_cross_total",
                             "Requests coordinated across shards");
      m.http = r.GetCounter("fgpm_server_http_total", "HTTP requests served");
      m.rx_bytes = r.GetCounter("fgpm_server_rx_bytes_total", "Bytes read");
      m.tx_bytes = r.GetCounter("fgpm_server_tx_bytes_total", "Bytes written");
      m.rows = r.GetCounter("fgpm_server_rows_total", "Result rows returned");
      m.trace_dropped = r.GetCounter(
          "fgpm_trace_dropped_total",
          "Completed traces evicted from a full per-worker trace ring");
      m.slo_breach = r.GetCounter(
          "fgpm_slo_breach_total",
          "Windowed-p99 latency crossings of ServerOptions::slo_p99_ms");
      m.shard_exec_us = r.GetCounter(
          "fgpm_server_shard_exec_us_total",
          "Microseconds spent in shard-local Match calls (sum over shards)");
      m.latency_us = r.GetHistogram("fgpm_server_latency_us",
                                    "Admission-to-response latency (us)");
      m.queue_us = r.GetHistogram("fgpm_server_queue_us",
                                  "Admission-to-dispatch queue wait (us)");
      return m;
    }();
    return m;
  }
};

Result<int> CreateListener(const std::string& host, uint16_t port,
                           uint16_t* bound_port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    close(fd);
    return Status::Internal("SO_REUSEPORT unsupported");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad listen host: " + host);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (listen(fd, 512) != 0) {
    close(fd);
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

QueryResponse ErrorResponse(uint64_t id, const Status& s) {
  QueryResponse resp;
  resp.id = id;
  resp.code = s.code();
  resp.error = s.message();
  return resp;
}

QueryResponse OkResponse(const QueryRequest& req, MatchResult result) {
  QueryResponse resp;
  resp.id = req.id;
  // Echo the request flags minus the extensions bit: responses carry no
  // extension block, and a pre-extension client must not see the bit.
  resp.flags = req.flags & static_cast<uint8_t>(~kFlagHasExtensions);
  resp.columns = std::move(result.column_labels);
  resp.row_count = result.rows.size();
  if (req.checksum_only()) {
    resp.checksum = RowChecksum(result.rows);
  } else {
    resp.rows = std::move(result.rows);
  }
  return resp;
}

}  // namespace

// --- internal state ---------------------------------------------------------

struct Server::Conn {
  uint64_t id = 0;
  int fd = -1;
  enum class Mode { kUnknown, kBinary, kHttp } mode = Mode::kUnknown;
  FrameDecoder decoder;
  std::string sniff;     // bytes held until the mode is known / HTTP buf
  std::string outbuf;
  size_t out_off = 0;
  bool want_write = false;
  bool reads_paused = false;
  bool closing = false;  // flush outbuf, then close

  struct Pending {
    QueryRequest req;
    Clock::time_point arrival;
    std::unique_ptr<QueryTrace> trace;
    uint32_t root_span = 0;
    uint32_t queue_span = 0;
  };
  std::deque<Pending> pending;  // admitted, not yet dispatched
  size_t inflight = 0;          // dispatched, response not yet sent
  uint32_t deficit = 0;         // DRR state
  bool in_active = false;
};

struct Server::Worker {
  uint32_t index = 0;
  std::unique_ptr<EventLoop> loop;
  int listen_fd = -1;
  std::thread thread;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  std::deque<uint64_t> active;  // DRR round-robin of conns with pending
  size_t queued_total = 0;      // sum of conns' pending sizes (admission)
  size_t inflight = 0;          // dispatched requests not yet completed
  bool scheduling = false;      // reentrancy guard for Schedule()
  uint64_t next_conn_id = 1;    // worker-local; ids are (worker << 48) | n
  uint64_t admitted = 0;        // head-sampling counter (worker-local)
  uint64_t trace_id_seq = 0;    // NewTraceId input (worker-local)

  // Bounded ring of completed traces. Pushed only by this worker
  // (Complete runs on the origin), read by RecentTraces/HTTP from any
  // worker — hence the mutex; it is never held across user code.
  std::mutex trace_mu;
  std::deque<std::pair<uint64_t, QueryTrace>> traces;  // (seq, trace)
};

struct Server::InFlight {
  uint64_t conn_id = 0;
  uint32_t origin = 0;
  QueryRequest req;
  Clock::time_point arrival;
  uint64_t dispatch_ns = 0;  // scatter time; base of sub queue spans
  std::unique_ptr<QueryTrace> trace;
  uint32_t root_span = 0;
  uint32_t exec_span = 0;
  Pattern pattern;
  // Cross-shard state (owned and mutated by the origin worker only).
  bool cross = false;
  ShardedMatcher::CrossPlan plan;
  std::vector<MatchResult> subs;
  size_t remaining = 0;
  Status fail;
};

// --- lifecycle --------------------------------------------------------------

Result<std::unique_ptr<Server>> Server::Start(const Graph* g,
                                              ServerOptions options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  ShardedMatcherOptions mo = options.matcher;
  mo.num_shards = options.num_shards;
  // Every worker joins the process-wide work-stealing scheduler. The
  // workers are reserved as external participants *before* the matcher
  // builds its executors, so their ThreadPools spawn
  // max(0, width - 1 - num_shards) (usually zero) internal threads
  // instead of a private pool each —
  // one process-wide set of threads. Released in Stop().
  Scheduler::Global().ReserveExternal(options.num_shards);
  if (mo.exec.num_threads <= 1) {
    // Default per-query width to the worker count (a hot shard's query
    // fans morsels out to idle workers), capped at a quarter of the
    // shard's buffer-pool frames: each morsel pins pages while it runs,
    // and a width the pool cannot back turns hot-shard fan-out into
    // "all frames pinned" query failures. An explicit exec.num_threads
    // is taken as-is.
    size_t frames = std::max<size_t>(4, mo.db.buffer_pool_bytes / kPageSize);
    mo.exec.num_threads = static_cast<unsigned>(std::min<size_t>(
        options.num_shards, std::max<size_t>(1, frames / 4)));
  }
  auto matcher_or = ShardedMatcher::Create(g, mo);
  if (!matcher_or.ok()) {
    Scheduler::Global().ReleaseExternal(options.num_shards);
    return matcher_or.status();
  }
  auto server =
      std::unique_ptr<Server>(new Server(std::move(*matcher_or), options));

  uint16_t port = options.port;
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    FGPM_ASSIGN_OR_RETURN(w->loop, EventLoop::Create());
    // Worker 0 may bind an ephemeral port; the rest share it via
    // SO_REUSEPORT so the kernel spreads incoming connections.
    uint16_t bound = 0;
    FGPM_ASSIGN_OR_RETURN(w->listen_fd,
                          CreateListener(options.host, port, &bound));
    port = bound;
    server->workers_.push_back(std::move(w));
  }
  server->port_ = port;
  if (options.metrics_window_s > 0) {
    const uint64_t win_ns = 1'000'000'000ull * options.metrics_window_s;
    ServerMetrics::Get().latency_us->EnableWindow(win_ns);
    ServerMetrics::Get().queue_us->EnableWindow(win_ns);
  }
  if (options.profile_sample_us > 0) {
    obs::SchedProfiler::Options po;
    po.sample_interval_us = options.profile_sample_us;
    obs::SchedProfiler::Default().Start(po);
    server->profiler_started_ = true;
  }
  for (auto& w : server->workers_) {
    w->thread = std::thread([srv = server.get(), wp = w.get()] {
      srv->WorkerMain(wp);
    });
  }
  return server;
}

Server::Server(std::unique_ptr<ShardedMatcher> matcher, ServerOptions options)
    : options_(std::move(options)), matcher_(std::move(matcher)) {}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& w : workers_) w->loop->Stop();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  Scheduler::Global().ReleaseExternal(options_.num_shards);
  if (profiler_started_) {
    obs::SchedProfiler::Default().Stop();
    profiler_started_ = false;
  }
}

void Server::WorkerMain(Worker* w) {
  // The epoll loop helps execute queued scheduler morsels between I/O
  // events and is woken when new morsels are published.
  char tag[16];
  std::snprintf(tag, sizeof(tag), "srv%u", w->index);
  Scheduler::Global().AttachCurrentThread(tag);
  const int hook = Scheduler::Global().AddWakeHook(
      [loop = w->loop.get()] { loop->Wake(); });
  w->loop->SetIdleHelper(
      [] { return Scheduler::Global().TryHelp(); },
      [hook](bool armed) { Scheduler::Global().ArmWakeHook(hook, armed); });
  Status st = w->loop->Add(w->listen_fd, EPOLLIN, [this, w](uint32_t) {
    HandleListen(w);
  });
  if (st.ok()) w->loop->Run();
  // Loop exited: this thread still owns every socket — close them here.
  for (auto& [id, c] : w->conns) close(c->fd);
  w->conns.clear();
  close(w->listen_fd);
  Scheduler::Global().RemoveWakeHook(hook);
  Scheduler::Global().DetachCurrentThread();
}

std::vector<QueryTrace> Server::RecentTraces() {
  // Merge the per-worker rings on the global completion sequence so the
  // result is oldest-first regardless of which worker finished what.
  std::vector<std::pair<uint64_t, QueryTrace>> all;
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->trace_mu);
    for (const auto& [seq, t] : w->traces) all.emplace_back(seq, t);
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<QueryTrace> out;
  out.reserve(all.size());
  for (auto& [seq, t] : all) out.push_back(std::move(t));
  return out;
}

void Server::PushTrace(Worker* w, std::unique_ptr<QueryTrace> trace) {
  if (trace == nullptr) return;
  const uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  const size_t cap = std::max<size_t>(1, options_.trace_ring);
  std::lock_guard<std::mutex> lock(w->trace_mu);
  w->traces.emplace_back(seq, std::move(*trace));
  while (w->traces.size() > cap) {
    w->traces.pop_front();
    ServerMetrics::Get().trace_dropped->Increment();
    obs::RecordFlight(obs::FlightEvent::kTraceDropped, w->index);
  }
}

uint64_t Server::NewTraceId(Worker* w) {
  return MixTraceId((static_cast<uint64_t>(w->index) << 48) |
                    ++w->trace_id_seq);
}

// Throttled windowed-p99 watchdog, called from Complete after the
// latency observation. At most one windowed recompute per 250ms
// process-wide; on a breach, counts fgpm_slo_breach_total and freezes a
// flight-recorder dump for /debug/slo.
void Server::CheckSlo(uint64_t latency_us) {
  if (options_.slo_p99_ms == 0) return;
  const uint64_t slo_us = 1000ull * options_.slo_p99_ms;
  if (latency_us > slo_us) {
    obs::RecordFlight(obs::FlightEvent::kSlowQuery, latency_us);
  }
  obs::Histogram* h = ServerMetrics::Get().latency_us;
  if (!h->window_enabled()) return;
  const uint64_t now = NowSteadyNs();
  uint64_t last = slo_last_check_ns_.load(std::memory_order_relaxed);
  if (now - last < 250'000'000ull ||
      !slo_last_check_ns_.compare_exchange_strong(
          last, now, std::memory_order_relaxed)) {
    return;  // another completion holds this check interval
  }
  obs::Histogram::Snapshot win = h->WindowSnap();
  if (win.count == 0) return;
  const double p99 = win.Percentile(0.99);
  if (p99 <= static_cast<double>(slo_us)) return;
  ServerMetrics::Get().slo_breach->Increment();
  obs::RecordFlight(obs::FlightEvent::kSloBreach,
                    static_cast<uint64_t>(p99));
  std::string dump = obs::FlightRecorder::Default().DumpJson();
  std::lock_guard<std::mutex> lock(slo_mu_);
  slo_dump_ = std::move(dump);
}

// --- connection I/O ---------------------------------------------------------

Server::Conn* Server::FindConn(Worker* w, uint64_t conn_id) {
  auto it = w->conns.find(conn_id);
  return it == w->conns.end() ? nullptr : it->second.get();
}

void Server::HandleListen(Worker* w) {
  while (true) {
    int fd = accept4(w->listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error — epoll re-reports
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->id = (static_cast<uint64_t>(w->index) << 48) | w->next_conn_id++;
    conn->fd = fd;
    uint64_t id = conn->id;
    w->conns.emplace(id, std::move(conn));
    Status st = w->loop->Add(fd, EPOLLIN, [this, w, id](uint32_t events) {
      HandleConnIo(w, id, events);
    });
    if (!st.ok()) {
      close(fd);
      w->conns.erase(id);
      continue;
    }
    ServerMetrics::Get().connections->Add(1);
  }
}

void Server::HandleConnIo(Worker* w, uint64_t conn_id, uint32_t events) {
  Conn* c = FindConn(w, conn_id);
  if (c == nullptr) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseConn(w, conn_id);
    return;
  }
  if (events & EPOLLOUT) {
    TryWrite(w, c);
    if (FindConn(w, conn_id) == nullptr) return;  // TryWrite may close
  }
  if ((events & EPOLLIN) && !c->reads_paused && !c->closing) {
    char buf[65536];
    while (true) {
      ssize_t n = read(c->fd, buf, sizeof(buf));
      if (n > 0) {
        ServerMetrics::Get().rx_bytes->Increment(static_cast<uint64_t>(n));
        if (c->mode == Conn::Mode::kUnknown) {
          c->sniff.append(buf, static_cast<size_t>(n));
          if (c->sniff.size() < 4) continue;
          if (c->sniff.compare(0, 4, "GET ") == 0) {
            c->mode = Conn::Mode::kHttp;
          } else {
            c->mode = Conn::Mode::kBinary;
            c->decoder.Append(c->sniff);
            c->sniff.clear();
          }
        } else if (c->mode == Conn::Mode::kBinary) {
          c->decoder.Append({buf, static_cast<size_t>(n)});
        } else {
          c->sniff.append(buf, static_cast<size_t>(n));
        }
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or hard error: flush what we owe, then close.
      c->closing = true;
      break;
    }
    if (c->mode == Conn::Mode::kHttp) {
      HandleHttp(w, c);
    } else {
      ProcessDecoded(w, c);
    }
    c = FindConn(w, conn_id);
    if (c == nullptr) return;
    if (c->closing && c->outbuf.size() == c->out_off && c->inflight == 0 &&
        c->pending.empty()) {
      CloseConn(w, conn_id);
      return;
    }
  }
  Schedule(w);
}

void Server::HandleHttp(Worker* w, Conn* c) {
  size_t end = c->sniff.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (c->sniff.size() > 16384) c->closing = true;  // header flood
    return;
  }
  ServerMetrics::Get().http->Increment();
  size_t path_begin = 4;  // past "GET "
  size_t path_end = c->sniff.find(' ', path_begin);
  std::string path = path_end == std::string::npos
                         ? ""
                         : c->sniff.substr(path_begin, path_end - path_begin);
  std::string query;
  if (size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.resize(q);
  }
  std::string body;
  const char* status = "200 OK";
  const char* ctype = "text/plain; charset=utf-8";
  if (path == "/metrics") {
    obs::PublishSchedulerMetrics();
    body = obs::MetricsRegistry::Default().ToPrometheusText();
    ctype = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/healthz") {
    body = "ok\n";
  } else if (path == "/stats") {
    obs::PublishSchedulerMetrics();
    body = obs::MetricsRegistry::Default().ToJson();
    ctype = "application/json";
  } else if (path == "/debug/traces") {
    body = DebugTracesBody(query, &ctype);
    if (body.empty()) {
      status = "404 Not Found";
      body = "trace not found\n";
    }
  } else if (path == "/debug/profile") {
    body = obs::SchedProfiler::Default().FoldedStacks();
  } else if (path == "/debug/flightrecorder") {
    body = obs::FlightRecorder::Default().DumpJson();
    ctype = "application/json";
  } else if (path == "/debug/slo") {
    std::lock_guard<std::mutex> lock(slo_mu_);
    body = slo_dump_.empty() ? "[]\n" : slo_dump_;
    ctype = "application/json";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  c->outbuf += "HTTP/1.1 ";
  c->outbuf += status;
  c->outbuf += "\r\nContent-Type: ";
  c->outbuf += ctype;
  c->outbuf += "\r\nContent-Length: " + std::to_string(body.size());
  c->outbuf += "\r\nConnection: close\r\n\r\n";
  c->outbuf += body;
  c->closing = true;
  TryWrite(w, c);
}

// /debug/traces: no args -> JSON index of retained traces;
// "trace_id=<hex16>" -> that trace's Chrome JSON. Empty return = 404.
std::string Server::DebugTracesBody(const std::string& query,
                                    const char** ctype) {
  uint64_t want_id = 0;
  if (query.rfind("trace_id=", 0) == 0) {
    want_id = std::strtoull(query.c_str() + 9, nullptr, 16);
    if (want_id == 0) return "";
  }
  std::vector<QueryTrace> traces = RecentTraces();
  *ctype = "application/json";
  if (want_id != 0) {
    for (const QueryTrace& t : traces) {
      if (t.trace_id() == want_id) return t.ToChromeJson();
    }
    return "";
  }
  std::string body = "[";
  char buf[96];
  bool first = true;
  for (const QueryTrace& t : traces) {
    if (!first) body += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n{\"trace_id\": \"%016" PRIx64 "\", \"spans\": %zu}",
                  t.trace_id(), t.spans().size());
    body += buf;
  }
  body += "\n]\n";
  return body;
}

void Server::SendResponse(Worker* w, Conn* c, const QueryResponse& resp) {
  if (resp.ok()) {
    ServerMetrics::Get().ok->Increment();
    ServerMetrics::Get().rows->Increment(resp.row_count);
  } else {
    ServerMetrics::Get().errors->Increment();
  }
  EncodeQueryResponse(resp, &c->outbuf);
  TryWrite(w, c);
}

void Server::TryWrite(Worker* w, Conn* c) {
  while (c->out_off < c->outbuf.size()) {
    ssize_t n = write(c->fd, c->outbuf.data() + c->out_off,
                      c->outbuf.size() - c->out_off);
    if (n > 0) {
      ServerMetrics::Get().tx_bytes->Increment(static_cast<uint64_t>(n));
      c->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c->want_write) {
        c->want_write = true;
        uint32_t mask = EPOLLOUT;
        if (!c->reads_paused && !c->closing) mask |= EPOLLIN;
        (void)w->loop->Modify(c->fd, mask);
      }
      return;
    }
    CloseConn(w, c->id);  // broken pipe etc.
    return;
  }
  c->outbuf.clear();
  c->out_off = 0;
  if (c->want_write) {
    c->want_write = false;
    uint32_t mask = 0;
    if (!c->reads_paused && !c->closing) mask |= EPOLLIN;
    (void)w->loop->Modify(c->fd, mask);
  }
  if (c->closing && c->inflight == 0 && c->pending.empty()) {
    CloseConn(w, c->id);
  }
}

void Server::CloseConn(Worker* w, uint64_t conn_id) {
  auto it = w->conns.find(conn_id);
  if (it == w->conns.end()) return;
  Conn* c = it->second.get();
  w->queued_total -= c->pending.size();
  w->loop->Remove(c->fd);
  close(c->fd);
  // A stale id may linger in w->active; Schedule skips missing conns.
  w->conns.erase(it);
  ServerMetrics::Get().connections->Add(-1);
}

// --- admission + scheduling -------------------------------------------------

void Server::ProcessDecoded(Worker* w, Conn* c) {
  const uint64_t cid = c->id;
  // SendResponse can close the connection (dead socket mid-write), so
  // every error reply re-resolves the pointer before continuing.
  auto reply = [&](const QueryResponse& resp) {
    SendResponse(w, c, resp);
    c = FindConn(w, cid);
    return c != nullptr;
  };
  std::string payload;
  while (c->pending.size() < options_.max_conn_queue) {
    Result<bool> has = c->decoder.Next(&payload);
    if (!has.ok()) {
      // Unsynchronizable stream (oversized frame): one last framed
      // error, then close — never an assert.
      if (reply(ErrorResponse(0, has.status()))) c->closing = true;
      return;
    }
    if (!*has) break;
    QueryRequest req;
    Status st = DecodeQueryRequest(payload, &req);
    if (!st.ok()) {
      // Malformed payload inside a well-framed message: the stream is
      // still in sync. Answer with the id when it was readable.
      uint64_t id = 0;
      if (payload.size() >= 8) std::memcpy(&id, payload.data(), 8);
      if (!reply(ErrorResponse(id, st))) return;
      continue;
    }
    if (req.engine > static_cast<uint8_t>(Engine::kCanonical)) {
      if (!reply(ErrorResponse(req.id,
                               Status::InvalidArgument(
                                   "engine must be kDps, kDp or "
                                   "kCanonical")))) {
        return;
      }
      continue;
    }
    if (w->queued_total >= options_.max_queue) {
      ServerMetrics::Get().rejected->Increment();
      obs::RecordFlight(obs::FlightEvent::kAdmissionShed, w->queued_total);
      if (!reply(ErrorResponse(req.id, Status::ResourceExhausted(
                                           "admission queue full")))) {
        return;
      }
      continue;
    }
    ServerMetrics::Get().requests->Increment();
    Conn::Pending p;
    p.req = std::move(req);
    p.arrival = Clock::now();
    // Head-based sampling: trace everything when trace_requests, honor
    // a client context marked sampled, else every trace_sample_n-th
    // admitted request on this worker.
    ++w->admitted;
    bool sample = options_.trace_requests ||
                  (p.req.has_trace && p.req.trace_sampled) ||
                  (options_.trace_sample_n > 0 &&
                   w->admitted % options_.trace_sample_n == 0);
    if (sample) {
      p.trace = std::make_unique<QueryTrace>();
      p.trace->set_trace_id(p.req.has_trace && p.req.trace_id != 0
                                ? p.req.trace_id
                                : NewTraceId(w));
      p.root_span = p.trace->BeginSpan(p.req.pattern, "server");
      p.trace->SetSpanTid(p.root_span, w->index);
      if (p.req.has_trace && p.req.parent_span != 0) {
        p.trace->AddArg(p.root_span, "client_parent_span", p.req.parent_span);
      }
      p.queue_span = p.trace->BeginSpan("queue", "server",
                                        static_cast<int32_t>(p.root_span));
      p.trace->SetSpanTid(p.queue_span, w->index);
    }
    c->pending.push_back(std::move(p));
    ++w->queued_total;
    if (!c->in_active) {
      c->in_active = true;
      w->active.push_back(c->id);
    }
  }
  if (c->pending.size() >= options_.max_conn_queue && !c->reads_paused) {
    c->reads_paused = true;
    obs::RecordFlight(obs::FlightEvent::kBackpressurePause, c->id);
    (void)w->loop->Modify(c->fd, c->want_write ? EPOLLOUT : 0u);
  }
}

void Server::Schedule(Worker* w) {
  // Dispatch can complete a request synchronously (a cross-shard plan
  // with no shard-local subs finishes on this stack), and Complete
  // calls Schedule — a nested run would double-pop the active ring.
  if (w->scheduling) return;
  w->scheduling = true;
  while (w->inflight < options_.dispatch_window && !w->active.empty()) {
    uint64_t cid = w->active.front();
    Conn* c = FindConn(w, cid);
    if (c == nullptr || c->pending.empty()) {
      w->active.pop_front();
      if (c != nullptr) {
        c->in_active = false;
        c->deficit = 0;
      }
      continue;
    }
    c->deficit += options_.drr_quantum;
    while (c->deficit > 0 && !c->pending.empty() &&
           w->inflight < options_.dispatch_window) {
      Dispatch(w, c);
      --c->deficit;
      // Dispatch can close the connection on a dead socket.
      c = FindConn(w, cid);
      if (c == nullptr) break;
    }
    w->active.pop_front();
    if (c == nullptr) continue;
    if (c->pending.empty()) {
      c->in_active = false;
      c->deficit = 0;
    } else {
      w->active.push_back(cid);  // round-robin: tail of the ring
    }
  }
  w->scheduling = false;
}

void Server::Dispatch(Worker* w, Conn* c) {
  Conn::Pending p = std::move(c->pending.front());
  c->pending.pop_front();
  --w->queued_total;
  ServerMetrics::Get().queue_us->ObserveWithExemplar(
      ElapsedUs(p.arrival), p.trace != nullptr ? p.trace->trace_id() : 0);
  if (p.trace != nullptr) p.trace->EndSpan(p.queue_span);

  auto finish_early = [&](const Status& st) {
    if (p.trace != nullptr) {
      p.trace->AddArg(p.root_span, "error", 1);
      p.trace->EndSpan(p.root_span);
      PushTrace(w, std::move(p.trace));
    }
    SendResponse(w, c, ErrorResponse(p.req.id, st));
  };

  uint32_t deadline_ms =
      p.req.deadline_ms != 0 ? p.req.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms != 0 && ElapsedUs(p.arrival) > 1000ull * deadline_ms) {
    ServerMetrics::Get().deadline_exceeded->Increment();
    obs::RecordFlight(obs::FlightEvent::kDeadlineDrop, p.req.id);
    finish_early(Status::DeadlineExceeded("deadline expired in queue"));
    return;
  }

  Result<Pattern> parsed = Pattern::Parse(p.req.pattern);
  if (!parsed.ok()) {
    finish_early(parsed.status());
    return;
  }
  auto fl = std::make_shared<InFlight>();
  fl->conn_id = c->id;
  fl->origin = w->index;
  fl->req = std::move(p.req);
  fl->arrival = p.arrival;
  fl->trace = std::move(p.trace);
  fl->root_span = p.root_span;
  fl->pattern = (fl->req.flags & kFlagTransitiveReduction)
                    ? parsed->TransitiveReduction()
                    : std::move(*parsed);
  fl->dispatch_ns = NowSteadyNs();
  if (fl->trace != nullptr) {
    fl->exec_span = fl->trace->BeginSpan("exec", "server",
                                         static_cast<int32_t>(fl->root_span));
    fl->trace->SetSpanTid(fl->exec_span, w->index);
  }

  std::optional<uint32_t> home = matcher_->Route(fl->pattern);
  if (home.has_value()) {
    ++w->inflight;
    ++c->inflight;
    if (fl->trace != nullptr) {
      fl->trace->AddArg(fl->exec_span, "shard", *home);
    }
    uint32_t s = *home;
    workers_[s]->loop->Post([this, s, fl] { ExecuteSub(s, fl, -1); });
    return;
  }

  // Cross-shard: scatter shard-local sub-patterns, gather + join here.
  ServerMetrics::Get().cross->Increment();
  Result<ShardedMatcher::CrossPlan> plan = matcher_->PlanCross(fl->pattern);
  if (!plan.ok()) {
    p.trace = std::move(fl->trace);
    finish_early(plan.status());
    return;
  }
  fl->cross = true;
  fl->plan = std::move(*plan);
  fl->subs.resize(fl->plan.subs.size());
  fl->remaining = fl->plan.subs.size();
  ++w->inflight;
  ++c->inflight;
  if (fl->trace != nullptr) {
    fl->trace->AddArg(fl->exec_span, "cross_subs", fl->remaining);
  }
  if (fl->remaining == 0) {
    // Every pattern edge crosses shards; JoinCross seeds from a cross
    // edge directly.
    FinishCross(w, fl);
    return;
  }
  for (size_t k = 0; k < fl->plan.subs.size(); ++k) {
    uint32_t s = fl->plan.subs[k].shard;
    int ki = static_cast<int>(k);
    workers_[s]->loop->Post([this, s, fl, ki] { ExecuteSub(s, fl, ki); });
  }
}

// Runs on the shard's worker thread — the only thread that may touch
// matcher_->shard(shard). When the request is traced, builds a child
// QueryTrace against the origin trace's epoch (same process, same
// steady clock) with the shard's queue + exec sub-spans; the origin
// worker stitches it under the request's exec span. fl->trace itself is
// never touched here — only its immutable epoch/trace_id are read.
void Server::ExecuteSub(uint32_t shard, std::shared_ptr<InFlight> fl,
                        int sub_index) {
  MatchOptions mo;
  mo.engine = static_cast<Engine>(fl->req.engine);
  const Pattern& p =
      sub_index < 0 ? fl->pattern : fl->plan.subs[sub_index].pattern;
  std::shared_ptr<QueryTrace> child;
  const uint64_t t0 = NowSteadyNs();
  if (fl->trace != nullptr) {
    const uint64_t epoch = fl->trace->epoch_steady_ns();
    child = std::make_shared<QueryTrace>(epoch);
    char name[32];
    std::snprintf(name, sizeof(name), "queue:shard%u", shard);
    uint32_t qs = child->AddCompleteSpan(
        name, "shard", -1,
        static_cast<double>(fl->dispatch_ns - epoch) * 1e-3,
        static_cast<double>(t0 - fl->dispatch_ns) * 1e-3, 0);
    child->SetSpanTid(qs, shard);
  }
  auto result = std::make_shared<Result<MatchResult>>(
      matcher_->shard(shard)->Match(p, mo));
  const uint64_t t1 = NowSteadyNs();
  ServerMetrics::Get().shard_exec_us->Increment((t1 - t0) / 1000);
  if (child != nullptr) {
    const uint64_t epoch = fl->trace->epoch_steady_ns();
    char name[32];
    std::snprintf(name, sizeof(name), "exec:shard%u", shard);
    uint32_t es = child->AddCompleteSpan(
        name, "shard", -1, static_cast<double>(t0 - epoch) * 1e-3,
        static_cast<double>(t1 - t0) * 1e-3, 0);
    child->SetSpanTid(es, shard);
  }
  Worker* origin = workers_[fl->origin].get();
  if (sub_index < 0) {
    origin->loop->Post([this, origin, fl, result, child] {
      if (child != nullptr) {
        fl->trace->Stitch(*child, static_cast<int32_t>(fl->exec_span));
      }
      QueryResponse resp = result->ok()
                               ? OkResponse(fl->req, std::move(**result))
                               : ErrorResponse(fl->req.id, result->status());
      Complete(origin, fl, std::move(resp));
    });
    return;
  }
  int ki = sub_index;
  origin->loop->Post([this, origin, fl, result, ki, child] {
    if (child != nullptr) {
      fl->trace->Stitch(*child, static_cast<int32_t>(fl->exec_span));
    }
    if (result->ok()) {
      fl->subs[ki] = std::move(**result);
    } else if (fl->fail.ok()) {
      fl->fail = result->status();
    }
    if (--fl->remaining == 0) FinishCross(origin, fl);
  });
}

void Server::FinishCross(Worker* w, std::shared_ptr<InFlight> fl) {
  QueryResponse resp;
  if (!fl->fail.ok()) {
    resp = ErrorResponse(fl->req.id, fl->fail);
  } else {
    uint32_t gather_span = 0;
    if (fl->trace != nullptr) {
      gather_span = fl->trace->BeginSpan(
          "gather", "server", static_cast<int32_t>(fl->exec_span));
      fl->trace->SetSpanTid(gather_span, w->index);
    }
    CrossShardStats stats;
    Result<MatchResult> joined = matcher_->JoinCross(
        fl->pattern, fl->plan, std::move(fl->subs), &stats);
    if (fl->trace != nullptr) fl->trace->EndSpan(gather_span);
    if (joined.ok()) {
      if (fl->trace != nullptr) {
        fl->trace->AddArg(fl->exec_span, "filters_shipped",
                          stats.filters_shipped);
        fl->trace->AddArg(fl->exec_span, "probe_pairs", stats.probe_pairs);
      }
      resp = OkResponse(fl->req, std::move(*joined));
    } else {
      resp = ErrorResponse(fl->req.id, joined.status());
    }
  }
  Complete(w, fl, std::move(resp));
}

// Runs on the origin worker.
void Server::Complete(Worker* w, std::shared_ptr<InFlight> fl,
                      QueryResponse resp) {
  --w->inflight;
  const uint64_t latency = ElapsedUs(fl->arrival);
  ServerMetrics::Get().latency_us->ObserveWithExemplar(
      latency, fl->trace != nullptr ? fl->trace->trace_id() : 0);
  if (fl->trace != nullptr) {
    fl->trace->EndSpan(fl->exec_span);
    fl->trace->AddArg(fl->root_span, "rows", resp.row_count);
    fl->trace->EndSpan(fl->root_span);
    PushTrace(w, std::move(fl->trace));
  }
  CheckSlo(latency);
  Conn* c = FindConn(w, fl->conn_id);
  if (c != nullptr) {
    --c->inflight;
    SendResponse(w, c, resp);
    c = FindConn(w, fl->conn_id);  // SendResponse may close on EPIPE
    if (c != nullptr && c->reads_paused &&
        c->pending.size() <= options_.max_conn_queue / 2 && !c->closing) {
      c->reads_paused = false;
      obs::RecordFlight(obs::FlightEvent::kBackpressureResume, c->id);
      (void)w->loop->Modify(c->fd, c->want_write ? (EPOLLIN | EPOLLOUT)
                                                 : EPOLLIN);
      ProcessDecoded(w, c);  // frames buffered while paused
    }
  }
  Schedule(w);
}

}  // namespace fgpm::net
