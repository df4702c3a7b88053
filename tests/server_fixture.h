// Shared helpers of the end-to-end server suites (net_test, obs2_test):
// a graph + server + direct-matcher fixture, a one-shot HTTP GET, and a
// hold that parks a 1-shard server's worker so a test can queue frames
// before any of them is read.
#ifndef FGPM_TESTS_SERVER_FIXTURE_H_
#define FGPM_TESTS_SERVER_FIXTURE_H_

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/scheduler.h"
#include "core/graph_matcher.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"

namespace fgpm {

// A scale-free graph served by a net::Server, plus a direct matcher over
// the same graph for row-identity checks.
struct ServerFixture {
  Graph g;
  std::unique_ptr<GraphMatcher> direct;
  std::unique_ptr<net::Server> server;

  explicit ServerFixture(net::ServerOptions opts, uint32_t num_labels = 8,
                         uint64_t seed = 23, uint32_t num_nodes = 300)
      : g(gen::ScaleFree(num_nodes, 3, num_labels, seed)) {
    auto d = GraphMatcher::Create(&g, {}, {});
    EXPECT_TRUE(d.ok()) << d.status();
    direct = std::move(*d);
    auto s = net::Server::Start(&g, opts);
    EXPECT_TRUE(s.ok()) << s.status();
    server = std::move(*s);
  }
  std::unique_ptr<net::Client> Connect() {
    auto c = net::Client::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(c.ok()) << c.status();
    return std::move(*c);
  }
};

// GETs `path` from the server's HTTP endpoint and returns the whole
// response (status line, headers and body).
inline std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_EQ(write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fd);
  return out;
}

// Parks a 1-shard server's worker thread until Release(). An idle
// server worker helps run queued scheduler morsels from its epoll loop.
// The hold queues one blocking morsel per thread that can run one —
// every internal scheduler thread, the helper threads that open the
// regions, and the server worker — so all of them have started only
// once the worker is parked in one. The internal threads' region is
// opened only when there are internal threads: earlier servers in the
// same process may have ensured the width with reserved externals and
// spawned none. Both regions stay within the width the scheduler
// already ensured, so no internal thread is spawned. While parked, the
// worker reads no socket and releases no request.
class ServerWorkerHold {
 public:
  ServerWorkerHold() {
    Scheduler& sched = Scheduler::Global();
    sched.EnsureWidth(2);
    const unsigned internal = sched.internal_workers();
    released_ = release_.get_future().share();
    unsigned total = 2;
    if (internal > 0) {
      Open(internal + 1);  // every internal thread plus this helper
      total += internal + 1;
    }
    Open(2);  // this helper plus the server worker
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started_.load(std::memory_order_relaxed) < total &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    held_ = started_.load(std::memory_order_relaxed) == total;
  }
  ~ServerWorkerHold() { Release(); }
  ServerWorkerHold(const ServerWorkerHold&) = delete;
  ServerWorkerHold& operator=(const ServerWorkerHold&) = delete;

  bool held() const { return held_; }
  void Release() {
    if (regions_.empty()) return;
    release_.set_value();
    for (std::thread& t : regions_) t.join();
    regions_.clear();
  }

 private:
  // Opens a region of `width` one-chunk morsels on a helper thread.
  void Open(unsigned width) {
    regions_.emplace_back([this, width] {
      Scheduler::Global().ParallelFor(
          width, 1,
          [this](unsigned, size_t, size_t, size_t) {
            started_.fetch_add(1, std::memory_order_relaxed);
            released_.wait();
          },
          width);
    });
  }

  std::promise<void> release_;
  std::shared_future<void> released_;
  std::atomic<unsigned> started_{0};
  bool held_ = false;
  std::vector<std::thread> regions_;
};

}  // namespace fgpm

#endif  // FGPM_TESTS_SERVER_FIXTURE_H_
