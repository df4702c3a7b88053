// Process-wide work-stealing morsel scheduler.
//
// One Scheduler serves every parallel region in the process: executor
// ParallelFor fan-outs, 2-hop builds and the query server's intra-query
// work all share a single set of workers instead of one fork-join pool
// per executor. Work is decomposed into *morsels* — contiguous runs of
// the caller's deterministic chunks — held in per-worker bounded
// Chase-Lev deques (LIFO owner pop for cache locality, FIFO steal for
// load balancing).
//
// Three properties distinguish it from a chunked fork-join pool:
//
//   * Work stealing. An idle participant steals the oldest morsel of
//     a random victim, so a skewed region (or a skewed mix of
//     concurrent regions — the server's hot-shard case) load-balances
//     without a shared cursor.
//   * Nested / reentrant regions. A ParallelFor body may itself call
//     ParallelFor: the outer worker simply opens a child region and
//     participates in it. While blocked on any region a participant
//     keeps executing morsels — its own region's first, then stolen
//     ones — so no thread ever idles while work exists.
//   * Adaptive morsel sizing. A region starts as at most `width`
//     coarse morsels (near-zero scheduling overhead when nobody is
//     idle); whenever some participant is starving — failing to find
//     work, or armed to be woken for it — running morsels split off
//     the back half of their remaining chunk range down to a floor of
//     kMorselRows (1024) rows.
//
// Determinism: the scheduler never changes the chunk decomposition.
// Every chunk of [0, n) is executed exactly once and the body receives
// the same (chunk, begin, end) triple it would get sequentially;
// morsels only group chunks for scheduling. The `worker` id passed to
// the body is a region-local participant slot in [0, width) — at most
// `width` slots are ever concurrently active per region, so per-worker
// scratch sized to the owning pool stays valid even though morsels may
// physically run on any thread in the process.
//
// External participation (the query server): any thread may call
// TryHelp() to run one queued morsel, HasWork() for a cheap emptiness
// probe, and Add/ArmWakeHook() to get woken (e.g. an eventfd write
// into an epoll loop) when work is published while it blocks. Armed
// hooks count as starving, so a long-running morsel splits for a
// server worker that is parked in epoll_wait.
#ifndef FGPM_COMMON_SCHEDULER_H_
#define FGPM_COMMON_SCHEDULER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace fgpm {

struct SchedRegion;  // internal (scheduler.cc); one ParallelFor call

// Bounded single-owner work-stealing deque (Chase-Lev). The owning
// thread pushes and pops at the bottom (LIFO); any thread steals from
// the top (FIFO). Bounded: Push returns false when full and the caller
// keeps the task (runs it inline) — no growth, no reclamation problem.
// Memory ordering follows Le et al., "Correct and Efficient
// Work-Stealing for Weak Memory Models", with the standalone fences
// replaced by seq_cst accesses on top_/bottom_ (ThreadSanitizer does
// not model standalone fences).
class TaskDeque {
 public:
  static constexpr size_t kCapacity = 1024;

  // Owner only. False when full.
  bool Push(void* task) {
    uint64_t b = bottom_.load(std::memory_order_relaxed);
    uint64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= kCapacity) return false;
    buf_[b & kMask].store(task, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  // Owner only. Null when empty.
  void* Pop() {
    uint64_t b = bottom_.load(std::memory_order_relaxed);
    if (b == top_.load(std::memory_order_relaxed)) return nullptr;  // fast out
    --b;
    bottom_.store(b, std::memory_order_seq_cst);
    uint64_t t = top_.load(std::memory_order_seq_cst);
    void* task = nullptr;
    if (t <= b) {
      task = buf_[b & kMask].load(std::memory_order_relaxed);
      if (t == b) {
        // Last element: race against thieves via the top CAS.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          task = nullptr;  // a thief won
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return task;
  }

  // Any thread. Null when empty or a race was lost.
  void* Steal() {
    uint64_t t = top_.load(std::memory_order_seq_cst);
    uint64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    void* task = buf_[t & kMask].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return task;
  }

  bool Empty() const {
    return bottom_.load(std::memory_order_relaxed) <=
           top_.load(std::memory_order_relaxed);
  }

  // Racy depth estimate for profiler sampling (any thread).
  size_t SizeApprox() const {
    uint64_t b = bottom_.load(std::memory_order_relaxed);
    uint64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<size_t>(b - t) : 0;
  }

 private:
  static constexpr size_t kMask = kCapacity - 1;
  static_assert((kCapacity & kMask) == 0, "capacity must be a power of two");

  alignas(64) std::atomic<uint64_t> top_{0};
  alignas(64) std::atomic<uint64_t> bottom_{0};
  std::array<std::atomic<void*>, kCapacity> buf_{};
};

class Scheduler {
 public:
  // body(worker, chunk, begin, end) — see ThreadPool::Body.
  using Body = std::function<void(unsigned worker, size_t chunk, size_t begin,
                                  size_t end)>;

  // Per-thread scheduler state (defined in scheduler.cc; public only so
  // the thread-local participant pointer can name it).
  struct Worker;

  // The process-wide scheduler (constructed on first use, destroyed at
  // process exit after joining its internal workers).
  static Scheduler& Global();

  // Makes sure enough participants exist for a region of `width`
  // concurrent workers: spawns internal worker threads so that
  // internal + reserved-external >= width - 1 helpers are available
  // (the caller is the width-th participant). Idempotent, monotonic.
  void EnsureWidth(unsigned width);

  // Declares that `n` external threads (e.g. server workers) will
  // participate via TryHelp/ParallelFor, so EnsureWidth spawns that
  // many fewer internal threads — the unification that removes the
  // server's executor-inside-server oversubscription.
  void ReserveExternal(unsigned n);
  void ReleaseExternal(unsigned n);

  // Runs `body` over every chunk of [0, n), at most `width` concurrent
  // participants, blocking until all chunks are done. Reentrant: may be
  // called from inside another region's body. Callers normally go
  // through ThreadPool::ParallelFor, which handles the inline cases
  // (width 1, single chunk) without touching the scheduler.
  void ParallelFor(size_t n, size_t chunk_size, const Body& body,
                   unsigned width);

  // Runs at most one queued morsel on the calling thread. Returns true
  // if it made progress. Attaches the thread on first use.
  bool TryHelp();

  // Cheap probe: any morsels queued anywhere?
  bool HasWork() const {
    return queued_.load(std::memory_order_relaxed) > 0;
  }

  // Registers/arms an external wake hook. An *armed* hook is invoked
  // (once, then disarmed) when work is published; while armed it counts
  // as a starving participant so running morsels split for it. Arm(id,
  // true) just before blocking outside the scheduler (epoll), Arm(id,
  // false) when back. Remove disarms and drops the hook.
  int AddWakeHook(std::function<void()> hook);
  void ArmWakeHook(int id, bool armed);
  void RemoveWakeHook(int id);

  // Attaches the calling thread explicitly (TryHelp/ParallelFor attach
  // lazily with a null tag). `tag` labels the worker in Stats() — the
  // server tags its workers "srv<k>" so benches can attribute busy time
  // to shards. Returns the worker index.
  unsigned AttachCurrentThread(const char* tag);

  // Drains the calling thread's deque (executing any stranded morsels)
  // and releases its worker slot for reuse. Called by server workers on
  // shutdown; ordinary threads may simply exit — their slot is
  // reclaimed by the thread-exit hook.
  void DetachCurrentThread();

  unsigned internal_workers() const {
    return internal_count_.load(std::memory_order_relaxed);
  }

  struct WorkerStats {
    std::string tag;       // "" internal spawn order, else AttachCurrentThread tag
    bool internal = false;
    uint64_t busy_ns = 0;  // time inside morsel bodies
    uint64_t tasks = 0;    // morsels executed
    uint64_t steals = 0;   // morsels obtained from another deque
    uint64_t splits = 0;   // morsels split off for starving participants
  };
  struct Stats {
    uint64_t regions = 0;      // ParallelFor calls routed here
    uint64_t tasks = 0;        // morsels executed
    uint64_t steals = 0;
    uint64_t steal_fails = 0;  // full sweeps that found nothing
    uint64_t splits = 0;
    int64_t queued = 0;        // morsels currently in deques
    uint64_t wall_ns = 0;      // since scheduler start (busy-fraction base)
    std::vector<WorkerStats> workers;
  };
  Stats GetStats() const;

  // --- profiler support ------------------------------------------------

  // Interns `label` into a process-lifetime table and returns a stable
  // pointer, so a sampling profiler can read worker labels as a single
  // relaxed atomic<const char*> load with no lifetime question. Equal
  // strings return the same pointer. Intended for a small, bounded set
  // of operator/phase labels, not per-row data.
  static const char* InternLabel(std::string_view label);

  // Global gate: when off (the default), morsels skip label publication
  // entirely — the profiler costs one relaxed load per morsel.
  static void SetProfilingEnabled(bool on);
  static bool ProfilingEnabled();

  enum class WorkerState : uint8_t { kIdle = 0, kRunning = 1, kStarving = 2 };

  // One sampled observation of a worker, taken racily (see
  // SampleWorkers). `label` is an interned pointer or null.
  struct WorkerSample {
    std::string tag;
    bool internal = false;
    WorkerState state = WorkerState::kIdle;
    const char* label = nullptr;
    size_t deque_depth = 0;
    uint64_t steals = 0;
  };
  // Snapshots every worker's running label / state / deque depth for
  // the sampling profiler. Racy by design: each field is an independent
  // relaxed load, so a sample may mix moments — fine for statistical
  // attribution.
  void SampleWorkers(std::vector<WorkerSample>* out) const;

  ~Scheduler();

 private:
  struct WakeHook {
    std::function<void()> fn;
    std::atomic<bool> armed{false};
    bool removed = false;
  };

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Worker* Attach(const char* tag, bool internal);
  void InternalLoop(Worker* self);
  // Pops the caller's deque, then sweeps victims. False after one full
  // failed sweep.
  bool FindTask(Worker* self, void** out);
  // Executes one morsel. False when the task had to be requeued because
  // its region already has `width` active participants; with
  // may_requeue false it instead waits for a slot and always runs.
  bool RunTask(Worker* self, void* task, bool may_requeue);
  // Wakes sleeping participants and armed hooks after publishing work.
  void Publish();
  // Parks the caller until work appears, `region` (if non-null)
  // completes, or a timeout elapses. Counts as starving while parked.
  void WaitForWork(const SchedRegion* region);

  static constexpr size_t kMaxWorkers = 256;

  std::array<std::unique_ptr<Worker>, kMaxWorkers> workers_;
  std::atomic<uint32_t> num_workers_{0};  // filled prefix of workers_

  std::atomic<int64_t> queued_{0};    // morsels in deques
  std::atomic<int32_t> starving_{0};  // parked participants + armed hooks

  // Sleep/wake: one epoch-counted condvar shared by internal workers
  // and blocked region callers. Publish() and region completion bump
  // the epoch; sleepers re-check their predicate on every wake.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  uint64_t sleep_epoch_ = 0;
  std::atomic<int32_t> sleepers_{0};

  // Guards thread spawning, hook list mutation and worker tags (stats).
  mutable std::mutex spawn_mu_;
  std::vector<std::thread> internal_threads_;
  std::atomic<uint32_t> internal_count_{0};
  std::atomic<uint32_t> reserved_external_{0};
  unsigned ensured_width_ = 1;
  std::vector<std::unique_ptr<WakeHook>> hooks_;
  std::atomic<bool> has_hooks_{false};
  std::atomic<bool> shutdown_{false};

  // Aggregate counters (per-worker ones live in Worker).
  std::atomic<uint64_t> regions_{0};
  std::atomic<uint64_t> steal_fails_{0};
  std::chrono::steady_clock::time_point start_;
};

// RAII operator/phase label for the calling thread. While in scope,
// regions this thread submits carry `interned_label` (see
// Scheduler::InternLabel), and every worker running one of their
// morsels publishes it for SampleWorkers — so a profiler sample reads
// "what phase is this worker executing". Nests (restores the previous
// label on destruction). Near-free when profiling is disabled.
class ScopedSchedLabel {
 public:
  explicit ScopedSchedLabel(const char* interned_label);
  ~ScopedSchedLabel();
  ScopedSchedLabel(const ScopedSchedLabel&) = delete;
  ScopedSchedLabel& operator=(const ScopedSchedLabel&) = delete;

 private:
  const char* prev_;
};

}  // namespace fgpm

#endif  // FGPM_COMMON_SCHEDULER_H_
