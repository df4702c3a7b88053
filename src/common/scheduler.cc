#include "common/scheduler.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>

#include "common/logging.h"

namespace fgpm {
namespace {

// Profiler gate + interned-label table. The table is append-only and
// node-based, so c_str() pointers stay valid for the process lifetime —
// which is what lets worker labels be plain atomic<const char*>.
std::atomic<bool> g_profiling{false};
std::mutex g_label_mu;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Morsel split floor in *rows* (not chunks): a morsel stops splitting
// once its remaining range is <= max(1, kMorselRows / chunk_size)
// chunks. Smaller = finer balancing, more scheduling traffic.
constexpr size_t kMorselRows = 1024;
// Failed steal sweeps a starving participant spins (with yields) before
// parking on the scheduler's condition variable.
constexpr int kStealSpin = 16;

}  // namespace

// One ParallelFor call. Lives on the caller's stack: the caller only
// returns once every chunk is done AND every participant has released
// its slot (the release-store of slot_mask is each helper's final
// access to the region, so no helper can touch freed memory).
struct SchedRegion {
  const Scheduler::Body* body = nullptr;
  size_t n = 0;
  size_t chunk_size = 1;
  size_t num_chunks = 0;
  // Interned phase label of the submitting thread (profiling only).
  const char* label = nullptr;
  unsigned width = 1;           // max concurrent participants (<= 64)
  size_t min_split_chunks = 1;  // adaptive-split floor
  std::atomic<size_t> chunks_done{0};
  std::atomic<uint64_t> slot_mask{0};
  std::atomic<bool> done{false};

  // Region-local participant slot in [0, width), or -1 when `width`
  // participants are already active.
  int AcquireSlot() {
    uint64_t all = (width >= 64) ? ~0ull : ((1ull << width) - 1);
    uint64_t mask = slot_mask.load(std::memory_order_relaxed);
    while (true) {
      uint64_t free = ~mask & all;
      if (free == 0) return -1;
      int slot = std::countr_zero(free);
      if (slot_mask.compare_exchange_weak(mask, mask | (1ull << slot),
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        return slot;
      }
    }
  }
  void ReleaseSlot(int slot) {
    slot_mask.fetch_and(~(1ull << slot), std::memory_order_release);
  }
};

namespace {

// A morsel: a contiguous run of chunks of one region. Heap-allocated on
// submit/split, deleted by whichever participant executes it; a region
// never completes while one of its tasks is queued (those chunks are
// not done), so a queued Task* always points at a live region.
struct Task {
  SchedRegion* region;
  size_t begin_chunk;
  size_t end_chunk;
};

}  // namespace

struct Scheduler::Worker {
  TaskDeque deque;
  std::atomic<bool> attached{false};
  uint32_t index = 0;
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  // Guarded by Scheduler::spawn_mu_ (written on attach, read by stats).
  bool internal = false;
  char tag[16] = {0};
  // Owner-written, racily read by GetStats.
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> tasks{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> splits{0};
  // Profiler-sampled: interned label of the morsel being executed (or
  // the thread's scoped label) and a coarse run state. Only written
  // when profiling is enabled.
  std::atomic<const char*> label{nullptr};
  std::atomic<uint8_t> state{0};  // Scheduler::WorkerState

  uint32_t NextVictim(uint32_t n) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<uint32_t>(rng % n);
  }
};

namespace {

thread_local Scheduler::Worker* tls_worker = nullptr;
thread_local const char* tls_label = nullptr;

// Reclaims the worker slot when a participating thread exits without an
// explicit DetachCurrentThread (test threads, executor owners). Main-
// thread TLS destructors run before static destructors, and any other
// thread exits while the process lives, so the singleton is valid here.
struct TlsDetacher {
  bool armed = false;
  ~TlsDetacher() {
    if (armed) Scheduler::Global().DetachCurrentThread();
  }
};
thread_local TlsDetacher tls_detacher;

}  // namespace

Scheduler& Scheduler::Global() {
  static Scheduler s;
  return s;
}

Scheduler::Scheduler() : start_(std::chrono::steady_clock::now()) {}

Scheduler::~Scheduler() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    ++sleep_epoch_;
  }
  sleep_cv_.notify_all();
  for (std::thread& t : internal_threads_) t.join();
}

Scheduler::Worker* Scheduler::Attach(const char* tag, bool internal) {
  if (tls_worker != nullptr) {
    if (tag != nullptr) {
      std::lock_guard<std::mutex> lock(spawn_mu_);
      std::strncpy(tls_worker->tag, tag, sizeof(tls_worker->tag) - 1);
    }
    return tls_worker;
  }
  // Reuse a released slot (its counters carry over into Stats), else
  // grow the prefix of workers_.
  uint32_t n = num_workers_.load(std::memory_order_acquire);
  Worker* w = nullptr;
  for (uint32_t i = 0; i < n; ++i) {
    Worker* cand = workers_[i].get();
    if (!cand->attached.load(std::memory_order_relaxed) &&
        !cand->attached.exchange(true, std::memory_order_acq_rel)) {
      w = cand;
      break;
    }
  }
  std::lock_guard<std::mutex> lock(spawn_mu_);
  if (w == nullptr) {
    n = num_workers_.load(std::memory_order_relaxed);
    FGPM_CHECK(n < kMaxWorkers);
    auto owned = std::make_unique<Worker>();
    owned->index = n;
    owned->attached.store(true, std::memory_order_relaxed);
    owned->rng ^= (n + 1) * 0xbf58476d1ce4e5b9ull;
    w = owned.get();
    workers_[n] = std::move(owned);
    num_workers_.store(n + 1, std::memory_order_release);
  }
  w->internal = internal;
  w->tag[0] = '\0';
  if (tag != nullptr) std::strncpy(w->tag, tag, sizeof(w->tag) - 1);
  tls_worker = w;
  tls_detacher.armed = true;
  return w;
}

unsigned Scheduler::AttachCurrentThread(const char* tag) {
  return Attach(tag, /*internal=*/false)->index;
}

void Scheduler::DetachCurrentThread() {
  Worker* self = tls_worker;
  if (self == nullptr) return;
  // Execute any stranded morsels so their regions can complete. They
  // stay stealable until popped, so no live region is ever stranded.
  void* task = nullptr;
  while ((task = self->deque.Pop()) != nullptr) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    RunTask(self, task, /*may_requeue=*/false);
  }
  tls_worker = nullptr;
  tls_detacher.armed = false;
  self->attached.store(false, std::memory_order_release);
}

void Scheduler::EnsureWidth(unsigned width) {
  if (width <= 1) return;
  std::lock_guard<std::mutex> lock(spawn_mu_);
  if (width <= ensured_width_) return;
  ensured_width_ = width;
  uint32_t reserved = reserved_external_.load(std::memory_order_relaxed);
  // The caller of a region is one participant; reserved externals are
  // expected to help. Spawn internal workers for the remainder — this
  // is what lets server and executors share one set of threads instead
  // of multiplying them.
  unsigned need = width - 1 > reserved ? width - 1 - reserved : 0;
  need = std::min<unsigned>(need, kMaxWorkers / 2);
  while (internal_count_.load(std::memory_order_relaxed) < need) {
    internal_count_.fetch_add(1, std::memory_order_relaxed);
    internal_threads_.emplace_back([this] {
      Worker* self = Attach(nullptr, /*internal=*/true);
      InternalLoop(self);
      DetachCurrentThread();
    });
  }
}

void Scheduler::ReserveExternal(unsigned n) {
  reserved_external_.fetch_add(n, std::memory_order_relaxed);
}

void Scheduler::ReleaseExternal(unsigned n) {
  reserved_external_.fetch_sub(n, std::memory_order_relaxed);
}

bool Scheduler::FindTask(Worker* self, void** out) {
  void* task = self->deque.Pop();
  if (task != nullptr) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    *out = task;
    return true;
  }
  uint32_t n = num_workers_.load(std::memory_order_acquire);
  if (n > 1) {
    uint32_t start = self->NextVictim(n);
    for (uint32_t i = 0; i < n; ++i) {
      Worker* victim = workers_[(start + i) % n].get();
      if (victim == self) continue;
      task = victim->deque.Steal();
      if (task != nullptr) {
        queued_.fetch_sub(1, std::memory_order_relaxed);
        self->steals.fetch_add(1, std::memory_order_relaxed);
        *out = task;
        return true;
      }
    }
  }
  steal_fails_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool Scheduler::RunTask(Worker* self, void* opaque, bool may_requeue) {
  Task* t = static_cast<Task*>(opaque);
  SchedRegion* r = t->region;
  int slot = r->AcquireSlot();
  if (slot < 0) {
    // `width` participants already active in this region.
    if (may_requeue && self->deque.Push(t)) {
      // Keep the morsel stealable (its region's waiter sweeps for it)
      // and report no progress so the caller yields before retrying.
      queued_.fetch_add(1, std::memory_order_relaxed);
      Publish();
      return false;
    }
    // Requeue unavailable (deque full, or draining on detach): wait for
    // a slot. Progress is guaranteed — slot holders are executing
    // chunks and release in finite time.
    while ((slot = r->AcquireSlot()) < 0) std::this_thread::yield();
  }
  size_t c0 = t->begin_chunk;
  size_t c1 = t->end_chunk;
  delete t;
  const bool prof = g_profiling.load(std::memory_order_relaxed);
  const char* prev_label = nullptr;
  if (prof) {
    prev_label = self->label.load(std::memory_order_relaxed);
    if (r->label != nullptr) {
      self->label.store(r->label, std::memory_order_relaxed);
    }
    self->state.store(static_cast<uint8_t>(Scheduler::WorkerState::kRunning),
                      std::memory_order_relaxed);
  }
  const uint64_t t0 = NowNs();
  size_t executed = 0;
  while (c0 < c1) {
    if (c1 - c0 > r->min_split_chunks &&
        starving_.load(std::memory_order_relaxed) > 0) {
      // Someone is starving: split off the back half for them.
      size_t mid = c0 + (c1 - c0 + 1) / 2;
      Task* tail = new Task{r, mid, c1};
      if (self->deque.Push(tail)) {
        queued_.fetch_add(1, std::memory_order_relaxed);
        self->splits.fetch_add(1, std::memory_order_relaxed);
        c1 = mid;
        Publish();
        continue;
      }
      delete tail;  // deque full: just keep the whole range
    }
    size_t begin = c0 * r->chunk_size;
    size_t end = std::min(r->n, begin + r->chunk_size);
    (*r->body)(static_cast<unsigned>(slot), c0, begin, end);
    ++c0;
    ++executed;
  }
  if (prof) {
    self->label.store(prev_label, std::memory_order_relaxed);
    self->state.store(static_cast<uint8_t>(Scheduler::WorkerState::kIdle),
                      std::memory_order_relaxed);
  }
  self->busy_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  self->tasks.fetch_add(1, std::memory_order_relaxed);
  size_t prev = r->chunks_done.fetch_add(executed, std::memory_order_acq_rel);
  bool last = prev + executed == r->num_chunks;
  if (last) r->done.store(true, std::memory_order_release);
  r->ReleaseSlot(slot);
  // `r` may be destroyed from here on (its caller returns once done &&
  // slot_mask == 0) — wake the waiter without touching `r` again.
  if (last) {
    {
      std::lock_guard<std::mutex> lock(sleep_mu_);
      ++sleep_epoch_;
    }
    sleep_cv_.notify_all();
  }
  return true;
}

void Scheduler::Publish() {
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    {
      std::lock_guard<std::mutex> lock(sleep_mu_);
      ++sleep_epoch_;
    }
    sleep_cv_.notify_all();
  }
  if (has_hooks_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(spawn_mu_);
    for (auto& h : hooks_) {
      if (h->removed) continue;
      if (h->armed.exchange(false, std::memory_order_acq_rel)) {
        starving_.fetch_sub(1, std::memory_order_relaxed);
        h->fn();  // must not reenter the scheduler (holds spawn_mu_)
      }
    }
  }
}

void Scheduler::WaitForWork(const SchedRegion* region) {
  const bool prof = g_profiling.load(std::memory_order_relaxed);
  if (prof && tls_worker != nullptr) {
    tls_worker->state.store(static_cast<uint8_t>(WorkerState::kStarving),
                            std::memory_order_relaxed);
  }
  starving_.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < kStealSpin; ++i) {
    if (HasWork() || shutdown_.load(std::memory_order_relaxed) ||
        (region != nullptr && region->done.load(std::memory_order_acquire))) {
      starving_.fetch_sub(1, std::memory_order_relaxed);
      if (prof && tls_worker != nullptr) {
        tls_worker->state.store(static_cast<uint8_t>(WorkerState::kIdle),
                                std::memory_order_relaxed);
      }
      return;
    }
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(sleep_mu_);
  uint64_t seen = sleep_epoch_;
  sleepers_.fetch_add(1, std::memory_order_relaxed);
  if (!(HasWork() || shutdown_.load(std::memory_order_relaxed) ||
        (region != nullptr && region->done.load(std::memory_order_acquire)))) {
    // Timed: correctness never depends on a wakeup arriving (a publish
    // can race the sleeper registration), only latency does.
    sleep_cv_.wait_for(lock, std::chrono::milliseconds(2),
                       [&] { return sleep_epoch_ != seen; });
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  starving_.fetch_sub(1, std::memory_order_relaxed);
  if (prof && tls_worker != nullptr) {
    tls_worker->state.store(static_cast<uint8_t>(WorkerState::kIdle),
                            std::memory_order_relaxed);
  }
}

void Scheduler::InternalLoop(Worker* self) {
  while (!shutdown_.load(std::memory_order_acquire)) {
    void* task = nullptr;
    if (FindTask(self, &task)) {
      if (!RunTask(self, task, /*may_requeue=*/true)) {
        std::this_thread::yield();  // region slot-saturated; let it drain
      }
      continue;
    }
    WaitForWork(nullptr);
  }
}

bool Scheduler::TryHelp() {
  if (!HasWork()) return false;
  Worker* self = Attach(nullptr, /*internal=*/false);
  void* task = nullptr;
  if (!FindTask(self, &task)) return false;
  return RunTask(self, task, /*may_requeue=*/true);
}

void Scheduler::ParallelFor(size_t n, size_t chunk_size, const Body& body,
                            unsigned width) {
  FGPM_DCHECK(n > 0 && chunk_size > 0 && width > 1);
  EnsureWidth(width);
  Worker* self = Attach(nullptr, /*internal=*/false);
  regions_.fetch_add(1, std::memory_order_relaxed);

  SchedRegion r;
  r.body = &body;
  r.n = n;
  r.chunk_size = chunk_size;
  r.num_chunks = (n + chunk_size - 1) / chunk_size;
  if (g_profiling.load(std::memory_order_relaxed)) r.label = tls_label;
  r.width = std::min<unsigned>(width, 64);
  r.min_split_chunks =
      std::max<size_t>(1, kMorselRows / chunk_size);

  // Initial decomposition: at most `width` coarse morsels, pushed in
  // reverse so the owner's LIFO pop walks chunks front-to-back while
  // thieves FIFO-steal from the back. Adaptive splits refine from here.
  size_t k = std::min<size_t>(r.width, r.num_chunks);
  size_t per = r.num_chunks / k;
  size_t rem = r.num_chunks % k;
  size_t queued_here = 0;
  for (size_t i = k; i-- > 0;) {
    size_t begin = i * per + std::min(i, rem);
    size_t end = begin + per + (i < rem ? 1 : 0);
    Task* t = new Task{&r, begin, end};
    if (self->deque.Push(t)) {
      ++queued_here;
    } else {
      // Deque full (deeply nested regions): run this morsel here and
      // now. Chunks still execute exactly once; only scheduling changes.
      RunTask(self, t, /*may_requeue=*/false);
    }
  }
  if (queued_here > 0) {
    queued_.fetch_add(static_cast<int64_t>(queued_here),
                      std::memory_order_relaxed);
    Publish();
  }

  // Participate until every chunk is done. While this region's morsels
  // are saturated or stolen, help whatever else is queued (nested and
  // sibling regions) instead of blocking.
  while (!r.done.load(std::memory_order_acquire)) {
    void* task = nullptr;
    if (FindTask(self, &task)) {
      if (!RunTask(self, task, /*may_requeue=*/true)) {
        std::this_thread::yield();
      }
      continue;
    }
    WaitForWork(&r);
  }
  // Wait for stragglers to release their slots so `r` can be destroyed.
  while (r.slot_mask.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

Scheduler::Stats Scheduler::GetStats() const {
  Stats s;
  s.regions = regions_.load(std::memory_order_relaxed);
  s.steal_fails = steal_fails_.load(std::memory_order_relaxed);
  s.queued = queued_.load(std::memory_order_relaxed);
  s.wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  uint32_t n = num_workers_.load(std::memory_order_acquire);
  s.workers.reserve(n);
  std::lock_guard<std::mutex> lock(spawn_mu_);
  for (uint32_t i = 0; i < n; ++i) {
    const Worker* w = workers_[i].get();
    WorkerStats ws;
    ws.tag = w->tag;
    ws.internal = w->internal;
    ws.busy_ns = w->busy_ns.load(std::memory_order_relaxed);
    ws.tasks = w->tasks.load(std::memory_order_relaxed);
    ws.steals = w->steals.load(std::memory_order_relaxed);
    ws.splits = w->splits.load(std::memory_order_relaxed);
    s.tasks += ws.tasks;
    s.steals += ws.steals;
    s.splits += ws.splits;
    s.workers.push_back(std::move(ws));
  }
  return s;
}

const char* Scheduler::InternLabel(std::string_view label) {
  static std::set<std::string, std::less<>>* table =
      new std::set<std::string, std::less<>>();
  std::lock_guard<std::mutex> lock(g_label_mu);
  auto it = table->find(label);
  if (it == table->end()) it = table->emplace(label).first;
  return it->c_str();
}

void Scheduler::SetProfilingEnabled(bool on) {
  g_profiling.store(on, std::memory_order_relaxed);
}

bool Scheduler::ProfilingEnabled() {
  return g_profiling.load(std::memory_order_relaxed);
}

void Scheduler::SampleWorkers(std::vector<WorkerSample>* out) const {
  out->clear();
  uint32_t n = num_workers_.load(std::memory_order_acquire);
  out->reserve(n);
  std::lock_guard<std::mutex> lock(spawn_mu_);
  for (uint32_t i = 0; i < n; ++i) {
    const Worker* w = workers_[i].get();
    WorkerSample s;
    s.tag = w->tag;
    s.internal = w->internal;
    s.state = static_cast<WorkerState>(w->state.load(std::memory_order_relaxed));
    s.label = w->label.load(std::memory_order_relaxed);
    s.deque_depth = w->deque.SizeApprox();
    s.steals = w->steals.load(std::memory_order_relaxed);
    out->push_back(std::move(s));
  }
}

ScopedSchedLabel::ScopedSchedLabel(const char* interned_label) {
  prev_ = tls_label;
  tls_label = interned_label;
  if (Scheduler::ProfilingEnabled() && tls_worker != nullptr) {
    tls_worker->label.store(interned_label, std::memory_order_relaxed);
  }
}

ScopedSchedLabel::~ScopedSchedLabel() {
  if (Scheduler::ProfilingEnabled() && tls_worker != nullptr) {
    tls_worker->label.store(prev_, std::memory_order_relaxed);
  }
  tls_label = prev_;
}

int Scheduler::AddWakeHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(spawn_mu_);
  auto h = std::make_unique<WakeHook>();
  h->fn = std::move(hook);
  hooks_.push_back(std::move(h));
  has_hooks_.store(true, std::memory_order_relaxed);
  return static_cast<int>(hooks_.size()) - 1;
}

void Scheduler::ArmWakeHook(int id, bool armed) {
  std::lock_guard<std::mutex> lock(spawn_mu_);
  if (id < 0 || id >= static_cast<int>(hooks_.size())) return;
  WakeHook* h = hooks_[id].get();
  if (h->removed) return;
  bool was = h->armed.exchange(armed, std::memory_order_acq_rel);
  if (armed && !was) starving_.fetch_add(1, std::memory_order_relaxed);
  if (!armed && was) starving_.fetch_sub(1, std::memory_order_relaxed);
}

void Scheduler::RemoveWakeHook(int id) {
  std::lock_guard<std::mutex> lock(spawn_mu_);
  if (id < 0 || id >= static_cast<int>(hooks_.size())) return;
  WakeHook* h = hooks_[id].get();
  if (h->removed) return;
  if (h->armed.exchange(false, std::memory_order_acq_rel)) {
    starving_.fetch_sub(1, std::memory_order_relaxed);
  }
  h->removed = true;
}

}  // namespace fgpm
