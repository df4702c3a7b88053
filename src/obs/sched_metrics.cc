#include "obs/sched_metrics.h"

#include <mutex>

#include "common/scheduler.h"
#include "obs/metrics.h"

namespace fgpm::obs {
namespace {

// Last published cumulative values, so counters advance by deltas even
// though the scheduler reports absolutes. One snapshot per process —
// publishing into a second registry double-counts, which no caller does
// (tests use Default() like the server).
struct Published {
  std::mutex mu;
  uint64_t regions = 0, tasks = 0, steals = 0, steal_fails = 0, splits = 0;
};

Published& Prev() {
  static Published p;
  return p;
}

}  // namespace

void PublishSchedulerMetrics(MetricsRegistry* reg) {
  MetricsRegistry& r = reg != nullptr ? *reg : MetricsRegistry::Default();
  Scheduler::Stats s = Scheduler::Global().GetStats();

  Published& prev = Prev();
  std::lock_guard<std::mutex> lock(prev.mu);
  auto bump = [&r](const char* name, const char* help, uint64_t now,
                   uint64_t& last) {
    if (now > last) r.GetCounter(name, help)->Increment(now - last);
    if (now > last) last = now;
  };
  bump("fgpm_sched_regions_total", "parallel regions executed", s.regions,
       prev.regions);
  bump("fgpm_sched_tasks_total", "morsels executed", s.tasks, prev.tasks);
  bump("fgpm_sched_steals_total", "morsels stolen from another worker",
       s.steals, prev.steals);
  bump("fgpm_sched_steal_fails_total", "steal sweeps that found nothing",
       s.steal_fails, prev.steal_fails);
  bump("fgpm_sched_splits_total", "morsels split for starving workers",
       s.splits, prev.splits);

  r.GetGauge("fgpm_sched_queue_depth", "morsels currently queued")
      ->Set(static_cast<double>(s.queued < 0 ? 0 : s.queued));
  r.GetGauge("fgpm_sched_workers", "attached scheduler worker slots")
      ->Set(static_cast<double>(s.workers.size()));

  // Mean busy fraction across workers since scheduler start. Per-worker
  // fractions are exported through Stats (perfbench's serve_zipf reads
  // them directly); the registry carries the aggregate.
  double busy = 0;
  for (const Scheduler::WorkerStats& w : s.workers) {
    busy += static_cast<double>(w.busy_ns);
  }
  double frac = (s.wall_ns > 0 && !s.workers.empty())
                    ? busy / (static_cast<double>(s.wall_ns) *
                              static_cast<double>(s.workers.size()))
                    : 0.0;
  r.GetGauge("fgpm_sched_busy_fraction",
             "mean per-worker busy time fraction since scheduler start")
      ->Set(frac);
}

}  // namespace fgpm::obs
