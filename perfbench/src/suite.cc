#include "suite.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/hash.h"
#include "common/scheduler.h"
#include "opt/explain.h"

namespace perfbench {

namespace {

double MillisSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

// Max-over-min ratio of estimated and actual rows, both floored at one
// row so empty steps stay finite.
double QError(double estimated, double actual) {
  estimated = std::max(estimated, 1.0);
  actual = std::max(actual, 1.0);
  return std::max(estimated, actual) / std::min(estimated, actual);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Checks one Match result against the case's reference.
bool CheckResult(const Case& c, const fgpm::Result<fgpm::MatchResult>& r,
                 Report* report) {
  if (!r.ok()) {
    report->Wrong(c.name + ": " + r.status().ToString());
    return false;
  }
  if (r->rows.size() != c.ref_rows ||
      fgpm::RowSetChecksum(r->rows) != c.ref_checksum) {
    report->Wrong(c.name + ": rows differ from the reference (" +
                  std::to_string(r->rows.size()) + " vs " +
                  std::to_string(c.ref_rows) + ")");
    return false;
  }
  return true;
}

}  // namespace

void AddIo(const fgpm::IoSnapshot& before, const fgpm::IoSnapshot& after,
           fgpm::IoSnapshot* sum) {
  sum->page_reads += after.page_reads - before.page_reads;
  sum->page_writes += after.page_writes - before.page_writes;
  sum->pool_hits += after.pool_hits - before.pool_hits;
  sum->pool_misses += after.pool_misses - before.pool_misses;
  sum->code_cache_hits += after.code_cache_hits - before.code_cache_hits;
  sum->code_cache_misses += after.code_cache_misses - before.code_cache_misses;
}

SchedSnapshot SchedSnapshot::Now() {
  SchedSnapshot t;
  for (const auto& w : fgpm::Scheduler::Global().GetStats().workers) {
    t.busy_ns += w.busy_ns;
    t.tasks += w.tasks;
    t.steals += w.steals;
  }
  return t;
}

SuiteTimes RunPasses(const std::vector<Case>& cases, double seconds,
                     int min_passes, Report* report) {
  SuiteTimes out;
  out.case_exec_ms.resize(cases.size());
  double spent = 0;
  while (static_cast<int>(out.pass_s.size()) < min_passes || spent < seconds) {
    const auto pass0 = Clock::now();
    std::vector<double>& query_ms = out.pass_query_ms.emplace_back();
    double match_s = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      const auto t0 = Clock::now();
      auto r = c.matcher->Match(c.pattern, c.options);
      query_ms.push_back(MillisSince(t0));
      match_s += query_ms.back() / 1e3;
      if (r.ok()) {
        out.case_exec_ms[i].push_back(r->stats.elapsed_ms - r->stats.optimize_ms);
      }
      report->Attempt(CheckResult(c, r, report));
    }
    out.pass_s.push_back(match_s);
    spent += SecondsSince(pass0);
  }
  return out;
}

namespace {

// Geometric mean over patterns of each pattern's median latency, and the
// kTailPct percentile of all executions, over the passes `passes`.
struct Latencies {
  double p50 = 0, tail = 0;
  size_t samples = 0, beyond = 0;
};
Latencies LatenciesOver(const SuiteTimes& t, const std::vector<size_t>& passes,
                        size_t patterns) {
  std::vector<std::vector<double>> case_ms(patterns);
  std::vector<double> all_ms;
  for (size_t p : passes) {
    for (size_t i = 0; i < patterns; ++i) {
      case_ms[i].push_back(t.pass_query_ms[p][i]);
      all_ms.push_back(t.pass_query_ms[p][i]);
    }
  }
  double log_sum = 0;
  for (const auto& v : case_ms) log_sum += std::log(std::max(Median(v), 1e-6));
  Latencies out;
  out.p50 = std::exp(log_sum / patterns);
  out.samples = all_ms.size();
  out.tail = TailPercentile(std::move(all_ms), kTailPct, &out.beyond);
  return out;
}

}  // namespace

void SetSuiteMetrics(const SuiteTimes& t, size_t patterns, Report* report) {
  const std::vector<size_t> quiet = QuietHalf(t.pass_s);
  std::vector<double> quiet_pass_s;
  for (size_t p : quiet) quiet_pass_s.push_back(t.pass_s[p]);
  std::vector<size_t> every(t.pass_s.size());
  for (size_t p = 0; p < every.size(); ++p) every[p] = p;
  const Latencies all = LatenciesOver(t, every, patterns);
  const Latencies quiet_lat = LatenciesOver(t, quiet, patterns);
  report->Set("throughput_qps", patterns / Median(quiet_pass_s));
  report->Set("latency_p50_ms", all.p50);
  report->Set("latency_tail_ms", all.tail);
  report->Stamp("passes", t.pass_s.size());
  report->Stamp("quiet_passes", quiet_pass_s.size());
  report->Stamp("latency_samples", all.samples);
  report->Stamp("latency_tail_pct", kTailPct);
  report->Stamp("latency_tail_beyond", all.beyond);
  report->Stamp("latency_p50_ms_quiet_half", quiet_lat.p50);
  report->Stamp("latency_tail_ms_quiet_half", quiet_lat.tail);
  report->Stamp("suite_s", Median(quiet_pass_s));
  report->Stamp("suite_s_all_passes", Median(t.pass_s));
  std::fprintf(stderr, "pass times (s):");
  for (double x : t.pass_s) std::fprintf(stderr, " %.3f", x);
  std::fprintf(stderr,
               "\nsuite passes: %s\nlatency p50 %.4g ms, p%.0f %.4g ms "
               "(quiet half: %.4g ms, %.4g ms)\n",
               Summary(t.pass_s, "s").c_str(), all.p50, kTailPct, all.tail,
               quiet_lat.p50, quiet_lat.tail);
}

bool TraceQuery(const Case& c, LayerTotals* t, Report* report,
                double* exec_ms) {
  fgpm::GraphMatcher& m = *c.matcher;
  const auto p0 = Clock::now();
  auto plan = m.MakePlan(c.pattern, c.options.engine);
  t->make_plan_ms += MillisSince(p0);

  const fgpm::IoSnapshot io0 = m.db().Io();
  const auto q0 = Clock::now();
  auto r = m.Match(c.pattern, c.options);
  const double wall_ms = MillisSince(q0);
  AddIo(io0, m.db().Io(), &t->io);
  const bool ok = CheckResult(c, r, report);
  report->Attempt(ok);
  if (!r.ok()) return false;

  const fgpm::ExecStats& st = r->stats;
  ++t->queries;
  t->match_wall_ms += wall_ms;
  t->optimize_ms += st.optimize_ms;
  t->elapsed_ms += st.elapsed_ms;
  if (exec_ms != nullptr) *exec_ms = st.elapsed_ms - st.optimize_ms;
  t->ops.Add(st.operators);
  t->result_rows += st.result_rows;
  t->modeled_io_pages += st.modeled_io_pages;
  for (uint64_t rows : st.step_rows) t->peak_rows = std::max(t->peak_rows, rows);
  if (!plan.ok()) return ok;
  // Planning is deterministic, so Match ran the plan MakePlan returns
  // (planned afresh or served from the plan cache): step k of the stats
  // is step k of `plan`.
  for (size_t k = 0; k < st.step_wall_ms.size() && k < plan->steps.size(); ++k) {
    t->step_ms[static_cast<size_t>(plan->steps[k].kind)] += st.step_wall_ms[k];
  }
  // Every benchmark matcher runs factorized (the ExecOptions default),
  // which is what MakePlan costed the plan under.
  fgpm::CostParams params;
  params.factorized = true;
  auto ex = fgpm::ExplainPlan(c.pattern, *plan, m.db().catalog(), params);
  if (ex.ok()) {
    for (size_t k = 0; k < st.step_rows.size() && k < ex->steps.size(); ++k) {
      t->qerrors.push_back(
          QError(ex->steps[k].rows_out, static_cast<double>(st.step_rows[k])));
    }
  }
  return ok;
}

void RunTracedPasses(const std::vector<Case>& cases, double seconds,
                     LayerTotals* t, Report* report) {
  t->case_exec_ms.resize(cases.size());
  double spent = 0;
  do {
    const auto pass0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    const SchedSnapshot s0 = SchedSnapshot::Now();
    const double match0_ms = t->match_wall_ms;
    for (size_t i = 0; i < cases.size(); ++i) {
      double exec_ms = 0;
      if (TraceQuery(cases[i], t, report, &exec_ms)) {
        t->case_exec_ms[i].push_back(exec_ms);
      }
    }
    const SchedSnapshot s1 = SchedSnapshot::Now();
    t->sched_busy_ns += s1.busy_ns - s0.busy_ns;
    t->sched_tasks += s1.tasks - s0.tasks;
    t->sched_steals += s1.steals - s0.steals;
    t->cpu_s += ProcessCpuSeconds() - cpu0;
    const double pass_s = SecondsSince(pass0);
    t->pass_wall_ms += pass_s * 1e3;
    t->pass_s.push_back((t->match_wall_ms - match0_ms) / 1e3);
    spent += pass_s;
  } while (spent < seconds);
}

double TraceOverhead(const std::vector<double>& plain_pass_s,
                     const std::vector<double>& traced_pass_s) {
  auto quiet_median = [](const std::vector<double>& v) {
    std::vector<double> q;
    for (size_t i : QuietHalf(v)) q.push_back(v[i]);
    return Median(q);
  };
  const double plain = quiet_median(plain_pass_s);
  return plain > 0 ? quiet_median(traced_pass_s) / plain - 1 : 0;
}

void SetIoMetrics(const fgpm::IoSnapshot& io, double queries, Report* r) {
  const double q = std::max<double>(1, queries);
  const double accesses = io.pool_hits + io.pool_misses;
  r->Set("storage.pool_accesses", accesses / q);
  r->Set("storage.pool_hit_frac", Ratio(io.pool_hits, accesses));
  r->Set("storage.page_reads", io.page_reads / q);
  const double probes = io.code_cache_hits + io.code_cache_misses;
  r->Set("gdb.code_cache_probes", probes / q);
  r->Set("gdb.code_cache_hit_frac", Ratio(io.code_cache_hits, probes));
}

void SetLayerMetrics(const LayerTotals& t, Report* r) {
  const double q = std::max<double>(1, t.queries);
  double steps_ms = 0;
  for (double ms : t.step_ms) steps_ms += ms;

  r->Set("opt.plan_ms", t.make_plan_ms / q);
  r->Set("opt.plan_share", Ratio(t.optimize_ms, t.match_wall_ms));
  r->Set("opt.qerror_p50", Median(t.qerrors));
  r->Set("opt.qerror_max",
         t.qerrors.empty()
             ? 0
             : *std::max_element(t.qerrors.begin(), t.qerrors.end()));

  using fgpm::StepKind;
  auto step = [&](StepKind k) { return t.step_ms[static_cast<size_t>(k)] / q; };
  r->Set("exec.scan_ms", step(StepKind::kScanBase));
  r->Set("exec.hpsj_ms", step(StepKind::kHpsjBase));
  r->Set("exec.filter_ms", step(StepKind::kFilter));
  r->Set("exec.fetch_ms", step(StepKind::kFetch));
  r->Set("exec.select_ms", step(StepKind::kSelect));
  r->Set("exec.bind_ms", step(StepKind::kWcojBind));
  r->Set("exec.materialize_ms",
         (t.elapsed_ms - t.optimize_ms - steps_ms) / q);
  r->Set("exec.peak_rows", static_cast<double>(t.peak_rows));
  r->Set("exec.pairs_per_row", Ratio(t.ops.pairs_emitted, t.result_rows));
  r->Set("exec.filter_prune_frac", Ratio(t.ops.rows_pruned, t.ops.rows_scanned));
  r->Set("exec.code_fetches", t.ops.code_fetches / q);
  r->Set("exec.cluster_fetches", t.ops.cluster_fetches / q);
  r->Set("exec.wtable_lookups", t.ops.wtable_lookups / q);
  r->Set("exec.reach_memo_probes", t.ops.reach_memo_probes / q);
  r->Set("exec.reach_memo_hit_frac",
         Ratio(t.ops.reach_memo_hits, t.ops.reach_memo_probes));
  r->Set("exec.kway_probes", t.ops.kway_intersect_probes / q);
  r->Set("exec.kway_hit_frac",
         Ratio(t.ops.kway_intersect_hits, t.ops.kway_intersect_probes));

  r->Set("sched.busy_cores", Ratio(t.sched_busy_ns * 1e-6, t.pass_wall_ms));
  r->Set("sched.tasks", t.sched_tasks / q);
  r->Set("sched.steals", t.sched_steals / q);
  r->Set("proc.cpu_cores", Ratio(t.cpu_s * 1e3, t.pass_wall_ms));

  SetIoMetrics(t.io, q, r);
  r->Set("storage.modeled_io_pages", t.modeled_io_pages / q);

  r->Set("core.overhead_ms", (t.match_wall_ms - t.elapsed_ms) / q);
  // Covered: the spans the engine itself reports (optimize + plan
  // steps). The rest of each Match call is materialization and matcher
  // overhead, which only the derived metrics above account for.
  const double covered = t.optimize_ms + steps_ms;
  r->Set("attr.covered_frac", Ratio(covered, t.match_wall_ms));
  r->Set("attr.unattributed_ms", (t.match_wall_ms - covered) / q);
}

}  // namespace perfbench
