// xmark_paper: the paper's own workload. The XMark-like "100M" dataset
// at scale 0.1 (166,686 nodes at the default generator settings), the 28
// patterns of P1-P9, T1-T9 and Q1-Q5 (|Vq| = 4 and 5), one query at a
// time through GraphMatcher::Match with engine kDps at one thread. The
// paper's 1 MiB buffer pool and the 4096-entry code cache are kept, so
// the database is larger than its pool; plan and result caches are off.
// References come from engine kDp on the same databases.
//
// The structure is the repository's "100M" dataset (workload::
// LoadDataset's generator seed); --seed draws the node-id permutations
// (inputs.h) of kCopies isomorphic copies, each with its own database.
// A pass runs the 28 patterns on every copy: a suite's cost moves with
// the permutation (storage layout, 2-hop cover order) by about a tenth,
// and averaging over copies keeps one seed's draw from setting a run's
// figures.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "inputs.h"
#include "reach/two_hop.h"
#include "suite.h"
#include "workload/patterns.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kCopies = 3;

}  // namespace

std::unique_ptr<fgpm::GraphMatcher> BuildMatcher(
    const fgpm::Graph& g, const fgpm::GraphDatabaseOptions& db_options,
    const fgpm::ExecOptions& exec_options, double* build_s) {
  const auto t0 = Clock::now();
  auto db = std::make_unique<fgpm::GraphDatabase>(db_options);
  fgpm::Status st = db->Build(g);
  *build_s += SecondsSince(t0);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: database build failed: %s\n",
                 st.ToString().c_str());
    return nullptr;
  }
  auto m = fgpm::GraphMatcher::FromDatabase(std::move(db), &g, exec_options);
  return m.ok() ? std::move(*m) : nullptr;
}

double TimeCoverBuild(const fgpm::Graph& g, double* cover_build_s) {
  const auto t0 = Clock::now();
  fgpm::TwoHopLabeling labeling = fgpm::BuildTwoHopPruned(g);
  *cover_build_s += SecondsSince(t0);
  return static_cast<double>(labeling.CoverSize());
}

void RunXmarkPaper(const Options& o, Report* rep) {
  fgpm::gen::XMarkOptions gen_options;
  gen_options.factor = o.tiny ? 0.002 : 0.1;
  gen_options.seed = 52;  // LoadDataset's seed for the "100M" dataset
  fgpm::GraphDatabaseOptions db_options;  // 1 MiB pool, 4096-entry cache
  fgpm::ExecOptions exec_options;
  exec_options.num_threads = 1;
  exec_options.plan_cache_capacity = 0;
  exec_options.use_result_cache = false;
  fgpm::MatchOptions match_options;
  match_options.engine = fgpm::Engine::kDps;
  match_options.use_plan_cache = false;

  // Set-up: graph generation + database build of each copy; setup_s is
  // the median over copies. Graphs are heap-held: matchers keep a
  // pointer to theirs.
  std::vector<std::unique_ptr<fgpm::Graph>> graphs;
  std::vector<std::unique_ptr<fgpm::GraphMatcher>> matchers;
  std::vector<double> setup_s;
  double build_s = 0;
  for (int k = 0; k < kCopies; ++k) {
    const auto t0 = Clock::now();
    graphs.push_back(std::make_unique<fgpm::Graph>(Relabel(
        fgpm::gen::XMarkLike(gen_options), o.seed * kCopies + k)));
    matchers.push_back(
        BuildMatcher(*graphs.back(), db_options, exec_options, &build_s));
    setup_s.push_back(SecondsSince(t0));
    if (matchers.back() == nullptr) {
      rep->Wrong("xmark_paper set-up failed");
      return;
    }
  }
  const fgpm::Graph& g = *graphs[0];
  std::fprintf(stderr, "xmark_paper: %d copies of %zu nodes, %zu edges, set-up %s\n",
               kCopies, g.NumNodes(), g.NumEdges(),
               Summary(setup_s, "s").c_str());

  // Copy-major: each copy runs the whole suite in turn.
  std::vector<Case> cases;
  for (int k = 0; k < kCopies; ++k) {
    auto add = [&](const char* prefix, const char* suffix,
                   std::vector<fgpm::Pattern> patterns) {
      for (size_t i = 0; i < patterns.size(); ++i) {
        Case c;
        c.name = prefix + std::to_string(i + 1) + suffix + "@" +
                 std::to_string(k);
        c.matcher = matchers[k].get();
        c.pattern = std::move(patterns[i]);
        c.options = match_options;
        cases.push_back(std::move(c));
      }
    };
    add("P", "", fgpm::workload::XmarkPathPatterns());
    add("T", "", fgpm::workload::XmarkTreePatterns());
    add("Q", "_v4", fgpm::workload::XmarkGraphPatterns4());
    add("Q", "_v5", fgpm::workload::XmarkGraphPatterns5());
  }

  fgpm::MatchOptions ref_options = match_options;
  ref_options.engine = fgpm::Engine::kDp;
  const auto ref0 = Clock::now();
  ComputeReferences(
      &cases,
      [&](size_t i) { return cases[i].matcher->Match(cases[i].pattern, ref_options); },
      rep);
  std::fprintf(stderr, "xmark_paper: kDp references in %.2f s\n",
               SecondsSince(ref0));

  double db_pages = 0;
  for (const auto& m : matchers) {
    db_pages = std::max<double>(db_pages, m->db().buffer_pool()->disk()->NumPages());
  }
  rep->Stamp("dataset", "XMarkLike factor " + std::to_string(gen_options.factor));
  rep->Stamp("nodes", g.NumNodes());
  rep->Stamp("edges", static_cast<double>(g.NumEdges()));
  rep->Stamp("copies", kCopies);
  rep->Stamp("patterns", cases.size() / kCopies);
  rep->Stamp("engine", "DPS");
  rep->Stamp("reference_engine", "DP");
  rep->Stamp("threads", 1);
  rep->Stamp("shards", 0);
  rep->Stamp("buffer_pool_bytes", db_options.buffer_pool_bytes);
  rep->Stamp("pool_pages", matchers[0]->db().buffer_pool()->num_frames());
  rep->Stamp("db_pages_max_copy", db_pages);
  rep->Stamp("code_cache_entries", db_options.code_cache_capacity);
  rep->Stamp("plan_cache", "off");
  rep->Stamp("result_cache", "off");

  if (!o.trace) {
    RunPasses(cases, 0, 1, rep);  // warm-up
    // At least 5 passes: >= 400 executions, 20 of them beyond the p95.
    SuiteTimes t = RunPasses(cases, o.seconds, 5, rep);
    rep->Set("setup_s", Median(setup_s));
    SetSuiteMetrics(t, cases.size(), rep);
    return;
  }

  // Traced: plain passes first (the tracing-overhead baseline), then
  // traced passes with the outside layer calls.
  double cover_s = 0;
  const double cover = TimeCoverBuild(g, &cover_s);
  RunPasses(cases, 0, 1, rep);  // warm-up
  SuiteTimes plain = RunPasses(cases, o.seconds / 2, 1, rep);
  LayerTotals lt;
  RunTracedPasses(cases, o.seconds / 2, &lt, rep);
  SetLayerMetrics(lt, rep);
  rep->Set("gdb.build_s", build_s / kCopies);
  rep->Set("reach.cover_build_s", cover_s);
  rep->Set("reach.cover_per_node", cover / g.NumNodes());
  rep->Set("trace.overhead_frac", TraceOverhead(plain.pass_s, lt.pass_s));
}

}  // namespace perfbench
