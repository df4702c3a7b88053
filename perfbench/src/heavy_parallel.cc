// heavy_parallel: patterns with large outputs at num_threads = 4 through
// GraphMatcher::Match (join strategy kHybrid, plan and result caches
// off). The eight cyclic cells of the repository's WCOJ bench (triangle,
// 4-clique, 5-cycle and diamond on a 4000-node scale-free graph and on a
// 1200-node Erdos-Renyi graph) plus the fig5-style layered path and tree
// of its materialization bench, whose intermediates peak before a sparse
// last edge prunes them. Every buffer pool holds its whole database. References come from join
// strategy kBinary at one thread on a separately built database.
//
// Structures use the generator seeds of those benches; --seed draws
// each graph's node-id permutation (inputs.h).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "inputs.h"
#include "suite.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr unsigned kThreads = 4;
constexpr size_t kPoolBytes = size_t{4} << 20;  // >= 3x the largest database

// A layered DAG for the fig5-style patterns: each pattern edge joins two
// disjoint node groups, every source node (with probability `density`)
// getting `fanout` distinct random targets, so intermediate sizes grow
// geometrically along the chain and collapse at the sparse last edge.
struct LayerEdge {
  int from, to;
  uint32_t fanout;
  double density;
};
struct Layered {
  std::vector<std::pair<std::string, uint32_t>> groups;  // label, width
  std::vector<LayerEdge> edges;

  std::string PatternText() const {
    std::string s;
    for (const LayerEdge& e : edges) {
      if (!s.empty()) s += "; ";
      s += groups[e.from].first + "->" + groups[e.to].first;
    }
    return s;
  }

  fgpm::Graph Build(uint64_t seed) const {
    fgpm::Graph g;
    fgpm::Rng rng(seed);
    std::vector<std::vector<fgpm::NodeId>> ids(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) {
      for (uint32_t k = 0; k < groups[i].second; ++k) {
        ids[i].push_back(g.AddNode(groups[i].first));
      }
    }
    for (const LayerEdge& e : edges) {
      const auto& src = ids[e.from];
      const auto& dst = ids[e.to];
      bool any = false;
      for (size_t i = 0; i < src.size(); ++i) {
        // Keep at least one source so no join is empty.
        if (!rng.NextBernoulli(e.density) && !(i + 1 == src.size() && !any)) {
          continue;
        }
        any = true;
        std::vector<fgpm::NodeId> targets;
        while (targets.size() < e.fanout) {
          fgpm::NodeId v = dst[rng.NextBounded(dst.size())];
          if (std::find(targets.begin(), targets.end(), v) == targets.end()) {
            targets.push_back(v);
          }
        }
        for (fgpm::NodeId v : targets) FGPM_CHECK(g.AddEdge(src[i], v).ok());
      }
    }
    g.Finalize();
    return g;
  }
};

// Six-step fetch chain with fanout f, pruned by a sparse final leaf.
Layered LayeredPath(uint32_t f, uint32_t width) {
  Layered w;
  w.groups = {{"P0", 32},    {"P1", width}, {"P2", width}, {"P3", width},
              {"P4", width}, {"P5", width}, {"P6", 64}};
  for (int i = 0; i + 1 < 6; ++i) w.edges.push_back({i, i + 1, f, 1.0});
  w.edges.push_back({5, 6, 2, 0.05});
  return w;
}

// Fanout-1 attribute leaves keep the intermediate wide, a fanout-f chain
// makes it tall, and a sparse leaf prunes after the peak.
Layered LayeredTree(uint32_t f, uint32_t width) {
  Layered w;
  w.groups = {{"T0", 32},    {"A1", 64},    {"A2", 64},    {"A3", 64},
              {"A4", 64},    {"C1", width}, {"C2", width}, {"C3", width},
              {"C4", width}, {"C5", width}, {"S", 64}};
  for (int i = 1; i <= 4; ++i) w.edges.push_back({0, i, 1, 1.0});
  w.edges.push_back({0, 5, f, 1.0});
  for (int i = 5; i < 9; ++i) w.edges.push_back({i, i + 1, f, 1.0});
  w.edges.push_back({9, 10, 2, 0.05});
  return w;
}

struct PatternSpec {
  const char* name;
  const char* text;
};

// Tournament orientations for the scale-free DAG, directed cycles for
// the cyclic Erdos-Renyi graph (as in the WCOJ bench).
const PatternSpec kScaleFree[] = {
    {"sf_triangle", "L0->L1; L0->L2; L1->L2"},
    {"sf_4clique", "L0->L1; L0->L2; L0->L3; L1->L2; L1->L3; L2->L3"},
    {"sf_5cycle", "L0->L1; L1->L2; L2->L3; L3->L4; L0->L4"},
    {"sf_diamond", "L0->L1; L0->L2; L1->L3; L2->L3"},
};
const PatternSpec kErdosRenyi[] = {
    {"er_triangle", "L0->L1; L1->L2; L2->L0"},
    {"er_4clique", "L0->L1; L1->L2; L2->L3; L3->L0; L0->L2; L1->L3"},
    {"er_5cycle", "L0->L1; L1->L2; L2->L3; L3->L4; L4->L0"},
    {"er_diamond", "L0->L1; L0->L2; L1->L3; L2->L3"},
};

// One data graph with its timed (4-thread hybrid) matcher and its
// reference (1-thread binary) matcher, each over its own database.
struct Dataset {
  std::string name;
  std::unique_ptr<fgpm::Graph> g;
  std::unique_ptr<fgpm::GraphMatcher> timed;
  std::unique_ptr<fgpm::GraphMatcher> reference;
  std::vector<std::pair<std::string, std::string>> patterns;  // name, text
};

std::vector<Dataset> MakeDatasets(bool tiny, uint64_t seed) {
  std::vector<Dataset> out(4);
  const uint32_t sf_nodes = tiny ? 400 : 4000, er_nodes = tiny ? 200 : 1200;
  const uint32_t width = tiny ? 32 : 256;
  out[0].name = "scale_free";
  out[0].g = std::make_unique<fgpm::Graph>(
      Relabel(fgpm::gen::ScaleFree(sf_nodes, 2, 6, 0xc0de), seed));
  for (const PatternSpec& p : kScaleFree) out[0].patterns.emplace_back(p.name, p.text);
  out[1].name = "erdos_renyi";
  out[1].g = std::make_unique<fgpm::Graph>(Relabel(
      fgpm::gen::ErdosRenyi(er_nodes, er_nodes * 6 / 5, 6, 0xc0de + 1),
      seed + 1));
  for (const PatternSpec& p : kErdosRenyi) out[1].patterns.emplace_back(p.name, p.text);
  const Layered path = LayeredPath(8, width), tree = LayeredTree(8, width);
  out[2].name = "layered_path";
  out[2].g = std::make_unique<fgpm::Graph>(Relabel(path.Build(0xfac70), seed + 2));
  out[2].patterns.emplace_back("layered_path", path.PatternText());
  out[3].name = "layered_tree";
  out[3].g =
      std::make_unique<fgpm::Graph>(Relabel(tree.Build(0xfac70 + 1), seed + 3));
  out[3].patterns.emplace_back("layered_tree", tree.PatternText());
  return out;
}

fgpm::ExecOptions ExecFor(unsigned threads, fgpm::JoinStrategy strategy) {
  fgpm::ExecOptions e;
  e.num_threads = threads;
  e.join_strategy = strategy;
  e.plan_cache_capacity = 0;
  e.use_result_cache = false;
  return e;
}

}  // namespace

void RunHeavyParallel(const Options& o, Report* rep) {
  fgpm::GraphDatabaseOptions db_options;
  db_options.buffer_pool_bytes = kPoolBytes;
  const fgpm::ExecOptions timed_exec =
      ExecFor(kThreads, fgpm::JoinStrategy::kHybrid);

  // Set-up: generate every graph and build the timed databases,
  // repeated so setup_s is a median.
  std::vector<Dataset> data;
  std::vector<double> setup_s;
  double build_s = 0;
  const int setups = o.trace ? 1 : 15;
  for (int k = 0; k < setups; ++k) {
    data.clear();
    build_s = 0;
    const auto t0 = Clock::now();
    data = MakeDatasets(o.tiny, o.seed);
    for (Dataset& d : data) {
      d.timed = BuildMatcher(*d.g, db_options, timed_exec, &build_s);
      if (d.timed == nullptr) {
        rep->Wrong("heavy_parallel set-up failed on " + d.name);
        return;
      }
    }
    setup_s.push_back(SecondsSince(t0));
  }

  fgpm::MatchOptions match_options;
  match_options.use_plan_cache = false;
  std::vector<Case> cases;
  double ref_build_s = 0;
  size_t max_db_pages = 0;
  for (Dataset& d : data) {
    d.reference = BuildMatcher(*d.g, db_options,
                               ExecFor(1, fgpm::JoinStrategy::kBinary),
                               &ref_build_s);
    if (d.reference == nullptr) {
      rep->Wrong("heavy_parallel reference build failed on " + d.name);
      return;
    }
    const size_t pages = d.timed->db().buffer_pool()->disk()->NumPages();
    max_db_pages = std::max(max_db_pages, pages);
    std::fprintf(stderr, "heavy_parallel: %s %zu nodes, %zu edges, %zu pages\n",
                 d.name.c_str(), d.g->NumNodes(), d.g->NumEdges(), pages);
    for (const auto& [name, text] : d.patterns) {
      auto p = fgpm::Pattern::Parse(text);
      FGPM_CHECK(p.ok());
      Case c;
      c.name = name;
      c.matcher = d.timed.get();
      c.pattern = std::move(*p);
      c.options = match_options;
      cases.push_back(std::move(c));
    }
  }
  // Case i belongs to the dataset whose timed matcher it runs on.
  auto reference_of = [&](const Case& c) -> fgpm::GraphMatcher* {
    for (Dataset& d : data) {
      if (d.timed.get() == c.matcher) return d.reference.get();
    }
    return nullptr;
  };
  const auto ref0 = Clock::now();
  ComputeReferences(
      &cases,
      [&](size_t i) {
        return reference_of(cases[i])->Match(cases[i].pattern, match_options);
      },
      rep);
  std::fprintf(stderr, "heavy_parallel: kBinary 1-thread references in %.2f s\n",
               SecondsSince(ref0));
  const size_t pool_pages = data[0].timed->db().buffer_pool()->num_frames();
  if (max_db_pages > pool_pages) {
    rep->Wrong("a database is larger than its buffer pool");
  }
  uint64_t max_rows = 0;
  for (const Case& c : cases) max_rows = std::max(max_rows, c.ref_rows);

  rep->Stamp("datasets", "scale_free, erdos_renyi, layered_path, layered_tree");
  rep->Stamp("patterns", cases.size());
  rep->Stamp("engine", "DPS, join strategy hybrid");
  rep->Stamp("reference_engine", "DPS, join strategy binary, 1 thread");
  rep->Stamp("threads", kThreads);
  rep->Stamp("shards", 0);
  rep->Stamp("buffer_pool_bytes", kPoolBytes);
  rep->Stamp("pool_pages", pool_pages);
  rep->Stamp("db_pages_max", max_db_pages);
  rep->Stamp("code_cache_entries", db_options.code_cache_capacity);
  rep->Stamp("plan_cache", "off");
  rep->Stamp("result_cache", "off");
  rep->Stamp("max_result_rows", static_cast<double>(max_rows));

  if (!o.trace) {
    RunPasses(cases, 0, 1, rep);  // warm-up: fills every pool
    // At least 40 passes: >= 400 executions, 20 of them beyond the p95.
    SuiteTimes t = RunPasses(cases, o.seconds, 40, rep);
    rep->Set("setup_s", Median(setup_s));
    SetSuiteMetrics(t, cases.size(), rep);
    for (size_t i = 0; i < cases.size(); ++i) {
      std::fprintf(stderr, "  %-14s %9llu rows  exec p50 %8.2f ms\n",
                   cases[i].name.c_str(), (unsigned long long)cases[i].ref_rows,
                   Median(t.case_exec_ms[i]));
    }
    return;
  }

  // Traced: plain passes (tracing-overhead baseline), traced passes,
  // then the same cases at one thread with the same join strategy.
  double cover_s = 0, cover = 0, nodes = 0;
  for (const Dataset& d : data) {
    cover += TimeCoverBuild(*d.g, &cover_s);
    nodes += d.g->NumNodes();
  }
  RunPasses(cases, 0, 1, rep);  // warm-up
  SuiteTimes plain = RunPasses(cases, o.seconds / 3, 1, rep);
  LayerTotals lt;
  RunTracedPasses(cases, o.seconds / 3, &lt, rep);
  SetLayerMetrics(lt, rep);
  rep->Set("gdb.build_s", build_s);
  rep->Set("reach.cover_build_s", cover_s);
  rep->Set("reach.cover_per_node", cover / nodes);
  rep->Set("trace.overhead_frac", TraceOverhead(plain.pass_s, lt.pass_s));

  std::vector<Case> serial = cases;
  for (Case& c : serial) {
    c.matcher = reference_of(c);
    c.matcher->set_join_strategy(fgpm::JoinStrategy::kHybrid);
  }
  SuiteTimes one = RunPasses(serial, o.seconds / 3, 1, rep);
  double sum4 = 0, sum1 = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<double> four = plain.case_exec_ms[i];
    four.insert(four.end(), lt.case_exec_ms[i].begin(),
                lt.case_exec_ms[i].end());
    const double t4 = Median(four), t1 = Median(one.case_exec_ms[i]);
    sum4 += t4;
    sum1 += t1;
    rep->Set("exec.t4_over_t1." + cases[i].name, t1 > 0 ? t4 / t1 : 0);
    std::fprintf(stderr, "  %-14s exec p50 %8.2f ms at %u threads, %8.2f ms at 1\n",
                 cases[i].name.c_str(), t4, kThreads, t1);
  }
  rep->Set("exec.t4_over_t1", sum1 > 0 ? sum4 / sum1 : 0);
}

}  // namespace perfbench
