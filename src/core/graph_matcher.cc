#include "core/graph_matcher.h"

#include <algorithm>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/timer.h"

#include "exec/naive_matcher.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "opt/cost_model.h"
#include "opt/dp_optimizer.h"
#include "opt/dps_optimizer.h"
#include "opt/wcoj_planner.h"

namespace fgpm {

namespace {

struct MatcherMetrics {
  obs::Counter* queries;
  obs::Counter* slow_queries;
  obs::Counter* plan_cache_hits;
  obs::Counter* plan_cache_misses;
  obs::Counter* plan_cache_evictions;
  obs::Counter* cache_invalidations;
  obs::Counter* result_cache_hits;
  obs::Counter* result_cache_misses;
  obs::Counter* result_cache_evictions;
  obs::Counter* result_cache_inserts;
  obs::Gauge* result_cache_bytes;
  obs::Counter* batch_queries;
  obs::Counter* batch_dedup_hits;
  obs::Histogram* latency_usec;

  static const MatcherMetrics& Get() {
    static const MatcherMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      MatcherMetrics e;
      e.queries =
          r.GetCounter("fgpm_match_queries_total", "GraphMatcher::Match calls");
      e.slow_queries = r.GetCounter(
          "fgpm_slow_queries_total",
          "Queries slower than ExecOptions::slow_query_ms");
      e.plan_cache_hits =
          r.GetCounter("fgpm_plan_cache_hits_total", "Plan cache hits");
      e.plan_cache_misses =
          r.GetCounter("fgpm_plan_cache_misses_total", "Plan cache misses");
      e.plan_cache_evictions = r.GetCounter("fgpm_plan_cache_evictions_total",
                                            "Plan cache LRU evictions");
      e.cache_invalidations = r.GetCounter(
          "fgpm_cache_invalidations_total",
          "Plan + result cache invalidations (epoch moves and explicit)");
      e.result_cache_hits = r.GetCounter("fgpm_result_cache_hits_total",
                                         "Result cache exact hits");
      e.result_cache_misses = r.GetCounter("fgpm_result_cache_misses_total",
                                           "Result cache misses");
      e.result_cache_evictions = r.GetCounter(
          "fgpm_result_cache_evictions_total", "Result cache LRU evictions");
      e.result_cache_inserts = r.GetCounter("fgpm_result_cache_inserts_total",
                                            "Result cache inserts");
      e.result_cache_bytes = r.GetGauge("fgpm_result_cache_bytes",
                                        "Result cache resident bytes");
      e.batch_queries = r.GetCounter("fgpm_batch_queries_total",
                                     "Queries submitted via MatchBatch");
      e.batch_dedup_hits = r.GetCounter(
          "fgpm_batch_dedup_hits_total",
          "Batch queries answered by another member's canonical duplicate");
      e.latency_usec =
          r.GetHistogram("fgpm_match_latency_usec",
                         "End-to-end match time, optimize + execute (us)");
      return e;
    }();
    return m;
  }
};

// True when a pattern's node numbering already is its canonical one
// (always so for the canonical patterns MatchBatch runs): rows then
// need no column permutation between the caller's and the cache's
// node order.
bool IsCanonicalNumbering(const CanonicalForm& canon) {
  for (size_t i = 0; i < canon.node_map.size(); ++i) {
    if (canon.node_map[i] != i) return false;
  }
  return true;
}

}  // namespace

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kDps:
      return "DPS";
    case Engine::kDp:
      return "DP";
    case Engine::kCanonical:
      return "CANONICAL";
    case Engine::kIntDp:
      return "INT-DP";
    case Engine::kTsd:
      return "TSD";
    case Engine::kNaive:
      return "NAIVE";
  }
  return "?";
}

Result<std::unique_ptr<GraphMatcher>> GraphMatcher::Create(
    const Graph* g, GraphDatabaseOptions db_options,
    ExecOptions exec_options) {
  if (g == nullptr || !g->finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  auto db = std::make_unique<GraphDatabase>(db_options);
  FGPM_RETURN_IF_ERROR(db->Build(*g));
  return std::unique_ptr<GraphMatcher>(
      new GraphMatcher(g, std::move(db), exec_options));
}

Result<std::unique_ptr<GraphMatcher>> GraphMatcher::FromDatabase(
    std::unique_ptr<GraphDatabase> db, const Graph* g,
    ExecOptions exec_options) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  return std::unique_ptr<GraphMatcher>(
      new GraphMatcher(g, std::move(db), exec_options));
}

Result<Plan> GraphMatcher::MakePlan(const Pattern& pattern, Engine engine) const {
  // Cost the plan for the representation it runs under: fetches write
  // delta pairs instead of full-width rows, so wide intermediates stop
  // dominating the estimates.
  CostParams params;
  params.factorized = true;
  const JoinStrategy strategy = executor_.options().join_strategy;
  // kWcoj forces a pure bind-per-vertex plan; kHybrid hands bind-moves
  // to the cost-based searches, which mix them freely with binary
  // R-join moves (and never use them on acyclic patterns).
  if (strategy == JoinStrategy::kWcoj &&
      (engine == Engine::kDps || engine == Engine::kDp ||
       engine == Engine::kCanonical)) {
    return MakeWcojPlan(pattern, db_->catalog(), params);
  }
  switch (engine) {
    case Engine::kDps:
      return OptimizeDps(pattern, db_->catalog(), params, strategy);
    case Engine::kDp:
      return OptimizeDp(pattern, db_->catalog(), params, strategy);
    case Engine::kCanonical:
      return MakeCanonicalPlan(pattern);
    default:
      return Status::InvalidArgument(
          "planning is only meaningful for DPS/DP/CANONICAL");
  }
}

const Plan* GraphMatcher::LookupPlan(const std::string& key) {
  const Plan* plan = plan_cache_.Get(key);
  if (plan == nullptr) {
    ++plan_cache_misses_;
    if (obs::Enabled()) MatcherMetrics::Get().plan_cache_misses->Increment();
  } else {
    ++plan_cache_hits_;
    if (obs::Enabled()) MatcherMetrics::Get().plan_cache_hits->Increment();
  }
  return plan;
}

void GraphMatcher::CachePlan(const std::string& key, Plan plan) {
  const uint64_t evictions = plan_cache_.evictions();
  plan_cache_.Put(key, std::move(plan), /*weight=*/1);
  if (obs::Enabled()) {
    MatcherMetrics::Get().plan_cache_evictions->Increment(
        plan_cache_.evictions() - evictions);
  }
}

Result<const Plan*> GraphMatcher::ResolvePlan(const Pattern& pattern,
                                              const CanonicalForm& canon,
                                              const MatchOptions& options,
                                              Plan* storage,
                                              double* optimize_ms) {
  WallTimer opt_timer;
  std::string cache_key;
  const Plan* plan = nullptr;
  if (options.use_plan_cache) {
    // The key must cover everything MakePlan's output depends on: the
    // engine and the join strategy (which changes which plan is optimal
    // for the same pattern). The pattern part is the canonical key, so
    // every spelling of a pattern (edge order, chain grouping, node
    // numbering) shares one entry.
    cache_key = std::string(EngineName(options.engine)) + "|" +
                JoinStrategyName(executor_.options().join_strategy) + "|" +
                canon.key;
    const Plan* cached = LookupPlan(cache_key);
    if (cached != nullptr) {
      // Cached plans live in canonical coordinates; translate node ids
      // and edge indexes into the caller's numbering.
      *storage =
          RemapPlan(*cached, canon.InverseNodeMap(), canon.InverseEdgeMap());
      plan = storage;
    }
  }
  if (plan == nullptr) {
    FGPM_ASSIGN_OR_RETURN(*storage, MakePlan(pattern, options.engine));
    if (options.use_plan_cache && plan_cache_capacity() > 0) {
      CachePlan(cache_key,
                RemapPlan(*storage, canon.node_map, canon.edge_map));
    }
    plan = storage;
  }
  *optimize_ms = opt_timer.ElapsedMillis();
  return plan;
}

void GraphMatcher::InvalidatePlanCache() {
  ClearPlanCache();
  ++cache_invalidations_;
  if (obs::Enabled()) MatcherMetrics::Get().cache_invalidations->Increment();
}

void GraphMatcher::ClearResultCache() {
  if (result_cache_ == nullptr) return;
  result_cache_->Clear();
  SyncResultCacheMetrics();
}

ResultCache* GraphMatcher::EnsureResultCache() {
  if (result_cache_ == nullptr) {
    result_cache_ = std::make_unique<ResultCache>(
        executor_.options().result_cache_mb << 20);
  }
  return result_cache_.get();
}

void GraphMatcher::CheckEpoch() {
  const uint64_t now = db_->epoch();
  if (now == seen_epoch_) return;
  // ApplyEdgeInsert changed reachability and statistics: cached plans
  // are stale estimates, cached rows are stale answers.
  seen_epoch_ = now;
  InvalidatePlanCache();
  ClearResultCache();
}

void GraphMatcher::SyncResultCacheMetrics() {
  if (!obs::Enabled() || result_cache_ == nullptr) return;
  const MatcherMetrics& m = MatcherMetrics::Get();
  auto delta = [](uint64_t now, uint64_t* prev) {
    const uint64_t d = now - *prev;
    *prev = now;
    return d;
  };
  m.result_cache_hits->Increment(
      delta(result_cache_->hits_exact(), &synced_.hits_exact));
  m.result_cache_misses->Increment(
      delta(result_cache_->misses(), &synced_.misses));
  m.result_cache_evictions->Increment(
      delta(result_cache_->evictions(), &synced_.evictions));
  m.result_cache_inserts->Increment(
      delta(result_cache_->inserts(), &synced_.inserts));
  m.result_cache_bytes->Set(static_cast<double>(result_cache_->bytes()));
}

bool GraphMatcher::TryResultCache(const CanonicalForm& canon,
                                  RowBlock* rows) {
  ResultCache* cache = result_cache_.get();
  if (cache == nullptr) return false;
  const RowBlock* e = cache->LookupExact(canon.key);
  if (e == nullptr) {
    obs::RecordFlight(obs::FlightEvent::kCacheMiss);
    SyncResultCacheMetrics();
    return false;
  }
  *rows = *e;
  obs::RecordFlight(obs::FlightEvent::kCacheHit, e->size());
  SyncResultCacheMetrics();
  return true;
}

void GraphMatcher::RecordQuery(const Pattern& pattern, Engine engine,
                               const ExecStats& stats) {
  if (obs::Enabled()) {
    const MatcherMetrics& m = MatcherMetrics::Get();
    m.queries->Increment();
    m.latency_usec->Observe(static_cast<uint64_t>(stats.elapsed_ms * 1e3));
  }
  // The slow-query log is a diagnostic feature gated only on the
  // slow_query_ms threshold — it works even with obs disabled or
  // compiled out; only the registry counter depends on obs.
  const double threshold = executor_.options().slow_query_ms;
  if (threshold >= 0 && stats.elapsed_ms >= threshold) {
    if (obs::Enabled()) {
      MatcherMetrics::Get().slow_queries->Increment();
    }
    obs::RecordFlight(obs::FlightEvent::kSlowQuery,
                      static_cast<uint64_t>(stats.elapsed_ms * 1e3));
    if (slow_queries_.size() >= kSlowLogCapacity) {
      slow_queries_.pop_front();
    }
    slow_queries_.push_back({pattern.ToString(), engine, stats.elapsed_ms,
                             stats.optimize_ms, stats.result_rows});
  }
}

Result<MatchResult> GraphMatcher::Match(const Pattern& pattern,
                                        MatchOptions options) {
  FGPM_RETURN_IF_ERROR(pattern.Validate());
  const Pattern* effective = &pattern;
  Pattern reduced;
  if (options.transitive_reduction) {
    reduced = pattern.TransitiveReduction();
    effective = &reduced;
  }

  // Shared postlude: metrics + slow-query log, then projection.
  auto finish = [&](MatchResult result) {
    RecordQuery(*effective, options.engine, result.stats);
    return Project(std::move(result), *effective, options);
  };

  switch (options.engine) {
    case Engine::kDps:
    case Engine::kDp:
    case Engine::kCanonical: {
      CheckEpoch();
      WallTimer total;
      CanonicalForm canon = Canonicalize(*effective);
      const bool use_cache = executor_.options().use_result_cache;
      if (use_cache) EnsureResultCache();
      // An exact result-cache hit needs no plan: probe before planning.
      if (use_cache) {
        RowBlock canon_rows;
        if (TryResultCache(canon, &canon_rows)) {
          MatchResult result;
          // Cached rows are in canonical node order; permute into this
          // spelling's numbering (node i lives in canonical column
          // node_map[i]).
          for (PatternNodeId i = 0; i < effective->num_nodes(); ++i) {
            result.column_labels.push_back(effective->label(i));
          }
          result.rows = IsCanonicalNumbering(canon)
                            ? std::move(canon_rows)
                            : canon_rows.SelectColumns(canon.node_map);
          result.stats.cache_hit = 1;
          result.stats.result_rows = result.rows.size();
          result.stats.elapsed_ms = total.ElapsedMillis();
          return finish(std::move(result));
        }
      }
      fgpm::Plan storage;
      double optimize_ms = 0;
      FGPM_ASSIGN_OR_RETURN(
          const fgpm::Plan* plan,
          ResolvePlan(*effective, canon, options, &storage, &optimize_ms));
      FGPM_ASSIGN_OR_RETURN(MatchResult result,
                            executor_.Execute(*effective, *plan));
      // Like the paper, reported elapsed time covers optimization AND
      // processing.
      result.stats.optimize_ms = optimize_ms;
      result.stats.elapsed_ms += optimize_ms;
      if (use_cache) {
        // Canonical column c holds the node the inverse map names.
        result_cache_->Insert(
            canon.key, IsCanonicalNumbering(canon)
                           ? result.rows
                           : result.rows.SelectColumns(canon.InverseNodeMap()));
        SyncResultCacheMetrics();
      }
      return finish(std::move(result));
    }
    case Engine::kIntDp: {
      if (graph_ == nullptr) {
        return Status::FailedPrecondition(
            "INT-DP needs the original graph (matcher opened from a saved "
            "database only)");
      }
      if (!intdp_) {
        intdp_ = std::make_unique<IntDpEngine>(graph_, &db_->catalog());
      }
      FGPM_ASSIGN_OR_RETURN(MatchResult result, intdp_->Match(*effective));
      return finish(std::move(result));
    }
    case Engine::kTsd: {
      if (graph_ == nullptr) {
        return Status::FailedPrecondition(
            "TSD needs the original graph (matcher opened from a saved "
            "database only)");
      }
      if (!tsd_) {
        FGPM_ASSIGN_OR_RETURN(tsd_, TsdEngine::Create(graph_));
      }
      FGPM_ASSIGN_OR_RETURN(MatchResult result, tsd_->Match(*effective));
      return finish(std::move(result));
    }
    case Engine::kNaive: {
      if (graph_ == nullptr) {
        return Status::FailedPrecondition(
            "the naive engine needs the original graph");
      }
      FGPM_ASSIGN_OR_RETURN(MatchResult result,
                            NaiveMatch(*graph_, *effective));
      return finish(std::move(result));
    }
  }
  return Status::InvalidArgument("unknown engine");
}

Result<ExplainAnalyzeResult> GraphMatcher::ExplainAnalyze(
    const Pattern& pattern, MatchOptions options, int trace_level) {
  FGPM_RETURN_IF_ERROR(pattern.Validate());
  if (options.engine != Engine::kDps && options.engine != Engine::kDp &&
      options.engine != Engine::kCanonical) {
    return Status::InvalidArgument(
        "EXPLAIN ANALYZE needs a planned engine (DPS/DP/CANONICAL)");
  }
  const Pattern* effective = &pattern;
  Pattern reduced;
  if (options.transitive_reduction) {
    reduced = pattern.TransitiveReduction();
    effective = &reduced;
  }

  CheckEpoch();
  fgpm::Plan storage;
  double optimize_ms = 0;
  const CanonicalForm canon = Canonicalize(*effective);
  FGPM_ASSIGN_OR_RETURN(
      const fgpm::Plan* plan,
      ResolvePlan(*effective, canon, options, &storage, &optimize_ms));

  // Explain with the exact CostParams the optimizer planned under, so
  // est-vs-actual deltas expose model error, not a configuration skew.
  CostParams params;
  params.factorized = true;
  ExplainAnalyzeResult out;
  FGPM_ASSIGN_OR_RETURN(
      out.explanation,
      ExplainPlan(*effective, *plan, db_->catalog(), params));

  FGPM_ASSIGN_OR_RETURN(
      out.result,
      executor_.Execute(*effective, *plan, std::max(1, trace_level)));
  out.result.stats.optimize_ms = optimize_ms;
  out.result.stats.elapsed_ms += optimize_ms;
  RecordQuery(*effective, options.engine, out.result.stats);

  out.report = out.explanation.ToStringWithActuals(out.result.stats);
  if (out.result.stats.trace) {
    out.chrome_trace_json = out.result.stats.trace->ToChromeJson();
  }
  FGPM_ASSIGN_OR_RETURN(out.result,
                        Project(std::move(out.result), *effective, options));
  return out;
}

Result<ExplainAnalyzeResult> GraphMatcher::ExplainAnalyze(
    std::string_view pattern_text, MatchOptions options, int trace_level) {
  FGPM_ASSIGN_OR_RETURN(Pattern p, Pattern::Parse(pattern_text));
  return ExplainAnalyze(p, options, trace_level);
}

Result<MatchResult> GraphMatcher::Project(MatchResult result,
                                          const Pattern& pattern,
                                          const MatchOptions& options) {
  if (options.projection.empty()) return result;
  std::vector<uint32_t> cols;
  for (const std::string& name : options.projection) {
    bool found = false;
    for (size_t c = 0; c < result.column_labels.size(); ++c) {
      if (result.column_labels[c] == name) {
        cols.push_back(static_cast<uint32_t>(c));
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("projection label '" + name +
                                     "' is not a pattern label");
    }
  }
  (void)pattern;
  MatchResult projected;
  projected.stats = result.stats;
  for (uint32_t c : cols) projected.column_labels.push_back(result.column_labels[c]);
  // Dedup by hashing the projected rows in place: the first occurrence
  // of each distinct row is kept, in order.
  const RowBlock all = result.rows.SelectColumns(cols);
  auto hash = [&](uint32_t r) { return RowHash()(all[r]); };
  auto equal = [&](uint32_t a, uint32_t b) {
    return std::ranges::equal(all[a], all[b]);
  };
  std::unordered_set<uint32_t, decltype(hash), decltype(equal)> seen(
      all.size(), hash, equal);
  projected.rows = RowBlock(cols.size());
  for (uint32_t r = 0; r < all.size(); ++r) {
    if (seen.insert(r).second) projected.rows.Append(all[r]);
  }
  projected.stats.result_rows = projected.rows.size();
  return projected;
}

Result<MatchResult> GraphMatcher::Match(std::string_view pattern_text,
                                        MatchOptions options) {
  FGPM_ASSIGN_OR_RETURN(Pattern p, Pattern::Parse(pattern_text));
  return Match(p, options);
}

Result<std::vector<MatchResult>> GraphMatcher::MatchBatch(
    const std::vector<Pattern>& patterns, MatchOptions options,
    BatchStats* batch_stats) {
  if (options.engine != Engine::kDps && options.engine != Engine::kDp &&
      options.engine != Engine::kCanonical) {
    return Status::InvalidArgument(
        "MatchBatch needs a planned engine (DPS/DP/CANONICAL)");
  }

  // Step 1: canonicalize and dedup. Two spellings of the same pattern
  // (and outright repeats) collapse into one unique query.
  struct Member {
    Pattern reduced;  // storage when transitive_reduction is on
    const Pattern* effective = nullptr;
    CanonicalForm canon;
    size_t unique = 0;
    bool representative = false;
  };
  std::vector<Member> members(patterns.size());
  std::unordered_map<std::string, size_t> unique_of;
  std::vector<const Member*> representatives;
  for (size_t i = 0; i < patterns.size(); ++i) {
    FGPM_RETURN_IF_ERROR(patterns[i].Validate());
    Member& m = members[i];
    m.effective = &patterns[i];
    if (options.transitive_reduction) {
      m.reduced = patterns[i].TransitiveReduction();
      m.effective = &m.reduced;
    }
    m.canon = Canonicalize(*m.effective);
    auto [it, inserted] =
        unique_of.try_emplace(m.canon.key, representatives.size());
    m.unique = it->second;
    m.representative = inserted;
    if (inserted) representatives.push_back(&m);
  }

  // Step 2: one Match per unique pattern, run on its canonical form so
  // the rows come back in canonical node order. Match resolves the plan
  // and probes/fills the result cache itself.
  MatchOptions solo = options;
  solo.transitive_reduction = false;  // already applied in step 1
  solo.projection.clear();            // applied per spelling in step 3
  std::vector<MatchResult> unique_results;
  unique_results.reserve(representatives.size());
  for (const Member* rep : representatives) {
    FGPM_ASSIGN_OR_RETURN(MatchResult r, Match(rep->canon.pattern, solo));
    unique_results.push_back(std::move(r));
  }

  // Step 3: fan the unique answers back out, one column permutation
  // per caller spelling (node n lives in canonical column node_map[n]),
  // then that caller's projection. Repeats beyond the representative
  // read the shared rows like an exact cache hit.
  std::vector<MatchResult> results(patterns.size());
  uint64_t cache_exact = 0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Member& m = members[i];
    const MatchResult& u = unique_results[m.unique];
    MatchResult res;
    res.stats = u.stats;
    if (!m.representative) res.stats.cache_hit = 1;
    const PatternNodeId num_nodes = m.effective->num_nodes();
    for (PatternNodeId n = 0; n < num_nodes; ++n) {
      res.column_labels.push_back(m.effective->label(n));
    }
    res.rows = u.rows.SelectColumns(m.canon.node_map);
    if (res.stats.cache_hit == 1) ++cache_exact;
    FGPM_ASSIGN_OR_RETURN(results[i],
                          Project(std::move(res), *m.effective, options));
  }

  if (batch_stats != nullptr) {
    batch_stats->queries = patterns.size();
    batch_stats->unique_queries = representatives.size();
    batch_stats->cache_exact = cache_exact;
  }
  if (obs::Enabled()) {
    const MatcherMetrics& m = MatcherMetrics::Get();
    m.batch_queries->Increment(patterns.size());
    m.batch_dedup_hits->Increment(patterns.size() - representatives.size());
  }
  return results;
}

Result<std::vector<MatchResult>> GraphMatcher::MatchBatch(
    const std::vector<std::string>& pattern_texts, MatchOptions options,
    BatchStats* batch_stats) {
  std::vector<Pattern> patterns;
  patterns.reserve(pattern_texts.size());
  for (const std::string& text : pattern_texts) {
    FGPM_ASSIGN_OR_RETURN(Pattern p, Pattern::Parse(text));
    patterns.push_back(std::move(p));
  }
  return MatchBatch(patterns, options, batch_stats);
}

}  // namespace fgpm
