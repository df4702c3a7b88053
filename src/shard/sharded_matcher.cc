#include "shard/sharded_matcher.h"

#include <algorithm>

#include "common/hash.h"
#include "common/sorted_vector.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "shard/partition.h"

namespace fgpm {

namespace {

struct ShardMetrics {
  obs::Counter* single;
  obs::Counter* cross;
  obs::Counter* subqueries;
  obs::Counter* filters;
  obs::Counter* filter_ids;
  obs::Counter* cluster_fetches;
  obs::Counter* probe_pairs;
  static ShardMetrics& Get() {
    static ShardMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      ShardMetrics m;
      m.single = r.GetCounter("fgpm_shard_single_total",
                              "Queries answered by one shard");
      m.cross = r.GetCounter("fgpm_shard_cross_total",
                             "Queries scatter-gathered across shards");
      m.subqueries = r.GetCounter("fgpm_shard_subqueries_total",
                                  "Shard-local sub-pattern executions");
      m.filters = r.GetCounter("fgpm_shard_filters_shipped_total",
                               "Semijoin center filters shipped");
      m.filter_ids = r.GetCounter("fgpm_shard_filter_ids_total",
                                  "Center ids inside shipped filters");
      m.cluster_fetches = r.GetCounter("fgpm_shard_cluster_fetches_total",
                                       "Remote F/T subcluster reads");
      m.probe_pairs = r.GetCounter("fgpm_shard_probe_pairs_total",
                                   "Cross-shard code-intersection probes");
      return m;
    }();
    return m;
  }
};

void PublishStats(const CrossShardStats& s) {
  auto& m = ShardMetrics::Get();
  m.subqueries->Increment(s.subqueries);
  m.filters->Increment(s.filters_shipped);
  m.filter_ids->Increment(s.filter_ids);
  m.cluster_fetches->Increment(s.cluster_fetches);
  m.probe_pairs->Increment(s.probe_pairs);
}

MatchResult EmptyResult(const Pattern& p) {
  MatchResult r;
  r.column_labels = p.labels();
  r.rows = RowBlock(p.num_nodes());
  return r;
}

}  // namespace

Result<std::unique_ptr<ShardedMatcher>> ShardedMatcher::Create(
    const Graph* g, ShardedMatcherOptions options) {
  if (g == nullptr) return Status::InvalidArgument("graph is null");
  if (!g->finalized()) return Status::FailedPrecondition("graph not finalized");
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::vector<uint32_t> placement = options.label_to_shard;
  if (placement.empty()) {
    placement = PartitionLabelsByExtent(*g, options.num_shards);
  }
  if (placement.size() != g->NumLabels()) {
    return Status::InvalidArgument("label_to_shard size != label count");
  }
  for (uint32_t s : placement) {
    if (s >= options.num_shards) {
      return Status::InvalidArgument("label_to_shard entry out of range");
    }
  }

  auto sm = std::unique_ptr<ShardedMatcher>(
      new ShardedMatcher(g, std::move(placement)));
  sm->shards_.reserve(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    GraphDatabaseOptions dbo = options.db;
    // A single shard owns everything; skip the filter so the database is
    // bit-identical to the unsharded build.
    if (options.num_shards > 1) {
      dbo.owned_labels = OwnedLabelFilter(sm->label_to_shard_, s);
    }
    FGPM_ASSIGN_OR_RETURN(auto matcher,
                          GraphMatcher::Create(g, dbo, options.exec));
    sm->shards_.push_back(std::move(matcher));
  }
  return sm;
}

std::optional<uint32_t> ShardedMatcher::Route(const Pattern& p) const {
  std::optional<uint32_t> home;
  for (const std::string& name : p.labels()) {
    auto l = graph_->FindLabel(name);
    if (!l.has_value()) continue;  // unknown label: empty result anywhere
    uint32_t s = label_to_shard_[*l];
    if (!home.has_value()) {
      home = s;
    } else if (*home != s) {
      return std::nullopt;
    }
  }
  return home.has_value() ? home : std::optional<uint32_t>(0);
}

Result<ShardedMatcher::CrossPlan> ShardedMatcher::PlanCross(
    const Pattern& p) const {
  const size_t n = p.num_nodes();
  // Shard of each pattern node (unknown labels park on shard 0; their
  // empty extent empties the result downstream either way).
  std::vector<uint32_t> node_shard(n, 0);
  for (PatternNodeId i = 0; i < n; ++i) {
    auto l = graph_->FindLabel(p.label(i));
    if (l.has_value()) node_shard[i] = label_to_shard_[*l];
  }

  CrossPlan plan;
  // Union-find over shard-local edges -> shard-local components.
  std::vector<PatternNodeId> parent(n);
  for (PatternNodeId i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](PatternNodeId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<uint8_t> has_local_edge(n, 0);
  for (const PatternEdge& e : p.edges()) {
    if (node_shard[e.from] != node_shard[e.to]) {
      plan.cross_edges.push_back(e);
      continue;
    }
    has_local_edge[e.from] = has_local_edge[e.to] = 1;
    parent[find(e.from)] = find(e.to);
  }

  // Group nodes by component root; nodes without any local edge are
  // bound later by cross-shard expansion instead of a full extent scan.
  std::unordered_map<PatternNodeId, std::vector<PatternNodeId>> comps;
  for (PatternNodeId i = 0; i < n; ++i) {
    if (!has_local_edge[i]) {
      plan.isolated.push_back(i);
      continue;
    }
    comps[find(i)].push_back(i);
  }

  for (auto& [root, nodes] : comps) {
    CrossSub sub;
    sub.shard = node_shard[root];
    std::sort(nodes.begin(), nodes.end());
    std::unordered_map<PatternNodeId, PatternNodeId> to_sub;
    for (PatternNodeId i : nodes) {
      to_sub[i] = sub.pattern.AddNode(p.label(i));
      sub.cols.push_back(i);
    }
    for (const PatternEdge& e : p.edges()) {
      auto f = to_sub.find(e.from), t = to_sub.find(e.to);
      if (f == to_sub.end() || t == to_sub.end()) continue;
      if (node_shard[e.from] != node_shard[e.to]) continue;  // cross edge
      FGPM_RETURN_IF_ERROR(sub.pattern.AddEdge(f->second, t->second));
    }
    plan.subs.push_back(std::move(sub));
  }
  // Deterministic sub order (comps iteration order is hash-dependent).
  std::sort(plan.subs.begin(), plan.subs.end(),
            [](const CrossSub& a, const CrossSub& b) {
              return a.cols.front() < b.cols.front();
            });
  return plan;
}

Status ShardedMatcher::Codes(PatternNodeId u, NodeId v, bool out_side,
                             CodeMemo* memo,
                             const std::vector<LabelId>& labels,
                             const std::vector<CenterId>** codes) {
  auto& map = out_side ? memo->out : memo->in;
  auto it = map.find(v);
  if (it == map.end()) {
    GraphCodeRecord rec;
    GraphMatcher* owner = shards_[label_to_shard_[labels[u]]].get();
    FGPM_RETURN_IF_ERROR(owner->db().GetCodes(v, labels[u], &rec));
    it = map.emplace(v, out_side ? std::move(rec.out) : std::move(rec.in))
             .first;
  }
  *codes = &it->second;
  return Status::OK();
}

Result<MatchResult> ShardedMatcher::JoinCross(const Pattern& p,
                                              const CrossPlan& plan,
                                              std::vector<MatchResult> subs,
                                              CrossShardStats* stats) {
  CrossShardStats local_stats;
  CrossShardStats* cs = stats != nullptr ? stats : &local_stats;
  cs->cross_edges += plan.cross_edges.size();
  WallTimer timer;

  const size_t n = p.num_nodes();
  // Resolve labels; an unknown label empties the result by definition.
  std::vector<LabelId> labels(n, 0);
  for (PatternNodeId i = 0; i < n; ++i) {
    auto l = graph_->FindLabel(p.label(i));
    if (!l.has_value()) {
      PublishStats(*cs);
      return EmptyResult(p);
    }
    labels[i] = *l;
  }
  for (const MatchResult& sub : subs) {
    if (sub.rows.empty()) {
      PublishStats(*cs);
      return EmptyResult(p);
    }
  }
  if (subs.size() != plan.subs.size()) {
    return Status::Internal("sub-result count disagrees with plan");
  }

  CodeMemo memo;
  // Working table: col_of[i] = column of pattern node i (-1 = unbound);
  // rows.width() == num_bound.
  std::vector<int> col_of(n, -1);
  RowBlock rows;
  size_t num_bound = 0;

  auto shard_of = [&](PatternNodeId u) { return label_to_shard_[labels[u]]; };
  auto wcenters = [&](PatternNodeId u, PatternNodeId v,
                      std::vector<CenterId>* scratch)
      -> Result<std::span<const CenterId>> {
    // Either endpoint's shard holds the full W-table; read the from-side.
    return shards_[shard_of(u)]->db().wtable().LookupSpan(labels[u], labels[v],
                                                          scratch);
  };

  auto bind_sub = [&](size_t k) {
    const CrossSub& s = plan.subs[k];
    for (size_t c = 0; c < s.cols.size(); ++c) {
      col_of[s.cols[c]] = static_cast<int>(num_bound + c);
    }
    num_bound += s.cols.size();
  };

  std::vector<uint8_t> edge_done(plan.cross_edges.size(), 0);
  std::vector<uint8_t> sub_merged(plan.subs.size(), 0);

  // --- seed -------------------------------------------------------------
  if (!plan.subs.empty()) {
    size_t seed = 0;
    for (size_t k = 1; k < subs.size(); ++k) {
      if (subs[k].rows.size() < subs[seed].rows.size()) seed = k;
    }
    bind_sub(seed);
    rows = std::move(subs[seed].rows);
    sub_merged[seed] = 1;
    cs->subqueries += plan.subs.size();
  } else {
    // Every edge crosses shards: materialize one cross edge HPSJ-style
    // from both shards' subcluster spans per shared center.
    const PatternEdge& e = plan.cross_edges.front();
    std::vector<CenterId> wscratch;
    FGPM_ASSIGN_OR_RETURN(std::span<const CenterId> W,
                          wcenters(e.from, e.to, &wscratch));
    cs->filters_shipped += 1;
    cs->filter_ids += W.size();
    std::vector<uint64_t> pairs;
    std::vector<NodeId> fbuf, tbuf;
    for (CenterId w : W) {
      FGPM_RETURN_IF_ERROR(
          shards_[shard_of(e.from)]->db().rjoin_index().GetF(w, labels[e.from],
                                                             &fbuf));
      FGPM_RETURN_IF_ERROR(
          shards_[shard_of(e.to)]->db().rjoin_index().GetT(w, labels[e.to],
                                                           &tbuf));
      cs->cluster_fetches += 2;
      for (NodeId a : fbuf) {
        for (NodeId b : tbuf) pairs.push_back(PackPair(a, b));
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    col_of[e.from] = 0;
    col_of[e.to] = 1;
    num_bound = 2;
    rows = RowBlock(2);
    rows.Reserve(pairs.size());
    for (uint64_t pr : pairs) rows.Append({PairFirst(pr), PairSecond(pr)});
    edge_done.front() = 1;
  }

  // --- filter: apply a cross edge whose endpoints are both bound --------
  auto apply_filter = [&](const PatternEdge& e) -> Status {
    const int cu = col_of[e.from], cv = col_of[e.to];
    std::unordered_map<uint64_t, bool> verdict;
    RowBlock kept(rows.width());
    for (RowBlock::Row row : rows) {
      uint64_t key = PackPair(row[cu], row[cv]);
      auto it = verdict.find(key);
      if (it == verdict.end()) {
        const std::vector<CenterId>* out_c;
        const std::vector<CenterId>* in_c;
        FGPM_RETURN_IF_ERROR(
            Codes(e.from, row[cu], /*out_side=*/true, &memo, labels, &out_c));
        FGPM_RETURN_IF_ERROR(
            Codes(e.to, row[cv], /*out_side=*/false, &memo, labels, &in_c));
        cs->probe_pairs += 1;
        it = verdict.emplace(key, SortedIntersects(*out_c, *in_c)).first;
      }
      if (it->second) kept.Append(row);
    }
    rows = std::move(kept);
    return Status::OK();
  };

  // Verified (a, b) pairs of a cross edge, computed by shipping the
  // bound side's per-value center filters and probing the other side's
  // codes against them — never by enumerating the row cross-product.
  auto verified_pairs =
      [&](const PatternEdge& e, const std::vector<NodeId>& from_vals,
          const std::vector<NodeId>& to_vals,
          std::vector<uint64_t>* pairs) -> Status {
    std::vector<CenterId> wscratch;
    FGPM_ASSIGN_OR_RETURN(std::span<const CenterId> W,
                          wcenters(e.from, e.to, &wscratch));
    // center -> indexes into from_vals whose shipped filter contains it.
    std::unordered_map<CenterId, std::vector<uint32_t>> by_center;
    std::vector<CenterId> active;
    std::vector<CenterId> fa;
    for (uint32_t ai = 0; ai < from_vals.size(); ++ai) {
      const std::vector<CenterId>* out_c;
      FGPM_RETURN_IF_ERROR(Codes(e.from, from_vals[ai], /*out_side=*/true,
                                 &memo, labels, &out_c));
      fa.clear();
      SortedIntersectInto(*out_c, W, &fa);
      cs->filters_shipped += 1;
      cs->filter_ids += fa.size();
      for (CenterId w : fa) {
        auto [it, inserted] = by_center.try_emplace(w);
        if (inserted) active.push_back(w);
        it->second.push_back(ai);
      }
    }
    std::sort(active.begin(), active.end());
    std::vector<CenterId> hit;
    std::vector<uint32_t> a_hits;
    for (NodeId b : to_vals) {
      const std::vector<CenterId>* in_c;
      FGPM_RETURN_IF_ERROR(
          Codes(e.to, b, /*out_side=*/false, &memo, labels, &in_c));
      hit.clear();
      SortedIntersectInto(*in_c, active, &hit);
      cs->probe_pairs += 1;
      if (hit.empty()) continue;
      a_hits.clear();
      for (CenterId w : hit) {
        const auto& as = by_center[w];
        a_hits.insert(a_hits.end(), as.begin(), as.end());
      }
      std::sort(a_hits.begin(), a_hits.end());
      a_hits.erase(std::unique(a_hits.begin(), a_hits.end()), a_hits.end());
      for (uint32_t ai : a_hits) pairs->push_back(PackPair(from_vals[ai], b));
    }
    return Status::OK();
  };

  auto distinct_column = [](const RowBlock& rws, int col) {
    std::vector<NodeId> vals;
    vals.reserve(rws.size());
    for (RowBlock::Row r : rws) vals.push_back(r[col]);
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    return vals;
  };

  // --- merge: join an unmerged sub-result in through cross edge e -------
  auto merge_sub = [&](const PatternEdge& e, size_t k) -> Status {
    const CrossSub& s = plan.subs[k];
    MatchResult& sub = subs[k];
    // Column of the linking node on each side.
    const bool from_in_working = col_of[e.from] >= 0;
    const PatternNodeId wnode = from_in_working ? e.from : e.to;
    const PatternNodeId snode = from_in_working ? e.to : e.from;
    int scol = -1;
    for (size_t c = 0; c < s.cols.size(); ++c) {
      if (s.cols[c] == snode) scol = static_cast<int>(c);
    }
    if (scol < 0) return Status::Internal("merge node not in sub");
    const int wcol = col_of[wnode];

    std::vector<NodeId> wvals = distinct_column(rows, wcol);
    std::vector<NodeId> svals = distinct_column(sub.rows, scol);
    std::vector<uint64_t> pairs;  // PackPair(from value, to value)
    if (from_in_working) {
      FGPM_RETURN_IF_ERROR(verified_pairs(e, wvals, svals, &pairs));
    } else {
      FGPM_RETURN_IF_ERROR(verified_pairs(e, svals, wvals, &pairs));
    }

    // Hash join on the verified pairs only.
    std::unordered_map<NodeId, std::vector<uint32_t>> wrows, srows;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      wrows[rows[i][wcol]].push_back(i);
    }
    for (uint32_t i = 0; i < sub.rows.size(); ++i) {
      srows[sub.rows[i][scol]].push_back(i);
    }
    RowBlock joined(rows.width() + sub.rows.width());
    for (uint64_t pr : pairs) {
      NodeId wv = from_in_working ? PairFirst(pr) : PairSecond(pr);
      NodeId sv = from_in_working ? PairSecond(pr) : PairFirst(pr);
      auto wi = wrows.find(wv);
      auto si = srows.find(sv);
      if (wi == wrows.end() || si == srows.end()) continue;
      for (uint32_t ri : wi->second) {
        for (uint32_t rj : si->second) {
          NodeId* out = joined.AppendUninitialized(1);
          out = std::copy(rows[ri].begin(), rows[ri].end(), out);
          std::copy(sub.rows[rj].begin(), sub.rows[rj].end(), out);
        }
      }
    }
    rows = std::move(joined);
    bind_sub(k);
    sub_merged[k] = 1;
    return Status::OK();
  };

  // --- expand: bind an isolated node through cross edge e ---------------
  auto expand = [&](const PatternEdge& e) -> Status {
    const bool forward = col_of[e.from] >= 0;  // bound -> unbound direction?
    const PatternNodeId bnode = forward ? e.from : e.to;
    const PatternNodeId unode = forward ? e.to : e.from;
    const int bcol = col_of[bnode];
    std::vector<CenterId> wscratch;
    FGPM_ASSIGN_OR_RETURN(std::span<const CenterId> W,
                          wcenters(e.from, e.to, &wscratch));

    // Shipped filter per distinct bound value, plus the union of its
    // centers to fetch each remote subcluster exactly once.
    std::vector<NodeId> bvals = distinct_column(rows, bcol);
    std::unordered_map<NodeId, std::vector<CenterId>> filt;
    std::vector<CenterId> needed;
    for (NodeId a : bvals) {
      const std::vector<CenterId>* code;
      FGPM_RETURN_IF_ERROR(
          Codes(bnode, a, /*out_side=*/forward, &memo, labels, &code));
      std::vector<CenterId> fa;
      SortedIntersectInto(*code, W, &fa);
      cs->filters_shipped += 1;
      cs->filter_ids += fa.size();
      needed.insert(needed.end(), fa.begin(), fa.end());
      filt.emplace(a, std::move(fa));
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

    const RJoinIndex& idx = shards_[shard_of(unode)]->db().rjoin_index();
    std::unordered_map<CenterId, std::vector<NodeId>> cluster;
    std::vector<NodeId> cbuf;
    for (CenterId w : needed) {
      if (forward) {
        FGPM_RETURN_IF_ERROR(idx.GetT(w, labels[unode], &cbuf));
      } else {
        FGPM_RETURN_IF_ERROR(idx.GetF(w, labels[unode], &cbuf));
      }
      cs->cluster_fetches += 1;
      cluster.emplace(w, cbuf);
    }

    // Candidate set per distinct bound value (dedup'd), then extend.
    std::unordered_map<NodeId, std::vector<NodeId>> cands;
    for (NodeId a : bvals) {
      std::vector<NodeId> c;
      for (CenterId w : filt[a]) {
        const auto& cl = cluster[w];
        c.insert(c.end(), cl.begin(), cl.end());
      }
      std::sort(c.begin(), c.end());
      c.erase(std::unique(c.begin(), c.end()), c.end());
      cands.emplace(a, std::move(c));
    }
    RowBlock extended(rows.width() + 1);
    for (RowBlock::Row row : rows) {
      const auto& c = cands[row[bcol]];
      for (NodeId b : c) {
        NodeId* out = extended.AppendUninitialized(1);
        *std::copy(row.begin(), row.end(), out) = b;
      }
    }
    rows = std::move(extended);
    col_of[unode] = static_cast<int>(num_bound);
    ++num_bound;
    return Status::OK();
  };

  // --- drive ------------------------------------------------------------
  while (true) {
    // Filters first: they only shrink the table.
    for (size_t i = 0; i < plan.cross_edges.size(); ++i) {
      const PatternEdge& e = plan.cross_edges[i];
      if (edge_done[i] || col_of[e.from] < 0 || col_of[e.to] < 0) continue;
      FGPM_RETURN_IF_ERROR(apply_filter(e));
      edge_done[i] = 1;
    }
    if (num_bound == n) break;
    if (rows.empty()) break;

    // Prefer merging a computed sub-result; fall back to expansion.
    int pick = -1, pick_sub = -1;
    int expand_pick = -1;
    for (size_t i = 0; i < plan.cross_edges.size() && pick < 0; ++i) {
      const PatternEdge& e = plan.cross_edges[i];
      const bool fb = col_of[e.from] >= 0, tb = col_of[e.to] >= 0;
      if (fb == tb) continue;  // both bound (done above) or neither
      const PatternNodeId other = fb ? e.to : e.from;
      for (size_t k = 0; k < plan.subs.size(); ++k) {
        if (sub_merged[k]) continue;
        if (std::find(plan.subs[k].cols.begin(), plan.subs[k].cols.end(),
                      other) != plan.subs[k].cols.end()) {
          pick = static_cast<int>(i);
          pick_sub = static_cast<int>(k);
          break;
        }
      }
      if (pick < 0 && expand_pick < 0) expand_pick = static_cast<int>(i);
    }
    if (pick >= 0) {
      FGPM_RETURN_IF_ERROR(
          merge_sub(plan.cross_edges[pick], static_cast<size_t>(pick_sub)));
      edge_done[pick] = 1;
    } else if (expand_pick >= 0) {
      FGPM_RETURN_IF_ERROR(expand(plan.cross_edges[expand_pick]));
      edge_done[expand_pick] = 1;
    } else {
      return Status::Internal("cross-shard join stuck (disconnected plan?)");
    }
  }

  MatchResult result = EmptyResult(p);
  if (num_bound == n && !rows.empty()) {
    std::vector<uint32_t> cols(col_of.begin(), col_of.end());
    result.rows = rows.SelectColumns(cols);
  }
  result.stats.elapsed_ms = timer.ElapsedMillis();
  result.stats.result_rows = result.rows.size();
  PublishStats(*cs);
  return result;
}

Result<MatchResult> ShardedMatcher::Match(const Pattern& p,
                                          MatchOptions options,
                                          CrossShardStats* stats) {
  Pattern query = options.transitive_reduction ? p.TransitiveReduction() : p;
  options.transitive_reduction = false;
  FGPM_RETURN_IF_ERROR(query.Validate());
  std::optional<uint32_t> home = Route(query);
  if (home.has_value()) {
    ShardMetrics::Get().single->Increment();
    return shards_[*home]->Match(query, options);
  }
  if (!options.projection.empty()) {
    return Status::Unimplemented(
        "projection is not supported on the cross-shard path");
  }
  ShardMetrics::Get().cross->Increment();
  FGPM_ASSIGN_OR_RETURN(CrossPlan plan, PlanCross(query));
  std::vector<MatchResult> subs;
  subs.reserve(plan.subs.size());
  for (const CrossSub& sub : plan.subs) {
    FGPM_ASSIGN_OR_RETURN(MatchResult r,
                          shards_[sub.shard]->Match(sub.pattern, options));
    subs.push_back(std::move(r));
  }
  return JoinCross(query, plan, std::move(subs), stats);
}

Result<MatchResult> ShardedMatcher::Match(std::string_view pattern_text,
                                          MatchOptions options,
                                          CrossShardStats* stats) {
  FGPM_ASSIGN_OR_RETURN(Pattern p, Pattern::Parse(pattern_text));
  return Match(p, options, stats);
}

}  // namespace fgpm
