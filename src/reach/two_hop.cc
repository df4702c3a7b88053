#include "reach/two_hop.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/parallel.h"
#include "graph/algorithms.h"
#include "graph/reach_oracle.h"

namespace fgpm {
namespace {

// Shared scaffolding: condensation with vertices renumbered by a
// priority permutation so that higher-priority centers get smaller ids
// (keeps label vectors sorted as they are appended).
struct CondensedView {
  Graph dag;                         // renumbered condensation
  std::vector<CenterId> scc_of;      // original node -> renumbered center
  std::vector<std::vector<NodeId>> members;
};

CondensedView BuildCondensedView(const Graph& g,
                                 bool order_by_degree) {
  SccResult scc = ComputeScc(g);
  Condensation cond = Condense(g, scc);
  const uint32_t n = scc.num_components;

  // Priority: (in+1)*(out+1)*size — hub-like components first.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (order_by_degree) {
    std::vector<uint64_t> score(n);
    for (uint32_t v = 0; v < n; ++v) {
      score[v] = static_cast<uint64_t>(cond.dag.InDegree(v) + 1) *
                 (cond.dag.OutDegree(v) + 1) * cond.members[v].size();
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (score[a] != score[b]) return score[a] > score[b];
      return a < b;
    });
  }
  std::vector<uint32_t> new_id(n);
  for (uint32_t i = 0; i < n; ++i) new_id[order[i]] = i;

  CondensedView view;
  LabelId l = view.dag.InternLabel("scc");
  for (uint32_t i = 0; i < n; ++i) view.dag.AddNode(l);
  for (const auto& [u, v] : cond.dag.Edges()) {
    Status s = view.dag.AddEdge(new_id[u], new_id[v]);
    FGPM_CHECK(s.ok());
  }
  view.dag.Finalize();
  view.scc_of.resize(g.NumNodes());
  view.members.resize(n);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    CenterId c = new_id[scc.component[v]];
    view.scc_of[v] = c;
    view.members[c].push_back(v);
  }
  return view;
}

// Construction-time query: is (x ~> y) already covered by the labels
// built so far (unioned with the endpoints themselves)?
bool CoveredSoFar(const std::vector<std::vector<CenterId>>& out_labels,
                  const std::vector<std::vector<CenterId>>& in_labels,
                  CenterId x, CenterId y) {
  if (x == y) return true;
  if (SortedContains(out_labels[x], y)) return true;
  if (SortedContains(in_labels[y], x)) return true;
  return SortedIntersects(out_labels[x], in_labels[y]);
}

}  // namespace

// --- flat arena layout -----------------------------------------------------

void TwoHopLabeling::Flatten(std::vector<std::vector<CenterId>>&& nested,
                             DirCodes* dir) {
  const size_t n = nested.size();
  uint64_t total = 0;
  for (const auto& v : nested) total += v.size();
  dir->pool.clear();
  dir->pool.reserve(total);
  dir->off.clear();
  dir->off.reserve(n + 1);
  dir->off.push_back(0);
  for (auto& v : nested) {
    dir->pool.insert(dir->pool.end(), v.begin(), v.end());
    dir->off.push_back(dir->pool.size());
    v.clear();
    v.shrink_to_fit();  // release the nested allocation as we go
  }
  nested.clear();
}

void TwoHopLabeling::AdoptCodes(std::vector<std::vector<CenterId>>&& in,
                                std::vector<std::vector<CenterId>>&& out) {
  Flatten(std::move(in), &in_);
  Flatten(std::move(out), &out_);
}

uint64_t TwoHopLabeling::CodeBytes() const {
  auto dir_bytes = [](const DirCodes& d) {
    return d.pool.size() * sizeof(CenterId) + d.off.size() * sizeof(uint64_t);
  };
  return dir_bytes(in_) + dir_bytes(out_);
}

bool TwoHopLabeling::ProbeCodes(CenterId cu, CenterId cv) const {
  const CodeSpan a = Slice(out_, cu), b = Slice(in_, cv);
  return SortedRangeIntersects(a.data(), a.size(), b.data(), b.size());
}

uint64_t TwoHopLabeling::CoverSize() const {
  uint64_t total = 0;
  for (CenterId c = 0; c < members_.size(); ++c) {
    // Compact form: the self entry in each of in() and out() is implied
    // by the tuple itself and not stored (Example 3.1).
    total += (in_.off[c + 1] - in_.off[c] - 1 + out_.off[c + 1] -
              out_.off[c] - 1) *
             members_[c].size();
  }
  return total;
}

void TwoHopLabeling::InsertCenter(DirCodes* dir,
                                  const std::vector<CenterId>& comps,
                                  CenterId c) {
  if (comps.empty()) return;
  const size_t n = dir->off.size() - 1;
  std::vector<CenterId> pool;
  pool.reserve(dir->pool.size() + comps.size());
  std::vector<uint64_t> off;
  off.reserve(n + 1);
  off.push_back(0);
  size_t k = 0;  // cursor into comps (ascending, like the center loop)
  for (size_t comp = 0; comp < n; ++comp) {
    const CenterId* s = dir->pool.data() + dir->off[comp];
    const size_t len = static_cast<size_t>(dir->off[comp + 1] - dir->off[comp]);
    if (k < comps.size() && comps[k] == comp) {
      ++k;
      const size_t pos =
          static_cast<size_t>(std::lower_bound(s, s + len, c) - s);
      pool.insert(pool.end(), s, s + pos);
      pool.push_back(c);
      pool.insert(pool.end(), s + pos, s + len);
    } else {
      pool.insert(pool.end(), s, s + len);
    }
    off.push_back(pool.size());
  }
  dir->pool = std::move(pool);
  dir->off = std::move(off);
}

Status TwoHopLabeling::UpdateForEdgeInsert(const Graph& g_after, NodeId u,
                                           NodeId v,
                                           std::vector<CenterId>* out_changed,
                                           std::vector<CenterId>* in_changed) {
  if (out_changed) out_changed->clear();
  if (in_changed) in_changed->clear();
  if (!g_after.finalized()) {
    return Status::FailedPrecondition("graph not finalized");
  }
  if (u >= scc_of_.size() || v >= scc_of_.size()) {
    return Status::InvalidArgument(
        "UpdateForEdgeInsert supports edge insertion between existing "
        "nodes only");
  }
  if (Reaches(u, v)) return Status::OK();  // no new reachable pairs
  if (Reaches(v, u)) {
    return Status::FailedPrecondition(
        "edge closes a cycle: SCCs merge, labeling must be rebuilt");
  }

  // New pairs are exactly {(x, y) : x ~> u, v ~> y}. One added cluster
  // with center(u) covers them all: center(u) joins out(x) for every
  // ancestor x of u and in(y) for every descendant y of v.
  const CenterId c = scc_of_[u];
  const uint32_t n = num_centers();
  std::vector<bool> comp_seen(n, false);
  std::vector<NodeId> queue;

  // BFS at component granularity: visiting a component enqueues ALL its
  // members, because different members can have different neighbors.
  auto visit_component = [&](CenterId comp) {
    if (comp_seen[comp]) return;
    comp_seen[comp] = true;
    for (NodeId m : members_[comp]) queue.push_back(m);
  };

  // Backward from u: every component that reaches u gains c in out().
  queue.clear();
  visit_component(scc_of_[u]);
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    for (NodeId w : g_after.InNeighbors(queue[qi])) {
      visit_component(scc_of_[w]);
    }
  }
  std::vector<CenterId> gained;
  for (CenterId comp = 0; comp < n; ++comp) {
    if (comp_seen[comp] && !SortedContains(CenterOutCode(comp), c)) {
      gained.push_back(comp);
      if (out_changed) out_changed->push_back(comp);
    }
  }
  InsertCenter(&out_, gained, c);

  // Forward from v: every component reachable from v gains c in in().
  std::fill(comp_seen.begin(), comp_seen.end(), false);
  queue.clear();
  visit_component(scc_of_[v]);
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    for (NodeId w : g_after.OutNeighbors(queue[qi])) {
      visit_component(scc_of_[w]);
    }
  }
  gained.clear();
  for (CenterId comp = 0; comp < n; ++comp) {
    if (comp_seen[comp] && !SortedContains(CenterInCode(comp), c)) {
      gained.push_back(comp);
      if (in_changed) in_changed->push_back(comp);
    }
  }
  InsertCenter(&in_, gained, c);
  return Status::OK();
}

TwoHopLabeling BuildTwoHopPruned(const Graph& g, unsigned num_threads) {
  FGPM_CHECK(g.finalized());
  CondensedView view = BuildCondensedView(g, /*order_by_degree=*/true);
  const uint32_t n = view.dag.NumNodes();
  const unsigned threads = ResolveThreads(num_threads);

  std::vector<std::vector<CenterId>> in_labels(n), out_labels(n);

  if (threads == 1) {
    std::vector<uint32_t> visit_mark(n, 0xffffffffu);
    std::vector<CenterId> queue;

    // Process hubs by priority; pruned forward/backward BFS. The pruning
    // rule guarantees each label receives only hubs with a smaller id, so
    // plain push_back keeps vectors sorted.
    for (CenterId hub = 0; hub < n; ++hub) {
      // Forward: hub ~> v, so hub enters L_in(v).
      queue.assign(1, hub);
      visit_mark[hub] = hub * 2;
      for (size_t qi = 0; qi < queue.size(); ++qi) {
        CenterId v = queue[qi];
        for (NodeId w : view.dag.OutNeighbors(v)) {
          if (visit_mark[w] == hub * 2) continue;
          visit_mark[w] = hub * 2;
          if (CoveredSoFar(out_labels, in_labels, hub, w)) continue;
          in_labels[w].push_back(hub);
          queue.push_back(w);
        }
      }
      // Backward: u ~> hub, so hub enters L_out(u).
      queue.assign(1, hub);
      visit_mark[hub] = hub * 2 + 1;
      for (size_t qi = 0; qi < queue.size(); ++qi) {
        CenterId v = queue[qi];
        for (NodeId w : view.dag.InNeighbors(v)) {
          if (visit_mark[w] == hub * 2 + 1) continue;
          visit_mark[w] = hub * 2 + 1;
          if (CoveredSoFar(out_labels, in_labels, w, hub)) continue;
          out_labels[w].push_back(hub);
          queue.push_back(w);
        }
      }
    }

    // The paper's compaction: every node carries itself in both codes.
    // Appended last because self ids exceed all hub ids received.
    for (CenterId c = 0; c < n; ++c) {
      in_labels[c].push_back(c);
      out_labels[c].push_back(c);
    }
  } else {
    // Batch-parallel pruned sweeps. A batch of consecutive hubs is swept
    // concurrently; every sweep prunes against the labels committed by
    // earlier batches only (in_labels/out_labels are read-only during
    // the sweeps), so the outcome depends on the batch size but not on
    // thread scheduling. Missing same-batch pruning can only add entries
    // that are true reachability facts — the cover stays valid, merely a
    // little larger than the sequential one.
    ThreadPool pool(threads);
    const uint32_t batch = threads * 4;
    std::vector<std::vector<uint32_t>> marks(
        threads, std::vector<uint32_t>(n, 0xffffffffu));
    std::vector<std::vector<CenterId>> queues(threads);
    // Per batch slot: nodes whose in()/out() gain the slot's hub.
    std::vector<std::vector<CenterId>> gains_in(batch), gains_out(batch);

    for (CenterId base = 0; base < n; base += batch) {
      const size_t count = std::min<size_t>(batch, n - base);
      pool.ParallelFor(count, 1, [&](unsigned worker, size_t slot,
                                     size_t begin, size_t end) {
        (void)slot;
        (void)end;
        const CenterId hub = base + static_cast<CenterId>(begin);
        std::vector<uint32_t>& visit_mark = marks[worker];
        std::vector<CenterId>& queue = queues[worker];
        gains_in[begin].clear();
        gains_out[begin].clear();
        // Forward sweep: hub enters L_in(w) for reached w.
        queue.assign(1, hub);
        visit_mark[hub] = hub * 2;
        for (size_t qi = 0; qi < queue.size(); ++qi) {
          for (NodeId w : view.dag.OutNeighbors(queue[qi])) {
            if (visit_mark[w] == hub * 2) continue;
            visit_mark[w] = hub * 2;
            if (CoveredSoFar(out_labels, in_labels, hub, w)) continue;
            gains_in[begin].push_back(w);
            queue.push_back(w);
          }
        }
        // Backward sweep: hub enters L_out(w) for reaching w.
        queue.assign(1, hub);
        visit_mark[hub] = hub * 2 + 1;
        for (size_t qi = 0; qi < queue.size(); ++qi) {
          for (NodeId w : view.dag.InNeighbors(queue[qi])) {
            if (visit_mark[w] == hub * 2 + 1) continue;
            visit_mark[w] = hub * 2 + 1;
            if (CoveredSoFar(out_labels, in_labels, w, hub)) continue;
            gains_out[begin].push_back(w);
            queue.push_back(w);
          }
        }
      });
      // Commit in hub order: across batches hub ids only grow, so
      // push_back keeps every label vector sorted.
      for (size_t i = 0; i < count; ++i) {
        const CenterId hub = base + static_cast<CenterId>(i);
        for (CenterId w : gains_in[i]) in_labels[w].push_back(hub);
        for (CenterId w : gains_out[i]) out_labels[w].push_back(hub);
      }
    }

    // Compaction self entries. Unlike the sequential builder, a node may
    // carry same-batch hubs with ids above its own, so insert sorted.
    for (CenterId c = 0; c < n; ++c) {
      SortedInsert(&in_labels[c], c);
      SortedInsert(&out_labels[c], c);
    }
  }

  TwoHopLabeling lab;
  lab.scc_of_ = std::move(view.scc_of);
  lab.members_ = std::move(view.members);
  lab.AdoptCodes(std::move(in_labels), std::move(out_labels));
  return lab;
}

TwoHopLabeling BuildTwoHopGreedy(const Graph& g) {
  FGPM_CHECK(g.finalized());
  CondensedView view = BuildCondensedView(g, /*order_by_degree=*/false);
  const uint32_t n = view.dag.NumNodes();
  FGPM_CHECK(n <= 4096);  // greedy builds the closure; small graphs only

  TransitiveClosure tc(view.dag);

  // Uncovered reachable pairs (excluding the diagonal).
  std::vector<std::vector<bool>> uncovered(n, std::vector<bool>(n, false));
  uint64_t remaining = 0;
  for (CenterId a = 0; a < n; ++a) {
    for (CenterId b = 0; b < n; ++b) {
      if (a != b && tc.Reaches(a, b)) {
        uncovered[a][b] = true;
        ++remaining;
      }
    }
  }

  std::vector<std::vector<CenterId>> in_labels(n), out_labels(n);
  std::vector<CenterId> ancestors, descendants;

  while (remaining > 0) {
    // Pick the center with the best covered-pairs / label-cost ratio.
    double best_ratio = -1;
    CenterId best = 0;
    uint64_t best_covered = 0;
    for (CenterId w = 0; w < n; ++w) {
      uint64_t covered = 0;
      uint32_t anc = 0, desc = 0;
      for (CenterId a = 0; a < n; ++a) {
        if (!tc.Reaches(a, w)) continue;
        uint64_t row = 0;
        for (CenterId b = 0; b < n; ++b) {
          if (tc.Reaches(w, b) && uncovered[a][b]) ++row;
        }
        if (row > 0 || a == w) ++anc;
        covered += row;
      }
      for (CenterId b = 0; b < n; ++b) {
        if (tc.Reaches(w, b)) ++desc;
      }
      if (covered == 0) continue;
      double ratio = double(covered) / double(anc + desc);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = w;
        best_covered = covered;
      }
    }
    FGPM_CHECK(best_covered > 0);

    // Label only nodes that still contribute an uncovered pair through
    // `best` (keeps the cover compact, in the spirit of Cohen's densest-
    // subgraph refinement).
    ancestors.clear();
    descendants.clear();
    for (CenterId a = 0; a < n; ++a) {
      if (!tc.Reaches(a, best)) continue;
      for (CenterId b = 0; b < n; ++b) {
        if (tc.Reaches(best, b) && uncovered[a][b]) {
          ancestors.push_back(a);
          break;
        }
      }
    }
    for (CenterId b = 0; b < n; ++b) {
      if (!tc.Reaches(best, b)) continue;
      for (CenterId a : ancestors) {
        if (uncovered[a][b]) {
          descendants.push_back(b);
          break;
        }
      }
    }
    for (CenterId a : ancestors) SortedInsert(&out_labels[a], best);
    for (CenterId b : descendants) SortedInsert(&in_labels[b], best);
    for (CenterId a : ancestors) {
      for (CenterId b : descendants) {
        if (uncovered[a][b]) {
          uncovered[a][b] = false;
          --remaining;
        }
      }
    }
  }

  // Self ids (compaction), keeping vectors sorted.
  for (CenterId c = 0; c < n; ++c) {
    SortedInsert(&in_labels[c], c);
    SortedInsert(&out_labels[c], c);
  }

  TwoHopLabeling lab;
  lab.scc_of_ = std::move(view.scc_of);
  lab.members_ = std::move(view.members);
  lab.AdoptCodes(std::move(in_labels), std::move(out_labels));
  return lab;
}


void TwoHopLabeling::SaveMeta(BinaryWriter* w) const {
  w->VecU32(scc_of_);
  w->VecU64(in_.off);
  w->VecU32(in_.pool);
  w->VecU64(out_.off);
  w->VecU32(out_.pool);
  w->U64(members_.size());
  for (const auto& v : members_) w->VecU32(v);
}

namespace {

Status CheckDirShape(const std::vector<uint64_t>& off,
                     const std::vector<CenterId>& pool, size_t num_centers) {
  if (off.size() != num_centers + 1 || off.front() != 0 ||
      off.back() != pool.size()) {
    return Status::Corruption("2-hop code index shape mismatch");
  }
  for (size_t i = 0; i + 1 < off.size(); ++i) {
    if (off[i] > off[i + 1]) {
      return Status::Corruption("2-hop code offsets not monotone");
    }
  }
  return Status::OK();
}

}  // namespace

Status TwoHopLabeling::LoadMeta(BinaryReader* r) {
  FGPM_RETURN_IF_ERROR(r->VecU32(&scc_of_));
  FGPM_RETURN_IF_ERROR(r->VecU64(&in_.off));
  FGPM_RETURN_IF_ERROR(r->VecU32(&in_.pool));
  FGPM_RETURN_IF_ERROR(r->VecU64(&out_.off));
  FGPM_RETURN_IF_ERROR(r->VecU32(&out_.pool));
  uint64_t n = 0;
  FGPM_RETURN_IF_ERROR(r->U64(&n));
  members_.resize(n);
  for (auto& v : members_) FGPM_RETURN_IF_ERROR(r->VecU32(&v));
  FGPM_RETURN_IF_ERROR(CheckDirShape(in_.off, in_.pool, members_.size()));
  FGPM_RETURN_IF_ERROR(CheckDirShape(out_.off, out_.pool, members_.size()));
  for (CenterId c : scc_of_) {
    if (c >= members_.size()) {
      return Status::Corruption("2-hop scc map references unknown center");
    }
  }
  return Status::OK();
}

}  // namespace fgpm
