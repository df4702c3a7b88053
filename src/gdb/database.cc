#include "gdb/database.h"

#include <algorithm>
#include <fstream>
#include <thread>

#include "common/logging.h"
#include "common/serialize.h"

namespace fgpm {

namespace {
constexpr uint64_t kDbMagic = 0x4d504746'42445631ull;  // "FGPM" "DBV1"
}  // namespace

Status GraphDatabase::ApplyEdgeInsert(const Graph& g_after, NodeId u,
                                      NodeId v) {
  if (!built_) return Status::FailedPrecondition("database not built");

  std::vector<CenterId> out_changed, in_changed;
  FGPM_RETURN_IF_ERROR(
      labeling_.UpdateForEdgeInsert(g_after, u, v, &out_changed, &in_changed));
  if (out_changed.empty() && in_changed.empty()) return Status::OK();
  CenterId c = labeling_.CenterOf(u);

  // Snapshot center c's subcluster sizes before mutating, to diff the
  // W-table and catalog statistics afterwards.
  std::vector<RJoinIndex::SubclusterInfo> before;
  FGPM_RETURN_IF_ERROR(rjoin_index_->ListCenterSubclusters(c, &before));
  auto size_of = [](const std::vector<RJoinIndex::SubclusterInfo>& infos,
                    RJoinIndex::Side side, LabelId l) -> uint32_t {
    for (const auto& i : infos) {
      if (i.side == side && i.label == l) return i.size;
    }
    return 0;
  };

  // Rewrite base tuples and extend c's subclusters for every member of
  // every component whose codes changed.
  auto touch = [&](const std::vector<CenterId>& comps,
                   RJoinIndex::Side side) -> Status {
    for (CenterId comp : comps) {
      for (NodeId m : labeling_.MembersOf(comp)) {
        LabelId l = g_after.label_of(m);
        GraphCodeRecord rec;
        rec.node = m;
        const auto in = labeling_.InCode(m);
        const auto out = labeling_.OutCode(m);
        rec.in.assign(in.begin(), in.end());
        rec.out.assign(out.begin(), out.end());
        FGPM_RETURN_IF_ERROR(tables_[l]->Update(rec));
        FGPM_RETURN_IF_ERROR(rjoin_index_->AddToCluster(c, side, l, m));
      }
    }
    return Status::OK();
  };
  FGPM_RETURN_IF_ERROR(touch(out_changed, RJoinIndex::Side::kF));
  FGPM_RETURN_IF_ERROR(touch(in_changed, RJoinIndex::Side::kT));

  // Stale cached codes would answer queries incorrectly.
  ClearCodeCache();

  // Diff the center's subclusters: new (X, Y) combinations enter the
  // W-table; est_pairs/sums get the product deltas.
  std::vector<RJoinIndex::SubclusterInfo> after;
  FGPM_RETURN_IF_ERROR(rjoin_index_->ListCenterSubclusters(c, &after));
  for (const auto& f : after) {
    if (f.side != RJoinIndex::Side::kF) continue;
    for (const auto& t : after) {
      if (t.side != RJoinIndex::Side::kT) continue;
      uint32_t f_before = size_of(before, RJoinIndex::Side::kF, f.label);
      uint32_t t_before = size_of(before, RJoinIndex::Side::kT, t.label);
      int64_t d_pairs = int64_t(f.size) * t.size - int64_t(f_before) * t_before;
      int64_t d_f = int64_t(f.size) - f_before;
      int64_t d_t = int64_t(t.size) - t_before;
      if (d_pairs == 0 && d_f == 0 && d_t == 0) continue;
      bool added = false;
      FGPM_RETURN_IF_ERROR(wtable_->AddCenter(f.label, t.label, c, &added));
      catalog_.ApplyPairDelta(f.label, t.label, d_pairs, added ? 1 : 0, d_f,
                              d_t);
    }
  }
  // Reachability (and statistics) changed: move the epoch so matcher-
  // level caches drop plans and results computed against the old graph.
  // The no-new-pairs early return above deliberately skips this — an
  // edge that changes nothing invalidates nothing.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status GraphDatabase::Save(const std::string& path) const {
  if (!built_) return Status::FailedPrecondition("database not built");
  // Dirty frames must reach the simulated disk before pages are dumped.
  FGPM_RETURN_IF_ERROR(pool_->FlushAll());

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  BinaryWriter w(&out);
  w.U64(kDbMagic);
  FGPM_RETURN_IF_ERROR(disk_->SavePages(out));
  w.U64(tables_.size());
  for (const auto& t : tables_) t->SaveMeta(&w);
  rjoin_index_->SaveMeta(&w);
  wtable_->SaveMeta(&w);
  catalog_.SaveMeta(&w);
  labeling_.SaveMeta(&w);
  if (!w.ok()) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

Result<std::unique_ptr<GraphDatabase>> GraphDatabase::Open(
    const std::string& path, GraphDatabaseOptions options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  BinaryReader r(&in);
  uint64_t magic = 0;
  FGPM_RETURN_IF_ERROR(r.U64(&magic));
  if (magic != kDbMagic) {
    return Status::Corruption(path + " is not an fgpm database");
  }

  auto db = std::make_unique<GraphDatabase>(options);
  FGPM_RETURN_IF_ERROR(db->disk_->LoadPages(in));
  uint64_t num_tables = 0;
  FGPM_RETURN_IF_ERROR(r.U64(&num_tables));
  if (num_tables > (1u << 20)) return Status::Corruption("absurd table count");
  for (uint64_t i = 0; i < num_tables; ++i) {
    FGPM_ASSIGN_OR_RETURN(BaseTable t,
                          BaseTable::AttachMeta(db->pool_.get(), &r));
    db->tables_.push_back(std::make_unique<BaseTable>(std::move(t)));
  }
  FGPM_ASSIGN_OR_RETURN(RJoinIndex idx,
                        RJoinIndex::AttachMeta(db->pool_.get(), &r));
  db->rjoin_index_ = std::make_unique<RJoinIndex>(std::move(idx));
  FGPM_ASSIGN_OR_RETURN(WTable wt, WTable::AttachMeta(db->pool_.get(), &r));
  db->wtable_ = std::make_unique<WTable>(std::move(wt));
  FGPM_RETURN_IF_ERROR(db->catalog_.LoadMeta(&r));
  FGPM_RETURN_IF_ERROR(db->labeling_.LoadMeta(&r));
  // The sidecar layout is derived data: a file built with another
  // threshold is re-derived at the current one.
  if (db->labeling_.bitmap_threshold() != kDefaultCodeBitmapThreshold) {
    db->labeling_.SetBitmapThreshold(kDefaultCodeBitmapThreshold);
  }
  if (db->tables_.size() != db->catalog_.num_labels()) {
    return Status::Corruption("table count disagrees with catalog");
  }
  db->built_ = true;
  db->ResetIo();
  return db;
}

namespace {

size_t ResolveStripes(size_t requested, size_t capacity) {
  size_t s = requested;
  if (s == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    s = 1;
    while (s < hw) s <<= 1;
    s = std::min<size_t>(s, 64);
  } else {
    size_t p = 1;
    while (p < s) p <<= 1;
    s = p;
  }
  // Keep stripes useful: at least 8 cacheable entries each.
  while (s > 1 && capacity / s < 8) s >>= 1;
  return s;
}

}  // namespace

GraphDatabase::GraphDatabase(GraphDatabaseOptions options)
    : options_(options),
      disk_(std::make_unique<DiskManager>()),
      pool_(std::make_unique<BufferPool>(
          disk_.get(),
          BufferPoolOptions{options.buffer_pool_bytes,
                            options.buffer_pool_shards})) {
  cache_enabled_ = options_.code_cache_capacity > 0;
  if (cache_enabled_) {
    num_stripes_ = ResolveStripes(options_.code_cache_stripes,
                                  options_.code_cache_capacity);
    stripe_mask_ = num_stripes_ - 1;
    stripe_capacity_ =
        std::max<size_t>(1, options_.code_cache_capacity / num_stripes_);
    stripes_ = std::make_unique<CacheStripe[]>(num_stripes_);
  }
  auto& reg = obs::MetricsRegistry::Default();
  m_cache_hits_ = reg.GetCounter("fgpm_codecache_hits_total",
                                 "Graph-code cache stripe hits");
  m_cache_misses_ = reg.GetCounter("fgpm_codecache_misses_total",
                                   "Graph-code cache stripe misses");
}

Status GraphDatabase::Build(const Graph& g) {
  if (built_) return Status::FailedPrecondition("Build called twice");
  if (!g.finalized()) return Status::FailedPrecondition("graph not finalized");
  built_ = true;

  labeling_ = options_.use_greedy_cover
                  ? BuildTwoHopGreedy(g)
                  : BuildTwoHopPruned(g, options_.build_threads);

  if (!options_.owned_labels.empty() &&
      options_.owned_labels.size() != g.NumLabels()) {
    return Status::InvalidArgument("owned_labels size != label count");
  }
  auto owns = [&](LabelId l) {
    return options_.owned_labels.empty() || options_.owned_labels[l] != 0;
  };

  // Base tables: one per label, tuples in extent order. Non-owned
  // labels keep an empty table so LabelId indexing stays aligned.
  tables_.clear();
  for (LabelId l = 0; l < g.NumLabels(); ++l) {
    tables_.push_back(std::make_unique<BaseTable>(l, pool_.get()));
    if (!owns(l)) continue;
    for (NodeId v : g.Extent(l)) {
      GraphCodeRecord rec;
      rec.node = v;
      const auto in = labeling_.InCode(v);
      const auto out = labeling_.OutCode(v);
      rec.in.assign(in.begin(), in.end());
      rec.out.assign(out.begin(), out.end());
      FGPM_RETURN_IF_ERROR(tables_[l]->Insert(rec));
    }
  }

  rjoin_index_ = std::make_unique<RJoinIndex>(pool_.get());
  FGPM_RETURN_IF_ERROR(rjoin_index_->Build(
      g, labeling_,
      options_.owned_labels.empty() ? nullptr : &options_.owned_labels));

  wtable_ = std::make_unique<WTable>(pool_.get());
  FGPM_RETURN_IF_ERROR(wtable_->Build(g, labeling_));

  FGPM_RETURN_IF_ERROR(catalog_.Build(g, labeling_));

  // Build-time I/O is not part of any experiment.
  FGPM_RETURN_IF_ERROR(pool_->FlushAll());
  ResetIo();
  return Status::OK();
}

Status GraphDatabase::GetCodes(NodeId v, LabelId label,
                               GraphCodeRecord* rec) const {
  if (cache_enabled_) {
    CacheStripe& st = stripes_[StripeOf(v)];
    {
      std::shared_lock<std::shared_mutex> lock(st.mu);
      auto it = st.map.find(v);
      if (it != st.map.end()) {
        st.hits.fetch_add(1, std::memory_order_relaxed);
        m_cache_hits_->Increment();
        it->second.referenced.store(true, std::memory_order_relaxed);
        *rec = it->second.rec;
        return Status::OK();
      }
    }
    st.misses.fetch_add(1, std::memory_order_relaxed);
    m_cache_misses_->Increment();
  }
  FGPM_RETURN_IF_ERROR(tables_[label]->Get(v, rec));
  if (cache_enabled_) {
    CacheStripe& st = stripes_[StripeOf(v)];
    std::unique_lock<std::shared_mutex> lock(st.mu);
    // Another worker may have cached v while we read the base table.
    if (st.map.find(v) == st.map.end()) {
      while (st.map.size() >= stripe_capacity_ && !st.ring.empty()) {
        // CLOCK sweep: referenced entries get a second chance.
        NodeId hand = st.ring.front();
        st.ring.pop_front();
        auto ce = st.map.find(hand);
        if (ce == st.map.end()) continue;
        if (ce->second.referenced.load(std::memory_order_relaxed)) {
          ce->second.referenced.store(false, std::memory_order_relaxed);
          st.ring.push_back(hand);
        } else {
          st.map.erase(ce);
        }
      }
      st.map.try_emplace(v).first->second.rec = *rec;
      st.ring.push_back(v);
    }
  }
  return Status::OK();
}

void GraphDatabase::ClearCodeCache() const {
  for (size_t i = 0; i < num_stripes_; ++i) {
    CacheStripe& st = stripes_[i];
    std::unique_lock<std::shared_mutex> lock(st.mu);
    st.map.clear();
    st.ring.clear();
  }
}

void GraphDatabase::set_code_cache_enabled(bool enabled) {
  cache_enabled_ = enabled && options_.code_cache_capacity > 0;
  if (!cache_enabled_) ClearCodeCache();
}

IoSnapshot GraphDatabase::Io() const {
  IoSnapshot s;
  DiskStats disk = disk_->stats();
  s.page_reads = disk.page_reads;
  s.page_writes = disk.page_writes;
  BufferPoolStats pool = pool_->stats();
  s.pool_hits = pool.hits;
  s.pool_misses = pool.misses;
  for (size_t i = 0; i < num_stripes_; ++i) {
    s.code_cache_hits += stripes_[i].hits.load(std::memory_order_relaxed);
    s.code_cache_misses += stripes_[i].misses.load(std::memory_order_relaxed);
  }
  return s;
}

void GraphDatabase::ResetIo() {
  disk_->ResetStats();
  pool_->ResetStats();
  for (size_t i = 0; i < num_stripes_; ++i) {
    stripes_[i].hits.store(0, std::memory_order_relaxed);
    stripes_[i].misses.store(0, std::memory_order_relaxed);
  }
  ClearCodeCache();
}

}  // namespace fgpm
