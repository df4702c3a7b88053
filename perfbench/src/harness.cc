#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double TailPercentile(std::vector<double> v, double pct, size_t* beyond) {
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(pct / 100.0 * v.size())), 1, v.size());
  *beyond = v.size() - rank;
  return Percentile(std::move(v), pct / 100.0);
}

std::vector<size_t> QuietHalf(const std::vector<double>& cost) {
  std::vector<size_t> idx(cost.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return cost[a] < cost[b]; });
  idx.resize((idx.size() + 1) / 2);
  return idx;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

unsigned AvailableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"peak_rss_mb", "MiB"},
      {"error_rate", "fraction"},
  };
  return defs;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"opt.plan_ms", "ms"},
      {"opt.plan_share", "fraction"},
      {"opt.qerror_p50", "ratio"},
      {"opt.qerror_max", "ratio"},
      {"exec.scan_ms", "ms"},
      {"exec.hpsj_ms", "ms"},
      {"exec.filter_ms", "ms"},
      {"exec.fetch_ms", "ms"},
      {"exec.select_ms", "ms"},
      {"exec.bind_ms", "ms"},
      {"exec.materialize_ms", "ms"},
      {"exec.peak_rows", "rows"},
      {"exec.pairs_per_row", "ratio"},
      {"exec.filter_prune_frac", "fraction"},
      {"exec.code_fetches", "count"},
      {"exec.cluster_fetches", "count"},
      {"exec.wtable_lookups", "count"},
      {"exec.reach_memo_probes", "count"},
      {"exec.reach_memo_hit_frac", "fraction"},
      {"exec.kway_probes", "count"},
      {"exec.kway_hit_frac", "fraction"},
      {"exec.t4_over_t1", "ratio"},
      {"exec.t4_over_t1.sf_triangle", "ratio"},
      {"exec.t4_over_t1.sf_4clique", "ratio"},
      {"exec.t4_over_t1.sf_5cycle", "ratio"},
      {"exec.t4_over_t1.sf_diamond", "ratio"},
      {"exec.t4_over_t1.er_triangle", "ratio"},
      {"exec.t4_over_t1.er_4clique", "ratio"},
      {"exec.t4_over_t1.er_5cycle", "ratio"},
      {"exec.t4_over_t1.er_diamond", "ratio"},
      {"exec.t4_over_t1.layered_path", "ratio"},
      {"exec.t4_over_t1.layered_tree", "ratio"},
      {"sched.busy_cores", "cores"},
      {"sched.tasks", "count"},
      {"sched.steals", "count"},
      {"proc.cpu_cores", "cores"},
      {"storage.pool_accesses", "count"},
      {"storage.pool_hit_frac", "fraction"},
      {"storage.page_reads", "count"},
      {"storage.modeled_io_pages", "count"},
      {"gdb.code_cache_probes", "count"},
      {"gdb.code_cache_hit_frac", "fraction"},
      {"gdb.build_s", "s"},
      {"reach.cover_build_s", "s"},
      {"reach.cover_per_node", "entries"},
      {"core.overhead_ms", "ms"},
      {"core.plan_cache_hit_frac", "fraction"},
      {"core.plan_cache_misses", "count"},
      {"net.engine_us", "us"},
      {"net.queue_p50_us", "us"},
      {"net.queue_p99_us", "us"},
      {"net.server_p50_us", "us"},
      {"net.wire_us", "us"},
      {"net.rejected", "count"},
      {"gen.lag_p99_us", "us"},
      {"shard.cross_frac", "fraction"},
      {"shard.filters_shipped", "count"},
      {"shard.probe_pairs", "count"},
      {"trace.overhead_frac", "fraction"},
      {"attr.covered_frac", "fraction"},
      {"attr.unattributed_ms", "ms"},
  };
  return defs;
}

namespace {

const MetricDef* FindDef(const std::string& name) {
  for (const auto* defs : {&EndToEndMetrics(), &LayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects non-finite values
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Report::Report(const Options& options) : options_(options) {}

void Report::Set(const std::string& name, double value) {
  if (FindDef(name) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, JsonString(value));
}

void Report::Stamp(const std::string& key, double value) {
  stamp_.emplace_back(key, JsonNumber(value));
}

void Report::Wrong(const std::string& what) {
  std::fprintf(stderr, "perfbench: WRONG: %s\n", what.c_str());
  if (wrong_.size() < 16) wrong_.push_back(what);
}

void Report::Invalid(const std::string& why) {
  std::fprintf(stderr, "perfbench: INVALID: %s\n", why.c_str());
  if (invalid_.empty()) invalid_ = why;
}

void Report::Print() const {
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(options_.workload)
     << ", \"seed\": " << options_.seed
     << ", \"trace\": " << (options_.trace ? 1 : 0) << ", \"stamp\": {";
  for (size_t i = 0; i < stamp_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(stamp_[i].first) << ": "
       << stamp_[i].second;
  }
  os << "}, \"valid\": " << (valid() ? "true" : JsonString(invalid_))
     << ", \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"errors\": [";
  for (size_t i = 0; i < wrong_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(wrong_[i]);
  }
  os << "], \"metrics\": {";
  const auto& defs = options_.trace ? LayerMetrics() : EndToEndMetrics();
  bool first = true;
  for (const MetricDef& d : defs) {
    auto it = values_.find(d.name);
    const double v = it == values_.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << JsonString(d.name) << ": {\"value\": "
       << JsonNumber(v) << ", \"unit\": " << JsonString(d.unit) << "}";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

std::string Summary(const std::vector<double>& v, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu p50=%.4g%s p90=%.4g%s p99=%.4g%s max=%.4g%s", v.size(),
                Percentile(v, 0.5), unit, Percentile(v, 0.9), unit,
                Percentile(v, 0.99), unit, Percentile(v, 1.0), unit);
  return buf;
}

}  // namespace perfbench
