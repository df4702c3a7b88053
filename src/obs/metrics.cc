#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace fgpm::obs {

namespace {

// Fixed-format double: trims to %.6g so exported text is stable across
// platforms for the integral values metrics overwhelmingly hold.
// Non-finite values use the canonical Prometheus spellings — a plain
// %g "nan"/"inf" is not valid exposition text and would poison the
// whole scrape.
std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// JSON has no NaN/Inf literal at all; a poisoned gauge must degrade to
// null, never to an unparseable document.
std::string FormatJsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FormatHex64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; anything a
// caller registered outside that alphabet is mapped to '_' so one bad
// name cannot invalidate the whole exposition.
std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (i > 0 && c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

// HELP text: escape backslash and newline per the exposition format.
std::string EscapeHelp(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Label values inside exemplar annotations.
std::string EscapeLabelValue(std::string_view v) {
  std::string out;
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  // Rank of the target sample (1-based); ceil so p=1 hits the last one.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (seen + counts[b] < rank) {
      seen += counts[b];
      continue;
    }
    // Target falls in bucket b: interpolate between its bounds by the
    // fraction of the bucket's samples below the rank.
    double lower = b == 0 ? 0 : static_cast<double>(uint64_t{1} << (b - 1));
    double upper = static_cast<double>(BucketUpper(b));
    double frac =
        static_cast<double>(rank - seen) / static_cast<double>(counts[b]);
    return lower + (upper - lower) * frac;
  }
  return static_cast<double>(BucketUpper(kBuckets - 1));
}

Histogram::~Histogram() { delete win_.load(std::memory_order_relaxed); }

void Histogram::Reset() {
  for (Cell& c : cells_) {
    for (auto& n : c.counts) n.store(0, std::memory_order_relaxed);
    c.sum.store(0, std::memory_order_relaxed);
  }
  WindowState* w = win_.load(std::memory_order_acquire);
  if (w != nullptr) {
    std::lock_guard<std::mutex> lock(w->mu);
    for (auto& s : w->ring) s = Snapshot{};
    w->head = 0;
    w->slice_start_ns = w->clock();
    for (auto& id : w->ex_id) id.store(0, std::memory_order_relaxed);
    for (auto& ts : w->ex_ts) ts.store(0, std::memory_order_relaxed);
  }
}

void Histogram::EnableWindow(uint64_t window_ns, ClockFn clock) {
  if (window_ns == 0) window_ns = 1;
  WindowState* w = win_.load(std::memory_order_acquire);
  if (w == nullptr) {
    auto* fresh = new WindowState();
    WindowState* expected = nullptr;
    if (!win_.compare_exchange_strong(expected, fresh,
                                      std::memory_order_acq_rel)) {
      delete fresh;  // lost a racing enable; reconfigure the winner
      w = expected;
    } else {
      w = fresh;
    }
  }
  std::lock_guard<std::mutex> lock(w->mu);
  w->window_ns = window_ns;
  w->slice_ns = std::max<uint64_t>(1, window_ns / kWindowSlices);
  w->clock = clock != nullptr ? clock : &SteadyNowNs;
  for (auto& s : w->ring) s = Snapshot{};
  w->head = 0;
  w->slice_start_ns = w->clock();
}

uint64_t Histogram::window_ns() const {
  WindowState* w = win_.load(std::memory_order_acquire);
  if (w == nullptr) return 0;
  std::lock_guard<std::mutex> lock(w->mu);
  return w->window_ns;
}

void Histogram::StampExemplar(WindowState* w, int bucket, uint64_t trace_id) {
  w->ex_id[bucket].store(trace_id, std::memory_order_relaxed);
  w->ex_ts[bucket].store(w->clock != nullptr ? w->clock() : SteadyNowNs(),
                         std::memory_order_relaxed);
}

Histogram::Exemplar Histogram::BucketExemplar(int b) const {
  WindowState* w = win_.load(std::memory_order_acquire);
  if (w == nullptr || b < 0 || b >= kBuckets) return {};
  Exemplar e;
  e.trace_id = w->ex_id[b].load(std::memory_order_relaxed);
  e.ts_ns = w->ex_ts[b].load(std::memory_order_relaxed);
  return e;
}

Histogram::Snapshot Histogram::WindowSnap() const {
  WindowState* w = win_.load(std::memory_order_acquire);
  if (w == nullptr) return {};
  std::lock_guard<std::mutex> lock(w->mu);
  const uint64_t now = w->clock();
  // Rotate every boundary the clock has crossed since the last read.
  // A long idle gap rotates at most kWindowSlices times — after that
  // every ring slot already holds the same "now" snapshot.
  uint64_t behind =
      now > w->slice_start_ns ? (now - w->slice_start_ns) / w->slice_ns : 0;
  if (behind > 0) {
    Snapshot cum = Snap();
    uint64_t rotations = std::min<uint64_t>(behind, kWindowSlices);
    for (uint64_t i = 0; i < rotations; ++i) {
      w->ring[w->head] = cum;
      w->head = (w->head + 1) % kWindowSlices;
    }
    w->slice_start_ns += behind * w->slice_ns;
  }
  // Oldest retained boundary = the slot head points at (next overwrite).
  const Snapshot& old = w->ring[w->head];
  Snapshot cur = Snap();
  Snapshot out;
  for (int b = 0; b < kBuckets; ++b) {
    uint64_t a = cur.counts[b], o = old.counts[b];
    out.counts[b] = a > o ? a - o : 0;  // clamp racy drift
    out.count += out.counts[b];
  }
  out.sum = cur.sum > old.sum ? cur.sum - old.sum : 0;
  return out;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(std::string_view name,
                                                      std::string_view help,
                                                      Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    FGPM_CHECK(it->second.kind == kind);  // one name, one metric kind
    return &it->second;
  }
  Entry e;
  e.kind = kind;
  e.help = std::string(help);
  switch (kind) {
    case Kind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      e.histogram = std::make_unique<Histogram>();
      break;
  }
  return &metrics_.emplace(std::string(name), std::move(e)).first->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  return FindOrCreate(name, help, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view help) {
  return FindOrCreate(name, help, Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help) {
  return FindOrCreate(name, help, Kind::kHistogram)->histogram.get();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : metrics_) {
    switch (e.kind) {
      case Kind::kCounter:
        e.counter->Reset();
        break;
      case Kind::kGauge:
        e.gauge->Reset();
        break;
      case Kind::kHistogram:
        e.histogram->Reset();
        break;
    }
  }
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [raw_name, e] : metrics_) {
    const std::string name = SanitizeMetricName(raw_name);
    if (!e.help.empty()) {
      out += "# HELP " + name + " " + EscapeHelp(e.help) + "\n";
    }
    switch (e.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + FormatU64(e.counter->Value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + FormatDouble(e.gauge->Value()) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        Histogram::Snapshot s = e.histogram->Snap();
        const bool windowed = e.histogram->window_enabled();
        int last = 0;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          if (s.counts[b] != 0) last = b;
        }
        uint64_t cum = 0;
        for (int b = 0; b <= last; ++b) {
          cum += s.counts[b];
          out += name + "_bucket{le=\"" +
                 FormatU64(Histogram::BucketUpper(b)) + "\"} " +
                 FormatU64(cum);
          if (windowed) {
            // OpenMetrics exemplar: the most recent sampled trace that
            // landed in this bucket, so a p99 spike resolves to a
            // stitched trace at /debug/traces?trace_id=....
            Histogram::Exemplar ex = e.histogram->BucketExemplar(b);
            if (ex.trace_id != 0) {
              out += " # {trace_id=\"" +
                     EscapeLabelValue(FormatHex64(ex.trace_id)) + "\"} " +
                     FormatU64(Histogram::BucketUpper(b));
            }
          }
          out += "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " + FormatU64(s.count) + "\n";
        out += name + "_sum " + FormatU64(s.sum) + "\n";
        out += name + "_count " + FormatU64(s.count) + "\n";
        if (windowed) {
          // Sliding-window percentiles next to the cumulative series:
          // "p99 over the last 30 s", the alerting view the cumulative
          // histogram cannot answer.
          Histogram::Snapshot wnd = e.histogram->WindowSnap();
          out += "# TYPE " + name + "_window gauge\n";
          out += name + "_window{quantile=\"p50\"} " +
                 FormatDouble(wnd.Percentile(0.50)) + "\n";
          out += name + "_window{quantile=\"p95\"} " +
                 FormatDouble(wnd.Percentile(0.95)) + "\n";
          out += name + "_window{quantile=\"p99\"} " +
                 FormatDouble(wnd.Percentile(0.99)) + "\n";
          out += "# TYPE " + name + "_window_count gauge\n";
          out += name + "_window_count " + FormatU64(wnd.count) + "\n";
        }
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters, gauges, histograms;
  for (const auto& [name, e] : metrics_) {
    switch (e.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ", ";
        AppendJsonString(&counters, name);
        counters += ": " + FormatU64(e.counter->Value());
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ", ";
        AppendJsonString(&gauges, name);
        gauges += ": " + FormatJsonDouble(e.gauge->Value());
        break;
      case Kind::kHistogram: {
        if (!histograms.empty()) histograms += ", ";
        Histogram::Snapshot s = e.histogram->Snap();
        AppendJsonString(&histograms, name);
        histograms += ": {\"count\": " + FormatU64(s.count) +
                      ", \"sum\": " + FormatU64(s.sum) +
                      ", \"p50\": " + FormatJsonDouble(s.Percentile(0.50)) +
                      ", \"p95\": " + FormatJsonDouble(s.Percentile(0.95)) +
                      ", \"p99\": " + FormatJsonDouble(s.Percentile(0.99)) +
                      ", \"buckets\": [";
        bool first = true;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          if (s.counts[b] == 0) continue;
          if (!first) histograms += ", ";
          first = false;
          // Appends, not "[" + ...: GCC 12 -O3 misreads that chain as
          // an overlapping copy (-Wrestrict).
          histograms += "[";
          histograms += FormatU64(Histogram::BucketUpper(b));
          histograms += ", ";
          histograms += FormatU64(s.counts[b]);
          histograms += "]";
        }
        histograms += "]";
        if (e.histogram->window_enabled()) {
          Histogram::Snapshot w = e.histogram->WindowSnap();
          histograms +=
              ", \"window\": {\"count\": " + FormatU64(w.count) +
              ", \"p50\": " + FormatJsonDouble(w.Percentile(0.50)) +
              ", \"p95\": " + FormatJsonDouble(w.Percentile(0.95)) +
              ", \"p99\": " + FormatJsonDouble(w.Percentile(0.99)) +
              ", \"exemplars\": [";
          bool wfirst = true;
          for (int b = 0; b < Histogram::kBuckets; ++b) {
            Histogram::Exemplar ex = e.histogram->BucketExemplar(b);
            if (ex.trace_id == 0) continue;
            if (!wfirst) histograms += ", ";
            wfirst = false;
            histograms += "[";
            histograms += FormatU64(Histogram::BucketUpper(b));
            histograms += ", \"";
            histograms += FormatHex64(ex.trace_id);
            histograms += "\"]";
          }
          histograms += "]}";
        }
        histograms += "}";
        break;
      }
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

}  // namespace fgpm::obs
