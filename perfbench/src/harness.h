// Shared pieces of the end-to-end benchmark: command-line options, the
// metric schema (every end-to-end and per-layer metric with its unit),
// the per-run report and small statistics / process helpers.
//
// A workload fills one Report. In an untraced run it sets end-to-end
// metrics; in a traced run it sets per-layer metrics. Metrics a workload
// does not exercise keep the value 0 (a layer that does no work), so
// every run prints the full schema.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test sizes: small graphs and short phases, so all workloads run
  // in seconds. Never used for reported numbers.
  bool tiny = false;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median of `v` (0 when empty).
double Median(std::vector<double> v);

// The percentile every workload reports as latency_tail_ms.
inline constexpr double kTailPct = 95;

// The tail figure of a latency sample: its `pct`-th percentile, with
// *beyond set to the number of samples above that rank. Workloads size
// their runs so that at least ten samples lie beyond kTailPct; a fixed
// percentile keeps runs of different lengths comparable.
double TailPercentile(std::vector<double> v, double pct, size_t* beyond);

// Plain nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q);

// Indices of the quieter half (the ceil(n/2) smallest values) of
// `cost`. On a shared host, other tenants slow whole seconds by up to a
// quarter, so throughput is reported over the quieter half of a run's
// passes or windows: robust to contention covering up to half a run.
// Latencies use every pass or window, so stalls of the program show.
std::vector<size_t> QuietHalf(const std::vector<double>& cost);

// Process CPU time (user + system) in seconds, and peak RSS in MiB.
double ProcessCpuSeconds();
double PeakRssMb();

// Cores this process may run on (sched_getaffinity).
unsigned AvailableCores();

class Report {
 public:
  explicit Report(const Options& options);

  // Sets a metric from the schema; aborts on an unknown name (a
  // programming error in the benchmark, not a measurement).
  void Set(const std::string& name, double value);

  // Stamps an environment / configuration fact into the output.
  void Stamp(const std::string& key, const std::string& value);
  void Stamp(const std::string& key, double value);

  // One timed operation; `ok` false counts it as failed (an error, a
  // shed request or a result that disagrees with the reference).
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void AttemptMany(uint64_t n, uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  // A correctness failure: records the reason and marks the run wrong.
  void Wrong(const std::string& what);

  // The measurement itself is unusable (for example the load generator
  // fell behind its schedule): the run must not report numbers.
  void Invalid(const std::string& why);
  bool valid() const { return invalid_.empty(); }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return wrong_.empty() && failed_ == 0; }

  // Writes the run as one JSON line on stdout:
  // {"workload", "seed", "trace", "stamp", "valid", "correct",
  //  "attempted", "failed", "errors", "metrics": {name: {"value",
  //  "unit"}}}.
  // Untraced runs print the end-to-end schema plus error_rate, traced
  // runs the per-layer schema.
  void Print() const;

 private:
  const Options& options_;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> stamp_;  // key, JSON value
  std::vector<std::string> wrong_;
  std::string invalid_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Metric schema, in print order.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& LayerMetrics();

// Per-query aggregation of a distribution as a compact summary line for
// the human-readable log.
std::string Summary(const std::vector<double>& v, const char* unit);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
