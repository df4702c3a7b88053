// fgpm_perfbench: runs one benchmark workload in this process and
// prints its result as one JSON line on stdout (progress goes to
// stderr). perfbench/run.py builds this binary and drives it.
//
//   fgpm_perfbench --workload xmark_paper --seed 1 --seconds 10 --trace 0
//       [--tiny]
//
// Exit status: 0 when the run completed (the JSON says whether every
// result was correct), 3 when the measurement was invalid, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "obs/obs.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fgpm_perfbench --workload "
               "{xmark_paper|heavy_parallel|serve_zipf} --seed N "
               "--seconds S --trace {0|1} [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else {
      return Usage();
    }
  }
  if (!(o.seconds > 0)) return Usage();

  perfbench::Report report(o);
  report.Stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.Stamp("fgpm_obs", fgpm::obs::kCompiledIn ? "ON" : "OFF");
  report.Stamp("nproc", perfbench::AvailableCores());
  report.Stamp("hardware_threads", std::thread::hardware_concurrency());
  report.Stamp("seconds", o.seconds);
  report.Stamp("tiny", o.tiny ? 1 : 0);

  if (o.workload == "xmark_paper") {
    perfbench::RunXmarkPaper(o, &report);
  } else if (o.workload == "heavy_parallel") {
    perfbench::RunHeavyParallel(o, &report);
  } else if (o.workload == "serve_zipf") {
    perfbench::RunServeZipf(o, &report);
  } else {
    return Usage();
  }
  if (!o.trace) {
    report.Set("peak_rss_mb", perfbench::PeakRssMb());
    report.Set("error_rate",
               report.attempted() ? double(report.failed()) / report.attempted()
                                  : 1.0);
  }
  report.Print();
  return report.valid() ? 0 : 3;
}
