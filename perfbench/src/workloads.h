// The benchmark's workloads. Each builds its inputs from options.seed,
// computes reference results by a different engine path, measures for
// options.seconds and fills the report (end-to-end metrics untraced,
// per-layer metrics traced).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>

#include "core/graph_matcher.h"
#include "harness.h"

namespace perfbench {

void RunXmarkPaper(const Options& options, Report* report);
void RunHeavyParallel(const Options& options, Report* report);
void RunServeZipf(const Options& options, Report* report);

// GraphDatabase::Build + GraphMatcher::FromDatabase (what
// GraphMatcher::Create does), with the build timed into *build_s.
std::unique_ptr<fgpm::GraphMatcher> BuildMatcher(
    const fgpm::Graph& g, const fgpm::GraphDatabaseOptions& db_options,
    const fgpm::ExecOptions& exec_options, double* build_s);

// Times BuildTwoHopPruned on `g` (the reachability layer alone) and
// returns its cover entries per node.
double TimeCoverBuild(const fgpm::Graph& g, double* cover_build_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
