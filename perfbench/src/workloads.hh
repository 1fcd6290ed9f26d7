/**
 * @file
 * The four benchmark workloads (see perfbench/README.md for why each
 * exists and which layers it loads).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench
{

std::unique_ptr<Workload> makeRepairPipeline(const RunOptions &opt);
std::unique_ptr<Workload> makeCrashExplore(const RunOptions &opt);
std::unique_ptr<Workload> makeInterleaveExplore(const RunOptions &opt);
std::unique_ptr<Workload> makeKvYcsb(const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
