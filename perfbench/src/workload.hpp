// The benchmark's four workloads as pure functions of the workload seed.
//
// Closed-loop workloads are an unbounded job list: jobAt(w, seed, i) is
// job i, whichever client sends it. The open-loop workload is an arrival
// schedule: arrivalSchedule(w, seed, seconds) lists every (due time, job)
// pair. Nothing here reads a clock or the host, so the same seed always
// yields byte-identical frames (perfbench_test pins this).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/job.hpp"

namespace perfbench {

enum class Workload { WarmMix, SpecSweep, LargeSim, MixedOpen };

std::optional<Workload> workloadFromName(std::string_view name);
const char* workloadName(Workload workload);

/// mixed-open's offered load and latency limit, fixed with the workload
/// rather than measured per run. On the 4-core host the benchmark was
/// defined on, warm-mix completes 440-530 jobs/s; 130 jobs/s
/// with 5% large jobs keeps cgpad under half busy, so a slower host moves
/// latency without tipping the queue into overload.
inline constexpr double kMixedOpenRatePerSecond = 130.0;
inline constexpr double kSloMillis = 250.0;
/// Scale-up kernel jobs are batch work with a looser fixed limit.
inline constexpr double kBatchSloMillis = 2500.0;

/// The latency limit a job is held to: kSloMillis for scale-1 kernel and
/// fuzz-spec jobs, kBatchSloMillis for kernel jobs at scale > 1.
double sloMillisFor(const cgpa::serve::JobRequest& job);

/// Client connections the workload drives: nproc, one job in flight on
/// each for the closed loops.
int clientsFor(Workload workload, int nproc);

/// Job `index` of a closed-loop workload's job list.
cgpa::serve::JobRequest jobAt(Workload workload, std::uint64_t seed,
                              std::uint64_t index);

/// Jobs sent once before measurement so lazy set-up is done: every
/// distinct (plan, simulator) key for warm-mix and large-sim, and a short
/// burst of never-measured spec jobs for spec-sweep.
std::vector<cgpa::serve::JobRequest> warmupJobs(Workload workload,
                                                std::uint64_t seed);

struct Arrival {
  double dueSeconds = 0; ///< Offset from the start of the window.
  cgpa::serve::JobRequest job;
};

/// Seeded Poisson arrivals at kMixedOpenRatePerSecond over [0, seconds):
/// ~95% warm-mix jobs, the rest the three longest scale-4 kernel jobs
/// (1d-gaussblur, kmeans, ks), each ~1.7% of arrivals, so the p99 lies
/// inside the slowest class instead of on its edge.
std::vector<Arrival> arrivalSchedule(Workload workload, std::uint64_t seed,
                                     double seconds);

/// The five default kernel jobs and their pinned simulated cycles
/// (tests/regression_cycles_test.cpp).
struct PinnedJob {
  cgpa::serve::JobRequest job;
  std::uint64_t cycles = 0;
};
std::vector<PinnedJob> pinnedJobs();

/// Content key of a job: its cgpa.job.v1 document without id and trace.
/// Equal keys simulate identically.
std::string jobKey(const cgpa::serve::JobRequest& job);

/// The wire frame for `job` under correlation id `id`.
std::string jobFrame(cgpa::serve::JobRequest job, std::uint64_t id,
                     bool trace);

/// "kernel@scale" for kernel jobs, "spec" for fuzz-spec jobs: the row a
/// job's simulator throughput is reported under.
std::string rowName(const cgpa::serve::JobRequest& job);

} // namespace perfbench
