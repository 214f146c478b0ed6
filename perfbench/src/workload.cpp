#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "fuzz/corpus.hpp"
#include "fuzz/loopgen.hpp"
#include "kernels/kernel.hpp"
#include "support/rng.hpp"

namespace perfbench {

using cgpa::serve::JobRequest;

namespace {

/// Independent generator per (workload, seed, stream, index): jobs are
/// random access, so no job depends on how many were drawn before it.
cgpa::Rng rngFor(Workload workload, std::uint64_t seed, std::uint64_t stream,
                 std::uint64_t index) {
  cgpa::Rng mix(seed * 0x9E3779B97F4A7C15ULL +
                static_cast<std::uint64_t>(workload) * 0xBF58476D1CE4E5B9ULL +
                stream * 0x94D049BB133111EBULL + index);
  mix.next();
  return cgpa::Rng(mix.next());
}

JobRequest kernelJob(const std::string& kernel, const std::string& flow,
                     int workers, int fifoDepth, int scale,
                     std::uint64_t seed) {
  JobRequest job;
  job.kernel = kernel;
  job.flow = flow;
  job.workers = workers;
  job.fifoDepth = fifoDepth;
  job.scale = scale;
  job.seed = seed;
  return job;
}

std::vector<std::string> kernelNames() {
  std::vector<std::string> names;
  for (const cgpa::kernels::Kernel* kernel : cgpa::kernels::allKernels())
    names.push_back(kernel->name());
  return names;
}

bool supportsP2(const std::string& kernel) {
  return cgpa::kernels::kernelByName(kernel)->supportsP2();
}

/// Workload seeds a repeat-heavy workload draws its jobs' seeds from.
std::vector<std::uint64_t> seedPool(Workload workload, std::uint64_t seed,
                                    int size) {
  std::vector<std::uint64_t> pool;
  for (int k = 0; k < size; ++k)
    pool.push_back(1 + rngFor(workload, seed, 1, static_cast<std::uint64_t>(k))
                           .nextBelow(1'000'000));
  return pool;
}

/// warm-mix's distinct jobs: every kernel at scale 1 under three
/// (flow, workers, fifoDepth) points, times four job seeds. The 15
/// distinct plans and 15 distinct simulator keys stay under cgpad's caps
/// (32 plans; 16 simulators per worker), so after warm-up every job hits.
std::vector<JobRequest> warmMixSet(std::uint64_t seed) {
  std::vector<JobRequest> set;
  const std::vector<std::uint64_t> seeds =
      seedPool(Workload::WarmMix, seed, 4);
  for (const std::string& kernel : kernelNames()) {
    for (const std::uint64_t jobSeed : seeds) {
      set.push_back(kernelJob(kernel, "p1", 4, 16, 1, jobSeed));
      set.push_back(kernelJob(kernel, "p1", 2, 4, 1, jobSeed));
      if (supportsP2(kernel))
        set.push_back(kernelJob(kernel, "p2", 4, 8, 1, jobSeed));
      else
        set.push_back(kernelJob(kernel, "legup", 1, 8, 1, jobSeed));
    }
  }
  return set;
}

/// large-sim's distinct jobs: every kernel at scale 4, plus em3d and
/// 1d-gaussblur (the kernel whose host time grows superlinearly) at scale
/// 8, two job seeds each, all on the default P1/4-worker/16-deep
/// configuration. Seven equally frequent classes put the median inside one
/// class (kmeans@4) rather than on the edge between two.
std::vector<JobRequest> largeSimSet(std::uint64_t seed) {
  std::vector<JobRequest> set;
  const std::vector<std::uint64_t> seeds =
      seedPool(Workload::LargeSim, seed, 2);
  for (const std::uint64_t jobSeed : seeds) {
    for (const std::string& kernel : kernelNames())
      set.push_back(kernelJob(kernel, "p1", 4, 16, 4, jobSeed));
    set.push_back(kernelJob("em3d", "p1", 4, 16, 8, jobSeed));
    set.push_back(kernelJob("1d-gaussblur", "p1", 4, 16, 8, jobSeed));
  }
  return set;
}

/// Job `index` of a list that visits `set` in rounds, each round a seeded
/// shuffle holding every member once: the mix a run sees is balanced no
/// matter how many jobs it completes.
JobRequest balancedAt(const std::vector<JobRequest>& set, Workload workload,
                      std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index) {
  const std::uint64_t round = index / set.size();
  std::vector<std::size_t> order(set.size());
  std::iota(order.begin(), order.end(), 0);
  cgpa::Rng rng = rngFor(workload, seed, stream, round);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.nextBelow(i)]);
  return set[order[index % set.size()]];
}

/// spec-sweep job: mostly a fresh fuzz loop, one in sixteen a kernel
/// design point. Kernel design points revisit one of 60 compile keys only
/// ~1000 jobs apart, long after the 32-entry plan cache evicted them, so
/// every lookup misses.
JobRequest specSweepAt(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
  cgpa::Rng rng = rngFor(Workload::SpecSweep, seed, stream, index);
  static const char* const kFlows[] = {"p1", "p2", "legup"};
  static const int kFifoDepths[] = {2, 4, 8, 16};
  if (rng.nextBelow(16) == 0) {
    const std::vector<std::string> names = kernelNames();
    const std::string& kernel = names[rng.nextBelow(names.size())];
    std::string flow = kFlows[rng.nextBelow(3)];
    if (flow == "p2" && !supportsP2(kernel))
      flow = "p1";
    const int workers = 1 << rng.nextBelow(4);
    const int fifoDepth = kFifoDepths[rng.nextBelow(4)];
    return kernelJob(kernel, flow, workers, fifoDepth, 1,
                     1 + rng.nextBelow(1'000'000));
  }
  JobRequest job;
  job.spec = cgpa::fuzz::serializeSpec(cgpa::fuzz::specFromSeed(rng.next()));
  job.flow = kFlows[rng.nextBelow(3)];
  job.workers = 1 << rng.nextBelow(3);
  job.fifoDepth = kFifoDepths[rng.nextBelow(4)];
  return job;
}

} // namespace

std::optional<Workload> workloadFromName(std::string_view name) {
  for (const Workload workload : {Workload::WarmMix, Workload::SpecSweep,
                                  Workload::LargeSim, Workload::MixedOpen})
    if (name == workloadName(workload))
      return workload;
  return std::nullopt;
}

const char* workloadName(Workload workload) {
  switch (workload) {
  case Workload::WarmMix:
    return "warm-mix";
  case Workload::SpecSweep:
    return "spec-sweep";
  case Workload::LargeSim:
    return "large-sim";
  case Workload::MixedOpen:
    return "mixed-open";
  }
  return "?";
}

int clientsFor(Workload, int nproc) { return std::max(1, nproc); }

JobRequest jobAt(Workload workload, std::uint64_t seed, std::uint64_t index) {
  switch (workload) {
  case Workload::WarmMix:
    return balancedAt(warmMixSet(seed), workload, seed, 2, index);
  case Workload::SpecSweep:
    return specSweepAt(seed, 0, index);
  case Workload::LargeSim:
    return balancedAt(largeSimSet(seed), workload, seed, 2, index);
  case Workload::MixedOpen:
    break;
  }
  return {};
}

std::vector<JobRequest> warmupJobs(Workload workload, std::uint64_t seed) {
  switch (workload) {
  case Workload::WarmMix:
    return warmMixSet(seed);
  case Workload::SpecSweep: {
    std::vector<JobRequest> jobs;
    for (std::uint64_t i = 0; i < 256; ++i)
      jobs.push_back(specSweepAt(seed, 3, i));
    return jobs;
  }
  case Workload::LargeSim:
    return largeSimSet(seed);
  case Workload::MixedOpen: {
    std::vector<JobRequest> jobs = warmMixSet(seed);
    for (const JobRequest& job : largeSimSet(seed))
      jobs.push_back(job);
    return jobs;
  }
  }
  return {};
}

std::vector<Arrival> arrivalSchedule(Workload workload, std::uint64_t seed,
                                     double seconds) {
  std::vector<Arrival> schedule;
  if (workload != Workload::MixedOpen)
    return schedule;
  const std::vector<JobRequest> warm = warmMixSet(seed);
  std::vector<JobRequest> large = largeSimSet(seed);
  std::erase_if(large, [](const JobRequest& job) {
    return job.scale != 4 || (job.kernel != "1d-gaussblur" &&
                              job.kernel != "kmeans" && job.kernel != "ks");
  });
  std::uint64_t warmIndex = 0;
  std::uint64_t largeIndex = 0;
  double due = 0;
  for (std::uint64_t k = 0;; ++k) {
    cgpa::Rng rng = rngFor(workload, seed, 4, k);
    due += -std::log(1.0 - rng.nextDouble()) / kMixedOpenRatePerSecond;
    if (due >= seconds)
      break;
    Arrival arrival;
    arrival.dueSeconds = due;
    // Exactly one arrival in each block of 20 is large, at a seeded slot,
    // so every seed offers the same share of each large class.
    const bool isLarge =
        k % 20 == rngFor(workload, seed, 6, k / 20).nextBelow(20);
    arrival.job =
        isLarge
            ? balancedAt(large, workload, seed, 5, largeIndex++)
            : balancedAt(warm, workload, seed, 2, warmIndex++);
    schedule.push_back(std::move(arrival));
  }
  return schedule;
}

std::vector<PinnedJob> pinnedJobs() {
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"kmeans", 100538}, {"hash-indexing", 21349}, {"ks", 10444},
      {"em3d", 21360},    {"1d-gaussblur", 39645}};
  std::vector<PinnedJob> jobs;
  for (const auto& [kernel, cycles] : pins) {
    PinnedJob pinned;
    pinned.job.kernel = kernel;
    pinned.cycles = cycles;
    jobs.push_back(std::move(pinned));
  }
  return jobs;
}

std::string jobKey(const JobRequest& job) {
  JobRequest copy = job;
  copy.id = cgpa::trace::JsonValue();
  copy.trace = false;
  return cgpa::serve::jobToJson(copy).dump(0);
}

std::string jobFrame(JobRequest job, std::uint64_t id, bool trace) {
  job.id = cgpa::trace::JsonValue(id);
  job.trace = trace;
  return cgpa::serve::jobToJson(job).dump(0);
}

double sloMillisFor(const JobRequest& job) {
  return job.scale > 1 ? kBatchSloMillis : kSloMillis;
}

std::string rowName(const JobRequest& job) {
  if (job.kernel.empty())
    return "spec";
  return job.kernel + "@" + std::to_string(job.scale);
}

} // namespace perfbench
