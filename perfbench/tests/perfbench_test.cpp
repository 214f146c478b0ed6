// The benchmark's own tests: seeded inputs, the percentile rule, span self
// time, and the traced run's two checks (ledger conservation and replay
// irHash fidelity).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "replay.hpp"
#include "serve/executor.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using cgpa::serve::JobRequest;

std::string jobList(Workload workload, std::uint64_t seed) {
  std::string out;
  for (std::uint64_t i = 0; i < 300; ++i)
    out += jobFrame(jobAt(workload, seed, i), i, false) + "\n";
  for (const JobRequest& job : warmupJobs(workload, seed))
    out += jobKey(job) + "\n";
  return out;
}

std::string schedule(std::uint64_t seed) {
  std::string out;
  char due[32];
  for (const Arrival& arrival :
       arrivalSchedule(Workload::MixedOpen, seed, 2.0)) {
    std::snprintf(due, sizeof due, "%.17g ", arrival.dueSeconds);
    out += due + jobKey(arrival.job) + "\n";
  }
  return out;
}

TEST(PerfbenchInputs, SameSeedGivesByteIdenticalJobLists) {
  for (const Workload workload :
       {Workload::WarmMix, Workload::SpecSweep, Workload::LargeSim}) {
    EXPECT_EQ(jobList(workload, 7), jobList(workload, 7))
        << workloadName(workload);
    EXPECT_NE(jobList(workload, 7), jobList(workload, 8))
        << workloadName(workload);
  }
}

TEST(PerfbenchInputs, SameSeedGivesByteIdenticalArrivalSchedule) {
  const std::string a = schedule(7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, schedule(7));
  EXPECT_NE(a, schedule(8));
}

TEST(PerfbenchInputs, WorkloadNamesRoundTrip) {
  for (const char* name : {"warm-mix", "spec-sweep", "large-sim", "mixed-open"})
    EXPECT_STREQ(workloadName(*workloadFromName(name)), name);
  EXPECT_FALSE(workloadFromName("warm").has_value());
}

TEST(PerfbenchStats, P99NeedsTenSamplesBeyondIt) {
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i)
    values.push_back(i);
  EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
  EXPECT_DOUBLE_EQ(supportedTailLevel(999), 0.98);
  values.push_back(1000);
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_DOUBLE_EQ(supportedTailLevel(1000), 0.99);
  EXPECT_EQ(quantile(values, 0.99), 990);
  EXPECT_EQ(quantile(values, 0.5), 500);
  EXPECT_DOUBLE_EQ(supportedTailLevel(240), 0.95);
  EXPECT_DOUBLE_EQ(supportedTailLevel(5), 0.5);
}

TEST(PerfbenchSpans, SelfTimeExcludesChildren) {
  EXPECT_EQ(layerOf("analysis.pdg"), "analysis");
  SpanRecorder tree;
  const int root = tree.open("bench.replay", 2);
  const int first = tree.open("sim.build", 2);
  tree.close(first);
  const int second = tree.open("sim.run", 2);
  tree.close(second);
  tree.close(root);
  const std::vector<std::int64_t> selfs = tree.selfNanos();
  const auto& s = tree.spans();
  EXPECT_EQ(s[1].parent, root);
  EXPECT_EQ(s[2].parent, root);
  EXPECT_EQ(selfs[0], (s[0].endNs - s[0].startNs) -
                          (s[1].endNs - s[1].startNs) -
                          (s[2].endNs - s[2].startNs));
}

TEST(PerfbenchTrace, ServedLedgerConserves) {
  JobRequest job = pinnedJobs()[3].job; // em3d
  job.trace = true;
  cgpa::Expected<cgpa::trace::JsonValue> response =
      cgpa::serve::runJobDirect(job);
  ASSERT_TRUE(response.ok());
  const cgpa::trace::JsonValue* ledger = response->find("trace");
  ASSERT_NE(ledger, nullptr);
  EXPECT_TRUE(conservedPhases(*ledger).has_value());

  cgpa::trace::JsonValue broken = *ledger;
  broken.set("endToEndNanos", ledger->find("endToEndNanos")->asUint() + 1);
  EXPECT_FALSE(conservedPhases(broken).has_value());
}

/// The replay must compile to the same IR (irHash) and simulate to the
/// same cycles as the served path, for kernel and fuzz-spec jobs alike.
void expectReplayMatches(const JobRequest& job) {
  cgpa::Expected<cgpa::trace::JsonValue> served =
      cgpa::serve::runJobDirect(job);
  ASSERT_TRUE(served.ok()) << jobKey(job);
  SpanRecorder spans;
  const ReplayResult replay = replayJob(job, spans, 1);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.irHash, served->find("irHash")->asString()) << jobKey(job);
  EXPECT_EQ(replay.cycles, served->find("cycles")->asUint()) << jobKey(job);
  EXPECT_TRUE(replay.correct);
  EXPECT_GT(replay.responseBytes, 0u);
  EXPECT_EQ(spans.spans().front().name, "bench.replay");
}

TEST(PerfbenchTrace, ReplayIrHashMatchesServedForKernels) {
  for (const PinnedJob& pinned : pinnedJobs())
    expectReplayMatches(pinned.job);
  JobRequest legup = pinnedJobs()[0].job;
  legup.flow = "legup";
  legup.workers = 1;
  expectReplayMatches(legup);
  JobRequest p2 = pinnedJobs()[4].job; // 1d-gaussblur supports P2
  p2.flow = "p2";
  p2.fifoDepth = 4;
  expectReplayMatches(p2);
}

TEST(PerfbenchTrace, ReplayIrHashMatchesServedForSpecs) {
  int specs = 0;
  for (std::uint64_t i = 0; specs < 12; ++i) {
    const JobRequest job = jobAt(Workload::SpecSweep, 3, i);
    if (job.spec.empty())
      continue;
    expectReplayMatches(job);
    ++specs;
  }
}

} // namespace
