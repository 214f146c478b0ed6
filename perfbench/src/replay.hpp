// Replay of one served job through the libraries' public calls, with a
// span around each call: the traced run's per-layer account.
//
// The replay follows compileJobPlan (driver::compileKernelChecked for
// kernel jobs, the fuzz-spec compile otherwise) and the executor's
// simulate / verify / serialize path call for call, so its irHash and
// cycles must equal the served response's. Span names are
// "<layer>.<call>" with layers named after the src/ modules.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "serve/job.hpp"
#include "serve/job_trace.hpp"
#include "spans.hpp"
#include "trace/json.hpp"

namespace perfbench {

struct ReplayResult {
  bool ok = false;
  std::string error; ///< Why the replay failed (ok=false).
  std::string irHash;
  std::uint64_t cycles = 0;
  bool correct = false;
  std::uint64_t fifoPushes = 0;
  std::uint64_t cacheMisses = 0;
  /// Engine-cycles the cycle-attribution ledger counts busy, and all
  /// engine-cycles it attributes (busy + stalls + idle).
  std::uint64_t engineCyclesBusy = 0;
  std::uint64_t engineCyclesTotal = 0;
  std::int64_t simRunNs = 0;
  std::size_t responseBytes = 0; ///< Untraced cgpa.jobresult.v1 frame.
};

/// Replay `job` under a root span "bench.replay" tagged with `jobId`.
ReplayResult replayJob(const cgpa::serve::JobRequest& job,
                       SpanRecorder& spans, std::uint64_t jobId);

/// The eight phase durations of a served cgpa.jobtrace.v1 ledger, or
/// nullopt unless every phase is present and they sum exactly to
/// endToEndNanos.
std::optional<std::array<std::uint64_t, cgpa::serve::kJobPhaseCount>>
conservedPhases(const cgpa::trace::JsonValue& ledger);

} // namespace perfbench
