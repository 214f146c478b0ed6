#include "replay.hpp"

#include <memory>
#include <optional>

#include "cgpa/driver.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/loopgen.hpp"
#include "hls/ops.hpp"
#include "interp/interpreter.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "opt/passes.hpp"
#include "sim/system.hpp"
#include "trace/metrics.hpp"
#include "trace/remarks_json.hpp"
#include "trace/run_record.hpp"

namespace perfbench {

namespace {

using namespace cgpa;
using serve::JobRequest;

/// Everything a compile produces, alive for the simulation that follows
/// (the pipeline points into the module; the analyses into the function).
struct Compiled {
  std::unique_ptr<ir::Module> module;
  ir::Function* fn = nullptr;
  std::unique_ptr<analysis::DominatorTree> dom;
  std::unique_ptr<analysis::DominatorTree> postDom;
  std::unique_ptr<analysis::LoopInfo> loops;
  std::unique_ptr<analysis::ControlDependence> controlDeps;
  std::unique_ptr<analysis::AliasAnalysis> alias;
  std::unique_ptr<analysis::Pdg> pdg;
  std::unique_ptr<analysis::SccGraph> sccs;
  pipeline::PipelinePlan plan;
  pipeline::PipelineModule pipeline;
  trace::RemarkCollector remarks;
  std::string irHash;
  std::string remarksDigest;
};

/// Run `fn` inside a span named `name`.
template <typename Fn>
auto spanned(SpanRecorder& spans, const char* name, std::uint64_t job,
             Fn&& fn) {
  ScopedSpan span(spans, name, job);
  return fn();
}

Status verifySpanned(SpanRecorder& spans, std::uint64_t job,
                     const ir::Module& module) {
  return spanned(spans, "ir.verify", job,
                 [&] { return ir::verifyModuleStatus(module); });
}

void buildCfg(SpanRecorder& spans, std::uint64_t job, Compiled& c) {
  ScopedSpan span(spans, "analysis.cfg", job);
  c.dom = std::make_unique<analysis::DominatorTree>(*c.fn);
  c.postDom = std::make_unique<analysis::DominatorTree>(*c.fn, true);
  c.loops = std::make_unique<analysis::LoopInfo>(*c.fn, *c.dom);
  c.controlDeps =
      std::make_unique<analysis::ControlDependence>(*c.fn, *c.postDom);
}

/// driver::compileKernelChecked, call for call.
Status compileKernel(const JobRequest& job, driver::Flow flow,
                     SpanRecorder& spans, std::uint64_t id, Compiled& c) {
  const kernels::Kernel* kernel = kernels::kernelByName(job.kernel);
  if (kernel == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "unknown kernel '" + job.kernel + "'");
  driver::CompileOptions options;
  options.partition.numWorkers = job.workers;
  options.remarks = &c.remarks;

  c.module = spanned(spans, "kernels.build_module", id,
                     [&] { return kernel->buildModule(); });
  c.fn = c.module->findFunction("kernel");
  if (c.fn == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "kernel module lacks @kernel");
  if (Status status = verifySpanned(spans, id, *c.module); !status.ok())
    return status;
  spanned(spans, "opt.scalar", id,
          [&] { return opt::runScalarOptimizations(*c.module); });
  if (Status status = verifySpanned(spans, id, *c.module); !status.ok())
    return status;

  const kernels::Workload training =
      spanned(spans, "kernels.training_workload", id,
              [&] { return kernel->buildWorkload(options.profileWorkload); });
  const analysis::ProfileData profile =
      spanned(spans, "analysis.profile", id, [&] {
        return analysis::profileFunction(*c.fn, training.args,
                                         *training.memory);
      });

  buildCfg(spans, id, c);
  c.alias = spanned(spans, "analysis.alias", id, [&] {
    return std::make_unique<analysis::AliasAnalysis>(*c.fn, *c.module,
                                                     *c.loops);
  });
  ir::BasicBlock* header = c.fn->findBlock(kernel->targetLoopHeader());
  analysis::Loop* loop =
      header == nullptr ? nullptr : c.loops->loopWithHeader(header);
  if (loop == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "target loop not found: " +
                             kernel->targetLoopHeader());
  c.pdg = spanned(spans, "analysis.pdg", id, [&] {
    return std::make_unique<analysis::Pdg>(*c.fn, *loop, *c.alias,
                                           *c.controlDeps, &c.remarks);
  });
  c.sccs = spanned(spans, "analysis.scc", id, [&] {
    return std::make_unique<analysis::SccGraph>(
        *c.pdg,
        [&profile](const ir::Instruction* inst) {
          const auto timing = hls::opTiming(inst->opcode(), inst->type());
          return static_cast<double>(profile.countOf(inst->parent())) *
                 static_cast<double>(1 + timing.latency);
        },
        &c.remarks);
  });

  {
    ScopedSpan span(spans, "pipeline.partition", id);
    pipeline::PartitionOptions partition = options.partition;
    partition.remarks = &c.remarks;
    partition.blockFreq = [profile](const ir::BasicBlock* block) {
      return static_cast<double>(profile.countOf(block));
    };
    if (flow == driver::Flow::Legup) {
      c.plan = pipeline::sequentialPlan(*c.sccs, *loop, &c.remarks);
    } else {
      if (Status status = pipeline::checkPartitionOptions(partition);
          !status.ok())
        return status;
      partition.policy = flow == driver::Flow::CgpaP2
                             ? pipeline::ReplicablePolicy::ForceParallel
                             : pipeline::ReplicablePolicy::Heuristic;
      c.plan = pipeline::partitionLoop(*c.sccs, *loop, partition);
    }
  }
  {
    ScopedSpan span(spans, "pipeline.transform", id);
    if (Status status = pipeline::checkTransformPreconditions(c.plan);
        !status.ok())
      return status;
    c.pipeline = pipeline::transformLoop(*c.fn, c.plan, 0, &c.remarks);
  }
  if (Status status = verifySpanned(spans, id, *c.module); !status.ok())
    return status;

  // Schedule and area of the wrapper and every worker, as the compile
  // does; the area itself is not needed here, only its cost.
  ScopedSpan span(spans, "hls.schedule", id);
  hls::ScheduleOptions schedule = options.schedule;
  schedule.remarks = &c.remarks;
  Expected<hls::FunctionSchedule> wrapper =
      hls::scheduleFunctionChecked(*c.fn, schedule);
  if (!wrapper.ok())
    return wrapper.status();
  hls::AreaReport area = hls::estimateWorkerArea(*c.fn, *wrapper);
  for (const pipeline::TaskInfo& task : c.pipeline.tasks) {
    Expected<hls::FunctionSchedule> taskSchedule =
        hls::scheduleFunctionChecked(*task.fn, schedule);
    if (!taskSchedule.ok())
      return taskSchedule.status();
    const hls::AreaReport worker =
        hls::estimateWorkerArea(*task.fn, *taskSchedule);
    for (int k = 0; k < (task.parallel ? c.pipeline.numWorkers : 1); ++k)
      area += worker;
  }
  return Status::success();
}

/// The executor's fuzz-spec compile, call for call.
Status compileSpec(const JobRequest& job, driver::Flow flow,
                   SpanRecorder& spans, std::uint64_t id, Compiled& c) {
  std::string error;
  std::optional<fuzz::GeneratedLoop> generated;
  {
    ScopedSpan span(spans, "fuzz.build_loop", id);
    const std::optional<fuzz::LoopSpec> spec =
        fuzz::parseSpecLine(job.spec, &error);
    if (!spec)
      return Status::error(ErrorCode::InvalidArgument,
                           "bad fuzz spec: " + error);
    generated = fuzz::buildLoop(*spec);
  }
  c.module = std::move(generated->module);
  c.fn = generated->fn;
  spanned(spans, "opt.scalar", id,
          [&] { return opt::runScalarOptimizations(*c.module); });
  if (Status status = verifySpanned(spans, id, *c.module); !status.ok())
    return status;
  buildCfg(spans, id, c);
  c.alias = spanned(spans, "analysis.alias", id, [&] {
    return std::make_unique<analysis::AliasAnalysis>(*c.fn, *c.module,
                                                     *c.loops);
  });
  ir::BasicBlock* header = c.fn->findBlock(generated->headerName);
  analysis::Loop* loop =
      header == nullptr ? nullptr : c.loops->loopWithHeader(header);
  if (loop == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "spec loop header not found after optimization");
  c.pdg = spanned(spans, "analysis.pdg", id, [&] {
    return std::make_unique<analysis::Pdg>(*c.fn, *loop, *c.alias,
                                           *c.controlDeps, &c.remarks);
  });
  c.sccs = spanned(spans, "analysis.scc", id, [&] {
    return std::make_unique<analysis::SccGraph>(
        *c.pdg,
        [](const ir::Instruction* inst) {
          const auto timing = hls::opTiming(inst->opcode(), inst->type());
          return static_cast<double>(1 + timing.latency);
        },
        &c.remarks);
  });
  {
    ScopedSpan span(spans, "pipeline.partition", id);
    if (flow == driver::Flow::Legup) {
      c.plan = pipeline::sequentialPlan(*c.sccs, *loop, &c.remarks);
    } else {
      pipeline::PartitionOptions partition;
      partition.numWorkers = job.workers;
      partition.remarks = &c.remarks;
      if (flow == driver::Flow::CgpaP2)
        partition.policy = pipeline::ReplicablePolicy::ForceParallel;
      if (Status status = pipeline::checkPartitionOptions(partition);
          !status.ok())
        return status;
      c.plan = pipeline::partitionLoop(*c.sccs, *loop, partition);
    }
  }
  {
    ScopedSpan span(spans, "pipeline.transform", id);
    if (Status status = pipeline::checkTransformPreconditions(c.plan);
        !status.ok())
      return status;
    c.pipeline = pipeline::transformLoop(*c.fn, c.plan, 0, &c.remarks);
  }
  return verifySpanned(spans, id, *c.module);
}

/// compileJobPlan: the flow-specific compile, then the IR fingerprint,
/// the remarks digest and the slot pre-finalization.
Status compile(const JobRequest& job, SpanRecorder& spans, std::uint64_t id,
               Compiled& c) {
  ScopedSpan span(spans, "cgpa.compile", id);
  Expected<driver::Flow> flow = serve::flowFromString(job.flow);
  if (!flow.ok())
    return flow.status();
  const Status status = job.kernel.empty()
                            ? compileSpec(job, *flow, spans, id, c)
                            : compileKernel(job, *flow, spans, id, c);
  if (!status.ok())
    return status;
  c.irHash = spanned(spans, "ir.print_hash", id, [&] {
    return trace::hashHex(trace::fnv1a64(ir::printModule(*c.module)));
  });
  c.remarksDigest = spanned(spans, "trace.remarks_digest", id, [&] {
    return trace::hashHex(
        trace::fnv1a64(trace::remarksJson(c.remarks).dump(0)));
  });
  for (const auto& fn : c.module->functions())
    fn->finalizeSlots();
  return Status::success();
}

} // namespace

ReplayResult replayJob(const JobRequest& job, SpanRecorder& spans,
                       std::uint64_t jobId) {
  ReplayResult out;
  ScopedSpan root(spans, "bench.replay", jobId);
  Compiled c;
  if (Status status = compile(job, spans, jobId, c); !status.ok()) {
    out.error = status.toString();
    return out;
  }
  out.irHash = c.irHash;

  sim::SystemConfig config;
  config.fifoDepth = job.fifoDepth;
  config.backend = job.backend;
  if (job.maxCycles != 0)
    config.maxCycles = job.maxCycles;
  std::unique_ptr<sim::SystemSimulator> simulator =
      spanned(spans, "sim.build", jobId, [&] {
        return std::make_unique<sim::SystemSimulator>(c.pipeline, config);
      });

  const kernels::Kernel* kernel =
      job.kernel.empty() ? nullptr : kernels::kernelByName(job.kernel);
  kernels::WorkloadConfig workloadConfig;
  workloadConfig.scale = job.scale;
  workloadConfig.seed = job.seed;
  std::optional<fuzz::LoopSpec> spec;
  if (kernel == nullptr)
    spec = fuzz::parseSpecLine(job.spec);
  auto buildKernelWorkload = [&] {
    return spanned(spans, "kernels.build_workload", jobId,
                   [&] { return kernel->buildWorkload(workloadConfig); });
  };
  auto buildSpecWorkload = [&] {
    return spanned(spans, "fuzz.build_workload", jobId,
                   [&] { return fuzz::buildWorkload(*spec); });
  };
  kernels::Workload kernelWork;
  fuzz::FuzzWorkload specWork;
  if (kernel != nullptr)
    kernelWork = buildKernelWorkload();
  else
    specWork = buildSpecWorkload();
  interp::Memory& memory =
      kernel != nullptr ? *kernelWork.memory : *specWork.memory;
  const std::vector<std::uint64_t>& args =
      kernel != nullptr ? kernelWork.args : specWork.args;

  const std::int64_t runStart = spans.nowNs();
  Expected<sim::SimResult> simulated = spanned(
      spans, "sim.run", jobId, [&] { return simulator->runChecked(memory, args); });
  out.simRunNs = spans.nowNs() - runStart;
  if (!simulated.ok()) {
    out.error = simulated.status().toString();
    return out;
  }
  const sim::SimResult& result = *simulated;

  if (kernel != nullptr) {
    kernels::Workload ref = buildKernelWorkload();
    const std::uint64_t refReturn = spanned(spans, "kernels.reference", jobId, [&] {
      return kernel->runReference(*ref.memory, ref.args);
    });
    out.correct = result.returnValue == refReturn &&
                  memory.raw() == ref.memory->raw();
  } else {
    fuzz::GeneratedLoop golden = spanned(spans, "fuzz.build_loop", jobId,
                                         [&] { return fuzz::buildLoop(*spec); });
    fuzz::FuzzWorkload goldenWork = buildSpecWorkload();
    const interp::InterpResult goldenResult =
        spanned(spans, "interp.golden", jobId, [&] {
          interp::Interpreter interp(*goldenWork.memory);
          return interp.run(*golden.fn, goldenWork.args);
        });
    out.correct = result.returnValue == goldenResult.returnValue &&
                  memory.raw() == goldenWork.memory->raw();
  }

  trace::StatsDocInputs stats;
  stats.result = &result;
  stats.pipeline = &c.pipeline;
  stats.freqMHz = config.freqMHz;
  stats.kernel = kernel != nullptr ? job.kernel : job.spec;
  stats.flow = driver::flowName(*serve::flowFromString(job.flow));
  stats.correct = out.correct;
  stats.workers = job.workers;
  stats.fifoDepth = job.fifoDepth;
  stats.scale = job.scale;
  stats.seed = job.seed;
  trace::JsonValue statsDoc = spanned(spans, "trace.stats_doc", jobId,
                                      [&] { return trace::buildStatsDocument(stats); });
  out.responseBytes = spanned(spans, "serve.response_json", jobId, [&] {
    return serve::jobResultOk(job.id, false, c.irHash, c.remarks.size(),
                              c.remarksDigest,
                              result.cycles, out.correct, std::move(statsDoc))
               .dump(0)
               .size();
  });

  out.cycles = result.cycles;
  out.fifoPushes = result.fifoPushes;
  out.cacheMisses = result.cache.misses;
  out.engineCyclesBusy = result.cyclesBusy;
  out.engineCyclesTotal = result.cyclesBusy + result.stallMem +
                          result.stallFifoFull + result.stallFifoEmpty +
                          result.stallDep + result.cyclesIdle;
  out.ok = true;
  return out;
}

std::optional<std::array<std::uint64_t, cgpa::serve::kJobPhaseCount>>
conservedPhases(const cgpa::trace::JsonValue& ledger) {
  const cgpa::trace::JsonValue* phases = ledger.find("phases");
  const cgpa::trace::JsonValue* total = ledger.find("endToEndNanos");
  if (phases == nullptr || total == nullptr)
    return std::nullopt;
  std::array<std::uint64_t, cgpa::serve::kJobPhaseCount> out{};
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const cgpa::trace::JsonValue* phase = phases->find(
        cgpa::serve::toString(static_cast<cgpa::serve::JobPhase>(i)));
    if (phase == nullptr || !phase->isNumber())
      return std::nullopt;
    out[i] = phase->asUint();
    sum += out[i];
  }
  if (sum != total->asUint())
    return std::nullopt;
  return out;
}

} // namespace perfbench
