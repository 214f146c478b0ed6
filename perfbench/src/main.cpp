// cgpabench — the load generator and checker of the cgpad benchmark.
//
// One run: start cgpad (worker pool = nproc) as the system under test,
// drive one workload over its Unix socket from this single process, check
// every response against serve::runJobDirect for the same job, and print
// the metrics. The last stdout line is the result object
//   {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The self-describing record (host, build, seeds, rate, SLO,
// per-kernel×scale rows, every setup) goes to <workdir>/results/.
//
// Usage: cgpabench --workload NAME --seed N --seconds S --trace 0|1
//                  --cgpad PATH --workdir DIR [--git-sha SHA]
// Exit codes: 0 every response correct; 1 a response failed the check;
// 2 usage; 3 refused (not a Release build) or the daemon never answered.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "client.hpp"
#include "host.hpp"
#include "replay.hpp"
#include "serve/executor.hpp"
#include "serve/job_trace.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "support/argparse.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using cgpa::serve::JobRequest;
using cgpa::trace::JsonValue;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;             ///< Set-ups per run; setup_s is their median.
constexpr std::size_t kSpecReplays = 256; ///< spec-sweep jobs the traced run replays.
constexpr auto kStartupTimeout = std::chrono::seconds(30);
/// Jobs each closed-loop connection keeps in flight: two per connection
/// keep every worker busy while a client handles an answer, so a closed
/// loop measures cgpad's capacity and not the client's turnaround.
constexpr int kPipelineDepth = 2;
/// In-flight jobs with no send or answer for this long get a nudge. It
/// is over twice the longest job's service time (1d-gaussblur at scale 8,
/// ~0.65 s with four running), so a nudge means a lost wakeup.
constexpr auto kNudgeQuiet = std::chrono::milliseconds(1500);

struct Options {
  Workload workload = Workload::WarmMix;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cgpad;
  std::string workdir;
  std::string gitSha;
};

/// One job sent to the daemon and what came back.
struct Sample {
  JobRequest job;
  std::int64_t startNs = 0; ///< Send time (closed loop) or due time (open).
  std::int64_t sentNs = 0;
  std::int64_t endNs = 0;
  bool received = false;
  bool ok = false;
  bool correct = false;
  std::uint64_t cycles = 0;
  std::string irHash;
  bool hasLedger = false;
  bool ledgerConserved = false;
  std::array<std::uint64_t, cgpa::serve::kJobPhaseCount> phases{};

  double latencyMs() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/// What runJobDirect says a job must answer.
struct DirectAnswer {
  bool ok = false;
  std::uint64_t cycles = 0;
  std::string irHash;
  std::string error;
};

struct CacheCounters {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
};

/// A measured window and the clock range it covered.
struct Window {
  std::vector<Sample> samples;
  std::int64_t beginNs = 0;
  std::int64_t deadlineNs = 0;
  /// How late the generator sent: open loop, actual send - due time;
  /// closed loop, next send - the answer that freed the slot.
  std::vector<double> lateMs;
};

// ---------------------------------------------------------------- parsing

int parseOptions(int argc, char** argv, Options& options) {
  cgpa::support::ArgParser args(argc, argv);
  while (!args.done()) {
    cgpa::Status status;
    auto text = [&](std::string& out) {
      cgpa::Expected<std::string> v = args.value();
      if (v.ok())
        out = *v;
      else
        status = v.status();
    };
    std::string value;
    if (args.matchFlag("workload")) {
      text(value);
      const std::optional<Workload> workload = workloadFromName(value);
      if (status.ok() && !workload)
        status = cgpa::Status::error(cgpa::ErrorCode::InvalidArgument,
                                     "unknown workload '" + value + "'");
      if (workload)
        options.workload = *workload;
    } else if (args.matchFlag("seed")) {
      cgpa::Expected<std::uint64_t> v = args.uintValue();
      if (v.ok())
        options.seed = *v;
      else
        status = v.status();
    } else if (args.matchFlag("seconds")) {
      text(value);
      options.seconds = std::strtod(value.c_str(), nullptr);
      if (status.ok() && !(options.seconds > 0 && options.seconds <= 120))
        status = cgpa::Status::error(cgpa::ErrorCode::InvalidArgument,
                                     "--seconds must be in (0, 120]");
    } else if (args.matchFlag("trace")) {
      text(value);
      if (status.ok() && value != "0" && value != "1")
        status = cgpa::Status::error(cgpa::ErrorCode::InvalidArgument,
                                     "--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (args.matchFlag("cgpad")) {
      text(options.cgpad);
    } else if (args.matchFlag("workdir")) {
      text(options.workdir);
    } else if (args.matchFlag("git-sha")) {
      text(options.gitSha);
    } else {
      status = args.unknown();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "cgpabench: %s\n", status.message().c_str());
      return 2;
    }
  }
  if (options.cgpad.empty() || options.workdir.empty()) {
    std::fprintf(stderr, "cgpabench: --cgpad and --workdir are required\n");
    return 2;
  }
  return 0;
}

// ------------------------------------------------------------- responses

/// Record an answer; `doc` is its parsed frame (nullopt if unparseable,
/// which then fails the check as ok=false).
void readResponse(const std::optional<JsonValue>& doc, Sample& sample) {
  sample.received = true;
  if (!doc)
    return;
  auto field = [&doc](const char* key) { return doc->find(key); };
  if (const JsonValue* ok = field("ok"))
    sample.ok = ok->asBool();
  if (const JsonValue* correct = field("correct"))
    sample.correct = correct->asBool();
  if (const JsonValue* cycles = field("cycles"))
    sample.cycles = cycles->asUint();
  if (const JsonValue* hash = field("irHash"))
    sample.irHash = hash->asString();
  const JsonValue* ledger = field("trace");
  if (ledger == nullptr)
    return;
  sample.hasLedger = true;
  if (const auto phases = conservedPhases(*ledger)) {
    sample.phases = *phases;
    sample.ledgerConserved = true;
  }
}

/// runJobDirect for every job key not yet in `expected`, on `threads`
/// threads. Runs only while the daemon is idle or down.
void computeExpected(const std::vector<JobRequest>& jobs, int threads,
                     std::map<std::string, DirectAnswer>& expected) {
  std::vector<std::pair<std::string, JobRequest>> todo;
  std::set<std::string> queued;
  for (const JobRequest& job : jobs) {
    std::string key = jobKey(job);
    if (expected.count(key) == 0 && queued.insert(key).second)
      todo.emplace_back(std::move(key), job);
  }
  std::vector<DirectAnswer> results(todo.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < todo.size(); i = next++) {
        JobRequest job = todo[i].second;
        job.id = JsonValue();
        job.trace = false;
        cgpa::Expected<JsonValue> direct = cgpa::serve::runJobDirect(job);
        DirectAnswer& out = results[i];
        if (!direct.ok()) {
          out.error = direct.status().toString();
          continue;
        }
        const JsonValue* correct = direct->find("correct");
        out.ok = correct != nullptr && correct->asBool();
        out.cycles = direct->find("cycles")->asUint();
        out.irHash = direct->find("irHash")->asString();
        if (!out.ok)
          out.error = "runJobDirect reports correct=false";
      }
    });
  }
  for (std::thread& thread : pool)
    thread.join();
  for (std::size_t i = 0; i < todo.size(); ++i)
    expected.emplace(std::move(todo[i].first), std::move(results[i]));
}

/// Empty when `sample` is a correct answer to its job; else why not.
std::string checkSample(const Sample& sample,
                        const std::map<std::string, DirectAnswer>& expected) {
  if (!sample.received)
    return "no response";
  if (!sample.ok)
    return "ok=false";
  if (!sample.correct)
    return "correct=false";
  const auto it = expected.find(jobKey(sample.job));
  if (it == expected.end())
    return "no expected result";
  if (!it->second.ok)
    return "runJobDirect failed: " + it->second.error;
  if (sample.cycles != it->second.cycles)
    return "cycles " + std::to_string(sample.cycles) + " != expected " +
           std::to_string(it->second.cycles);
  if (sample.irHash != it->second.irHash)
    return "irHash " + sample.irHash + " != expected " + it->second.irHash;
  if (sample.hasLedger && !sample.ledgerConserved)
    return "jobtrace ledger not conserved";
  return "";
}

// ---------------------------------------------------------------- driving

std::unique_ptr<Connection> connect(const std::string& socketPath) {
  return Connection::open(socketPath, Clock::now() + kStartupTimeout);
}

/// Send one job on `conn` and wait for its answer.
void roundTrip(Connection& conn, Sample& sample, std::uint64_t id, bool trace,
               const SpanRecorder& clock, Activity& activity) {
  const std::string frame = jobFrame(sample.job, id, trace);
  sample.startNs = sample.sentNs = clock.nowNs();
  activity.sent();
  const bool sent = conn.send(frame);
  std::optional<std::string> response;
  if (sent)
    response = conn.receive();
  sample.endNs = clock.nowNs();
  activity.answered();
  if (response)
    readResponse(cgpa::trace::parseJson(*response), sample);
}

/// Closed loop over a fixed job list (warm-up): `clients` connections,
/// each sending its next job when the previous one is answered.
std::vector<Sample> runList(const std::string& socketPath,
                            const std::vector<JobRequest>& jobs, int clients,
                            bool trace, std::uint64_t firstId,
                            const SpanRecorder& clock, Activity& activity) {
  std::vector<Sample> samples(jobs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::unique_ptr<Connection> conn = connect(socketPath);
      for (std::size_t i = next++; i < jobs.size(); i = next++) {
        samples[i].job = jobs[i];
        if (conn)
          roundTrip(*conn, samples[i], firstId + i, trace, clock, activity);
      }
    });
  }
  for (std::thread& thread : threads)
    thread.join();
  return samples;
}

/// Closed loop for `seconds`: `clients` connections draw job indices from
/// `next`; each keeps kPipelineDepth jobs in flight and sends its next job
/// when one is answered.
Window runClosed(const Options& options, const std::string& socketPath,
                 int clients, bool trace, std::atomic<std::uint64_t>& next,
                 std::uint64_t idBase, const SpanRecorder& clock,
                 Activity& activity) {
  Window window;
  window.beginNs = clock.nowNs();
  window.deadlineNs =
      window.beginNs + static_cast<std::int64_t>(options.seconds * 1e9);
  std::mutex merge;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<Sample> local;
      std::vector<double> late;
      std::map<std::uint64_t, Sample> inflight;
      std::unique_ptr<Connection> conn = connect(socketPath);
      auto sendNext = [&] {
        const std::uint64_t index = next++;
        Sample sample;
        sample.job = jobAt(options.workload, options.seed, index);
        const std::string frame = jobFrame(sample.job, idBase + index, trace);
        sample.startNs = sample.sentNs = clock.nowNs();
        activity.sent();
        const bool sent = conn->send(frame);
        if (!sent)
          activity.answered();
        inflight.emplace(idBase + index, std::move(sample));
        return sent;
      };
      bool healthy = conn != nullptr;
      for (int k = 0; healthy && k < kPipelineDepth; ++k)
        healthy = sendNext();
      while (healthy && !inflight.empty()) {
        const std::optional<std::string> frame = conn->receive();
        const std::int64_t now = clock.nowNs();
        if (!frame)
          break;
        activity.answered();
        // Refill the freed slot first: reading the answer can wait.
        if (now < window.deadlineNs) {
          healthy = sendNext();
          late.push_back(static_cast<double>(clock.nowNs() - now) / 1e6);
        }
        const std::optional<JsonValue> doc = cgpa::trace::parseJson(*frame);
        const JsonValue* id = doc ? doc->find("id") : nullptr;
        const auto it = id != nullptr ? inflight.find(id->asUint()) : inflight.end();
        if (it == inflight.end())
          break;
        it->second.endNs = now;
        readResponse(doc, it->second);
        local.push_back(std::move(it->second));
        inflight.erase(it);
      }
      // Unanswered jobs stay in the window as failures.
      for (auto& [id, sample] : inflight) {
        activity.answered();
        local.push_back(std::move(sample));
      }
      std::lock_guard lock(merge);
      for (Sample& sample : local)
        window.samples.push_back(std::move(sample));
      window.lateMs.insert(window.lateMs.end(), late.begin(), late.end());
    });
  }
  for (std::thread& thread : threads)
    thread.join();
  return window;
}

/// Open loop: the seeded arrival schedule, sent on time over `clients`
/// connections whatever the daemon's backlog; latency runs from the due
/// time, so a late generator shows as latency too.
Window runOpen(const Options& options, const std::string& socketPath,
               int clients, bool trace, std::uint64_t idBase,
               const SpanRecorder& clock, Activity& activity) {
  const std::vector<Arrival> schedule =
      arrivalSchedule(options.workload, options.seed, options.seconds);
  Window window;
  window.samples.resize(schedule.size());
  std::vector<std::string> frames;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    window.samples[k].job = schedule[k].job;
    frames.push_back(jobFrame(schedule[k].job, idBase + k, trace));
  }
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < clients; ++c)
    if (std::unique_ptr<Connection> conn = connect(socketPath))
      conns.push_back(std::move(conn));
  if (conns.empty())
    return window;

  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    receivers.emplace_back([&, c] {
      std::size_t expectedCount = 0;
      for (std::size_t k = c; k < schedule.size(); k += conns.size())
        ++expectedCount;
      for (std::size_t got = 0; got < expectedCount; ++got) {
        std::optional<std::string> frame = conns[c]->receive();
        const std::int64_t now = clock.nowNs();
        activity.answered();
        if (!frame)
          return;
        const std::optional<JsonValue> doc = cgpa::trace::parseJson(*frame);
        const JsonValue* id = doc ? doc->find("id") : nullptr;
        if (id == nullptr || !id->isNumber() || id->asUint() < idBase ||
            id->asUint() - idBase >= schedule.size())
          continue;
        Sample& sample = window.samples[id->asUint() - idBase];
        sample.endNs = now;
        readResponse(doc, sample);
      }
    });
  }

  const Clock::time_point begin = Clock::now() + std::chrono::milliseconds(20);
  window.beginNs = clock.toNs(begin);
  window.deadlineNs =
      window.beginNs + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const auto due = begin + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                 schedule[k].dueSeconds * 1e9));
    std::this_thread::sleep_until(due);
    Sample& sample = window.samples[k];
    sample.startNs = clock.toNs(due);
    sample.sentNs = clock.nowNs();
    window.lateMs.push_back(static_cast<double>(sample.sentNs - sample.startNs) /
                            1e6);
    activity.sent();
    if (!conns[k % conns.size()]->send(frames[k]))
      break;
  }
  for (std::thread& receiver : receivers)
    receiver.join();
  return window;
}

Window runWindow(const Options& options, const std::string& socketPath,
                 int clients, bool trace, std::atomic<std::uint64_t>& next,
                 std::uint64_t idBase, const SpanRecorder& clock,
                 Activity& activity) {
  return options.workload == Workload::MixedOpen
             ? runOpen(options, socketPath, clients, trace, idBase, clock,
                       activity)
             : runClosed(options, socketPath, clients, trace, next, idBase,
                         clock, activity);
}

CacheCounters cacheCounters(const std::string& socketPath) {
  CacheCounters counters;
  std::unique_ptr<Connection> conn = connect(socketPath);
  if (!conn ||
      !conn->send(R"({"schema":"cgpa.job.v1","id":"stats","op":"stats"})"))
    return counters;
  const std::optional<std::string> frame = conn->receive();
  const std::optional<JsonValue> doc =
      frame ? cgpa::trace::parseJson(*frame) : std::nullopt;
  const JsonValue* stats = doc ? doc->find("serverStats") : nullptr;
  const JsonValue* cache = stats ? stats->find("cache") : nullptr;
  if (cache == nullptr)
    return counters;
  counters.lookups = cache->find("lookups")->asUint();
  counters.hits = cache->find("hits")->asUint();
  counters.evictions = cache->find("evictions")->asUint();
  return counters;
}

// ------------------------------------------------------------- reporting

/// Shortest round-trip decimal form of `value`: every digit measured.
std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  std::string resultLine(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i != 0)
        line += ", ";
      line += "\"" + metrics_[i].name + "\": {\"value\": " +
              number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
              "\"}";
    }
    return line + "}}";
  }

  JsonValue toJson() const {
    JsonValue doc = JsonValue::object();
    for (const Metric& metric : metrics_) {
      JsonValue entry = JsonValue::object();
      entry.set("value", metric.value);
      entry.set("unit", metric.unit);
      doc.set(metric.name, std::move(entry));
    }
    return doc;
  }

private:
  std::vector<Metric> metrics_;
};

std::vector<double> latenciesMs(const Window& window) {
  std::vector<double> out;
  for (const Sample& sample : window.samples)
    if (sample.received)
      out.push_back(sample.latencyMs());
  return sorted(std::move(out));
}

/// Per kernel×scale rows of a window: jobs, median latency, and simulated
/// Mcycle per second of job latency.
JsonValue rowsJson(const Window& window) {
  struct Row {
    std::vector<double> latencies;
    double cycles = 0;
    double seconds = 0;
  };
  std::map<std::string, Row> rows;
  for (const Sample& sample : window.samples) {
    if (!sample.received || !sample.correct)
      continue;
    Row& row = rows[rowName(sample.job)];
    row.latencies.push_back(sample.latencyMs());
    row.cycles += static_cast<double>(sample.cycles);
    row.seconds += sample.latencyMs() / 1e3;
  }
  JsonValue out = JsonValue::array();
  for (auto& [name, row] : rows) {
    JsonValue entry = JsonValue::object();
    entry.set("row", name);
    entry.set("jobs", static_cast<std::uint64_t>(row.latencies.size()));
    entry.set("p50_ms", median(row.latencies));
    entry.set("mcycles_per_job_s", row.cycles / row.seconds / 1e6);
    out.push(std::move(entry));
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  if (const int rc = parseOptions(argc, argv, options); rc != 0)
    return rc;
  const HostInfo host = HostInfo::collect(options.gitSha);
  if (!host.releaseBuild()) {
    std::fprintf(stderr,
                 "cgpabench: refusing to report from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 host.buildType.c_str());
    return 3;
  }
  const std::string cgpad = std::filesystem::absolute(options.cgpad).string();
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(options.workdir) / "results", ec);
  if (ec || ::chdir(options.workdir.c_str()) != 0) {
    std::fprintf(stderr, "cgpabench: cannot use workdir %s\n",
                 options.workdir.c_str());
    return 2;
  }
  const std::string tag = std::string(workloadName(options.workload)) +
                          "-seed" + std::to_string(options.seed) + "-trace" +
                          (options.trace ? "1" : "0");
  // Relative to the workdir: sun_path holds only 107 bytes.
  const std::string socketPath = "cgpad-" + std::to_string(::getpid()) + ".sock";
  const int nproc = std::max(1, host.nproc);
  const int clients = clientsFor(options.workload, nproc);
  const SpanRecorder clock;

  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  auto check = [&](const std::vector<Sample>& samples,
                   const std::map<std::string, DirectAnswer>& expected) {
    for (const Sample& sample : samples) {
      ++attempted;
      if (std::string why = checkSample(sample, expected); !why.empty())
        failures.push_back(why + ": " + jobKey(sample.job));
    }
  };

  // Expected answers for every job known before the run, and the pinned
  // cycles of the five default kernel jobs.
  std::map<std::string, DirectAnswer> expected;
  std::vector<JobRequest> pinned;
  for (const PinnedJob& pin : pinnedJobs())
    pinned.push_back(pin.job);
  std::vector<JobRequest> known = pinned;
  for (const JobRequest& job : warmupJobs(options.workload, options.seed))
    known.push_back(job);
  for (const Arrival& arrival :
       arrivalSchedule(options.workload, options.seed, options.seconds))
    known.push_back(arrival.job);
  computeExpected(known, nproc, expected);
  for (const PinnedJob& pin : pinnedJobs()) {
    const DirectAnswer& direct = expected.at(jobKey(pin.job));
    if (direct.cycles != pin.cycles)
      failures.push_back("pinned " + pin.job.kernel + ": runJobDirect gives " +
                         std::to_string(direct.cycles) + " cycles, pinned " +
                         std::to_string(pin.cycles));
  }

  // Set-up, kSetups times: daemon start -> first correct answer to the
  // pinned jobs, then the workload's warm-up. The last daemon stays up.
  std::vector<double> setupSeconds;
  std::vector<Sample> tracedSetup;
  std::unique_ptr<Daemon> daemon;
  Activity activity;
  std::unique_ptr<Nudger> nudger;
  std::uint64_t nudges = 0;
  auto stopNudger = [&] {
    if (!nudger)
      return;
    nudges += nudger->sent();
    if (nudger->wrongAnswers() != 0)
      failures.push_back(std::to_string(nudger->wrongAnswers()) +
                         " wrong answers to nudge jobs");
    nudger.reset();
  };
  std::uint64_t nextId = 1;
  for (int s = 0; s < kSetups; ++s) {
    if (daemon) {
      stopNudger();
      daemon->shutdown(std::chrono::seconds(10));
      // The destructor unlinks the socket path, which the next daemon
      // reuses: it must run before that daemon binds.
      daemon.reset();
    }
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(cgpad, socketPath, nproc, "cgpad.log");
    if (!daemon->waitReady(t0 + kStartupTimeout)) {
      std::fprintf(stderr, "cgpabench: cgpad did not start (see %s/cgpad.log)\n",
                   options.workdir.c_str());
      return 3;
    }
    nudger = std::make_unique<Nudger>(socketPath, activity, kNudgeQuiet);
    std::vector<Sample> probe =
        runList(socketPath, pinned,
                std::min(static_cast<int>(pinned.size()), clients),
                options.trace, nextId, clock, activity);
    nextId += probe.size();
    for (std::size_t i = 0; i < probe.size(); ++i)
      if (probe[i].received && probe[i].cycles != pinnedJobs()[i].cycles)
        failures.push_back("pinned " + pinned[i].kernel + ": served " +
                           std::to_string(probe[i].cycles) + " cycles");
    check(probe, expected);
    if (!probe.front().received) {
      std::fprintf(stderr, "cgpabench: cgpad did not answer (see %s/cgpad.log)\n",
                   options.workdir.c_str());
      return 3;
    }
    std::vector<Sample> warm =
        runList(socketPath, warmupJobs(options.workload, options.seed),
                clients, options.trace, nextId, clock, activity);
    nextId += warm.size();
    check(warm, expected);
    // A traced run traces set-up too: its plan-cache misses are the
    // compiles that warm-mix, large-sim and mixed-open pay for.
    if (options.trace) {
      tracedSetup.insert(tracedSetup.end(), probe.begin(), probe.end());
      tracedSetup.insert(tracedSetup.end(), warm.begin(), warm.end());
    }
    setupSeconds.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // Measurement: the untraced window; with --trace 1 a traced window of
  // the same length follows, continuing the same job list.
  std::atomic<std::uint64_t> nextIndex{0};
  Window plain = runWindow(options, socketPath, clients, false, nextIndex,
                           nextId, clock, activity);
  nextId += 1u << 30;
  Window traced;
  CacheCounters cacheBefore;
  CacheCounters cacheAfter;
  if (options.trace) {
    cacheBefore = cacheCounters(socketPath);
    traced = runWindow(options, socketPath, clients, true, nextIndex, nextId,
                       clock, activity);
    cacheAfter = cacheCounters(socketPath);
  }
  const double peakRss = daemon->peakRssMiB();
  stopNudger();
  if (!daemon->shutdown(std::chrono::seconds(30)))
    failures.push_back("cgpad did not shut down cleanly");
  daemon.reset();

  // Check every measured answer, computing the expected answers of jobs
  // first seen in the window (spec-sweep's fresh loops).
  std::vector<JobRequest> seen;
  for (const Window* window : {&plain, &traced})
    for (const Sample& sample : window->samples)
      seen.push_back(sample.job);
  computeExpected(seen, nproc, expected);
  check(plain.samples, expected);
  check(traced.samples, expected);

  // ------------------------------------------------ end-to-end metrics
  // Rates and the median latency are medians over one-second slices of
  // the window, so interference from other tenants of the host during a
  // few slices does not move them. A good job's count and cycles are
  // spread over the slices its [start, end] overlaps, in proportion; its
  // latency goes to the slice it started (or was due) in.
  const int sliceCount = std::max(1, static_cast<int>(options.seconds + 0.5));
  const double sliceNs = options.seconds * 1e9 / sliceCount;
  std::vector<double> sliceJobs(sliceCount);
  std::vector<double> sliceCycles(sliceCount);
  std::vector<std::vector<double>> sliceLatencies(sliceCount);
  std::uint64_t sloMet = 0;
  for (const Sample& sample : plain.samples) {
    if (!checkSample(sample, expected).empty())
      continue;
    if (sample.latencyMs() <= sloMillisFor(sample.job))
      ++sloMet;
    const double from = static_cast<double>(sample.startNs - plain.beginNs);
    const double to = static_cast<double>(sample.endNs - plain.beginNs);
    const int first = static_cast<int>(from / sliceNs);
    if (first >= 0 && first < sliceCount)
      sliceLatencies[first].push_back(sample.latencyMs());
    for (int k = std::max(0, first); k < sliceCount && k * sliceNs < to; ++k) {
      const double overlap = std::min(to, (k + 1) * sliceNs) -
                             std::max(from, k * sliceNs);
      const double share = to > from ? overlap / (to - from) : 1.0;
      sliceJobs[k] += share;
      sliceCycles[k] += share * static_cast<double>(sample.cycles);
    }
  }
  std::vector<double> sliceP50;
  for (const std::vector<double>& latencies : sliceLatencies)
    if (!latencies.empty())
      sliceP50.push_back(median(latencies));
  const double sliceSeconds = sliceNs / 1e9;
  const std::vector<double> latencies = latenciesMs(plain);
  const double tailLevel = supportedTailLevel(latencies.size());
  const std::uint64_t failed = failures.size();

  Report report;
  JsonValue details = JsonValue::object();
  if (!options.trace) {
    report.add("setup_s", median(setupSeconds), "s");
    report.add("jobs_per_s", median(sliceJobs) / sliceSeconds, "1/s");
    report.add("job_p50_ms", median(sliceP50), "ms");
    report.add("job_p99_ms", quantile(latencies, tailLevel), "ms");
    report.add("sim_mcycles_per_s", median(sliceCycles) / sliceSeconds / 1e6,
               "Mcycle/s");
    report.add("correct_frac",
               1.0 - static_cast<double>(failed) /
                         static_cast<double>(std::max<std::uint64_t>(1, attempted)),
               "ratio");
    report.add("peak_rss_mb", peakRss, "MiB");
    report.add("slo_met_frac",
               static_cast<double>(sloMet) /
                   static_cast<double>(std::max<std::size_t>(1, plain.samples.size())),
               "ratio");
  } else {
    // ---------------------------------------------- per-layer metrics
    const std::vector<double> tracedLatencies = latenciesMs(traced);
    auto phaseUs = [&](cgpa::serve::JobPhase phase) {
      std::vector<double> values;
      for (const Sample& sample : traced.samples)
        if (sample.hasLedger)
          values.push_back(
              static_cast<double>(sample.phases[static_cast<std::size_t>(phase)]) /
              1e3);
      return sorted(std::move(values));
    };
    // Compile time per plan-cache miss, over every traced job that
    // compiled (set-up included); the hit ratio says how often a job
    // pays it.
    std::vector<double> compileUs;
    for (const std::vector<Sample>* samples : {&tracedSetup, &traced.samples})
      for (const Sample& sample : *samples) {
        const std::uint64_t ns =
            sample.phases[static_cast<std::size_t>(cgpa::serve::JobPhase::Compile)];
        if (sample.hasLedger && ns > 0)
          compileUs.push_back(static_cast<double>(ns) / 1e3);
      }
    using cgpa::serve::JobPhase;
    const std::vector<double> queueWait = phaseUs(JobPhase::QueueWait);
    report.add("serve.queue_wait_p50_us", quantile(queueWait, 0.5), "us");
    report.add("serve.queue_wait_p99_us",
               quantile(queueWait, supportedTailLevel(queueWait.size())), "us");
    report.add("serve.parse_p50_us", quantile(phaseUs(JobPhase::Parse), 0.5), "us");
    report.add("serve.compile_p50_us", median(compileUs), "us");
    report.add("serve.plan_build_p50_us",
               quantile(phaseUs(JobPhase::PlanBuild), 0.5), "us");
    report.add("serve.simulate_p50_us",
               quantile(phaseUs(JobPhase::Simulate), 0.5), "us");
    report.add("serve.verify_p50_us", quantile(phaseUs(JobPhase::Verify), 0.5), "us");
    report.add("serve.serialize_p50_us",
               quantile(phaseUs(JobPhase::Serialize), 0.5), "us");
    const double lookups =
        static_cast<double>(cacheAfter.lookups - cacheBefore.lookups);
    report.add("serve.plan_cache_hit_ratio",
               lookups == 0 ? 0
                            : static_cast<double>(cacheAfter.hits - cacheBefore.hits) /
                                  lookups,
               "ratio");
    report.add("serve.plan_cache_evictions",
               static_cast<double>(cacheAfter.evictions - cacheBefore.evictions),
               "count");

    // Replay a seed-determined set of the workload's jobs through the
    // libraries, one at a time, with spans around every public call.
    std::vector<JobRequest> replaySet;
    if (options.workload == Workload::SpecSweep)
      for (std::uint64_t i = 0; i < kSpecReplays; ++i)
        replaySet.push_back(jobAt(options.workload, options.seed, i));
    else
      replaySet = warmupJobs(options.workload, options.seed);
    // Layers the workload never calls are timed on a probe job of the
    // other kind (a fuzz spec, or the pinned em3d job), so every per-call
    // metric is measured; probe spans stay out of shares and work counts.
    std::vector<JobRequest> probeSet;
    auto hasKind = [&](bool spec) {
      return std::any_of(replaySet.begin(), replaySet.end(),
                         [spec](const JobRequest& job) {
                           return job.kernel.empty() == spec;
                         });
    };
    if (!hasKind(true))
      for (std::uint64_t i = 0; probeSet.empty(); ++i)
        if (JobRequest job = jobAt(Workload::SpecSweep, options.seed, i);
            job.kernel.empty())
          probeSet.push_back(std::move(job));
    if (!hasKind(false))
      probeSet.push_back(pinnedJobs()[3].job);
    std::vector<JobRequest> toCheck = replaySet;
    toCheck.insert(toCheck.end(), probeSet.begin(), probeSet.end());
    computeExpected(toCheck, nproc, expected);
    // Replay `job`; nullopt (and a recorded failure) unless its irHash
    // and cycles equal the served path's.
    auto replayChecked = [&](const JobRequest& job, SpanRecorder& recorder,
                             std::uint64_t id) -> std::optional<ReplayResult> {
      ReplayResult result = replayJob(job, recorder, id);
      ++attempted;
      const DirectAnswer& want = expected.at(jobKey(job));
      std::string why;
      if (!result.ok)
        why = "replay failed: " + result.error;
      else if (result.irHash != want.irHash)
        why = "replay irHash " + result.irHash + " != served " + want.irHash;
      else if (result.cycles != want.cycles || !result.correct)
        why = "replay cycles " + std::to_string(result.cycles) + " != " +
              std::to_string(want.cycles);
      if (why.empty())
        return result;
      failures.push_back(why + ": " + jobKey(job));
      return std::nullopt;
    };
    SpanRecorder spans;
    for (std::size_t i = 0; i < traced.samples.size(); ++i)
      spans.addRoot("serve.job", i, traced.samples[i].startNs,
                    traced.samples[i].endNs);
    double cycles = 0;
    double fifoPushes = 0;
    double cacheMisses = 0;
    double busy = 0;
    double engineCycles = 0;
    double runNs = 0;
    std::vector<double> responseBytes;
    std::map<std::string, std::pair<double, double>> rowNsCycles;
    for (std::size_t i = 0; i < replaySet.size(); ++i) {
      const JobRequest& job = replaySet[i];
      const std::optional<ReplayResult> replayed =
          replayChecked(job, spans, i + 1);
      if (!replayed)
        continue;
      const ReplayResult& result = *replayed;
      cycles += static_cast<double>(result.cycles);
      fifoPushes += static_cast<double>(result.fifoPushes);
      cacheMisses += static_cast<double>(result.cacheMisses);
      busy += static_cast<double>(result.engineCyclesBusy);
      engineCycles += static_cast<double>(result.engineCyclesTotal);
      runNs += static_cast<double>(result.simRunNs);
      responseBytes.push_back(static_cast<double>(result.responseBytes));
      auto& row = rowNsCycles[rowName(job)];
      row.first += static_cast<double>(result.simRunNs);
      row.second += static_cast<double>(result.cycles);
    }

    // Per-call medians by span name, and self time per layer over the
    // replay's root spans.
    const std::vector<std::int64_t> self = spans.selfNanos();
    std::map<std::string, std::vector<double>> perCall;
    std::map<std::string, double> layerSelf;
    double replayNs = 0;
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
      const Span& s = spans.spans()[i];
      if (s.name == "serve.job")
        continue;
      perCall[s.name].push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
      layerSelf[layerOf(s.name)] += static_cast<double>(self[i]);
      if (s.parent < 0)
        replayNs += static_cast<double>(s.endNs - s.startNs);
    }
    SpanRecorder probeSpans;
    for (std::size_t i = 0; i < probeSet.size(); ++i)
      replayChecked(probeSet[i], probeSpans, replaySet.size() + i + 1);
    std::map<std::string, std::vector<double>> probeCalls;
    for (const Span& s : probeSpans.spans())
      if (perCall.count(s.name) == 0)
        probeCalls[s.name].push_back(static_cast<double>(s.endNs - s.startNs) /
                                     1e3);
    perCall.merge(probeCalls);
    auto callUs = [&](const char* name) {
      const auto it = perCall.find(name);
      return it == perCall.end() ? 0.0 : median(it->second);
    };
    for (const char* name :
         {"cgpa.compile", "opt.scalar", "analysis.profile", "analysis.cfg",
          "analysis.alias", "analysis.pdg", "analysis.scc",
          "pipeline.partition", "pipeline.transform", "hls.schedule",
          "ir.verify", "ir.print_hash", "sim.build", "sim.run",
          "kernels.build_workload", "kernels.reference",
          "fuzz.build_workload", "interp.golden", "trace.stats_doc"})
      report.add(std::string(name) + "_us", callUs(name), "us");
    report.add("sim.host_ns_per_cycle", cycles == 0 ? 0 : runNs / cycles, "ns");
    report.add("sim.cycles", cycles, "count");
    report.add("sim.fifo_pushes", fifoPushes, "count");
    report.add("sim.cache_misses", cacheMisses, "count");
    report.add("sim.busy_frac", engineCycles == 0 ? 0 : busy / engineCycles,
               "ratio");
    report.add("trace.response_bytes", median(responseBytes), "bytes");
    for (const char* layer : {"cgpa", "opt", "analysis", "pipeline", "hls", "ir",
                              "sim", "kernels", "fuzz", "interp", "trace"}) {
      const auto it = layerSelf.find(layer);
      report.add(std::string(layer) + ".self_share",
                 it == layerSelf.end() || replayNs == 0 ? 0
                                                        : it->second / replayNs,
                 "ratio");
    }
    report.add("bench.gen_late_p99_ms",
               quantile(sorted(plain.lateMs),
                        supportedTailLevel(plain.lateMs.size())),
               "ms");
    const double plainP50 = quantile(latencies, 0.5);
    report.add("bench.trace_overhead_frac",
               plainP50 == 0 ? 0 : quantile(tracedLatencies, 0.5) / plainP50 - 1,
               "ratio");
    report.add("bench.nudges", static_cast<double>(nudges), "count");

    JsonValue hostRows = JsonValue::array();
    for (const auto& [name, nsCycles] : rowNsCycles) {
      JsonValue row = JsonValue::object();
      row.set("row", name);
      row.set("host_ns_per_cycle", nsCycles.first / nsCycles.second);
      hostRows.push(std::move(row));
    }
    details.set("replayRows", std::move(hostRows));
    std::ofstream(std::filesystem::path("results") / (tag + ".spans.jsonl"))
        << spans.jsonl();
  }

  const bool correct = failures.empty();
  JsonValue record = JsonValue::object();
  record.set("schema", "cgpa.perfbench.v1");
  record.set("host", host.toJson());
  record.set("workload", workloadName(options.workload));
  record.set("seed", options.seed);
  record.set("seconds", options.seconds);
  record.set("trace", options.trace);
  record.set("clients", clients);
  record.set("cgpadWorkers", nproc);
  record.set("mixedOpenRatePerSecond", kMixedOpenRatePerSecond);
  record.set("sloMillis", kSloMillis);
  record.set("batchSloMillis", kBatchSloMillis);
  JsonValue setups = JsonValue::array();
  for (const double s : setupSeconds)
    setups.push(s);
  record.set("setupSeconds", std::move(setups));
  record.set("measuredJobs", static_cast<std::uint64_t>(plain.samples.size()));
  record.set("nudges", nudges);
  record.set("jobTailQuantile", tailLevel);
  record.set("rows", rowsJson(plain));
  record.set("details", std::move(details));
  record.set("attempted", attempted);
  record.set("failed", static_cast<std::uint64_t>(failures.size()));
  JsonValue failureList = JsonValue::array();
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
    failureList.push(failures[i]);
  record.set("failures", std::move(failureList));
  record.set("metrics", report.toJson());
  std::ofstream(std::filesystem::path("results") / (tag + ".json"))
      << record.dump(2) << "\n";

  for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
    std::fprintf(stderr, "cgpabench: FAIL %s\n", failures[i].c_str());
  std::printf("# %s seed=%llu seconds=%g trace=%d clients=%d nproc=%d "
              "jobs=%zu nudges=%llu cpu=\"%s\" build=%s sha=%s\n",
              workloadName(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, clients, nproc, plain.samples.size(),
              static_cast<unsigned long long>(nudges),
              host.cpuModel.c_str(), host.buildType.c_str(),
              host.gitSha.c_str());
  for (const Metric& metric : report.metrics())
    std::printf("#   %-32s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  std::printf("%s\n", report.resultLine(correct, attempted, failures.size()).c_str());
  return correct ? 0 : 1;
}
