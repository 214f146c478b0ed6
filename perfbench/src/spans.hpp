// In-memory spans for the traced run.
//
// A span is (name, job id, parent, start, end) in steady-clock
// nanoseconds since the recorder was made. Spans are kept in memory and
// written out once, when the run ends. A layer's self time is its span's
// duration minus the part of that interval its child spans cover; the
// layer is the span name up to its first '.'.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t job = 0;
  int parent = -1; ///< Index into the recorder's spans; -1 for a root.
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

/// Spans from one thread: open() nests under the innermost open span.
class SpanRecorder {
public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(Clock::time_point epoch = Clock::now())
      : epoch_(epoch) {}

  std::int64_t nowNs() const;
  std::int64_t toNs(Clock::time_point t) const;

  int open(std::string name, std::uint64_t job);
  void close(int index);
  /// Record a root span measured elsewhere (e.g. a served job's round trip).
  void addRoot(std::string name, std::uint64_t job, std::int64_t startNs,
               std::int64_t endNs);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self nanoseconds of every span, index-aligned with spans().
  std::vector<std::int64_t> selfNanos() const;

  /// All spans as JSON lines, self time included.
  std::string jsonl() const;

private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span over the enclosing scope.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::uint64_t job)
      : recorder_(recorder), index_(recorder.open(std::move(name), job)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  SpanRecorder& recorder_;
  int index_;
};

/// "analysis.pdg" -> "analysis".
std::string layerOf(const std::string& spanName);

} // namespace perfbench
