#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "trace/json.hpp"

namespace perfbench {

std::int64_t SpanRecorder::nowNs() const { return toNs(Clock::now()); }

std::int64_t SpanRecorder::toNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int SpanRecorder::open(std::string name, std::uint64_t job) {
  Span span;
  span.name = std::move(name);
  span.job = job;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.startNs = nowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].endNs = nowNs();
  if (!stack_.empty() && stack_.back() == index)
    stack_.pop_back();
}

void SpanRecorder::addRoot(std::string name, std::uint64_t job,
                           std::int64_t startNs, std::int64_t endNs) {
  Span span;
  span.name = std::move(name);
  span.job = job;
  span.startNs = startNs;
  span.endNs = endNs;
  spans_.push_back(std::move(span));
}

std::vector<std::int64_t> SpanRecorder::selfNanos() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.startNs, span.endNs);
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t reach = span.startNs;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, span.endNs);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = std::max<std::int64_t>(0, span.endNs - span.startNs - covered);
  }
  return self;
}

std::string SpanRecorder::jsonl() const {
  const std::vector<std::int64_t> self = selfNanos();
  std::string out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    cgpa::trace::JsonValue doc = cgpa::trace::JsonValue::object();
    doc.set("id", static_cast<std::uint64_t>(i));
    doc.set("name", span.name);
    doc.set("job", span.job);
    doc.set("parent", span.parent);
    doc.set("startNs", static_cast<long long>(span.startNs));
    doc.set("endNs", static_cast<long long>(span.endNs));
    doc.set("selfNs", static_cast<long long>(self[i]));
    out += doc.dump(0);
    out += '\n';
  }
  return out;
}

std::string layerOf(const std::string& spanName) {
  return spanName.substr(0, spanName.find('.'));
}

} // namespace perfbench
