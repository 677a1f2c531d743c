// In-memory span recording for the benchmark's traced runs.
//
// A span brackets one call from the benchmark into a statsize public entry
// point (Sizer::run, IncrementalEngine::apply_edits, Client::submit, ...).
// Spans are kept in a per-thread SpanLog and written out when the run ends;
// nothing is formatted or flushed while the workload runs. A Scope built
// with a null log is a no-op and reads no clock, so the untraced run that
// produces the end-to-end numbers pays nothing.
//
// Batched probes (a loop of 4096 Clark max calls, say) record one span with
// `calls` = the loop count, so the per-call figure is duration / calls and
// the clock reads are amortized over the batch.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index into the same log; -1 = root
  std::int64_t op = 0;    ///< operation the span belongs to (per log)
  std::int64_t calls = 1; ///< calls the span covers
};

class SpanLog {
 public:
  explicit SpanLog(int thread = 0) : thread_(thread) {}

  /// Starts the next operation; spans opened from now on carry its id.
  void next_op() { ++op_; }

  int open(const char* name, std::int64_t calls) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, 0, 0, stack_.empty() ? -1 : stack_.back(), op_, calls});
    stack_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  int thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::int64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t calls = 1)
      : log_(log), index_(log != nullptr ? log->open(name, calls) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Self time of every span: its duration minus the part its children cover.
inline std::vector<std::int64_t> self_times(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

struct SelfTime {
  std::vector<double> per_call_ns;  ///< one entry per span: self time / calls
  double total_ns = 0.0;
};

/// Self time of every span, grouped by span name, across all logs.
inline std::map<std::string, SelfTime> self_time_by_name(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SelfTime> out;
  for (const SpanLog* log : logs) {
    const std::vector<std::int64_t> self = self_times(*log);
    for (std::size_t i = 0; i < self.size(); ++i) {
      const Span& s = log->spans()[i];
      SelfTime& t = out[s.name];
      t.per_call_ns.push_back(static_cast<double>(self[i]) / static_cast<double>(s.calls));
      t.total_ns += static_cast<double>(self[i]);
    }
  }
  return out;
}

/// Writes every span as one tab-separated line (header first), start and end
/// relative to `origin_ns`.
inline void write_spans(std::ostream& out, const std::vector<const SpanLog*>& logs,
                        std::int64_t origin_ns) {
  out << "thread\top\tspan\tparent\tname\tcalls\tstart_ns\tend_ns\tself_ns\n";
  for (const SpanLog* log : logs) {
    const std::vector<std::int64_t> self = self_times(*log);
    for (std::size_t i = 0; i < self.size(); ++i) {
      const Span& s = log->spans()[i];
      out << log->thread() << '\t' << s.op << '\t' << i << '\t' << s.parent << '\t' << s.name
          << '\t' << s.calls << '\t' << s.start_ns - origin_ns << '\t' << s.end_ns - origin_ns
          << '\t' << self[i] << '\n';
    }
  }
}

}  // namespace perfbench
