// Host-time spans for the traced run.  bench_e2e records a span around
// each call it makes into a simulator layer; the spans stay in memory and
// are written once, as Chrome-trace complete events, when the run ends.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace hsim::e2e {

/// Microseconds on the steady clock since the process's first call, so
/// spans from every thread share one time base.
double now_us();

struct Span {
  std::string_view name;  // a string literal: spans never own their names
  double start_us = 0;
  double end_us = 0;
  int parent = -1;       // index into the same log; -1 for a root span
  std::uint64_t op = 0;  // the op the span belongs to
};

/// One thread's spans.  Not thread-safe: each thread owns its own log.
class SpanLog {
 public:
  explicit SpanLog(int tid = 0) : tid_(tid) {}

  /// `name` must outlive the log; every caller passes a string literal.
  int open(std::string_view name, std::uint64_t op);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] int tid() const { return tid_; }
  /// Each span's duration minus the durations of its direct children.
  /// Children on one thread run one after another, so they never overlap.
  [[nodiscard]] std::vector<double> self_us() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int tid_;
};

/// Records one span for its lifetime; with a null log it does nothing but
/// the null check, which is the untraced path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, std::uint64_t op)
      : log_(log), index_(log != nullptr ? log->open(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Chrome-trace JSON ("X" complete events; args carry op, parent and self
/// time) for every span of every log.
[[nodiscard]] json::Value chrome_trace(std::span<const SpanLog* const> logs);

}  // namespace hsim::e2e
