#include "spans.hpp"

#include <chrono>

namespace hsim::e2e {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int SpanLog::open(std::string_view name, std::uint64_t op) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_us(), 0.0, parent, op});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  open_.pop_back();
}

std::vector<double> SpanLog::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    }
  }
  return self;
}

json::Value chrome_trace(std::span<const SpanLog* const> logs) {
  json::Array events;
  for (const SpanLog* log : logs) {
    const std::vector<double> self = log->self_us();
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      json::Object args;
      args.emplace("op", json::Value::unsigned_integer(s.op));
      args.emplace("parent", json::Value::integer(s.parent));
      args.emplace("self_us", json::Value::number(self[i]));
      json::Object event;
      event.emplace("name", json::Value::string(std::string(s.name)));
      event.emplace("ph", json::Value::string("X"));
      event.emplace("pid", json::Value::integer(1));
      event.emplace("tid", json::Value::integer(log->tid()));
      event.emplace("ts", json::Value::number(s.start_us));
      event.emplace("dur", json::Value::number(s.end_us - s.start_us));
      event.emplace("args", json::Value::object(std::move(args)));
      events.push_back(json::Value::object(std::move(event)));
    }
  }
  json::Object root;
  root.emplace("displayTimeUnit", json::Value::string("ms"));
  root.emplace("traceEvents", json::Value::array(std::move(events)));
  return json::Value::object(std::move(root));
}

}  // namespace hsim::e2e
