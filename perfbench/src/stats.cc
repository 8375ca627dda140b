#include "stats.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>

namespace perfbench {

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(&values, 50.0);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowMicrosF() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    bad_.push_back(name);
    value = 0;
  }
  metrics_[name] = Metric{value, unit};
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

struct SpanState {
  std::mutex mu;
  std::vector<SpanLog::Record> records;  // guarded by mu
  std::atomic<uint64_t> next_id{1};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint32_t> next_tid{1};
};

SpanState& State() {
  static SpanState state;
  return state;
}

// Open spans of this thread, innermost last, for parent links.
struct OpenSpan {
  uint64_t id;
  SpanLog::Record record;
};
thread_local std::vector<OpenSpan> t_open;
thread_local uint32_t t_tid = 0;

}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

void SpanLog::Enable(std::size_t cap) {
  cap_ = cap;
  enabled_ = true;
}

uint64_t SpanLog::Begin(const char* name, uint64_t request) {
  if (!enabled_ || name == nullptr) return 0;
  SpanState& state = State();
  if (t_tid == 0) t_tid = state.next_tid.fetch_add(1);
  OpenSpan open;
  open.id = state.next_id.fetch_add(1, std::memory_order_relaxed);
  open.record.name = name;
  open.record.id = open.id;
  open.record.parent = t_open.empty() ? 0 : t_open.back().id;
  // A child inherits the request of the span that caused it.
  open.record.request =
      request != 0 || t_open.empty() ? request : t_open.back().record.request;
  open.record.tid = t_tid;
  open.record.start_us = NowMicros();
  t_open.push_back(std::move(open));
  return t_open.back().id;
}

void SpanLog::End(uint64_t id) {
  if (id == 0 || t_open.empty() || t_open.back().id != id) return;
  SpanLog::Record record = std::move(t_open.back().record);
  t_open.pop_back();
  record.end_us = NowMicros();
  SpanState& state = State();
  std::unique_lock<std::mutex> lock(state.mu);
  if (state.records.size() >= cap_) {
    state.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  state.records.push_back(std::move(record));
}

void SpanLog::Add(const char* name, int64_t start_us, int64_t end_us,
                  uint64_t request) {
  if (!enabled_) return;
  SpanState& state = State();
  if (t_tid == 0) t_tid = state.next_tid.fetch_add(1);
  Record record;
  record.name = name;
  record.id = state.next_id.fetch_add(1, std::memory_order_relaxed);
  record.parent = t_open.empty() ? 0 : t_open.back().id;
  record.request = request;
  record.tid = t_tid;
  record.start_us = start_us;
  record.end_us = end_us;
  std::unique_lock<std::mutex> lock(state.mu);
  if (state.records.size() >= cap_) {
    state.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  state.records.push_back(std::move(record));
}

std::size_t SpanLog::size() const {
  SpanState& state = State();
  std::unique_lock<std::mutex> lock(state.mu);
  return state.records.size();
}

uint64_t SpanLog::dropped() const {
  return State().dropped.load(std::memory_order_relaxed);
}

bool SpanLog::Write(const std::string& path) const {
  SpanState& state = State();
  std::unique_lock<std::mutex> lock(state.mu);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const Record& r : state.records) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":" << JsonString(r.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
        << ",\"ts\":" << r.start_us << ",\"dur\":" << (r.end_us - r.start_us)
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"request\":" << r.request << ",\"end\":" << r.end_us << "}}";
  }
  out << "\n],\"otherData\":{\"dropped_spans\":" << dropped() << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
