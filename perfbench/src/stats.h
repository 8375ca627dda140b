// Small measurement helpers shared by the load generator, the traced
// layer run and the checks: exact percentiles over recorded samples,
// the named-metric report, and the harness-side span recorder.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in 0..100) of `values`; sorts in place.
/// Returns 0 for an empty sample.
double Percentile(std::vector<double>* values, double p);

/// Median of a copy of `values` (0 when empty).
double Median(std::vector<double> values);

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();
/// Microseconds on the steady clock since an arbitrary epoch.
int64_t NowMicros();
/// The same, with the clock's full (nanosecond) resolution.
double NowMicrosF();

/// One named metric with its unit, printed in the final JSON line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Metrics by name. `Set` rejects non-finite values (they would make
/// the JSON line unparseable), recording them in `bad`.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& all() const { return metrics_; }
  const std::vector<std::string>& bad() const { return bad_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> bad_;
};

/// Renders a double as JSON with all its digits.
std::string JsonNumber(double value);
/// Quotes and escapes a string for JSON.
std::string JsonString(const std::string& value);

/// Harness-side spans, kept in memory and written as Chrome trace
/// JSON when the run ends. Spans are recorded around the calls the
/// benchmark makes into each layer; nothing inside the program is
/// instrumented. Each span carries its parent span and the request id
/// it belongs to (0 when it covers no single request). Recording is
/// off until Enable(); past `cap` spans the rest are counted, not kept.
class SpanLog {
 public:
  struct Record {
    std::string name;
    int64_t start_us = 0;
    int64_t end_us = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    uint32_t tid = 0;
  };

  static SpanLog& Get();

  void Enable(std::size_t cap);
  /// Opens a span on the calling thread; returns its id (0 when off
  /// or `name` is null, which lets callers switch a span off).
  uint64_t Begin(const char* name, uint64_t request);
  void End(uint64_t id);
  /// Records a span already measured elsewhere (a request whose reply
  /// arrived while others were in flight), under the calling thread's
  /// innermost open span.
  void Add(const char* name, int64_t start_us, int64_t end_us,
           uint64_t request);
  /// Writes every kept span; false on io failure.
  bool Write(const std::string& path) const;
  std::size_t size() const;
  uint64_t dropped() const;

 private:
  SpanLog() = default;
  bool enabled_ = false;
  std::size_t cap_ = 0;
};

/// RAII span over one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t request = 0)
      : id_(SpanLog::Get().Begin(name, request)) {}
  ~ScopedSpan() { SpanLog::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
