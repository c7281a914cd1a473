#ifndef LEDGER_SPANS_H_
#define LEDGER_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

/// Milliseconds / microseconds between two steady_clock points.
double MillisBetween(Clock::time_point start, Clock::time_point end);
double MicrosBetween(Clock::time_point start, Clock::time_point end);

/// The q-quantile (0..1) of `values` by linear interpolation; 0 when
/// empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One timed call at a layer boundary. `parent` is the index of the span
/// that caused it (-1 for a root); spans of one answer share `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// Keeps spans in memory for the whole run; Write() dumps them as JSON
/// lines when the run ends.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span and returns its index.
  int Begin(const std::string& name, uint64_t request, int parent);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per request id that ran it, the summed microseconds of the spans
  /// called `name` — one value per answer, however often it ran there.
  std::vector<double> PerAnswerUs(const std::string& name) const;

  /// For each request of `requests`, the summed microseconds of the
  /// spans called `name` (only spans with a parent when `children_only`:
  /// root spans other than the answer itself are stand-alone probes), 0
  /// where it never ran.
  std::vector<double> InAnswerUs(const std::string& name,
                                 const std::vector<uint64_t>& requests,
                                 bool children_only = true) const;

  bool Write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             uint64_t request, int parent)
      : recorder_(recorder), index_(recorder->Begin(name, request, parent)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace ledger

#endif  // LEDGER_SPANS_H_
