#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace ledger {

double MillisBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * double(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - double(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

int SpanRecorder::Begin(const std::string& name, uint64_t request,
                        int parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int span) {
  spans_[span].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - epoch_)
                            .count();
}

std::vector<double> SpanRecorder::PerAnswerUs(const std::string& name) const {
  std::map<uint64_t, double> sums;
  for (const Span& span : spans_) {
    if (span.name == name) {
      sums[span.request] += (span.end_ns - span.start_ns) / 1e3;
    }
  }
  std::vector<double> out;
  for (const auto& [request, us] : sums) out.push_back(us);
  return out;
}

std::vector<double> SpanRecorder::InAnswerUs(
    const std::string& name, const std::vector<uint64_t>& requests,
    bool children_only) const {
  std::unordered_map<uint64_t, double> sums;
  for (uint64_t request : requests) sums[request] = 0;
  for (const Span& span : spans_) {
    if (span.name != name || (children_only && span.parent < 0)) continue;
    auto it = sums.find(span.request);
    if (it != sums.end()) it->second += (span.end_ns - span.start_ns) / 1e3;
  }
  std::vector<double> out;
  out.reserve(requests.size());
  for (uint64_t request : requests) out.push_back(sums[request]);
  return out;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu}\n",
                 i, span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(file) == 0;
}

}  // namespace ledger
