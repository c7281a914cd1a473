#ifndef LEDGER_WORKLOADS_H_
#define LEDGER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace ledger {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where span files go.
  std::string out_dir;
  /// The limcap_serve binary serve_mixed starts.
  std::string serve_binary;
  /// When the process started; setup_s is measured from here.
  Clock::time_point start;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  /// False when some answer differed from the oracle or a check failed.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// ratio bases, input make-up).
  std::vector<std::string> notes;
  /// What made `correct` false, for stderr.
  std::vector<std::string> problems;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string problem) {
    correct = false;
    if (problems.size() < 20) problems.push_back(std::move(problem));
  }
};

const std::vector<std::string>& WorkloadNames();

RunResult RunWorkload(const RunConfig& config);

}  // namespace ledger

#endif  // LEDGER_WORKLOADS_H_
