// ledger: the layer-ledger benchmark program. Runs one workload for a
// fixed time and prints its metrics; see ledger/README.md.
//
//   ledger --workload NAME --seed N --seconds S --trace 0|1
//          --out-dir DIR --serve-binary PATH
//
// --trace 0 prints the end-to-end metrics (no tracing anywhere);
// --trace 1 prints the per-layer metrics of a separate traced run and
// writes its spans to DIR/spans-<workload>-<seed>.jsonl. The last line of
// stdout is one JSON object: {"correct","attempted","failed","metrics"}.
// Exit code 0 when the run completed (correct or not), 2 on bad usage.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace {

constexpr const char* kUsage =
    "usage: ledger --workload NAME --seed N --seconds S --trace 0|1\n"
    "              --out-dir DIR --serve-binary PATH\n";

/// JSON string body escaping for the few characters notes may hold.
std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::RunConfig config;
  config.start = ledger::Clock::now();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "ledger: " << arg << " needs a value\n" << kUsage;
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else if (arg == "--serve-binary") {
      config.serve_binary = value;
    } else {
      std::cerr << "ledger: unknown flag " << arg << "\n" << kUsage;
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : ledger::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known || config.seconds <= 0 ||
      config.out_dir.empty()) {
    std::cerr << "ledger: need a known --workload, --seconds > 0 and "
                 "--out-dir\n"
              << kUsage;
    return 2;
  }

  const ledger::RunResult result = ledger::RunWorkload(config);
  for (const std::string& problem : result.problems) {
    std::cerr << "ledger: CHECK FAILED: " << problem << "\n";
  }
  for (const std::string& note : result.notes) {
    std::cout << "# " << note << "\n";
  }
  std::string metrics;
  for (const ledger::Metric& metric : result.metrics) {
    std::printf("%-32s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    char entry[512];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", Escape(metric.name).c_str(),
                  metric.value, Escape(metric.unit).c_str());
    metrics += entry;
  }
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                result.correct ? "true" : "false", result.attempted,
                result.failed);
  const std::string line = std::string(head) + metrics + "}}";
  std::cout.flush();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  std::ofstream log(config.out_dir + "/results.jsonl", std::ios::app);
  log << "{\"workload\": \"" << config.workload << "\", \"seed\": "
      << config.seed << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"result\": " << line << "}\n";
  return 0;
}
