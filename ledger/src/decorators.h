#ifndef LEDGER_DECORATORS_H_
#define LEDGER_DECORATORS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "capability/source.h"

namespace ledger {

/// Stands in for a remote service: every call waits a fixed wall-clock
/// latency, then delegates to the wrapped source (which keeps enforcing
/// the view's binding requirements).
class LatencySource : public limcap::capability::Source {
 public:
  LatencySource(std::unique_ptr<limcap::capability::Source> inner,
                std::chrono::microseconds latency)
      : inner_(std::move(inner)), latency_(latency) {}

  const limcap::capability::SourceView& view() const override {
    return inner_->view();
  }

  limcap::Result<limcap::relational::Relation> Execute(
      const limcap::capability::SourceQuery& query) override {
    std::this_thread::sleep_for(latency_);
    return inner_->Execute(query);
  }

 private:
  std::unique_ptr<limcap::capability::Source> inner_;
  std::chrono::microseconds latency_;
};

/// Counts calls and the wall time spent inside the wrapped source's
/// Execute, summed over threads. Used by traced runs only, so untraced
/// runs measure the plain sources.
class CountingSource : public limcap::capability::Source {
 public:
  explicit CountingSource(std::unique_ptr<limcap::capability::Source> inner)
      : inner_(std::move(inner)) {}

  const limcap::capability::SourceView& view() const override {
    return inner_->view();
  }

  limcap::Result<limcap::relational::Relation> Execute(
      const limcap::capability::SourceQuery& query) override {
    const auto start = std::chrono::steady_clock::now();
    auto result = inner_->Execute(query);
    const auto busy = std::chrono::steady_clock::now() - start;
    calls_.fetch_add(1, std::memory_order_relaxed);
    busy_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(busy).count(),
        std::memory_order_relaxed);
    return result;
  }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<limcap::capability::Source> inner_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

}  // namespace ledger

#endif  // LEDGER_DECORATORS_H_
