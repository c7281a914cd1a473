#include "workloads.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "analysis/binding_flow.h"
#include "capability/in_memory_source.h"
#include "common/json.h"
#include "common/rng.h"
#include "decorators.h"
#include "exec/query_answerer.h"
#include "mediator/mediator.h"
#include "oracle.h"
#include "planner/find_rel.h"
#include "planner/plan_cache.h"
#include "planner/program_builder.h"
#include "planner/program_optimizer.h"
#include "planner/query_parser.h"
#include "serve_client.h"
#include "workload/generator.h"

namespace ledger {
namespace {

using limcap::Json;
using limcap::Result;
using limcap::Status;
using limcap::Value;
using limcap::capability::InMemorySource;
using limcap::capability::Source;
using limcap::capability::SourceCatalog;
using limcap::capability::SourceView;
using limcap::exec::AnswerReport;
using limcap::exec::ExecOptions;
using limcap::exec::StaticAnalysisMode;
using limcap::mediator::MediatorQuery;
using limcap::mediator::MediatorView;
using limcap::planner::PlanCache;
using limcap::planner::Query;
using limcap::relational::Relation;
using limcap::workload::CatalogSpec;
using limcap::workload::GeneratedInstance;

// ---------------------------------------------------------------------
// Workload make-up. Every size below is documented in ledger/README.md.

/// warm_wide: a few dozen 4-view walks over a wide bf-chain catalog.
constexpr std::size_t kWarmViews = 3200;
constexpr std::size_t kWarmWalks = 32;
constexpr std::size_t kWarmWalkLength = 4;
/// cold_plan: never-seen walks over a chain of a few hundred views.
constexpr std::size_t kColdViews = 400;
constexpr std::size_t kColdMinLength = 3;
constexpr std::size_t kColdMaxLength = 6;
constexpr std::size_t kColdBatch = 16;
/// Cold requests answered in set-up (distinct from every timed one), so
/// lazy source indexes and allocator growth land before the timed phase.
constexpr std::size_t kColdWarmup = 4 * kColdBatch;
/// Chain extents (both chain workloads).
constexpr std::size_t kChainTuples = 50;
constexpr std::size_t kChainDomain = 10;
/// fetch_fanout: a fixed 10-view random topology (the catalog of the
/// ROADMAP's fetch-runtime measurement), seeded extents and inputs.
constexpr uint64_t kFanoutTopologySeed = 20260807;
constexpr std::size_t kFanoutViews = 10;
constexpr std::size_t kFanoutTuples = 30;
constexpr std::size_t kFanoutDomain = 9;
constexpr std::size_t kFanoutQueries = 12;
constexpr std::chrono::microseconds kFanoutLatency{200};
/// serve_mixed: limcap_serve's mixed scenario, always over the catalog
/// and request set of scenario seed 7 (the ROADMAP's reference run); the
/// benchmark seed picks the arrival order.
constexpr uint64_t kMixedScenarioSeed = 7;
constexpr std::size_t kMixedRequests = 2000;
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeConnections = 2;

double SelfPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0;
}

/// The plan-cache config tag QueryAnswerer derives from the gate mode.
std::string_view ModeTag(StaticAnalysisMode mode) {
  switch (mode) {
    case StaticAnalysisMode::kOff:
      return "off";
    case StaticAnalysisMode::kWarn:
      return "warn";
    case StaticAnalysisMode::kReject:
      return "reject";
    case StaticAnalysisMode::kPrune:
      return "prune";
  }
  return "off";
}

// ---------------------------------------------------------------------
// Inputs.

struct Instance {
  std::vector<SourceView> views;
  std::map<std::string, Relation> extents;
  limcap::planner::DomainMap domains;
};

Instance FromGenerated(GeneratedInstance generated) {
  Instance instance;
  instance.views = std::move(generated.views);
  instance.extents = std::move(generated.full_data);
  instance.domains = std::move(generated.domains);
  return instance;
}

/// One request: the mediator query the caller sends, its expansion (what
/// the oracle and the server see), and a key naming identical requests.
struct Request {
  MediatorQuery query;
  Query expanded;
  std::size_t key = 0;
};

/// Everything an in-process workload runs against.
struct Workload {
  Instance instance;
  SourceCatalog catalog;
  /// The traced run's counting decorators, one per source.
  std::vector<CountingSource*> counters;
  std::unique_ptr<limcap::mediator::Mediator> mediator;
  ExecOptions options;
  /// Regenerates the ground-truth extents for the oracle. BuildCatalog
  /// moves `instance.extents` into the sources, so the timed phase holds
  /// one copy of the data, as a program serving it would.
  std::function<Instance()> ground_truth;
  /// Request i of the run; warm workloads cycle through a fixed set.
  std::function<Request(std::size_t)> request;
  /// Requests 0..warmup-1 are answered in set-up; the timed phase goes on
  /// from request `warmup`.
  std::size_t warmup = 0;
  /// Requests per pass: runs stop only at pass boundaries.
  std::size_t pass_size = 1;
  /// warm_wide: every timed answer must be a plan-cache hit.
  bool expect_hits = false;
  std::vector<std::string> notes;
};

/// Registers every view of `workload->instance` as an InMemorySource
/// (moving its extent in), optionally behind a fixed-latency decorator
/// and (traced runs) a counting one.
void BuildCatalog(Workload* workload, std::chrono::microseconds latency,
                  bool counting) {
  auto& extents = workload->instance.extents;
  for (const SourceView& view : workload->instance.views) {
    std::unique_ptr<Source> source = std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, std::move(extents.at(view.name()))));
    if (latency.count() > 0) {
      source = std::make_unique<LatencySource>(std::move(source), latency);
    }
    if (counting) {
      auto counter = std::make_unique<CountingSource>(std::move(source));
      workload->counters.push_back(counter.get());
      source = std::move(counter);
    }
    workload->catalog.RegisterUnsafe(std::move(source));
  }
  extents.clear();
  workload->mediator = std::make_unique<limcap::mediator::Mediator>(
      &workload->catalog, workload->instance.domains);
}

/// Exposes `query` as mediator view `name` (exporting its input and
/// output attributes, defined by its connections) and returns the user
/// query against it.
Result<Request> DefineRequest(limcap::mediator::Mediator* mediator,
                              const std::string& name, const Query& query,
                              std::size_t key) {
  MediatorView view;
  view.name = name;
  for (const auto& input : query.inputs()) {
    if (std::find(view.exported_attributes.begin(),
                  view.exported_attributes.end(),
                  input.attribute) == view.exported_attributes.end()) {
      view.exported_attributes.push_back(input.attribute);
    }
  }
  for (const std::string& output : query.outputs()) {
    view.exported_attributes.push_back(output);
  }
  view.definitions = query.connections();
  LIMCAP_RETURN_NOT_OK(mediator->Define(std::move(view)));
  Request request;
  request.query.view = name;
  request.query.selections = query.inputs();
  request.query.outputs = query.outputs();
  LIMCAP_ASSIGN_OR_RETURN(request.expanded, mediator->Expand(request.query));
  request.key = key;
  return request;
}

std::string ChainAttribute(std::size_t i) { return "A" + std::to_string(i); }
std::string ChainView(std::size_t i) { return "v" + std::to_string(i + 1); }

/// The walk v_{s+1} .. v_{s+length} from A_s = value to A_{s+length}.
Query ChainWalk(std::size_t start, std::size_t length, Value value) {
  std::vector<std::string> views;
  for (std::size_t k = 0; k < length; ++k) views.push_back(ChainView(start + k));
  return Query({{ChainAttribute(start), std::move(value)}},
               {ChainAttribute(start + length)},
               {limcap::planner::Connection(std::move(views))});
}

Instance ChainInstance(std::size_t views, uint64_t seed) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kChain;
  spec.num_views = views;
  spec.tuples_per_view = kChainTuples;
  spec.domain_size = kChainDomain;
  spec.seed = seed;
  return FromGenerated(limcap::workload::GenerateInstance(spec));
}

/// A walk's answer restricted to its own views. On a bf chain no other
/// view feeds the walk's domains, so this is the walk's obtainable answer;
/// used only to pick answerable walks.
bool WalkAnswerable(const Instance& instance, std::size_t start,
                    std::size_t length, const std::string& value) {
  std::set<std::string> frontier = {value};
  for (std::size_t k = 0; k < length && !frontier.empty(); ++k) {
    std::set<std::string> next;
    for (const auto& row :
         instance.extents.at(ChainView(start + k)).DecodedRows()) {
      if (frontier.count(row[0].ToString()) > 0) {
        next.insert(row[1].ToString());
      }
    }
    frontier = std::move(next);
  }
  return !frontier.empty();
}

Status MakeWarmWide(uint64_t seed, bool traced, Workload* workload) {
  workload->instance = ChainInstance(kWarmViews, seed);
  workload->ground_truth = [seed] { return ChainInstance(kWarmViews, seed); };
  // Pick the walks while the extents are at hand; BuildCatalog takes them.
  limcap::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::pair<std::size_t, Value>> picks;
  std::set<std::size_t> starts;
  for (int attempt = 0; picks.size() < kWarmWalks && attempt < 100000;
       ++attempt) {
    const std::size_t start = rng.Below(kWarmViews - kWarmWalkLength + 1);
    if (starts.count(start) > 0) continue;
    const Relation& first = workload->instance.extents.at(ChainView(start));
    const std::vector<Value> column = first.ColumnValues(0);
    const Value value = column[rng.Below(column.size())];
    if (!WalkAnswerable(workload->instance, start, kWarmWalkLength,
                        value.ToString())) {
      continue;
    }
    starts.insert(start);
    picks.emplace_back(start, value);
  }
  if (picks.size() < kWarmWalks) {
    return Status::Internal("could not find enough answerable walks");
  }
  BuildCatalog(workload, std::chrono::microseconds(0), traced);
  // Under kPrune the warm-up plans run the binding-flow gate over the
  // wide catalog (the traced run's analysis layer), and every timed hit
  // replays the cached verdicts.
  workload->options.static_analysis = StaticAnalysisMode::kPrune;
  std::vector<Request> walks;
  for (const auto& [start, value] : picks) {
    LIMCAP_ASSIGN_OR_RETURN(
        Request request,
        DefineRequest(workload->mediator.get(),
                      "walk" + std::to_string(walks.size()),
                      ChainWalk(start, kWarmWalkLength, value), walks.size()));
    walks.push_back(std::move(request));
  }
  workload->warmup = walks.size();
  workload->pass_size = walks.size();
  workload->expect_hits = true;
  workload->request = [walks = std::move(walks)](std::size_t i) {
    return walks[i % walks.size()];
  };
  workload->notes.push_back(
      "inputs: bf-chain of " + std::to_string(kWarmViews) + " views x " +
      std::to_string(kChainTuples) + " tuples (domain " +
      std::to_string(kChainDomain) + "); " + std::to_string(kWarmWalks) +
      " answerable " + std::to_string(kWarmWalkLength) +
      "-view walks, one signature each, plan-cache warm; kPrune");
  return Status::OK();
}

Status MakeColdPlan(uint64_t seed, bool traced, Workload* workload) {
  workload->instance = ChainInstance(kColdViews, seed);
  workload->ground_truth = [seed] { return ChainInstance(kColdViews, seed); };
  BuildCatalog(workload, std::chrono::microseconds(0), traced);
  workload->options.static_analysis = StaticAnalysisMode::kPrune;
  // One mediator view per walk shape; requests pair a shape with an
  // input value, so every request has its own plan-cache signature.
  struct Shape {
    std::string view;
    std::size_t start;
    std::size_t length;
  };
  auto shapes = std::make_shared<std::vector<Shape>>();
  for (std::size_t length = kColdMinLength; length <= kColdMaxLength;
       ++length) {
    for (std::size_t start = 0; start + length <= kColdViews; ++start) {
      const std::string name =
          "w" + std::to_string(start) + "_" + std::to_string(length);
      LIMCAP_RETURN_NOT_OK(
          DefineRequest(workload->mediator.get(), name,
                        ChainWalk(start, length, Value::String("x")), 0)
              .status());
      shapes->push_back({name, start, length});
    }
  }
  // A seeded permutation of (shape, value) pairs: no pair repeats until
  // the run has answered all of them.
  auto order = std::make_shared<std::vector<uint32_t>>(shapes->size() *
                                                       kChainDomain);
  for (std::size_t i = 0; i < order->size(); ++i) (*order)[i] = uint32_t(i);
  limcap::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  for (std::size_t i = order->size(); i > 1; --i) {
    std::swap((*order)[i - 1], (*order)[rng.Below(i)]);
  }
  workload->warmup = kColdWarmup;
  workload->pass_size = kColdBatch;
  const limcap::mediator::Mediator* mediator = workload->mediator.get();
  workload->request = [shapes, order, mediator](std::size_t i) {
    const uint32_t pick = (*order)[i % order->size()];
    const Shape& shape = (*shapes)[pick / kChainDomain];
    Request request;
    request.query.view = shape.view;
    request.query.selections = {
        {ChainAttribute(shape.start),
         GeneratedInstance::DomainValue(ChainAttribute(shape.start),
                                        pick % kChainDomain)}};
    request.query.outputs = {ChainAttribute(shape.start + shape.length)};
    request.expanded = *mediator->Expand(request.query);
    request.key = i;
    return request;
  };
  workload->notes.push_back(
      "inputs: bf-chain of " + std::to_string(kColdViews) + " views x " +
      std::to_string(kChainTuples) + " tuples (domain " +
      std::to_string(kChainDomain) + "); walks of " +
      std::to_string(kColdMinLength) + ".." + std::to_string(kColdMaxLength) +
      " views, " + std::to_string(order->size()) +
      " distinct (walk, input) signatures in seeded order, the first " +
      std::to_string(kColdWarmup) + " answered in set-up; kPrune");
  return Status::OK();
}

Status MakeFetchFanout(uint64_t seed, bool traced, Workload* workload) {
  // The catalog (topology and extents) and the query shapes are fixed;
  // the seed picks each query's input value.
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kRandom;
  spec.num_views = kFanoutViews;
  spec.tuples_per_view = kFanoutTuples;
  spec.domain_size = kFanoutDomain;
  spec.seed = kFanoutTopologySeed;
  GeneratedInstance generated = limcap::workload::GenerateInstance(spec);
  std::vector<Query> shapes;
  for (std::size_t k = 0; k < kFanoutQueries; ++k) {
    limcap::workload::QuerySpec query_spec{2, 2, 1, kFanoutTopologySeed + k};
    LIMCAP_ASSIGN_OR_RETURN(Query shape,
                            limcap::workload::GenerateQuery(generated,
                                                            query_spec));
    shapes.push_back(std::move(shape));
  }
  workload->instance = FromGenerated(std::move(generated));
  workload->ground_truth = [spec] {
    return FromGenerated(limcap::workload::GenerateInstance(spec));
  };
  limcap::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  BuildCatalog(workload, kFanoutLatency, traced);
  workload->options.runtime.concurrent = true;
  std::vector<Request> queries;
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    const std::string& attribute = shapes[k].inputs().front().attribute;
    Query query({{attribute, GeneratedInstance::DomainValue(
                                 attribute, rng.Below(kFanoutDomain))}},
                shapes[k].outputs(), shapes[k].connections());
    LIMCAP_ASSIGN_OR_RETURN(
        Request request, DefineRequest(workload->mediator.get(),
                                       "fan" + std::to_string(k), query, k));
    queries.push_back(std::move(request));
  }
  workload->warmup = queries.size();
  workload->pass_size = queries.size();
  workload->request = [queries = std::move(queries)](std::size_t i) {
    return queries[i % queries.size()];
  };
  workload->notes.push_back(
      "inputs: random topology of " + std::to_string(kFanoutViews) +
      " views (catalog seed " + std::to_string(kFanoutTopologySeed) +
      ") x " + std::to_string(kFanoutTuples) + " tuples (domain " +
      std::to_string(kFanoutDomain) + "); " + std::to_string(kFanoutQueries) +
      " 2x2-view queries, plan-cache warm; " +
      std::to_string(kFanoutLatency.count()) +
      " us per source call; concurrent fetch with default caps");
  return Status::OK();
}

/// The scenario's requests in the order the benchmark seed picks.
Result<limcap::workload::MixedWorkload> MixedRequests(uint64_t seed) {
  limcap::workload::MixedWorkloadSpec spec;
  spec.seed = kMixedScenarioSeed;
  spec.num_requests = kMixedRequests;
  LIMCAP_ASSIGN_OR_RETURN(limcap::workload::MixedWorkload mixed,
                          limcap::workload::GenerateMixedWorkload(spec));
  limcap::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 4);
  auto& requests = mixed.requests;
  for (std::size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1], requests[rng.Below(i)]);
  }
  return mixed;
}

/// serve_mixed's requests answered in process (the traced run's layer
/// breakdown), over the same merged catalog the daemon builds.
Status MakeMixedInProcess(const limcap::workload::MixedWorkload& mixed,
                          Workload* workload) {
  workload->instance.views = mixed.catalog.Views();
  workload->instance.extents = mixed.full_data;
  workload->instance.domains = mixed.domains;
  workload->ground_truth = [&mixed] {
    return Instance{mixed.catalog.Views(), mixed.full_data, mixed.domains};
  };
  BuildCatalog(workload, std::chrono::microseconds(0), true);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < mixed.requests.size(); ++i) {
    LIMCAP_ASSIGN_OR_RETURN(
        Request request,
        DefineRequest(workload->mediator.get(), "m" + std::to_string(i),
                      mixed.requests[i].query, i));
    requests.push_back(std::move(request));
  }
  // Short passes: this phase is bounded by time, not by the request set.
  workload->pass_size = 50;
  workload->request = [requests = std::move(requests)](std::size_t i) {
    return requests[i % requests.size()];
  };
  return Status::OK();
}

// ---------------------------------------------------------------------
// Checks.

/// Fails the run when a source was asked the same bound query twice
/// within one answer.
void CheckAccessLog(const AnswerReport& report, RunResult* result) {
  std::set<std::string> asked;
  for (const auto& record : report.exec.log.records()) {
    std::string key = record.source;
    for (uint32_t p : record.query.positions) key += "|" + std::to_string(p);
    key += "#";
    for (auto id : record.query.ids) key += std::to_string(id) + ",";
    if (!asked.insert(key).second) {
      result->Fail("source " + record.source +
                   " asked the same bound query twice in one answer: " +
                   record.RenderedQuery());
    }
  }
}

/// A 64-bit FNV-1a hash of an answer's tuples in their sorted order,
/// each value length-prefixed so no two answers render alike.
uint64_t Fingerprint(const AnswerSet& answer) {
  uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](const std::string& bytes) {
    for (unsigned char c : std::to_string(bytes.size()) + ":" + bytes) {
      hash = (hash ^ c) * 1099511628211ULL;
    }
  };
  for (const Tuple& tuple : answer) {
    mix("(");
    for (const std::string& value : tuple) mix(value);
  }
  return hash;
}

/// Compares answers with the oracle, computing each request's expected
/// answer once.
class Checker {
 public:
  explicit Checker(const Instance& instance)
      : oracle_(instance.views, instance.extents, instance.domains) {}

  void Check(const Request& request, const AnswerSet& got,
             RunResult* result) {
    const AnswerSet& want = Expected(request);
    if (got != want) {
      result->Fail("answer differs from the oracle (" +
                   std::to_string(got.size()) + " vs " +
                   std::to_string(want.size()) + " tuples) for " +
                   request.expanded.ToString());
    }
  }

  void CheckFingerprint(const Request& request, uint64_t got,
                        RunResult* result) {
    const AnswerSet& want = Expected(request);
    if (got != Fingerprint(want)) {
      result->Fail("answer differs from the oracle (" +
                   std::to_string(want.size()) + " tuples expected) for " +
                   request.expanded.ToString());
    }
  }

  std::string Summary() const {
    return "oracle: " + std::to_string(answers_) + " answers checked over " +
           std::to_string(expected_.size()) + " distinct requests, " +
           std::to_string(non_empty_) + " non-empty";
  }

 private:
  /// The oracle's answer to `request`, computed once per request key.
  const AnswerSet& Expected(const Request& request) {
    ++answers_;
    auto it = expected_.find(request.key);
    if (it == expected_.end()) {
      it = expected_.emplace(request.key, oracle_.Answer(request.expanded))
               .first;
    }
    if (!it->second.empty()) ++non_empty_;
    return it->second;
  }

  ObtainableOracle oracle_;
  std::map<std::size_t, AnswerSet> expected_;
  uint64_t answers_ = 0;
  uint64_t non_empty_ = 0;
};

/// The answers of a timed phase, kept as (request index, fingerprint)
/// pairs and compared with the oracle after the phase. A fingerprint is
/// 16 bytes per answer, so the kept answers stay out of peak_rss_mb
/// whatever the answer sizes and however many answers a run makes.
struct AnswerLog {
  std::vector<std::pair<std::size_t, uint64_t>> kept;

  void Keep(std::size_t index, const AnswerSet& got) {
    kept.emplace_back(index, Fingerprint(got));
  }

  /// Checks every kept answer; `request` regenerates request i.
  void CheckAll(Checker* checker,
                const std::function<Request(std::size_t)>& request,
                RunResult* result) const {
    for (const auto& [index, fingerprint] : kept) {
      checker->CheckFingerprint(request(index), fingerprint, result);
    }
  }
};

uint64_t SourceCalls(const Workload& workload) {
  uint64_t calls = 0;
  for (const CountingSource* counter : workload.counters) {
    calls += counter->calls();
  }
  return calls;
}

uint64_t SourceBusyNs(const Workload& workload) {
  uint64_t busy = 0;
  for (const CountingSource* counter : workload.counters) {
    busy += counter->busy_ns();
  }
  return busy;
}

/// Source calls an answer should have made: logged fetches that were
/// not served by another fetch's call.
uint64_t ExpectedCalls(const AnswerReport& report) {
  const auto& fetch = report.exec.fetch_report;
  return report.exec.log.total_queries() - fetch.coalesced_hits -
         fetch.cross_query_coalesced;
}

void AddEndToEnd(RunResult* result, double setup_s,
                 const std::vector<double>& latencies_ms, double busy_s,
                 double source_queries, double peak_rss_mb) {
  const double answers = double(latencies_ms.size());
  result->Add("setup_s", setup_s, "s");
  result->Add("answer_p50_ms", Quantile(latencies_ms, 0.5), "ms");
  result->Add("answer_p90_ms", Quantile(latencies_ms, 0.9), "ms");
  result->Add("answers_per_s", busy_s > 0 ? answers / busy_s : 0, "1/s");
  result->Add("source_queries_per_answer",
              answers > 0 ? source_queries / answers : 0, "queries");
  result->Add("peak_rss_mb", peak_rss_mb, "MB");
  result->notes.push_back("answer_p90_ms over " +
                          std::to_string(latencies_ms.size()) + " answers");
}

// ---------------------------------------------------------------------
// Untraced in-process run: Mediator::Answer, timed per call.

void RunUntraced(Workload& workload, const RunConfig& config,
                 RunResult* result) {
  for (std::size_t i = 0; i < workload.warmup; ++i) {
    const Request request = workload.request(i);
    auto report = workload.mediator->Answer(request.query, workload.options);
    if (!report.ok()) {
      result->Fail("warm-up answer failed: " + report.status().ToString());
    }
  }
  const double setup_s = MillisBetween(config.start, Clock::now()) / 1e3;

  const uint64_t hits_before = workload.mediator->plan_cache().stats().hits;
  std::vector<double> latencies;
  double busy_s = 0;
  double source_queries = 0;
  AnswerLog answers;
  const Clock::time_point phase_start = Clock::now();
  std::size_t next = workload.warmup;
  for (;;) {
    for (std::size_t k = 0; k < workload.pass_size; ++k) {
      const std::size_t index = next++;
      const Request request = workload.request(index);
      const Clock::time_point t0 = Clock::now();
      auto report = workload.mediator->Answer(request.query, workload.options);
      const Clock::time_point t1 = Clock::now();
      ++result->attempted;
      if (!report.ok()) {
        ++result->failed;
        result->Fail("answer failed: " + report.status().ToString());
        continue;
      }
      latencies.push_back(MillisBetween(t0, t1));
      busy_s += MillisBetween(t0, t1) / 1e3;
      source_queries += double(report->exec.log.total_queries());
      if (workload.expect_hits && !report->cache.hit) {
        result->Fail("timed answer missed the plan cache");
      }
      CheckAccessLog(*report, result);
      answers.Keep(index, ToAnswerSet(report->exec.answer));
    }
    if (MillisBetween(phase_start, Clock::now()) >= config.seconds * 1e3) {
      break;
    }
  }
  // Read before the oracle exists, so the peak is the program's.
  const double peak_rss_mb = SelfPeakRssMb();
  if (workload.expect_hits) {
    const uint64_t hits =
        workload.mediator->plan_cache().stats().hits - hits_before;
    if (hits != latencies.size()) {
      result->Fail("plan cache hits grew by " + std::to_string(hits) +
                   " over " + std::to_string(latencies.size()) +
                   " timed answers");
    }
  }
  AddEndToEnd(result, setup_s, latencies, busy_s, source_queries,
              peak_rss_mb);
  Checker checker(workload.ground_truth());
  answers.CheckAll(&checker, workload.request, result);
  result->notes.push_back(checker.Summary());
}

// ---------------------------------------------------------------------
// Traced in-process run: the same requests, each answered twice —
// untraced through Mediator::Answer (the baseline) and layer by layer
// under spans from this file.

/// What the layer-by-layer answer produced besides its report.
struct Decomposed {
  AnswerReport report;
  double execute_us = 0;
  std::size_t program_rules = 0;
  std::size_t pruned_channels = 0;
};

/// The layer calls Mediator::Answer makes, in its order, each under a
/// span: expand, validate, context set-up, validate, signature, cache
/// lookup, then either the cached artifact's replay or plan + gate +
/// cache insert, then execution. This mirrors QueryAnswerer::Answer
/// (src/exec/query_answerer.cc) and must follow it when it changes;
/// SameWork() checks each layered answer against the untraced one.
Result<Decomposed> AnswerByLayer(Workload& workload, PlanCache* cache,
                                 const Request& request, SpanRecorder* spans,
                                 uint64_t id) {
  const SourceCatalog& catalog = workload.catalog;
  const auto& domains = workload.instance.domains;
  ScopedSpan root(spans, "answer", id, -1);
  const int parent = root.index();
  Decomposed out;
  AnswerReport& report = out.report;

  Result<Query> expanded = Status::Internal("unset");
  {
    ScopedSpan span(spans, "mediator.expand", id, parent);
    expanded = workload.mediator->Expand(request.query);
  }
  if (!expanded.ok()) return expanded.status();
  const Query& query = *expanded;
  auto validate = [&]() {
    ScopedSpan span(spans, "planner.validate", id, parent);
    return query.Validate(catalog, domains);
  };
  // Mediator::Answer validates the expansion, builds the query context,
  // and QueryAnswerer::Answer validates again: both calls are mirrored.
  LIMCAP_RETURN_NOT_OK(validate());
  ExecOptions base = workload.options;
  base.plan_cache = cache;
  std::optional<limcap::exec::QueryContext> context;
  {
    ScopedSpan span(spans, "exec.context", id, parent);
    context.emplace(base, query);
  }
  LIMCAP_RETURN_NOT_OK(validate());
  const ExecOptions& options = context->options();
  Result<limcap::planner::QuerySignature> signature =
      Status::Internal("unset");
  {
    ScopedSpan span(spans, "planner.signature", id, parent);
    signature = limcap::planner::MakeQuerySignature(
        query, catalog, domains, options.builder,
        ModeTag(options.static_analysis));
  }
  LIMCAP_RETURN_NOT_OK(signature.status());
  std::shared_ptr<const limcap::planner::CachedPlan> cached;
  {
    ScopedSpan span(spans, "planner.cache_lookup", id, parent);
    cached = cache->Lookup(catalog.fingerprint(), *signature);
  }
  report.cache.attempted = true;
  report.cache.hit = cached != nullptr;

  limcap::datalog::Program program;
  if (cached != nullptr) {
    ScopedSpan span(spans, "planner.cache_replay", id, parent);
    report.plan = cached->plan;
    program = cached->executable_program;
    if (cached->analysis_ran) {
      report.analysis =
          *std::static_pointer_cast<const limcap::analysis::AnalysisResult>(
              cached->verdicts);
      report.analysis_ran = true;
    }
  } else {
    {
      ScopedSpan span(spans, "planner.plan", id, parent);
      LIMCAP_ASSIGN_OR_RETURN(
          report.plan, limcap::planner::PlanQuery(query, catalog.Views(),
                                                  domains, options.builder));
    }
    {
      ScopedSpan span(spans, "analysis.gate", id, parent);
      LIMCAP_ASSIGN_OR_RETURN(
          program, limcap::exec::ApplyStaticAnalysisGate(
                       report.plan.optimized_program, catalog.Views(),
                       domains, options, &report));
    }
    ScopedSpan span(spans, "planner.cache_insert", id, parent);
    auto entry = std::make_shared<limcap::planner::CachedPlan>();
    entry->plan = report.plan;
    entry->executable_program = program;
    entry->analysis_ran = report.analysis_ran;
    if (report.analysis_ran) {
      entry->verdicts =
          std::make_shared<const limcap::analysis::AnalysisResult>(
              report.analysis);
    }
    entry->catalog_fingerprint = catalog.fingerprint();
    entry->signature = *signature;
    cache->Insert(std::move(entry));
  }
  ExecOptions exec_options = options;
  if (options.static_analysis == StaticAnalysisMode::kPrune &&
      report.analysis_ran && report.analysis.binding_flow_ran) {
    exec_options.pruned_channels =
        report.analysis.binding_flow.PrunedChannels();
  }
  out.program_rules = program.rules().size();
  out.pruned_channels = exec_options.pruned_channels.size();
  {
    ScopedSpan span(spans, "exec.execute", id, parent);
    const Clock::time_point start = Clock::now();
    limcap::exec::SourceDrivenEvaluator evaluator(&catalog, domains,
                                                  exec_options);
    LIMCAP_ASSIGN_OR_RETURN(report.exec, evaluator.Execute(program, query));
    out.execute_us = MicrosBetween(start, Clock::now());
  }
  return out;
}

/// Stand-alone timings of stages the answer path runs inside bigger
/// calls (or not at all on a cache hit): each probe re-runs one public
/// entry point on the same inputs, under its own root span.
void ProbeLayers(Workload& workload, const Decomposed& answer,
                 const Request& request, SpanRecorder* spans, uint64_t id) {
  const SourceCatalog& catalog = workload.catalog;
  const auto& domains = workload.instance.domains;
  const auto& builder = workload.options.builder;
  std::vector<SourceView> views;
  {
    ScopedSpan span(spans, "capability.views", id, -1);
    views = catalog.Views();
  }
  const std::string text = request.expanded.ToString();
  {
    ScopedSpan span(spans, "planner.parse", id, -1);
    (void)limcap::planner::ParseQuery(text);
  }
  if (answer.report.cache.hit) return;
  {
    // What a later hit on this plan will pay to replay it.
    ScopedSpan span(spans, "planner.cache_replay", id, -1);
    const limcap::planner::PlanResult plan = answer.report.plan;
    const limcap::datalog::Program program =
        answer.report.plan.optimized_program;
    volatile std::size_t sink =
        plan.full_program.rules().size() + program.rules().size();
    (void)sink;
  }
  const Query& query = request.expanded;
  Result<limcap::planner::QueryRelevance> relevance =
      Status::Internal("unset");
  {
    ScopedSpan span(spans, "planner.find_rel", id, -1);
    relevance = limcap::planner::AnalyzeQueryRelevance(query, views, domains);
  }
  if (!relevance.ok()) return;
  limcap::datalog::Program relevant;
  {
    ScopedSpan span(spans, "planner.build", id, -1);
    auto full = limcap::planner::BuildProgram(query, views, domains, builder);
    if (full.ok()) {
      (void)limcap::planner::DecomposeWideRules(*full,
                                                builder.max_rule_body_atoms);
    }
    Query trimmed(query.inputs(), query.outputs(),
                  relevance->queryable_connections);
    std::vector<SourceView> relevant_views;
    for (const SourceView& view : views) {
      if (relevance->relevant_union.count(view.name()) > 0) {
        relevant_views.push_back(view);
      }
    }
    if (!trimmed.connections().empty()) {
      auto built = limcap::planner::BuildProgram(trimmed, relevant_views,
                                                 domains, builder);
      if (built.ok()) relevant = std::move(*built);
    }
  }
  {
    ScopedSpan span(spans, "planner.optimize", id, -1);
    auto optimized =
        limcap::planner::RemoveUselessRules(relevant, builder.goal_predicate);
    (void)limcap::planner::DecomposeWideRules(optimized.program,
                                              builder.max_rule_body_atoms);
  }
  {
    // Measured on every planned program, whatever the gate mode.
    ScopedSpan span(spans, "analysis.binding_flow", id, -1);
    limcap::analysis::BindingFlowOptions flow_options;
    flow_options.goal_predicate = builder.goal_predicate;
    (void)limcap::analysis::AnalyzeBindingFlow(
        answer.report.plan.optimized_program, views, domains, flow_options);
  }
}

/// The primary layer spans of one answer, in call order; their medians
/// are what answer.unattributed_us subtracts.
const std::vector<std::string>& PrimaryLayers() {
  static const std::vector<std::string> layers = {
      "mediator.expand",      "planner.validate",    "exec.context",
      "planner.signature",    "planner.cache_lookup", "planner.cache_replay",
      "planner.plan",         "analysis.gate",       "planner.cache_insert",
      "exec.execute"};
  return layers;
}

/// Per-answer counts from the layer-by-layer answers.
struct LayerCounts {
  double answers = 0;
  double source_calls = 0;
  double source_busy_ms = 0;
  double logged = 0;
  double productive = 0;
  double rounds = 0;
  double facts = 0;
  double activations = 0;
  double probes = 0;
  double batches = 0;
  double coalesced = 0;
  double program_rules = 0;
  double relevant_views = 0;
  double pruned_channels = 0;
  double execute_ms = 0;

  void Add(const Decomposed& answer, uint64_t calls, uint64_t busy_ns,
           double execute_us) {
    const AnswerReport& report = answer.report;
    const auto& fetch = report.exec.fetch_report;
    answers += 1;
    source_calls += double(calls);
    source_busy_ms += double(busy_ns) / 1e6;
    logged += double(report.exec.log.total_queries());
    productive += double(report.exec.log.productive_queries());
    rounds += double(report.exec.rounds);
    facts += double(report.exec.datalog_stats.facts_derived);
    activations += double(report.exec.datalog_stats.rule_activations);
    probes += double(report.exec.datalog_stats.probes);
    batches += double(fetch.batches);
    coalesced += double(fetch.coalesced_hits + fetch.cross_query_coalesced);
    program_rules += double(answer.program_rules);
    relevant_views += double(report.plan.relevance.relevant_union.size());
    pruned_channels += double(answer.pruned_channels);
    execute_ms += execute_us / 1e3;
  }
};

/// Samples from the daemon's answer frames (serve_mixed only).
struct ServeSamples {
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> wire_ms;
  double response_bytes = 0;
  double responses = 0;
};

/// Plan-cache activity over the timed phase.
struct CacheDelta {
  double hits = 0;
  double lookups = 0;
  double evictions = 0;
  double answers = 0;
};

void AddPerLayer(RunResult* result, const SpanRecorder& spans,
                 const std::vector<uint64_t>& timed_ids,
                 const std::vector<double>& untraced_ms,
                 const LayerCounts& counts, const ServeSamples& serve,
                 const CacheDelta& cache, double extra_coalesced) {
  auto median_us = [&](const std::string& name) {
    return Median(spans.PerAnswerUs(name));
  };
  const double n = std::max(1.0, counts.answers);
  result->Add("mediator.expand_us", median_us("mediator.expand"), "us");
  result->Add("serve.queue_ms", Median(serve.queue_ms), "ms");
  result->Add("serve.exec_ms", Median(serve.exec_ms), "ms");
  result->Add("serve.wire_ms", Median(serve.wire_ms), "ms");
  result->Add("serve.response_bytes",
              serve.responses > 0 ? serve.response_bytes / serve.responses : 0,
              "bytes");
  result->Add("planner.parse_us", median_us("planner.parse"), "us");
  result->Add("planner.validate_us", median_us("planner.validate"), "us");
  result->Add("planner.signature_us", median_us("planner.signature"), "us");
  result->Add("planner.cache_lookup_us", median_us("planner.cache_lookup"),
              "us");
  result->Add("planner.cache_replay_us", median_us("planner.cache_replay"),
              "us");
  result->Add("planner.plan_us", median_us("planner.plan"), "us");
  result->Add("planner.find_rel_us", median_us("planner.find_rel"), "us");
  result->Add("planner.build_us", median_us("planner.build"), "us");
  result->Add("planner.optimize_us", median_us("planner.optimize"), "us");
  result->Add("planner.program_rules", counts.program_rules / n, "rules");
  result->Add("planner.relevant_views", counts.relevant_views / n, "views");
  result->Add("planner.cache_hit_ratio",
              cache.lookups > 0 ? cache.hits / cache.lookups : 0, "ratio");
  result->Add("planner.cache_lookups", cache.lookups, "count");
  result->Add("planner.cache_evictions",
              cache.answers > 0 ? 1000.0 * cache.evictions / cache.answers : 0,
              "per_1000");
  result->Add("analysis.gate_us", median_us("analysis.gate"), "us");
  result->Add("analysis.binding_flow_us", median_us("analysis.binding_flow"),
              "us");
  result->Add("analysis.pruned_channels", counts.pruned_channels / n,
              "channels");
  result->Add("capability.views_us", median_us("capability.views"), "us");
  result->Add("capability.source_calls", counts.source_calls / n, "calls");
  result->Add("capability.source_busy_ms", counts.source_busy_ms / n, "ms");
  result->Add("capability.productive_ratio",
              counts.logged > 0 ? counts.productive / counts.logged : 0,
              "ratio");
  result->Add("capability.source_queries", counts.logged, "count");
  result->Add("exec.context_us", median_us("exec.context"), "us");
  result->Add("exec.execute_us", median_us("exec.execute"), "us");
  result->Add("exec.rounds", counts.rounds / n, "rounds");
  result->Add("datalog.facts_derived", counts.facts / n, "facts");
  result->Add("datalog.rule_activations", counts.activations / n,
              "activations");
  result->Add("datalog.probes", counts.probes / n, "probes");
  result->Add("runtime.batches", counts.batches / n, "batches");
  result->Add("runtime.overlap",
              counts.execute_ms > 0 ? counts.source_busy_ms / counts.execute_ms
                                    : 0,
              "ratio");
  result->Add("runtime.coalesced", (counts.coalesced + extra_coalesced) / n,
              "fetches");
  double attributed_us = 0;
  for (const std::string& layer : PrimaryLayers()) {
    attributed_us += Median(spans.InAnswerUs(layer, timed_ids));
  }
  const double untraced_p50_ms = Median(untraced_ms);
  result->Add("answer.unattributed_us", untraced_p50_ms * 1e3 - attributed_us,
              "us");
  std::vector<double> traced_ms;
  for (double us : spans.InAnswerUs("answer", timed_ids, false)) {
    traced_ms.push_back(us / 1e3);
  }
  result->Add("trace.overhead_ms", Median(traced_ms) - untraced_p50_ms, "ms");
  result->notes.push_back(
      "bases: planner.cache_hit_ratio over " + std::to_string(uint64_t(
                                                   cache.lookups)) +
      " lookups; capability.productive_ratio over " +
      std::to_string(uint64_t(counts.logged)) + " source queries; " +
      std::to_string(timed_ids.size()) + " traced answers, " +
      std::to_string(serve.queue_ms.size()) + " served");
}

/// Whether the layer-by-layer answer did the work the untraced one did:
/// the same cache outcome, program size, rounds and logged source
/// queries. A mismatch means AnswerByLayer no longer follows
/// QueryAnswerer::Answer.
bool SameWork(const AnswerReport& plain, const AnswerReport& layered) {
  return plain.cache.hit == layered.cache.hit &&
         plain.plan.optimized_program.rules().size() ==
             layered.plan.optimized_program.rules().size() &&
         plain.exec.rounds == layered.exec.rounds &&
         plain.exec.log.total_queries() == layered.exec.log.total_queries();
}

/// Runs the traced in-process loop for up to `seconds`.
void TraceInProcess(Workload& workload, double seconds, SpanRecorder* spans,
                    RunResult* result, CacheDelta* cache_delta,
                    LayerCounts* counts, std::vector<uint64_t>* timed_ids,
                    std::vector<double>* untraced_ms) {
  PlanCache layer_cache;
  uint64_t next_id = 1;
  auto answer_one = [&](const Request& request, bool timed,
                        Checker* checker) -> Status {
    uint64_t calls = SourceCalls(workload);
    const Clock::time_point t0 = Clock::now();
    auto plain = workload.mediator->Answer(request.query, workload.options);
    const double plain_ms = MillisBetween(t0, Clock::now());
    LIMCAP_RETURN_NOT_OK(plain.status());
    if (SourceCalls(workload) - calls != ExpectedCalls(*plain)) {
      result->Fail("source calls differ from the access log");
    }
    const uint64_t id = next_id++;
    calls = SourceCalls(workload);
    const uint64_t busy = SourceBusyNs(workload);
    LIMCAP_ASSIGN_OR_RETURN(
        Decomposed layered,
        AnswerByLayer(workload, &layer_cache, request, spans, id));
    const uint64_t layered_calls = SourceCalls(workload) - calls;
    const uint64_t layered_busy = SourceBusyNs(workload) - busy;
    if (layered_calls != ExpectedCalls(layered.report)) {
      result->Fail("decorator counted " + std::to_string(layered_calls) +
                   " source calls, access log implies " +
                   std::to_string(ExpectedCalls(layered.report)));
    }
    if (!SameWork(*plain, layered.report)) {
      result->Fail("layered answer did other work than Mediator::Answer for " +
                   request.expanded.ToString());
    }
    ProbeLayers(workload, layered, request, spans, id);
    if (!timed) return Status::OK();
    if (workload.expect_hits && !(plain->cache.hit && layered.report.cache.hit)) {
      result->Fail("timed answer missed the plan cache");
    }
    for (const AnswerReport* report : {&*plain, &layered.report}) {
      CheckAccessLog(*report, result);
      checker->Check(request, ToAnswerSet(report->exec.answer), result);
    }
    untraced_ms->push_back(plain_ms);
    timed_ids->push_back(id);
    counts->Add(layered, layered_calls, layered_busy, layered.execute_us);
    return Status::OK();
  };

  for (std::size_t i = 0; i < workload.warmup; ++i) {
    Status warmed = answer_one(workload.request(i), false, nullptr);
    if (!warmed.ok()) result->Fail("warm-up failed: " + warmed.ToString());
  }
  Checker checker(workload.ground_truth());
  const auto before = workload.mediator->plan_cache().stats();
  const Clock::time_point phase_start = Clock::now();
  std::size_t next = workload.warmup;
  for (;;) {
    for (std::size_t k = 0; k < workload.pass_size; ++k) {
      ++result->attempted;
      Status done = answer_one(workload.request(next++), true, &checker);
      if (!done.ok()) {
        ++result->failed;
        result->Fail("traced answer failed: " + done.ToString());
      }
    }
    if (MillisBetween(phase_start, Clock::now()) >= seconds * 1e3) break;
  }
  const auto after = workload.mediator->plan_cache().stats();
  cache_delta->hits += double(after.hits - before.hits);
  cache_delta->lookups +=
      double(after.hits + after.misses - before.hits - before.misses);
  cache_delta->evictions += double(after.evictions - before.evictions);
  cache_delta->answers += double(untraced_ms->size());
  result->notes.push_back(checker.Summary());
}

/// The traced run of an in-process workload. The serve.* metrics belong
/// to serve_mixed's daemon and read 0 here.
void RunTraced(Workload& workload, const RunConfig& config, RunResult* result,
               SpanRecorder* spans) {
  CacheDelta cache;
  LayerCounts counts;
  std::vector<uint64_t> timed_ids;
  std::vector<double> untraced_ms;
  TraceInProcess(workload, config.seconds, spans, result, &cache, &counts,
                 &timed_ids, &untraced_ms);
  AddPerLayer(result, *spans, timed_ids, untraced_ms, counts, ServeSamples(),
              cache, 0);
}

// ---------------------------------------------------------------------
// serve_mixed: limcap_serve as a subprocess, driven over loopback.

struct ClientSamples {
  std::vector<double> latency_ms;
  double source_queries = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  ServeSamples serve;
  std::vector<std::string> errors;
};

/// One closed-loop connection: sends its share of the requests (every
/// `stride`-th from `offset`) pass after pass until `stop_after` has
/// passed at a pass boundary, or for exactly one pass when `stop_after`
/// is zero.
void ClientLoop(int port, const std::vector<std::string>& frames,
                std::size_t offset, std::size_t stride,
                double stop_after_s, bool record,
                std::vector<std::optional<AnswerSet>>* answers,
                std::vector<char>* unstable, ClientSamples* samples) {
  ServeConnection connection;
  Status connected = connection.Connect(port);
  if (!connected.ok()) {
    samples->errors.push_back(connected.ToString());
    ++samples->failed;
    ++samples->attempted;
    return;
  }
  const Clock::time_point start = Clock::now();
  for (;;) {
    for (std::size_t i = offset; i < frames.size(); i += stride) {
      const Clock::time_point t0 = Clock::now();
      std::size_t bytes = 0;
      auto reply = connection.Call(frames[i], &bytes);
      const double round_trip = MillisBetween(t0, Clock::now());
      ++samples->attempted;
      if (!reply.ok() || reply->GetString("type") != "answer") {
        ++samples->failed;
        if (samples->errors.size() < 5) {
          samples->errors.push_back(reply.ok() ? reply->Dump()
                                               : reply.status().ToString());
        }
        if (!reply.ok()) return;  // the stream is gone
        continue;
      }
      AnswerSet rows;
      for (const Json& row : reply->Get("rows").array()) {
        Tuple tuple;
        for (const Json& value : row.array()) tuple.push_back(value.AsString());
        rows.insert(std::move(tuple));
      }
      std::optional<AnswerSet>& first = (*answers)[i];
      if (!first.has_value()) {
        first = std::move(rows);
      } else if (*first != rows) {
        (*unstable)[i] = 1;
      }
      if (!record) continue;
      samples->latency_ms.push_back(round_trip);
      samples->source_queries += reply->GetNumber("source_queries");
      const double queue = reply->GetNumber("queue_ms");
      const double exec = reply->GetNumber("exec_ms");
      samples->serve.queue_ms.push_back(queue);
      samples->serve.exec_ms.push_back(exec);
      samples->serve.wire_ms.push_back(round_trip - queue - exec);
      samples->serve.response_bytes += double(bytes);
      samples->serve.responses += 1;
    }
    if (stop_after_s <= 0 ||
        MillisBetween(start, Clock::now()) >= stop_after_s * 1e3) {
      return;
    }
  }
}

/// Runs kServeConnections client loops in parallel and merges them.
ClientSamples DriveServer(int port, const std::vector<std::string>& frames,
                          double seconds, bool record,
                          std::vector<std::optional<AnswerSet>>* answers,
                          std::vector<char>* unstable, double* wall_s) {
  std::vector<ClientSamples> per_client(kServeConnections);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kServeConnections; ++c) {
      clients.emplace_back(ClientLoop, port, std::cref(frames), c,
                           kServeConnections, seconds, record, answers,
                           unstable, &per_client[c]);
    }
    for (std::thread& client : clients) client.join();
  }
  if (wall_s != nullptr) *wall_s = MillisBetween(start, Clock::now()) / 1e3;
  ClientSamples merged;
  for (ClientSamples& c : per_client) {
    merged.latency_ms.insert(merged.latency_ms.end(), c.latency_ms.begin(),
                             c.latency_ms.end());
    merged.source_queries += c.source_queries;
    merged.attempted += c.attempted;
    merged.failed += c.failed;
    for (auto field : {&ServeSamples::queue_ms, &ServeSamples::exec_ms,
                        &ServeSamples::wire_ms}) {
      (merged.serve.*field)
          .insert((merged.serve.*field).end(), (c.serve.*field).begin(),
                  (c.serve.*field).end());
    }
    merged.serve.response_bytes += c.serve.response_bytes;
    merged.serve.responses += c.serve.responses;
    merged.errors.insert(merged.errors.end(), c.errors.begin(),
                         c.errors.end());
  }
  return merged;
}

Result<Json> ServerStatus(int port) {
  ServeConnection connection;
  LIMCAP_RETURN_NOT_OK(connection.Connect(port));
  return connection.Call(R"({"id":0,"type":"status"})");
}

Status ShutdownServer(int port, ServerProcess* server) {
  {
    ServeConnection connection;
    LIMCAP_RETURN_NOT_OK(connection.Connect(port));
    LIMCAP_ASSIGN_OR_RETURN(Json bye,
                            connection.Call(R"({"id":0,"type":"shutdown"})"));
    if (bye.GetString("type") != "bye") {
      return Status::Internal("no bye from the daemon: " + bye.Dump());
    }
  }
  return server->Wait(30);
}

void RunServeMixed(const RunConfig& config, RunResult* result,
                   SpanRecorder* spans) {
  ServerProcess server;
  Status started = server.Start(
      config.serve_binary,
      {"--scenario", "mixed", "--seed", std::to_string(kMixedScenarioSeed),
       "--workers", std::to_string(kServeWorkers)});
  if (!started.ok()) {
    result->Fail("cannot start limcap_serve: " + started.ToString());
    ++result->attempted;
    ++result->failed;
    return;
  }
  auto mixed = MixedRequests(config.seed);
  if (!mixed.ok()) {
    result->Fail("workload generation failed: " + mixed.status().ToString());
    return;
  }
  std::vector<std::string> frames;
  std::set<std::string> distinct;
  for (std::size_t i = 0; i < mixed->requests.size(); ++i) {
    Json message = Json::MakeObject();
    message.Set("type", "query");
    message.Set("id", uint64_t(i));
    const std::string text = mixed->requests[i].query.ToString();
    distinct.insert(text);
    message.Set("query", text);
    frames.push_back(message.Dump());
  }
  std::vector<std::optional<AnswerSet>> answers(frames.size());
  std::vector<char> unstable(frames.size(), 0);
  // Warm-up: one pass, so lazy source indexes and first plans land in
  // set-up, not in the timed phase.
  ClientSamples warm = DriveServer(server.port(), frames, 0, false, &answers,
                                   &unstable, nullptr);
  if (warm.failed > 0) {
    result->Fail("warm-up pass failed: " +
                 (warm.errors.empty() ? std::string() : warm.errors[0]));
  }
  const double setup_s = MillisBetween(config.start, Clock::now()) / 1e3;

  const double served_seconds = config.trace ? config.seconds / 2
                                             : config.seconds;
  auto status_before = ServerStatus(server.port());
  double wall_s = 0;
  ClientSamples timed = DriveServer(server.port(), frames, served_seconds,
                                    true, &answers, &unstable, &wall_s);
  auto status_after = ServerStatus(server.port());
  const double peak_rss = server.PeakRssMb();
  Status stopped = ShutdownServer(server.port(), &server);
  if (!stopped.ok()) result->Fail("daemon shutdown: " + stopped.ToString());
  result->attempted += timed.attempted;
  result->failed += timed.failed;
  for (const std::string& error : timed.errors) {
    result->Fail("served request failed: " + error);
  }

  // Every served answer against the oracle: the first answer of each
  // request, and every later answer equal to that first one.
  std::unique_ptr<Workload> in_process = std::make_unique<Workload>();
  {
    Checker checker(Instance{mixed->catalog.Views(), mixed->full_data,
                             mixed->domains});
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (unstable[i]) {
        result->Fail("request " + std::to_string(i) +
                     " got different answers on different passes");
      }
      if (!answers[i].has_value()) continue;
      Request request;
      request.expanded = mixed->requests[i].query;
      request.key = i;
      checker.Check(request, *answers[i], result);
    }
    result->notes.push_back(checker.Summary() + " (" +
                            std::to_string(distinct.size()) +
                            " distinct queries of " +
                            std::to_string(frames.size()) + ")");
  }
  result->notes.push_back(
      "inputs: limcap_serve --scenario mixed --seed " +
      std::to_string(kMixedScenarioSeed) + " --workers " +
      std::to_string(kServeWorkers) + "; " +
      std::to_string(kServeConnections) + " closed-loop connections over " +
      std::to_string(kMixedRequests) + " requests per pass in seed " +
      std::to_string(config.seed) + "'s order");

  if (!config.trace) {
    result->Add("setup_s", setup_s, "s");
    result->Add("answer_p50_ms", Quantile(timed.latency_ms, 0.5), "ms");
    result->Add("answer_p90_ms", Quantile(timed.latency_ms, 0.9), "ms");
    result->Add("answers_per_s",
                wall_s > 0 ? double(timed.latency_ms.size()) / wall_s : 0,
                "1/s");
    result->Add("source_queries_per_answer",
                timed.latency_ms.empty()
                    ? 0
                    : timed.source_queries / double(timed.latency_ms.size()),
                "queries");
    result->Add("peak_rss_mb", peak_rss, "MB");
    result->notes.push_back("answer_p90_ms over " +
                            std::to_string(timed.latency_ms.size()) +
                            " answers");
    return;
  }

  // Traced: the server's own counters for the cache, then the same
  // requests answered in process for the layer breakdown.
  CacheDelta cache;
  double cross_coalesced = 0;
  if (status_before.ok() && status_after.ok()) {
    const Json& a = status_after->Get("plan_cache");
    const Json& b = status_before->Get("plan_cache");
    cache.hits = a.GetNumber("hits") - b.GetNumber("hits");
    cache.lookups = cache.hits + a.GetNumber("misses") - b.GetNumber("misses");
    cache.evictions = a.GetNumber("evictions") - b.GetNumber("evictions");
    cache.answers = double(timed.latency_ms.size());
    cross_coalesced =
        status_after->Get("governor").GetNumber("cross_query_coalesced") -
        status_before->Get("governor").GetNumber("cross_query_coalesced");
  } else {
    result->Fail("status frame failed");
  }
  Status made = MakeMixedInProcess(*mixed, in_process.get());
  if (!made.ok()) {
    result->Fail("in-process mixed workload: " + made.ToString());
    return;
  }
  LayerCounts counts;
  std::vector<uint64_t> timed_ids;
  std::vector<double> untraced_ms;
  CacheDelta in_process_cache;
  TraceInProcess(*in_process, config.seconds / 2, spans, result,
                 &in_process_cache, &counts, &timed_ids, &untraced_ms);
  const double per_answer_cross =
      cache.answers > 0 ? cross_coalesced / cache.answers : 0;
  AddPerLayer(result, *spans, timed_ids, untraced_ms, counts, timed.serve,
              cache, per_answer_cross * counts.answers);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"warm_wide", "cold_plan",
                                                 "fetch_fanout", "serve_mixed"};
  return names;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  SpanRecorder spans;
  if (config.workload == "serve_mixed") {
    RunServeMixed(config, &result, &spans);
  } else {
    Workload workload;
    Status made = Status::InvalidArgument("unknown workload");
    if (config.workload == "warm_wide") {
      made = MakeWarmWide(config.seed, config.trace, &workload);
    } else if (config.workload == "cold_plan") {
      made = MakeColdPlan(config.seed, config.trace, &workload);
    } else if (config.workload == "fetch_fanout") {
      made = MakeFetchFanout(config.seed, config.trace, &workload);
    }
    if (!made.ok()) {
      result.Fail("set-up failed: " + made.ToString());
      return result;
    }
    result.notes.insert(result.notes.end(), workload.notes.begin(),
                        workload.notes.end());
    if (config.trace) {
      RunTraced(workload, config, &result, &spans);
    } else {
      RunUntraced(workload, config, &result);
    }
  }
  if (config.trace) {
    const std::string path = config.out_dir + "/spans-" + config.workload +
                             "-" + std::to_string(config.seed) + ".jsonl";
    if (spans.Write(path)) {
      result.notes.push_back("spans: " + std::to_string(spans.spans().size()) +
                             " written to " + path);
    } else {
      result.Fail("cannot write span file " + path);
    }
  }
  return result;
}

}  // namespace ledger
