#include "oracle.h"

#include <algorithm>
#include <unordered_set>

namespace ledger {

using limcap::Value;
using limcap::capability::SourceView;
using limcap::relational::Relation;
using limcap::relational::Row;

ObtainableOracle::ObtainableOracle(
    const std::vector<SourceView>& views,
    const std::map<std::string, Relation>& extents,
    const limcap::planner::DomainMap& domains)
    : domains_(domains) {
  auto domain_id = [&](const std::string& attribute) {
    const std::string name = domains.DomainOf(attribute);
    auto [it, inserted] =
        domain_ids_.emplace(name, static_cast<int>(domain_ids_.size()));
    if (inserted) bound_positions_.emplace_back();
    return it->second;
  };
  auto intern = [&](const std::string& value) {
    auto [it, inserted] =
        value_ids_.emplace(value, static_cast<int>(values_.size()));
    if (inserted) values_.push_back(value);
    return it->second;
  };

  for (const SourceView& source : views) {
    View view;
    view.attributes = source.schema().attributes();
    const int arity = static_cast<int>(view.attributes.size());
    for (const std::string& attribute : view.attributes) {
      view.domain_of.push_back(domain_id(attribute));
    }
    std::vector<bool> ever_bound(arity, false);
    for (const auto& pattern : source.templates()) {
      std::vector<int> bound;
      for (int p = 0; p < arity; ++p) {
        if (pattern.IsBound(p)) {
          bound.push_back(p);
          ever_bound[p] = true;
        }
      }
      if (bound.empty()) view.has_free_template = true;
      view.bound.push_back(std::move(bound));
    }
    view.postings.resize(arity);
    auto extent = extents.find(source.name());
    if (extent != extents.end()) {
      for (const Row& row : extent->second.DecodedRows()) {
        std::vector<int> ids;
        for (const Value& value : row) ids.push_back(intern(value.ToString()));
        const int row_id = static_cast<int>(view.rows.size());
        for (int p = 0; p < arity; ++p) {
          if (ever_bound[p]) view.postings[p][ids[p]].push_back(row_id);
        }
        view.rows.push_back(std::move(ids));
      }
    }
    const int index = static_cast<int>(views_.size());
    for (int p = 0; p < arity; ++p) {
      if (ever_bound[p]) {
        bound_positions_[view.domain_of[p]].emplace_back(index, p);
      }
    }
    view_index_.emplace(source.name(), index);
    views_.push_back(std::move(view));
  }
}

int ObtainableOracle::ValueId(const std::string& value) const {
  auto it = value_ids_.find(value);
  return it == value_ids_.end() ? -1 : it->second;
}

AnswerSet ObtainableOracle::Answer(const limcap::planner::Query& query) const {
  // Known (domain, value) pairs; values no extent holds (id -1) can seed
  // a domain but never match a tuple, so they need no entry.
  std::unordered_set<uint64_t> known;
  auto key = [](int domain, int value) {
    return (uint64_t(uint32_t(domain)) << 32) | uint32_t(value);
  };
  std::vector<std::pair<int, int>> worklist;
  auto learn = [&](int domain, int value) {
    if (known.insert(key(domain, value)).second) {
      worklist.emplace_back(domain, value);
    }
  };
  std::vector<std::vector<char>> obtained(views_.size());
  for (std::size_t v = 0; v < views_.size(); ++v) {
    obtained[v].assign(views_[v].rows.size(), 0);
  }
  auto obtain = [&](int v, int row) {
    if (obtained[v][row]) return;
    obtained[v][row] = 1;
    const View& view = views_[v];
    for (std::size_t p = 0; p < view.rows[row].size(); ++p) {
      learn(view.domain_of[p], view.rows[row][p]);
    }
  };

  for (const auto& input : query.inputs()) {
    auto domain = domain_ids_.find(domains_.DomainOf(input.attribute));
    const int value = ValueId(input.value.ToString());
    if (domain != domain_ids_.end() && value >= 0) learn(domain->second, value);
  }
  for (std::size_t v = 0; v < views_.size(); ++v) {
    if (!views_[v].has_free_template) continue;
    for (std::size_t row = 0; row < views_[v].rows.size(); ++row) {
      obtain(static_cast<int>(v), static_cast<int>(row));
    }
  }
  while (!worklist.empty()) {
    const auto [domain, value] = worklist.back();
    worklist.pop_back();
    for (const auto& [v, p] : bound_positions_[domain]) {
      const View& view = views_[v];
      auto hit = view.postings[p].find(value);
      if (hit == view.postings[p].end()) continue;
      for (int row : hit->second) {
        if (obtained[v][row]) continue;
        for (const std::vector<int>& bound : view.bound) {
          const bool ready =
              std::all_of(bound.begin(), bound.end(), [&](int q) {
                return known.count(key(view.domain_of[q], view.rows[row][q])) >
                       0;
              });
          if (ready) {
            obtain(v, row);
            break;
          }
        }
      }
    }
  }

  // Input selections by attribute (several values of one attribute are
  // alternatives).
  std::map<std::string, std::unordered_set<int>> selections;
  for (const auto& input : query.inputs()) {
    selections[input.attribute].insert(ValueId(input.value.ToString()));
  }

  AnswerSet answer;
  for (const auto& connection : query.connections()) {
    // Natural join of the obtained tuples, view by view, with each view's
    // input selections applied up front.
    std::vector<std::string> schema;
    std::vector<std::vector<int>> partial = {{}};
    for (const std::string& name : connection.view_names()) {
      const int v = view_index_.at(name);
      const View& view = views_[v];
      std::vector<int> shared_left, shared_right, fresh;
      for (std::size_t p = 0; p < view.attributes.size(); ++p) {
        auto at = std::find(schema.begin(), schema.end(), view.attributes[p]);
        if (at != schema.end()) {
          shared_left.push_back(static_cast<int>(at - schema.begin()));
          shared_right.push_back(static_cast<int>(p));
        } else {
          fresh.push_back(static_cast<int>(p));
        }
      }
      std::map<std::vector<int>, std::vector<int>> by_key;
      for (std::size_t row = 0; row < view.rows.size(); ++row) {
        if (!obtained[v][row]) continue;
        bool selected = true;
        for (std::size_t p = 0; p < view.attributes.size() && selected; ++p) {
          auto s = selections.find(view.attributes[p]);
          if (s != selections.end() && s->second.count(view.rows[row][p]) == 0) {
            selected = false;
          }
        }
        if (!selected) continue;
        std::vector<int> k;
        for (int p : shared_right) k.push_back(view.rows[row][p]);
        by_key[k].push_back(static_cast<int>(row));
      }
      std::vector<std::vector<int>> next;
      for (const std::vector<int>& left : partial) {
        std::vector<int> k;
        for (int p : shared_left) k.push_back(left[p]);
        auto match = by_key.find(k);
        if (match == by_key.end()) continue;
        for (int row : match->second) {
          std::vector<int> joined = left;
          for (int p : fresh) joined.push_back(view.rows[row][p]);
          next.push_back(std::move(joined));
        }
      }
      for (int p : fresh) schema.push_back(view.attributes[p]);
      // Set semantics: drop duplicate partial rows before the next join.
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      partial = std::move(next);
      if (partial.empty()) break;
    }
    std::vector<int> out_positions;
    for (const std::string& output : query.outputs()) {
      auto at = std::find(schema.begin(), schema.end(), output);
      out_positions.push_back(at == schema.end()
                                  ? -1
                                  : static_cast<int>(at - schema.begin()));
    }
    for (const std::vector<int>& row : partial) {
      if (row.empty()) continue;
      Tuple tuple;
      for (int p : out_positions) tuple.push_back(p < 0 ? "" : values_[row[p]]);
      answer.insert(std::move(tuple));
    }
  }
  return answer;
}

AnswerSet ToAnswerSet(const Relation& answer) {
  AnswerSet out;
  for (const Row& row : answer.DecodedRows()) {
    Tuple tuple;
    for (const Value& value : row) tuple.push_back(value.ToString());
    out.insert(std::move(tuple));
  }
  return out;
}

}  // namespace ledger
