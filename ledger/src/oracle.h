#ifndef LEDGER_ORACLE_H_
#define LEDGER_ORACLE_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "capability/source_view.h"
#include "planner/domain_map.h"
#include "planner/query.h"
#include "relational/relation.h"

namespace ledger {

/// One answer tuple, each value rendered with Value::ToString(), in the
/// query's output order — the form the serve protocol puts on the wire.
using Tuple = std::vector<std::string>;
using AnswerSet = std::set<Tuple>;

/// The Section 3 maximal obtainable answer (Prop. 3.2 / Thm. 5.1),
/// computed from the ground-truth extents without any part of the
/// program's planner, evaluator or sources:
///
///   1. every domain of the DomainMap starts with the query's input
///      values for the attributes in it;
///   2. a tuple of a view is obtained once some template's bound
///      positions all hold values known in their domains (an all-free
///      template obtains the whole extent), and an obtained tuple adds
///      each of its values to the domain of the attribute it sits in;
///   3. at the fixpoint each connection is the natural join of its views'
///      obtained tuples, selected on the inputs and projected onto the
///      outputs; the answer is the union over connections.
///
/// Step 2 runs as a worklist over per-position postings, so one answer
/// costs time linear in the obtained tuples, not in catalog depth.
class ObtainableOracle {
 public:
  ObtainableOracle(const std::vector<limcap::capability::SourceView>& views,
                   const std::map<std::string, limcap::relational::Relation>&
                       extents,
                   const limcap::planner::DomainMap& domains);

  AnswerSet Answer(const limcap::planner::Query& query) const;

 private:
  struct View {
    std::vector<std::string> attributes;
    std::vector<int> domain_of;  ///< per position
    /// Per template, the bound positions.
    std::vector<std::vector<int>> bound;
    bool has_free_template = false;
    std::vector<std::vector<int>> rows;  ///< value ids
    /// Per position: value id → rows holding it there (bound positions
    /// only; free positions never gate a tuple).
    std::vector<std::unordered_map<int, std::vector<int>>> postings;
  };

  int ValueId(const std::string& value) const;

  std::vector<View> views_;
  std::unordered_map<std::string, int> view_index_;
  std::unordered_map<std::string, int> domain_ids_;
  /// Domain id → (view, position) pairs whose attribute lives in it and
  /// is bound by some template.
  std::vector<std::vector<std::pair<int, int>>> bound_positions_;
  std::unordered_map<std::string, int> value_ids_;
  std::vector<std::string> values_;
  limcap::planner::DomainMap domains_;
};

/// Renders a relation's rows as sorted oracle tuples.
AnswerSet ToAnswerSet(const limcap::relational::Relation& answer);

}  // namespace ledger

#endif  // LEDGER_ORACLE_H_
