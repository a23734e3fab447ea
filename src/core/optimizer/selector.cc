#include "core/optimizer/selector.h"

#include <string>

#include "common/str_format.h"
#include "core/optimizer/solver.h"

namespace cloudview {

const char* ToString(Scenario scenario) {
  switch (scenario) {
    case Scenario::kMV1BudgetLimit:
      return "MV1 (budget limit)";
    case Scenario::kMV2TimeLimit:
      return "MV2 (time limit)";
    case Scenario::kMV3Tradeoff:
      return "MV3 (tradeoff)";
  }
  return "?";
}

Status ValidateObjective(const ObjectiveSpec& spec) {
  if (spec.alpha < 0.0 || spec.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be within [0, 1]");
  }
  return Status::OK();
}

double ViewSelector::TradeoffObjective(const ObjectiveSpec& spec,
                                       const SubsetEvaluation& eval) const {
  SolverContext context(*evaluator_, spec);
  return context.TradeoffObjective(eval);
}

Result<SelectionResult> ViewSelector::Solve(const ObjectiveSpec& spec,
                                            std::string_view solver) const {
  CV_RETURN_IF_ERROR(ValidateObjective(spec));
  CV_ASSIGN_OR_RETURN(const Solver* strategy,
                      SolverRegistry::Global().Find(solver));
  if (evaluator_->num_candidates() > strategy->max_candidates()) {
    // Degrade with a clear chain instead of a bare failure deep inside
    // the strategy: name the wall and the strategy that scales past it.
    return Status::InvalidArgument(StrFormat(
        "solver '%s' supports at most %zu candidates, got %zu; "
        "\"branch-and-bound\" solves large instances exactly "
        "(DESIGN.md §13)",
        std::string(solver).c_str(), strategy->max_candidates(),
        evaluator_->num_candidates()));
  }
  SolverContext context(
      *evaluator_, spec,
      external_cache_ != nullptr ? external_cache_ : &cache_);
  CV_ASSIGN_OR_RETURN(SelectionResult result,
                      strategy->Solve(spec, context));
  result.solver = std::string(solver);
  return result;
}

}  // namespace cloudview
