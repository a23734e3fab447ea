// Multi-objective strategies ("pareto-sweep", "pareto-genetic") and the
// hard-constraint contract: frontiers are feasible, mutually
// non-dominated and cover the single-objective optima; every registered
// solver honors max_monthly_cost / max_storage / max_makespan; kFrontier
// and multi-objective kCompareProviders dispatches round-trip.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"
#include "core/scenario.h"
#include "engine/sales_generator.h"
#include "pricing/provider_registry.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

bool IsMultiObjective(const std::string& name) {
  Result<const Solver*> solver = SolverRegistry::Global().Find(name);
  return solver.ok() && solver.value()->multi_objective();
}

class ParetoSolverTest : public ::testing::Test {
 protected:
  ParetoSolverTest() {
    SalesConfig config;
    lattice_ = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
    MapReduceParams params;
    params.job_startup = Duration::FromSeconds(45);
    params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
    simulator_ = std::make_unique<MapReduceSimulator>(*lattice_, params);
    pricing_ = std::make_unique<PricingModel>(
        ProviderRegistry::Global().Model("aws-2012").value()
            .WithComputeGranularity(BillingGranularity::kSecond));
    cost_model_ = std::make_unique<CloudCostModel>(*pricing_);
    cluster_ = ClusterSpec{pricing_->instances().Find("small").value(), 5};
    deployment_.instance = cluster_.instance;
    deployment_.nb_instances = cluster_.nodes;
    deployment_.storage_period = Months::FromMilli(4);
    deployment_.base_storage = StorageTimeline(lattice_->fact_scan_size());
    deployment_.maintenance_cycles = 0;

    Workload workload =
        MakePaperWorkload(*lattice_).MoveValue().Prefix(7);
    CandidateGenOptions options;
    options.max_candidates = 10;  // Exhaustive-anchor friendly.
    options.max_rows_fraction = 0.05;
    auto candidates = GenerateCandidates(*lattice_, workload, *simulator_,
                                         cluster_, options)
                          .MoveValue();
    evaluator_ = std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(*lattice_, workload, *simulator_,
                                   cluster_, *cost_model_, deployment_,
                                   std::move(candidates))
            .MoveValue());
  }

  /// The MultiScore a selection should carry, recomputed from scratch.
  MultiScore ExactMulti(const ObjectiveSpec& spec,
                        const std::vector<size_t>& selected) const {
    SolverContext context(*evaluator_, spec);
    SubsetEvaluation eval = evaluator_->Evaluate(selected).value();
    return context.MultiScoreOf(eval);
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
  DeploymentSpec deployment_;
  std::unique_ptr<SelectionEvaluator> evaluator_;
};

TEST_F(ParetoSolverTest, MultiObjectiveSolversAreRegistered) {
  for (const char* name : {"pareto-sweep", "pareto-genetic"}) {
    ASSERT_TRUE(SolverRegistry::Global().Contains(name)) << name;
    const Solver* solver = SolverRegistry::Global().Find(name).value();
    EXPECT_EQ(solver->name(), name);
    EXPECT_FALSE(solver->description().empty());
    EXPECT_TRUE(solver->multi_objective());
  }
  // Scalar strategies answer false (the default).
  EXPECT_FALSE(
      SolverRegistry::Global().Find("greedy").value()->multi_objective());
}

TEST_F(ParetoSolverTest, SelectionResultCarriesMultiScore) {
  ViewSelector selector(*evaluator_);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  SelectionResult result = selector.Solve(spec, "greedy").MoveValue();
  EXPECT_EQ(result.multi,
            ExactMulti(spec, result.evaluation.selected));
  EXPECT_TRUE(result.frontier.empty());  // Single-objective solver.
  // Monthly normalization: a 4-milli-month period scales the bill 250x.
  EXPECT_EQ(result.multi.monthly_cost,
            result.evaluation.cost.total().ScaleBy(1000, 4));
  EXPECT_EQ(result.multi.storage,
            result.evaluation.view_input.TotalSize());
}

TEST_F(ParetoSolverTest, FrontiersAreFeasibleNonDominatedAndCovering) {
  ViewSelector selector(*evaluator_);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  spec.max_monthly_cost = Money::FromDollars(500);

  for (const char* name : {"pareto-sweep", "pareto-genetic"}) {
    SCOPED_TRACE(name);
    SelectionResult result = selector.Solve(spec, name).MoveValue();
    ASSERT_FALSE(result.frontier.empty());
    EXPECT_TRUE(result.feasible);

    SolverContext context(*evaluator_, spec);
    for (const ParetoPoint& point : result.frontier) {
      // Scores are genuine: re-evaluating the subset reproduces them.
      SubsetEvaluation eval =
          evaluator_->Evaluate(point.selected).value();
      EXPECT_EQ(context.MultiScoreOf(eval), point.score);
      // Feasible under the scenario and the hard budget.
      EXPECT_TRUE(context.Feasible(context.ProbeOf(eval)));
      EXPECT_LE(point.score.monthly_cost, spec.max_monthly_cost);
      // Mutually non-dominated.
      for (const ParetoPoint& other : result.frontier) {
        EXPECT_FALSE(other.score.Dominates(point.score));
      }
    }

    // The frontier accounts for every single-objective optimum (the
    // sweep by construction, the genetic because its archive must
    // dominate-or-match them for this small instance).
    if (std::string(name) == "pareto-genetic") continue;
    ParetoFront cover(spec.frontier_epsilon);
    for (const ParetoPoint& point : result.frontier) cover.Insert(point);
    for (const std::string& single : SolverRegistry::Global().Names()) {
      if (IsMultiObjective(single) || single == "test-empty-set") {
        continue;
      }
      SelectionResult anchor = selector.Solve(spec, single).MoveValue();
      if (!anchor.feasible) continue;
      EXPECT_TRUE(cover.Covers(anchor.multi))
          << "frontier misses " << single;
    }
  }
}

TEST_F(ParetoSolverTest, SweepBestMatchesExhaustiveGroundTruth) {
  ViewSelector selector(*evaluator_);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV1BudgetLimit;
  spec.budget_limit = Money::FromCents(120);
  SelectionResult exact = selector.Solve(spec, "exhaustive").MoveValue();
  SelectionResult sweep =
      selector.Solve(spec, "pareto-sweep").MoveValue();
  // The sweep anchors on exhaustive, so its best can never score worse.
  SolverContext context(*evaluator_, spec);
  EXPECT_LE(context.ScoreOf(sweep.evaluation),
            context.ScoreOf(exact.evaluation));
  EXPECT_EQ(sweep.feasible, exact.feasible);
}

TEST_F(ParetoSolverTest, AllSolversHonorHardConstraints) {
  ViewSelector selector(*evaluator_);

  // Unconstrained reference: what the solvers would pick freely.
  ObjectiveSpec free_spec;
  free_spec.scenario = Scenario::kMV3Tradeoff;
  SelectionResult free_pick =
      selector.Solve(free_spec, "exhaustive").MoveValue();
  const SubsetEvaluation& baseline = evaluator_->baseline();

  // Constraints the empty set always satisfies (so they are
  // satisfiable), with max_storage binding against the free pick.
  ObjectiveSpec spec = free_spec;
  spec.max_storage = DataSize::FromBytes(
      free_pick.multi.storage.bytes() > 1
          ? free_pick.multi.storage.bytes() / 2
          : 1);
  spec.max_makespan = baseline.makespan;
  spec.max_monthly_cost =
      baseline.cost.total().ScaleBy(1000, 4) + Money::FromDollars(1);

  for (const std::string& name : SolverRegistry::Global().Names()) {
    if (name == "test-empty-set") continue;
    SCOPED_TRACE(name);
    SelectionResult result = selector.Solve(spec, name).MoveValue();
    EXPECT_TRUE(result.feasible);
    EXPECT_LE(result.evaluation.view_input.TotalSize(),
              spec.max_storage);
    EXPECT_LE(result.evaluation.makespan, spec.max_makespan);
    EXPECT_LE(result.multi.monthly_cost, spec.max_monthly_cost);
  }
}

TEST_F(ParetoSolverTest, InfeasibleHardConstraintIsReported) {
  ViewSelector selector(*evaluator_);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  // No subset can beat a 1 ms makespan.
  spec.max_makespan = Duration::FromMillis(1);
  for (const char* name : {"greedy", "pareto-sweep", "pareto-genetic"}) {
    SCOPED_TRACE(name);
    SelectionResult result = selector.Solve(spec, name).MoveValue();
    EXPECT_FALSE(result.feasible);
    if (IsMultiObjective(name)) {
      EXPECT_TRUE(result.frontier.empty());  // Nothing feasible to keep.
    }
  }
}

// --- Scenario dispatch ------------------------------------------------------

TEST(ParetoScenario, FrontierAndProviderSweep) {
  ExperimentConfig config;
  ASSERT_EQ(config.scenario.frontier_solver, "pareto-sweep");
  CloudScenario scenario =
      CloudScenario::Create(config.scenario).MoveValue();
  Workload workload = scenario.PaperWorkload().MoveValue();

  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  spec.max_monthly_cost = Money::FromDollars(400);

  FrontierRun run = scenario
                        .Dispatch({.kind = AdvisorRequestKind::kFrontier,
                                   .objective = spec,
                                   .inline_workload = &workload})
                        ->frontier;
  ASSERT_FALSE(run.frontier.empty());
  EXPECT_TRUE(run.best.feasible);
  // FrontierRun::frontier owns the points; the embedded result's copy
  // is cleared rather than duplicated.
  EXPECT_TRUE(run.best.frontier.empty());
  for (const ParetoPoint& point : run.frontier) {
    EXPECT_LE(point.score.monthly_cost, spec.max_monthly_cost);
  }

  // A single-objective solver degrades to a one-point frontier.
  FrontierRun single = scenario
                           .Dispatch({.kind = AdvisorRequestKind::kFrontier,
                                      .solver = "greedy",
                                      .objective = spec,
                                      .inline_workload = &workload})
                           ->frontier;
  ASSERT_EQ(single.frontier.size(), 1u);
  EXPECT_EQ(single.frontier[0].score, single.best.multi);

  // The provider sweep under a multi-objective solver keeps
  // sorted-name order, rebuilds each sheet and leaves each sheet's
  // frontier in its row's selection.
  std::vector<ProviderComparisonRow> rows =
      scenario
          .Dispatch({.kind = AdvisorRequestKind::kCompareProviders,
                     .solver = config.scenario.frontier_solver,
                     .objective = spec,
                     .inline_workload = &workload})
          ->providers;
  ASSERT_EQ(rows.size(), ProviderRegistry::Global().Names().size());
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].provider, rows[i].provider);
  }
  const ProviderComparisonRow* aws = nullptr;
  for (const ProviderComparisonRow& row : rows) {
    if (row.provider == "aws-2012") aws = &row;
    for (const ParetoPoint& point : row.run.selection.frontier) {
      EXPECT_LE(point.score.monthly_cost, spec.max_monthly_cost);
    }
  }

  // A sheet's row is exactly a kFrontier solve on a scenario built on
  // that sheet as published.
  ASSERT_NE(aws, nullptr);
  ScenarioConfig aws_config = config.scenario;
  aws_config.provider = "aws-2012";
  aws_config.pricing_overrides = {};
  CloudScenario aws_scenario =
      CloudScenario::Create(aws_config).MoveValue();
  FrontierRun direct =
      aws_scenario
          .Dispatch({.kind = AdvisorRequestKind::kFrontier,
                     .objective = spec,
                     .inline_workload = &workload})
          ->frontier;
  const std::vector<ParetoPoint>& swept = aws->run.selection.frontier;
  ASSERT_FALSE(swept.empty());
  ASSERT_EQ(swept.size(), direct.frontier.size());
  for (size_t i = 0; i < swept.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(swept[i].score, direct.frontier[i].score);
    EXPECT_EQ(swept[i].selected, direct.frontier[i].selected);
    EXPECT_EQ(swept[i].origin, direct.frontier[i].origin);
    EXPECT_EQ(swept[i].architecture, direct.frontier[i].architecture);
  }
}

}  // namespace
}  // namespace cloudview
