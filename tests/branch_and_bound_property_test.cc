// Property suite for branch-and-bound (DESIGN.md §13): across
// randomized MV3 specs with random hard constraints, bound + dominance
// pruning never discards the optimum — the search returns exactly the
// exhaustive solver's answer (score AND selection, the lex-smallest
// tie-break), bit-identically at CLOUDVIEW_THREADS=1 vs 8, under both
// default knobs and adversarial ones (tiny memo, shallow/deep splits).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/str_format.h"
#include "common/thread_pool.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/memo_search.h"
#include "core/optimizer/solver.h"
#include "engine/sales_generator.h"
#include "pricing/provider_registry.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

struct Fixture {
  explicit Fixture(size_t workload_size) {
    SalesConfig config;
    lattice = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
    MapReduceParams params;
    params.job_startup = Duration::FromSeconds(45);
    params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
    simulator = std::make_unique<MapReduceSimulator>(*lattice, params);
    pricing = std::make_unique<PricingModel>(
        ProviderRegistry::Global().Model("aws-2012").value()
            .WithComputeGranularity(BillingGranularity::kSecond));
    cost_model = std::make_unique<CloudCostModel>(*pricing);
    cluster = ClusterSpec{pricing->instances().Find("small").value(), 5};
    deployment.instance = cluster.instance;
    deployment.nb_instances = cluster.nodes;
    deployment.storage_period = Months::FromMilli(4);
    deployment.base_storage = StorageTimeline(lattice->fact_scan_size());
    deployment.maintenance_cycles = 0;

    Workload workload =
        MakePaperWorkload(*lattice).MoveValue().Prefix(workload_size);
    CandidateGenOptions options;
    options.max_candidates = 12;  // Exhaustive stays the ground truth.
    options.max_rows_fraction = 0.05;
    auto candidates = GenerateCandidates(*lattice, workload, *simulator,
                                         cluster, options)
                          .MoveValue();
    evaluator = std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(*lattice, workload, *simulator,
                                   cluster, *cost_model, deployment,
                                   std::move(candidates))
            .MoveValue());
  }

  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
  DeploymentSpec deployment;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

/// A randomized MV3 spec with optional hard caps the empty set always
/// meets (so feasibility is never vacuous) — same generator family as
/// the pareto property suite.
ObjectiveSpec RandomSpec(Rng& rng, const SelectionEvaluator& evaluator) {
  const SubsetEvaluation& baseline = evaluator.baseline();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.1 * static_cast<double>(rng.UniformInt(0, 10));
  if (rng.Bernoulli(0.7)) {
    spec.max_monthly_cost =
        baseline.cost.total().ScaleBy(1000, 4).MultipliedBy(
            1.0 + 0.5 * rng.UniformDouble());
  }
  if (rng.Bernoulli(0.5)) {
    DataSize total = DataSize::Zero();
    for (const ViewCandidate& candidate : evaluator.candidates()) {
      total += candidate.size;
    }
    spec.max_storage = DataSize::FromBytes(
        1 + total.bytes() / (1 + static_cast<int64_t>(rng.Uniform(8))));
  }
  if (rng.Bernoulli(0.3)) {
    spec.max_makespan = baseline.makespan;
  }
  return spec;
}

/// Random-but-legal knobs: pruning must stay exact whatever the split
/// depth and however contended (or absent) the shared memo is. The node
/// budget stays unlimited — a truncated search certifies a gap instead
/// of optimality, which is the other test below.
BranchAndBoundOptions RandomOptions(Rng& rng, SearchStats* stats) {
  BranchAndBoundOptions options;
  options.split_depth = static_cast<size_t>(rng.UniformInt(0, 10));
  options.memo_slots = size_t{1} << rng.UniformInt(3, 12);
  options.stats = stats;
  return options;
}

TEST(BranchAndBoundPropertyTest, PruningNeverDiscardsTheOptimum) {
  for (size_t workload_size : {5, 10}) {
    Fixture fixture(workload_size);
    ViewSelector selector(*fixture.evaluator);
    Rng rng(0xB0B0 + workload_size);
    size_t original = ThreadPool::Global().concurrency();
    for (int trial = 0; trial < 10; ++trial) {
      ObjectiveSpec spec = RandomSpec(rng, *fixture.evaluator);
      SCOPED_TRACE(StrFormat("workload=%zu trial=%d alpha=%.1f",
                             workload_size, trial, spec.alpha));
      SelectionResult exact =
          selector.Solve(spec, "exhaustive").MoveValue();

      SearchStats stats;
      BranchAndBoundOptions options = RandomOptions(rng, &stats);
      SCOPED_TRACE(StrFormat("split_depth=%zu memo_slots=%zu",
                             options.split_depth, options.memo_slots));
      for (size_t threads : {size_t{1}, size_t{8}}) {
        SCOPED_TRACE(StrFormat("threads=%zu", threads));
        ThreadPool::SetGlobalConcurrency(threads);
        EvaluationCache cache;
        SolverContext context(*fixture.evaluator, spec, &cache);
        SelectionResult bnb =
            SolveBranchAndBound(context, options).MoveValue();
        // Pruning is exact: score equality is not enough — the
        // selection itself must be the exhaustive lex-smallest subset.
        EXPECT_EQ(bnb.evaluation.selected, exact.evaluation.selected);
        EXPECT_EQ(bnb.evaluation.cost.total().micros(),
                  exact.evaluation.cost.total().micros());
        EXPECT_EQ(bnb.time.millis(), exact.time.millis());
        EXPECT_EQ(bnb.feasible, exact.feasible);
        EXPECT_TRUE(stats.proven_optimal);
        EXPECT_EQ(stats.gap_fraction, 0.0);
      }
    }
    ThreadPool::SetGlobalConcurrency(original);
  }
}

TEST(BranchAndBoundPropertyTest, TruncatedSearchesStayDeterministic) {
  Fixture fixture(10);
  Rng rng(0xC4F3);
  size_t original = ThreadPool::Global().concurrency();
  for (int trial = 0; trial < 6; ++trial) {
    ObjectiveSpec spec = RandomSpec(rng, *fixture.evaluator);
    SCOPED_TRACE(StrFormat("trial=%d alpha=%.1f", trial, spec.alpha));
    uint64_t budget = static_cast<uint64_t>(rng.UniformInt(1, 64));
    std::vector<SelectionResult> results;
    std::vector<SearchStats> stats;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      ThreadPool::SetGlobalConcurrency(threads);
      EvaluationCache cache;
      SolverContext context(*fixture.evaluator, spec, &cache);
      SearchStats run_stats;
      BranchAndBoundOptions options;
      options.split_depth = 4;
      options.max_nodes_per_job = budget;
      options.stats = &run_stats;
      results.push_back(SolveBranchAndBound(context, options).MoveValue());
      stats.push_back(run_stats);
    }
    EXPECT_EQ(results[0].evaluation.selected,
              results[1].evaluation.selected);
    EXPECT_EQ(results[0].evaluation.cost.total().micros(),
              results[1].evaluation.cost.total().micros());
    EXPECT_EQ(stats[0].nodes_expanded, stats[1].nodes_expanded);
    EXPECT_EQ(stats[0].proven_optimal, stats[1].proven_optimal);
    EXPECT_EQ(stats[0].gap_fraction, stats[1].gap_fraction);
    EXPECT_GE(stats[0].gap_fraction, 0.0);
    EXPECT_LE(stats[0].gap_fraction, 1.0);
    // An unproven run still returns a legal incumbent at least as good
    // as greedy's (the warm start is frozen into every job).
    if (!stats[0].proven_optimal) {
      EvaluationCache cache;
      SolverContext context(*fixture.evaluator, spec, &cache);
      SelectionResult greedy =
          SolverRegistry::Global().Find("greedy").value()->Solve(
              spec, context).MoveValue();
      SolverContext::Score greedy_score = context.ScoreOf(
          context.ProbeOf(
              fixture.evaluator->Evaluate(greedy.evaluation.selected)
                  .value()));
      SolverContext::Score bnb_score = context.ScoreOf(
          context.ProbeOf(
              fixture.evaluator->Evaluate(results[0].evaluation.selected)
                  .value()));
      EXPECT_LE(bnb_score, greedy_score);
    }
  }
  ThreadPool::SetGlobalConcurrency(original);
}

}  // namespace
}  // namespace cloudview
