// CloudScenario: one fully-wired deployment — dataset, lattice, simulated
// cluster, pricing — against which workloads are costed and view sets
// selected. This is the library's main entry point.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/lattice.h"
#include "common/result.h"
#include "core/advisor.h"
#include "core/cost/cloud_cost_model.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/selector.h"
#include "core/optimizer/temporal_planner.h"
#include "engine/cluster.h"
#include "engine/sales_generator.h"
#include "pricing/pricing_model.h"
#include "workload/ssb.h"
#include "workload/workload.h"

namespace cloudview {

/// \brief Everything that defines a deployment.
struct ScenarioConfig {
  /// Schema family: "sales" builds the paper's retail star from
  /// `sales`; "ssb" builds the Star Schema Benchmark lattice from
  /// `ssb` (workload/ssb.h — the serving benchmarks' smoke config).
  std::string schema = "sales";
  /// Dataset shape (defaults: the paper's 10 GB experimental subset).
  SalesConfig sales;
  /// SSB shape, read when schema == "ssb".
  SsbConfig ssb;
  /// Simulated-cluster timing constants.
  MapReduceParams mapreduce;
  /// CSP selection by ProviderRegistry name (see
  /// ProviderRegistry::Global().Names()).
  std::string provider = "aws-2012";
  /// Billing-semantic overrides applied to the registered sheet.
  /// Default: per-second compute billing (the Section 6 budgets are
  /// sub-dollar; see DESIGN.md §5.4). Examples reproducing the worked
  /// examples clear the granularity override to get the sheet's native
  /// started-hour billing.
  PricingOverrides pricing_overrides =
      PricingOverrides::ComputeGranularityOnly(BillingGranularity::kSecond);
  /// Rented configuration (paper Section 6: five identical VMs).
  std::string instance_name = "small";
  /// Create() rejects values outside [1, kMaxInstances].
  int64_t nb_instances = 5;
  /// Storage period. When `prorate_storage` is true the period is derived
  /// from the workload's no-view makespan (experiment-session billing);
  /// otherwise `storage_period` is used as-is. Create() rejects a
  /// `storage_period` outside [1 milli-month, kMaxStoragePeriod].
  bool prorate_storage = true;
  Months storage_period = Months::FromMonths(1);
  /// Candidate generation knobs.
  CandidateGenOptions candidates;
  /// Maintenance rounds billed within the period (0 = read-only period);
  /// Create() rejects values outside [0, kMaxMaintenanceCycles].
  int64_t maintenance_cycles = 0;
  /// Bill all compute of a run as one rental session (round the busy
  /// total up once instead of per activity).
  bool single_compute_session = false;
  /// Multi-objective strategy a kFrontier request runs when it does not
  /// name one ("pareto-sweep" or "pareto-genetic"; DESIGN.md §10).
  std::string frontier_solver = "pareto-sweep";
};

/// \brief Upper bound on ScenarioConfig::maintenance_cycles. A million
/// rounds in one billing period is already one every few seconds of a
/// month; the bound keeps cycles x per-round bill inside Money's int64
/// micro-dollars for any per-round bill under ~$9M.
inline constexpr int64_t kMaxMaintenanceCycles = 1'000'000;

/// \brief Upper bound on a wire workload query's `frequency` (runs per
/// billing period); ResolveWorkload refuses larger values. The binding
/// term is the egress volume, sum of frequency x result bytes, held in
/// an int64 DataSize: a 1 MiB request line holds at most ~52k queries,
/// and the largest result of the wire schemas (the SSB base cuboid) is
/// ~3.1 GB, so at the bound the volume stays under ~1.7e18 of 9.2e18
/// bytes. Busy time and every bill have more room. Before the bound, a
/// line of base-cuboid queries at frequency 6e4 already wrapped it.
inline constexpr uint64_t kMaxQueryFrequency = 10'000;

/// \brief Upper bound on ScenarioConfig::nb_instances. The binding term
/// is the compute bill, busy time x hourly rate x instances: every
/// instance bills the whole busy time, and with many instances each
/// job's fixed startup (45 s) dominates it. A 1 MiB line of SSB
/// base-cuboid queries at kMaxQueryFrequency bills ~6.7e12 micro-dollars
/// per instance on the dearest instance of any sheet (aws-2012 xlarge,
/// $0.96/h), so at the bound one period bills ~6.7e15 and a timeline of
/// kMaxTimelinePeriods periods, all spiked by kMaxSpikeFactor, ~3.2e18
/// of int64's 9.2e18. Before the bound, 1e15 instances wrapped the bill
/// of a default solve.
inline constexpr int64_t kMaxInstances = 1'000;

/// \brief Upper bound on ScenarioConfig::storage_period and on a wire
/// timeline's period length (ten years). Storage bills volume x rate x
/// months; all SSB cuboids together hold ~110 GB and the dearest sheet
/// rate is $0.14/GB-month, so even 10^4 stored copies of the whole
/// lattice bill ~1.8e13 micro-dollars over 120 months, and a
/// kMaxTimelinePeriods timeline ~2.2e15, far inside int64. Before the
/// bound, 9e15 months wrapped the storage bill negative.
inline constexpr Months kMaxStoragePeriod = Months::FromMonths(120);

/// \brief Upper bound on a wire timeline's `num_periods` (ten years of
/// monthly periods). WorkloadTimeline::Generate builds every period up
/// front, each a copy of the request's workload, and the planner solves
/// up to one selection per period, so the count bounds both memory and
/// the summed bill (see kMaxInstances).
inline constexpr int64_t kMaxTimelinePeriods = 120;

/// \brief Upper bound on the factor a timeline's seasonal spikes can
/// raise a frequency by: the product of (1 + amplitude) over its
/// seasonal-spike drifts, which all fire in one period when their
/// seasons align. kMaxQueryFrequency leaves the egress volume ~5x room;
/// a 4x spike keeps ~1.3x of it. Before the bound, an amplitude of 1e15
/// wrapped the busy time and aborted the server.
inline constexpr double kMaxSpikeFactor = 4.0;

/// \brief A wired-up deployment; build once, run many workloads.
class CloudScenario {
 public:
  static Result<CloudScenario> Create(ScenarioConfig config);

  /// \brief The one way to run an advisor operation (core/advisor.h):
  /// a tagged AdvisorRequest in, a tagged AdvisorResponse (payload +
  /// ResponseMeta telemetry) out. `warm` (optional) is a session's
  /// warm-start slot — a matching slot skips candidate generation and
  /// evaluator construction and accumulates cache telemetry across
  /// requests; the caller serializes access to it.
  ///
  ///   scenario.Dispatch({.solver = "greedy", .objective = spec,
  ///                      .inline_workload = &workload})->solve
  Result<AdvisorResponse> Dispatch(const AdvisorRequest& request,
                                   AdvisorWarmSlot* warm = nullptr) const;

  const ScenarioConfig& config() const { return config_; }
  const CubeLattice& lattice() const { return *lattice_; }
  const MapReduceSimulator& simulator() const { return *simulator_; }
  const ClusterSpec& cluster() const { return cluster_; }
  const PricingModel& pricing() const { return *pricing_; }
  const CloudCostModel& cost_model() const { return *cost_model_; }

  /// \brief The paper's 10-query workload on this scenario's lattice.
  /// Fails on non-"sales" schemas; prefer DefaultWorkload().
  Result<Workload> PaperWorkload() const;

  /// \brief The schema family's canonical workload: the paper's
  /// 10-query mix ("sales") or the SSB 13-query flights ("ssb") — what
  /// a WorkloadSpec of kind "default" resolves to.
  Result<Workload> DefaultWorkload() const;

  /// \brief Deployment parameters for `workload` (storage timeline,
  /// period, cluster) — exposed for custom evaluations.
  Result<DeploymentSpec> MakeDeployment(const Workload& workload,
                                        const ClusterSpec& cluster) const;

  /// \brief No-view workload cost/time on an alternative cluster (the
  /// MV2 scale-up arm rents bigger instances instead of materializing).
  Result<SubsetEvaluation> EvaluateWithoutViews(
      const Workload& workload, const ClusterSpec& cluster) const;

  /// \brief Cheapest instance type (same node count) whose no-view
  /// processing time meets `limit`; NotFound when none does.
  Result<ClusterSpec> CheapestClusterMeeting(
      const Workload& workload, Duration limit) const;

 private:
  explicit CloudScenario(ScenarioConfig config)
      : config_(std::move(config)) {}

  // --- Dispatch impl bodies (core/advisor.cc) --------------------------

  /// The request's workload: inline pointer first, then the
  /// WorkloadSpec ("default" -> DefaultWorkload(), "queries" ->
  /// validated verbatim list).
  Result<Workload> ResolveWorkload(const AdvisorRequest& request) const;
  /// The request's timeline: inline pointer first, then generated from
  /// the TimelineSpec over `base`.
  Result<WorkloadTimeline> ResolveTimeline(const AdvisorRequest& request,
                                           const Workload& base) const;
  /// The kSolve body (candidates -> evaluator -> solver), optionally
  /// reusing / repopulating a session warm slot and reporting cache
  /// telemetry into `meta`.
  Result<SolveRun> SolveImpl(const Workload& workload,
                             const ObjectiveSpec& spec,
                             std::string_view solver,
                             const ClusterSpec* cluster_override,
                             AdvisorWarmSlot* warm,
                             ResponseMeta* meta) const;

  ScenarioConfig config_;
  // Heap-held so CloudScenario stays movable while internal references
  // (simulator -> lattice, cost model -> pricing) stay stable.
  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
};

}  // namespace cloudview

