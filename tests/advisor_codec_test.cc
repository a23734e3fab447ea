// Advisor JSON codec: every request variant round-trips
// field-for-field; responses write -> parse -> write idempotently;
// malformed and unknown-field inputs come back InvalidArgument with
// actionable messages (the offending field and the accepted set).

#include "serving/advisor_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"

namespace cloudview {
namespace {

AdvisorRequest RoundTrip(const AdvisorRequest& request) {
  const std::string text = WriteJson(AdvisorRequestToJson(request));
  Result<AdvisorRequest> parsed = ParseAdvisorRequestText(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  // Serialized forms must agree exactly — the serializer is canonical,
  // so textual equality pins every field the wire form carries.
  EXPECT_EQ(WriteJson(AdvisorRequestToJson(parsed.value())), text);
  return parsed.MoveValue();
}

std::string ExpectRejected(const std::string& text) {
  Result<AdvisorRequest> parsed = ParseAdvisorRequestText(text);
  EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
  EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  return parsed.ok() ? std::string() : parsed.status().message();
}

TEST(AdvisorCodec, SolveRequestRoundTrips) {
  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kSolve;
  request.session = "tenant-3";
  request.solver = "branch-and-bound";
  request.deadline_ms = 250;
  request.objective.scenario = Scenario::kMV1BudgetLimit;
  request.objective.budget_limit = Money::FromMicros(1234567);
  request.workload.kind = "queries";
  request.workload.queries = {QuerySpec{"q1", 3, 40},
                              QuerySpec{"q2", 7, 1}};
  AdvisorRequest parsed = RoundTrip(request);
  EXPECT_EQ(parsed.kind, AdvisorRequestKind::kSolve);
  EXPECT_EQ(parsed.session, "tenant-3");
  EXPECT_EQ(parsed.solver, "branch-and-bound");
  EXPECT_EQ(parsed.deadline_ms, 250);
  EXPECT_EQ(parsed.objective.budget_limit.micros(), 1234567);
  ASSERT_EQ(parsed.workload.queries.size(), 2u);
  EXPECT_EQ(parsed.workload.queries[1].target, 7u);
  EXPECT_EQ(parsed.workload.queries[0].frequency, 40u);
}

TEST(AdvisorCodec, FrontierRequestRoundTrips) {
  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kFrontier;
  request.solver = "pareto-genetic";
  request.objective.frontier_epsilon = 0.03;
  AdvisorRequest parsed = RoundTrip(request);
  EXPECT_EQ(parsed.kind, AdvisorRequestKind::kFrontier);
  EXPECT_EQ(parsed.objective.frontier_epsilon, 0.03);
}

TEST(AdvisorCodec, TimelineRequestRoundTrips) {
  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kTimeline;
  request.timeline.num_periods = 6;
  request.timeline.period_length = Months::FromMilli(1500);
  request.timeline.seed = 99;
  DriftSpec drift;
  drift.kind = "seasonal-spike";
  drift.season_length = 3;
  drift.amplitude = 0.75;
  request.timeline.drifts.push_back(drift);
  request.policy = ReselectPolicy::EveryK(2);
  AdvisorRequest parsed = RoundTrip(request);
  EXPECT_EQ(parsed.timeline.num_periods, 6);
  EXPECT_EQ(parsed.timeline.period_length.milli(), 1500);
  EXPECT_EQ(parsed.timeline.seed, 99u);
  ASSERT_EQ(parsed.timeline.drifts.size(), 1u);
  EXPECT_EQ(parsed.timeline.drifts[0].kind, "seasonal-spike");
  EXPECT_EQ(parsed.timeline.drifts[0].season_length, 3);
  EXPECT_EQ(parsed.policy.kind, ReselectPolicy::EveryK(2).kind);
  EXPECT_EQ(parsed.policy.every_k, 2);
}

TEST(AdvisorCodec, CompareProvidersRequestRoundTrips) {
  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kCompareProviders;
  request.objective.scenario = Scenario::kMV2TimeLimit;
  request.objective.time_limit = Duration::FromMillis(7200000);
  AdvisorRequest parsed = RoundTrip(request);
  EXPECT_EQ(parsed.kind, AdvisorRequestKind::kCompareProviders);
  EXPECT_EQ(parsed.objective.time_limit.millis(), 7200000);
}

TEST(AdvisorCodec, ComparePoliciesRequestRoundTrips) {
  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kComparePolicies;
  request.timeline.num_periods = 4;
  request.policies = {ReselectPolicy::Static(), ReselectPolicy::EveryK(3),
                      ReselectPolicy::OnDrift(0.2)};
  AdvisorRequest parsed = RoundTrip(request);
  ASSERT_EQ(parsed.policies.size(), 3u);
  EXPECT_EQ(parsed.policies[1].every_k, 3);
  EXPECT_EQ(parsed.policies[2].drift_threshold, 0.2);
}

TEST(AdvisorCodec, UnknownTopLevelFieldNamesItselfAndAcceptedSet) {
  const std::string message =
      ExpectRejected(R"({"kind":"solve","sovler":"greedy"})");
  EXPECT_NE(message.find("sovler"), std::string::npos) << message;
  EXPECT_NE(message.find("accepted"), std::string::npos) << message;
  EXPECT_NE(message.find("solver"), std::string::npos) << message;
}

TEST(AdvisorCodec, UnknownNestedFieldRejected) {
  const std::string message = ExpectRejected(
      R"({"kind":"solve","objective":{"budget_micros":5}})");
  EXPECT_NE(message.find("budget_micros"), std::string::npos) << message;
  EXPECT_NE(message.find("budget_limit_micros"), std::string::npos)
      << message;
}

TEST(AdvisorCodec, BadKindListsAccepted) {
  const std::string message = ExpectRejected(R"({"kind":"slove"})");
  EXPECT_NE(message.find("slove"), std::string::npos);
  EXPECT_NE(message.find("compare-providers"), std::string::npos);
}

TEST(AdvisorCodec, OutOfRangeValuesRejected) {
  ExpectRejected(R"({"kind":"solve","deadline_ms":-1})");
  ExpectRejected(
      R"({"kind":"solve","workload":{"kind":"queries",)"
      R"("queries":[{"target":-2}]}})");
  ExpectRejected(
      R"({"kind":"solve","workload":{"kind":"queries",)"
      R"("queries":[{"frequency":-1}]}})");
}

// Each range is checked in one place. The ones core/ owns (README,
// "Request ranges") parse, and the scenario refuses the request when it
// runs.
TEST(AdvisorCodec, CoreOwnedRangesRefusedWhenRun) {
  CloudScenario scenario = CloudScenario::Create({}).MoveValue();
  for (const char* text :
       {R"({"kind":"solve","objective":{"alpha":1.5}})",
        R"({"kind":"solve","objective":{"scenario":"mv1","alpha":-0.5}})",
        R"({"kind":"timeline","objective":{"alpha":1.5},)"
        R"("timeline":{"num_periods":2}})",
        R"({"kind":"timeline","timeline":{"num_periods":2},)"
        R"("policy":{"kind":"every-k","k":0}})",
        R"({"kind":"solve","workload":{"kind":"nope"}})"}) {
    SCOPED_TRACE(text);
    Result<AdvisorRequest> parsed = ParseAdvisorRequestText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    Status run = scenario.Dispatch(parsed.value()).status();
    EXPECT_TRUE(run.IsInvalidArgument()) << run;
  }
}

// A target above the CuboidId range used to be narrowed to uint32 before
// any check, so 2^32 + 5 was answered as cuboid 5.
TEST(AdvisorCodec, TargetAboveCuboidIdRangeRejected) {
  const std::string message = ExpectRejected(
      R"({"kind":"solve","workload":{"kind":"queries",)"
      R"("queries":[{"name":"q","target":4294967301,"frequency":1}]}})");
  EXPECT_NE(message.find("workload.queries[i].target"), std::string::npos)
      << message;
  ExpectRejected(
      R"({"kind":"solve","workload":{"kind":"queries",)"
      R"("queries":[{"name":"q","target":4294967296,"frequency":1}]}})");
  // The top of the range still parses (the scenario then checks it
  // against its lattice).
  Result<AdvisorRequest> top = ParseAdvisorRequestText(
      R"({"kind":"solve","workload":{"kind":"queries",)"
      R"("queries":[{"name":"q","target":4294967295,"frequency":1}]}})");
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(top->workload.queries[0].target, 4294967295u);
}

TEST(AdvisorCodec, WrongTypesRejected) {
  ExpectRejected(R"({"kind":"solve","deadline_ms":"fast"})");
  ExpectRejected(R"({"kind":"solve","objective":[1]})");
  ExpectRejected(R"({"kind":"solve","workload":{"queries":{}}})");
  ExpectRejected(R"({"kind":"solve","objective":{"scenario":3}})");
}

TEST(AdvisorCodec, ScenarioConfigParses) {
  Result<JsonValue> json = ParseJson(
      R"({"schema":"ssb","provider":"gigacloud","instance_name":"g-small",
          "nb_instances":3,"frontier_solver":"pareto-genetic",
          "candidates":{"max_candidates":20,"max_rows_fraction":0.05}})");
  ASSERT_TRUE(json.ok()) << json.status();
  Result<ScenarioConfig> config = ParseScenarioConfig(json.value());
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config.value().schema, "ssb");
  EXPECT_EQ(config.value().provider, "gigacloud");
  EXPECT_EQ(config.value().instance_name, "g-small");
  EXPECT_EQ(config.value().nb_instances, 3);
  EXPECT_EQ(config.value().frontier_solver, "pareto-genetic");
  EXPECT_EQ(config.value().candidates.max_candidates, 20u);
  EXPECT_EQ(config.value().candidates.max_rows_fraction, 0.05);
}

TEST(AdvisorCodec, ScenarioConfigRejectsBadValues) {
  for (const char* text :
       {R"({"pricing":"shim"})", R"({"nb_instances":"5"})",
        R"({"candidates":{"max_candidates":-1}})", R"({"candidates":[]})"}) {
    Result<JsonValue> json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << json.status();
    Result<ScenarioConfig> config = ParseScenarioConfig(json.value());
    EXPECT_FALSE(config.ok()) << "accepted: " << text;
    EXPECT_TRUE(config.status().IsInvalidArgument());
  }
  // The scenario owns these ranges: the config parses, and the scenario
  // refuses it when created or, for candidate knobs, at its first solve.
  for (const char* text :
       {R"({"schema":"tpch"})", R"({"nb_instances":0})",
        R"({"candidates":{"max_candidates":0}})"}) {
    SCOPED_TRACE(text);
    Result<ScenarioConfig> config =
        ParseScenarioConfig(ParseJson(text).value());
    ASSERT_TRUE(config.ok()) << config.status();
    Result<CloudScenario> scenario = CloudScenario::Create(config.value());
    Status status = scenario.ok() ? scenario->Dispatch({}).status()
                                  : scenario.status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status;
  }
}

// Real payloads for every response kind, written -> parsed -> written
// again: the writer must be deterministic and the document
// self-consistent (this is the wire format clients archive).
class CodecResponseTest : public ::testing::Test {
 protected:
  static CloudScenario MakeScenario() {
    ScenarioConfig config;
    config.candidates.max_candidates = 6;
    config.candidates.max_rows_fraction = 0.05;
    return CloudScenario::Create(config).MoveValue();
  }

  static void ExpectIdempotent(const AdvisorResponse& response) {
    const std::string once = WriteJson(AdvisorResponseToJson(response));
    Result<JsonValue> parsed = ParseJson(once);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(WriteJson(parsed.value()), once);
  }
};

TEST_F(CodecResponseTest, EveryResponseKindWritesIdempotently) {
  CloudScenario scenario = MakeScenario();

  AdvisorRequest solve;
  solve.kind = AdvisorRequestKind::kSolve;
  Result<AdvisorResponse> response = scenario.Dispatch(solve);
  ASSERT_TRUE(response.ok()) << response.status();
  JsonValue solve_json = AdvisorResponseToJson(response.value());
  EXPECT_NE(solve_json.Find("meta"), nullptr);
  ASSERT_NE(solve_json.Find("solve"), nullptr);
  EXPECT_NE(solve_json.Find("solve")->Find("selection"), nullptr);
  ExpectIdempotent(response.value());

  AdvisorRequest frontier;
  frontier.kind = AdvisorRequestKind::kFrontier;
  response = scenario.Dispatch(frontier);
  ASSERT_TRUE(response.ok()) << response.status();
  ExpectIdempotent(response.value());

  AdvisorRequest timeline;
  timeline.kind = AdvisorRequestKind::kTimeline;
  timeline.timeline.num_periods = 2;
  response = scenario.Dispatch(timeline);
  ASSERT_TRUE(response.ok()) << response.status();
  ExpectIdempotent(response.value());

  AdvisorRequest policies;
  policies.kind = AdvisorRequestKind::kComparePolicies;
  policies.timeline.num_periods = 2;
  policies.policies = {ReselectPolicy::Static(), ReselectPolicy::EveryK(1)};
  response = scenario.Dispatch(policies);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(AdvisorResponseToJson(response.value())
                  .Find("policies")
                  ->is_array());
  ExpectIdempotent(response.value());

  AdvisorRequest providers;
  providers.kind = AdvisorRequestKind::kCompareProviders;
  response = scenario.Dispatch(providers);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(AdvisorResponseToJson(response.value())
                  .Find("providers")
                  ->is_array());
  ExpectIdempotent(response.value());
}


// --- Golden wire bytes ------------------------------------------------------
// The round-trip and idempotence checks above use the same codec on both
// sides, so a renamed, reordered or re-typed key passes them. These pin
// the bytes themselves.

// Every request wire field set to a non-default value, across the two
// kinds that carry the kind-dependent members (timeline + policies for
// compare-policies, policy for timeline), plus the all-defaults request.
std::vector<AdvisorRequest> GoldenRequests() {
  AdvisorRequest full;
  full.kind = AdvisorRequestKind::kComparePolicies;
  full.session = "tenant-7";
  full.solver = "greedy";
  full.deadline_ms = 250;
  ObjectiveSpec& objective = full.objective;
  objective.scenario = Scenario::kMV1BudgetLimit;
  objective.budget_limit = Money::FromMicros(1234567);
  objective.time_limit = Duration::FromMillis(7200000);
  objective.alpha = 0.25;
  objective.time_includes_materialization = false;
  objective.mv3_reference_time = Duration::FromMillis(3600000);
  objective.mv3_reference_cost = Money::FromMicros(990000);
  objective.max_monthly_cost = Money::FromMicros(5000000);
  objective.max_storage = DataSize::FromBytes(int64_t{1} << 30);
  objective.max_makespan = Duration::FromMillis(86400000);
  objective.frontier_epsilon = 0.03;
  objective.architectures = {
      {.name = "solo"},
      {.name = "pair",
       .groups = {{.name = "primary",
                   .replicas = 2,
                   .zones = 2,
                   .plan = PurchasePlan::kSpot},
                  {.name = "standby",
                   .replicas = 1,
                   .zones = 1,
                   .plan = PurchasePlan::kReserved}},
       .durability = DurabilityTier::kRegional}};
  objective.architecture_inner_solver = "greedy";
  full.workload.kind = "queries";
  full.workload.queries = {QuerySpec{"q1", 3, 40}, QuerySpec{"q2", 7, 1}};
  full.timeline.num_periods = 6;
  full.timeline.period_length = Months::FromMilli(1500);
  full.timeline.seed = 99;
  full.timeline.drifts = {
      {.kind = "frequency-decay", .factor = 0.8, .floor = 2},
      {.kind = "seasonal-spike",
       .season_length = 3,
       .phase = 1,
       .amplitude = 0.75},
      {.kind = "query-churn", .rate = 0.15, .cuboid_skew = 1.25},
      {.kind = "dataset-growth", .growth_per_period = 0.05}};
  full.policies = {ReselectPolicy::Static(), ReselectPolicy::EveryK(3),
                   ReselectPolicy::OnDrift(0.35)};

  AdvisorRequest timeline;
  timeline.kind = AdvisorRequestKind::kTimeline;
  timeline.policy = ReselectPolicy::OnDrift(0.4);

  return {full, timeline, AdvisorRequest{}};
}

TEST(AdvisorCodecGolden, RequestBytesArePinned) {
  const std::vector<std::string> expected = {
      R"({"kind":"compare-policies","session":"tenant-7","solver":"greedy",)"
      R"("objective":{"scenario":"mv1","budget_limit_micros":1234567,)"
      R"("time_limit_ms":7200000,"alpha":0.25,)"
      R"("time_includes_materialization":false,)"
      R"("mv3_reference_time_ms":3600000,"mv3_reference_cost_micros":990000,)"
      R"("max_monthly_cost_micros":5000000,"max_storage_bytes":1073741824,)"
      R"("max_makespan_ms":86400000,"frontier_epsilon":0.03,)"
      R"("architectures":[{"name":"solo","durability":"local"},)"
      R"({"name":"pair","durability":"regional","groups":[{"name":"primary",)"
      R"("replicas":2,"zones":2,"plan":"spot"},{"name":"standby",)"
      R"("replicas":1,"zones":1,"plan":"reserved"}]}],)"
      R"("architecture_inner_solver":"greedy"},"workload":{"kind":"queries",)"
      R"("queries":[{"name":"q1","target":3,"frequency":40},{"name":"q2",)"
      R"("target":7,"frequency":1}]},"timeline":{"num_periods":6,)"
      R"("period_length_milli_months":1500,"seed":99,)"
      R"("drifts":[{"kind":"frequency-decay","factor":0.8,"floor":2,)"
      R"("season_length":4,"phase":0,"amplitude":0.5,"rate":0.1,)"
      R"("cuboid_skew":0.5,"growth_per_period":0.02},)"
      R"({"kind":"seasonal-spike","factor":0.9,"floor":1,"season_length":3,)"
      R"("phase":1,"amplitude":0.75,"rate":0.1,"cuboid_skew":0.5,)"
      R"("growth_per_period":0.02},{"kind":"query-churn","factor":0.9,)"
      R"("floor":1,"season_length":4,"phase":0,"amplitude":0.5,"rate":0.15,)"
      R"("cuboid_skew":1.25,"growth_per_period":0.02},)"
      R"({"kind":"dataset-growth","factor":0.9,"floor":1,"season_length":4,)"
      R"("phase":0,"amplitude":0.5,"rate":0.1,"cuboid_skew":0.5,)"
      R"("growth_per_period":0.05}]},"policies":[{"kind":"static"},)"
      R"({"kind":"every-k","k":3},{"kind":"on-drift","threshold":0.35}],)"
      R"("deadline_ms":250})",
      R"({"kind":"timeline","objective":{"scenario":"mv3",)"
      R"("budget_limit_micros":0,"time_limit_ms":0,"alpha":0.5,)"
      R"("time_includes_materialization":true,"mv3_reference_time_ms":0,)"
      R"("mv3_reference_cost_micros":0,"max_monthly_cost_micros":0,)"
      R"("max_storage_bytes":0,"max_makespan_ms":0,)"
      R"("frontier_epsilon":1e-06},"workload":{"kind":"default"},)"
      R"("timeline":{"num_periods":12,"period_length_milli_months":1000,)"
      R"("seed":7},"policy":{"kind":"on-drift","threshold":0.4}})",
      R"({"kind":"solve","objective":{"scenario":"mv3",)"
      R"("budget_limit_micros":0,"time_limit_ms":0,"alpha":0.5,)"
      R"("time_includes_materialization":true,"mv3_reference_time_ms":0,)"
      R"("mv3_reference_cost_micros":0,"max_monthly_cost_micros":0,)"
      R"("max_storage_bytes":0,"max_makespan_ms":0,)"
      R"("frontier_epsilon":1e-06},"workload":{"kind":"default"}})",
  };
  std::vector<AdvisorRequest> requests = GoldenRequests();
  ASSERT_EQ(requests.size(), expected.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    const std::string text = WriteJson(AdvisorRequestToJson(requests[i]));
    EXPECT_EQ(text, expected[i]);
    // The pinned bytes parse back to the same request.
    Result<AdvisorRequest> parsed = ParseAdvisorRequestText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(WriteJson(AdvisorRequestToJson(parsed.value())), text);
  }
}

// One response of each kind on a 3-candidate sales scenario. wall_ms is
// the only field that varies from run to run; it is zeroed before the
// bytes are compared.
TEST_F(CodecResponseTest, EveryResponseKindBytesArePinned) {
  ScenarioConfig config;
  config.candidates.max_candidates = 3;
  config.candidates.max_rows_fraction = 0.05;
  CloudScenario scenario = CloudScenario::Create(config).MoveValue();
  const std::vector<std::pair<AdvisorRequest, std::string>> cases = {
      {AdvisorRequest{.kind = AdvisorRequestKind::kSolve},
        R"({"kind":"solve","meta":{"solver":"knapsack-dp","wall_ms":0,)"
        R"("cache_lookups":10,"cache_hits":3,"cache_evictions":0,)"
        R"("gap_fraction":0,"cancelled":false,"warm":false},)"
        R"("solve":{"selection":{"evaluation":{"selected":[0,1],)"
        R"("cost":{"processing_micros":191500,"materialization_micros":242835,)"
        R"("maintenance_micros":0,"storage_micros":4214,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,"total_micros":438549},)"
        R"("processing_time_ms":1148620,"makespan_ms":2604799},)"
        R"("feasible":true,"objective_value":0.35875548162994958,)"
        R"("solver":"knapsack-dp","time_ms":2604799,)"
        R"("multi":{"monthly_cost_micros":146183000,"time_ms":2604799,)"
        R"("storage_bytes":35481600,"unavailability_ppm":0},"cancelled":false,)"
        R"("gap_fraction":0},"baseline":{"selected":[],)"
        R"("cost":{"processing_micros":1214165,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":4200,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,)"
        R"("total_micros":1218365},"processing_time_ms":7284884,)"
        R"("makespan_ms":7284884}}})"},
      {AdvisorRequest{.kind = AdvisorRequestKind::kFrontier},
        R"({"kind":"frontier","meta":{"solver":"pareto-sweep","wall_ms":0,)"
        R"("cache_lookups":59905,"cache_hits":59112,"cache_evictions":0,)"
        R"("gap_fraction":0,"cancelled":false,"warm":false},)"
        R"("frontier":{"frontier":[{"score":{"monthly_cost_micros":146183000,)"
        R"("time_ms":2604799,"storage_bytes":35481600,"unavailability_ppm":0},)"
        R"("selected":[0,1],"origin":"annealing"},)"
        R"({"score":{"monthly_cost_micros":181346333,"time_ms":3238638,)"
        R"("storage_bytes":10137600,"unavailability_ppm":0},"selected":[0],)"
        R"("origin":"annealing a=0.0 s<=60%"},)"
        R"({"score":{"monthly_cost_micros":256956667,"time_ms":4599506,)"
        R"("storage_bytes":844800,"unavailability_ppm":0},"selected":[2],)"
        R"("origin":"annealing a=0.0 s<=5%"},)"
        R"({"score":{"monthly_cost_micros":406121667,"time_ms":7284884,)"
        R"("storage_bytes":0,"unavailability_ppm":0},"selected":[],)"
        R"("origin":"baseline"}],"best":{"evaluation":{"selected":[0,1],)"
        R"("cost":{"processing_micros":191500,"materialization_micros":242835,)"
        R"("maintenance_micros":0,"storage_micros":4214,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,"total_micros":438549},)"
        R"("processing_time_ms":1148620,"makespan_ms":2604799},)"
        R"("feasible":true,"objective_value":0.35875548162994958,)"
        R"("solver":"pareto-sweep","time_ms":2604799,)"
        R"("multi":{"monthly_cost_micros":146183000,"time_ms":2604799,)"
        R"("storage_bytes":35481600,"unavailability_ppm":0},"cancelled":false,)"
        R"("gap_fraction":0},"baseline":{"selected":[],)"
        R"("cost":{"processing_micros":1214165,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":4200,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,)"
        R"("total_micros":1218365},"processing_time_ms":7284884,)"
        R"("makespan_ms":7284884}}})"},
      {AdvisorRequest{.kind = AdvisorRequestKind::kTimeline,
                      .timeline = {.num_periods = 2},
                      .policy = ReselectPolicy::EveryK(1)},
        R"({"kind":"timeline","meta":{"solver":"knapsack-dp","wall_ms":0,)"
        R"("cache_lookups":0,"cache_hits":0,"cache_evictions":0,)"
        R"("gap_fraction":0,"cancelled":false,"warm":false},)"
        R"("timeline":{"policy":{"kind":"every-k","k":1},)"
        R"("policy_name":"every-1","solver":"knapsack-dp",)"
        R"("ledger":[{"period":0,"selected":[0,1],"reselected":true,"drift":0,)"
        R"("views_added":2,"views_dropped":0,)"
        R"("cost":{"processing_micros":191500,"materialization_micros":242835,)"
        R"("maintenance_micros":0,"storage_micros":1404626,)"
        R"("transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":1838961},)"
        R"("processing_time_ms":1148620},{"period":1,"selected":[0,1],)"
        R"("reselected":true,"drift":0,"views_added":0,"views_dropped":0,)"
        R"("cost":{"processing_micros":191500,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":1404626,)"
        R"("transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":1596126},)"
        R"("processing_time_ms":1148620}],"total":{"processing_micros":383000,)"
        R"("materialization_micros":242835,"maintenance_micros":0,)"
        R"("storage_micros":2809252,"transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":3435087},"solver_runs":2,)"
        R"("warm_periods":0}})"},
      {AdvisorRequest{.kind = AdvisorRequestKind::kCompareProviders},
        R"({"kind":"compare-providers","meta":{"solver":"knapsack-dp",)"
        R"("wall_ms":0,"cache_lookups":0,"cache_hits":0,"cache_evictions":0,)"
        R"("gap_fraction":0,"cancelled":false,"warm":false},)"
        R"("providers":[{"provider":"aws-2012","instance":"small",)"
        R"("granularity":"hour",)"
        R"("run":{"selection":{"evaluation":{"selected":[0,1],)"
        R"("cost":{"processing_micros":600000,"materialization_micros":600000,)"
        R"("maintenance_micros":0,"storage_micros":4214,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,)"
        R"("total_micros":1204214},"processing_time_ms":1148620,)"
        R"("makespan_ms":2604799},"feasible":true,)"
        R"("objective_value":0.51250628648258767,"solver":"knapsack-dp",)"
        R"("time_ms":2604799,"multi":{"monthly_cost_micros":401404667,)"
        R"("time_ms":2604799,"storage_bytes":35481600,"unavailability_ppm":0},)"
        R"("cancelled":false,"gap_fraction":0},"baseline":{"selected":[],)"
        R"("cost":{"processing_micros":1800000,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":4200,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,)"
        R"("total_micros":1804200},"processing_time_ms":7284884,)"
        R"("makespan_ms":7284884}}},{"provider":"bluecloud","instance":"b1",)"
        R"("granularity":"hour",)"
        R"("run":{"selection":{"evaluation":{"selected":[0,1],)"
        R"("cost":{"processing_micros":550000,"materialization_micros":550000,)"
        R"("maintenance_micros":0,"storage_micros":3913,)"
        R"("transfer_micros":532098,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":1636011},)"
        R"("processing_time_ms":1148620,"makespan_ms":2604799},)"
        R"("feasible":true,"objective_value":0.55298339914519712,)"
        R"("solver":"knapsack-dp","time_ms":2604799,)"
        R"("multi":{"monthly_cost_micros":545337000,"time_ms":2604799,)"
        R"("storage_bytes":35481600,"unavailability_ppm":0},"cancelled":false,)"
        R"("gap_fraction":0},"baseline":{"selected":[],)"
        R"("cost":{"processing_micros":1650000,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":3900,)"
        R"("transfer_micros":532098,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":2185998},)"
        R"("processing_time_ms":7284884,"makespan_ms":7284884}}},)"
        R"({"provider":"gigacloud","instance":"g-small",)"
        R"("granularity":"minute",)"
        R"("run":{"selection":{"evaluation":{"selected":[0,1],)"
        R"("cost":{"processing_micros":158335,"materialization_micros":191665,)"
        R"("maintenance_micros":0,"storage_micros":3612,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,"total_micros":353612},)"
        R"("processing_time_ms":1085854,"makespan_ms":2417912},)"
        R"("feasible":true,"objective_value":0.37011519259038944,)"
        R"("solver":"knapsack-dp","time_ms":2417912,)"
        R"("multi":{"monthly_cost_micros":117870667,"time_ms":2417912,)"
        R"("storage_bytes":35481600,"unavailability_ppm":0},"cancelled":false,)"
        R"("gap_fraction":0},"baseline":{"selected":[],)"
        R"("cost":{"processing_micros":933335,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":3600,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,"total_micros":936935},)"
        R"("processing_time_ms":6664278,"makespan_ms":6664278}}},)"
        R"({"provider":"intro-example","instance":"standard",)"
        R"("granularity":"hour",)"
        R"("run":{"selection":{"evaluation":{"selected":[0,1],)"
        R"("cost":{"processing_micros":1200000,)"
        R"("materialization_micros":1200000,"maintenance_micros":0,)"
        R"("storage_micros":1003,"transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":2401003},)"
        R"("processing_time_ms":803416,"makespan_ms":1576929},"feasible":true,)"
        R"("objective_value":0.70365665397862709,"solver":"knapsack-dp",)"
        R"("time_ms":1576929,"multi":{"monthly_cost_micros":2401003000,)"
        R"("time_ms":1576929,"storage_bytes":35481600,"unavailability_ppm":0},)"
        R"("cancelled":false,"gap_fraction":0},"baseline":{"selected":[],)"
        R"("cost":{"processing_micros":2400000,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":1000,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,)"
        R"("total_micros":2401000},"processing_time_ms":3871550,)"
        R"("makespan_ms":3871550}}},{"provider":"nimbus","instance":"n1",)"
        R"("granularity":"minute",)"
        R"("run":{"selection":{"evaluation":{"selected":[0,1],)"
        R"("cost":{"processing_micros":216665,"materialization_micros":270835,)"
        R"("maintenance_micros":0,"storage_micros":1661,"transfer_micros":0,)"
        R"("requests_micros":150000,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,"total_micros":639161},)"
        R"("processing_time_ms":1148620,"makespan_ms":2604799},)"
        R"("feasible":true,"objective_value":0.48075214748583439,)"
        R"("solver":"knapsack-dp","time_ms":2604799,)"
        R"("multi":{"monthly_cost_micros":213053667,"time_ms":2604799,)"
        R"("storage_bytes":35481600,"unavailability_ppm":0},"cancelled":false,)"
        R"("gap_fraction":0},"baseline":{"selected":[],)"
        R"("cost":{"processing_micros":906665,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":1650,"transfer_micros":0,)"
        R"("requests_micros":150000,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,)"
        R"("total_micros":1058315},"processing_time_ms":7284884,)"
        R"("makespan_ms":7284884}}}]})"},
      {AdvisorRequest{.kind = AdvisorRequestKind::kComparePolicies,
                      .timeline = {.num_periods = 2},
                      .policies = {ReselectPolicy::Static(),
                                   ReselectPolicy::OnDrift(0.1)}},
        R"({"kind":"compare-policies","meta":{"solver":"knapsack-dp",)"
        R"("wall_ms":0,"cache_lookups":0,"cache_hits":0,"cache_evictions":0,)"
        R"("gap_fraction":0,"cancelled":false,"warm":false},)"
        R"("policies":[{"policy":{"kind":"static"},"policy_name":"static",)"
        R"("solver":"knapsack-dp","ledger":[{"period":0,"selected":[0,1],)"
        R"("reselected":true,"drift":0,"views_added":2,"views_dropped":0,)"
        R"("cost":{"processing_micros":191500,"materialization_micros":242835,)"
        R"("maintenance_micros":0,"storage_micros":1404626,)"
        R"("transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":1838961},)"
        R"("processing_time_ms":1148620},{"period":1,"selected":[0,1],)"
        R"("reselected":false,"drift":0,"views_added":0,"views_dropped":0,)"
        R"("cost":{"processing_micros":191500,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":1404626,)"
        R"("transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":1596126},)"
        R"("processing_time_ms":1148620}],"total":{"processing_micros":383000,)"
        R"("materialization_micros":242835,"maintenance_micros":0,)"
        R"("storage_micros":2809252,"transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":3435087},"solver_runs":1,)"
        R"("warm_periods":1},{"policy":{"kind":"on-drift","threshold":0.1},)"
        R"("policy_name":"drift-0.10","solver":"knapsack-dp",)"
        R"("ledger":[{"period":0,"selected":[0,1],"reselected":true,"drift":0,)"
        R"("views_added":2,"views_dropped":0,)"
        R"("cost":{"processing_micros":191500,"materialization_micros":242835,)"
        R"("maintenance_micros":0,"storage_micros":1404626,)"
        R"("transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":1838961},)"
        R"("processing_time_ms":1148620},{"period":1,"selected":[0,1],)"
        R"("reselected":false,"drift":0,"views_added":0,"views_dropped":0,)"
        R"("cost":{"processing_micros":191500,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":1404626,)"
        R"("transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":1596126},)"
        R"("processing_time_ms":1148620}],"total":{"processing_micros":383000,)"
        R"("materialization_micros":242835,"maintenance_micros":0,)"
        R"("storage_micros":2809252,"transfer_micros":0,"requests_micros":0,)"
        R"("session_rounding_micros":0,"interruption_micros":0,)"
        R"("inter_az_micros":0,"total_micros":3435087},"solver_runs":1,)"
        R"("warm_periods":1}]})"},
      {AdvisorRequest{.kind = AdvisorRequestKind::kSolveJoint},
        R"({"kind":"solve-joint","meta":{"solver":"arch-sweep","wall_ms":0,)"
        R"("cache_lookups":40,"cache_hits":12,"cache_evictions":0,)"
        R"("gap_fraction":0,"cancelled":false,"warm":false},)"
        R"("joint":{"frontier":[{"score":{"monthly_cost_micros":47358333,)"
        R"("time_ms":2604799,"storage_bytes":35481600,)"
        R"("unavailability_ppm":51500},"selected":[0,1],)"
        R"("origin":"knapsack-dp","architecture":"spot-single-az"},)"
        R"({"score":{"monthly_cost_micros":109882333,"time_ms":2604799,)"
        R"("storage_bytes":35481600,"unavailability_ppm":2602},"selected":[0,)"
        R"(1],"origin":"knapsack-dp","architecture":"spot-2az"},)"
        R"({"score":{"monthly_cost_micros":126189333,"time_ms":7284884,)"
        R"("storage_bytes":0,"unavailability_ppm":51500},"selected":[],)"
        R"("origin":"baseline","architecture":"spot-single-az"},)"
        R"({"score":{"monthly_cost_micros":146183000,"time_ms":2604799,)"
        R"("storage_bytes":35481600,"unavailability_ppm":1500},"selected":[0,)"
        R"(1],"origin":"knapsack-dp","architecture":"single-az-on-demand"},)"
        R"({"score":{"monthly_cost_micros":162322667,"time_ms":7284884,)"
        R"("storage_bytes":0,"unavailability_ppm":2602},"selected":[],)"
        R"("origin":"baseline","architecture":"spot-2az"},)"
        R"({"score":{"monthly_cost_micros":263380667,"time_ms":2604799,)"
        R"("storage_bytes":35481600,"unavailability_ppm":2},"selected":[0,1],)"
        R"("origin":"knapsack-dp","architecture":"2az-replicated"},)"
        R"({"score":{"monthly_cost_micros":406121667,"time_ms":7284884,)"
        R"("storage_bytes":0,"unavailability_ppm":1500},"selected":[],)"
        R"("origin":"baseline","architecture":"single-az-on-demand"},)"
        R"({"score":{"monthly_cost_micros":442255000,"time_ms":7284884,)"
        R"("storage_bytes":0,"unavailability_ppm":2},"selected":[],)"
        R"("origin":"baseline","architecture":"2az-replicated"}],)"
        R"("best":{"evaluation":{"selected":[0,1],)"
        R"("cost":{"processing_micros":59046,"materialization_micros":74874,)"
        R"("maintenance_micros":0,"storage_micros":4214,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":3941,"inter_az_micros":0,)"
        R"("total_micros":142075},"processing_time_ms":1148620,)"
        R"("makespan_ms":2604799},"feasible":true,)"
        R"("objective_value":0.36642901558748725,"solver":"arch-sweep",)"
        R"("time_ms":2604799,"multi":{"monthly_cost_micros":47358333,)"
        R"("time_ms":2604799,"storage_bytes":35481600,)"
        R"("unavailability_ppm":51500},"architecture":"spot-single-az",)"
        R"("cancelled":false,"gap_fraction":0},)"
        R"("best_architecture":"spot-single-az","baseline":{"selected":[],)"
        R"("cost":{"processing_micros":1214165,"materialization_micros":0,)"
        R"("maintenance_micros":0,"storage_micros":4200,"transfer_micros":0,)"
        R"("requests_micros":0,"session_rounding_micros":0,)"
        R"("interruption_micros":0,"inter_az_micros":0,)"
        R"("total_micros":1218365},"processing_time_ms":7284884,)"
        R"("makespan_ms":7284884}}})"},
  };
  for (const auto& [request, expected] : cases) {
    SCOPED_TRACE(AdvisorRequestKindName(request.kind));
    Result<AdvisorResponse> response = scenario.Dispatch(request);
    ASSERT_TRUE(response.ok()) << response.status();
    response->meta.wall_ms = 0;
    EXPECT_EQ(WriteJson(AdvisorResponseToJson(response.value())), expected);
  }
}

}  // namespace
}  // namespace cloudview
