// Advisor JSON codec: every request variant round-trips
// field-for-field; responses write -> parse -> write idempotently;
// malformed and unknown-field inputs come back InvalidArgument with
// actionable messages (the offending field and the accepted set).

#include "serving/advisor_codec.h"

#include <gtest/gtest.h>

#include <string>

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
  ExpectRejected(R"({"kind":"solve","objective":{"alpha":1.5}})");
  ExpectRejected(R"({"kind":"solve","deadline_ms":-1})");
  ExpectRejected(
      R"({"kind":"solve","workload":{"kind":"queries",)"
      R"("queries":[{"target":-2}]}})");
  ExpectRejected(R"({"kind":"timeline","policy":{"kind":"every-k","k":0}})");
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
  ExpectRejected(R"({"kind":"solve","workload":{"kind":"nope"}})");
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
       {R"({"schema":"tpch"})", R"({"nb_instances":0})",
        R"({"candidates":{"max_candidates":0}})",
        R"({"pricing":"shim"})"}) {
    Result<JsonValue> json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << json.status();
    Result<ScenarioConfig> config = ParseScenarioConfig(json.value());
    EXPECT_FALSE(config.ok()) << "accepted: " << text;
    EXPECT_TRUE(config.status().IsInvalidArgument());
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

}  // namespace
}  // namespace cloudview
