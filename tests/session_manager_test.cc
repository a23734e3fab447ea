// SessionManager: create/find/drop semantics, TTL eviction on an
// injectable clock, the session cap, the warm-slot telemetry a served
// session accumulates, and range checks on wire-supplied configs.

#include "serving/session_manager.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serving/advisor_codec.h"
#include "serving/advisor_service.h"
#include "serving/json.h"

namespace cloudview {
namespace {

ScenarioConfig SmallConfig() {
  ScenarioConfig config;
  config.candidates.max_candidates = 6;
  config.candidates.max_rows_fraction = 0.05;
  return config;
}

SessionManager::Options FakeClockOptions(int64_t* now_ms,
                                         int64_t ttl_ms = 100) {
  SessionManager::Options options;
  options.ttl_ms = ttl_ms;
  options.now_ms = [now_ms]() { return *now_ms; };
  return options;
}

TEST(SessionManager, CreateFindDrop) {
  int64_t now = 0;
  SessionManager manager(FakeClockOptions(&now));
  Result<std::shared_ptr<AdvisorSession>> created =
      manager.Create("a", SmallConfig());
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created.value()->name(), "a");

  Result<std::shared_ptr<AdvisorSession>> found = manager.Find("a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().get(), created.value().get());

  EXPECT_TRUE(manager.Find("b").status().IsNotFound());
  EXPECT_TRUE(manager.Drop("a").ok());
  EXPECT_TRUE(manager.Find("a").status().IsNotFound());
  EXPECT_TRUE(manager.Drop("a").IsNotFound());
}

TEST(SessionManager, DuplicateNameIsAlreadyExists) {
  int64_t now = 0;
  SessionManager manager(FakeClockOptions(&now));
  ASSERT_TRUE(manager.Create("a", SmallConfig()).ok());
  Status status = manager.Create("a", SmallConfig()).status();
  EXPECT_TRUE(status.IsAlreadyExists()) << status;
}

TEST(SessionManager, EmptyNameRejected) {
  SessionManager manager;
  EXPECT_TRUE(
      manager.Create("", SmallConfig()).status().IsInvalidArgument());
}

TEST(SessionManager, TtlEvictsIdleSessionsAndFindRefreshes) {
  int64_t now = 0;
  SessionManager manager(FakeClockOptions(&now, /*ttl_ms=*/100));
  ASSERT_TRUE(manager.Create("a", SmallConfig()).ok());
  ASSERT_TRUE(manager.Create("b", SmallConfig()).ok());

  now = 60;
  ASSERT_TRUE(manager.Find("a").ok());  // Refreshes a's TTL; b stays idle.

  now = 120;  // b idle 120ms >= ttl; a idle 60ms.
  EXPECT_EQ(manager.EvictExpired(), 1u);
  EXPECT_TRUE(manager.Find("b").status().IsNotFound());
  EXPECT_TRUE(manager.Find("a").ok());

  now = 500;  // Everything idles out; the sweep also runs inside Find.
  EXPECT_TRUE(manager.Find("a").status().IsNotFound());
  EXPECT_TRUE(manager.Names().empty());
}

TEST(SessionManager, ZeroTtlDisablesEviction) {
  int64_t now = 0;
  SessionManager manager(FakeClockOptions(&now, /*ttl_ms=*/0));
  ASSERT_TRUE(manager.Create("a", SmallConfig()).ok());
  now = 1'000'000'000;
  EXPECT_EQ(manager.EvictExpired(), 0u);
  EXPECT_TRUE(manager.Find("a").ok());
}

TEST(SessionManager, SessionCapIsResourceExhausted) {
  int64_t now = 0;
  SessionManager::Options options = FakeClockOptions(&now);
  options.max_sessions = 2;
  SessionManager manager(std::move(options));
  ASSERT_TRUE(manager.Create("a", SmallConfig()).ok());
  ASSERT_TRUE(manager.Create("b", SmallConfig()).ok());
  Status status = manager.Create("c", SmallConfig()).status();
  EXPECT_TRUE(status.IsResourceExhausted()) << status;
  ASSERT_TRUE(manager.Drop("a").ok());
  EXPECT_TRUE(manager.Create("c", SmallConfig()).ok());
}

TEST(SessionManager, NamesAreSorted) {
  SessionManager manager;
  ASSERT_TRUE(manager.Create("zeta", SmallConfig()).ok());
  ASSERT_TRUE(manager.Create("alpha", SmallConfig()).ok());
  EXPECT_EQ(manager.Names(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(SessionManager, ServeAccumulatesWarmTelemetry) {
  SessionManager manager;
  std::shared_ptr<AdvisorSession> session =
      manager.Create("s", SmallConfig()).MoveValue();

  AdvisorRequest request;
  request.kind = AdvisorRequestKind::kSolve;

  Result<AdvisorResponse> first = session->Serve(request);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first.value().meta.warm);  // Slot built on first touch.

  Result<AdvisorResponse> second = session->Serve(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().meta.warm);
  EXPECT_EQ(session->requests_served(), 2u);
  EXPECT_EQ(session->warm_hits(), 1u);
  // The persistent session cache accumulates across requests, so the
  // second solve's aggregate counters strictly grow and start hitting.
  EXPECT_GT(second.value().meta.cache_lookups,
            first.value().meta.cache_lookups);
  EXPECT_GT(second.value().meta.cache_hits, 0u);

  // An in-flight handle keeps serving after a drop.
  ASSERT_TRUE(manager.Drop("s").ok());
  EXPECT_TRUE(session->Serve(request).ok());
  EXPECT_EQ(session->warm_hits(), 2u);
}

// Regression: a negative cycle count used to abort the process on the
// first solve, and INT64_MAX wrapped the bill negative with ok=true.
// Both session configs are now refused and the service keeps serving.
TEST(SessionManager, OutOfRangeMaintenanceCyclesRefusedOnTheWire) {
  std::unique_ptr<AdvisorService> service =
      AdvisorService::Create({}).MoveValue();
  for (const std::string cycles : {"-1", "9223372036854775807"}) {
    SCOPED_TRACE(cycles);
    ScenarioConfig config =
        ParseScenarioConfig(
            ParseJson("{\"maintenance_cycles\":" + cycles + "}").value())
            .MoveValue();
    Status created = service->sessions().Create("s", config).status();
    EXPECT_TRUE(created.IsInvalidArgument()) << created;
    EXPECT_NE(created.message().find("maintenance_cycles"),
              std::string::npos);

    AdvisorRequest request;
    request.session = "s";
    EXPECT_TRUE(service->Serve(request).status.IsNotFound());
  }
  ServeOutcome served = service->Serve(AdvisorRequest{});
  ASSERT_TRUE(served.status.ok()) << served.status;
  EXPECT_GE(served.response.solve.selection.evaluation.cost.total(),
            Money::Zero());
}

void ExpectNonNegativeRows(const CostBreakdown& cost) {
  for (Money row : {cost.processing, cost.materialization, cost.maintenance,
                    cost.storage, cost.transfer, cost.requests,
                    cost.session_rounding, cost.interruption, cost.inter_az}) {
    EXPECT_GE(row, Money::Zero());
  }
  EXPECT_GT(cost.total(), Money::Zero());
}

// Regression: a query frequency of ~4e12 wrapped the busy time and
// aborted the server (every tenant's session with it), and smaller ones
// wrapped the egress volume. Frequencies above kMaxQueryFrequency are
// refused; a 1 MiB line packed with the slowest, largest-result queries
// at the bound still bills every row non-negative.
TEST(SessionManager, QueryFrequencyBoundedOnTheWire) {
  std::unique_ptr<AdvisorService> service =
      AdvisorService::Create({}).MoveValue();
  ScenarioConfig config =
      ParseScenarioConfig(
          ParseJson(R"({"schema":"ssb","provider":"gigacloud",)"
                    R"("instance_name":"g-micro","nb_instances":1})")
              .value())
          .MoveValue();
  ASSERT_TRUE(service->sessions().Create("s", config).ok());

  const std::string head =
      R"({"kind":"solve","session":"s","objective":{"scenario":"mv3",)"
      R"("alpha":0.5},"workload":{"kind":"queries","queries":[)";
  auto request_with = [&](const std::string& query, size_t count) {
    std::string text = head;
    for (size_t i = 0; i < count; ++i) {
      if (i > 0) text += ",";
      text += query;
    }
    return ParseAdvisorRequestText(text + "]}}").MoveValue();
  };

  ServeOutcome refused = service->Serve(request_with(
      R"({"name":"q","target":0,"frequency":9223372036854775807})", 1));
  EXPECT_TRUE(refused.status.IsInvalidArgument()) << refused.status;
  EXPECT_NE(refused.status.message().find("frequency"), std::string::npos);
  ServeOutcome above = service->Serve(request_with(
      R"({"frequency":)" + std::to_string(kMaxQueryFrequency + 1) + "}", 1));
  EXPECT_TRUE(above.status.IsInvalidArgument()) << above.status;

  // Target 0 is the SSB base cuboid: the largest result and, with one
  // g-micro node, the slowest scan. As many as fit in the server's 1 MiB
  // line cap.
  const std::string at_cap =
      R"({"frequency":)" + std::to_string(kMaxQueryFrequency) + "}";
  const size_t count = (size_t{1} << 20) / (at_cap.size() + 1);
  ServeOutcome served = service->Serve(request_with(at_cap, count));
  ASSERT_TRUE(served.status.ok()) << served.status;
  const SolveRun& solve = served.response.solve;
  ExpectNonNegativeRows(solve.baseline.cost);
  ExpectNonNegativeRows(solve.selection.evaluation.cost);

  // The service kept serving through the refusals.
  EXPECT_TRUE(service->Serve(AdvisorRequest{}).status.ok());
}


Status CreateSession(AdvisorService& service, const std::string& name,
                     const std::string& config_json) {
  Result<ScenarioConfig> config =
      ParseScenarioConfig(ParseJson(config_json).value());
  if (!config.ok()) return config.status();
  return service.sessions().Create(name, config.MoveValue()).status();
}

ServeOutcome ServeText(AdvisorService& service, const std::string& text) {
  Result<AdvisorRequest> request = ParseAdvisorRequestText(text);
  EXPECT_TRUE(request.ok()) << request.status();
  return service.Serve(request.value());
}

// The largest wire workload: as many SSB base-cuboid queries at
// kMaxQueryFrequency as fit in the server's 1 MiB line cap.
constexpr size_t kAtCapQueryCount = (size_t{1} << 20) / 19;
std::string AtCapWorkload() {
  std::string text = R"({"kind":"queries","queries":[)";
  for (size_t i = 0; i < kAtCapQueryCount; ++i) {
    if (i > 0) text += ",";
    text += R"({"frequency":)" + std::to_string(kMaxQueryFrequency) + "}";
  }
  return text + "]}";
}

// Regression: nb_instances had no upper bound (1e15 instances billed a
// wrapped 1.05e18 micro-dollars with ok=true), and a fixed storage
// period of 9e15 months billed storage negative on sales and aborted the
// first SSB solve. Both are refused by name when the session is created;
// at the bounds the largest wire workload bills every row non-negative.
TEST(SessionManager, InstancesAndStoragePeriodBoundedOnTheWire) {
  std::unique_ptr<AdvisorService> service =
      AdvisorService::Create({}).MoveValue();
  const std::vector<std::pair<std::string, std::string>> refused = {
      {R"({"nb_instances":1000000000000000})", "nb_instances"},
      {R"({"nb_instances":)" + std::to_string(kMaxInstances + 1) + "}",
       "nb_instances"},
      {R"({"schema":"ssb","prorate_storage":false,)"
       R"("storage_period_milli_months":9000000000000000000})",
       "storage_period"},
      {R"({"storage_period_milli_months":0})", "storage_period"},
  };
  for (const auto& [config, field] : refused) {
    SCOPED_TRACE(config);
    Status created = CreateSession(*service, "s", config);
    EXPECT_TRUE(created.IsInvalidArgument()) << created;
    EXPECT_NE(created.message().find(field), std::string::npos) << created;
  }

  // The dearest instance of any sheet (aws-2012 xlarge, $0.96/h), at
  // kMaxInstances. Every instance bills each query run's 45 s startup,
  // $0.012, so the processing bill has a floor a wrapped one would miss.
  ASSERT_TRUE(CreateSession(*service, "wide",
                            R"({"schema":"ssb","instance_name":"xlarge",)"
                            R"("nb_instances":)" +
                                std::to_string(kMaxInstances) + "}")
                  .ok());
  ServeOutcome wide = ServeText(
      *service, R"({"kind":"solve","session":"wide","workload":)" +
                    AtCapWorkload() + "}");
  ASSERT_TRUE(wide.status.ok()) << wide.status;
  const SolveRun& solve = wide.response.solve;
  ExpectNonNegativeRows(solve.baseline.cost);
  ExpectNonNegativeRows(solve.selection.evaluation.cost);
  const int64_t runs =
      static_cast<int64_t>(kAtCapQueryCount * kMaxQueryFrequency);
  EXPECT_GE(solve.baseline.cost.processing,
            Money::FromMicros(runs * 12'000 * kMaxInstances));

  ASSERT_TRUE(CreateSession(*service, "long",
                            R"({"schema":"ssb","prorate_storage":false,)"
                            R"("storage_period_milli_months":)" +
                                std::to_string(kMaxStoragePeriod.milli()) +
                                "}")
                  .ok());
  ServeOutcome longest =
      ServeText(*service, R"({"kind":"solve","session":"long"})");
  ASSERT_TRUE(longest.status.ok()) << longest.status;
  ExpectNonNegativeRows(longest.response.solve.baseline.cost);
  ExpectNonNegativeRows(longest.response.solve.selection.evaluation.cost);
}

// Regression: a seasonal-spike amplitude of 1e15 wrapped the busy time
// and aborted the server (every tenant's session with it), num_periods
// had no upper bound although every period is built up front, and a
// period length of 2e12 months wrapped the storage bill. Each is refused
// by name; at the bounds the timeline is served and, spiked over the
// largest wire workload, bills every row non-negative.
TEST(SessionManager, TimelineSpikesAndPeriodsBoundedOnTheWire) {
  std::unique_ptr<AdvisorService> service =
      AdvisorService::Create({}).MoveValue();
  const std::string head = R"({"kind":"timeline","timeline":{)";
  const std::vector<std::pair<std::string, std::string>> refused = {
      {R"("num_periods":4,"period_length_milli_months":1000,"drifts":[)"
       R"({"kind":"seasonal-spike","season_length":2,"amplitude":1e15}])",
       "amplitude"},
      // Aligned spikes compound: 2.01 x 2 is past kMaxSpikeFactor.
      {R"("num_periods":2,"drifts":[)"
       R"({"kind":"seasonal-spike","season_length":1,"amplitude":1.01},)"
       R"({"kind":"seasonal-spike","season_length":1,"amplitude":1}])",
       "amplitude"},
      {R"("num_periods":9223372036854775807)", "num_periods"},
      {R"("num_periods":)" + std::to_string(kMaxTimelinePeriods + 1),
       "num_periods"},
      {R"("num_periods":2,"period_length_milli_months":2000000000000000)",
       "period_length"},
  };
  for (const auto& [timeline, field] : refused) {
    SCOPED_TRACE(timeline);
    ServeOutcome served = ServeText(*service, head + timeline + "}}");
    EXPECT_TRUE(served.status.IsInvalidArgument()) << served.status;
    EXPECT_NE(served.status.message().find(field), std::string::npos)
        << served.status;
  }

  ServeOutcome longest = ServeText(
      *service, head + R"("num_periods":)" +
                    std::to_string(kMaxTimelinePeriods) + "}}");
  ASSERT_TRUE(longest.status.ok()) << longest.status;
  EXPECT_EQ(longest.response.timeline.ledger.size(),
            static_cast<size_t>(kMaxTimelinePeriods));

  // Every period spiked by exactly kMaxSpikeFactor, on the config that
  // pins the frequency bound above.
  ASSERT_TRUE(CreateSession(*service, "s",
                            R"({"schema":"ssb","provider":"gigacloud",)"
                            R"("instance_name":"g-micro","nb_instances":1})")
                  .ok());
  ServeOutcome spiked = ServeText(
      *service,
      R"({"kind":"timeline","session":"s","workload":)" + AtCapWorkload() +
          R"(,"timeline":{"num_periods":1,"drifts":[{"kind":"seasonal-spike",)"
          R"("season_length":1,"amplitude":3}]}})");
  ASSERT_TRUE(spiked.status.ok()) << spiked.status;
  ExpectNonNegativeRows(spiked.response.timeline.total);

  // The service kept serving through the refusals.
  EXPECT_TRUE(service->Serve(AdvisorRequest{}).status.ok());
}

}  // namespace
}  // namespace cloudview
