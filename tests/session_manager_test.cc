// SessionManager: create/find/drop semantics, TTL eviction on an
// injectable clock, the session cap, the warm-slot telemetry a served
// session accumulates, and range checks on wire-supplied configs.

#include "serving/session_manager.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

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

}  // namespace
}  // namespace cloudview
