#include "core/optimizer/candidate_generation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "engine/sales_generator.h"
#include "workload/ssb.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

class CandidateGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SalesConfig config;
    lattice_ = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
    simulator_ = std::make_unique<MapReduceSimulator>(*lattice_,
                                                      MapReduceParams{});
    cluster_ = ClusterSpec{
        InstanceType{.name = "small",
                     .price_per_hour = Money::FromCents(12),
                     .compute_units = 1.0},
        5};
    workload_ = MakePaperWorkload(*lattice_).MoveValue();
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  ClusterSpec cluster_;
  Workload workload_;
};

TEST_F(CandidateGenTest, EveryCandidateAnswersSomeQuery) {
  CandidateGenOptions options;
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_FALSE(candidates->empty());
  for (const ViewCandidate& c : *candidates) {
    bool answers_any = false;
    for (const QuerySpec& q : workload_.queries()) {
      answers_any |= lattice_->CanAnswer(c.view, q.target);
    }
    EXPECT_TRUE(answers_any) << c.name;
  }
}

TEST_F(CandidateGenTest, CandidatesCarryPositiveAttributes) {
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, CandidateGenOptions{});
  ASSERT_TRUE(candidates.ok());
  for (const ViewCandidate& c : *candidates) {
    EXPECT_GT(c.size.bytes(), 0) << c.name;
    EXPECT_GT(c.materialization_time, Duration::Zero()) << c.name;
    EXPECT_GE(c.maintenance_time, Duration::Zero()) << c.name;
    EXPECT_FALSE(c.name.empty());
  }
}

TEST_F(CandidateGenTest, MaxCandidatesCapRespected) {
  CandidateGenOptions options;
  options.max_candidates = 3;
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_LE(candidates->size(), 3u);
}

TEST_F(CandidateGenTest, CandidatesRankedByBenefit) {
  // The cap keeps the *best* candidates: an uncapped run's top-k must
  // equal the capped run.
  CandidateGenOptions uncapped;
  uncapped.max_candidates = 100;
  CandidateGenOptions capped;
  capped.max_candidates = 4;
  auto all = GenerateCandidates(*lattice_, workload_, *simulator_,
                                cluster_, uncapped);
  auto top = GenerateCandidates(*lattice_, workload_, *simulator_,
                                cluster_, capped);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(top.ok());
  ASSERT_GE(all->size(), top->size());
  for (size_t i = 0; i < top->size(); ++i) {
    EXPECT_EQ((*top)[i].view, (*all)[i].view);
  }
}

TEST_F(CandidateGenTest, RowsFractionCapExcludesNearFactViews) {
  CandidateGenOptions options;
  options.max_rows_fraction = 0.05;
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, options);
  ASSERT_TRUE(candidates.ok());
  uint64_t fact_rows = lattice_->schema().stats().fact_rows;
  for (const ViewCandidate& c : *candidates) {
    EXPECT_LE(lattice_->EstimateRows(c.view),
              static_cast<uint64_t>(0.05 * fact_rows) + 1)
        << c.name;
  }
  // The finest cuboid (day, department) is ~9% of facts: excluded.
  for (const ViewCandidate& c : *candidates) {
    EXPECT_NE(c.view, lattice_->base_id());
  }
}

TEST_F(CandidateGenTest, QueriesOnlyRestrictsToWorkloadCuboids) {
  CandidateGenOptions options;
  options.queries_only = true;
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, options);
  ASSERT_TRUE(candidates.ok());
  std::set<CuboidId> targets;
  for (const QuerySpec& q : workload_.queries()) targets.insert(q.target);
  for (const ViewCandidate& c : *candidates) {
    EXPECT_TRUE(targets.count(c.view)) << c.name;
  }
}

TEST_F(CandidateGenTest, MaintenanceDeltaRaisesMaintenanceTime) {
  CandidateGenOptions no_delta;
  CandidateGenOptions with_delta;
  with_delta.maintenance_delta = DataSize::FromGB(1);
  auto a = GenerateCandidates(*lattice_, workload_, *simulator_,
                              cluster_, no_delta);
  auto b = GenerateCandidates(*lattice_, workload_, *simulator_,
                              cluster_, with_delta);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_LT((*a)[i].maintenance_time, (*b)[i].maintenance_time);
  }
}

TEST_F(CandidateGenTest, Validation) {
  EXPECT_TRUE(GenerateCandidates(*lattice_, Workload{}, *simulator_,
                                 cluster_, CandidateGenOptions{})
                  .status()
                  .IsInvalidArgument());
  CandidateGenOptions bad;
  bad.max_candidates = 0;
  EXPECT_TRUE(GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, bad)
                  .status()
                  .IsInvalidArgument());
  bad = CandidateGenOptions{};
  bad.max_size_fraction = 0.0;
  EXPECT_TRUE(GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, bad)
                  .status()
                  .IsInvalidArgument());
  bad = CandidateGenOptions{};
  bad.max_rows_fraction = -1.0;
  EXPECT_TRUE(GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, bad)
                  .status()
                  .IsInvalidArgument());
  // Clustering knobs (DESIGN.md §13.5).
  bad = CandidateGenOptions{};
  bad.cluster_similarity = -0.1;
  EXPECT_TRUE(GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, bad)
                  .status()
                  .IsInvalidArgument());
  bad = CandidateGenOptions{};
  bad.cluster_similarity = 1.5;
  EXPECT_TRUE(GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, bad)
                  .status()
                  .IsInvalidArgument());
  bad = CandidateGenOptions{};
  bad.cluster_similarity = 0.5;
  bad.cluster_size_ratio = 0.5;
  EXPECT_TRUE(GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, bad)
                  .status()
                  .IsInvalidArgument());
}

// --- Ranking is a total order; truncation is a deterministic prefix ---------
//
// Regression for the resize(max_candidates) cliff: with only a
// float-benefit comparator, equal-benefit candidates straddling the cap
// made the kept roster an artifact of std::sort's tie order. The
// comparator now breaks benefit ties by CuboidId (lint D3: paired `>`
// compares, no float equality), so any cap keeps a reproducible prefix.

TEST_F(CandidateGenTest, TruncationKeepsADeterministicPrefix) {
  CandidateGenOptions wide;
  wide.max_candidates = 1000;  // Effectively uncapped.
  auto full = GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, wide)
                  .MoveValue();
  ASSERT_GT(full.size(), 6u);

  for (size_t cap : {size_t{1}, size_t{6}, full.size() - 1}) {
    CandidateGenOptions capped;
    capped.max_candidates = cap;
    auto truncated = GenerateCandidates(*lattice_, workload_, *simulator_,
                                        cluster_, capped)
                         .MoveValue();
    ASSERT_EQ(truncated.size(), cap);
    for (size_t i = 0; i < cap; ++i) {
      EXPECT_EQ(truncated[i].view, full[i].view) << "cap=" << cap;
    }
  }

  // Repeat generation is byte-identical, cap or no cap.
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto again = GenerateCandidates(*lattice_, workload_, *simulator_,
                                    cluster_, wide)
                     .MoveValue();
    ASSERT_EQ(again.size(), full.size());
    for (size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(again[i].view, full[i].view);
      EXPECT_EQ(again[i].size.bytes(), full[i].size.bytes());
    }
  }
}

// --- Near-duplicate clustering (DESIGN.md §13.5) ----------------------------

TEST_F(CandidateGenTest, ClusteringSelectsRepresentativesInRankOrder) {
  CandidateGenOptions plain;
  plain.max_candidates = 1000;
  auto unclustered = GenerateCandidates(*lattice_, workload_, *simulator_,
                                        cluster_, plain)
                         .MoveValue();

  CandidateGenOptions clustered = plain;
  clustered.cluster_similarity = 0.8;
  clustered.cluster_size_ratio = 1e9;  // Similarity alone decides.
  auto kept = GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, clustered)
                  .MoveValue();

  // Merging only ever shrinks the roster, and every representative is
  // drawn from the unclustered ranking in its original order (the scan
  // walks the total benefit order, so representatives are each
  // cluster's best-benefit member).
  ASSERT_FALSE(kept.empty());
  EXPECT_LE(kept.size(), unclustered.size());
  size_t cursor = 0;
  for (const ViewCandidate& candidate : kept) {
    while (cursor < unclustered.size() &&
           !(unclustered[cursor].view == candidate.view)) {
      ++cursor;
    }
    ASSERT_LT(cursor, unclustered.size())
        << "clustered roster is not a subsequence of the ranking";
    ++cursor;
  }
  // The top-ranked candidate always survives as its own representative.
  EXPECT_EQ(kept.front().view, unclustered.front().view);

  // Deterministic: the pass is a pure function of the ranking.
  auto again = GenerateCandidates(*lattice_, workload_, *simulator_,
                                  cluster_, clustered)
                   .MoveValue();
  ASSERT_EQ(again.size(), kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(again[i].view, kept[i].view);
  }
}

TEST_F(CandidateGenTest, ExactSimilarityMergesOnlyIdenticalCoverage) {
  // similarity 1.0: |A∩B| >= |A∪B| holds only for identical coverage
  // sets, so loosening to 0.8 can only merge more.
  CandidateGenOptions exact;
  exact.max_candidates = 1000;
  exact.cluster_similarity = 1.0;
  exact.cluster_size_ratio = 1e9;
  auto strict = GenerateCandidates(*lattice_, workload_, *simulator_,
                                   cluster_, exact)
                    .MoveValue();
  CandidateGenOptions loose = exact;
  loose.cluster_similarity = 0.8;
  auto merged = GenerateCandidates(*lattice_, workload_, *simulator_,
                                   cluster_, loose)
                    .MoveValue();
  EXPECT_LE(merged.size(), strict.size());

  // A size-ratio of 1 additionally requires (near-)equal sizes, which
  // can only keep more candidates distinct.
  CandidateGenOptions tight = loose;
  tight.cluster_size_ratio = 1.0;
  auto ratio_bound = GenerateCandidates(*lattice_, workload_, *simulator_,
                                        cluster_, tight)
                         .MoveValue();
  EXPECT_GE(ratio_bound.size(), merged.size());
}

// --- Equivalence with a naive reference -------------------------------
//
// GenerateCandidates scans a pool bitmap, computes the fact-table time
// once per query and names only the kept roster. The reference below is
// the plain definition: decode every cuboid with CuboidOf, compare
// levels per dimension, and rebuild every time per (view, query) pair.
// The rosters must be equal field for field and in the same order.

bool DecodedCanAnswer(const CubeLattice& lattice, CuboidId view,
                      CuboidId query) {
  Cuboid v = lattice.CuboidOf(view);
  Cuboid q = lattice.CuboidOf(query);
  for (size_t d = 0; d < v.levels.size(); ++d) {
    if (v.levels[d] > q.levels[d]) return false;
  }
  return true;
}

std::vector<ViewCandidate> ReferenceCandidates(
    const CubeLattice& lattice, const Workload& workload,
    const MapReduceSimulator& simulator, const ClusterSpec& cluster,
    const CandidateGenOptions& options) {
  struct Entry {
    ViewCandidate candidate;
    double benefit = 0.0;
    std::vector<bool> coverage;
  };
  double fact_bytes = static_cast<double>(lattice.fact_scan_size().bytes());
  double fact_rows = static_cast<double>(lattice.schema().stats().fact_rows);
  std::vector<Entry> scored;
  for (CuboidId id = 0; id < lattice.num_nodes(); ++id) {
    bool in_pool = false;
    for (const QuerySpec& q : workload.queries()) {
      in_pool |= options.queries_only
                     ? id == q.target
                     : DecodedCanAnswer(lattice, id, q.target);
    }
    if (!in_pool) continue;
    if (static_cast<double>(lattice.EstimateSize(id).bytes()) / fact_bytes >
        options.max_size_fraction) {
      continue;
    }
    if (static_cast<double>(lattice.EstimateRows(id)) / fact_rows >
        options.max_rows_fraction) {
      continue;
    }
    Entry entry;
    entry.candidate = ViewCandidate{
        .view = id,
        .name = lattice.NameOf(id),
        .size = lattice.EstimateSize(id),
        .materialization_time =
            simulator.MaterializationTimeFromFact(id, cluster),
        .maintenance_time =
            simulator.MaintenanceTime(id, options.maintenance_delta, cluster),
    };
    for (const QuerySpec& q : workload.queries()) {
      bool covered = false;
      if (DecodedCanAnswer(lattice, id, q.target)) {
        Duration from_fact = simulator.QueryTimeFromFact(q.target, cluster);
        Duration from_view = simulator.QueryTimeFromView(id, q.target, cluster);
        if (from_view < from_fact) {
          entry.benefit += static_cast<double>(q.frequency) *
                           static_cast<double>((from_fact - from_view).millis());
          covered = true;
        }
      }
      entry.coverage.push_back(covered);
    }
    if (entry.benefit > 0.0) scored.push_back(std::move(entry));
  }
  std::sort(scored.begin(), scored.end(), [](const Entry& a, const Entry& b) {
    if (a.benefit > b.benefit) return true;
    if (b.benefit > a.benefit) return false;
    return a.candidate.view < b.candidate.view;
  });
  std::vector<Entry> kept;
  for (Entry& entry : scored) {
    if (kept.size() >= options.max_candidates) break;
    bool merged = false;
    for (const Entry& rep : kept) {
      if (options.cluster_similarity <= 0.0) break;
      int64_t lo = std::min(rep.candidate.size.bytes(),
                            entry.candidate.size.bytes());
      int64_t hi = std::max(rep.candidate.size.bytes(),
                            entry.candidate.size.bytes());
      if (static_cast<double>(hi) >
          options.cluster_size_ratio * static_cast<double>(lo)) {
        continue;
      }
      size_t both = 0;
      size_t either = 0;
      for (size_t q = 0; q < entry.coverage.size(); ++q) {
        both += rep.coverage[q] && entry.coverage[q];
        either += rep.coverage[q] || entry.coverage[q];
      }
      if (static_cast<double>(both) >=
          options.cluster_similarity * static_cast<double>(either)) {
        merged = true;
        break;
      }
    }
    if (!merged) kept.push_back(std::move(entry));
  }
  std::vector<ViewCandidate> out;
  for (Entry& entry : kept) out.push_back(std::move(entry.candidate));
  return out;
}

TEST(CandidateGenEquivalence, MatchesNaiveReferenceOnDriftedSsbWorkloads) {
  CubeLattice lattice =
      CubeLattice::Build(MakeSsbSchema(SsbConfig{}).MoveValue()).MoveValue();
  MapReduceSimulator simulator(lattice, MapReduceParams{});
  const int64_t kNodes[] = {5, 3, 8, 10};
  Rng rng(20120326);
  int clustering_merged = 0;
  for (int round = 0; round < 24; ++round) {
    // The shape of the advisor benchmark's cold-drift requests: 13-64
    // queries on random SSB cuboids, frequencies 1-12.
    std::vector<QuerySpec> queries;
    int64_t count = rng.UniformInt(13, 64);
    for (int64_t q = 0; q < count; ++q) {
      queries.push_back(QuerySpec{
          .name = "q" + std::to_string(q),
          .target = static_cast<CuboidId>(rng.Uniform(lattice.num_nodes())),
          .frequency = static_cast<uint64_t>(rng.UniformInt(1, 12))});
    }
    Workload workload(std::move(queries));
    ClusterSpec cluster{InstanceType{.name = "small",
                                     .price_per_hour = Money::FromCents(12),
                                     .compute_units = 1.0},
                        kNodes[round % 4]};
    CandidateGenOptions options;
    options.max_candidates = static_cast<size_t>(rng.UniformInt(20, 50));
    if (round % 2 == 1) options.cluster_similarity = 0.6;
    if (round % 3 == 2) options.max_rows_fraction = 0.05;
    if (round % 5 == 4) options.maintenance_delta = DataSize::FromMB(64);
    if (round % 8 == 7) options.queries_only = true;

    auto got =
        GenerateCandidates(lattice, workload, simulator, cluster, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<ViewCandidate> want =
        ReferenceCandidates(lattice, workload, simulator, cluster, options);
    ASSERT_FALSE(want.empty()) << "round " << round;
    ASSERT_EQ(got->size(), want.size()) << "round " << round;
    for (size_t i = 0; i < want.size(); ++i) {
      const ViewCandidate& g = (*got)[i];
      const ViewCandidate& w = want[i];
      EXPECT_EQ(g.view, w.view) << "round " << round << " rank " << i;
      EXPECT_EQ(g.name, w.name) << "round " << round << " rank " << i;
      EXPECT_EQ(g.size, w.size) << "round " << round << " rank " << i;
      EXPECT_EQ(g.materialization_time, w.materialization_time)
          << "round " << round << " rank " << i;
      EXPECT_EQ(g.maintenance_time, w.maintenance_time)
          << "round " << round << " rank " << i;
    }
    if (options.cluster_similarity > 0.0) {
      CandidateGenOptions unclustered = options;
      unclustered.cluster_similarity = 0.0;
      std::vector<ViewCandidate> plain = ReferenceCandidates(
          lattice, workload, simulator, cluster, unclustered);
      bool same = plain.size() == want.size();
      for (size_t i = 0; same && i < want.size(); ++i) {
        same = plain[i].view == want[i].view;
      }
      clustering_merged += same ? 0 : 1;
    }
  }
  // The clustered rounds must exercise the merge, not just pass through.
  EXPECT_GT(clustering_merged, 0);
}

}  // namespace
}  // namespace cloudview
