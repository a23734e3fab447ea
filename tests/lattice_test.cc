// CubeLattice: ids, partial order, walks, and cardinality estimation.

#include "catalog/lattice.h"

#include <gtest/gtest.h>

#include "engine/sales_generator.h"

namespace cloudview {
namespace {

class LatticeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SalesConfig config;
    lattice_ = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
  }

  CuboidId Node(const std::string& time, const std::string& geo) {
    return lattice_->NodeByLevels({time, geo}).value();
  }

  std::unique_ptr<CubeLattice> lattice_;
};

TEST_F(LatticeTest, NodeCountIsProductOfLevels) {
  // Time: day/month/year/ALL x Geography: department/region/country/ALL.
  EXPECT_EQ(lattice_->num_nodes(), 16u);
}

TEST_F(LatticeTest, IdRoundTrip) {
  for (CuboidId id = 0; id < lattice_->num_nodes(); ++id) {
    EXPECT_EQ(lattice_->IdOf(lattice_->CuboidOf(id)), id);
  }
}

TEST_F(LatticeTest, BaseAndApex) {
  EXPECT_EQ(lattice_->base_id(), Node("day", "department"));
  EXPECT_EQ(lattice_->apex_id(), Node("ALL", "ALL"));
}

TEST_F(LatticeTest, NodeByLevelsRejectsBadInput) {
  EXPECT_TRUE(lattice_->NodeByLevels({"day"}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(lattice_->NodeByLevels({"day", "continent"})
                  .status()
                  .IsNotFound());
}

TEST_F(LatticeTest, CanAnswerRequiresFinerOrEqualOnEveryDimension) {
  CuboidId mr = Node("month", "region");
  EXPECT_TRUE(lattice_->CanAnswer(mr, Node("year", "country")));
  EXPECT_TRUE(lattice_->CanAnswer(mr, mr));
  EXPECT_TRUE(lattice_->CanAnswer(mr, Node("month", "country")));
  EXPECT_TRUE(lattice_->CanAnswer(mr, Node("ALL", "ALL")));
  // Not finer on time.
  EXPECT_FALSE(lattice_->CanAnswer(mr, Node("day", "country")));
  // Not finer on geography.
  EXPECT_FALSE(lattice_->CanAnswer(mr, Node("year", "department")));
  // Base answers everything.
  for (CuboidId id = 0; id < lattice_->num_nodes(); ++id) {
    EXPECT_TRUE(lattice_->CanAnswer(lattice_->base_id(), id));
  }
}

TEST_F(LatticeTest, CanAnswerIsAPartialOrder) {
  for (CuboidId a = 0; a < lattice_->num_nodes(); ++a) {
    EXPECT_TRUE(lattice_->CanAnswer(a, a));  // Reflexive.
    for (CuboidId b = 0; b < lattice_->num_nodes(); ++b) {
      if (a == b) continue;
      // Antisymmetric.
      EXPECT_FALSE(lattice_->CanAnswer(a, b) &&
                   lattice_->CanAnswer(b, a));
      for (CuboidId c = 0; c < lattice_->num_nodes(); ++c) {
        // Transitive.
        if (lattice_->CanAnswer(a, b) && lattice_->CanAnswer(b, c)) {
          EXPECT_TRUE(lattice_->CanAnswer(a, c));
        }
      }
    }
  }
}

TEST_F(LatticeTest, ParentsAndChildren) {
  CuboidId mr = Node("month", "region");
  auto parents = lattice_->Parents(mr);
  EXPECT_EQ(parents.size(), 2u);  // (year, region) and (month, country).
  auto children = lattice_->Children(mr);
  EXPECT_EQ(children.size(), 2u);  // (day, region), (month, department).

  EXPECT_EQ(lattice_->Parents(lattice_->apex_id()).size(), 0u);
  EXPECT_EQ(lattice_->Children(lattice_->base_id()).size(), 0u);
}

TEST_F(LatticeTest, ParentsAreExactlyOneLevelCoarser) {
  for (CuboidId id = 0; id < lattice_->num_nodes(); ++id) {
    for (CuboidId parent : lattice_->Parents(id)) {
      EXPECT_TRUE(lattice_->CanAnswer(id, parent));
      EXPECT_FALSE(lattice_->CanAnswer(parent, id));
    }
    for (CuboidId child : lattice_->Children(id)) {
      EXPECT_TRUE(lattice_->CanAnswer(child, id));
    }
  }
}

TEST_F(LatticeTest, SelfAndBaseAnswerEveryCuboid) {
  for (CuboidId id = 0; id < lattice_->num_nodes(); ++id) {
    EXPECT_TRUE(lattice_->CanAnswer(id, id));
    EXPECT_TRUE(lattice_->CanAnswer(lattice_->base_id(), id));
  }
}

TEST_F(LatticeTest, EstimateRowsApexIsOne) {
  EXPECT_EQ(lattice_->EstimateRows(lattice_->apex_id()), 1u);
}

TEST_F(LatticeTest, EstimateRowsSmallCuboidsMatchKeySpace) {
  // (year, ALL): 11 possible keys, 100M facts -> all 11 present.
  EXPECT_EQ(lattice_->EstimateRows(Node("year", "ALL")), 11u);
  // (year, country): 11 x 25 = 275.
  EXPECT_EQ(lattice_->EstimateRows(Node("year", "country")), 275u);
}

TEST_F(LatticeTest, EstimateRowsMonotoneAlongRollUp) {
  // A finer cuboid never has fewer rows than any of its parents.
  for (CuboidId id = 0; id < lattice_->num_nodes(); ++id) {
    for (CuboidId parent : lattice_->Parents(id)) {
      EXPECT_GE(lattice_->EstimateRows(id),
                lattice_->EstimateRows(parent));
    }
  }
}

TEST_F(LatticeTest, EstimateRowsNeverExceedsFactsOrKeySpace) {
  uint64_t facts = lattice_->schema().stats().fact_rows;
  for (CuboidId id = 0; id < lattice_->num_nodes(); ++id) {
    EXPECT_LE(lattice_->EstimateRows(id), facts);
  }
}

TEST_F(LatticeTest, EstimateSizeUsesViewRowWidth) {
  CuboidId yc = Node("year", "country");
  EXPECT_EQ(lattice_->EstimateSize(yc),
            DataSize::FromBytes(275 * 32));
}

TEST_F(LatticeTest, FactScanSizeIsLogicalDatasetSize) {
  // fact_rows x bytes_per_row; the row count floors 10 GB / 100 B.
  EXPECT_EQ(lattice_->fact_scan_size().bytes(),
            static_cast<int64_t>(lattice_->schema().stats().fact_rows) *
                100);
  EXPECT_NEAR(lattice_->fact_scan_size().gigabytes(), 10.0, 1e-6);
  // Even the finest cuboid's aggregate is far smaller than the raw scan.
  EXPECT_LT(lattice_->EstimateSize(lattice_->base_id()),
            lattice_->fact_scan_size());
}

TEST_F(LatticeTest, NameOf) {
  EXPECT_EQ(lattice_->NameOf(Node("month", "country")),
            "(month, country)");
  EXPECT_EQ(lattice_->NameOf(lattice_->apex_id()), "(ALL, ALL)");
}

TEST(LatticeBuild, RejectsHugeLattices) {
  std::vector<DimensionLevel> levels;
  for (int i = 0; i < 64; ++i) {
    levels.push_back({"l" + std::to_string(i), 1});
  }
  std::vector<Dimension> dims;
  for (int d = 0; d < 8; ++d) {
    dims.push_back(
        Dimension::Create("d" + std::to_string(d), levels).MoveValue());
  }
  auto schema = StarSchema::Create("f", std::move(dims),
                                   {{"m", AggFn::kSum}},
                                   PhysicalStats{.fact_rows = 10});
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(CubeLattice::Build(schema.MoveValue())
                  .status()
                  .IsResourceExhausted());
}

}  // namespace
}  // namespace cloudview
