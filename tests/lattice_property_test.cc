// Randomized lattice properties: for randomly shaped schemas (dimension
// counts, level depths, cardinalities), the partial order, the id
// encoding, the cardinality estimator and the key codec must hold their
// invariants. Parameterized over seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "catalog/key_codec.h"
#include "catalog/lattice.h"
#include "common/random.h"

namespace cloudview {
namespace {

// 1..max_dims dimensions of 1..max_depth explicit levels each.
StarSchema RandomSchema(Rng& rng, size_t max_dims = 4,
                        size_t max_depth = 3) {
  size_t num_dims = 1 + rng.Uniform(max_dims);
  std::vector<Dimension> dims;
  for (size_t d = 0; d < num_dims; ++d) {
    size_t depth = 1 + rng.Uniform(max_depth);
    std::vector<DimensionLevel> levels;
    uint64_t card = 1 + rng.Uniform(5000);
    for (size_t l = 0; l < depth; ++l) {
      levels.push_back(
          {"d" + std::to_string(d) + "_l" + std::to_string(l), card});
      card = 1 + rng.Uniform(card);  // Coarser level: smaller or equal.
    }
    dims.push_back(
        Dimension::Create("dim" + std::to_string(d), std::move(levels))
            .MoveValue());
  }
  PhysicalStats stats;
  stats.fact_rows = 1 + rng.Uniform(100'000'000);
  return StarSchema::Create("fact", std::move(dims),
                            {{"m", AggFn::kSum}}, stats)
      .MoveValue();
}

class LatticePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatticePropertyTest, IdRoundTripAndOrderInvariants) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    CubeLattice lattice =
        CubeLattice::Build(RandomSchema(rng)).MoveValue();
    size_t n = lattice.num_nodes();
    ASSERT_GE(n, 2u);

    // Sample node pairs rather than enumerating n^2 for big lattices.
    for (int probe = 0; probe < 200; ++probe) {
      CuboidId a = static_cast<CuboidId>(rng.Uniform(n));
      CuboidId b = static_cast<CuboidId>(rng.Uniform(n));

      // Id round trip.
      EXPECT_EQ(lattice.IdOf(lattice.CuboidOf(a)), a);

      // Base answers everything; apex answers only itself.
      EXPECT_TRUE(lattice.CanAnswer(lattice.base_id(), a));
      if (a != lattice.apex_id()) {
        EXPECT_FALSE(lattice.CanAnswer(lattice.apex_id(), a));
      }

      // Antisymmetry.
      if (a != b) {
        EXPECT_FALSE(lattice.CanAnswer(a, b) && lattice.CanAnswer(b, a));
      }

      // Estimator: monotone along answerability, bounded by facts.
      if (lattice.CanAnswer(a, b)) {
        EXPECT_GE(lattice.EstimateRows(a), lattice.EstimateRows(b));
      }
      EXPECT_LE(lattice.EstimateRows(a),
                lattice.schema().stats().fact_rows);
      EXPECT_GE(lattice.EstimateRows(a), 1u);
    }

    // Parents/children are inverse neighbour relations.
    for (int probe = 0; probe < 20; ++probe) {
      CuboidId id = static_cast<CuboidId>(rng.Uniform(n));
      for (CuboidId parent : lattice.Parents(id)) {
        auto children = lattice.Children(parent);
        EXPECT_NE(std::find(children.begin(), children.end(), id),
                  children.end());
      }
    }
  }
}

TEST_P(LatticePropertyTest, KeyCodecRoundTripsRandomKeys) {
  Rng rng(GetParam() ^ 0xC0DEC);
  for (int round = 0; round < 10; ++round) {
    StarSchema schema = RandomSchema(rng);
    auto codec = KeyCodec::ForSchema(schema);
    if (!codec.ok()) continue;  // >64-bit keys are validly rejected.
    for (int probe = 0; probe < 100; ++probe) {
      std::vector<uint32_t> key(schema.num_dimensions());
      for (size_t d = 0; d < key.size(); ++d) {
        key[d] = static_cast<uint32_t>(
            rng.Uniform(schema.dimension(d).level(0).cardinality));
      }
      uint64_t packed = codec->Encode(key);
      EXPECT_EQ(codec->Decode(packed), key);
      for (size_t d = 0; d < key.size(); ++d) {
        EXPECT_EQ(codec->DecodeDim(packed, d), key[d]);
      }
    }
  }
}

TEST_P(LatticePropertyTest, EstimateSizeConsistentWithRows) {
  Rng rng(GetParam() ^ 0x517E);
  for (int round = 0; round < 10; ++round) {
    CubeLattice lattice =
        CubeLattice::Build(RandomSchema(rng)).MoveValue();
    int64_t view_width = lattice.schema().stats().bytes_per_view_row;
    for (int probe = 0; probe < 50; ++probe) {
      CuboidId id =
          static_cast<CuboidId>(rng.Uniform(lattice.num_nodes()));
      EXPECT_EQ(lattice.EstimateSize(id).bytes(),
                static_cast<int64_t>(lattice.EstimateRows(id)) *
                    view_width);
    }
    // Every cuboid's aggregate is at most the raw fact scan when view
    // rows are no wider than fact rows.
    if (view_width <= lattice.schema().stats().bytes_per_fact_row) {
      for (int probe = 0; probe < 20; ++probe) {
        CuboidId id =
            static_cast<CuboidId>(rng.Uniform(lattice.num_nodes()));
        EXPECT_LE(lattice.EstimateSize(id), lattice.fact_scan_size());
      }
    }
  }
}

// The level and row tables Build() precomputes must agree with the
// definitions they replace: CanAnswer is a per-dimension comparison of
// the decoded level vectors, EstimateRows is Cardenas over the cuboid's
// key space. The reference decodes ids by mixed-radix division, as
// CuboidOf did before the tables, so it shares nothing with them. Every
// pair of a small lattice is checked; pairs of a large one are sampled.
std::vector<uint8_t> DecodeLevels(const CubeLattice& lattice, CuboidId id) {
  const StarSchema& schema = lattice.schema();
  std::vector<uint8_t> levels(schema.num_dimensions());
  uint64_t rest = id;
  for (size_t d = levels.size(); d-- > 0;) {
    uint64_t radix = schema.dimension(d).num_levels();
    levels[d] = static_cast<uint8_t>(rest % radix);
    rest /= radix;
  }
  return levels;
}

bool ReferenceCanAnswer(const CubeLattice& lattice, CuboidId view,
                        CuboidId query) {
  std::vector<uint8_t> v = DecodeLevels(lattice, view);
  std::vector<uint8_t> q = DecodeLevels(lattice, query);
  for (size_t d = 0; d < v.size(); ++d) {
    if (v[d] > q[d]) return false;
  }
  return true;
}

uint64_t ReferenceCardenasRows(const CubeLattice& lattice, CuboidId id) {
  const StarSchema& schema = lattice.schema();
  std::vector<uint8_t> levels = DecodeLevels(lattice, id);
  uint64_t d = 1;
  for (size_t dim = 0; dim < levels.size(); ++dim) {
    uint64_t card = schema.dimension(dim).level(levels[dim]).cardinality;
    if (card != 0 && d > UINT64_MAX / card) {
      d = UINT64_MAX;
      break;
    }
    d *= card;
  }
  uint64_t n = schema.stats().fact_rows;
  if (d == 0) return 0;
  long double dd = static_cast<long double>(d);
  long double nn = static_cast<long double>(n);
  uint64_t est =
      static_cast<uint64_t>(dd * (1.0L - std::exp(-nn / dd)));
  est = std::min({est, d, n});
  return est == 0 ? 1 : est;
}

void ExpectTablesMatch(const CubeLattice& lattice, Rng& rng) {
  const size_t n = lattice.num_nodes();
  auto expect_cuboid = [&](CuboidId id) {
    EXPECT_EQ(lattice.CuboidOf(id).levels, DecodeLevels(lattice, id))
        << "cuboid " << id;
    EXPECT_EQ(lattice.EstimateRows(id), ReferenceCardenasRows(lattice, id))
        << "cuboid " << id;
  };
  if (n <= 4096) {
    for (CuboidId id = 0; id < n; ++id) expect_cuboid(id);
  } else {
    for (int probe = 0; probe < 4000; ++probe) {
      expect_cuboid(static_cast<CuboidId>(rng.Uniform(n)));
    }
  }
  if (n <= 64) {
    for (CuboidId a = 0; a < n; ++a) {
      for (CuboidId b = 0; b < n; ++b) {
        EXPECT_EQ(lattice.CanAnswer(a, b), ReferenceCanAnswer(lattice, a, b))
            << a << " -> " << b;
      }
    }
  } else {
    for (int probe = 0; probe < 4000; ++probe) {
      CuboidId a = static_cast<CuboidId>(rng.Uniform(n));
      CuboidId b = static_cast<CuboidId>(rng.Uniform(n));
      EXPECT_EQ(lattice.CanAnswer(a, b), ReferenceCanAnswer(lattice, a, b))
          << a << " -> " << b;
      // A cuboid's ancestors-or-self answer it: check one guaranteed-true
      // pair per probe too, since random pairs are mostly false.
      Cuboid finer = lattice.CuboidOf(b);
      for (uint8_t& level : finer.levels) {
        level = static_cast<uint8_t>(rng.Uniform(level + 1u));
      }
      EXPECT_TRUE(lattice.CanAnswer(lattice.IdOf(finer), b));
    }
  }
}

TEST_P(LatticePropertyTest, TablesMatchDecodedDefinitions) {
  Rng rng(GetParam() ^ 0x7AB1E);
  for (int round = 0; round < 10; ++round) {
    ExpectTablesMatch(CubeLattice::Build(RandomSchema(rng)).MoveValue(),
                      rng);
  }
  // One large lattice (more than 4096 cuboids, up to 7 dimensions of up
  // to 6 levels), where rows and pairs are sampled.
  for (;;) {
    CubeLattice large =
        CubeLattice::Build(RandomSchema(rng, 7, 5)).MoveValue();
    if (large.num_nodes() <= 4096) continue;
    ExpectTablesMatch(large, rng);
    break;
  }
}

// A dimension with 256 levels (255 named + ALL) is the widest a level
// byte holds: the table fill must carry past it.
TEST(LatticeTables, CarryPastAFullLevelByte) {
  std::vector<DimensionLevel> wide;
  for (int i = 0; i < 255; ++i) {
    wide.push_back({"w" + std::to_string(i), 1});
  }
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Create("wide", wide).MoveValue());
  dims.push_back(
      Dimension::Create("narrow", {{"n0", 3}}).MoveValue());
  CubeLattice lattice =
      CubeLattice::Build(StarSchema::Create("fact", std::move(dims),
                                            {{"m", AggFn::kSum}},
                                            PhysicalStats{.fact_rows = 10})
                             .MoveValue())
          .MoveValue();
  ASSERT_EQ(lattice.num_nodes(), 512u);
  Rng rng(7);
  ExpectTablesMatch(lattice, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace cloudview
