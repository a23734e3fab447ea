#include "catalog/lattice.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/str_format.h"

namespace cloudview {

CubeLattice::CubeLattice(StarSchema schema) : schema_(std::move(schema)) {
  radix_.reserve(schema_.num_dimensions());
  num_nodes_ = 1;
  for (size_t d = 0; d < schema_.num_dimensions(); ++d) {
    radix_.push_back(
        static_cast<uint32_t>(schema_.dimension(d).num_levels()));
    num_nodes_ *= radix_.back();
  }
  base_.levels.assign(schema_.num_dimensions(), 0);

  // Fill both tables in id order: the level vector advances like an
  // odometer whose last dimension is the least significant digit.
  const size_t dims = radix_.size();
  levels_.assign(num_nodes_ * dims, 0);
  rows_.resize(num_nodes_);
  for (size_t id = 0; id < num_nodes_; ++id) {
    uint8_t* row = levels_.data() + id * dims;
    if (id > 0) {
      std::copy(row - dims, row, row);
      for (size_t d = dims; d-- > 0;) {
        if (row[d] + 1u < radix_[d]) {
          ++row[d];
          break;
        }
        row[d] = 0;
      }
    }
    rows_[id] = CardenasRows(row);
  }
}

Result<CubeLattice> CubeLattice::Build(StarSchema schema) {
  size_t nodes = 1;
  for (size_t d = 0; d < schema.num_dimensions(); ++d) {
    nodes *= schema.dimension(d).num_levels();
    if (nodes > kMaxNodes) {
      return Status::ResourceExhausted(
          StrFormat("lattice would exceed %zu cuboids", kMaxNodes));
    }
  }
  return CubeLattice(std::move(schema));
}

CuboidId CubeLattice::IdOf(const Cuboid& cuboid) const {
  CV_CHECK(cuboid.levels.size() == radix_.size())
      << "cuboid has wrong dimension count";
  uint64_t id = 0;
  for (size_t d = 0; d < radix_.size(); ++d) {
    CV_CHECK(cuboid.levels[d] < radix_[d])
        << "level out of range on dimension " << d;
    id = id * radix_[d] + cuboid.levels[d];
  }
  return static_cast<CuboidId>(id);
}

Cuboid CubeLattice::CuboidOf(CuboidId id) const {
  CV_CHECK(id < num_nodes_) << "cuboid id out of range";
  const uint8_t* row = LevelsOf(id);
  return Cuboid{std::vector<uint8_t>(row, row + radix_.size())};
}

CuboidId CubeLattice::apex_id() const {
  Cuboid apex;
  apex.levels.reserve(radix_.size());
  for (uint32_t r : radix_) {
    apex.levels.push_back(static_cast<uint8_t>(r - 1));
  }
  return IdOf(apex);
}

Result<CuboidId> CubeLattice::NodeByLevels(
    const std::vector<std::string>& level_names) const {
  if (level_names.size() != radix_.size()) {
    return Status::InvalidArgument(
        StrFormat("expected %zu level names, got %zu", radix_.size(),
                  level_names.size()));
  }
  Cuboid cuboid;
  cuboid.levels.reserve(radix_.size());
  for (size_t d = 0; d < radix_.size(); ++d) {
    CV_ASSIGN_OR_RETURN(size_t idx,
                        schema_.dimension(d).LevelIndex(level_names[d]));
    cuboid.levels.push_back(static_cast<uint8_t>(idx));
  }
  return IdOf(cuboid);
}

bool CubeLattice::CanAnswer(CuboidId view, CuboidId query) const {
  CV_CHECK(view < num_nodes_ && query < num_nodes_)
      << "cuboid id out of range";
  const uint8_t* v = LevelsOf(view);
  const uint8_t* q = LevelsOf(query);
  for (size_t d = 0; d < radix_.size(); ++d) {
    if (v[d] > q[d]) return false;
  }
  return true;
}

std::vector<CuboidId> CubeLattice::Parents(CuboidId id) const {
  Cuboid cuboid = CuboidOf(id);
  std::vector<CuboidId> out;
  for (size_t d = 0; d < radix_.size(); ++d) {
    if (cuboid.levels[d] + 1u < radix_[d]) {
      Cuboid parent = cuboid;
      parent.levels[d] += 1;
      out.push_back(IdOf(parent));
    }
  }
  return out;
}

std::vector<CuboidId> CubeLattice::Children(CuboidId id) const {
  Cuboid cuboid = CuboidOf(id);
  std::vector<CuboidId> out;
  for (size_t d = 0; d < radix_.size(); ++d) {
    if (cuboid.levels[d] > 0) {
      Cuboid child = cuboid;
      child.levels[d] -= 1;
      out.push_back(IdOf(child));
    }
  }
  return out;
}

uint64_t CubeLattice::KeySpace(const uint8_t* levels) const {
  // Saturating product of level cardinalities.
  uint64_t space = 1;
  for (size_t d = 0; d < radix_.size(); ++d) {
    uint64_t card = schema_.dimension(d).level(levels[d]).cardinality;
    if (card != 0 && space > UINT64_MAX / card) return UINT64_MAX;
    space *= card;
  }
  return space;
}

uint64_t CubeLattice::CardenasRows(const uint8_t* levels) const {
  uint64_t d = KeySpace(levels);
  uint64_t n = schema_.stats().fact_rows;
  if (d == 0) return 0;
  // Cardenas: expected distinct keys among n facts over d possible keys,
  // d(1 - (1-1/d)^n) ~= d(1 - e^(-n/d)); capped by both n and d.
  long double dd = static_cast<long double>(d);
  long double nn = static_cast<long double>(n);
  long double expected = dd * (1.0L - std::exp(-nn / dd));
  uint64_t est = static_cast<uint64_t>(expected);
  if (est > d) est = d;
  if (est > n) est = n;
  return est == 0 ? 1 : est;
}

uint64_t CubeLattice::EstimateRows(CuboidId id) const {
  CV_CHECK(id < num_nodes_) << "cuboid id out of range";
  return rows_[id];
}

DataSize CubeLattice::EstimateSize(CuboidId id) const {
  uint64_t rows = EstimateRows(id);
  return DataSize::FromBytes(static_cast<int64_t>(rows) *
                             schema_.stats().bytes_per_view_row);
}

std::string CubeLattice::NameOf(CuboidId id) const {
  CV_CHECK(id < num_nodes_) << "cuboid id out of range";
  const uint8_t* levels = LevelsOf(id);
  std::vector<std::string> parts;
  parts.reserve(radix_.size());
  for (size_t d = 0; d < radix_.size(); ++d) {
    parts.push_back(schema_.dimension(d).level(levels[d]).name);
  }
  return "(" + Join(parts, ", ") + ")";
}

}  // namespace cloudview
