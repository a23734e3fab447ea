#include "core/optimizer/candidate_generation.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace cloudview {
namespace {

/// One scored pool cuboid. Its query-coverage bitset (bit q set when
/// the view answers query q faster than the fact table), which the
/// clustering pass measures similarity on, lives in a flat array at
/// words [coverage, coverage + coverage_words).
struct Scored {
  CuboidId view = 0;
  DataSize size;
  double benefit = 0.0;
  size_t coverage = 0;
};

/// Whether `a` and `b` are near-duplicates under the clustering knobs:
/// query-coverage Jaccard >= cluster_similarity and sizes within
/// cluster_size_ratio. Division-free (and float-==-free): the Jaccard
/// threshold is checked as |A∩B| >= s·|A∪B|.
bool NearDuplicate(const Scored& a, const Scored& b,
                   const std::vector<uint64_t>& coverage,
                   size_t coverage_words,
                   const CandidateGenOptions& options) {
  int64_t size_a = a.size.bytes();
  int64_t size_b = b.size.bytes();
  int64_t size_min = std::min(size_a, size_b);
  int64_t size_max = std::max(size_a, size_b);
  if (static_cast<double>(size_max) >
      options.cluster_size_ratio * static_cast<double>(size_min)) {
    return false;
  }
  const uint64_t* cover_a = coverage.data() + a.coverage;
  const uint64_t* cover_b = coverage.data() + b.coverage;
  uint64_t intersection = 0;
  uint64_t unions = 0;
  for (size_t w = 0; w < coverage_words; ++w) {
    intersection += static_cast<uint64_t>(
        __builtin_popcountll(cover_a[w] & cover_b[w]));
    unions += static_cast<uint64_t>(
        __builtin_popcountll(cover_a[w] | cover_b[w]));
  }
  return static_cast<double>(intersection) >=
         options.cluster_similarity * static_cast<double>(unions);
}

}  // namespace

Result<std::vector<ViewCandidate>> GenerateCandidates(
    const CubeLattice& lattice, const Workload& workload,
    const MapReduceSimulator& simulator, const ClusterSpec& cluster,
    const CandidateGenOptions& options) {
  if (workload.empty()) {
    return Status::InvalidArgument("cannot generate candidates for an "
                                   "empty workload");
  }
  if (options.max_candidates == 0) {
    return Status::InvalidArgument("max_candidates must be positive");
  }
  if (options.max_size_fraction <= 0.0) {
    return Status::InvalidArgument("max_size_fraction must be positive");
  }
  if (options.max_rows_fraction <= 0.0) {
    return Status::InvalidArgument("max_rows_fraction must be positive");
  }
  if (options.cluster_similarity < 0.0 ||
      options.cluster_similarity > 1.0) {
    return Status::InvalidArgument(
        "cluster_similarity must be within [0, 1]");
  }
  if (options.cluster_similarity > 0.0 &&
      options.cluster_size_ratio < 1.0) {
    return Status::InvalidArgument("cluster_size_ratio must be >= 1");
  }

  double fact_bytes =
      static_cast<double>(lattice.fact_scan_size().bytes());

  // Pool: cuboids that can answer >= 1 query (they are exactly the
  // descendants-or-equal of workload cuboids in lattice order), scanned
  // in ascending id order. A cuboid that answers no query scores zero
  // benefit below and drops out there, so only queries_only needs an
  // explicit pool: a bitmap of the workload's own cuboids. The finest
  // cuboid is a legitimate candidate: its aggregate is far smaller than
  // the raw fact table it would replace as a scan target.
  const size_t num_nodes = lattice.num_nodes();
  std::vector<bool> targets;
  if (options.queries_only) {
    targets.assign(num_nodes, false);
    for (const QuerySpec& q : workload.queries()) {
      CV_CHECK(q.target < num_nodes) << "cuboid id out of range";
      targets[q.target] = true;
    }
  }

  // Per-query inputs of the scoring loop, computed once.
  const size_t m = workload.size();
  std::vector<Duration> from_fact(m);
  std::vector<DataSize> result_size(m);
  for (size_t qi = 0; qi < m; ++qi) {
    CuboidId target = workload.query(qi).target;
    from_fact[qi] = simulator.QueryTimeFromFact(target, cluster);
    result_size[qi] = lattice.EstimateSize(target);
  }

  // HRU benefit: frequency-weighted time saved across the workload when
  // the candidate is materialized alone.
  double fact_rows =
      static_cast<double>(lattice.schema().stats().fact_rows);
  const size_t coverage_words = (m + 63) / 64;
  std::vector<uint64_t> coverage;
  std::vector<Scored> scored;
  for (CuboidId id = 0; id < num_nodes; ++id) {
    if (options.queries_only && !targets[id]) continue;
    DataSize size = lattice.EstimateSize(id);
    double size_fraction = static_cast<double>(size.bytes()) / fact_bytes;
    if (size_fraction > options.max_size_fraction) continue;
    double rows_fraction =
        static_cast<double>(lattice.EstimateRows(id)) / fact_rows;
    if (rows_fraction > options.max_rows_fraction) continue;

    Scored entry{.view = id, .size = size, .coverage = coverage.size()};
    coverage.resize(coverage.size() + coverage_words, 0);
    uint64_t* cover = coverage.data() + entry.coverage;
    for (size_t qi = 0; qi < m; ++qi) {
      const QuerySpec& q = workload.query(qi);
      if (!lattice.CanAnswer(id, q.target)) continue;
      // QueryTimeFromView(id, q.target) with both sizes looked up once.
      Duration from_view = simulator.JobTime(size, result_size[qi], cluster);
      if (from_view < from_fact[qi]) {
        entry.benefit +=
            static_cast<double>(q.frequency) *
            static_cast<double>((from_fact[qi] - from_view).millis());
        cover[qi / 64] |= uint64_t{1} << (qi % 64);
      }
    }
    if (entry.benefit > 0.0) {
      scored.push_back(entry);
    } else {
      coverage.resize(entry.coverage);  // Drop the unused words.
    }
  }

  // Total order (lint D3: no float-equal tie decides placement): benefit
  // descending, CuboidId ascending on ties — so the ranking, and the
  // resize() truncation below it, are deterministic whatever the sort.
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.benefit > b.benefit) return true;
              if (b.benefit > a.benefit) return false;
              return a.view < b.view;
            });

  if (options.cluster_similarity > 0.0) {
    // Near-duplicate merge (DESIGN.md §13.5): walk the ranked roster,
    // fold candidates into the first kept near-duplicate; stop once the
    // budget is full. The representative is the best-benefit member of
    // its cluster because the scan order is the total benefit order.
    std::vector<Scored> kept;
    kept.reserve(options.max_candidates);
    for (const Scored& entry : scored) {
      if (kept.size() >= options.max_candidates) break;
      bool merged = false;
      for (const Scored& representative : kept) {
        if (NearDuplicate(representative, entry, coverage, coverage_words,
                          options)) {
          merged = true;
          break;
        }
      }
      if (!merged) kept.push_back(entry);
    }
    scored.swap(kept);
  } else if (scored.size() > options.max_candidates) {
    scored.resize(options.max_candidates);
  }

  // Names and build times only for the kept roster.
  std::vector<ViewCandidate> out;
  out.reserve(scored.size());
  for (const Scored& entry : scored) {
    out.push_back(ViewCandidate{
        .view = entry.view,
        .name = lattice.NameOf(entry.view),
        .size = entry.size,
        .materialization_time =
            simulator.MaterializationTimeFromFact(entry.view, cluster),
        .maintenance_time = simulator.MaintenanceTime(
            entry.view, options.maintenance_delta, cluster),
    });
  }
  return out;
}

}  // namespace cloudview
