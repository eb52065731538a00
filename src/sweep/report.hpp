// The queryable result of a sweep campaign: per-cell ONLINE reductions —
// mean/variance (Welford), exact rank quantiles, and k-means cluster
// splits per observable per sample point — folded at window boundaries
// while the campaign streams, never from retained raw trajectories.
//
// Quantile rule: q10/q50/q90 are the elements of rank floor(q * N),
// clamped to N - 1, of the cell's N values at that sample point
// (stats::rank_quantile), so q50 equals stats::summarize_cut's median.
// Reports written before this rule (when these were P² estimates) differ
// from today's in the q10/q50/q90 fields only.
//
// Determinism contract: for a fixed (model, plan, sim_config) the report
// is byte-identical across backends (farm vs batched), batch widths, and
// worker counts. Cuts complete in sample-index order per cell, every
// reduction folds the cell's N trajectories in trajectory-id order, and
// k-means is seeded from sim_config::seed — scheduling can reorder the
// work but never the folds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/kmeans.hpp"
#include "stats/welford.hpp"
#include "sweep/plan.hpp"

namespace cwcsim::sweep {

/// Reductions of one observable over one cell's N trajectories at one
/// sample point.
struct observable_summary {
  stats::welford moments;  ///< mean/variance/min/max over the cell
  double q10 = 0.0;        ///< element of rank floor(0.1 N), clamped to N-1
  double q50 = 0.0;        ///< element of rank floor(0.5 N): the median
  double q90 = 0.0;        ///< element of rank floor(0.9 N), clamped to N-1
};

/// One (cell, sample point): per-observable reductions plus the k-means
/// split of the full observable vectors (bistability detection).
struct point_summary {
  std::uint64_t sample_index = 0;
  double time = 0.0;
  std::vector<observable_summary> observables;
  stats::kmeans_result clusters;  ///< empty when kmeans_k == 0
};

/// One parameter cell's complete result.
struct cell_report {
  std::vector<rate_override> overrides;  ///< this cell's parameter point
  std::vector<point_summary> points;     ///< ascending sample_index
  std::uint64_t trajectories = 0;        ///< lanes that reached t_end
  std::uint64_t steps = 0;               ///< total SSA steps across lanes
};

/// The campaign result: cells in plan order, observable column names, and
/// a JSON serialization for downstream tooling.
struct report {
  std::vector<std::string> observables;  ///< column names of every summary row
  std::vector<cell_report> cells;        ///< plan::cells() order
  bool stopped = false;  ///< cooperative stop cut the campaign short

  /// The cell whose overrides match exactly (name and value, same order as
  /// plan materialization), or nullptr.
  const cell_report* find(
      const std::vector<rate_override>& overrides) const noexcept;

  /// Serialize everything (cells, points, moments, quantiles, clusters)
  /// as one JSON object. Doubles print with %.17g (round-trip exact).
  std::string to_json() const;
};

}  // namespace cwcsim::sweep
