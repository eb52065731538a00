// P² streaming quantile estimator (Jain & Chlamtac, CACM 1985): tracks one
// quantile in O(1) memory without storing observations — suitable for
// on-line trajectory filtering where retaining raw data would "turn into
// big data" (paper §abstract). Where the whole sample is at hand anyway (a
// cut's N values), rank_quantile gives the exact order statistic instead.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace stats {

class p2_quantile {
 public:
  /// Track the q-quantile, q in (0,1).
  explicit p2_quantile(double q);

  void add(double x) noexcept;

  /// Current estimate. Exact while fewer than 5 observations have arrived.
  double value() const noexcept;

  std::uint64_t count() const noexcept { return n_; }

 private:
  double parabolic(int i, double d) const noexcept;
  double linear(int i, int d) const noexcept;

  double q_;
  std::uint64_t n_ = 0;
  std::array<double, 5> heights_{};    // marker heights
  std::array<double, 5> positions_{};  // actual marker positions
  std::array<double, 5> desired_{};    // desired marker positions
  std::array<double, 5> increment_{};  // desired position increments
};

/// Exact rank quantile: the element of rank floor(q * n), clamped to n - 1,
/// of the n = xs.size() values (xs is reordered in place by
/// std::nth_element). At q = 0.5 this is the element summarize_cut reports
/// as the median. Requires a non-empty xs and q in [0, 1].
double rank_quantile(std::vector<double>& xs, double q);

}  // namespace stats
