#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace stats {

p2_quantile::p2_quantile(double q) : q_(q) {
  util::expects(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
  increment_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
}

double p2_quantile::parabolic(int i, double d) const noexcept {
  return heights_[i] +
         d / (positions_[i + 1] - positions_[i - 1]) *
             ((positions_[i] - positions_[i - 1] + d) *
                  (heights_[i + 1] - heights_[i]) /
                  (positions_[i + 1] - positions_[i]) +
              (positions_[i + 1] - positions_[i] - d) *
                  (heights_[i] - heights_[i - 1]) /
                  (positions_[i] - positions_[i - 1]));
}

double p2_quantile::linear(int i, int d) const noexcept {
  return heights_[i] + d * (heights_[i + d] - heights_[i]) /
                           (positions_[i + d] - positions_[i]);
}

void p2_quantile::add(double x) noexcept {
  if (n_ < 5) {
    heights_[n_] = x;
    ++n_;
    if (n_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (int i = 0; i < 5; ++i) {
        positions_[i] = i + 1;
        desired_[i] = 1.0 + 4.0 * increment_[i];
      }
    }
    return;
  }

  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increment_[i];

  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    if ((d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0) ||
        (d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0)) {
      const int sign = d >= 0 ? 1 : -1;
      double candidate = parabolic(i, sign);
      if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
        heights_[i] = candidate;
      } else {
        heights_[i] = linear(i, sign);
      }
      positions_[i] += sign;
    }
  }
  ++n_;
}

double p2_quantile::value() const noexcept {
  if (n_ == 0) return 0.0;
  if (n_ < 5) {
    // Exact small-sample quantile (nearest-rank on the sorted prefix).
    std::array<double, 5> tmp = heights_;
    std::sort(tmp.begin(), tmp.begin() + static_cast<long>(n_));
    const auto idx = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(n_ - 1),
                         std::floor(q_ * static_cast<double>(n_))));
    return tmp[idx];
  }
  return heights_[2];
}

double rank_quantile(std::vector<double>& xs, double q) {
  util::expects(!xs.empty(), "quantile of an empty sample");
  util::expects(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  const auto rank = std::min(
      xs.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(xs.size())));
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(xs.begin(), nth, xs.end());
  return *nth;
}

}  // namespace stats
