// Tests for the on-line statistics library: Welford moments, P² quantiles,
// k-means, period detection, cuts and sliding windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/stats.hpp"
#include "util/rng.hpp"

namespace {

TEST(Welford, MatchesTwoPassOnRandomData) {
  util::rng_stream rng(1, 1);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = 10.0 + 3.0 * rng.next_normal();

  stats::welford w;
  for (double x : xs) w.add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());

  EXPECT_NEAR(w.mean(), mean, 1e-9);
  EXPECT_NEAR(w.variance(), var, 1e-9);
  EXPECT_EQ(w.count(), xs.size());
  EXPECT_DOUBLE_EQ(w.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(w.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(Welford, MergeEqualsSequential) {
  util::rng_stream rng(2, 2);
  stats::welford all, a, b;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.next_normal() * (i % 7 + 1);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Welford, EmptyAndSingleton) {
  stats::welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  w.add(5.0);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.sample_variance(), 0.0);
}

class p2_param_test : public ::testing::TestWithParam<double> {};

TEST_P(p2_param_test, TracksQuantileOfNormalStream) {
  const double q = GetParam();
  util::rng_stream rng(3, 3);
  stats::p2_quantile est(q);
  std::vector<double> xs(20000);
  for (auto& x : xs) {
    x = rng.next_normal();
    est.add(x);
  }
  std::sort(xs.begin(), xs.end());
  const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
  EXPECT_NEAR(est.value(), exact, 0.06) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, p2_param_test,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9, 0.99));

TEST(P2Quantile, ExactForSmallSamples) {
  stats::p2_quantile est(0.5);
  est.add(3.0);
  est.add(1.0);
  est.add(2.0);
  EXPECT_DOUBLE_EQ(est.value(), 2.0);  // exact median of {1,2,3}
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(stats::p2_quantile(0.0), util::precondition_error);
  EXPECT_THROW(stats::p2_quantile(1.0), util::precondition_error);
}

TEST(Kmeans, SeparatesTwoObviousClusters) {
  std::vector<std::vector<double>> pts;
  util::rng_stream rng(4, 4);
  for (int i = 0; i < 50; ++i)
    pts.push_back({0.0 + rng.next_normal() * 0.1, 0.0 + rng.next_normal() * 0.1});
  for (int i = 0; i < 50; ++i)
    pts.push_back({10.0 + rng.next_normal() * 0.1, 10.0 + rng.next_normal() * 0.1});

  const auto res = stats::kmeans(pts, 2, /*seed=*/9);
  ASSERT_EQ(res.centroids.size(), 2u);
  // One centroid near (0,0), the other near (10,10).
  const bool zero_first = res.centroids[0][0] < 5.0;
  const auto& lo = res.centroids[zero_first ? 0 : 1];
  const auto& hi = res.centroids[zero_first ? 1 : 0];
  EXPECT_NEAR(lo[0], 0.0, 0.5);
  EXPECT_NEAR(hi[0], 10.0, 0.5);
  EXPECT_EQ(res.sizes[0] + res.sizes[1], 100u);
  EXPECT_EQ(res.sizes[0], 50u);
  // Every point assigned to its generating cluster.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(res.assignment[i], res.assignment[0]);
  for (int i = 50; i < 100; ++i) EXPECT_EQ(res.assignment[i], res.assignment[50]);
}

TEST(Kmeans, DeterministicForSeed) {
  std::vector<std::vector<double>> pts;
  util::rng_stream rng(5, 5);
  for (int i = 0; i < 200; ++i)
    pts.push_back({rng.next_uniform() * 10, rng.next_uniform() * 10});
  const auto a = stats::kmeans(pts, 3, 42);
  const auto b = stats::kmeans(pts, 3, 42);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(Kmeans, ClampsKAndHandlesEmpty) {
  EXPECT_TRUE(stats::kmeans({}, 3).centroids.empty());
  std::vector<std::vector<double>> two = {{1.0}, {2.0}};
  const auto res = stats::kmeans(two, 5, 1);
  EXPECT_EQ(res.centroids.size(), 2u);
}

TEST(Period, FindPeaksSimple) {
  std::vector<double> y = {0, 1, 0, 2, 0, 3, 0};
  const auto peaks = stats::find_peaks(y);
  EXPECT_EQ(peaks, (std::vector<std::size_t>{1, 3, 5}));
}

TEST(Period, ProminenceFiltersRipples) {
  std::vector<double> y = {0, 10, 9.8, 10.05, 0, 10, 0};
  const auto all = stats::find_peaks(y, 0.0);
  const auto strong = stats::find_peaks(y, 1.0);
  EXPECT_GT(all.size(), strong.size());
  ASSERT_EQ(strong.size(), 2u);
}

TEST(Period, LocalPeriodsOfSinusoid) {
  std::vector<double> t, y;
  const double period = 21.5;
  for (int i = 0; i < 2000; ++i) {
    t.push_back(i * 0.1);
    y.push_back(std::sin(2 * M_PI * t.back() / period));
  }
  const auto periods = stats::local_periods(t, y, 0.5);
  ASSERT_GE(periods.size(), 5u);
  for (double p : periods) EXPECT_NEAR(p, period, 0.2);
}

TEST(Period, MovingAverage) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  const auto ma = stats::moving_average(x, 3);
  ASSERT_EQ(ma.size(), 5u);
  EXPECT_DOUBLE_EQ(ma[0], 1.0);
  EXPECT_DOUBLE_EQ(ma[1], 1.5);
  EXPECT_DOUBLE_EQ(ma[2], 2.0);
  EXPECT_DOUBLE_EQ(ma[3], 3.0);
  EXPECT_DOUBLE_EQ(ma[4], 4.0);
}

TEST(Period, AutocorrelationPeriodOfSinusoid) {
  std::vector<double> y;
  for (int i = 0; i < 1000; ++i) y.push_back(std::sin(2 * M_PI * i / 50.0));
  const double lag = stats::autocorrelation_period(y, 200);
  EXPECT_NEAR(lag, 50.0, 1.0);
  const auto ac = stats::autocorrelation(y, 10);
  EXPECT_DOUBLE_EQ(ac[0], 1.0);
}

TEST(Cut, SummarizeComputesMomentsMediansClusters) {
  stats::trajectory_cut cut;
  cut.sample_index = 3;
  cut.time = 1.5;
  cut.values = {{1.0, 100.0}, {2.0, 200.0}, {3.0, 300.0}, {4.0, 400.0}};
  const auto s = stats::summarize_cut(cut, 2, 7);
  ASSERT_EQ(s.moments.size(), 2u);
  EXPECT_DOUBLE_EQ(s.moments[0].mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.moments[1].mean(), 250.0);
  EXPECT_DOUBLE_EQ(s.medians[0], 3.0);  // upper median
  EXPECT_EQ(s.clusters.centroids.size(), 2u);
  EXPECT_EQ(s.sample_index, 3u);
}

TEST(Cut, SummarizeRejectsRaggedCut) {
  stats::trajectory_cut cut;
  cut.values = {{1.0, 2.0}, {1.0}};
  EXPECT_THROW(stats::summarize_cut(cut, 0), util::precondition_error);
}

struct window_case {
  std::size_t size;
  std::size_t slide;
  std::size_t n_cuts;
};

class window_param_test : public ::testing::TestWithParam<window_case> {};

TEST_P(window_param_test, WindowsTileTheStreamCorrectly) {
  const auto [size, slide, n] = GetParam();
  stats::sliding_window_builder b(size, slide);
  std::vector<stats::trajectory_window> windows;
  for (std::size_t k = 0; k < n; ++k) {
    stats::trajectory_cut c;
    c.sample_index = k;
    c.time = static_cast<double>(k);
    for (auto& w : b.push(std::move(c))) windows.push_back(std::move(w));
  }
  for (auto& w : b.flush()) windows.push_back(std::move(w));

  // Full windows first: each starts at i*slide and has `size` consecutive cuts.
  std::size_t full = 0;
  for (const auto& w : windows) {
    if (w.cuts.size() == size) {
      EXPECT_EQ(w.first_sample, full * slide);
      for (std::size_t i = 0; i < w.cuts.size(); ++i)
        EXPECT_EQ(w.cuts[i].sample_index, w.first_sample + i);
      ++full;
    }
  }
  const std::size_t expect_full = n >= size ? (n - size) / slide + 1 : 0;
  EXPECT_EQ(full, expect_full);

  // Every cut index must appear in at least one window when slide <= size.
  std::vector<bool> covered(n, false);
  for (const auto& w : windows)
    for (const auto& c : w.cuts)
      if (c.sample_index < n) covered[c.sample_index] = true;
  for (std::size_t k = 0; k < n; ++k) EXPECT_TRUE(covered[k]) << "cut " << k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, window_param_test,
    ::testing::Values(window_case{1, 1, 10}, window_case{4, 4, 16},
                      window_case{4, 4, 18}, window_case{8, 2, 40},
                      window_case{16, 1, 33}, window_case{5, 3, 22}));

/// The copy-based window grouping the builder used to implement: every
/// window deep-copies its cuts out of the buffer.
class copying_window_builder {
 public:
  copying_window_builder(std::size_t size, std::size_t slide)
      : size_(size), slide_(slide) {}

  std::vector<stats::trajectory_window> push(stats::trajectory_cut cut) {
    if (buffer_.empty() && !saw_any_) next_start_ = cut.sample_index;
    saw_any_ = true;
    buffer_.push_back(std::move(cut));
    std::vector<stats::trajectory_window> out;
    while (!buffer_.empty() &&
           buffer_.back().sample_index + 1 >= next_start_ + size_ &&
           buffer_.front().sample_index <= next_start_) {
      stats::trajectory_window w;
      w.first_sample = next_start_;
      for (const auto& c : buffer_)
        if (c.sample_index >= next_start_ && c.sample_index < next_start_ + size_)
          w.cuts.push_back(c);
      if (w.cuts.size() == size_) out.push_back(std::move(w));
      next_start_ += slide_;
      while (!buffer_.empty() && buffer_.front().sample_index < next_start_)
        buffer_.erase(buffer_.begin());
    }
    return out;
  }

  std::vector<stats::trajectory_window> flush() {
    std::vector<stats::trajectory_window> out;
    if (!buffer_.empty()) {
      stats::trajectory_window w;
      w.first_sample = next_start_;
      for (auto& c : buffer_)
        if (c.sample_index >= next_start_) w.cuts.push_back(std::move(c));
      if (!w.cuts.empty()) out.push_back(std::move(w));
      buffer_.clear();
    }
    return out;
  }

 private:
  std::size_t size_;
  std::size_t slide_;
  std::vector<stats::trajectory_cut> buffer_;
  std::uint64_t next_start_ = 0;
  bool saw_any_ = false;
};

void expect_same_windows(const std::vector<stats::trajectory_window>& got,
                         const std::vector<stats::trajectory_window>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first_sample, want[i].first_sample);
    ASSERT_EQ(got[i].cuts.size(), want[i].cuts.size());
    for (std::size_t j = 0; j < got[i].cuts.size(); ++j) {
      EXPECT_EQ(got[i].cuts[j].sample_index, want[i].cuts[j].sample_index);
      EXPECT_EQ(got[i].cuts[j].time, want[i].cuts[j].time);
      EXPECT_EQ(got[i].cuts[j].values, want[i].cuts[j].values);
    }
  }
}

TEST(Window, MatchesCopyingReferenceIncludingFlush) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {5, 5}, {5, 2}, {3, 1}, {4, 4}};
  for (const auto& [size, slide] : shapes) {
    SCOPED_TRACE(testing::Message() << size << "/" << slide);
    stats::sliding_window_builder b(size, slide);
    copying_window_builder ref(size, slide);
    for (std::uint64_t k = 3; k < 3 + 23; ++k) {
      stats::trajectory_cut c;
      c.sample_index = k;
      c.time = 0.5 * static_cast<double>(k);
      for (std::uint64_t t = 0; t < 4; ++t)
        c.values.push_back({static_cast<double>(k * 10 + t), -1.0 * t});
      expect_same_windows(b.push(c), ref.push(c));
    }
    expect_same_windows(b.flush(), ref.flush());
  }
}

TEST(Window, RejectsBadShapesAndGaps) {
  EXPECT_THROW(stats::sliding_window_builder(0, 1), util::precondition_error);
  EXPECT_THROW(stats::sliding_window_builder(4, 5), util::precondition_error);
  stats::sliding_window_builder b(2, 2);
  stats::trajectory_cut c0;
  c0.sample_index = 0;
  b.push(std::move(c0));
  stats::trajectory_cut c2;
  c2.sample_index = 2;  // gap!
  EXPECT_THROW(b.push(std::move(c2)), util::precondition_error);
}

}  // namespace
