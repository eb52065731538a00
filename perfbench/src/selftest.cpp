// Checks of the benchmark's own arithmetic: the percentile rule and the
// self-time subtraction. Exit code 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <vector>

#include "trace.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::highest_reportable_percentile;
  using perfbench::percentile;
  using perfbench::self_time_per_span;
  using perfbench::span;

  // Percentile rule: the highest standard percentile with >= 10 samples
  // beyond it.
  expect_near(highest_reportable_percentile(19), 0, "n=19 has no percentile");
  expect_near(highest_reportable_percentile(20), 50, "n=20 reports p50");
  expect_near(highest_reportable_percentile(99), 50, "n=99 stays at p50");
  expect_near(highest_reportable_percentile(100), 90, "n=100 reports p90");
  expect_near(highest_reportable_percentile(999), 90, "n=999 stays at p90");
  expect_near(highest_reportable_percentile(1000), 99, "n=1000 reports p99");
  expect_near(highest_reportable_percentile(10000), 99.9, "n=10000 reports p99.9");

  // Linear interpolation between order statistics.
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  expect_near(percentile(xs, 50), 3, "median of 1..5");
  expect_near(percentile(xs, 90), 4.6, "p90 of 1..5");
  expect_near(percentile(xs, 0), 1, "p0 is the minimum");
  expect_near(percentile(xs, 100), 5, "p100 is the maximum");
  expect_near(percentile({}, 50), 0, "empty sample");

  // Self time: a span minus the union of its children clipped to it.
  //   0 root     [0, 10]
  //   1  child   [1, 4]      (grandchild 3 inside)
  //   2  child   [3, 6]      overlaps child 1: union [1, 6]
  //   3   grand  [2, 3]
  //   4  child   [9, 12]     clipped to [9, 10]
  const std::vector<span> spans = {{0, 0, 10, -1}, {1, 1, 4, 0}, {1, 3, 6, 0},
                                   {2, 2, 3, 1},   {1, 9, 12, 0}};
  const std::vector<double> self = self_time_per_span(spans);
  expect_near(self[0], 10 - 5 - 1, "root self time");
  expect_near(self[1], 3 - 1, "child minus grandchild");
  expect_near(self[2], 3, "leaf child");
  expect_near(self[3], 1, "grandchild");
  expect_near(self[4], 3, "leaf extends past its parent");

  perfbench::tracer t(true);
  {
    const perfbench::scope a(t, "outer");
    const perfbench::scope b(t, "inner");
  }
  const auto st = t.self_times();
  if (st.size() != 2 || t.spans()[1].parent != 0) {
    std::fprintf(stderr, "FAIL nested scopes record parent links\n");
    ++failures;
  }

  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
