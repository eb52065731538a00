// cut_assembler tests: the slot-indexed assembler against a map-based
// reference on seeded, quantum-structured arrival orders (a trajectory's
// samples out of sample order included), its precondition checks, the
// memory a stalled trajectory's fast-forwarded tail holds, and drained().
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "core/alignment.hpp"
#include "counting_allocator.hpp"
#include "util/check.hpp"

namespace {

/// The earlier map-based assembler, kept as the reference: one zero-filled
/// N-row cut per pending sample index, released in sample-index order once
/// N samples arrived.
class map_assembler {
 public:
  map_assembler(const cwcsim::sim_config& cfg, std::size_t num_observables)
      : cfg_(&cfg), num_observables_(num_observables) {}

  template <typename Emit>
  void ingest(std::uint64_t trajectory, const cwc::trajectory_sample& s,
              Emit&& emit) {
    const auto k =
        static_cast<std::uint64_t>(s.time / cfg_->sample_period + 0.5);
    auto [it, fresh] = pending_.try_emplace(k);
    if (fresh) {
      it->second.cut.sample_index = k;
      it->second.cut.time = s.time;
      it->second.cut.values.assign(cfg_->num_trajectories,
                                   std::vector<double>(num_observables_, 0.0));
    }
    it->second.cut.values[trajectory] = s.values;
    ++it->second.filled;
    while (true) {
      auto ready = pending_.find(next_emit_);
      if (ready == pending_.end() ||
          ready->second.filled < cfg_->num_trajectories)
        return;
      emit(std::move(ready->second.cut));
      pending_.erase(ready);
      ++next_emit_;
    }
  }

  bool drained() const noexcept { return pending_.empty(); }

 private:
  struct pending_cut {
    stats::trajectory_cut cut;
    std::uint64_t filled = 0;
  };
  const cwcsim::sim_config* cfg_;
  std::size_t num_observables_;
  std::map<std::uint64_t, pending_cut> pending_;
  std::uint64_t next_emit_ = 0;
};

cwcsim::sim_config config(std::uint64_t n, std::uint64_t samples) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = n;
  cfg.sample_period = 0.5;
  cfg.t_end = static_cast<double>(samples - 1) * cfg.sample_period;
  return cfg;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct delivery {
  std::uint64_t trajectory;
  cwc::trajectory_sample sample;
};

/// A seeded arrival order shaped like the backends': each trajectory's
/// samples come in quantum batches of random length, batches of different
/// trajectories interleave at random, and a trajectory's next batch may
/// overtake the previous one (the farm's feedback loop, staggered batch
/// retirement). Values repeat in short runs, some trajectories stall into
/// a constant tail, and sample times carry a per-trajectory jitter so a
/// cut's time shows which sample arrived first.
std::vector<delivery> arrival_order(std::uint64_t seed, std::uint64_t n,
                                    std::uint64_t samples, std::size_t obs,
                                    double period) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::vector<delivery>>> batches(n);
  for (std::uint64_t t = 0; t < n; ++t) {
    const std::uint64_t stall_at = rng() % 3 == 0 ? rng() % samples : samples;
    std::vector<double> row(obs);
    std::vector<delivery> batch;
    for (std::uint64_t k = 0; k < samples; ++k) {
      if (k < stall_at && rng() % 3 != 0)
        for (double& v : row) v = static_cast<double>(rng() % 1000) / 7.0;
      const double jitter = static_cast<double>(t) * 1e-3 * period;
      batch.push_back({t, {static_cast<double>(k) * period + jitter, row}});
      if (rng() % 4 == 0 || k + 1 == samples) {
        batches[t].push_back(std::move(batch));
        batch.clear();
      }
    }
    // A later batch overtakes its predecessor now and then.
    for (std::size_t b = 1; b < batches[t].size(); ++b)
      if (rng() % 3 == 0) std::swap(batches[t][b - 1], batches[t][b]);
  }
  std::vector<std::size_t> next(n, 0);
  std::vector<delivery> order;
  for (;;) {
    std::vector<std::uint64_t> open;
    for (std::uint64_t t = 0; t < n; ++t)
      if (next[t] < batches[t].size()) open.push_back(t);
    if (open.empty()) return order;
    const std::uint64_t t = open[rng() % open.size()];
    for (delivery& d : batches[t][next[t]++]) order.push_back(std::move(d));
  }
}

class arrival_orders : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(arrival_orders, MatchesMapAssemblerBitForBit) {
  constexpr std::uint64_t kN = 7;
  constexpr std::uint64_t kSamples = 60;
  constexpr std::size_t kObs = 3;
  const cwcsim::sim_config cfg = config(kN, kSamples);
  const auto order =
      arrival_order(GetParam(), kN, kSamples, kObs, cfg.sample_period);

  cwcsim::cut_assembler got(cfg, kObs);
  map_assembler want(cfg, kObs);
  std::vector<stats::trajectory_cut> got_cuts, want_cuts;
  for (std::size_t i = 0; i < order.size(); ++i) {
    SCOPED_TRACE(i);
    const delivery& d = order[i];
    got.ingest(d.trajectory, d.sample,
               [&](stats::trajectory_cut&& c) { got_cuts.push_back(std::move(c)); });
    want.ingest(d.trajectory, d.sample, [&](stats::trajectory_cut&& c) {
      want_cuts.push_back(std::move(c));
    });
    // Cuts are released by the same sample in both.
    ASSERT_EQ(got_cuts.size(), want_cuts.size());
    ASSERT_EQ(got.drained(), want.drained());
  }
  EXPECT_TRUE(got.drained());
  EXPECT_EQ(got.emitted(), kSamples);
  ASSERT_EQ(got_cuts.size(), kSamples);
  for (std::size_t k = 0; k < kSamples; ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(got_cuts[k].sample_index, want_cuts[k].sample_index);
    EXPECT_EQ(std::memcmp(&got_cuts[k].time, &want_cuts[k].time,
                          sizeof(double)),
              0);
    ASSERT_EQ(got_cuts[k].values.size(), kN);
    for (std::uint64_t t = 0; t < kN; ++t)
      EXPECT_TRUE(same_bits(got_cuts[k].values[t], want_cuts[k].values[t]))
          << "trajectory " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, arrival_orders,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           0xBADA55u, 0xC0FFEEu));

cwc::trajectory_sample sample(std::uint64_t k, std::vector<double> values) {
  return {static_cast<double>(k) * 0.5, std::move(values)};
}

TEST(CutAssembler, DuplicateOrAlreadyEmittedSampleIsRejected) {
  const cwcsim::sim_config cfg = config(2, 10);
  cwcsim::cut_assembler a(cfg, 1);
  std::uint64_t cuts = 0;
  const auto emit = [&](stats::trajectory_cut&&) { ++cuts; };

  // A held slot.
  a.ingest(0, sample(2, {1.0}), emit);
  a.ingest(0, sample(1, {2.0}), emit);
  EXPECT_THROW(a.ingest(0, sample(1, {2.0}), emit), util::precondition_error);
  // A sample inside a held run of identical rows.
  a.ingest(0, sample(3, {1.0}), emit);
  a.ingest(0, sample(4, {1.0}), emit);
  EXPECT_THROW(a.ingest(0, sample(3, {1.0}), emit), util::precondition_error);
  // An already-emitted cut.
  a.ingest(0, sample(0, {0.0}), emit);
  a.ingest(1, sample(0, {0.0}), emit);
  EXPECT_EQ(cuts, 1u);
  EXPECT_THROW(a.ingest(1, sample(0, {0.0}), emit), util::precondition_error);
  // Out-of-range trajectory, a sample past the horizon, wrong width.
  EXPECT_THROW(a.ingest(2, sample(5, {0.0}), emit), util::precondition_error);
  EXPECT_THROW(a.ingest(1, sample(10, {0.0}), emit), util::precondition_error);
  EXPECT_THROW(a.ingest(1, sample(5, {0.0, 1.0}), emit),
               util::precondition_error);
  // A rejected sample leaves the assembler usable.
  for (std::uint64_t k = 1; k <= 4; ++k) a.ingest(1, sample(k, {0.0}), emit);
  EXPECT_EQ(cuts, 5u);
  EXPECT_TRUE(a.drained());
}

TEST(CutAssembler, StalledTailHoldsDistinctRowsOnly) {
  constexpr std::uint64_t kN = 4;
  constexpr std::uint64_t kSamples = 4096;
  constexpr std::size_t kObs = 16;
  constexpr std::uint64_t kDistinct = 8;
  const cwcsim::sim_config cfg = config(kN, kSamples);
  const auto row_of = [](std::uint64_t t, std::uint64_t k) {
    // Trajectory 0 stalls after kDistinct samples: its tail is constant.
    const std::uint64_t v = t == 0 && k > kDistinct ? kDistinct : k;
    return std::vector<double>(kObs, static_cast<double>(v * kN + t));
  };

  // Trajectory 0 delivers its whole horizon before anyone else moves.
  std::vector<cwc::trajectory_sample> tail;
  for (std::uint64_t k = 0; k < kSamples; ++k) tail.push_back(sample(k, row_of(0, k)));
  std::uint64_t cuts = 0;
  const auto emit = [&](stats::trajectory_cut&&) { ++cuts; };

  cwcsim::cut_assembler a(cfg, kObs);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  for (const auto& s : tail) a.ingest(0, s, emit);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  const std::uint64_t bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;

  // The distinct rows plus one for the repeated tail: the only horizon-
  // proportional storage is one fill counter per sample index.
  EXPECT_LT(allocs, 64u);
  EXPECT_LT(bytes, kSamples * kObs * sizeof(double) / 2)
      << "less than half of ONE trajectory's horizon of rows";
  EXPECT_FALSE(a.drained());

  // The map-based reference holds a zero-filled N-row cut per index.
  map_assembler ref(cfg, kObs);
  const std::uint64_t ref_allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (const auto& s : tail) ref.ingest(0, s, emit);
  EXPECT_GT(g_allocs.load(std::memory_order_relaxed) - ref_allocs0,
            kSamples * kN);

  // The others catch up in order; every cut carries trajectory 0's rows.
  std::vector<stats::trajectory_cut> out;
  for (std::uint64_t k = 0; k < kSamples; ++k)
    for (std::uint64_t t = 1; t < kN; ++t)
      a.ingest(t, sample(k, row_of(t, k)),
               [&](stats::trajectory_cut&& c) { out.push_back(std::move(c)); });
  ASSERT_EQ(out.size(), kSamples);
  for (std::uint64_t k = 0; k < kSamples; k += 511)
    for (std::uint64_t t = 0; t < kN; ++t)
      EXPECT_EQ(out[k].values[t], row_of(t, k)) << "k " << k << " t " << t;
  EXPECT_TRUE(a.drained());
}

TEST(CutAssembler, RunsOfRowsCompareBitwise) {
  const cwcsim::sim_config cfg = config(2, 3);
  cwcsim::cut_assembler a(cfg, 1);
  std::vector<stats::trajectory_cut> out;
  const auto emit = [&](stats::trajectory_cut&& c) { out.push_back(std::move(c)); };
  // Trajectory 0 runs ahead; 0.0 == -0.0, but its run must not merge them.
  a.ingest(0, sample(0, {0.0}), emit);
  a.ingest(0, sample(1, {-0.0}), emit);
  a.ingest(0, sample(2, {-0.0}), emit);
  for (std::uint64_t k = 0; k < 3; ++k) a.ingest(1, sample(k, {1.0}), emit);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FALSE(std::signbit(out[0].values[0][0]));
  EXPECT_TRUE(std::signbit(out[1].values[0][0]));
  EXPECT_TRUE(std::signbit(out[2].values[0][0]));
}

TEST(CutAssembler, DrainedOnlyWhenNoSlotIsHeld) {
  const cwcsim::sim_config cfg = config(2, 4);
  cwcsim::cut_assembler a(cfg, 1);
  std::vector<std::uint64_t> emitted;
  const auto emit = [&](stats::trajectory_cut&& c) {
    emitted.push_back(c.sample_index);
  };
  EXPECT_TRUE(a.drained());
  a.ingest(0, sample(1, {1.0}), emit);  // out of order: k = 1 first
  EXPECT_FALSE(a.drained());
  a.ingest(1, sample(1, {1.0}), emit);  // cut 1 full, cut 0 still open
  EXPECT_FALSE(a.drained());
  EXPECT_TRUE(emitted.empty());
  a.ingest(0, sample(0, {0.0}), emit);
  EXPECT_FALSE(a.drained());
  a.ingest(1, sample(0, {0.0}), emit);  // releases cuts 0 and 1
  EXPECT_EQ(emitted, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(a.drained());
  a.ingest(0, sample(2, {2.0}), emit);  // a run of one
  a.ingest(0, sample(3, {2.0}), emit);  // the run grows
  EXPECT_FALSE(a.drained());
  a.ingest(1, sample(2, {2.0}), emit);
  EXPECT_FALSE(a.drained());  // trajectory 0's run still holds k = 3
  a.ingest(1, sample(3, {2.0}), emit);  // the run's last cut
  EXPECT_TRUE(a.drained());
  EXPECT_EQ(a.emitted(), 4u);
  EXPECT_THROW(a.ingest(0, sample(3, {2.0}), emit), util::precondition_error);
  EXPECT_TRUE(a.drained());
}

}  // namespace
