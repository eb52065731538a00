// The cut-assembly core shared by the shared-memory alignment stage
// (trajectory_aligner) and the distributed master: collects per-trajectory
// samples into cuts indexed by trajectory id and releases each cut, in
// sample-index order, once every trajectory has contributed.
//
// Keeping this logic in one place is what makes the distributed runtime's
// bit-exactness guarantee durable: both deployments assemble cuts with the
// same rounding, the same indexing, and the same release rule.
//
// Storage is slot-indexed rather than cut-indexed. Each trajectory owns a
// flat, observable-strided run of row slots addressed by k - next_emit
// (k = the sample index), and a per-offset fill counter records how many
// trajectories delivered sample k and the time of the first one. A
// trajectory_cut is materialized only when its counter reaches N. The
// newest run of identical consecutive rows of a trajectory (a stalled
// lane's fast-forwarded tail) is held once with a repeat count. Memory
// therefore tracks the distinct rows actually held plus one small counter
// per pending sample index, not horizon x N rows.
//
// Samples of one trajectory may arrive out of sample order (the farm's
// feedback loop and staggered batch retirement both deliver them that
// way); a duplicate, an already-emitted sample or one past the run's last
// sample index is a precondition error.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "cwc/gillespie.hpp"
#include "stats/cut.hpp"
#include "util/check.hpp"

namespace cwcsim {

class cut_assembler {
 public:
  cut_assembler(const sim_config& cfg, std::size_t num_observables)
      : sample_period_(cfg.sample_period),
        num_samples_(cfg.num_samples()),
        num_trajectories_(cfg.num_trajectories),
        num_observables_(num_observables),
        lanes_(cfg.num_trajectories) {}

  /// Record one sample of `trajectory`; invokes `emit(trajectory_cut&&)`
  /// for every cut this sample completes (in sample-index order).
  template <typename Emit>
  void ingest(std::uint64_t trajectory, const cwc::trajectory_sample& s,
              Emit&& emit) {
    util::expects(trajectory < num_trajectories_, "trajectory id out of range");
    util::expects(s.values.size() == num_observables_,
                  "sample width differs from the observable count");
    const auto k = static_cast<std::uint64_t>(s.time / sample_period_ + 0.5);
    util::expects(k >= next_emit_, "sample of an already-emitted cut");
    util::expects(k < num_samples_, "sample beyond the run's horizon");
    const std::size_t off = static_cast<std::size_t>(k - next_emit_);
    lanes_[trajectory].put(off, s.values);

    if (fill_head_ + off >= fill_.size()) fill_.resize(fill_head_ + off + 1);
    fill_slot& f = fill_[fill_head_ + off];
    if (f.filled == 0) f.time = s.time;  // a cut's time: first arrival
    ++f.filled;

    while (fill_head_ < fill_.size() &&
           fill_[fill_head_].filled == num_trajectories_) {
      stats::trajectory_cut cut;
      cut.sample_index = next_emit_;
      cut.time = fill_[fill_head_].time;
      cut.values.resize(num_trajectories_);
      for (std::size_t t = 0; t < num_trajectories_; ++t)
        lanes_[t].pop_front(num_observables_, cut.values[t]);
      pop_fill();
      ++next_emit_;
      ++emitted_;
      if (next_emit_ == num_samples_) {
        // The run's last cut: no further sample is accepted, so hand the
        // buffers back now (a finished run server session is retained,
        // assembler included, long after its stream ended).
        lanes_ = std::vector<lane_slots>();
        fill_ = std::vector<fill_slot>();
        fill_head_ = 0;
      }
      emit(std::move(cut));
    }
  }

  /// True when no sample is held (a complete run's end state).
  bool drained() const noexcept { return fill_head_ == fill_.size(); }
  std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  // Popped slots (rows and fill counters) are reclaimed once they are at
  // least this many and at least half of the vector (or all of it), so a
  // pop costs amortized O(1) moves.
  static constexpr std::size_t kCompactAfter = 64;

  struct fill_slot {
    std::uint64_t filled = 0;
    double time = 0.0;
  };

  /// One trajectory's held samples: slots for offsets [0, len) (present
  /// or a hole), then `run_count` copies of `run_row` at offsets
  /// [len, len + run_count). Offsets are relative to next_emit; slot o
  /// lives at index head + o of the flat vectors.
  class lane_slots {
   public:
    void put(std::size_t off, const std::vector<double>& row) {
      const std::size_t len = present_.size() - head_;
      if (off < len) {
        util::expects(present_[head_ + off] == 0, "duplicate sample");
        store(head_ + off, row);
        return;
      }
      util::expects(off >= len + run_count_, "duplicate sample");
      // Bitwise equality, so a merged run replays every sample exactly.
      if (off == len + run_count_ && run_count_ > 0 &&
          std::memcmp(row.data(), run_row_.data(),
                      row.size() * sizeof(double)) == 0) {
        ++run_count_;
        return;
      }
      // The sample starts a new run: the old one becomes slots, and any
      // gap before `off` becomes holes.
      spill_run();
      const std::size_t slot_end = head_ + off;
      present_.resize(slot_end, 0);
      rows_.resize(slot_end * row.size());
      run_row_.assign(row.begin(), row.end());
      run_count_ = 1;
    }

    /// Move offset 0 into `out` and shift every offset down by one.
    void pop_front(std::size_t obs, std::vector<double>& out) {
      if (head_ < present_.size()) {
        const double* first = rows_.data() + head_ * obs;
        out.assign(first, first + obs);
        ++head_;
        if (head_ == present_.size() ||
            (head_ >= kCompactAfter && 2 * head_ >= present_.size()))
          compact(obs);
      } else {
        out = run_row_;
        --run_count_;
      }
    }

   private:
    void store(std::size_t slot, const std::vector<double>& row) {
      std::copy(row.begin(), row.end(),
                rows_.begin() + static_cast<std::ptrdiff_t>(slot * row.size()));
      present_[slot] = 1;
    }

    void spill_run() {
      for (; run_count_ > 0; --run_count_) {
        present_.push_back(1);
        rows_.insert(rows_.end(), run_row_.begin(), run_row_.end());
      }
    }

    void compact(std::size_t obs) {
      present_.erase(present_.begin(),
                     present_.begin() + static_cast<std::ptrdiff_t>(head_));
      rows_.erase(rows_.begin(),
                  rows_.begin() + static_cast<std::ptrdiff_t>(head_ * obs));
      head_ = 0;
    }

    std::vector<double> rows_;          // slot-major, obs doubles per slot
    std::vector<std::uint8_t> present_;  // one flag per slot
    std::size_t head_ = 0;               // slot index of offset 0
    std::vector<double> run_row_;
    std::uint64_t run_count_ = 0;
  };

  void pop_fill() {
    ++fill_head_;
    if (fill_head_ == fill_.size()) {
      fill_.clear();
      fill_head_ = 0;
    } else if (fill_head_ >= kCompactAfter && 2 * fill_head_ >= fill_.size()) {
      fill_.erase(fill_.begin(),
                  fill_.begin() + static_cast<std::ptrdiff_t>(fill_head_));
      fill_head_ = 0;
    }
  }

  double sample_period_;
  std::uint64_t num_samples_;
  std::uint64_t num_trajectories_;
  std::size_t num_observables_;
  std::vector<lane_slots> lanes_;  // indexed by trajectory id
  std::vector<fill_slot> fill_;    // fill_[fill_head_ + o] covers offset o
  std::size_t fill_head_ = 0;
  std::uint64_t next_emit_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace cwcsim
