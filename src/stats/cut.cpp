#include "stats/cut.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stats {

cut_summary summarize_cut(const trajectory_cut& cut, std::uint32_t kmeans_k,
                          std::uint64_t seed) {
  cut_summary s;
  s.sample_index = cut.sample_index;
  s.time = cut.time;
  if (cut.values.empty()) return s;

  const std::size_t dims = cut.values.front().size();
  s.moments.resize(dims);
  s.medians.resize(dims, 0.0);

  std::vector<double> scratch(cut.values.size());
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t i = 0; i < cut.values.size(); ++i) {
      util::expects(cut.values[i].size() == dims, "ragged trajectory cut");
      s.moments[d].add(cut.values[i][d]);
      scratch[i] = cut.values[i][d];
    }
    auto mid = scratch.begin() + static_cast<std::ptrdiff_t>(scratch.size() / 2);
    std::nth_element(scratch.begin(), mid, scratch.end());
    s.medians[d] = *mid;
  }

  if (kmeans_k > 0) s.clusters = kmeans(cut.values, kmeans_k, seed);
  return s;
}

sliding_window_builder::sliding_window_builder(std::size_t size, std::size_t slide)
    : size_(size), slide_(slide) {
  util::expects(size > 0 && slide > 0, "window size and slide must be positive");
  util::expects(slide <= size, "slide larger than window loses cuts");
}

std::vector<trajectory_window> sliding_window_builder::push(trajectory_cut cut) {
  if (saw_any_) {
    util::expects(cut.sample_index == last_index_ + 1,
                  "cuts must arrive consecutively");
  } else {
    next_start_ = cut.sample_index;
    saw_any_ = true;
  }
  last_index_ = cut.sample_index;
  buffer_.push_back(std::move(cut));

  std::vector<trajectory_window> out;
  while (head_ < buffer_.size() &&
         buffer_.back().sample_index + 1 >= next_start_ + size_ &&
         buffer_[head_].sample_index <= next_start_) {
    trajectory_window w;
    w.first_sample = next_start_;
    w.cuts.reserve(size_);
    // Cuts before the next window's start are dropped right after this
    // window, so they move into it; the rest are shared and copied.
    const std::uint64_t next = next_start_ + slide_;
    for (std::size_t i = head_; i < buffer_.size(); ++i) {
      trajectory_cut& c = buffer_[i];
      if (c.sample_index < next_start_ || c.sample_index >= next_start_ + size_)
        continue;
      if (c.sample_index < next)
        w.cuts.push_back(std::move(c));
      else
        w.cuts.push_back(c);
    }
    if (w.cuts.size() == size_) out.push_back(std::move(w));
    next_start_ = next;
    // Drop cuts no future window will need.
    while (head_ < buffer_.size() && buffer_[head_].sample_index < next_start_)
      ++head_;
  }
  // Reclaim dropped slots once they are at least half the buffer, so each
  // cut is moved O(1) times on average.
  if (2 * head_ >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return out;
}

std::vector<trajectory_window> sliding_window_builder::flush() {
  std::vector<trajectory_window> out;
  if (head_ < buffer_.size()) {
    trajectory_window w;
    w.first_sample = next_start_;
    for (std::size_t i = head_; i < buffer_.size(); ++i)
      if (buffer_[i].sample_index >= next_start_)
        w.cuts.push_back(std::move(buffer_[i]));
    if (!w.cuts.empty()) out.push_back(std::move(w));
  }
  buffer_ = std::vector<trajectory_cut>();
  head_ = 0;
  return out;
}

}  // namespace stats
