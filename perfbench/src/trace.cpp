#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

std::uint32_t tracer::intern(const std::string& name) {
  auto [it, fresh] =
      ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (fresh) names_.push_back(name);
  return it->second;
}

std::int32_t tracer::record(const std::string& name, double start, double end,
                            std::int32_t parent) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({intern(name), start, end, parent});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t tracer::begin(const std::string& name, std::int32_t parent) {
  if (!enabled_) return -1;
  const double t = now_s();
  return record(name, t, t, parent);
}

void tracer::end(std::int32_t idx) {
  if (!enabled_ || idx < 0) return;
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(idx)].end = t;
}

std::int32_t tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  const std::uint32_t id = intern(name);
  if (spans_.size() == spans_.capacity()) spans_.reserve(2 * spans_.size() + 64);
  if (stack_.size() == stack_.capacity()) stack_.reserve(2 * stack_.size() + 16);
  // Read the clock and the allocation count last: the bookkeeping above
  // (which may allocate) is charged to no span.
  const std::uint64_t a = allocs();
  const double t = now_s();
  spans_.push_back({id, t, t, parent, a, a});
  const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void tracer::close(std::int32_t idx) {
  if (!enabled_) return;
  const double t = now_s();
  const std::uint64_t a = allocs();
  const std::lock_guard<std::mutex> lock(mu_);
  if (stack_.empty() || stack_.back() != idx) return;  // unbalanced: keep open
  span& s = spans_[static_cast<std::size_t>(idx)];
  s.end = t;
  s.alloc_end = a;
  stack_.pop_back();
}

std::size_t tracer::count(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = ids_.find(name);
  if (it == ids_.end()) return 0;
  std::size_t n = 0;
  for (const span& s : spans_) n += s.name == it->second;
  return n;
}

std::vector<double> self_time_per_span(const std::vector<span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);

  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals clipped to [lo, hi]; concurrent
    // children (callbacks on several pipeline threads) may overlap.
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, double> tracer::self_times() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = self_time_per_span(spans_);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[names_[spans_[i].name]] += self[i];
  return out;
}

std::map<std::string, std::uint64_t> tracer::self_allocations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].alloc_end - spans_[i].alloc_start;
  for (const span& s : spans_)
    if (s.parent >= 0) {
      std::uint64_t& p = self[static_cast<std::size_t>(s.parent)];
      p -= std::min(p, s.alloc_end - s.alloc_start);
    }
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[names_[spans_[i].name]] += self[i];
  return out;
}

bool tracer::write_chrome(const std::string& path,
                          const std::string& workload) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // One track (tid) per root span so concurrent end-to-end intervals do not
  // interleave with the serial replay's nesting.
  std::vector<std::int32_t> track(spans_.size(), 0);
  std::int32_t next_track = 0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    track[i] = s.parent >= 0 ? track[static_cast<std::size_t>(s.parent)]
                             : next_track++;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(), workload.c_str(),
                 track[i], s.start * 1e6, (s.end - s.start) * 1e6, i,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double highest_reportable_percentile(std::size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) best = p;
  return best;
}

}  // namespace perfbench
