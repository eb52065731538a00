// In-memory span recorder and the statistics helpers of the benchmark.
//
// Spans are recorded by the benchmark's own code around calls into the
// simulator's layers (never from inside the library), kept in memory, and
// written once at exit as a Chrome trace-event JSON that Perfetto opens.
// A layer's self time is its spans' durations minus the part of each
// interval covered by the span's children.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct span {
  std::uint32_t name = 0;    ///< index into tracer::names()
  double start = 0.0;        ///< now_s() at entry
  double end = 0.0;          ///< now_s() at exit
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t alloc_start = 0;  ///< allocation count at entry
  std::uint64_t alloc_end = 0;    ///< allocation count at exit
};

/// Span store shared by the serial replay (nested scopes on one thread) and
/// the end-to-end traced run (intervals recorded from pipeline callbacks on
/// any thread, with an explicit parent). A disabled tracer records nothing.
class tracer {
 public:
  /// `allocations`, when given, is read at every span's entry and exit.
  explicit tracer(bool enabled, std::uint64_t (*allocations)() = nullptr)
      : enabled_(enabled), allocations_(allocations) {}

  bool enabled() const noexcept { return enabled_; }

  /// Start a span under an explicit `parent` now (any thread); returns
  /// its index, or -1 when disabled. end() closes it.
  std::int32_t begin(const std::string& name, std::int32_t parent);
  void end(std::int32_t idx);

  /// Record a finished interval (any thread); returns its index.
  std::int32_t record(const std::string& name, double start, double end,
                      std::int32_t parent);

  /// Open a span nested in the innermost open scope (single-threaded use).
  std::int32_t open(const std::string& name);
  /// Close the innermost open scope, which must be `idx`.
  void close(std::int32_t idx);

  const std::vector<span>& spans() const noexcept { return spans_; }
  const std::vector<std::string>& names() const noexcept { return names_; }

  /// Number of spans recorded under `name`.
  std::size_t count(const std::string& name) const;

  /// Self time per span name, in seconds.
  std::map<std::string, double> self_times() const;

  /// Allocations per span name made outside its children. Exact for the
  /// nested single-threaded scopes; meaningless for concurrent spans.
  std::map<std::string, std::uint64_t> self_allocations() const;

  /// Write every span as Chrome trace-event JSON ("X" complete events, one
  /// track per root span). Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& workload) const;

 private:
  std::uint32_t intern(const std::string& name);

  std::uint64_t allocs() const { return allocations_ ? allocations_() : 0; }

  bool enabled_;
  std::uint64_t (*allocations_)();
  mutable std::mutex mu_;  // guards everything below
  std::vector<span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::int32_t> stack_;
};

/// RAII scope for the serial replay: opens a span on construction and
/// closes it on destruction.
class scope {
 public:
  scope(tracer& t, const char* name) : t_(&t), idx_(t.open(name)) {}
  ~scope() { t_->close(idx_); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  tracer* t_;
  std::int32_t idx_;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it. Indexed like `spans`.
std::vector<double> self_time_per_span(const std::vector<span>& spans);

/// Linear-interpolated percentile `p` in [0, 100] of `xs` (order statistics
/// at rank p/100 * (n-1)). Returns 0 for an empty sample.
double percentile(std::vector<double> xs, double p);

/// Median of `xs` (percentile 50).
inline double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

/// The highest of the standard percentiles (50, 90, 99, 99.9) that has at
/// least ten samples beyond it in a sample of `n`; 0 when even the median
/// has fewer than ten samples above it.
double highest_reportable_percentile(std::size_t n);

}  // namespace perfbench
