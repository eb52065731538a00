// cwcsim end-to-end benchmark driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--build-info <build_info.json>] [--out-dir <dir>]
//   perfbench_driver --list          (the workload names)
//
// One run: set up the workload several times (median = setup_s), one
// untimed warm-up repetition, then repetitions through the public API for
// --seconds. Afterwards a single-threaded replay of the same inputs gives
// the reference every repetition's outputs are checked against. With
// --trace 1 the timed phase is split into untraced and traced halves (their
// difference is the tracing overhead), the replay records a span around
// every layer call, and the per-layer table, a Chrome trace and the DES
// prediction are produced. The last stdout line is the result JSON; the
// exit code is 1 when any output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::median;
using perfbench::percentile;

/// Set-up takes micro- to milliseconds and its speed drifts with the
/// host's load over seconds, so it is sampled in short bursts spread over
/// the whole run: one before the warm-up, one before every timed
/// repetition. setup_s is the median of all samples.
constexpr double kSetupBurstS = 0.03;

void setup_burst(perfbench::workload& w, perfbench::tracer& off,
                 std::vector<double>& setups) {
  const double t0 = perfbench::now_s();
  const std::size_t n0 = setups.size();
  while (setups.size() - n0 < 15 || perfbench::now_s() - t0 < kSetupBurstS)
    setups.push_back(w.setup(off));
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string build_info;
  std::string out_dir;
};

bool parse(int argc, char** argv, options& o) {
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    for (const auto& n : perfbench::workload_names()) std::printf("%s\n", n.c_str());
    std::exit(0);
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (k == "--build-info") o.build_info = v;
    else if (k == "--out-dir") o.out_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

std::string read_compact(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "null";
  std::stringstream ss;
  ss << in.rdbuf();
  std::string out;
  for (char c : ss.str())
    if (c != '\n') out += c;
  return out.empty() ? "null" : out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count etc., for the human-readable table
};

std::string json_metrics(const std::vector<metric>& ms) {
  std::string s = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

/// Run repetitions until `seconds` elapsed (at least `min_reps`), with a
/// set-up burst before each when `setups` is given.
std::vector<perfbench::rep_result> run_for(perfbench::workload& w,
                                           perfbench::tracer& t,
                                           double seconds, int min_reps,
                                           std::vector<double>* setups) {
  perfbench::tracer off(false);
  std::vector<perfbench::rep_result> reps;
  const double t0 = perfbench::now_s();
  while (static_cast<int>(reps.size()) < min_reps ||
         perfbench::now_s() - t0 < seconds) {
    if (setups != nullptr) setup_burst(w, off, *setups);
    reps.push_back(w.run_once(t));
  }
  return reps;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--build-info f] [--out-dir d]\n",
                 argv[0]);
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  auto w = perfbench::make_workload(opt.workload, opt.seed, nproc);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::string build_info = read_compact(opt.build_info);
  std::printf("# workload %s seed %" PRIu64 " seconds %g trace %d nproc %u\n",
              w->name(), opt.seed, opt.seconds, opt.trace ? 1 : 0, nproc);
  std::printf("# build %s\n", build_info.c_str());

  perfbench::tracer off(false);
  perfbench::tracer traced(opt.trace, perfbench::allocations);
  std::vector<double> setups;
  setup_burst(*w, off, setups);

  std::vector<perfbench::rep_result> warm;
  warm.push_back(w->run_once(off));  // untimed: first-repetition penalty

  const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<perfbench::rep_result> reps =
      run_for(*w, off, untraced_budget, 3, &setups);
  const double rss = peak_rss_mb();
  std::vector<perfbench::rep_result> traced_reps;
  if (opt.trace) traced_reps = run_for(*w, traced, opt.seconds / 2, 3, nullptr);

  // ---- serial replay: the reference, and the per-layer spans -----------
  perfbench::replay_result ref;
  std::vector<perfbench::stream> streams;
  {
    const perfbench::scope s(traced, "replay");
    {
      // A traced set-up gives the compile and overlay spans.
      const perfbench::scope su(traced, "setup");
      if (opt.trace) w->setup(traced);
    }
    streams = w->streams();
    ref = perfbench::replay(streams, w->replay_opts(), traced);
  }

  // ---- output checks on every repetition --------------------------------
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto check_reps = [&](const std::vector<perfbench::rep_result>& rs,
                        bool count) {
    for (const auto& r : rs) {
      std::vector<std::string> run_errors = r.run_errors;
      w->check_run(r, run_errors);
      std::uint64_t bad = run_errors.empty() ? 0 : 1;
      for (const auto& e : run_errors) errors.push_back(e);
      for (std::size_t i = 0; i < r.streams.size() && i < ref.refs.size(); ++i) {
        const std::string e = perfbench::check_stream(
            r.streams[i], ref.refs[i], streams[i].cfg.num_trajectories);
        if (!e.empty()) {
          ++bad;
          errors.push_back("stream " + std::to_string(i) + ": " + e);
        }
      }
      if (r.streams.size() != ref.refs.size()) {
        ++bad;
        errors.push_back("repetition produced " +
                         std::to_string(r.streams.size()) + " streams");
      }
      if (count) {  // the warm-up's failures make the run incorrect only
        attempted += w->sessions_per_rep();
        failed += std::min<std::uint64_t>(bad, w->sessions_per_rep());
      }
    }
  };
  check_reps(warm, false);
  check_reps(reps, true);
  check_reps(traced_reps, true);
  if (ref.counters.layer_mismatches != 0)
    errors.push_back(std::to_string(ref.counters.layer_mismatches) +
                     " replay cross-checks failed (batch vs scalar lanes, "
                     "summarize vs fold means)");
  const bool correct = errors.empty();
  if (!correct && failed == 0) failed = 1;
  for (std::size_t i = 0; i < errors.size() && i < 10; ++i)
    std::fprintf(stderr, "CHECK FAILED: %s\n", errors[i].c_str());

  // ---- end-to-end metrics ----------------------------------------------
  std::vector<double> tps, first, sessions, walls;
  for (const auto& r : reps) {
    tps.push_back(static_cast<double>(r.trajectories) / r.wall_s);
    first.push_back(r.first_result_s);
    walls.push_back(r.wall_s);
    sessions.insert(sessions.end(), r.session_s.begin(), r.session_s.end());
  }
  const std::size_t n_sessions = sessions.size();
  const double top_p = perfbench::highest_reportable_percentile(n_sessions);
  std::vector<metric> e2e = {
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"trajectories_per_s", median(tps), "1/s",
       "median of " + std::to_string(reps.size()) + " repetitions"},
      {"first_result_s", median(first), "s",
       "median of " + std::to_string(reps.size()) + " repetitions"},
      {"session_p50_s", percentile(sessions, 50), "s",
       "n=" + std::to_string(n_sessions)},
      {"session_p90_s", percentile(sessions, 90), "s",
       "n=" + std::to_string(n_sessions) + (top_p >= 90 ? "" : ", below the 10-beyond rule")},
      {"peak_rss_mb", rss, "MB", "getrusage ru_maxrss after the timed phase"},
  };

  std::printf("# %-22s %16s %-6s %s\n", "end-to-end metric", "value", "unit", "note");
  for (const auto& m : e2e)
    std::printf("# %-22s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("# repetition walls (s):");
  for (double x : walls) std::printf(" %.4f", x);
  std::printf("\n");
  if (top_p > 0)
    std::printf("# session p%g = %.6g s (highest percentile with >= 10 samples beyond, n=%zu)\n",
                top_p, percentile(sessions, top_p), n_sessions);

  std::vector<metric> layer;
  if (opt.trace) {
    const std::map<std::string, double> self = traced.self_times();
    auto st = [&](const char* n) {
      const auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second;
    };
    const auto& c = ref.counters;
    const perfbench::rep_result& last = reps.back();
    std::vector<double> opens;
    for (const auto& r : reps) opens.insert(opens.end(), r.open_s.begin(), r.open_s.end());
    double serial = 0.0;
    for (const auto& n : ref.production_spans) serial += st(n.c_str());
    const double untraced_wall = median(walls);
    std::vector<double> twalls;
    for (const auto& r : traced_reps) twalls.push_back(r.wall_s);
    const double traced_wall = median(twalls);

    // DES: calibrate on this host, then predict from the replay's profile.
    des::calibration cal;
    {
      const perfbench::scope s(traced, "des.calibrate");
      const auto [mr, cfg] = w->calibration_input();
      cal = des::calibrate(mr, cfg);
    }
    double predicted = 0.0;
    {
      const perfbench::scope s(traced, "des.simulate");
      predicted = w->des_predict(ref, cal);
    }
    const double des_measured = w->des_measured(reps);

    // Allocations on the workload's own path in the replay: exact, unlike
    // the threaded repetitions' counts, which vary by a few with timing.
    const std::map<std::string, std::uint64_t> self_allocs = traced.self_allocations();
    std::uint64_t prod_allocs = 0;
    for (const auto& n : ref.production_spans) {
      const auto it = self_allocs.find(n);
      if (it != self_allocs.end()) prod_allocs += it->second;
    }
    std::uint64_t trajectories = 0;
    for (const auto& st : streams) trajectories += st.cfg.num_trajectories;

    svc::server_stats sv{};
    if (last.server) sv = *last.server;
    cwcsim::run_report::network_stats net{};
    if (last.network) net = *last.network;
    const double d_steps = static_cast<double>(c.steps);
    layer = {
        {"cwc.steps", d_steps, "count", ""},
        {"cwc.samples", static_cast<double>(c.samples), "count", ""},
        {"cwc.step_s", st("cwc.step"), "s", ""},
        {"cwc.ns_per_step", d_steps > 0 ? st("cwc.step") * 1e9 / d_steps : 0, "ns", ""},
        {"cwc.compile_s", st("cwc.compile"), "s", ""},
        {"cwc.batch.lane_steps", static_cast<double>(c.lane_steps), "count", ""},
        {"cwc.batch.step_quantum_s", st("cwc.batch.step_quantum"), "s", ""},
        {"cwc.batch.lane_occupancy",
         c.batch_calls > 0 ? c.occupancy_sum / static_cast<double>(c.batch_calls) : 0,
         "ratio", ""},
        {"core.align.ingest_s", st("core.align.ingest"), "s", ""},
        {"core.align.cuts", static_cast<double>(c.cuts), "count", ""},
        {"core.align.pending_peak", static_cast<double>(c.pending_peak), "count", ""},
        {"stats.window.push_s", st("stats.window.push"), "s", ""},
        {"stats.summarize_s", st("stats.summarize"), "s", ""},
        {"stats.fold_s", st("stats.fold"), "s", ""},
        {"stats.values_folded", static_cast<double>(c.values_folded), "count", ""},
        {"ff.serial_s", serial, "s", ""},
        {"ff.parallel_efficiency",
         serial / (static_cast<double>(w->workers()) * untraced_wall), "ratio", ""},
        {"sweep.overlay_s", st("sweep.overlay"), "s", ""},
        {"sweep.cells", static_cast<double>(traced.count("sweep.overlay")), "count", ""},
        {"svc.open_s", median(opens), "s", ""},
        {"svc.quanta_executed", static_cast<double>(sv.quanta_executed), "count", ""},
        {"svc.quanta_accepted", static_cast<double>(sv.quanta_accepted), "count", ""},
        {"svc.useful_ratio",
         sv.quanta_executed > 0 ? static_cast<double>(sv.quanta_accepted) /
                                      static_cast<double>(sv.quanta_executed)
                                : 0,
         "ratio", ""},
        {"svc.cache_compiles", static_cast<double>(sv.cache.compiles), "count", ""},
        {"svc.cache_hits", static_cast<double>(sv.cache.hits), "count", ""},
        {"svc.sessions_shed", static_cast<double>(sv.sessions_shed), "count", ""},
        {"svc.quanta_retried", static_cast<double>(sv.quanta_retried), "count", ""},
        {"svc.window_encode_s", st("svc.proto.encode_window"), "s", ""},
        {"svc.window_decode_s", st("svc.proto.decode_window"), "s", ""},
        {"svc.window_bytes", static_cast<double>(c.window_bytes), "bytes", ""},
        {"dist.messages", static_cast<double>(net.messages), "count", ""},
        {"dist.bytes", net.bytes, "bytes", ""},
        {"dist.model_bytes", net.model_bytes, "bytes", ""},
        {"dist.grants", static_cast<double>(net.grants), "count", ""},
        {"dist.reissued", static_cast<double>(net.reissued), "count", ""},
        {"dist.duplicate_quanta", static_cast<double>(net.duplicate_quanta), "count", ""},
        {"dist.quantum_result_encode_s", st("dist.wire.encode_quantum_result"), "s", ""},
        {"dist.quantum_result_decode_s", st("dist.wire.decode_quantum_result"), "s", ""},
        {"dist.quantum_result_bytes", static_cast<double>(c.quantum_result_bytes), "bytes", ""},
        {"des.predicted_s", predicted, "s", ""},
        {"des.error_ratio", predicted > 0 ? des_measured / predicted : 0, "ratio", ""},
        {"mem.allocs_per_trajectory",
         static_cast<double>(prod_allocs) / static_cast<double>(trajectories),
         "count", ""},
        {"trace.overhead_share", (traced_wall - untraced_wall) / untraced_wall, "ratio", ""},
    };

    // Self-time tables, largest first: the serial replay's layer spans,
    // then the traced end-to-end repetitions' spans (e2e.*).
    for (const bool e2e_spans : {false, true}) {
      std::vector<std::pair<double, std::string>> rows;
      double total = 0.0;
      for (const auto& [n, s] : self) {
        if ((n.rfind("e2e.", 0) == 0) != e2e_spans) continue;
        rows.emplace_back(s, n);
        total += s;
      }
      std::sort(rows.rbegin(), rows.rend());
      std::printf("# %-34s %12s %7s\n",
                  e2e_spans ? "end-to-end span (self time)"
                            : "replay span (self time)",
                  "seconds", "share");
      for (const auto& [s, n] : rows)
        std::printf("# %-34s %12.6f %6.1f%%\n", n.c_str(), s,
                    total > 0 ? 100.0 * s / total : 0.0);
    }
    std::printf("# tracing overhead: traced %.6f s vs untraced %.6f s per repetition\n",
                traced_wall, untraced_wall);
    for (const auto& m : layer)
      std::printf("# %-30s %16.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());

    if (!opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/" + w->name() + "-seed" +
                               std::to_string(opt.seed) + ".trace.json";
      if (traced.write_chrome(path, w->name()))
        std::printf("# chrome trace: %s\n", path.c_str());
      else
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }

  const std::string metrics = json_metrics(opt.trace ? layer : e2e);
  char head[256];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": ",
                correct ? "true" : "false", attempted, failed);
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + w->name() + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %" PRIu64
                   ", \"nproc\": %u, \"build\": %s, \"result\": %s%s}}\n",
                   w->name(), opt.seed, nproc, build_info.c_str(), head,
                   metrics.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s%s}\n", head, metrics.c_str());
  return correct ? 0 : 1;
}
