// The benchmark's workloads: each runs through the public API
// (cwcsim::run_builder, cwcsim::sweep_builder, a served session), keeps
// what its outputs need for checking, and describes its streams for the
// serial replay and its DES prediction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cwcsim.hpp"
#include "replay.hpp"
#include "svc/run_server.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one stream of an end-to-end repetition produced.
struct stream_output {
  std::uint64_t completions = 0;
  std::vector<std::uint64_t> steps;   ///< per trajectory id
  std::vector<std::uint64_t> quanta;  ///< per trajectory id
  std::vector<double> cut_means;      ///< [cut * observables + d]
  std::string error;                  ///< non-empty when the stream failed
};

/// One end-to-end repetition of a workload.
struct rep_result {
  double wall_s = 0.0;          ///< first open to last wait() return
  double first_result_s = 0.0;  ///< median over sessions for served runs
  std::uint64_t trajectories = 0;
  std::vector<double> session_s;  ///< open to wait() return, per session
  std::vector<double> open_s;     ///< session open time, per session
  std::vector<stream_output> streams;
  /// Failures the run itself reported (shed/retried opens, ledger breaks).
  std::vector<std::string> run_errors;
  std::optional<svc::server_stats> server;
  std::optional<cwcsim::run_report::network_stats> network;
};

class workload {
 public:
  virtual ~workload() = default;

  virtual const char* name() const = 0;
  /// Build the inputs once more (models, compile, overlays, server start)
  /// and return the seconds it took; spans go to `t`.
  virtual double setup(tracer& t) = 0;
  /// Run one end-to-end repetition, its spans recorded in `t`.
  virtual rep_result run_once(tracer& t) = 0;
  /// Sessions (or runs) one repetition attempts.
  virtual std::uint64_t sessions_per_rep() const = 0;
  /// The independent streams the serial replay re-executes, in the order
  /// rep_result::streams lists them.
  virtual std::vector<stream> streams() const = 0;
  virtual replay_options replay_opts() const = 0;
  /// Workers the run spreads over (for ff.parallel_efficiency).
  virtual unsigned workers() const = 0;
  /// DES prediction of what the untraced measurement `measured_s` measures.
  virtual double des_predict(const replay_result& r,
                             const des::calibration& cal) const = 0;
  /// The measurement des_predict() predicts, from the untraced repetitions.
  virtual double des_measured(const std::vector<rep_result>& reps) const = 0;
  /// A model and config representative of the run, for des::calibrate.
  virtual std::pair<cwcsim::model_ref, cwcsim::sim_config> calibration_input()
      const = 0;
  /// Extra checks on a repetition beyond the per-stream comparison.
  virtual void check_run(const rep_result& r,
                         std::vector<std::string>& errors) const = 0;
};

/// The workload named `name` (nullptr when unknown), its inputs derived
/// from `seed`, spread over at most `nproc` workers.
std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned nproc);

/// Names accepted by make_workload, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// Compare one stream's outputs with the replay reference; returns an
/// empty string when they agree (means within 1e-9 relative).
std::string check_stream(const stream_output& o, const stream_reference& ref,
                         std::uint64_t trajectories);

}  // namespace perfbench
