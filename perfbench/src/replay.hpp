// Serial replay: one workload's trajectories driven single-threaded through
// the layers' public functions, in quantum-lockstep rounds like the batched
// and sweep drivers, with a span around every call group.
//
// The replay is both the output-check reference (per-trajectory SSA steps
// from an independent scalar cwc::engine, per-cut means from the same cut
// assembly and reductions the backends use) and, when traced, the source of
// the per-layer self times. A traced replay also drives the layers a
// workload's production path does not use (batch kernel, the other
// reducer, svc and dist codecs) on the workload's own data, so every layer
// metric is measured on every workload; `production_spans` names the spans
// on the workload's own path, whose self times sum to ff.serial_s.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cwcsim.hpp"
#include "des/des.hpp"
#include "trace.hpp"

namespace perfbench {

/// How a workload reduces its cuts: the window pipeline's summarize_cut
/// (multicore, distributed and served runs) or the sweep's per-cell
/// Welford + P² folds.
enum class reducer_kind { summarize, fold };

/// One independent stream: N trajectories of one compiled model (or sweep
/// cell overlay) under one config — the ensemble, one sweep cell, or one
/// served session.
struct stream {
  std::shared_ptr<const cwc::compiled_model> cm;
  cwcsim::sim_config cfg;
};

/// What the end-to-end outputs of one stream are checked against.
struct stream_reference {
  std::vector<std::uint64_t> steps;   ///< per trajectory id
  std::vector<std::uint64_t> quanta;  ///< per trajectory id
  std::size_t observables = 0;
  /// Mean of every observable at every cut, [cut * observables + d].
  std::vector<double> cut_means;
};

struct replay_options {
  reducer_kind production = reducer_kind::summarize;
  /// Lane width of the batch kernel replay (the sweep's production
  /// stepper; a cross-check elsewhere).
  std::size_t batch_width = 32;
  bool batch_is_production = false;
  bool dist_codec_is_production = false;
  bool svc_codec_is_production = false;
};

struct replay_counters {
  std::uint64_t steps = 0;          ///< scalar SSA steps
  std::uint64_t samples = 0;        ///< trajectory samples recorded
  std::uint64_t lane_steps = 0;     ///< batch kernel SSA steps
  std::uint64_t batch_calls = 0;    ///< step_quantum calls
  double occupancy_sum = 0.0;       ///< Σ live lanes / width over calls
  std::uint64_t cuts = 0;           ///< cuts the assemblers released
  std::uint64_t pending_peak = 0;   ///< most partly filled cuts in one assembler
  std::uint64_t values_folded = 0;  ///< values reduced by the production reducer
  std::uint64_t window_bytes = 0;   ///< svc window frames encoded
  std::uint64_t quantum_result_bytes = 0;
  /// Traced replays: batch lanes whose samples or steps differ from the
  /// scalar engine, plus streams whose two reducers' means differ.
  std::uint64_t layer_mismatches = 0;
};

struct replay_result {
  std::vector<stream_reference> refs;  ///< one per input stream
  replay_counters counters;
  /// Per-stream work profiles for the DES (traced replays only).
  std::vector<des::workload> profiles;
  std::vector<std::string> production_spans;
};

/// Replay `streams` in order. With a disabled tracer only the production
/// reducer and the scalar reference run.
replay_result replay(const std::vector<stream>& streams,
                     const replay_options& opt, tracer& t);

}  // namespace perfbench
