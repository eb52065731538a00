#include "replay.hpp"

#include <algorithm>
#include <utility>

#include "core/alignment.hpp"
#include "core/quantum.hpp"
#include "cwc/batch/batch_engine.hpp"
#include "dist/archive.hpp"
#include "dist/wire.hpp"
#include "stats/quantile.hpp"
#include "svc/proto.hpp"
#include "sweep/report.hpp"

namespace perfbench {

namespace {

/// Span names; driver.cpp reads the same strings for the metric table.
constexpr const char* kStep = "cwc.step";
constexpr const char* kBatch = "cwc.batch.step_quantum";
constexpr const char* kIngest = "core.align.ingest";
constexpr const char* kPush = "stats.window.push";
constexpr const char* kSummarize = "stats.summarize";
constexpr const char* kFold = "stats.fold";
constexpr const char* kWinEnc = "svc.proto.encode_window";
constexpr const char* kWinDec = "svc.proto.decode_window";
constexpr const char* kQrEnc = "dist.wire.encode_quantum_result";
constexpr const char* kQrDec = "dist.wire.decode_quantum_result";

/// The reductions of one stream: the production reducer records the
/// reference cut means; a traced replay also runs the other reducer (its
/// means must agree) and the svc window codec.
class stream_analysis {
 public:
  stream_analysis(const stream& s, const replay_options& opt, tracer& t,
                  replay_counters& c, stream_reference& ref)
      : cfg_(&s.cfg),
        obs_(s.cm->num_observables()),
        opt_(&opt),
        t_(&t),
        c_(&c),
        ref_(&ref),
        assembler_(s.cfg, obs_),
        builder_(s.cfg.window_size, s.cfg.window_slide) {
    ref.observables = obs_;
  }

  void ingest(std::uint64_t trajectory, const cwc::trajectory_sample& s) {
    const auto k =
        static_cast<std::uint64_t>(s.time / cfg_->sample_period + 0.5);
    started_ = std::max(started_, k + 1);
    assembler_.ingest(trajectory, s, [this](stats::trajectory_cut&& cut) {
      ++c_->cuts;
      std::vector<stats::trajectory_window> ws;
      {
        const scope sp(*t_, kPush);
        ws = builder_.push(std::move(cut));
      }
      for (const auto& w : ws) reduce(w);
    });
    c_->pending_peak =
        std::max(c_->pending_peak, started_ - assembler_.emitted());
  }

  void finish() {
    std::vector<stats::trajectory_window> ws;
    {
      const scope sp(*t_, kPush);
      ws = builder_.flush();
    }
    for (const auto& w : ws) reduce(w);
    util::ensures(assembler_.drained(), "replay alignment buffer not drained");
    if (t_->enabled() && alt_means_ != ref_->cut_means) ++c_->layer_mismatches;
  }

 private:
  void reduce(const stats::trajectory_window& w) {
    const bool prod_summarize = opt_->production == reducer_kind::summarize;
    if (t_->enabled() || prod_summarize)
      summarize(w, prod_summarize ? ref_->cut_means : alt_means_);
    if (t_->enabled() || !prod_summarize)
      fold(w, prod_summarize ? alt_means_ : ref_->cut_means);
  }

  /// The window pipeline's statistical engine (core/online_analysis.hpp).
  void summarize(const stats::trajectory_window& w, std::vector<double>& means) {
    cwcsim::window_summary s;
    {
      const scope sp(*t_, kSummarize);
      s.first_sample = w.first_sample;
      s.cuts.reserve(w.cuts.size());
      for (const auto& cut : w.cuts)
        s.cuts.push_back(stats::summarize_cut(cut, cfg_->kmeans_k, cfg_->seed));
    }
    for (const auto& cs : s.cuts) {
      if (cs.sample_index < next_summarized_) continue;
      next_summarized_ = cs.sample_index + 1;
      if (&means == &ref_->cut_means)
        c_->values_folded += cfg_->num_trajectories * obs_;
      for (const auto& m : cs.moments) means.push_back(m.mean());
    }
    if (!t_->enabled()) return;
    dist::byte_buffer frame;
    {
      const scope sp(*t_, kWinEnc);
      frame = svc::encode_window(seq_++, s);
    }
    c_->window_bytes += frame.size();
    const scope sp(*t_, kWinDec);
    dist::archive_reader r(frame);
    (void)svc::read_frame_header(r);
    (void)svc::read_window(r);
  }

  /// The sweep's per-cell reduction (sweep/campaign.cpp cell_reducer).
  void fold(const stats::trajectory_window& w, std::vector<double>& means) {
    const scope sp(*t_, kFold);
    for (const stats::trajectory_cut& cut : w.cuts) {
      if (cut.sample_index < next_folded_) continue;
      next_folded_ = cut.sample_index + 1;
      if (&means == &ref_->cut_means)
        c_->values_folded += cut.values.size() * obs_;
      cwcsim::sweep::point_summary p;
      p.sample_index = cut.sample_index;
      p.time = cut.time;
      p.observables.resize(obs_);
      for (std::size_t d = 0; d < obs_; ++d) {
        cwcsim::sweep::observable_summary& os = p.observables[d];
        stats::p2_quantile q10(0.1), q50(0.5), q90(0.9);
        for (const std::vector<double>& row : cut.values) {
          os.moments.add(row[d]);
          q10.add(row[d]);
          q50.add(row[d]);
          q90.add(row[d]);
        }
        os.q10 = q10.value();
        os.q50 = q50.value();
        os.q90 = q90.value();
        means.push_back(os.moments.mean());
      }
      if (cfg_->kmeans_k > 0)
        p.clusters = stats::kmeans(cut.values, cfg_->kmeans_k, cfg_->seed);
      points_.push_back(std::move(p));
    }
  }

  const cwcsim::sim_config* cfg_;
  std::size_t obs_;
  const replay_options* opt_;
  tracer* t_;
  replay_counters* c_;
  stream_reference* ref_;
  cwcsim::cut_assembler assembler_;
  stats::sliding_window_builder builder_;
  std::uint64_t started_ = 0;
  std::uint64_t next_summarized_ = 0;
  std::uint64_t next_folded_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<double> alt_means_;  // the non-production reducer's means
  std::vector<cwcsim::sweep::point_summary> points_;  // the fold's output
};

bool same_samples(const std::vector<cwc::trajectory_sample>& a,
                  const std::vector<cwc::trajectory_sample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].time != b[i].time || a[i].values != b[i].values) return false;
  return true;
}

void replay_stream(const stream& s, const replay_options& opt, tracer& t,
                   replay_counters& c, stream_reference& ref,
                   des::workload* profile) {
  const cwcsim::sim_config& cfg = s.cfg;
  const std::uint64_t n = cfg.num_trajectories;
  ref.steps.assign(n, 0);
  ref.quanta.assign(n, 0);
  if (profile != nullptr) {
    profile->num_trajectories = n;
    profile->num_samples = cfg.num_samples();
    profile->observables = s.cm->num_observables();
    profile->t_end = cfg.t_end;
    profile->sample_period = cfg.sample_period;
    profile->quantum = cfg.quantum;
    profile->quanta.assign(n, {});
  }

  struct lane {
    cwcsim::any_engine eng;
    cwcsim::quantum_outcome out;
    std::uint64_t quanta = 0;
    bool retired = false;
  };
  std::vector<lane> lanes;
  lanes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    lanes.push_back({cwcsim::any_engine(s.cm, cfg.seed, i), {}, 0, false});

  // The batch kernel runs in traced replays only (it is the sweep's
  // production stepper, a cross-check everywhere else).
  struct chunk {
    std::unique_ptr<cwc::batch::batch_engine> eng;
    std::uint64_t first = 0;
    std::vector<std::vector<cwc::trajectory_sample>> samples;
  };
  std::vector<chunk> chunks;
  if (t.enabled() && cwc::batch::batch_engine::supports(*s.cm))
    for (std::uint64_t first = 0; first < n; first += opt.batch_width) {
      const std::size_t w =
          static_cast<std::size_t>(std::min<std::uint64_t>(opt.batch_width, n - first));
      chunks.push_back({std::make_unique<cwc::batch::batch_engine>(
                            s.cm, cfg.seed, first, w),
                        first, {}});
    }

  stream_analysis analysis(s, opt, t, c, ref);
  std::vector<dist::byte_buffer> frames;
  std::uint64_t live = n;
  while (live > 0) {
    {
      const scope sp(t, kStep);
      for (std::uint64_t i = 0; i < n; ++i) {
        lane& L = lanes[i];
        if (L.retired) continue;
        L.out = cwcsim::advance_one_quantum(L.eng, cfg, i, L.quanta);
        ++L.quanta;
      }
    }
    for (chunk& ch : chunks) {
      const std::size_t w = ch.eng->width();
      std::size_t busy = 0;
      for (std::size_t j = 0; j < w; ++j) busy += ch.eng->time(j) < cfg.t_end;
      if (busy == 0) continue;
      ++c.batch_calls;
      c.occupancy_sum += static_cast<double>(busy) / static_cast<double>(w);
      for (auto& v : ch.samples) v.clear();
      {
        const scope sp(t, kBatch);
        ch.eng->step_quantum(cfg.quantum, cfg.t_end, cfg.sample_period,
                             ch.samples);
      }
      for (std::size_t j = 0; j < w; ++j) {
        const lane& L = lanes[ch.first + j];
        if (L.retired) continue;
        if (!same_samples(ch.samples[j], L.out.batch.samples) ||
            ch.eng->steps(j) != L.eng.steps())
          ++c.layer_mismatches;
      }
    }
    if (t.enabled()) {
      frames.clear();
      std::vector<dist::quantum_result> qs;
      for (std::uint64_t i = 0; i < n; ++i) {
        const lane& L = lanes[i];
        if (L.retired) continue;
        dist::quantum_result q;
        q.trajectory_id = i;
        q.quantum_index = L.quanta - 1;
        q.time = L.eng.time();
        q.steps = L.eng.steps();
        q.finished = L.out.finished;
        q.samples = L.out.batch.samples;
        qs.push_back(std::move(q));
      }
      {
        const scope sp(t, kQrEnc);
        for (const auto& q : qs) frames.push_back(dist::encode_quantum_result(q));
      }
      for (const auto& f : frames) c.quantum_result_bytes += f.size();
      const scope sp(t, kQrDec);
      for (const auto& f : frames) (void)dist::decode_quantum_result(f);
    }
    {
      const scope sp(t, kIngest);
      for (std::uint64_t i = 0; i < n; ++i) {
        const lane& L = lanes[i];
        if (L.retired) continue;
        for (const cwc::trajectory_sample& smp : L.out.batch.samples)
          analysis.ingest(i, smp);
      }
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      lane& L = lanes[i];
      if (L.retired) continue;
      c.samples += L.out.batch.samples.size();
      if (profile != nullptr)
        profile->quanta[i].push_back(
            {L.out.record.ssa_steps, L.out.record.samples});
      if (L.out.finished) {
        L.retired = true;
        --live;
        ref.steps[i] = L.out.done.steps;
        ref.quanta[i] = L.out.done.quanta;
        c.steps += L.out.done.steps;
      }
    }
  }
  analysis.finish();
  for (const chunk& ch : chunks)
    for (std::size_t j = 0; j < ch.eng->width(); ++j) {
      c.lane_steps += ch.eng->steps(j);
      if (ch.eng->steps(j) != ref.steps[ch.first + j]) ++c.layer_mismatches;
    }
}

}  // namespace

replay_result replay(const std::vector<stream>& streams,
                     const replay_options& opt, tracer& t) {
  replay_result r;
  r.refs.resize(streams.size());
  if (t.enabled()) r.profiles.resize(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i)
    replay_stream(streams[i], opt, t, r.counters, r.refs[i],
                  t.enabled() ? &r.profiles[i] : nullptr);

  r.production_spans = {opt.batch_is_production ? kBatch : kStep, kIngest,
                        kPush,
                        opt.production == reducer_kind::fold ? kFold
                                                             : kSummarize};
  if (opt.dist_codec_is_production) {
    r.production_spans.push_back(kQrEnc);
    r.production_spans.push_back(kQrDec);
  }
  if (opt.svc_codec_is_production) {
    r.production_spans.push_back(kWinEnc);
    r.production_spans.push_back(kWinDec);
  }
  return r;
}

}  // namespace perfbench
