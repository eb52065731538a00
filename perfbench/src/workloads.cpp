#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

#include "models/models.hpp"
#include "sweep/sweep.hpp"
#include "svc/svc.hpp"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double seconds_since(double t0) { return now_s() - t0; }

stream_output collect(const cwcsim::run_report& rep, std::uint64_t n) {
  stream_output o;
  o.steps.assign(n, 0);
  o.quanta.assign(n, 0);
  for (const cwcsim::task_done& d : rep.result.completions) {
    ++o.completions;
    if (d.trajectory_id < n) {
      o.steps[d.trajectory_id] = d.steps;
      o.quanta[d.trajectory_id] = d.quanta;
    }
  }
  for (const auto& w : rep.result.windows)
    for (const auto& c : w.cuts)
      for (const auto& m : c.moments) o.cut_means.push_back(m.mean());
  return o;
}

/// One run_builder session from open() to wait(), its spans under `parent`.
struct session_timing {
  double open_s = 0.0;
  double first_result_s = -1.0;
  double total_s = 0.0;
};

cwcsim::run_report run_session(const cwc::model& m,
                               const cwcsim::sim_config& cfg,
                               const cwcsim::backend& b, tracer& t,
                               std::int32_t parent, session_timing& tm) {
  const double t0 = now_s();
  const std::int32_t sp = t.begin("e2e.session", parent);
  const std::int32_t op = t.begin("e2e.open", sp);
  auto s = cwcsim::run_builder().model(m).config(cfg).backend(b).open();
  t.end(op);
  tm.open_s = seconds_since(t0);
  std::atomic<bool> seen{false};
  s.on_window([&](const cwcsim::window_summary&) {
    if (!seen.exchange(true)) {
      tm.first_result_s = seconds_since(t0);
      t.record("e2e.first_result", t0, now_s(), sp);
    }
  });
  cwcsim::run_report rep = s.wait();
  t.end(sp);
  tm.total_s = seconds_since(t0);
  return rep;
}

std::shared_ptr<const cwc::compiled_model> compile(const cwc::model& m,
                                                   tracer& t) {
  const scope sp(t, "cwc.compile");
  return cwc::compiled_model::compile(m);
}

/// Traced set-ups of workloads without a sweep measure the overlay layer
/// on their own model: the one-cell sweep's overlay.
void identity_overlay(const std::shared_ptr<const cwc::compiled_model>& cm,
                      tracer& t) {
  if (!t.enabled()) return;
  const scope sp(t, "sweep.overlay");
  (void)cwc::compiled_model::overlay(cm, {});
}

unsigned clamp_workers(unsigned nproc) { return std::clamp(nproc, 1u, 4u); }

des::host_spec this_host(unsigned cores) {
  return {"this-host", std::max(1u, cores), 1.0, 1.0};
}

double median_wall(const std::vector<rep_result>& reps) {
  std::vector<double> w;
  for (const auto& r : reps) w.push_back(r.wall_s);
  return median(w);
}

// ------------------------------------------------------------- ensemble

/// The paper's Fig. 2/3 pipeline: the scalar multicore farm on Neurospora.
class ensemble_neurospora final : public workload {
 public:
  ensemble_neurospora(std::uint64_t seed, unsigned nproc)
      : nproc_(nproc), model_(models::make_neurospora_cwc({})) {
    cfg_.num_trajectories = 128;
    cfg_.t_end = 300.0;
    cfg_.sample_period = 0.5;
    cfg_.quantum = 5.0;
    cfg_.seed = mix(seed);
    cfg_.sim_workers = clamp_workers(nproc);
    cfg_.stat_engines = 1;
    cfg_.window_size = 16;
    cfg_.window_slide = 16;
    cfg_.kmeans_k = 2;
  }

  const char* name() const override { return "ensemble_neurospora"; }

  double setup(tracer& t) override {
    const double t0 = now_s();
    model_ = models::make_neurospora_cwc({});
    compiled_ = compile(model_, t);
    const double s = seconds_since(t0);
    identity_overlay(compiled_, t);
    return s;
  }

  rep_result run_once(tracer& t) override {
    rep_result r;
    const std::int32_t rp = t.begin("e2e.rep", -1);
    session_timing tm;
    const auto rep = run_session(model_, cfg_, cwcsim::multicore{}, t, rp, tm);
    t.end(rp);
    r.wall_s = tm.total_s;
    r.first_result_s = tm.first_result_s;
    r.trajectories = cfg_.num_trajectories;
    r.session_s = {tm.total_s};
    r.open_s = {tm.open_s};
    r.streams.push_back(collect(rep, cfg_.num_trajectories));
    return r;
  }

  std::uint64_t sessions_per_rep() const override { return 1; }
  std::vector<stream> streams() const override { return {{compiled_, cfg_}}; }
  replay_options replay_opts() const override { return {}; }
  unsigned workers() const override { return cfg_.sim_workers; }

  double des_predict(const replay_result& r,
                     const des::calibration& cal) const override {
    des::farm_params fp;
    fp.sim_workers = cfg_.sim_workers;
    fp.stat_engines = cfg_.stat_engines;
    fp.window_size = cfg_.window_size;
    fp.window_slide = cfg_.window_slide;
    return des::simulate_multicore(r.profiles.at(0), cal, this_host(nproc_), fp)
        .makespan_s;
  }
  double des_measured(const std::vector<rep_result>& reps) const override {
    return median_wall(reps);
  }
  std::pair<cwcsim::model_ref, cwcsim::sim_config> calibration_input()
      const override {
    cwcsim::model_ref mr;
    mr.tree = &model_;
    return {mr, cfg_};
  }
  void check_run(const rep_result&, std::vector<std::string>&) const override {}

 private:
  unsigned nproc_;
  cwc::model model_;
  std::shared_ptr<const cwc::compiled_model> compiled_;
  cwcsim::sim_config cfg_;
};

// ---------------------------------------------------------------- sweep

/// The analysis-dominated case: a batched sweep campaign on the
/// compartment demo, where cut assembly and per-cell folds outweigh
/// stepping.
class sweep_compartment final : public workload {
 public:
  sweep_compartment(std::uint64_t seed, unsigned nproc)
      : nproc_(nproc), model_(models::make_compartment_demo({})) {
    cfg_.num_trajectories = 128;
    cfg_.t_end = 1000.0;
    cfg_.sample_period = 0.5;
    cfg_.quantum = 2.0;
    cfg_.seed = mix(seed);
    cfg_.sim_workers = clamp_workers(nproc);
    cfg_.stat_engines = 1;
    cfg_.window_size = 5;
    cfg_.window_slide = 5;
    cfg_.kmeans_k = 0;
    plan_.axis_linspace("grow", 0.5, 2.0, kCells);
  }

  const char* name() const override { return "sweep_compartment"; }

  double setup(tracer& t) override {
    const double t0 = now_s();
    model_ = models::make_compartment_demo({});
    compiled_ = compile(model_, t);
    overlays_.clear();
    for (const auto& c : plan_.cells()) {
      const scope sp(t, "sweep.overlay");
      overlays_.push_back(cwc::compiled_model::overlay(compiled_, c.overrides));
    }
    return seconds_since(t0);
  }

  rep_result run_once(tracer& t) override {
    // Per-trajectory completions arrive through a caller-owned sink.
    class done_sink final : public cwcsim::event_sink {
     public:
      done_sink(std::vector<stream_output>& out, std::uint64_t n)
          : out_(&out), n_(n) {}
      void window(cwcsim::window_summary&&) override {}
      void trajectory_done(const cwcsim::task_done& d) override {
        const std::lock_guard<std::mutex> lock(mu_);
        const std::uint64_t cell = d.trajectory_id / n_;
        const std::uint64_t id = d.trajectory_id % n_;
        if (cell >= out_->size()) return;
        stream_output& o = (*out_)[cell];
        ++o.completions;
        o.steps[id] = d.steps;
        o.quanta[id] = d.quanta;
      }
      bool stop_requested() const noexcept override { return false; }

     private:
      std::mutex mu_;
      std::vector<stream_output>* out_;
      std::uint64_t n_;
    };

    rep_result r;
    const std::uint64_t n = cfg_.num_trajectories;
    r.streams.resize(kCells);
    for (auto& o : r.streams) {
      o.steps.assign(n, 0);
      o.quanta.assign(n, 0);
    }
    done_sink sink(r.streams, n);
    const cwcsim::backend b = cwcsim::multicore{kBatchWidth};

    const double t0 = now_s();
    const std::int32_t rp = t.begin("e2e.rep", -1);
    const std::int32_t op = t.begin("e2e.open", rp);
    cwcsim::validate(cfg_, b, plan_);
    t.end(op);
    const double open_s = seconds_since(t0);
    std::atomic<bool> seen{false};
    double first = -1.0;
    const cwcsim::sweep::report rep =
        cwcsim::sweep_builder()
            .model(model_)
            .config(cfg_)
            .backend(b)
            .plan(plan_)
            .sink(&sink)
            .on_cell_done([&](std::uint32_t) {
              if (!seen.exchange(true)) {
                first = seconds_since(t0);
                t.record("e2e.first_result", t0, now_s(), rp);
              }
            })
            .run();
    t.end(rp);
    r.wall_s = seconds_since(t0);
    r.first_result_s = first;
    r.trajectories = n * kCells;
    r.session_s = {r.wall_s};
    r.open_s = {open_s};

    for (std::size_t c = 0; c < kCells; ++c) {
      stream_output& o = r.streams[c];
      if (c >= rep.cells.size()) {
        o.error = "cell missing from the sweep report";
        continue;
      }
      const cwcsim::sweep::cell_report& cr = rep.cells[c];
      for (const auto& p : cr.points)
        for (const auto& os : p.observables) o.cut_means.push_back(os.moments.mean());
      std::uint64_t steps = 0;
      for (std::uint64_t s : o.steps) steps += s;
      if (cr.trajectories != n || cr.steps != steps)
        o.error = "cell report counts disagree with its completions";
    }
    if (rep.stopped) r.run_errors.push_back("sweep reported stopped");
    return r;
  }

  std::uint64_t sessions_per_rep() const override { return 1; }
  std::vector<stream> streams() const override {
    std::vector<stream> out;
    for (const auto& o : overlays_) out.push_back({o, cfg_});
    return out;
  }
  replay_options replay_opts() const override {
    replay_options o;
    o.production = reducer_kind::fold;
    o.batch_width = kBatchWidth;
    o.batch_is_production = true;
    return o;
  }
  unsigned workers() const override { return cfg_.sim_workers; }

  double des_predict(const replay_result& r,
                     const des::calibration& cal) const override {
    // The campaign as one Fig. 2 pipeline over all M x N trajectories.
    des::workload w = r.profiles.at(0);
    for (std::size_t c = 1; c < r.profiles.size(); ++c) {
      w.num_trajectories += r.profiles[c].num_trajectories;
      w.quanta.insert(w.quanta.end(), r.profiles[c].quanta.begin(),
                      r.profiles[c].quanta.end());
    }
    des::farm_params fp;
    fp.sim_workers = cfg_.sim_workers;
    fp.stat_engines = cfg_.stat_engines;
    fp.window_size = cfg_.window_size;
    fp.window_slide = cfg_.window_slide;
    return des::simulate_multicore(w, cal, this_host(nproc_), fp).makespan_s;
  }
  double des_measured(const std::vector<rep_result>& reps) const override {
    return median_wall(reps);
  }
  std::pair<cwcsim::model_ref, cwcsim::sim_config> calibration_input()
      const override {
    cwcsim::model_ref mr;
    mr.tree = &model_;
    return {mr, cfg_};
  }
  void check_run(const rep_result&, std::vector<std::string>&) const override {}

 private:
  static constexpr std::size_t kCells = 8;
  static constexpr std::size_t kBatchWidth = 32;
  unsigned nproc_;
  cwc::model model_;
  std::shared_ptr<const cwc::compiled_model> compiled_;
  std::vector<std::shared_ptr<const cwc::compiled_model>> overlays_;
  cwcsim::sim_config cfg_;
  cwcsim::sweep::plan plan_;
};

// --------------------------------------------------------------- served

/// Many short sessions on one run server: a closed loop of `kInFlight`
/// clients, sessions alternating Neurospora and the compartment demo.
class served_tenants final : public workload {
 public:
  served_tenants(std::uint64_t seed, unsigned nproc)
      : nproc_(nproc),
        workers_(clamp_workers(nproc)),
        neuro_(models::make_neurospora_cwc({})),
        demo_(models::make_compartment_demo({})) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      cwcsim::sim_config c;
      c.num_trajectories = 16;
      c.t_end = 20.0;
      c.sample_period = 0.5;
      c.quantum = 2.0;
      c.seed = mix(seed ^ mix(i + 1));
      c.sim_workers = workers_;
      c.stat_engines = 1;
      c.window_size = 5;
      c.window_slide = 5;
      c.kmeans_k = 0;
      cfgs_.push_back(c);
    }
  }

  const char* name() const override { return "served_tenants"; }

  double setup(tracer& t) override {
    const double t0 = now_s();
    neuro_ = models::make_neurospora_cwc({});
    demo_ = models::make_compartment_demo({});
    neuro_cm_ = compile(neuro_, t);
    demo_cm_ = compile(demo_, t);
    auto server = std::make_unique<svc::run_server>(server_config());
    const double s = seconds_since(t0);
    server.reset();
    identity_overlay(neuro_cm_, t);
    identity_overlay(demo_cm_, t);
    return s;
  }

  rep_result run_once(tracer& t) override {
    rep_result r;
    r.streams.resize(kSessions);
    r.session_s.assign(kSessions, 0.0);
    r.open_s.assign(kSessions, 0.0);
    std::vector<double> first(kSessions, 0.0);
    auto server = std::make_unique<svc::run_server>(server_config());

    const double t0 = now_s();
    const std::int32_t rp = t.begin("e2e.rep", -1);
    std::atomic<std::size_t> next{0};
    auto client = [&] {
      for (std::size_t i = next++; i < kSessions; i = next++) {
        const cwc::model& m = i % 2 == 0 ? neuro_ : demo_;
        session_timing tm;
        try {
          const auto rep = run_session(m, cfgs_[i],
                                       cwcsim::service{server.get()}, t, rp, tm);
          r.streams[i] = collect(rep, cfgs_[i].num_trajectories);
        } catch (const std::exception& e) {
          r.streams[i].error = e.what();
        }
        r.session_s[i] = tm.total_s;
        r.open_s[i] = tm.open_s;
        first[i] = tm.first_result_s;
      }
    };
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kInFlight; ++c) clients.emplace_back(client);
    for (auto& c : clients) c.join();
    t.end(rp);
    r.wall_s = seconds_since(t0);
    r.first_result_s = median(first);
    r.trajectories = 0;
    for (const auto& c : cfgs_) r.trajectories += c.num_trajectories;
    r.server = server->stats();
    server.reset();
    return r;
  }

  std::uint64_t sessions_per_rep() const override { return kSessions; }
  std::vector<stream> streams() const override {
    std::vector<stream> out;
    for (std::size_t i = 0; i < kSessions; ++i)
      out.push_back({i % 2 == 0 ? neuro_cm_ : demo_cm_, cfgs_[i]});
    return out;
  }
  replay_options replay_opts() const override {
    replay_options o;
    o.batch_width = 16;
    o.svc_codec_is_production = true;
    return o;
  }
  unsigned workers() const override { return workers_; }

  double des_predict(const replay_result& r,
                     const des::calibration& cal) const override {
    // One Neurospora session on its share of the pool (kInFlight sessions
    // share the workers): the predicted session latency.
    des::farm_params fp;
    fp.sim_workers = std::max(1u, workers_ / kInFlight);
    fp.stat_engines = 1;
    fp.window_size = cfgs_[0].window_size;
    fp.window_slide = cfgs_[0].window_slide;
    return des::simulate_multicore(r.profiles.at(0), cal,
                                   this_host(nproc_ / kInFlight), fp)
        .makespan_s;
  }
  double des_measured(const std::vector<rep_result>& reps) const override {
    std::vector<double> s;
    for (const auto& r : reps)
      for (std::size_t i = 0; i < r.session_s.size(); i += 2)
        s.push_back(r.session_s[i]);  // Neurospora sessions, like the DES
    return median(s);
  }
  std::pair<cwcsim::model_ref, cwcsim::sim_config> calibration_input()
      const override {
    cwcsim::model_ref mr;
    mr.tree = &neuro_;
    return {mr, cfgs_[0]};
  }
  void check_run(const rep_result& r,
                 std::vector<std::string>& errors) const override {
    if (!r.server) {
      errors.push_back("no server stats");
      return;
    }
    const svc::server_stats& s = *r.server;
    if (s.quanta_executed != s.quanta_accepted + s.quanta_discarded)
      errors.push_back("svc ledger does not balance: executed " +
                       std::to_string(s.quanta_executed) + " != accepted " +
                       std::to_string(s.quanta_accepted) + " + discarded " +
                       std::to_string(s.quanta_discarded));
    if (s.cache.compiles != 2)
      errors.push_back("model cache compiled " +
                       std::to_string(s.cache.compiles) + " models, not 2");
    if (s.sessions_shed != 0)
      errors.push_back(std::to_string(s.sessions_shed) + " opens were shed");
  }

 private:
  static constexpr std::size_t kSessions = 200;
  static constexpr unsigned kInFlight = 4;

  svc::svc_config server_config() const {
    svc::svc_config sc;
    sc.pool_workers = workers_;
    return sc;
  }

  unsigned nproc_;
  unsigned workers_;
  cwc::model neuro_;
  cwc::model demo_;
  std::shared_ptr<const cwc::compiled_model> neuro_cm_;
  std::shared_ptr<const cwc::compiled_model> demo_cm_;
  std::vector<cwcsim::sim_config> cfgs_;
};

// -------------------------------------------------------------- cluster

/// The elastic distributed master and the wire codecs, on a zero-latency
/// unthrottled network so wall time measures the program.
class cluster_elastic final : public workload {
 public:
  cluster_elastic(std::uint64_t seed, unsigned nproc)
      : nproc_(nproc), model_(models::make_neurospora_cwc({})) {
    cfg_.num_trajectories = 64;
    cfg_.t_end = 300.0;
    cfg_.sample_period = 0.5;
    cfg_.quantum = 5.0;
    cfg_.seed = mix(seed);
    cfg_.sim_workers = clamp_workers(nproc);
    cfg_.stat_engines = 1;
    cfg_.window_size = 16;
    cfg_.window_slide = 16;
    cfg_.kmeans_k = 0;
    backend_.num_hosts = 2;
    backend_.workers_per_host = std::max(1u, clamp_workers(nproc) / 2);
  }

  const char* name() const override { return "cluster_elastic"; }

  double setup(tracer& t) override {
    const double t0 = now_s();
    model_ = models::make_neurospora_cwc({});
    compiled_ = compile(model_, t);
    const double s = seconds_since(t0);
    identity_overlay(compiled_, t);
    return s;
  }

  rep_result run_once(tracer& t) override {
    rep_result r;
    const std::int32_t rp = t.begin("e2e.rep", -1);
    session_timing tm;
    const auto rep = run_session(model_, cfg_, backend_, t, rp, tm);
    t.end(rp);
    r.wall_s = tm.total_s;
    r.first_result_s = tm.first_result_s;
    r.trajectories = cfg_.num_trajectories;
    r.session_s = {tm.total_s};
    r.open_s = {tm.open_s};
    r.streams.push_back(collect(rep, cfg_.num_trajectories));
    r.network = rep.network;
    if (!rep.network) r.run_errors.push_back("no network stats");
    return r;
  }

  std::uint64_t sessions_per_rep() const override { return 1; }
  std::vector<stream> streams() const override { return {{compiled_, cfg_}}; }
  replay_options replay_opts() const override {
    replay_options o;
    o.dist_codec_is_production = true;
    return o;
  }
  unsigned workers() const override {
    return backend_.num_hosts * backend_.workers_per_host;
  }

  double des_predict(const replay_result& r,
                     const des::calibration& cal) const override {
    des::cluster_params cp;
    const unsigned per_host = backend_.workers_per_host;
    cp.hosts.assign(backend_.num_hosts, this_host(per_host));
    cp.master = this_host(nproc_);
    cp.network = {"in-process", 0.0, 0.0};
    cp.sim_workers_per_host = per_host;
    cp.stat_engines = cfg_.stat_engines;
    cp.window_size = cfg_.window_size;
    cp.window_slide = cfg_.window_slide;
    return des::simulate_cluster(r.profiles.at(0), cal, cp).makespan_s;
  }
  double des_measured(const std::vector<rep_result>& reps) const override {
    return median_wall(reps);
  }
  std::pair<cwcsim::model_ref, cwcsim::sim_config> calibration_input()
      const override {
    cwcsim::model_ref mr;
    mr.tree = &model_;
    return {mr, cfg_};
  }
  void check_run(const rep_result& r,
                 std::vector<std::string>& errors) const override {
    if (!r.network || r.streams.empty()) return;
    std::uint64_t hosts = 0;
    for (std::uint64_t q : r.network->host_quanta) hosts += q;
    std::uint64_t accepted = 0;
    for (std::uint64_t q : r.streams[0].quanta) accepted += q;
    if (hosts != accepted)
      errors.push_back("sum of host_quanta " + std::to_string(hosts) +
                       " != accepted quanta " + std::to_string(accepted));
  }

 private:
  unsigned nproc_;
  cwc::model model_;
  std::shared_ptr<const cwc::compiled_model> compiled_;
  cwcsim::sim_config cfg_;
  cwcsim::distributed backend_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"ensemble_neurospora", "sweep_compartment", "served_tenants",
          "cluster_elastic"};
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned nproc) {
  if (name == "ensemble_neurospora")
    return std::make_unique<ensemble_neurospora>(seed, nproc);
  if (name == "sweep_compartment")
    return std::make_unique<sweep_compartment>(seed, nproc);
  if (name == "served_tenants")
    return std::make_unique<served_tenants>(seed, nproc);
  if (name == "cluster_elastic")
    return std::make_unique<cluster_elastic>(seed, nproc);
  return nullptr;
}

std::string check_stream(const stream_output& o, const stream_reference& ref,
                         std::uint64_t trajectories) {
  if (!o.error.empty()) return o.error;
  if (o.completions != trajectories)
    return std::to_string(o.completions) + " completions, expected " +
           std::to_string(trajectories);
  for (std::uint64_t i = 0; i < trajectories; ++i) {
    if (o.quanta[i] == 0) return "trajectory " + std::to_string(i) + " never completed";
    if (o.steps[i] != ref.steps[i])
      return "trajectory " + std::to_string(i) + " ran " +
             std::to_string(o.steps[i]) + " SSA steps, scalar replay " +
             std::to_string(ref.steps[i]);
    if (o.quanta[i] != ref.quanta[i])
      return "trajectory " + std::to_string(i) + " took " +
             std::to_string(o.quanta[i]) + " quanta, scalar replay " +
             std::to_string(ref.quanta[i]);
  }
  if (o.cut_means.size() != ref.cut_means.size())
    return std::to_string(o.cut_means.size()) + " cut means, replay has " +
           std::to_string(ref.cut_means.size());
  for (std::size_t i = 0; i < o.cut_means.size(); ++i) {
    const double a = o.cut_means[i];
    const double b = ref.cut_means[i];
    if (std::fabs(a - b) > 1e-9 * std::max(std::fabs(a), std::fabs(b)))
      return "cut mean " + std::to_string(i) + " is " + std::to_string(a) +
             ", replay " + std::to_string(b);
  }
  return {};
}

}  // namespace perfbench
