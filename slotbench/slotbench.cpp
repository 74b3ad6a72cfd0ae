// Slot-level end-to-end benchmark binary.
//
// Drives the public per-slot API from outside, exactly as a caller would:
//
//   fig5-k4        P2Workspace::step over the Fig. 5 topology (18x48, k=4,
//                  WorldCup-like trace, b=1e3) — the monolithic sparse
//                  Newton layer;
//   scaled-32x256  P2Workspace::step over testing::generate_scaled_instance
//                  at 32x256/k2 — where kAuto switches to consensus ADMM;
//   serve-k1       serve::ServeDaemon::step fed parsed tick lines (18x48,
//                  k=1, Wikipedia-like ticks), with periodic snapshots, one
//                  mid-stream restore, and seeded cold-restart faults.
//
// One invocation runs --episodes whole episodes (set-up, then a fixed slot
// sequence in a closed loop); the count never depends on how fast the host
// is. It verifies every
// slot and every trajectory outside the timed calls and prints one JSON
// document of raw samples on stdout; slotbench/run.py turns those samples
// into metrics.
//
//   slotbench --workload fig5-k4 --seed 3 --threads 1 [--episodes N]
//             [--traced --trace-out FILE] [--certificate]
//             [--snapshot-dir DIR] [--degrade-every N]
//
// --traced enables the metrics registry and span tracing for this process
// only (timed runs keep both off) and exports the spans to --trace-out when
// the run ends. --degrade-every N forces hold-and-repair on every N-th slot;
// it exists to test that such slots are counted as failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cloudnet/instance.hpp"
#include "cloudnet/workload.hpp"
#include "core/certificate.hpp"
#include "core/cost.hpp"
#include "core/p2_subproblem.hpp"
#include "obs/obs.hpp"
#include "serve/daemon.hpp"
#include "serve/tick.hpp"
#include "testing/fault_injection.hpp"
#include "testing/generator.hpp"
#include "testing/invariants.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace sora;

constexpr std::uint64_t kTraceSeed = 20160704;  // the Fig. 5 evaluation seed
constexpr double kNoiseSd = 0.01;               // seeded demand noise
constexpr double kNoiseClamp = 0.03;            // |noise| cap; keeps the
                                                // provisioning rule feasible

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  std::size_t episodes = 1;
  bool traced = false;
  std::string trace_out;
  bool certificate = false;
  std::string snapshot_dir = ".";
  std::size_t degrade_every = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "slotbench: " << why << "\n"
            << "usage: slotbench --workload fig5-k4|scaled-32x256|serve-k1 "
               "--seed N --threads T [--episodes N] "
               "[--traced --trace-out F] "
               "[--certificate] [--snapshot-dir D] "
               "[--degrade-every N]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--threads") a.threads = std::stoul(value());
    else if (flag == "--episodes") a.episodes = std::stoul(value());
    else if (flag == "--traced") a.traced = true;
    else if (flag == "--trace-out") a.trace_out = value();
    else if (flag == "--certificate") a.certificate = true;
    else if (flag == "--snapshot-dir") a.snapshot_dir = value();
    else if (flag == "--degrade-every") a.degrade_every = std::stoul(value());
    else usage("unknown flag " + flag);
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.threads == 0) usage("--threads is required");
  if (a.episodes == 0) usage("--episodes must be at least 1");
  if (a.traced && a.trace_out.empty()) usage("--traced needs --trace-out");
  return a;
}

// ---------------------------------------------------------------------------
// Samples.

struct SlotRecord {
  double step_ms = 0.0;     // wall time of the public step call
  double work_ms = 0.0;     // step plus the caller's per-slot work (tick
                            // parsing, snapshot writes, the restore)
  double solve_ms = -1.0;   // P2Workspace::step inside ServeDaemon::step
  double build_ms = -1.0;   // P2Timing::build_seconds (-1 = not observed)
  double barrier_ms = -1.0; // P2Timing::solve_seconds
  double newton = -1.0;     // Newton steps (-1 = not observed)
  int warm = -1;            // warm-started (-1 = not observed)
  std::size_t attempts = 0;
  bool fell_back = false;
  bool degraded = false;
  bool threw = false;
  bool invalid = false;     // failed the per-slot invariant check
  bool faulted = false;     // scheduled by the fault injector
  bool first = false;       // first slot of its episode (cold)
};

struct EpisodeRecord {
  double loop_s = 0.0;  // summed per-slot work (SlotRecord::work_ms)
  std::size_t slots = 0;
  core::CostBreakdown cost;
};

// Registry deltas over the slot loops (traced runs).
struct RegistryDelta {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  // count, sum

  void add(const obs::RegistrySnapshot& before,
           const obs::RegistrySnapshot& after) {
    for (const auto& [name, v] : after.counters) {
      const auto it = before.counters.find(name);
      counters[name] += static_cast<double>(
          v - (it == before.counters.end() ? 0 : it->second));
    }
    for (const auto& [name, h] : after.histograms) {
      const auto it = before.histograms.find(name);
      auto& acc = histograms[name];
      acc.first += static_cast<double>(
          h.count - (it == before.histograms.end() ? 0 : it->second.count));
      acc.second += h.sum - (it == before.histograms.end() ? 0.0
                                                           : it->second.sum);
    }
  }
};

struct RunData {
  std::vector<double> setup_s;  // every set-up of the run
  std::vector<EpisodeRecord> episodes;
  std::vector<SlotRecord> slots;
  std::vector<std::string> errors;
  RegistryDelta registry;
  double snapshot_bytes = 0.0;
  double certificate_ratio = 0.0;
  double certificate_bound = 0.0;
  double certificate_violation = 0.0;
  std::size_t edges = 0, tier1 = 0, tier2 = 0, episode_slots = 0;

  void fail(const std::string& what) {
    if (errors.size() < 50) errors.push_back(what);
  }
};

double hist_sum(const obs::RegistrySnapshot& s, const char* name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

std::uint64_t counter_value(const obs::RegistrySnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

// Per-slot P2 figures from registry deltas, for callers (the daemon) that do
// not hand the P2Solution back.
void fill_from_registry(const obs::RegistrySnapshot& before,
                        const obs::RegistrySnapshot& after, SlotRecord& rec) {
  rec.build_ms = 1e3 * (hist_sum(after, "sora_p2_build_seconds") -
                        hist_sum(before, "sora_p2_build_seconds"));
  rec.barrier_ms = 1e3 * (hist_sum(after, "sora_p2_barrier_seconds") -
                          hist_sum(before, "sora_p2_barrier_seconds"));
  rec.newton = hist_sum(after, "sora_ipm_newton_steps") -
               hist_sum(before, "sora_ipm_newton_steps");
  rec.warm = counter_value(after, "sora_p2_warm_starts_total") >
                     counter_value(before, "sora_p2_warm_starts_total")
                 ? 1
                 : 0;
}

// ---------------------------------------------------------------------------
// Inputs.

// Seeded multiplicative demand noise: each lambda_jt is scaled by
// 1 + clamp(N(0, kNoiseSd)). The instance's capacities were provisioned for
// 1.25x the noise-free peak, so every noisy slot stays coverable.
void apply_demand_noise(std::vector<std::vector<double>>& demand,
                        std::uint64_t seed) {
  util::Rng rng = util::Rng(seed).child(0x5107);
  for (auto& row : demand)
    for (double& v : row)
      v *= 1.0 + std::clamp(kNoiseSd * rng.normal(), -kNoiseClamp,
                            kNoiseClamp);
}

core::Instance make_fig5_instance(std::uint64_t seed, std::size_t horizon) {
  util::Rng rng(kTraceSeed);
  const auto trace = cloudnet::worldcup_like(horizon, rng);
  cloudnet::InstanceConfig cfg;
  cfg.num_tier2 = 18;
  cfg.num_tier1 = 48;
  cfg.sla_k = 4;
  cfg.reconfig_weight = 1e3;
  cfg.seed = kTraceSeed + 17;
  core::Instance inst = cloudnet::build_instance(cfg, trace);
  apply_demand_noise(inst.demand, seed);
  return inst;
}

core::Instance make_scaled_instance(std::uint64_t seed, std::size_t horizon) {
  testing::ScaledTopologyConfig cfg;
  cfg.num_tier2 = 32;
  cfg.num_tier1 = 256;
  cfg.sla_k = 2;
  cfg.horizon = horizon;
  cfg.seed = 1;
  core::Instance inst = testing::generate_scaled_instance(cfg);
  apply_demand_noise(inst.demand, seed);
  return inst;
}

core::RoaOptions bench_roa_options() {
  core::RoaOptions opts;
  // Pinned: a nonzero budget discards late answers, which would make the
  // trajectory depend on timing. Never inherit SORA_SLOT_BUDGET_MS.
  opts.slo.budget_seconds = 0.0;
  return opts;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Workloads. Each episode runs the same seeded slot sequence on a freshly
// set-up system, so every episode of a run yields the same trajectory.

class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {}
  virtual ~Workload() = default;
  // Set up a fresh system (timed by the caller) for the next episode.
  virtual void setup() = 0;
  // Run one episode on the systems set up last.
  virtual void episode(RunData& data) = 0;
  virtual void describe(RunData& data) const = 0;
  // Extra checks run once per invocation, outside every timed region.
  virtual void once(RunData&) {}

 protected:
  void begin_loop() {
    if (args_.traced) loop_before_ = obs::Registry::global().snapshot();
  }
  void end_loop(RunData& data) {
    if (args_.traced)
      data.registry.add(loop_before_, obs::Registry::global().snapshot());
  }

  const Args& args_;
  obs::RegistrySnapshot loop_before_;
};

// fig5-k4 and scaled-32x256: the run_roa loop over P2Workspace::step.
class RoaWorkload : public Workload {
 public:
  using Factory = core::Instance (*)(std::uint64_t, std::size_t);
  RoaWorkload(const Args& args, Factory factory, std::size_t horizon)
      : Workload(args), factory_(factory), horizon_(horizon) {}

  void setup() override {
    workspace_.reset();
    {
      obs::Span span("bench/build");
      inst_ = std::make_unique<core::Instance>(factory_(args_.seed, horizon_));
    }
    obs::Span span("bench/ctor");
    workspace_ = std::make_unique<core::P2Workspace>(*inst_, opts_);
  }

  void describe(RunData& data) const override {
    data.edges = inst_->num_edges();
    data.tier1 = inst_->num_tier1();
    data.tier2 = inst_->num_tier2();
    data.episode_slots = horizon_;
  }

  void episode(RunData& data) override {
    const core::Instance& inst = *inst_;
    const auto inputs = core::InputSeries::truth(inst);
    core::Trajectory traj;
    traj.slots.reserve(horizon_);
    core::Allocation prev = core::Allocation::zeros(inst.num_edges());
    EpisodeRecord ep;
    begin_loop();
    for (std::size_t t = 0; t < horizon_; ++t) {
      SlotRecord rec;
      rec.first = t == 0;
      std::optional<core::P2Solution> sol;
      util::Timer timer;
      try {
        const auto in = core::SlotInputs::at(inst, inputs, t);
        obs::Span span("bench/step");
        sol = (args_.degrade_every > 0 && (t + 1) % args_.degrade_every == 0)
                  ? workspace_->degrade(in, prev)
                  : workspace_->step(in, prev);
      } catch (const std::exception& e) {
        rec.threw = true;
        data.fail("slot " + std::to_string(t) + " threw: " + e.what());
      }
      rec.step_ms = rec.work_ms = timer.milliseconds();
      ep.loop_s += rec.work_ms / 1e3;
      if (sol) {
        rec.build_ms = 1e3 * sol->timing.build_seconds;
        rec.barrier_ms = 1e3 * sol->timing.solve_seconds;
        rec.newton = static_cast<double>(sol->newton_steps);
        rec.warm = sol->timing.warm_started ? 1 : 0;
        rec.attempts = sol->outcome.attempts;
        rec.fell_back = sol->outcome.fell_back();
        rec.degraded = sol->outcome.degraded;
        const auto report = testing::check_p2_solution(inst, inputs, t, *sol);
        if (!report.ok()) {
          rec.invalid = true;
          data.fail("slot " + std::to_string(t) + ": " + report.summary());
        }
        prev = std::move(sol->alloc);
      }
      traj.slots.push_back(prev);
      data.slots.push_back(rec);
    }
    end_loop(data);
    const auto report = testing::check_trajectory(inst, traj);
    if (!report.ok()) data.fail("trajectory: " + report.summary());
    ep.slots = horizon_;
    ep.cost = core::total_cost(inst, traj);
    data.episodes.push_back(ep);
  }

  void once(RunData& data) override {
    if (!args_.certificate) return;
    // Theorem 1 on a half-day prefix of the same seeded instance, at the
    // settings of the repository's certificate tests (eps = eps' = 0.1,
    // barrier tol 1e-6, dual tolerance 2e-2): at the workload's eps = 1e-2
    // the recovered duals are less accurate than that tolerance allows.
    const core::Instance inst = factory_(args_.seed, 12);
    core::RoaOptions opts = opts_;
    opts.eps = opts.eps_prime = 0.1;
    opts.ipm.tol = 1e-6;
    const auto rep = core::verify_competitive_certificate(inst, opts);
    data.certificate_ratio = rep.certified_ratio;
    data.certificate_bound = rep.theorem1_ratio;
    data.certificate_violation = rep.max_dual_violation;
    if (!rep.consistent(2e-2))
      data.fail("competitive certificate inconsistent: ratio " +
                std::to_string(rep.certified_ratio) + " vs r " +
                std::to_string(rep.theorem1_ratio) + ", dual violation " +
                std::to_string(rep.max_dual_violation));
  }

 private:
  Factory factory_;
  std::size_t horizon_;
  core::RoaOptions opts_ = bench_roa_options();
  std::unique_ptr<core::Instance> inst_;
  std::unique_ptr<core::P2Workspace> workspace_;
};

// serve-k1: ServeDaemon fed tick lines.
class ServeWorkload : public Workload {
 public:
  static constexpr std::size_t kInstanceHours = 168;  // price rows cycle
  static constexpr std::size_t kEpisodeSlots = 240;
  static constexpr std::size_t kSnapshotEvery = 24;
  static constexpr std::size_t kRestoreAt = 120;  // a snapshot boundary
  static constexpr double kRequestsPerUnit = 1e6;

  explicit ServeWorkload(const Args& args) : Workload(args) {
    opts_.roa = bench_roa_options();
    opts_.requests_per_unit = kRequestsPerUnit;
    opts_.snapshot_path =
        (std::filesystem::path(args.snapshot_dir) / "serve-k1.snap").string();
    opts_.snapshot_every = 0;  // the benchmark snapshots explicitly
  }

  void setup() override {
    daemon_.reset();
    {
      obs::Span span("bench/build");
      util::Rng rng(kTraceSeed);
      cloudnet::InstanceConfig cfg;
      cfg.num_tier2 = 18;
      cfg.num_tier1 = 48;
      cfg.sla_k = 1;
      cfg.reconfig_weight = 1e3;
      cfg.seed = kTraceSeed + 17;
      inst_ = std::make_unique<core::Instance>(cloudnet::build_instance(
          cfg, cloudnet::wikipedia_like(kInstanceHours, rng)));

      // Ticks: a second Wikipedia-like trace (its own stream) with seeded
      // per-site noise, rendered as wire lines.
      util::Rng tick_rng(kTraceSeed + 1);
      const auto tick_trace = cloudnet::wikipedia_like(kEpisodeSlots, tick_rng);
      const std::size_t J = inst_->num_tier1();
      demand_.assign(kEpisodeSlots, std::vector<double>(J, 0.0));
      for (std::size_t t = 0; t < kEpisodeSlots; ++t)
        for (std::size_t j = 0; j < J; ++j)
          demand_[t][j] = tick_trace.demand[t];
      apply_demand_noise(demand_, args_.seed);
      lines_.clear();
      std::vector<double> requests(J);
      for (std::size_t t = 0; t < kEpisodeSlots; ++t) {
        for (std::size_t j = 0; j < J; ++j)
          requests[j] = demand_[t][j] * kRequestsPerUnit;
        lines_.push_back(serve::format_tick_line(t, requests));
      }
    }
    obs::Span span("bench/ctor");
    daemon_ = std::make_unique<serve::ServeDaemon>(*inst_, opts_);
  }

  void describe(RunData& data) const override {
    data.edges = inst_->num_edges();
    data.tier1 = inst_->num_tier1();
    data.tier2 = inst_->num_tier2();
    data.episode_slots = kEpisodeSlots;
  }

  void episode(RunData& data) override {
    const core::Instance& inst = *inst_;
    const std::size_t J = inst.num_tier1();
    // The fault schedule is part of the workload, not of its inputs: a
    // fixed seed keeps the number of forced cold restarts the same for
    // every --seed.
    testing::FaultPlan plan;
    plan.fault_rate = 0.05;
    plan.seed = kTraceSeed;
    plan.forced_attempts = 1;
    plan.max_slots = kEpisodeSlots;
    testing::FaultInjector injector(plan);

    // The inputs the daemon actually served: tick demand, cycled prices.
    core::Instance served = inst;
    served.horizon = kEpisodeSlots;
    served.demand.clear();
    served.tier2_price.clear();
    core::Trajectory traj;
    EpisodeRecord ep;
    serve::Tick tick;
    std::string error;
    begin_loop();
    for (std::size_t t = 0; t < kEpisodeSlots; ++t) {
      served.demand.push_back(demand_[t]);
      served.tier2_price.push_back(inst.tier2_price[t % inst.horizon]);
      SlotRecord rec;
      rec.first = t == 0;
      rec.faulted = injector.faulted(t);
      const obs::RegistrySnapshot before =
          args_.traced ? obs::Registry::global().snapshot()
                       : obs::RegistrySnapshot{};
      util::Timer work;
      {
        obs::Span span("bench/tick_parse");
        if (!serve::parse_tick_line(lines_[t], J, tick, &error))
          data.fail("tick " + std::to_string(t) + ": " + error);
      }
      double work_s = work.seconds();
      std::optional<serve::SlotResult> res;
      util::Timer timer;
      try {
        obs::Span span("bench/step");
        res = daemon_->step(tick);
      } catch (const std::exception& e) {
        rec.threw = true;
        data.fail("slot " + std::to_string(t) + " threw: " + e.what());
      }
      rec.step_ms = timer.milliseconds();
      work.reset();
      const std::size_t served_slots = t + 1;
      if (served_slots % kSnapshotEvery == 0) {
        obs::Span span("bench/snapshot_write");
        if (!daemon_->write_snapshot_now(&error))
          data.fail("snapshot at " + std::to_string(t) + ": " + error);
      }
      if (served_slots == kRestoreAt) restore(data);
      work_s += work.seconds();
      rec.work_ms = 1e3 * work_s + rec.step_ms;
      ep.loop_s += rec.work_ms / 1e3;
      if (args_.traced)
        fill_from_registry(before, obs::Registry::global().snapshot(), rec);

      if (res) {
        rec.solve_ms = 1e3 * res->latency_seconds;
        rec.attempts = res->attempts;
        rec.degraded = res->degraded;
        rec.fell_back = res->attempts > 1 || res->degraded;
        if (res->deadline_miss) data.fail("deadline miss with a zero budget");
        const double violation = core::slot_violation(served, t, res->alloc);
        if (violation > 1e-6) {
          rec.invalid = true;
          data.fail("slot " + std::to_string(t) + ": P1 violation " +
                    std::to_string(violation));
        }
        traj.slots.push_back(std::move(res->alloc));
      } else {
        traj.slots.push_back(daemon_->previous());
      }
      data.slots.push_back(rec);
    }
    end_loop(data);
    const auto report = testing::check_trajectory(served, traj);
    if (!report.ok()) data.fail("trajectory: " + report.summary());
    ep.slots = kEpisodeSlots;
    ep.cost = core::total_cost(served, traj);
    const double daemon_cost = daemon_->stats().cost.total();
    if (std::abs(daemon_cost - ep.cost.total()) >
        1e-9 * std::max(1.0, std::abs(ep.cost.total())))
      data.fail("daemon cost " + std::to_string(daemon_cost) +
                " != recomputed " + std::to_string(ep.cost.total()));
    data.episodes.push_back(ep);
  }

 private:
  // Replace the daemon by a fresh one restored from the last snapshot.
  void restore(RunData& data) {
    std::error_code ec;
    data.snapshot_bytes = static_cast<double>(
        std::filesystem::file_size(opts_.snapshot_path, ec));
    const std::uint64_t prev_hash =
        serve::ServeDaemon::hash_allocation(daemon_->previous());
    const std::size_t next = daemon_->next_slot();
    obs::Span span("bench/restore");
    auto fresh = std::make_unique<serve::ServeDaemon>(*inst_, opts_);
    std::string error;
    if (!fresh->restore(&error)) {
      data.fail("restore: " + error);
      return;
    }
    if (fresh->next_slot() != next ||
        serve::ServeDaemon::hash_allocation(fresh->previous()) != prev_hash)
      data.fail("restore did not resume at slot " + std::to_string(next));
    daemon_ = std::move(fresh);
  }

  serve::ServeOptions opts_;
  std::unique_ptr<core::Instance> inst_;
  std::vector<std::vector<double>> demand_;  // [t][j] tick lambda
  std::vector<std::string> lines_;
  std::unique_ptr<serve::ServeDaemon> daemon_;
};

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "fig5-k4")
    return std::make_unique<RoaWorkload>(args, make_fig5_instance, 24);
  if (args.workload == "scaled-32x256")
    return std::make_unique<RoaWorkload>(args, make_scaled_instance, 24);
  if (args.workload == "serve-k1") return std::make_unique<ServeWorkload>(args);
  usage("unknown workload " + args.workload);
}

// ---------------------------------------------------------------------------
// Output.

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

template <typename F>
std::string slot_array(const std::vector<SlotRecord>& slots, F field) {
  std::string out = "[";
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) out += ',';
    out += num(static_cast<double>(field(slots[i])));
  }
  return out + "]";
}

void emit(const Args& args, const RunData& d) {
  std::ostringstream os;
  os << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
     << ",\"traced\":" << (args.traced ? "true" : "false")
     << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"threads\":" << util::ThreadPool::shared().thread_count()
     << ",\"native\":" << (SLOTBENCH_NATIVE ? "true" : "false")
     << ",\"build_type\":\"" << SLOTBENCH_BUILD_TYPE << "\",\"compiler\":\""
     << SLOTBENCH_COMPILER << "\"}"
     << ",\"shape\":{\"tier2\":" << d.tier2 << ",\"tier1\":" << d.tier1
     << ",\"edges\":" << d.edges << ",\"episode_slots\":" << d.episode_slots
     << "},\"setup_s\":[";
  for (std::size_t i = 0; i < d.setup_s.size(); ++i)
    os << (i ? "," : "") << num(d.setup_s[i]);
  os << "],\"episodes\":[";
  for (std::size_t i = 0; i < d.episodes.size(); ++i) {
    const auto& e = d.episodes[i];
    os << (i ? "," : "") << "{\"loop_s\":" << num(e.loop_s)
       << ",\"slots\":" << e.slots
       << ",\"cost\":" << num(e.cost.total())
       << ",\"allocation_cost\":" << num(e.cost.allocation)
       << ",\"reconfiguration_cost\":" << num(e.cost.reconfiguration) << "}";
  }
  const auto& s = d.slots;
  os << "],\"slots\":{"
     << "\"step_ms\":" << slot_array(s, [](auto& r) { return r.step_ms; })
     << ",\"work_ms\":" << slot_array(s, [](auto& r) { return r.work_ms; })
     << ",\"solve_ms\":" << slot_array(s, [](auto& r) { return r.solve_ms; })
     << ",\"build_ms\":" << slot_array(s, [](auto& r) { return r.build_ms; })
     << ",\"barrier_ms\":"
     << slot_array(s, [](auto& r) { return r.barrier_ms; })
     << ",\"newton\":" << slot_array(s, [](auto& r) { return r.newton; })
     << ",\"warm\":" << slot_array(s, [](auto& r) { return r.warm; })
     << ",\"attempts\":" << slot_array(s, [](auto& r) { return r.attempts; })
     << ",\"fell_back\":" << slot_array(s, [](auto& r) { return r.fell_back; })
     << ",\"degraded\":" << slot_array(s, [](auto& r) { return r.degraded; })
     << ",\"threw\":" << slot_array(s, [](auto& r) { return r.threw; })
     << ",\"invalid\":" << slot_array(s, [](auto& r) { return r.invalid; })
     << ",\"faulted\":" << slot_array(s, [](auto& r) { return r.faulted; })
     << ",\"first\":" << slot_array(s, [](auto& r) { return r.first; })
     << "},\"registry\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : d.registry.counters) {
    os << (first ? "" : ",") << "\"" << name << "\":" << num(v);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, cs] : d.registry.histograms) {
    os << (first ? "" : ",") << "\"" << name << "\":{\"count\":"
       << num(cs.first) << ",\"sum\":" << num(cs.second) << "}";
    first = false;
  }
  os << "}},\"snapshot_bytes\":" << num(d.snapshot_bytes)
     << ",\"certificate\":{\"ratio\":" << num(d.certificate_ratio)
     << ",\"bound\":" << num(d.certificate_bound)
     << ",\"dual_violation\":" << num(d.certificate_violation) << "}"
     << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << ",\"errors\":[";
  for (std::size_t i = 0; i < d.errors.size(); ++i)
    os << (i ? "," : "") << "\"" << json_escape(d.errors[i]) << "\"";
  os << "]}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

#ifndef NDEBUG
  std::cerr << "slotbench: refusing to run a build with assertions on\n";
  return 2;
#endif
  if (std::string(SLOTBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "slotbench: refusing a " << SLOTBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  for (const char* var : {"SORA_METRICS", "SORA_TRACE", "SORA_METRICS_PORT",
                          "SORA_SLOT_BUDGET_MS", "SORA_INCIDENT_DIR"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "slotbench: unset " << var << " before benchmarking\n";
      return 2;
    }
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (util::ThreadPool::shared().thread_count() != args.threads ||
      args.threads > nproc) {
    std::cerr << "slotbench: pool has "
              << util::ThreadPool::shared().thread_count()
              << " threads; expected --threads " << args.threads
              << " (set SORA_THREADS, at most nproc=" << nproc << ")\n";
    return 2;
  }

  if (args.traced) {
    obs::set_trace_max_events_per_thread(std::size_t{1} << 21);
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
  }

  RunData data;
  auto workload = make_workload(args);
  workload->once(data);

  // kSetupsPerEpisode set-ups precede each episode (the last one is used),
  // so setup_s is a median of samples spread over the whole run.
  constexpr std::size_t kSetupsPerEpisode = 10;
  for (std::size_t e = 0; e < args.episodes; ++e) {
    for (std::size_t i = 0; i < kSetupsPerEpisode; ++i) {
      util::Timer t;
      workload->setup();
      data.setup_s.push_back(t.seconds());
    }
    workload->episode(data);
  }
  workload->describe(data);

  if (args.traced) {
    obs::set_trace_enabled(false);
    obs::write_trace_file(args.trace_out);
  }
  emit(args, data);
  return 0;
}
