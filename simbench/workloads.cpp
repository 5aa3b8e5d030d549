// The benchmark's workloads, the lifecycle runner every simulation goes
// through, and the outputs check behind the `failed` count.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/checkpoint.h"
#include "harness/config_loader.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "simbench.h"

namespace simbench {

using h2::DesignSpec;
using h2::ExperimentConfig;
using h2::ExperimentResult;

namespace {

/// A run that needs longer than this on its own is hung, not slow: the sweep
/// watchdog cancels it and the slot counts as failed.
constexpr double kRunTimeoutS = 120.0;

/// Runs `cfgs` through run_sweep with one worker, so slots execute in
/// submission order on this thread, each through run_lifecycle.
std::vector<RunRecord> sweep(const std::vector<ExperimentConfig>& cfgs, bool derive_seeds,
                             bool traced) {
  std::vector<RunRecord> recs(cfgs.size());
  size_t next = 0;
  h2::SweepOptions opts;
  opts.jobs = 1;
  opts.derive_seeds = derive_seeds;
  opts.run_timeout_seconds = kRunTimeoutS;
  const std::vector<h2::SweepRun> runs =
      h2::run_sweep(cfgs, opts, [&](const ExperimentConfig& cfg) {
        return run_lifecycle(cfg, traced, recs.at(next++));
      });
  for (size_t i = 0; i < runs.size(); ++i) {
    RunRecord& rec = recs[i];
    rec.key = runs[i].combo + "/" + runs[i].design + (rec.restore ? "+restore" : "");
    rec.ok = runs[i].ok;
    rec.error = runs[i].error;
    if (rec.ok) rec.result = runs[i].result;
  }
  return recs;
}

/// Names the first field in which two results differ, or "" when identical.
std::string first_difference(const ExperimentResult& a, const ExperimentResult& b) {
  auto same = [](double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; };
#define SIMBENCH_FIELD(f) \
  if (!(a.f == b.f)) return #f;
#define SIMBENCH_DOUBLE(f) \
  if (!same(a.f, b.f)) return #f;
  SIMBENCH_FIELD(combo)
  SIMBENCH_FIELD(design)
  SIMBENCH_FIELD(engine_steps)
  SIMBENCH_FIELD(cpu_cycles)
  SIMBENCH_FIELD(gpu_cycles)
  SIMBENCH_FIELD(end_cycle)
  SIMBENCH_FIELD(cpu_finished)
  SIMBENCH_FIELD(gpu_finished)
  SIMBENCH_FIELD(cpu_instructions)
  SIMBENCH_FIELD(gpu_instructions)
  SIMBENCH_DOUBLE(cpu_ipc)
  SIMBENCH_DOUBLE(gpu_ipc)
  SIMBENCH_DOUBLE(weighted_ipc)
  SIMBENCH_DOUBLE(energy_pj)
  SIMBENCH_FIELD(fast_bytes)
  SIMBENCH_FIELD(slow_bytes)
  for (int s = 0; s < 2; ++s) {
    SIMBENCH_FIELD(hmstats[s].demand)
    SIMBENCH_FIELD(hmstats[s].fast_hits)
    SIMBENCH_FIELD(hmstats[s].chain_hits)
    SIMBENCH_FIELD(hmstats[s].misses)
    SIMBENCH_FIELD(hmstats[s].migrations)
    SIMBENCH_FIELD(hmstats[s].bypasses)
    SIMBENCH_FIELD(hmstats[s].first_touches)
    SIMBENCH_FIELD(hmstats[s].dirty_writebacks)
    SIMBENCH_FIELD(hmstats[s].fast_swaps)
    SIMBENCH_FIELD(hmstats[s].lazy_invalidations)
    SIMBENCH_FIELD(hmstats[s].lazy_moves)
    SIMBENCH_FIELD(hmstats[s].flush_invalidations)
    SIMBENCH_FIELD(hmstats[s].llc_writebacks)
    SIMBENCH_FIELD(hmstats[s].meta_misses)
    SIMBENCH_FIELD(hmstats[s].meta_wait_cycles)
    SIMBENCH_FIELD(hmstats[s].subfills)
    SIMBENCH_DOUBLE(fast_hit_rate[s])
    SIMBENCH_DOUBLE(llc_hit_rate[s])
    SIMBENCH_DOUBLE(read_latency_mean[s])
    SIMBENCH_FIELD(read_latency_p99[s])
  }
  SIMBENCH_DOUBLE(remap_cache_hit_rate)
  SIMBENCH_DOUBLE(slow_amplification)
  SIMBENCH_FIELD(final_point)
  SIMBENCH_FIELD(reconfigurations)
  SIMBENCH_FIELD(epochs)
#undef SIMBENCH_FIELD
#undef SIMBENCH_DOUBLE
  return "";
}

// --- fig05_fast / fig05_ddr ------------------------------------------------

const std::vector<std::string> kFig05Combos = {"C1", "C5", "C11"};

/// The Fig. 5 `--quick --integrated` roster: per combo, the baseline then
/// the six fig5 designs plus `integrated`, in the golden CSV's column order.
std::vector<DesignSpec> fig05_designs() {
  return {DesignSpec::baseline(),          DesignSpec::hashcache(),
          DesignSpec::profess(),           DesignSpec::waypart(),
          DesignSpec::hydrogen_dp(),       DesignSpec::hydrogen_dp_token(),
          DesignSpec::hydrogen_full(),     DesignSpec::integrated()};
}

class Fig05 final : public Workload {
 public:
  Fig05(const Options& opt, h2::ChannelBackendKind backend, const char* name,
        const char* golden)
      : Workload(opt), backend_(backend), name_(name), golden_(golden) {
    for (const std::string& combo : kFig05Combos) {
      for (const DesignSpec& d : fig05_designs()) cfgs_.push_back(quick_config(combo, d));
    }
  }

  const char* name() const override { return name_; }

  Pass run_pass(bool traced) override {
    Pass pass;
    pass.traced = traced;
    const auto t0 = Clock::now();
    pass.runs = sweep(cfgs_, /*derive_seeds=*/true, traced);
    pass.wall_s = seconds_since(t0);
    for (const RunRecord& r : pass.runs) {
      pass.instructions += r.result.cpu_instructions + r.result.gpu_instructions;
    }
    return pass;
  }

  std::vector<ExperimentConfig> roster_configs() const override {
    std::vector<ExperimentConfig> out = cfgs_;
    for (ExperimentConfig& c : out) c.seed = h2::derive_seed(c.seed, c.combo, c.design.label);
    return out;
  }
  ExperimentConfig probe_config() const override {
    ExperimentConfig c = quick_config("C5", DesignSpec::hydrogen_full());
    c.seed = h2::derive_seed(c.seed, c.combo, c.design.label);
    return c;
  }

 private:
  /// bench_config() of bench/bench_common.h under --quick: the Table I
  /// system at footprint scale 8, cold start, seed derived per slot by the
  /// sweep from the benchmark seed.
  ExperimentConfig quick_config(const std::string& combo, const DesignSpec& d) const {
    ExperimentConfig cfg;
    cfg.combo = combo;
    cfg.design = d;
    cfg.sys = h2::SystemConfig::table1(8);
    cfg.cpu_target_instructions = 60'000;
    cfg.gpu_target_instructions = 600'000;
    cfg.epoch_cycles = 40'000;
    cfg.max_cycles = 400'000'000;
    cfg.warmup_epochs = 0;
    cfg.backend = backend_;
    cfg.seed = opt_.seed;
    return cfg;
  }

  /// At seed 42 the weighted speedups must reproduce the committed golden
  /// (read, never written) to its printed precision, geomeans included.
  void check_expected(Pass& pass, const FailFn& fail) override {
    if (opt_.seed != 42) return;
    const std::string path = opt_.root + "/tests/golden/" + golden_;
    std::ifstream in(path);
    std::vector<std::vector<std::string>> rows;
    for (std::string line; std::getline(in, line);) {
      std::vector<std::string> cells;
      std::stringstream ss(line);
      for (std::string cell; std::getline(ss, cell, ',');) cells.push_back(cell);
      rows.push_back(cells);
    }
    // Columns: "combo", then one per design after the baseline.
    const std::vector<DesignSpec> designs = fig05_designs();
    const size_t per_combo = designs.size();
    bool readable = rows.size() == kFig05Combos.size() + 2;
    for (const auto& row : rows) readable = readable && row.size() == per_combo;
    for (size_t d = 1; readable && d < per_combo; ++d) {
      readable = rows[0][d] == designs[d].label;
    }
    if (!readable) {
      for (size_t i = 0; i < pass.runs.size(); ++i) fail(i, "unreadable golden " + path);
      return;
    }
    std::vector<std::vector<double>> per_design(per_combo);
    for (size_t c = 0; c < kFig05Combos.size(); ++c) {
      const size_t base = c * per_combo;
      const std::vector<std::string>& row = rows[c + 1];
      for (size_t d = 1; d < per_combo; ++d) {
        const RunRecord& b = pass.runs[base];
        const RunRecord& x = pass.runs[base + d];
        if (!b.ok || !x.ok) continue;
        const double su = h2::weighted_speedup(b.result, x.result);
        per_design[d].push_back(su);
        std::string expected = row[d];
        if (opt_.perturb == "speedup" && c == 1 && x.result.design == "hydrogen") {
          expected = h2::fmt(std::stod(expected) + 0.01);
        }
        if (row[0] != kFig05Combos[c] || h2::fmt(su) != expected) {
          fail(base + d, "speedup " + h2::fmt(su) + " != golden " + expected + " (" +
                             golden_ + ")");
        }
      }
    }
    const std::vector<std::string>& gm = rows.back();
    for (size_t d = 1; d < per_combo; ++d) {
      if (per_design[d].size() != kFig05Combos.size()) continue;
      const std::string got = h2::fmt(h2::geomean(per_design[d]));
      if (gm[0] != "geomean" || got != gm[d]) {
        for (size_t c = 0; c < kFig05Combos.size(); ++c) {
          fail(c * per_combo + d, "geomean " + got + " != golden " + gm[d]);
        }
      }
    }
  }

  h2::ChannelBackendKind backend_;
  const char* name_;
  const char* golden_;
  std::vector<ExperimentConfig> cfgs_;
};

// --- bignode_ckpt ------------------------------------------------------------

/// Warmup epochs before the measurement window, and the checkpoint stride.
/// A checkpoint every kCkptEvery-th epoch boundary keeps saving a visible
/// minority of the pass's wall time (README.md gives the measured share).
constexpr h2::u32 kBignodeWarmup = 4;
constexpr h2::u32 kCkptEvery = 2;

class Bignode final : public Workload {
 public:
  explicit Bignode(const Options& opt) : Workload(opt) {
    cfg_ = h2::experiment_from_file(opt.root + "/configs/bignode.cfg");
    cfg_.shards = 1;  // monolithic: one engine carries all 38 actors
    cfg_.warmup_epochs = kBignodeWarmup;
    cfg_.seed = opt.seed;
    cfg_.checkpoint_path = opt.run_dir + "/bignode.ckpt";
    cfg_.checkpoint_every = kCkptEvery;
  }

  const char* name() const override { return "bignode_ckpt"; }

  /// The checkpointed run, then a restore from its last checkpoint that
  /// resumes to the end. Both count toward the pass's wall time.
  Pass run_pass(bool traced) override {
    Pass pass;
    pass.traced = traced;
    std::filesystem::remove(cfg_.checkpoint_path);
    const auto t0 = Clock::now();
    pass.runs = sweep({cfg_}, /*derive_seeds=*/false, traced);
    if (opt_.perturb == "checkpoint") truncate_half(cfg_.checkpoint_path);
    ExperimentConfig restore = cfg_;
    restore.checkpoint_path.clear();
    restore.restore_path = cfg_.checkpoint_path;
    std::vector<RunRecord> resumed = sweep({restore}, /*derive_seeds=*/false, traced);
    pass.wall_s = seconds_since(t0);
    pass.runs.push_back(std::move(resumed[0]));
    const ExperimentResult& full = pass.runs[0].result;
    pass.instructions = full.cpu_instructions + full.gpu_instructions;
    return pass;
  }

  std::vector<ExperimentConfig> roster_configs() const override { return {probe_config()}; }
  ExperimentConfig probe_config() const override {
    ExperimentConfig c = cfg_;
    c.checkpoint_path.clear();
    return c;
  }

 private:
  static void truncate_half(const std::string& path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec) std::filesystem::resize_file(path, size / 2, ec);
  }

  /// The restored run must be bit-identical to the uninterrupted one.
  void check_expected(Pass& pass, const FailFn& fail) override {
    const RunRecord& full = pass.runs[0];
    const RunRecord& resumed = pass.runs[1];
    if (!full.ok || !resumed.ok) return;
    const std::string diff = first_difference(resumed.result, full.result);
    if (!diff.empty()) fail(1, "restored run differs from the uninterrupted run in " + diff);
  }

  ExperimentConfig cfg_;
};

}  // namespace

void Workload::check(Pass& pass, std::vector<std::string>& why) {
  pass.failed.assign(pass.runs.size(), false);
  auto fail = [&](size_t i, const std::string& msg) {
    pass.failed[i] = true;
    why.push_back(std::string(name()) + " " + pass.runs[i].key + ": " + msg);
  };
  if (ref_.empty()) {
    for (const RunRecord& r : pass.runs) ref_.push_back(r.result);
    if (opt_.perturb == "counter") ref_[0].engine_steps += 1;
  }
  for (size_t i = 0; i < pass.runs.size(); ++i) {
    const RunRecord& r = pass.runs[i];
    if (!r.ok) {
      fail(i, "run failed: " + r.error);
      continue;
    }
    if (!r.result.cpu_finished || !r.result.gpu_finished) {
      fail(i, "a side did not reach its instruction target");
      continue;
    }
    const std::string diff = first_difference(r.result, ref_[i]);
    if (!diff.empty()) {
      fail(i, std::string(pass.traced ? "traced" : "untraced") +
                  " outcome differs from the reference pass in " + diff);
    }
  }
  check_expected(pass, fail);
}

bool identical(const ExperimentResult& a, const ExperimentResult& b) {
  return first_difference(a, b).empty();
}

ExperimentResult run_lifecycle(const ExperimentConfig& cfg, bool traced, RunRecord& rec) {
  rec.restore = !cfg.restore_path.empty();
  auto t = Clock::now();
  h2::SimSystem sys(cfg);
  sys.build();
  rec.spans.build_s = seconds_since(t);
  EpochClock* clock = nullptr;
  if (traced) {
    auto owned = std::make_unique<EpochClock>(&rec.spans);
    clock = owned.get();
    sys.add_observer(std::move(owned));
  }
  if (rec.restore) {
    t = Clock::now();
    h2::load_checkpoint(sys, cfg.restore_path);
    if (clock) clock->mark();
    sys.resume();
    rec.spans.measure_s = seconds_since(t);
  } else {
    t = Clock::now();
    if (clock) clock->mark();
    sys.warmup(cfg.warmup_epochs);
    rec.spans.warmup_s = seconds_since(t);
    t = Clock::now();
    if (clock) clock->mark();
    sys.measure();
    rec.spans.measure_s = seconds_since(t);
  }
  t = Clock::now();
  ExperimentResult r = sys.drain();
  rec.spans.drain_s = seconds_since(t);
  if (traced) rec.counts = read_counts(sys, r);
  return r;
}

std::vector<std::string> workload_names() {
  return {"fig05_fast", "fig05_ddr", "bignode_ckpt"};
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "fig05_fast") {
    return std::make_unique<Fig05>(opt, h2::ChannelBackendKind::Fast, "fig05_fast",
                                   "fig05_quick_integrated.csv");
  }
  if (opt.workload == "fig05_ddr") {
    return std::make_unique<Fig05>(opt, h2::ChannelBackendKind::Ddr, "fig05_ddr",
                                   "fig05_quick_integrated_ddr.csv");
  }
  if (opt.workload == "bignode_ckpt") return std::make_unique<Bignode>(opt);
  return nullptr;
}

}  // namespace simbench
