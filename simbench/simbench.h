// simbench: the repository benchmark. It measures the simulator (host time)
// on fixed workloads through public entry points only — run_sweep, SimSystem
// and the layer classes — and checks the simulated outcomes it produces.
// README.md in this directory explains the workloads and every metric.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/sim_system.h"

namespace simbench {

using h2::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  u64 seed = 42;
  double seconds = 30;
  bool trace = false;
  std::string root;     ///< repository root: goldens and configs are read here
  std::string run_dir;  ///< scratch directory for checkpoint files
  /// Test-only: perturbs one expected value so the outputs check must fail.
  /// "speedup" (a golden cell), "counter" (a reference engine-step count) or
  /// "checkpoint" (truncates the checkpoint the bignode restore reads).
  std::string perturb;
};

/// Deterministic per-layer counts read through public accessors from one
/// drained SimSystem. Summed over the runs of a pass; rates are formed from
/// the sums so every run weighs by its traffic.
struct LayerCounts {
  u64 draws = 0, reads = 0, writes = 0, stall_cycles = 0;
  u64 read_lat_sum[2] = {0, 0}, read_lat_n[2] = {0, 0};
  u64 l1_hits = 0, l1_accesses = 0, l2_hits = 0, l2_accesses = 0;
  u64 llc_hits[2] = {0, 0}, llc_accesses[2] = {0, 0}, llc_writebacks = 0;
  u64 demand = 0, fast_hits = 0, migrations = 0, bypasses = 0, first_touches = 0;
  u64 dirty_writebacks = 0, lazy_fixups = 0, meta_wait_cycles = 0;
  u64 remap_hits = 0, remap_misses = 0;
  u64 reconfigurations = 0, fast_swaps = 0, flush_invalidations = 0;
  u64 fast_requests = 0, slow_requests = 0;
  u64 fast_row_hits = 0, fast_row_accesses = 0, slow_row_hits = 0, slow_row_accesses = 0;
  u64 slow_bytes = 0, activations = 0, refresh_windows = 0;
  u64 engine_steps = 0, instructions = 0;

  void add(const LayerCounts& o);
};

/// Host-time spans of one run's lifecycle, recorded by the benchmark around
/// its calls into SimSystem.
struct Spans {
  double build_s = 0, warmup_s = 0, drain_s = 0;
  double measure_s = 0;  ///< measure(), or load + resume() for a restore
  std::vector<double> epoch_ms;  ///< host time between epoch boundaries
};

/// One simulator run (one sweep slot).
struct RunRecord {
  std::string key;  ///< "<combo>/<design>", "+restore" for a restored run
  bool restore = false;
  bool ok = false;  ///< ran to completion without throwing or timing out
  std::string error;
  h2::ExperimentResult result;
  Spans spans;
  LayerCounts counts;  ///< traced passes only
};

/// One pass over a workload's roster.
struct Pass {
  bool traced = false;
  std::vector<RunRecord> runs;
  std::vector<bool> failed;  ///< per run, after the outputs check
  double wall_s = 0;
  u64 instructions = 0;  ///< simulated CPU+GPU instructions the pass retired
  double minstr_per_s() const { return static_cast<double>(instructions) / wall_s / 1e6; }
};

/// A named benchmark workload: a roster of runs plus its outputs check.
class Workload {
 public:
  explicit Workload(const Options& opt) : opt_(opt) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual const char* name() const = 0;
  /// Runs the roster once. A traced pass adds the epoch observer and reads
  /// the in-situ layer counts; the simulated outcome must not change.
  virtual Pass run_pass(bool traced) = 0;
  /// Checks a pass: every run completed with both sides finished and equals
  /// the same run of the reference pass (this run's first pass), then the
  /// workload's own expectations hold. Marks failed runs and explains them.
  void check(Pass& pass, std::vector<std::string>& why);
  /// The configs of a pass's simulations with their seeds derived, as the
  /// replay chain and the set-up series re-drive them.
  virtual std::vector<h2::ExperimentConfig> roster_configs() const = 0;
  /// The config whose paused state the checkpoint probe saves and loads,
  /// and the key of the matching run in a pass.
  virtual h2::ExperimentConfig probe_config() const = 0;
  std::string probe_key() const {
    const h2::ExperimentConfig c = probe_config();
    return c.combo + "/" + c.design.label;
  }

 protected:
  using FailFn = std::function<void(size_t, const std::string&)>;
  /// Workload-specific expectations: goldens, restore identity.
  virtual void check_expected(Pass& pass, const FailFn& fail) = 0;

  Options opt_;

 private:
  std::vector<h2::ExperimentResult> ref_;
};

std::unique_ptr<Workload> make_workload(const Options& opt);
std::vector<std::string> workload_names();

/// Runs one configured simulation through the SimSystem lifecycle, timing
/// each phase into rec.spans; a traced run also records epoch times and the
/// in-situ layer counts. A config with restore_path resumes from it.
h2::ExperimentResult run_lifecycle(const h2::ExperimentConfig& cfg, bool traced,
                                   RunRecord& rec);

/// Every field of two results equal (doubles compared bit for bit).
bool identical(const h2::ExperimentResult& a, const h2::ExperimentResult& b);

// --- layers.cpp: tracing helpers ----------------------------------------

/// Records the host time between epoch boundaries. Call mark() right before
/// each phase so the phase's first epoch has a start time.
class EpochClock final : public h2::EpochObserver {
 public:
  explicit EpochClock(Spans* spans) : spans_(spans) {}
  const char* name() const override { return "simbench-epoch-clock"; }
  void mark() { last_ = Clock::now(); }
  void on_epoch(h2::SimSystem& sys, const h2::EpochFeedback& fb) override;

 private:
  Spans* spans_;
  Clock::time_point last_ = Clock::now();
};

/// Reads the in-situ counts of a drained system.
LayerCounts read_counts(h2::SimSystem& sys, const h2::ExperimentResult& r);
/// A pass's in-situ counts, summed over its runs except restores.
LayerCounts pass_counts(const Pass& pass);

/// Metric values by the names BENCHMARK.json declares.
using Values = std::map<std::string, double>;

/// Replays each config's access stream layer by layer (generator -> cores
/// on a fixed-latency port -> CacheHierarchy -> HybridMemory, plus the
/// MemorySystem on the miss addresses) and times each layer's public entry
/// point. Fills the *_ns metrics and returns printable fidelity lines that
/// set the replay's own counts beside the in-situ ones.
std::vector<std::string> replay_layers(const std::vector<h2::ExperimentConfig>& cfgs,
                                       const LayerCounts& in_situ, Values& out);

/// Times save_checkpoint / load_checkpoint on a system paused after its
/// measurement window, then drains it (the result must match the pass).
struct ProbeResult {
  bool ok = false;
  std::string error;
  h2::ExperimentResult result;
  double save_ms = 0, restore_ms = 0, bytes = 0;
  int saves = 0;
};
ProbeResult checkpoint_probe(const h2::ExperimentConfig& cfg, const std::string& path);

/// Per-layer metrics from the in-situ counts of the first traced pass and
/// the lifecycle spans of every traced pass; returns printable notes (the
/// epoch tail's percentile and sample count).
std::vector<std::string> layer_metrics(const std::vector<Pass>& traced, Values& out);

/// Median, and the percentile helper the tail metric uses.
double median(std::vector<double> xs);
double percentile(std::vector<double> xs, double p);

}  // namespace simbench
