// simbench entry point: runs one workload for a time budget and prints the
// metrics BENCHMARK.json declares. The last line of stdout is the result
// object; the lines before it are the same numbers for a human reader.
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --root <repo root> --run-dir <scratch dir> [--perturb <what>]
//
// --trace 0 reports the end-to-end metrics of untraced passes. --trace 1
// alternates untraced and traced passes, reports the per-layer metrics, and
// prints a `simbench-counts` line that count_diff.py compares across runs.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "check/check.h"
#include "simbench.h"

using namespace simbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool deterministic;  ///< a pure function of the simulated run
};

const MetricDef kEndToEnd[] = {
    {"sim_minstr_per_s", "Minstr/s", false},
    {"setup_s", "s", false},
    {"peak_rss_mb", "MB", false},
};

const MetricDef kPerLayer[] = {
    {"trace.draws", "count", true},
    {"trace.next_ns", "ns", false},
    {"proc.reads", "count", true},
    {"proc.writes", "count", true},
    {"proc.stall_cycles", "cycles", true},
    {"proc.cpu_read_latency_mean", "cycles", true},
    {"proc.gpu_read_latency_mean", "cycles", true},
    {"proc.step_ns", "ns", false},
    {"cache.accesses", "count", true},
    {"cache.l1.hit_rate", "ratio", true},
    {"cache.l2.hit_rate", "ratio", true},
    {"cache.llc.cpu_hit_rate", "ratio", true},
    {"cache.llc.gpu_hit_rate", "ratio", true},
    {"cache.llc.writebacks", "count", true},
    {"cache.access_ns", "ns", false},
    {"hybridmem.demand", "count", true},
    {"hybridmem.fast_hit_rate", "ratio", true},
    {"hybridmem.migrations", "count", true},
    {"hybridmem.bypasses", "count", true},
    {"hybridmem.first_touches", "count", true},
    {"hybridmem.dirty_writebacks", "count", true},
    {"hybridmem.lazy_fixups", "count", true},
    {"hybridmem.remap_cache_miss_rate", "ratio", true},
    {"hybridmem.meta_wait_cycles", "cycles", true},
    {"hybridmem.access_ns", "ns", false},
    {"hybridmem.writeback_ns", "ns", false},
    {"policies.reconfigurations", "count", true},
    {"policies.fast_swaps", "count", true},
    {"policies.flush_invalidations", "count", true},
    {"mem.fast.requests", "count", true},
    {"mem.slow.requests", "count", true},
    {"mem.fast.row_hit_rate", "ratio", true},
    {"mem.slow.row_hit_rate", "ratio", true},
    {"mem.slow_amplification", "ratio", true},
    {"mem.activations", "count", true},
    {"mem.refresh_windows", "count", true},
    {"mem.request_ns", "ns", false},
    {"sim.engine_steps", "count", true},
    {"sim.steps_per_kinstr", "steps/kinstr", true},
    {"sim.ns_per_step", "ns", false},
    {"harness.build_ms", "ms", false},
    {"harness.measure_s", "s", false},
    {"harness.drain_ms", "ms", false},
    {"harness.epoch_ms.p50", "ms", false},
    {"harness.epoch_ms.tail", "ms", false},
    {"harness.ckpt_save_ms", "ms", false},
    {"harness.ckpt_bytes", "bytes", true},
    {"harness.ckpt_restore_ms", "ms", false},
    {"harness.trace_overhead_frac", "ratio", false},
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "simbench: " << msg
            << "\nusage: simbench --workload <fig05_fast|fig05_ddr|bignode_ckpt> --seed <n>"
               " --seconds <s> --trace <0|1> --root <dir> --run-dir <dir>"
               " [--perturb speedup|counter|checkpoint]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || *end != '\0') usage("--seed expects an integer >= 0");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0)) usage("--seconds expects a number > 0");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--root") {
      opt.root = v;
    } else if (a == "--run-dir") {
      opt.run_dir = v;
    } else if (a == "--perturb") {
      if (v != "speedup" && v != "counter" && v != "checkpoint") usage("unknown --perturb " + v);
      opt.perturb = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == opt.workload;
  if (!known) usage("unknown workload '" + opt.workload + "'");
  if (!have_trace || opt.root.empty() || opt.run_dir.empty()) {
    usage("--trace, --root and --run-dir are required");
  }
  return opt;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

/// Host time from SimSystem construction through build().
double time_build(const h2::ExperimentConfig& cfg) {
  const auto t = Clock::now();
  h2::SimSystem sys(cfg);
  sys.build();
  return seconds_since(t);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // Every invariant check compiled in stays on, whatever H2_CHECK says.
  h2::check::set_runtime_level(h2::check::compiled_level());
  std::filesystem::create_directories(opt.run_dir);
  std::unique_ptr<Workload> w = make_workload(opt);

  std::cout << "simbench " << w->name() << ": seed " << opt.seed << ", " << opt.seconds
            << " s, tracing " << (opt.trace ? "on" : "off") << "\n";

  // Whole passes until the next one would overrun the budget (at least one).
  // With tracing on, each round is an untraced and a traced pass, in
  // alternating order so neither side always runs on a warmer host.
  std::vector<Pass> untraced, traced;
  std::vector<std::string> why;
  const auto start = Clock::now();
  double round_s = 0;
  size_t rounds = 0;
  do {
    const auto t = Clock::now();
    std::vector<bool> order = {false};
    if (opt.trace) order = rounds++ % 2 == 0 ? std::vector<bool>{false, true} : std::vector<bool>{true, false};
    for (bool tr : order) {
      Pass p = w->run_pass(tr);
      w->check(p, why);
      std::printf("  %s pass: %zu runs in %.3f s, %.3f Minstr/s\n", tr ? "traced  " : "untraced",
                  p.runs.size(), p.wall_s, p.minstr_per_s());
      (tr ? traced : untraced).push_back(std::move(p));
    }
    round_s = seconds_since(t);
  } while (seconds_since(start) + round_s <= opt.seconds);

  u64 attempted = 0, failed = 0;
  std::vector<double> rates, traced_rates;
  for (const auto* passes : {&untraced, &traced}) {
    for (const Pass& p : *passes) {
      attempted += p.runs.size();
      for (bool f : p.failed) failed += f ? 1 : 0;
      (passes == &untraced ? rates : traced_rates).push_back(p.minstr_per_s());
    }
  }

  Values values;
  std::vector<std::string> notes;
  if (!opt.trace) {
    // Set-up samples: every build of the passes, plus a series that builds
    // the roster's systems again until there are kSetupSeries more.
    constexpr size_t kSetupSeries = 24;
    std::vector<double> builds;
    for (const Pass& p : untraced) {
      for (const RunRecord& r : p.runs) builds.push_back(r.spans.build_s);
    }
    const std::vector<h2::ExperimentConfig> cfgs = w->roster_configs();
    for (size_t i = 0; i < kSetupSeries; ++i) builds.push_back(time_build(cfgs[i % cfgs.size()]));
    values["sim_minstr_per_s"] = median(rates);
    values["setup_s"] = median(builds);
    values["peak_rss_mb"] = peak_rss_mb();
    std::ostringstream n;
    n << "sim_minstr_per_s is the median of " << rates.size() << " passes ("
      << untraced.front().instructions << " instructions each); setup_s the median of "
      << builds.size() << " SimSystem builds";
    notes.push_back(n.str());
  } else {
    notes = layer_metrics(traced, values);
    const std::vector<std::string> fidelity =
        replay_layers(w->roster_configs(), pass_counts(traced.front()), values);
    notes.insert(notes.end(), fidelity.begin(), fidelity.end());

    const ProbeResult probe = checkpoint_probe(w->probe_config(), opt.run_dir + "/probe.ckpt");
    attempted++;
    const RunRecord* ref = nullptr;
    for (const RunRecord& r : traced.front().runs) {
      if (r.key == w->probe_key()) ref = &r;
    }
    if (!probe.ok || ref == nullptr || !identical(probe.result, ref->result)) {
      failed++;
      why.push_back(std::string(w->name()) + " checkpoint probe on " + w->probe_key() + ": " +
                    (probe.ok ? "paused-and-saved run differs from the pass" : probe.error));
    }
    values["harness.ckpt_save_ms"] = probe.save_ms;
    values["harness.ckpt_bytes"] = probe.bytes;
    values["harness.ckpt_restore_ms"] = probe.restore_ms;
    values["harness.trace_overhead_frac"] = 1.0 - median(traced_rates) / median(rates);
    std::ostringstream n;
    n << "checkpoint probe on " << w->probe_key() << ": median of " << probe.saves
      << " saves, one load; trace overhead from " << rates.size() << " untraced and "
      << traced_rates.size() << " traced passes (" << median(rates) << " vs "
      << median(traced_rates) << " Minstr/s)";
    notes.push_back(n.str());
  }

  const std::vector<MetricDef> defs = opt.trace ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
                               : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::cout << (opt.trace ? "per-layer metrics (traced run):\n" : "end-to-end metrics (tracing off):\n");
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      why.push_back(std::string("metric ") + d.name + " was not measured");
      values[d.name] = 0.0;
    }
    std::printf("  %-34s %16.6g %s\n", d.name, values[d.name], d.unit);
  }
  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("  %-34s %16.6g %s  (%llu of %llu runs failed)\n", "failed_frac", failed_frac,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& n : notes) std::cout << n << "\n";
  std::cout << "outputs check: " << (why.empty() ? "ok" : "FAILED") << "\n";
  for (size_t i = 0; i < why.size() && i < 20; ++i) std::cout << "  " << why[i] << "\n";

  if (opt.trace) {
    // Deterministic counts, workload-wide and per run, for count_diff.py.
    std::string counts;
    auto add = [&](const std::string& k, double v) {
      counts += (counts.empty() ? "" : ", ") + json_string(k) + ": " + json_number(v);
    };
    for (const MetricDef& d : kPerLayer) {
      if (d.deterministic) add(d.name, values[d.name]);
    }
    for (const RunRecord& r : traced.front().runs) {
      const h2::ExperimentResult& x = r.result;
      add(r.key + " engine_steps", static_cast<double>(x.engine_steps));
      add(r.key + " cpu_cycles", static_cast<double>(x.cpu_cycles));
      add(r.key + " gpu_cycles", static_cast<double>(x.gpu_cycles));
      add(r.key + " instructions", static_cast<double>(x.cpu_instructions + x.gpu_instructions));
      add(r.key + " demand", static_cast<double>(x.hmstats[0].demand + x.hmstats[1].demand));
      add(r.key + " weighted_ipc", x.weighted_ipc);
    }
    std::cout << "simbench-counts {\"workload\": " << json_string(w->name())
              << ", \"seed\": " << opt.seed << ", \"counts\": {" << counts << "}}\n";
  }

  std::string metrics;
  for (const MetricDef& d : defs) {
    metrics += (metrics.empty() ? "" : ", ") + json_string(d.name) + ": {\"value\": " +
               json_number(values[d.name]) + ", \"unit\": " + json_string(d.unit) + "}";
  }
  std::cout << "{\"correct\": " << (why.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}
