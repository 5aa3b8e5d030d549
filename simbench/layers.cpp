// Per-layer measurement for the traced run: the epoch clock observer, the
// in-situ counts read through public accessors, the replay chain that times
// each layer's public entry point in isolation, and the checkpoint probe.
// Every span here is recorded by the benchmark around a call into a layer;
// nothing inside the simulator is instrumented.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>

#include "cache/hierarchy.h"
#include "common/rng.h"
#include "harness/checkpoint.h"
#include "hybridmem/hybrid_memory.h"
#include "mem/memory_system.h"
#include "proc/core.h"
#include "sim/engine.h"
#include "simbench.h"
#include "trace/generators.h"
#include "trace/workloads.h"

namespace simbench {

using h2::Cycle;
using h2::ExperimentConfig;
using h2::Requestor;
using h2::u32;

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

namespace {

double ratio(u64 num, u64 den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::string fmt_line(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string fmt_line(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace

// --- epoch clock ---------------------------------------------------------------

void EpochClock::on_epoch(h2::SimSystem& sys, const h2::EpochFeedback& fb) {
  (void)sys;
  (void)fb;
  const auto now = Clock::now();
  spans_->epoch_ms.push_back(std::chrono::duration<double, std::milli>(now - last_).count());
  last_ = now;
}

// --- in-situ counts ------------------------------------------------------------

void LayerCounts::add(const LayerCounts& o) {
  draws += o.draws;
  reads += o.reads;
  writes += o.writes;
  stall_cycles += o.stall_cycles;
  for (int s = 0; s < 2; ++s) {
    read_lat_sum[s] += o.read_lat_sum[s];
    read_lat_n[s] += o.read_lat_n[s];
    llc_hits[s] += o.llc_hits[s];
    llc_accesses[s] += o.llc_accesses[s];
  }
  l1_hits += o.l1_hits;
  l1_accesses += o.l1_accesses;
  l2_hits += o.l2_hits;
  l2_accesses += o.l2_accesses;
  llc_writebacks += o.llc_writebacks;
  demand += o.demand;
  fast_hits += o.fast_hits;
  migrations += o.migrations;
  bypasses += o.bypasses;
  first_touches += o.first_touches;
  dirty_writebacks += o.dirty_writebacks;
  lazy_fixups += o.lazy_fixups;
  meta_wait_cycles += o.meta_wait_cycles;
  remap_hits += o.remap_hits;
  remap_misses += o.remap_misses;
  reconfigurations += o.reconfigurations;
  fast_swaps += o.fast_swaps;
  flush_invalidations += o.flush_invalidations;
  fast_requests += o.fast_requests;
  slow_requests += o.slow_requests;
  fast_row_hits += o.fast_row_hits;
  fast_row_accesses += o.fast_row_accesses;
  slow_row_hits += o.slow_row_hits;
  slow_row_accesses += o.slow_row_accesses;
  slow_bytes += o.slow_bytes;
  activations += o.activations;
  refresh_windows += o.refresh_windows;
  engine_steps += o.engine_steps;
  instructions += o.instructions;
}

LayerCounts read_counts(h2::SimSystem& sys, const h2::ExperimentResult& r) {
  LayerCounts c;
  for (const auto& core : sys.cores()) {
    const u32 s = static_cast<u32>(core->cls());
    c.reads += core->reads_issued();
    c.writes += core->writes_issued();
    c.stall_cycles += core->stall_cycles();
    c.read_lat_sum[s] += core->read_latency().total();
    c.read_lat_n[s] += core->read_latency().count();
  }
  // Every issued access is one generator draw (the core's one pending,
  // not-yet-issued entry is not counted).
  c.draws = c.reads + c.writes;

  h2::CacheHierarchy& h = sys.hierarchy();
  for (u32 i = 0; i < h.config().cpu_cores; ++i) {
    c.l1_hits += h.cpu_l1(i).hits();
    c.l1_accesses += h.cpu_l1(i).hits() + h.cpu_l1(i).misses();
    c.l2_hits += h.cpu_l2(i).hits();
    c.l2_accesses += h.cpu_l2(i).hits() + h.cpu_l2(i).misses();
  }
  for (u32 i = 0; i < h.config().gpu_clusters; ++i) {
    c.l1_hits += h.gpu_l1(i).hits();
    c.l1_accesses += h.gpu_l1(i).hits() + h.gpu_l1(i).misses();
  }
  for (Requestor side : {Requestor::Cpu, Requestor::Gpu}) {
    const u32 s = static_cast<u32>(side);
    c.llc_hits[s] = h.llc_hits(side);
    c.llc_accesses[s] = h.llc_accesses(side);
    const h2::HybridStats& st = sys.hybrid().stats(side);
    c.demand += st.demand;
    c.fast_hits += st.fast_hits;
    c.migrations += st.migrations;
    c.bypasses += st.bypasses;
    c.first_touches += st.first_touches;
    c.dirty_writebacks += st.dirty_writebacks;
    c.lazy_fixups += st.lazy_invalidations + st.lazy_moves;
    c.meta_wait_cycles += st.meta_wait_cycles;
    c.fast_swaps += st.fast_swaps;
    c.flush_invalidations += st.flush_invalidations;
  }
  c.llc_writebacks = h.llc().writebacks();
  c.remap_hits = sys.hybrid().remap_cache().hits();
  c.remap_misses = sys.hybrid().remap_cache().misses();
  c.reconfigurations = r.reconfigurations;

  h2::MemorySystem& m = sys.memory();
  for (u32 i = 0; i < m.num_fast_superchannels(); ++i) {
    const h2::Channel& ch = m.fast_channel(i);
    c.fast_requests += ch.requests();
    c.fast_row_hits += ch.row_hits();
    c.fast_row_accesses += ch.row_hits() + ch.row_misses();
    c.activations += ch.activations();
    c.refresh_windows += ch.refresh_windows();
  }
  for (u32 i = 0; i < m.num_slow_channels(); ++i) {
    const h2::Channel& ch = m.slow_channel(i);
    c.slow_requests += ch.requests();
    c.slow_row_hits += ch.row_hits();
    c.slow_row_accesses += ch.row_hits() + ch.row_misses();
    c.activations += ch.activations();
    c.refresh_windows += ch.refresh_windows();
  }
  c.slow_bytes = r.slow_bytes;
  c.engine_steps = r.engine_steps;
  c.instructions = r.cpu_instructions + r.gpu_instructions;
  return c;
}

// --- replay chain -----------------------------------------------------------

namespace {

/// Latency the stub port answers every access with. It stands in for the
/// whole memory hierarchy, so it only sets how the cores' streams interleave
/// and how often MSHR and write-buffer limits stall them.
constexpr Cycle kStubLatency = 120;

struct PortAccess {
  Cycle now;
  h2::Addr addr;
  u32 unit;
  Requestor cls;
  bool write;
};

/// Fixed-latency MemoryPort that records the stream the cores issue.
class StubPort final : public h2::MemoryPort {
 public:
  explicit StubPort(std::vector<PortAccess>* log) : log_(log) {}
  Cycle access(Cycle now, Requestor cls, u32 unit, h2::Addr addr, bool write) override {
    log_->push_back({now, addr, unit, cls, write});
    return now + kStubLatency;
  }

 private:
  std::vector<PortAccess>* log_;
};

/// An LLC miss as the hybrid-memory controller receives it.
struct Miss {
  Cycle t;
  h2::Addr addr;
  Requestor cls;
  bool write;
  bool writeback;
  h2::Addr writeback_addr;
};

/// The generators SimSystem::build() gives the cores of `sys`, rebuilt from
/// the same workload specs and seeds, in core order.
std::vector<std::unique_ptr<h2::AccessGenerator>> rebuild_generators(h2::SimSystem& sys) {
  const ExperimentConfig& cfg = sys.config();
  const h2::ComboSpec& cb = h2::combo(cfg.combo);
  const h2::SystemConfig& sc = cfg.sys;
  std::vector<std::unique_ptr<h2::AccessGenerator>> gens;
  for (u32 i = 0; i < sc.cpu_cores; ++i) {
    const h2::WorkloadSpec spec = h2::with_scaled_footprint(
        h2::cpu_workload_spec(cb.cpu[(i / 2) % cb.cpu.size()]), 1, sc.scale);
    gens.push_back(std::make_unique<h2::SyntheticGenerator>(spec, h2::mix_hash(cfg.seed, 0x1000 + i)));
  }
  h2::WorkloadSpec slice = h2::with_scaled_footprint(h2::gpu_workload_spec(cb.gpu), 1, sc.scale);
  slice.footprint_bytes = std::max<u64>(256 * 1024, slice.footprint_bytes / sc.gpu_clusters());
  for (u32 i = 0; i < sc.gpu_clusters(); ++i) {
    gens.push_back(std::make_unique<h2::SyntheticGenerator>(slice, h2::mix_hash(cfg.seed, 0x2000 + i)));
  }
  return gens;
}

/// Keeps the timed generator loop from being optimised away.
volatile u64 g_sink = 0;

/// What a per-call timing reads for an empty interval: the share of the two
/// bracketing clock reads that lands inside the span.
double timer_overhead_ns() {
  constexpr int kN = 100'000;
  double sink = 0;
  for (int i = 0; i < kN; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    sink += std::chrono::duration<double, std::nano>(b - a).count();
  }
  return sink / kN;
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct ReplayTotals {
  u64 draws = 0, core_steps = 0, accesses = 0;
  u64 l1_hits = 0, l1_accesses = 0, l2_hits = 0, l2_accesses = 0;
  u64 llc_hits[2] = {0, 0}, llc_accesses[2] = {0, 0};
  u64 demand = 0, fast_hits = 0, writebacks = 0, inner_requests = 0;
  u64 mem_requests = 0, fast_row_hits = 0, fast_row_accesses = 0;
  u64 slow_row_hits = 0, slow_row_accesses = 0;
  double next_ns = 0, step_ns = 0, cache_ns = 0, access_ns = 0, writeback_ns = 0, mem_ns = 0;
};

void replay_one(const ExperimentConfig& cfg_in, double timer_ns, ReplayTotals& t) {
  ExperimentConfig cfg = cfg_in;
  cfg.checkpoint_path.clear();
  cfg.restore_path.clear();
  h2::SimSystem sys(cfg);  // built only for its effective layer configs
  sys.build();

  // proc: the cores under their own engine, on the stub port.
  std::vector<PortAccess> log;
  {
    auto gens = rebuild_generators(sys);
    StubPort port(&log);
    h2::Engine engine;
    std::vector<std::unique_ptr<h2::Core>> cores;
    for (size_t k = 0; k < sys.cores().size(); ++k) {
      const h2::CoreParams& p = sys.cores()[k]->params();
      cores.push_back(std::make_unique<h2::Core>(p, gens[k].get(), &port));
      engine.add_actor(cores.back().get(), p.unit);
    }
    engine.add_periodic(cfg.epoch_cycles, [&](Cycle) {
      bool all = true;
      for (const auto& c : cores) all = all && c->finished();
      if (all) engine.stop();
    });
    const auto a = Clock::now();
    engine.run(cfg.max_cycles);
    t.step_ns += ns_between(a, Clock::now());
    t.core_steps += engine.steps_executed();
  }

  // trace: the same draws from fresh generators, in a tight loop.
  {
    auto gens = rebuild_generators(sys);
    std::vector<u64> per_gen(gens.size(), 0);
    const u32 n_cpu = cfg.sys.cpu_cores;
    for (const PortAccess& a : log) per_gen[(a.cls == Requestor::Cpu ? 0 : n_cpu) + a.unit]++;
    u64 sink = 0;
    const auto a = Clock::now();
    for (size_t g = 0; g < gens.size(); ++g) {
      for (u64 i = 0; i < per_gen[g]; ++i) sink += gens[g]->next().addr;
    }
    t.next_ns += ns_between(a, Clock::now());
    g_sink = sink;
    t.draws += log.size();
  }

  // cache: the recorded stream through a fresh hierarchy.
  std::vector<Miss> misses;
  misses.reserve(log.size() / 4);
  {
    h2::CacheHierarchy h(sys.hierarchy().config());
    const auto a = Clock::now();
    for (const PortAccess& pa : log) {
      const h2::HierarchyResult hr = pa.cls == Requestor::Cpu
                                         ? h.cpu_access(pa.unit, pa.addr, pa.write)
                                         : h.gpu_access(pa.unit, pa.addr, pa.write);
      if (hr.memory_needed) {
        misses.push_back({pa.now + hr.latency, pa.addr, pa.cls, pa.write, hr.writeback,
                          hr.writeback_addr});
      }
    }
    t.cache_ns += ns_between(a, Clock::now());
    t.accesses += log.size();
    for (u32 i = 0; i < h.config().cpu_cores; ++i) {
      t.l1_hits += h.cpu_l1(i).hits();
      t.l1_accesses += h.cpu_l1(i).hits() + h.cpu_l1(i).misses();
      t.l2_hits += h.cpu_l2(i).hits();
      t.l2_accesses += h.cpu_l2(i).hits() + h.cpu_l2(i).misses();
    }
    for (u32 i = 0; i < h.config().gpu_clusters; ++i) {
      t.l1_hits += h.gpu_l1(i).hits();
      t.l1_accesses += h.gpu_l1(i).hits() + h.gpu_l1(i).misses();
    }
    for (u32 s = 0; s < 2; ++s) {
      t.llc_hits[s] += h.llc_hits(static_cast<Requestor>(s));
      t.llc_accesses[s] += h.llc_accesses(static_cast<Requestor>(s));
    }
  }

  // hybridmem (with its MemorySystem child): the miss stream, each call timed.
  {
    h2::MemorySystem mem(sys.memory().config());
    auto policy = h2::make_policy(sys.design());
    h2::HybridMemory hm(sys.hybrid().config(), &mem, policy.get());
    for (const Miss& m : misses) {
      if (m.writeback) {
        const auto a = Clock::now();
        hm.writeback(m.t, m.cls, m.writeback_addr);
        t.writeback_ns += ns_between(a, Clock::now()) - timer_ns;
        t.writebacks++;
      }
      const auto a = Clock::now();
      hm.access(m.t, m.cls, m.addr, m.write);
      t.access_ns += ns_between(a, Clock::now()) - timer_ns;
    }
    for (Requestor side : {Requestor::Cpu, Requestor::Gpu}) {
      t.demand += hm.stats(side).demand;
      t.fast_hits += hm.stats(side).fast_hits;
    }
    for (u32 i = 0; i < mem.num_fast_superchannels(); ++i) t.inner_requests += mem.issued_fast(i);
    for (u32 i = 0; i < mem.num_slow_channels(); ++i) t.inner_requests += mem.issued_slow(i);
  }

  // mem alone: one 64 B request per miss to each tier, superchannel by block.
  {
    h2::MemorySystem mem(sys.memory().config());
    const u32 n_sc = mem.num_fast_superchannels();
    const u64 block = mem.config().block_bytes;
    const auto a = Clock::now();
    for (const Miss& m : misses) {
      mem.slow_access(m.t, m.addr, 64, m.write, m.cls);
      mem.fast_access(m.t, static_cast<u32>((m.addr / block) % n_sc), m.addr, 64, m.write, m.cls);
    }
    t.mem_ns += ns_between(a, Clock::now());
    t.mem_requests += 2 * misses.size();
    for (u32 i = 0; i < n_sc; ++i) {
      t.fast_row_hits += mem.fast_channel(i).row_hits();
      t.fast_row_accesses += mem.fast_channel(i).row_hits() + mem.fast_channel(i).row_misses();
    }
    for (u32 i = 0; i < mem.num_slow_channels(); ++i) {
      t.slow_row_hits += mem.slow_channel(i).row_hits();
      t.slow_row_accesses += mem.slow_channel(i).row_hits() + mem.slow_channel(i).row_misses();
    }
  }
}

}  // namespace

std::vector<std::string> replay_layers(const std::vector<ExperimentConfig>& cfgs,
                                       const LayerCounts& in_situ, Values& out) {
  const double timer_ns = timer_overhead_ns();
  ReplayTotals t;
  for (const ExperimentConfig& cfg : cfgs) replay_one(cfg, timer_ns, t);

  const double hm_calls = static_cast<double>(t.demand + t.writebacks);
  out["trace.next_ns"] = t.next_ns / static_cast<double>(t.draws);
  out["proc.step_ns"] = t.step_ns / static_cast<double>(t.core_steps);
  out["cache.access_ns"] = t.cache_ns / static_cast<double>(t.accesses);
  out["hybridmem.access_ns"] = t.access_ns / static_cast<double>(t.demand);
  out["hybridmem.writeback_ns"] = t.writebacks ? t.writeback_ns / static_cast<double>(t.writebacks) : 0.0;
  out["mem.request_ns"] = t.mem_ns / static_cast<double>(t.mem_requests);

  const LayerCounts& c = in_situ;
  std::vector<std::string> lines;
  lines.push_back(fmt_line("replay fidelity over %zu run(s): replay | in situ", cfgs.size()));
  lines.push_back(fmt_line("  trace      draws               %12llu | %llu",
                           (unsigned long long)t.draws, (unsigned long long)c.draws));
  lines.push_back(fmt_line("  cache      accesses            %12llu | %llu",
                           (unsigned long long)t.accesses, (unsigned long long)c.l1_accesses));
  lines.push_back(fmt_line("  cache      l1 hit rate         %12.4f | %.4f",
                           ratio(t.l1_hits, t.l1_accesses), ratio(c.l1_hits, c.l1_accesses)));
  lines.push_back(fmt_line("  cache      l2 hit rate         %12.4f | %.4f",
                           ratio(t.l2_hits, t.l2_accesses), ratio(c.l2_hits, c.l2_accesses)));
  lines.push_back(fmt_line("  cache      llc cpu hit rate    %12.4f | %.4f",
                           ratio(t.llc_hits[0], t.llc_accesses[0]), ratio(c.llc_hits[0], c.llc_accesses[0])));
  lines.push_back(fmt_line("  cache      llc gpu hit rate    %12.4f | %.4f",
                           ratio(t.llc_hits[1], t.llc_accesses[1]), ratio(c.llc_hits[1], c.llc_accesses[1])));
  lines.push_back(fmt_line("  hybridmem  demand              %12llu | %llu",
                           (unsigned long long)t.demand, (unsigned long long)c.demand));
  lines.push_back(fmt_line("  hybridmem  fast hit rate       %12.4f | %.4f",
                           ratio(t.fast_hits, t.demand), ratio(c.fast_hits, c.demand)));
  lines.push_back(fmt_line("  hybridmem  llc writebacks      %12llu | %llu",
                           (unsigned long long)t.writebacks, (unsigned long long)c.llc_writebacks));
  lines.push_back(fmt_line("  mem        fast row-hit rate   %12.4f | %.4f",
                           ratio(t.fast_row_hits, t.fast_row_accesses), ratio(c.fast_row_hits, c.fast_row_accesses)));
  lines.push_back(fmt_line("  mem        slow row-hit rate   %12.4f | %.4f",
                           ratio(t.slow_row_hits, t.slow_row_accesses), ratio(c.slow_row_hits, c.slow_row_accesses)));
  // HybridMemory calls MemorySystem: its span includes that child. Subtract
  // the child's replayed per-request cost to estimate hybridmem's self time.
  const double outer = (t.access_ns + t.writeback_ns) / hm_calls;
  const double child = static_cast<double>(t.inner_requests) / hm_calls * out["mem.request_ns"];
  lines.push_back(fmt_line(
      "hybridmem self-time estimate: %.1f ns per call (outer span %.1f ns minus %.2f inner "
      "mem requests x %.1f ns from the mem replay); timer overhead %.1f ns subtracted per call",
      outer - child, outer, static_cast<double>(t.inner_requests) / hm_calls,
      out["mem.request_ns"], timer_ns));
  return lines;
}

// --- checkpoint probe --------------------------------------------------------

ProbeResult checkpoint_probe(const ExperimentConfig& cfg_in, const std::string& path) {
  constexpr int kSaves = 3;
  ExperimentConfig cfg = cfg_in;
  cfg.checkpoint_path.clear();
  cfg.restore_path.clear();
  ProbeResult p;
  try {
    h2::SimSystem sys(cfg);
    sys.build();
    sys.warmup(cfg.warmup_epochs);
    sys.measure();
    std::vector<double> saves;
    for (int i = 0; i < kSaves; ++i) {
      const auto a = Clock::now();
      h2::save_checkpoint(sys, path);
      saves.push_back(ns_between(a, Clock::now()) / 1e6);
    }
    p.saves = kSaves;
    p.save_ms = median(saves);
    p.bytes = static_cast<double>(std::filesystem::file_size(path));
    {
      h2::SimSystem fresh(cfg);
      fresh.build();
      const auto a = Clock::now();
      h2::load_checkpoint(fresh, path);
      p.restore_ms = ns_between(a, Clock::now()) / 1e6;
    }
    p.result = sys.drain();
    p.ok = true;
  } catch (const std::exception& e) {
    p.error = e.what();
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return p;
}

// --- metrics of the traced passes ----------------------------------------

LayerCounts pass_counts(const Pass& pass) {
  LayerCounts c;
  for (const RunRecord& r : pass.runs) {
    if (!r.restore) c.add(r.counts);
  }
  return c;
}

std::vector<std::string> layer_metrics(const std::vector<Pass>& traced, Values& out) {
  const LayerCounts c = pass_counts(traced.front());
  out["trace.draws"] = static_cast<double>(c.draws);
  out["proc.reads"] = static_cast<double>(c.reads);
  out["proc.writes"] = static_cast<double>(c.writes);
  out["proc.stall_cycles"] = static_cast<double>(c.stall_cycles);
  out["proc.cpu_read_latency_mean"] = ratio(c.read_lat_sum[0], c.read_lat_n[0]);
  out["proc.gpu_read_latency_mean"] = ratio(c.read_lat_sum[1], c.read_lat_n[1]);
  out["cache.accesses"] = static_cast<double>(c.l1_accesses);
  out["cache.l1.hit_rate"] = ratio(c.l1_hits, c.l1_accesses);
  out["cache.l2.hit_rate"] = ratio(c.l2_hits, c.l2_accesses);
  out["cache.llc.cpu_hit_rate"] = ratio(c.llc_hits[0], c.llc_accesses[0]);
  out["cache.llc.gpu_hit_rate"] = ratio(c.llc_hits[1], c.llc_accesses[1]);
  out["cache.llc.writebacks"] = static_cast<double>(c.llc_writebacks);
  out["hybridmem.demand"] = static_cast<double>(c.demand);
  out["hybridmem.fast_hit_rate"] = ratio(c.fast_hits, c.demand);
  out["hybridmem.migrations"] = static_cast<double>(c.migrations);
  out["hybridmem.bypasses"] = static_cast<double>(c.bypasses);
  out["hybridmem.first_touches"] = static_cast<double>(c.first_touches);
  out["hybridmem.dirty_writebacks"] = static_cast<double>(c.dirty_writebacks);
  out["hybridmem.lazy_fixups"] = static_cast<double>(c.lazy_fixups);
  out["hybridmem.remap_cache_miss_rate"] = ratio(c.remap_misses, c.remap_hits + c.remap_misses);
  out["hybridmem.meta_wait_cycles"] = static_cast<double>(c.meta_wait_cycles);
  out["policies.reconfigurations"] = static_cast<double>(c.reconfigurations);
  out["policies.fast_swaps"] = static_cast<double>(c.fast_swaps);
  out["policies.flush_invalidations"] = static_cast<double>(c.flush_invalidations);
  out["mem.fast.requests"] = static_cast<double>(c.fast_requests);
  out["mem.slow.requests"] = static_cast<double>(c.slow_requests);
  out["mem.fast.row_hit_rate"] = ratio(c.fast_row_hits, c.fast_row_accesses);
  out["mem.slow.row_hit_rate"] = ratio(c.slow_row_hits, c.slow_row_accesses);
  out["mem.slow_amplification"] = ratio(c.slow_bytes, c.demand * 64);
  out["mem.activations"] = static_cast<double>(c.activations);
  out["mem.refresh_windows"] = static_cast<double>(c.refresh_windows);
  out["sim.engine_steps"] = static_cast<double>(c.engine_steps);
  out["sim.steps_per_kinstr"] = ratio(c.engine_steps * 1000, c.instructions);

  // Lifecycle spans, pooled over every traced pass.
  std::vector<double> build_ms, drain_ms, measure_s, epoch_ms;
  double engine_s = 0;
  u64 steps = 0;
  for (const Pass& p : traced) {
    double pass_measure = 0;
    for (const RunRecord& r : p.runs) {
      build_ms.push_back(r.spans.build_s * 1e3);
      drain_ms.push_back(r.spans.drain_s * 1e3);
      epoch_ms.insert(epoch_ms.end(), r.spans.epoch_ms.begin(), r.spans.epoch_ms.end());
      if (r.restore) continue;
      pass_measure += r.spans.measure_s;
      engine_s += r.spans.warmup_s + r.spans.measure_s;
      steps += r.result.engine_steps;
    }
    measure_s.push_back(pass_measure);
  }
  out["sim.ns_per_step"] = steps ? engine_s * 1e9 / static_cast<double>(steps) : 0.0;
  out["harness.build_ms"] = median(build_ms);
  out["harness.measure_s"] = median(measure_s);
  out["harness.drain_ms"] = median(drain_ms);
  out["harness.epoch_ms.p50"] = median(epoch_ms);
  // The tail is the highest of these percentiles with at least ten epochs
  // beyond it.
  double tail_p = 50.0;
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(epoch_ms.size()) * (100.0 - p) / 100.0 >= 10.0) {
      tail_p = p;
      break;
    }
  }
  out["harness.epoch_ms.tail"] = percentile(epoch_ms, tail_p);
  return {fmt_line("harness.epoch_ms.tail is p%g of %zu epochs (%.0f beyond it); "
                   "harness.build_ms and harness.drain_ms are medians of %zu runs, "
                   "harness.measure_s the median over %zu traced passes",
                   tail_p, epoch_ms.size(),
                   static_cast<double>(epoch_ms.size()) * (100.0 - tail_p) / 100.0,
                   build_ms.size(), measure_s.size())};
}

}  // namespace simbench
