// Figure 9: simulation performance of the HDL artefacts — the RTL design
// (interpreted), the gate netlist from the behavioural flow and the gate
// netlist from the RTL flow — each simulated (a) in the native interpreted
// "VHDL testbench" and (b) co-simulated with the compiled SystemC-style
// testbench.  The paper's finding: co-simulation is *slightly faster*,
// because the testbench runs compiled and the synchronisation overhead is
// smaller than the interpretation overhead it replaces.
// `--backend compiled` swaps the gate DUTs onto the bit-parallel compiled
// bytecode engine (hdlsim::CompiledSim).  It broadcasts the testbench
// stimulus across 64 pattern lanes, so the comparable figure of merit is
// pattern-cycle throughput: patt_cyc_per_s = cycles x patterns per second
// (patterns = 64 compiled, 1 interpreted / RTL).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json_main.hpp"
#include "cosim/bridge.hpp"
#include "dsp/stimulus.hpp"
#include "flow/synthesis_flow.hpp"
#include "hdlsim/batch_runner.hpp"
#include "hdlsim/dut.hpp"
#include "hdlsim/testbench_vm.hpp"
#include "hls/src_beh.hpp"
#include "rtl/src_design.hpp"

namespace {

using namespace scflow;
using P = dsp::SrcParams;

constexpr std::size_t kSamples = 60;

const std::vector<dsp::SrcEvent>& events() {
  static const auto ev = [] {
    const auto inputs = dsp::make_sine_stimulus(kSamples, 1000.0, 44100.0);
    return dsp::make_schedule(inputs, P::kPeriod44k1Ps, kSamples, P::kPeriod48kPs);
  }();
  return ev;
}

enum class DutKind { kRtl, kGateBeh, kGateRtl };

const rtl::Design& rtl_design() {
  static const rtl::Design d = rtl::build_src_design(rtl::rtl_opt_config());
  return d;
}
// Synthesis happens once (static init) and records into the telemetry
// session when --ledger/--trace enabled it: one "synth" ledger entry per
// netlist, so a bench ledger names the exact DUTs the numbers ran on.
const nl::Netlist& gates_beh() {
  static const nl::Netlist n =
      flow::synthesize_to_gates(hls::build_beh_src_design(hls::beh_opt_config()),
                                nullptr, benchutil::telemetry_registry(),
                                "fig9.synth.beh_opt");
  return n;
}
const nl::Netlist& gates_rtl() {
  static const nl::Netlist n =
      flow::synthesize_to_gates(rtl_design(), nullptr,
                                benchutil::telemetry_registry(),
                                "fig9.synth.rtl_opt");
  return n;
}

hdlsim::Backend backend() {
  const std::string& b = benchutil::requested_backend();
  if (b == "compiled") return hdlsim::Backend::kCompiled;
  if (b != "interpreted") {
    std::fprintf(stderr, "error: unknown --backend '%s' (interpreted|compiled)\n", b.c_str());
    std::exit(2);
  }
  return hdlsim::Backend::kInterpreted;
}

// Stimulus lanes a gate DUT simulates per cycle: the compiled engine
// broadcasts over its 64 pattern lanes, the interpreter (and the RTL
// model) carries one.
double patterns_per_cycle(DutKind kind) {
  return kind != DutKind::kRtl && backend() == hdlsim::Backend::kCompiled
             ? static_cast<double>(hdlsim::CompiledSim::kLanes)
             : 1.0;
}

std::unique_ptr<hdlsim::Dut> make_dut(DutKind kind) {
  // --backend compiled selects the bytecode engine via the factory (the
  // RTL DUT has no gate engine and ignores the flag).
  std::unique_ptr<hdlsim::Dut> dut;
  switch (kind) {
    case DutKind::kRtl: dut = std::make_unique<hdlsim::RtlDut>(rtl_design()); break;
    case DutKind::kGateBeh: dut = hdlsim::make_gate_dut(gates_beh(), {}, backend()); break;
    case DutKind::kGateRtl: dut = hdlsim::make_gate_dut(gates_rtl(), {}, backend()); break;
  }
  if (kind != DutKind::kRtl) {
    dut->set_input("scan_in", 0);
    dut->set_input("scan_enable", 0);
  }
  return dut;
}

// Attach the simulator-internals counters (see hdlsim::SimCounters) next
// to the throughput numbers, so a run shows *why* the engines differ, not
// just how fast they go.
void report_counters(benchmark::State& state, const hdlsim::SimCounters& c) {
  state.counters["evals"] = static_cast<double>(c.evaluations);
  state.counters["dirty_pushes"] = static_cast<double>(c.dirty_pushes);
  state.counters["peak_q"] = static_cast<double>(c.peak_queue_depth);
  state.counters["ss_allocs"] = static_cast<double>(c.steady_state_allocs);
}

// DUT construction (netlist copy + simulator build) is setup, not
// simulation: keep it outside the timed region so cyc_per_s measures the
// engines, comparable across DUTs of very different construction cost.
void native_bench(benchmark::State& state, DutKind kind) {
  const auto prog = hdlsim::build_src_testbench(events(), dsp::SrcMode::k44_1To48);
  std::uint64_t cycles = 0;
  // Work counters are one run's, so they do not scale with the iteration
  // count google-benchmark picks.
  std::uint64_t tb_instructions = 0;
  hdlsim::SimCounters last{};
  for (auto _ : state) {
    state.PauseTiming();
    auto dut = make_dut(kind);
    state.ResumeTiming();
    const auto r = hdlsim::run_testbench_vm(*dut, prog);
    benchmark::DoNotOptimize(r.outputs.data());
    cycles += r.cycles;
    tb_instructions = r.instructions_executed;
    last = r.dut_counters;
  }
  state.counters["cyc_per_s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["patterns"] = patterns_per_cycle(kind);
  state.counters["patt_cyc_per_s"] = benchmark::Counter(
      static_cast<double>(cycles) * patterns_per_cycle(kind), benchmark::Counter::kIsRate);
  state.counters["tb_instr"] = static_cast<double>(tb_instructions);
  report_counters(state, last);
}

void cosim_bench(benchmark::State& state, DutKind kind) {
  std::uint64_t cycles = 0;
  std::uint64_t syncs = 0;  // one run's, like `last`
  hdlsim::SimCounters last{};
  for (auto _ : state) {
    state.PauseTiming();
    auto dut = make_dut(kind);
    // run_cosim builds the minisc testbench world before starting the
    // kernel; resume the clock only once it actually runs.
    const auto r = cosim::run_cosim(*dut, dsp::SrcMode::k44_1To48, events(),
                                    [&state] { state.ResumeTiming(); });
    benchmark::DoNotOptimize(r.outputs.data());
    cycles += r.cycles;
    syncs = r.syncs;
    last = r.dut_counters;
  }
  state.counters["cyc_per_s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["patterns"] = patterns_per_cycle(kind);
  state.counters["patt_cyc_per_s"] = benchmark::Counter(
      static_cast<double>(cycles) * patterns_per_cycle(kind), benchmark::Counter::kIsRate);
  state.counters["syncs"] = static_cast<double>(syncs);
  report_counters(state, last);
}

void Fig9_RTL_VhdlTestbench(benchmark::State& s) { native_bench(s, DutKind::kRtl); }
void Fig9_RTL_SystemCTestbench(benchmark::State& s) { cosim_bench(s, DutKind::kRtl); }
void Fig9_GateBEH_VhdlTestbench(benchmark::State& s) { native_bench(s, DutKind::kGateBeh); }
void Fig9_GateBEH_SystemCTestbench(benchmark::State& s) { cosim_bench(s, DutKind::kGateBeh); }
void Fig9_GateRTL_VhdlTestbench(benchmark::State& s) { native_bench(s, DutKind::kGateRtl); }
void Fig9_GateRTL_SystemCTestbench(benchmark::State& s) { cosim_bench(s, DutKind::kGateRtl); }

// CPU-time measurement: on a shared single-core host, wall-clock jitter
// (several percent) would swamp the small native-vs-cosim difference.
#define FIG9_BENCH(fn) \
  BENCHMARK(fn)->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->MinTime(1.5)
FIG9_BENCH(Fig9_RTL_VhdlTestbench);
FIG9_BENCH(Fig9_RTL_SystemCTestbench);
FIG9_BENCH(Fig9_GateBEH_VhdlTestbench);
FIG9_BENCH(Fig9_GateBEH_SystemCTestbench);
FIG9_BENCH(Fig9_GateRTL_VhdlTestbench);
FIG9_BENCH(Fig9_GateRTL_SystemCTestbench);

// ---------------------------------------------------------------------------
// Sharded batch throughput: N independent schedule simulations fanned over
// the batch runner's worker pool.  This is the profitable parallel axis
// for sweep-style workloads (each DUT cycle is ~µs-scale, far below any
// dispatch granularity, but whole simulations shard perfectly), so the
// scaling claim is measured here.  Wall-clock (UseRealTime), not CPU time:
// aggregate cycles per second across all lanes is the figure of merit, and
// it only improves with --threads on a multi-core host.
// ---------------------------------------------------------------------------

const std::vector<std::vector<dsp::SrcEvent>>& batch_schedules() {
  static const auto schedules = [] {
    std::vector<std::vector<dsp::SrcEvent>> s;
    for (std::uint64_t j = 0; j < 8; ++j) {
      const auto inputs = dsp::make_noise_stimulus(kSamples, 7 + j);
      s.push_back(dsp::make_schedule(inputs, P::kPeriod44k1Ps, kSamples, P::kPeriod48kPs));
    }
    return s;
  }();
  return schedules;
}

void batch_bench(benchmark::State& state, const nl::Netlist& gates) {
  const unsigned threads = benchutil::requested_threads();
  const double patterns = patterns_per_cycle(DutKind::kGateRtl);
  std::uint64_t cycles = 0, evals = 0;
  for (auto _ : state) {
    // Session non-null only under --ledger/--trace: batch job spans +
    // "gate_batch.job_ns" histograms accrue there, the timed loop stays
    // uninstrumented otherwise.
    const auto results =
        hdlsim::run_src_netlist_batch(gates, dsp::SrcMode::k44_1To48, batch_schedules(), {},
                                      threads, benchutil::telemetry_session(), 0, backend());
    for (const auto& r : results) {
      benchmark::DoNotOptimize(r.outputs.data());
      cycles += r.cycles;
      evals += r.counters.evaluations;
    }
  }
  state.counters["cyc_per_s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["patterns"] = patterns;
  state.counters["patt_cyc_per_s"] =
      benchmark::Counter(static_cast<double>(cycles) * patterns, benchmark::Counter::kIsRate);
  state.counters["evals_per_s"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads == 0 ? 0 : threads);
  state.counters["jobs"] = static_cast<double>(batch_schedules().size());
}

void Fig9_GateBEH_BatchSweep(benchmark::State& s) { batch_bench(s, gates_beh()); }
void Fig9_GateRTL_BatchSweep(benchmark::State& s) { batch_bench(s, gates_rtl()); }
#define FIG9_BATCH_BENCH(fn) \
  BENCHMARK(fn)->Unit(benchmark::kMillisecond)->UseRealTime()->MinTime(1.5)
FIG9_BATCH_BENCH(Fig9_GateBEH_BatchSweep);
FIG9_BATCH_BENCH(Fig9_GateRTL_BatchSweep);

}  // namespace

SCFLOW_BENCHMARK_MAIN()
