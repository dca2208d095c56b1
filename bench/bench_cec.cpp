// CEC cost of the formal gates guarding each refinement step: proving the
// gate-optimised and scan-inserted SRC netlists equivalent to their
// inputs, plus the RTL-vs-gates lowering check.  Counters expose where the
// engine spends its effort (structural hashing vs simulation vs SAT).
//
// With `--ledger FILE` / `--trace FILE` every proof also records into the
// process telemetry session: one run-ledger entry per check (input hashes,
// options fingerprint, SAT effort counters, per-call conflict histogram)
// plus the "<bench>.sat_call_conflicts" histogram in the registry.
#include <benchmark/benchmark.h>

#include "bench_json_main.hpp"

#include "formal/cec.hpp"
#include "hls/src_beh.hpp"
#include "netlist/lower.hpp"
#include "netlist/opt.hpp"
#include "rtl/passes.hpp"
#include "rtl/src_design.hpp"

namespace {

using namespace scflow;

// Telemetry routing: benches pass the shared session registry (nullptr
// when --ledger/--trace are absent, keeping the timed loop bare) and a
// per-bench metric prefix so ledger entries name the check they came from.
formal::CecOptions with_prefix(formal::CecOptions opt, const char* prefix) {
  opt.metric_prefix = prefix;
  return opt;
}

void report(benchmark::State& state, const formal::CecResult& res) {
  state.counters["aig_nodes"] = static_cast<double>(res.stats.aig_nodes);
  state.counters["compare_bits"] = static_cast<double>(res.stats.compare_bits);
  state.counters["bits_structural"] = static_cast<double>(res.stats.bits_structural);
  state.counters["bits_sat"] = static_cast<double>(res.stats.bits_sat_proved);
  state.counters["sat_calls"] = static_cast<double>(res.stats.sat_calls);
  state.counters["sat_conflicts"] = static_cast<double>(res.stats.sat_conflicts);
  state.counters["sweep_merges"] = static_cast<double>(res.stats.sweep_merges);
}

// The flow's own opt gate: word-level passes run before lowering (as in
// flow::synthesize_to_gates), so the pre/post netlists are structurally
// close and the check is cheap.
void cec_opt_bench(benchmark::State& state, const rtl::Design& raw,
                   const char* prefix) {
  const rtl::Design design = rtl::run_passes(raw);
  const nl::Netlist pre = nl::lower_to_gates(design);
  const nl::Netlist post = nl::optimize_gates(pre);
  formal::CecResult res;
  for (auto _ : state) {
    res = formal::check_equivalence(pre, post, benchutil::telemetry_registry(),
                                    with_prefix({}, prefix));
    if (!res.equivalent()) state.SkipWithError("not equivalent");
    benchmark::DoNotOptimize(res);
  }
  report(state, res);
}

// Stress variant: skip the word-level passes, so gate optimisation has
// real constant folding and restructuring to do and the miter leans on
// the sweep + SAT stages instead of collapsing structurally.  (Only run
// for the hand-RTL design: the HLS-generated designs are dominated by
// FSM constants, and without word passes their miters explode into
// multiplier-vs-folded-constant proofs that SAT grinds on for minutes —
// a check no step of the real flow ever performs.)
void cec_opt_stress_bench(benchmark::State& state, const rtl::Design& design,
                          const char* prefix) {
  const nl::Netlist pre = nl::lower_to_gates(design);
  const nl::Netlist post = nl::optimize_gates(pre);
  formal::CecResult res;
  for (auto _ : state) {
    res = formal::check_equivalence(pre, post, benchutil::telemetry_registry(),
                                    with_prefix({}, prefix));
    if (!res.equivalent()) state.SkipWithError("not equivalent");
    benchmark::DoNotOptimize(res);
  }
  report(state, res);
}

void cec_scan_bench(benchmark::State& state, const rtl::Design& design,
                    const char* prefix) {
  const nl::Netlist pre = nl::optimize_gates(nl::lower_to_gates(design));
  nl::Netlist post = pre;
  nl::insert_scan_chain(post);
  formal::CecResult res;
  for (auto _ : state) {
    res = formal::check_equivalence(
        pre, post, benchutil::telemetry_registry(),
        with_prefix(formal::CecOptions::scan_modulo(), prefix));
    if (!res.equivalent()) state.SkipWithError("not equivalent");
    benchmark::DoNotOptimize(res);
  }
  report(state, res);
}

void cec_rtl_bench(benchmark::State& state, const rtl::Design& design,
                   const char* prefix) {
  const nl::Netlist gates = nl::optimize_gates(nl::lower_to_gates(design));
  formal::CecResult res;
  for (auto _ : state) {
    res = formal::check_rtl_vs_netlist(design, gates,
                                       benchutil::telemetry_registry(),
                                       with_prefix({}, prefix));
    if (!res.equivalent()) state.SkipWithError("not equivalent");
    benchmark::DoNotOptimize(res);
  }
  report(state, res);
}

void Cec_Opt_RtlOpt(benchmark::State& s) {
  cec_opt_bench(s, rtl::build_src_design(rtl::rtl_opt_config()), "cec.opt.rtl_opt");
}
void Cec_Opt_RtlUnopt(benchmark::State& s) {
  cec_opt_bench(s, rtl::build_src_design(rtl::rtl_unopt_config()),
                "cec.opt.rtl_unopt");
}
void Cec_Opt_BehOpt(benchmark::State& s) {
  cec_opt_bench(s, hls::build_beh_src_design(hls::beh_opt_config(), nullptr),
                "cec.opt.beh_opt");
}
void Cec_OptStress_RtlOpt(benchmark::State& s) {
  cec_opt_stress_bench(s, rtl::build_src_design(rtl::rtl_opt_config()),
                       "cec.opt_stress.rtl_opt");
}
void Cec_Scan_RtlOpt(benchmark::State& s) {
  cec_scan_bench(s, rtl::build_src_design(rtl::rtl_opt_config()),
                 "cec.scan.rtl_opt");
}
void Cec_RtlVsGates_RtlOpt(benchmark::State& s) {
  cec_rtl_bench(s, rtl::build_src_design(rtl::rtl_opt_config()),
                "cec.rtl_vs_gates.rtl_opt");
}

BENCHMARK(Cec_Opt_RtlOpt)->Unit(benchmark::kMillisecond)->Iterations(5);
BENCHMARK(Cec_Opt_RtlUnopt)->Unit(benchmark::kMillisecond)->Iterations(5);
BENCHMARK(Cec_Opt_BehOpt)->Unit(benchmark::kMillisecond)->Iterations(5);
BENCHMARK(Cec_OptStress_RtlOpt)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(Cec_Scan_RtlOpt)->Unit(benchmark::kMillisecond)->Iterations(5);
BENCHMARK(Cec_RtlVsGates_RtlOpt)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

SCFLOW_BENCHMARK_MAIN()
