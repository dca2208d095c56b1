// Ablation: what the logic-optimisation passes buy.  Compares cell count
// and area of the synthesised SRC with and without word-level passes and
// gate-level optimisation — the "Design Compiler effort" dimension the
// paper's results implicitly depend on.
#include <benchmark/benchmark.h>

#include "bench_json_main.hpp"

#include "netlist/lower.hpp"
#include "netlist/opt.hpp"
#include "rtl/passes.hpp"
#include "rtl/src_design.hpp"

namespace {

using namespace scflow;

void synth_bench(benchmark::State& state, bool word_passes, bool gate_passes) {
  const rtl::Design design = rtl::build_src_design(rtl::rtl_opt_config());
  double area = 0.0;
  std::size_t cells = 0;
  for (auto _ : state) {
    rtl::Design d = word_passes ? rtl::run_passes(design)
                                : rtl::Design(design);
    nl::Netlist gates = nl::lower_to_gates(d);
    if (gate_passes) gates = nl::optimize_gates(gates);
    nl::insert_scan_chain(gates);
    const auto rep = nl::report_area(gates);
    area = rep.total();
    cells = rep.cell_count;
    benchmark::DoNotOptimize(area);
  }
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["area_um2"] = area;
}

void GateOpt_None(benchmark::State& s) { synth_bench(s, false, false); }
void GateOpt_WordOnly(benchmark::State& s) { synth_bench(s, true, false); }
void GateOpt_GateOnly(benchmark::State& s) { synth_bench(s, false, true); }
void GateOpt_Full(benchmark::State& s) { synth_bench(s, true, true); }

BENCHMARK(GateOpt_None)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(GateOpt_WordOnly)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(GateOpt_GateOnly)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(GateOpt_Full)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

SCFLOW_BENCHMARK_MAIN()
