// simulate: the paper's own Fig. 8/9 measurement.  The behavioural and
// RTL refinement levels on the minisc kernel (threads vs methods), the
// interpreted RTL DUT and both gate netlists driven by the interpreted
// testbench VM and co-simulated through the kernel bridge (gate netlists
// on the interpreted and on the compiled engine), and a seeded batch of
// schedules fanned over BatchRunner lanes.  Synthesis and compilation
// are set-up: no fault, CEC or synthesis work is in the timed part.
#include <memory>
#include <optional>
#include <utility>

#include "common.hpp"
#include "core/run.hpp"
#include "cosim/bridge.hpp"
#include "dsp/stimulus.hpp"
#include "flow/synthesis_flow.hpp"
#include "hdlsim/batch_runner.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/dut.hpp"
#include "hdlsim/testbench_vm.hpp"
#include "hls/src_beh.hpp"
#include "obs/ledger.hpp"
#include "rtl/src_design.hpp"

namespace flowbench {

using namespace scflow;

namespace {

constexpr dsp::SrcMode kMode = dsp::SrcMode::k44_1To48;
using P = dsp::SrcParams;

constexpr std::size_t kSamples = 60;       // per Fig. 9 schedule
constexpr std::size_t kFig8Samples = 480;  // per Fig. 8 schedule
constexpr std::size_t kBatchJobs = 16;     // schedules in the batch sweep
constexpr std::size_t kBatchSamples = 40;  // per batch schedule

std::vector<dsp::SrcEvent> schedule(std::size_t samples, std::uint64_t seed) {
  const auto inputs = dsp::make_noise_stimulus(samples, seed);
  return dsp::make_schedule(inputs, P::kPeriod44k1Ps, samples, P::kPeriod48kPs);
}

std::string outputs_key(const std::vector<dsp::StereoSample>& v);

struct Setup {
  std::vector<dsp::SrcEvent> fig8_events;
  std::vector<dsp::SrcEvent> events;
  hdlsim::SrcTestbenchProgram program;
  std::optional<rtl::Design> rtl_design;
  std::vector<nl::Netlist> gates;  // beh_opt, rtl_opt
  std::vector<std::vector<dsp::SrcEvent>> batch;
  double compile_s = 0.0;
  /// Outputs of the RTL refinement level on the Fig. 9 schedule: the
  /// reference every Fig. 9 run is checked against (not part of set-up).
  std::string fig9_reference;
};

Setup make_setup(const Options& opt) {
  Setup s;
  s.fig8_events = schedule(kFig8Samples, derive_seed(opt.seed, 9));
  s.events = schedule(kSamples, derive_seed(opt.seed, 10));
  s.program = hdlsim::build_src_testbench(s.events, kMode);
  s.rtl_design.emplace(rtl::build_src_design(rtl::rtl_opt_config()));
  s.gates.push_back(flow::synthesize_to_gates(hls::build_beh_src_design(hls::beh_opt_config())));
  s.gates.push_back(flow::synthesize_to_gates(*s.rtl_design));
  const double t0 = now_s();
  for (const nl::Netlist& g : s.gates) (void)hdlsim::compile_netlist(g);
  s.compile_s = now_s() - t0;
  for (std::size_t j = 0; j < kBatchJobs; ++j)
    s.batch.push_back(schedule(kBatchSamples, derive_seed(opt.seed, 100 + j)));
  return s;
}

void add_reference(Setup& s) {
  s.fig9_reference =
      outputs_key(model::run_level(model::RefinementLevel::kRtlOpt, kMode, s.events).outputs);
}

std::unique_ptr<hdlsim::Dut> gate_dut(const nl::Netlist& n, hdlsim::Backend backend) {
  auto dut = hdlsim::make_gate_dut(n, {}, backend);
  dut->set_input("scan_in", 0);
  dut->set_input("scan_enable", 0);
  return dut;
}

/// Timings of one unit, per part (seconds) and the cycles each part
/// simulated.
struct Unit {
  double beh_s = 0, rtl_level_s = 0, fig9_rtl_s = 0, gate_s = 0, compiled_s = 0, batch_s = 0;
  double gate_native_s = 0, gate_cosim_s = 0;
  std::uint64_t beh_cyc = 0, rtl_level_cyc = 0, fig9_rtl_cyc = 0, gate_cyc = 0;
  std::uint64_t compiled_cyc = 0, batch_cyc = 0;
  std::vector<hdlsim::GateRunResult> batch;
  double cpu = 0;  ///< process CPU seconds of the timed parts
  [[nodiscard]] double total_s() const {
    return beh_s + rtl_level_s + fig9_rtl_s + gate_s + compiled_s + batch_s;
  }
};

// Times f() as one part of @p u: returns its wall seconds, adds its CPU
// seconds to the unit.
template <typename F>
double part(Unit& u, Tracer* tracer, const char* layer, const std::string& name, F&& f) {
  const double c0 = cpu_s();
  const double wall = timed(tracer, layer, name, std::forward<F>(f));
  u.cpu += cpu_s() - c0;
  return wall;
}

// Co-simulates @p dut as one part of @p u, timed from the kernel's start
// (after run_cosim has built the testbench world).
double cosim_part(Unit& u, Tracer* tracer, const std::string& tag, hdlsim::Dut& dut,
                  const std::vector<dsp::SrcEvent>& events, cosim::CosimResult& out) {
  double w0 = 0.0, c0 = 0.0;
  Tracer::Scope sc(tracer, "cosim", "run_cosim." + tag);
  out = cosim::run_cosim(dut, kMode, events, [&] {
    w0 = now_s();
    c0 = cpu_s();
  });
  u.cpu += cpu_s() - c0;
  return now_s() - w0;
}

std::uint64_t outputs_hash(const std::vector<dsp::StereoSample>& v) {
  obs::Fnv1a h;
  for (const auto& s : v)
    h.update_u64((std::uint64_t{static_cast<std::uint16_t>(s.left)} << 16) |
                 static_cast<std::uint16_t>(s.right));
  return h.digest();
}

std::string outputs_key(const std::vector<dsp::StereoSample>& v) {
  std::string k;
  k.reserve(v.size() * 4);
  for (const auto& s : v) {
    k.append(reinterpret_cast<const char*>(&s.left), sizeof s.left);
    k.append(reinterpret_cast<const char*>(&s.right), sizeof s.right);
  }
  return k;
}

Unit simulate_unit(const Options& opt, const Setup& s, Report& rep, Tracer* tracer) {
  Unit u;
  model::RunResult beh, rtl_level;
  u.beh_s = part(u, tracer, "core", "run_level.beh_opt", [&] {
    beh = model::run_level(model::RefinementLevel::kBehOpt, kMode, s.fig8_events);
  });
  u.rtl_level_s = part(u, tracer, "core", "run_level.rtl_opt", [&] {
    rtl_level = model::run_level(model::RefinementLevel::kRtlOpt, kMode, s.fig8_events);
  });
  u.beh_cyc = beh.simulated_cycles;
  u.rtl_level_cyc = rtl_level.simulated_cycles;
  rep.check(beh.outputs == rtl_level.outputs, "fig8: behavioural and RTL outputs differ");
  for (const auto& [lvl, r] : {std::pair{"beh", &beh}, std::pair{"rtl", &rtl_level}}) {
    const std::string p = std::string("kernel.") + lvl;
    rep.counter(p + ".activations", r->stats.process_activations);
    rep.counter(p + ".context_switches", r->stats.context_switches);
    rep.counter(p + ".delta_cycles", r->stats.delta_cycles);
    rep.counter(p + ".method_invocations", r->stats.method_invocations);
    rep.counter(p + ".signal_updates", r->stats.signal_updates);
    rep.counter(p + ".simulated_cycles", r->simulated_cycles);
  }
  rep.counter("simulate.fig8.output_hash", outputs_hash(rtl_level.outputs));
  const std::string& reference = s.fig9_reference;

  // Fig. 9, interpreted RTL DUT: native testbench VM, then co-simulation.
  {
    hdlsim::RtlDut native_dut(*s.rtl_design), cosim_dut(*s.rtl_design);
    hdlsim::VmRunResult vm;
    cosim::CosimResult cs;
    u.fig9_rtl_s += part(u, tracer, "rtl", "run_testbench_vm.rtl",
                         [&] { vm = hdlsim::run_testbench_vm(native_dut, s.program); });
    u.fig9_rtl_s += cosim_part(u, tracer, "rtl", cosim_dut, s.events, cs);
    u.fig9_rtl_cyc = vm.cycles + cs.cycles;
    rep.check(outputs_key(vm.outputs) == reference,
              "fig9 rtl: native output differs from the RTL level");
    rep.check(outputs_key(cs.outputs) == reference, "fig9 rtl: cosim output differs from native");
    rep.counter("rtl.interp.cycles", vm.cycles);
    rep.counter("rtl.interp.evals", vm.dut_counters.evaluations);
    rep.counter("hdlsim.tb_vm.rtl.instructions", vm.instructions_executed);
    rep.counter("cosim.rtl.syncs", cs.syncs);
  }

  // Fig. 9 gate netlists: interpreted GateSim, then the compiled engine.
  const char* names[] = {"beh_opt", "rtl_opt"};
  for (const auto backend : {hdlsim::Backend::kInterpreted, hdlsim::Backend::kCompiled}) {
    const bool compiled = backend == hdlsim::Backend::kCompiled;
    const char* layer = compiled ? "hdlsim.compiled" : "hdlsim.gate";
    for (std::size_t g = 0; g < s.gates.size(); ++g) {
      const std::string tag = std::string(compiled ? "compiled." : "gate.") + names[g];
      auto native_dut = gate_dut(s.gates[g], backend);
      auto cosim_dut = gate_dut(s.gates[g], backend);
      hdlsim::VmRunResult vm;
      cosim::CosimResult cs;
      const double native_s =
          part(u, tracer, layer, "run_testbench_vm." + tag,
               [&] { vm = hdlsim::run_testbench_vm(*native_dut, s.program); });
      const double cosim_s = cosim_part(u, tracer, tag, *cosim_dut, s.events, cs);
      rep.check(outputs_key(vm.outputs) == reference,
                tag + ": native output differs from the RTL level");
      rep.check(outputs_key(cs.outputs) == outputs_key(vm.outputs),
                tag + ": cosim output differs from native");
      rep.check(cs.dut_counters.evaluations == vm.dut_counters.evaluations,
                tag + ": cosim evals differ from native");
      rep.check(vm.dut_counters.steady_state_allocs == 0 &&
                    cs.dut_counters.steady_state_allocs == 0,
                tag + ": steady-state allocations");
      rep.counter("hdlsim." + tag + ".evals", vm.dut_counters.evaluations);
      rep.counter("hdlsim." + tag + ".dirty_pushes", vm.dut_counters.dirty_pushes);
      rep.counter("hdlsim." + tag + ".work_units", native_dut->work_units());
      rep.counter("hdlsim." + tag + ".ss_allocs", vm.dut_counters.steady_state_allocs);
      rep.counter("hdlsim.tb_vm." + tag + ".instructions", vm.instructions_executed);
      rep.counter("cosim." + tag + ".syncs", cs.syncs);
      if (compiled) {
        u.compiled_s += native_s + cosim_s;
        u.compiled_cyc += vm.cycles + cs.cycles;
      } else {
        u.gate_s += native_s + cosim_s;
        u.gate_native_s += native_s;
        u.gate_cosim_s += cosim_s;
        u.gate_cyc += vm.cycles + cs.cycles;
      }
    }
  }

  // Batch sweep: seeded schedules on the RTL-flow netlist across lanes.
  u.batch_s = part(u, tracer, "hdlsim.batch", "run_src_netlist_batch", [&] {
    u.batch = hdlsim::run_src_netlist_batch(s.gates[1], kMode, s.batch, {}, opt.lanes);
  });
  std::uint64_t evals = 0;
  obs::Fnv1a batch_hash;
  for (const auto& r : u.batch) {
    u.batch_cyc += r.cycles;
    evals += r.counters.evaluations;
    batch_hash.update_u64(outputs_hash(r.outputs));
    rep.check(!r.timed_out, "batch job timed out");
  }
  rep.counter("hdlsim.batch.output_hash", batch_hash.digest());
  rep.counter("hdlsim.batch.cycles", u.batch_cyc);
  rep.counter("hdlsim.batch.evals", evals);
  return u;
}

void batch_checks(const Options& opt, const Setup& s, const Unit& u, Report& rep) {
  // Every batch job against the RTL refinement level on its schedule,
  // and the whole batch against a 1-lane run (lane invariance).
  const auto one = hdlsim::run_src_netlist_batch(s.gates[1], kMode, s.batch, {}, 1);
  rep.check(one.size() == u.batch.size(), "batch size differs at 1 lane");
  for (std::size_t j = 0; j < s.batch.size() && j < one.size() && j < u.batch.size(); ++j) {
    const auto golden = model::run_level(model::RefinementLevel::kRtlOpt, kMode, s.batch[j]);
    rep.check(outputs_key(u.batch[j].outputs) == outputs_key(golden.outputs),
              "batch job " + std::to_string(j) + " differs from the RTL level");
    rep.check(outputs_key(one[j].outputs) == outputs_key(u.batch[j].outputs) &&
                  one[j].counters.evaluations == u.batch[j].counters.evaluations,
              "batch job " + std::to_string(j) + " differs between 1 lane and " +
                  std::to_string(opt.lanes));
  }
}

double rate(double work, double secs) { return secs > 0.0 ? work / secs : 0.0; }

}  // namespace

void run_simulate(const Options& opt, Report& rep) {
  std::optional<Setup> setup;
  repeat_timed(5, rep.setup_s, [&] { setup.emplace(make_setup(opt)); });
  add_reference(*setup);
  std::vector<double> beh, rtl_lvl, fig9_rtl, gate, compiled, batch;
  std::optional<Unit> last;
  const double t_end = now_s() + opt.seconds;
  do {
    last.emplace(simulate_unit(opt, *setup, rep, nullptr));
    const Unit& u = *last;
    rep.unit_s.push_back(u.total_s());
    rep.unit_cpu_s.push_back(u.cpu);
    beh.push_back(rate(static_cast<double>(u.beh_cyc), u.beh_s));
    rtl_lvl.push_back(rate(static_cast<double>(u.rtl_level_cyc), u.rtl_level_s));
    fig9_rtl.push_back(rate(static_cast<double>(u.fig9_rtl_cyc), u.fig9_rtl_s));
    gate.push_back(rate(static_cast<double>(u.gate_cyc), u.gate_s));
    compiled.push_back(rate(static_cast<double>(u.compiled_cyc) * hdlsim::CompiledSim::kLanes,
                            u.compiled_s));
    batch.push_back(rate(static_cast<double>(u.batch_cyc), u.batch_s));
  } while (now_s() < t_end);
  repeat_timed(4, rep.setup_s, [&] { (void)make_setup(opt); });
  batch_checks(opt, *setup, *last, rep);
  rep.named["fig8_beh_cyc_per_s"] = {median(beh), "cyc/s"};
  rep.named["fig8_rtl_cyc_per_s"] = {median(rtl_lvl), "cyc/s"};
  rep.named["fig9_rtl_cyc_per_s"] = {median(fig9_rtl), "cyc/s"};
  rep.named["fig9_gate_cyc_per_s"] = {median(gate), "cyc/s"};
  rep.named["fig9_compiled_patt_cyc_per_s"] = {median(compiled), "pattcyc/s"};
  rep.named["batch_cyc_per_s"] = {median(batch), "cyc/s"};
}

void trace_simulate(const Options& opt, Tracer& tracer, Report& rep) {
  Setup setup = make_setup(opt);
  add_reference(setup);
  const Unit plain = simulate_unit(opt, setup, rep, nullptr);
  tracer.set_workload("simulate");
  const double w0 = now_s();
  const Unit u = simulate_unit(opt, setup, rep, &tracer);

  // The batch once more on a BatchRunner of our own, for its job stats.
  std::vector<hdlsim::GateRunResult> results(setup.batch.size());
  hdlsim::BatchRunner runner(opt.lanes);
  const double wall = timed(&tracer, "hdlsim.batch", "BatchRunner::run", [&] {
    runner.run(setup.batch.size(), [&](std::size_t job, unsigned) {
      results[job] = hdlsim::run_src_netlist(setup.gates[1], kMode, setup.batch[job]);
    });
  });
  rep.set_layer("trace.simulate.traced_s", now_s() - w0, "s");
  std::vector<double> job_s;
  double busy = 0.0;
  for (const auto& st : runner.job_stats()) {
    job_s.push_back(1e-9 * static_cast<double>(st.end_ns - st.start_ns));
    busy += job_s.back();
  }
  for (std::size_t j = 0; j < results.size(); ++j)
    rep.check(outputs_key(results[j].outputs) == outputs_key(u.batch[j].outputs),
              "BatchRunner job " + std::to_string(j) + " differs from run_src_netlist_batch");

  const auto C = [&](const std::string& name) {
    return static_cast<double>(rep.counters[name]);
  };
  // Sum of the counters named <prefix>*<suffix>.
  const auto sum = [&](const std::string& prefix, const std::string& suffix) {
    double total = 0.0;
    for (const auto& [k, v] : rep.counters)
      if (k.size() >= prefix.size() + suffix.size() && k.rfind(prefix, 0) == 0 &&
          k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0)
        total += static_cast<double>(v);
    return total;
  };
  rep.set_layer("core.beh.busy_s", u.beh_s, "s");
  rep.set_layer("core.rtl.busy_s", u.rtl_level_s, "s");
  for (const std::string lvl : {"kernel.beh", "kernel.rtl"})
    for (const char* c : {".activations", ".context_switches", ".delta_cycles",
                          ".method_invocations", ".signal_updates"})
      rep.set_layer(lvl + c, C(lvl + c), "count");
  rep.set_layer("hdlsim.gate.busy_s", tracer.busy_s("simulate", "hdlsim.gate"), "s");
  rep.set_layer("hdlsim.gate.evals", sum("hdlsim.gate.", ".evals"), "count");
  rep.set_layer("hdlsim.gate.dirty_pushes", sum("hdlsim.gate.", ".dirty_pushes"), "count");
  rep.set_layer("hdlsim.gate.ss_allocs", sum("hdlsim.gate.", ".ss_allocs"), "count");
  rep.set_layer("hdlsim.compiled.busy_s", tracer.busy_s("simulate", "hdlsim.compiled"), "s");
  rep.set_layer("hdlsim.compiled.ops", sum("hdlsim.compiled.", ".work_units"), "count");
  rep.set_layer("hdlsim.compiled.compile_s", setup.compile_s, "s");
  rep.set_layer("hdlsim.tb_vm.instructions", sum("hdlsim.tb_vm.", ".instructions"), "count");
  rep.set_layer("hdlsim.batch.busy_s", tracer.busy_s("simulate", "hdlsim.batch"), "s");
  rep.set_layer("hdlsim.batch.job_s.p50", percentile(job_s, 0.5), "s");
  rep.set_layer("hdlsim.batch.job_s.p99", percentile(job_s, 0.99), "s");
  rep.set_layer("hdlsim.batch.lane_idle_s", static_cast<double>(runner.lanes()) * wall - busy, "s");
  rep.set_layer("cosim.busy_s", tracer.busy_s("simulate", "cosim"), "s");
  rep.set_layer("cosim.syncs", sum("cosim.", ".syncs"), "count");
  rep.set_layer("cosim.vs_native", u.gate_cosim_s / u.gate_native_s, "ratio");
  rep.set_layer("rtl.interp.busy_s", tracer.busy_s("simulate", "rtl"), "s");
  rep.set_layer("rtl.interp.cycles", C("rtl.interp.cycles"), "count");
  const double traced_gate = rate(static_cast<double>(u.gate_cyc), u.gate_s);
  const double plain_gate = rate(static_cast<double>(plain.gate_cyc), plain.gate_s);
  rep.set_layer("trace.fig9_gate.traced_cyc_per_s", traced_gate, "cyc/s");
  rep.set_layer("trace.fig9_gate.untraced_cyc_per_s", plain_gate, "cyc/s");
  rep.set_layer("trace.overhead.fig9_gate_cyc_per_s", traced_gate - plain_gate, "cyc/s");
}

}  // namespace flowbench
