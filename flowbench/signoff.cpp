// signoff: one designer turnaround through the whole paper flow — the
// refinement ladder with its bit-accuracy revalidation, then Fig. 10
// synthesis of all five designs with every netlist refinement step CEC'd
// and the full collapsed stuck-at fault list simulated on the scan
// endpoint and on its pre-scan twin (PPSFP engine).
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "fault/campaign.hpp"
#include "fault/ppsfp.hpp"
#include "flow/refinement_flow.hpp"
#include "flow/synthesis_flow.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hls/src_beh.hpp"
#include "obs/registry.hpp"
#include "rtl/src_design.hpp"

namespace flowbench {

using namespace scflow;

namespace {

constexpr dsp::SrcMode kMode = dsp::SrcMode::k44_1To48;
constexpr std::size_t kLadderSamples = 800;  // as examples/refinement_flow

// The Fig. 10 designs in figure10_area_rows order.
struct Design {
  const char* slug;
  bool behavioural;
  rtl::Design design;
};

constexpr std::size_t kDesigns = 5;

Design build_design(std::size_t i) {
  switch (i) {
    case 0: return {"vhdl_ref", false, rtl::build_src_design(rtl::vhdl_ref_config())};
    case 1: return {"beh_unopt", true, hls::build_beh_src_design(hls::beh_unopt_config())};
    case 2: return {"beh_opt", true, hls::build_beh_src_design(hls::beh_opt_config())};
    case 3: return {"rtl_unopt", false, rtl::build_src_design(rtl::rtl_unopt_config())};
    default: return {"rtl_opt", false, rtl::build_src_design(rtl::rtl_opt_config())};
  }
}

std::vector<Design> build_designs() {
  std::vector<Design> d;
  for (std::size_t i = 0; i < kDesigns; ++i) d.push_back(build_design(i));
  return d;
}

// The signoff campaigns keep the library's default stimulus seed: their
// coverage, and with it the simulated work, is bimodal in that seed (see
// flowbench/METRICS.md), so a seeded stimulus would make signoff_s a
// function of the seed rather than of the code.
fault::CampaignOptions campaign_options(const Options& opt) {
  fault::CampaignOptions co;
  co.max_faults = 0;  // the full collapsed list
  co.engine = fault::CampaignOptions::Engine::kPpsfp;
  co.threads = opt.lanes;
  return co;
}

void ladder_checks(const flow::RefinementReport& refine, Report& rep) {
  rep.check(refine.all_steps_verified(), "refinement chain not verified");
  std::uint64_t verified = 0;
  for (const auto& s : refine.steps) {
    const bool quantisation = s.to == "C++ (quantised time)";
    if (!quantisation)
      rep.check(s.bit_accurate, "step not bit-accurate: " + s.from + " -> " + s.to);
    if (s.bit_accurate) ++verified;
    rep.counter("flow.step." + s.to + ".mismatches", s.mismatches);
  }
  rep.counter("flow.steps_verified", verified);
  for (const auto& [name, r] : refine.level_results) {
    const std::string p = "kernel.ladder." + name;
    rep.counter(p + ".activations", r.stats.process_activations);
    rep.counter(p + ".delta_cycles", r.stats.delta_cycles);
    rep.counter(p + ".simulated_cycles", r.simulated_cycles);
    rep.counter(p + ".outputs", r.outputs.size());
  }
}

// Checks and work counters of one figure10_area_rows run, read back from
// the registry the flow recorded into.
void fig10_checks(const std::vector<flow::AreaRow>& rows, const obs::Registry& reg,
                  const std::vector<Design>& designs, Report& rep) {
  rep.check(rows.size() == designs.size(), "figure10_area_rows returned a wrong row count");
  for (std::size_t i = 0; i < rows.size() && i < designs.size(); ++i) {
    const flow::AreaRow& r = rows[i];
    const std::string d = designs[i].slug;
    const std::string f = "fig10." + d;
    rep.check(r.scan_coverage_pct >= r.noscan_coverage_pct,
              d + ": scan coverage below no-scan coverage");
    rep.check(r.faults_simulated == r.fault_population,
              d + ": fault list was not simulated whole");
    for (const char* step : {".cec.opt", ".cec.scan"}) {
      rep.check(reg.gauge(f + step + ".equivalent") == 1.0, d + step + " not equivalent");
      for (const char* c : {".sat_calls", ".sat_conflicts", ".aig_nodes", ".compare_bits",
                            ".bits_structural"})
        rep.counter(f + step + c, reg.counter(f + step + c));
    }
    rep.counter(f + ".cells", reg.counter(f + ".cells"));
    rep.counter(f + ".opt.rewrites", reg.counter(f + ".opt.rewrites"));
    rep.counter(f + ".total_milli_pct",
                static_cast<std::uint64_t>(std::llround(r.total_pct * 1000.0)));
    for (const char* v : {".scan", ".noscan"}) {
      const std::string p = "fault." + d + v;
      for (const char* c : {".population", ".detected", ".undetected", ".oscillating",
                            ".faulty_cycles", ".ppsfp_dropped", ".ppsfp_fallback_faults"})
        rep.counter(p + c, reg.counter(p + c));
    }
  }
}

struct UnitResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

UnitResult signoff_unit(const Options& opt, const std::vector<Design>& designs,
                        Report& rep) {
  UnitResult u;
  const double w0 = now_s();
  const double c0 = cpu_s();
  const flow::RefinementReport refine = flow::run_refinement_flow(kMode, kLadderSamples);
  obs::Registry reg;
  flow::SynthesisOptions so;
  so.verify_cec = true;
  flow::FaultOptions fo;
  fo.run = true;
  fo.campaign = campaign_options(opt);
  std::vector<flow::AreaRow> rows;
  try {
    rows = flow::figure10_area_rows(&reg, so, fo);
  } catch (const std::exception& e) {
    rep.check(false, std::string("figure10_area_rows threw: ") + e.what());
  }
  u.wall_s = now_s() - w0;
  u.cpu_s = cpu_s() - c0;
  ladder_checks(refine, rep);
  fig10_checks(rows, reg, designs, rep);
  return u;
}

// The faults' good-machine responses, as run_campaign computes them:
// one PortSample per (cycle, output port) from the interpreted engine.
std::vector<hdlsim::GateSim::PortSample> reference_run(
    const nl::Netlist& n, const std::vector<std::vector<std::uint64_t>>& stimulus) {
  hdlsim::GateSim sim(n, {});
  std::vector<hdlsim::GateSim::PortRef> in, out;
  for (const nl::PortBits& p : n.inputs()) in.push_back(&p);
  for (const nl::PortBits& p : n.outputs()) out.push_back(&p);
  std::vector<hdlsim::GateSim::PortSample> ref;
  ref.reserve(stimulus.size() * out.size());
  for (const auto& cycle : stimulus) {
    for (std::size_t i = 0; i < in.size(); ++i) sim.set_input(in[i], cycle[i]);
    sim.step();
    for (const auto* p : out) ref.push_back(sim.output_sample(p));
  }
  return ref;
}

// Cross-lane determinism of the campaign engine on a sampled list: the
// result vectors must be bit-identical at 1 lane and at opt.lanes.
void lane_invariance_check(const Options& opt, const std::vector<Design>& designs,
                           Report& rep) {
  const nl::Netlist gates = flow::synthesize_to_gates(designs.back().design);
  fault::CampaignOptions co = campaign_options(opt);
  co.max_faults = 256;
  co.seed = derive_seed(opt.seed, 1);
  const fault::CampaignResult many = fault::run_campaign(gates, co);
  co.threads = 1;
  const fault::CampaignResult one = fault::run_campaign(gates, co);
  rep.check(many.faults == one.faults && many.detected == one.detected,
            "campaign results differ between 1 lane and " + std::to_string(opt.lanes));
}

}  // namespace

void run_signoff(const Options& opt, Report& rep) {
  std::vector<Design> designs;
  repeat_timed(11, rep.setup_s, [&] { designs = build_designs(); });
  const double t_end = now_s() + opt.seconds;
  do {
    const UnitResult u = signoff_unit(opt, designs, rep);
    rep.unit_s.push_back(u.wall_s);
    rep.unit_cpu_s.push_back(u.cpu_s);
  } while (now_s() < t_end);
  repeat_timed(10, rep.setup_s, [] { (void)build_designs(); });
  lane_invariance_check(opt, designs, rep);
  rep.named["signoff_s"] = {median(rep.unit_s), "s"};
}

void trace_signoff(const Options& opt, Tracer& tracer, Report& rep) {
  const std::vector<Design> designs = build_designs();
  // Untraced reference unit: the tracing overhead is measured against it
  // and its counters must equal the traced unit's.
  const UnitResult plain = signoff_unit(opt, designs, rep);

  tracer.set_workload("signoff");
  const double w0 = now_s();
  flow::RefinementReport refine;
  {
    Tracer::Scope s(&tracer, "flow", "run_refinement_flow");
    refine = flow::run_refinement_flow(kMode, kLadderSamples);
  }
  ladder_checks(refine, rep);

  flow::SynthesisOptions so;
  so.verify_cec = true;
  const fault::CampaignOptions base = campaign_options(opt);
  std::uint64_t population = 0, dropped = 0, fallback = 0, faulty_cycles = 0;
  std::uint64_t cells = 0, rewrites = 0, sat_calls = 0, sat_conflicts = 0, aig_nodes = 0;
  std::uint64_t compare_bits = 0, structural = 0;
  double ppsfp_s = 0.0, fallback_s = 0.0;
  std::uint64_t simulated = 0;
  for (std::size_t i = 0; i < kDesigns; ++i) {
    // figure10_area_rows builds each design itself, so the traced pass
    // does too, timed as the hls (behavioural) or rtl layer.
    std::optional<Design> built;
    {
      Tracer::Scope s(&tracer, designs[i].behavioural ? "hls" : "rtl", "build");
      built.emplace(build_design(i));
    }
    const Design& d = *built;
    const std::string f = std::string("fig10.") + d.slug;
    obs::Registry reg;
    nl::GateOptStats gstats;
    nl::Netlist pre_scan("");
    std::optional<nl::Netlist> gates;
    {
      Tracer::Scope s(&tracer, "netlist", "synthesize_to_gates");
      try {
        gates.emplace(flow::synthesize_to_gates(d.design, &gstats, &reg, f, so, &pre_scan));
      } catch (const std::exception& e) {
        rep.check(false, f + " synthesis/CEC threw: " + e.what());
      }
      const auto child = [&](const char* layer, const std::string& path) {
        if (const auto* t = reg.timer(path); t != nullptr)
          tracer.add_child(s.index(), layer, path, 1e-9 * static_cast<double>(t->total_ns));
      };
      child("rtl", f + "/word_passes");
      child("netlist.lower", f + "/lower");
      child("netlist.opt", f + "/gate_opt");
      child("netlist.scan", f + "/scan_insertion");
      child("formal", f + ".cec.opt");
      child("formal", f + ".cec.scan");
    }
    if (!gates) continue;
    cells += reg.counter(f + ".cells");
    rewrites += gstats.rewrites;
    for (const char* step : {".cec.opt", ".cec.scan"}) {
      rep.check(reg.gauge(f + step + ".equivalent") == 1.0, f + step + " not equivalent");
      sat_calls += reg.counter(f + step + ".sat_calls");
      sat_conflicts += reg.counter(f + step + ".sat_conflicts");
      aig_nodes += reg.counter(f + step + ".aig_nodes");
      compare_bits += reg.counter(f + step + ".compare_bits");
      structural += reg.counter(f + step + ".bits_structural");
    }
    {
      Tracer::Scope s(&tracer, "netlist", "report_area");
      (void)nl::report_area(*gates);
    }
    std::vector<fault::Fault> list;
    {
      Tracer::Scope s(&tracer, "fault", "enumerate_stuck_faults");
      list = fault::enumerate_stuck_faults(pre_scan);
    }
    population += 2 * list.size();
    double d_ppsfp = 0.0, d_fallback = 0.0;
    std::uint64_t d_fallback_n = 0, detected[2] = {0, 0};
    for (const bool scan : {true, false}) {
      const nl::Netlist& net = scan ? *gates : pre_scan;
      fault::CampaignOptions co = base;
      co.use_scan = scan;
      fault::PpsfpPlan plan;
      {
        Tracer::Scope s(&tracer, "fault", "ppsfp_plan");
        std::optional<hdlsim::CompiledProgram> prog;
        {
          Tracer::Scope c(&tracer, "hdlsim", "compile_netlist");
          prog.emplace(hdlsim::compile_netlist(net));
        }
        const auto stimulus = fault::build_campaign_stimulus(net, co);
        std::vector<hdlsim::GateSim::PortSample> ref;
        {
          Tracer::Scope g(&tracer, "hdlsim", "good_machine");
          ref = reference_run(net, stimulus);
        }
        plan = fault::ppsfp_plan(net, *prog, stimulus, ref, co.x_initial_flops, list);
      }
      std::vector<fault::Fault> par, fb;
      for (const std::size_t i : plan.parallel) par.push_back(list[i]);
      for (const std::size_t i : plan.fallback) fb.push_back(list[i]);
      fault::CampaignResult rp, rf;
      d_ppsfp += timed(&tracer, "fault", "campaign.ppsfp",
                       [&] { rp = fault::run_campaign(net, par, co); });
      d_fallback += timed(&tracer, "fault", "campaign.fallback",
                          [&] { rf = fault::run_campaign(net, fb, co); });
      rep.check(rf.ppsfp_fallback == fb.size() && rp.ppsfp_fallback == 0,
                f + ": ppsfp_plan split disagrees with the campaign engine");
      const std::string p = std::string("fault.") + d.slug + (scan ? ".scan" : ".noscan");
      detected[scan ? 0 : 1] = rp.detected + rf.detected;
      rep.counter(p + ".detected", rp.detected + rf.detected);
      rep.counter(p + ".faulty_cycles", rp.faulty_cycles_total + rf.faulty_cycles_total);
      rep.counter(p + ".ppsfp_dropped", rp.ppsfp_dropped);
      rep.counter(p + ".ppsfp_fallback_faults", rf.ppsfp_fallback);
      dropped += rp.ppsfp_dropped;
      fallback += rf.ppsfp_fallback;
      d_fallback_n += rf.ppsfp_fallback;
      faulty_cycles += rp.faulty_cycles_total + rf.faulty_cycles_total;
      simulated += par.size() + fb.size();
    }
    rep.check(detected[0] >= detected[1], f + ": scan coverage below no-scan coverage");
    ppsfp_s += d_ppsfp;
    fallback_s += d_fallback;
    const std::string pd = std::string("fault.") + d.slug;
    rep.set_layer(pd + ".ppsfp_fallback", static_cast<double>(d_fallback_n), "count");
    rep.set_layer(pd + ".fallback_time_share", d_fallback / (d_ppsfp + d_fallback), "ratio");
  }
  const double traced_s = now_s() - w0;

  rep.set_layer("flow.refine_s", tracer.busy_s("signoff", "flow"), "s");
  rep.set_layer("flow.steps_verified", static_cast<double>(rep.counters["flow.steps_verified"]),
                "count");
  rep.set_layer("hls.build_s", tracer.busy_s("signoff", "hls"), "s");
  rep.set_layer("netlist.lower_s", tracer.busy_s("signoff", "netlist.lower"), "s");
  rep.set_layer("netlist.opt_s", tracer.busy_s("signoff", "netlist.opt"), "s");
  rep.set_layer("netlist.scan_s", tracer.busy_s("signoff", "netlist.scan"), "s");
  rep.set_layer("netlist.cells", static_cast<double>(cells), "count");
  rep.set_layer("netlist.opt_rewrites", static_cast<double>(rewrites), "count");
  rep.set_layer("formal.cec_s", tracer.busy_s("signoff", "formal"), "s");
  rep.set_layer("formal.sat_calls", static_cast<double>(sat_calls), "count");
  rep.set_layer("formal.sat_conflicts", static_cast<double>(sat_conflicts), "count");
  rep.set_layer("formal.aig_nodes", static_cast<double>(aig_nodes), "count");
  rep.set_layer("formal.structural_share",
    compare_bits == 0 ? 0.0 : static_cast<double>(structural) / static_cast<double>(compare_bits),
    "ratio");
  rep.set_layer("fault.campaign_s", ppsfp_s + fallback_s, "s");
  rep.set_layer("fault.faults_per_s", static_cast<double>(simulated) / (ppsfp_s + fallback_s),
                "1/s");
  rep.set_layer("fault.population", static_cast<double>(population), "count");
  rep.set_layer("fault.ppsfp_dropped", static_cast<double>(dropped), "count");
  rep.set_layer("fault.ppsfp_fallback", static_cast<double>(fallback), "count");
  rep.set_layer("fault.faulty_cycles", static_cast<double>(faulty_cycles), "count");
  rep.set_layer("fault.fallback_time_share", fallback_s / (ppsfp_s + fallback_s), "ratio");
  rep.set_layer("trace.signoff.traced_s", traced_s, "s");
  rep.set_layer("trace.signoff.untraced_s", plain.wall_s, "s");
  rep.set_layer("trace.overhead.signoff_s", traced_s - plain.wall_s, "s");
}

}  // namespace flowbench
