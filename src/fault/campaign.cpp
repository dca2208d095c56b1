#include "fault/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <random>

#include "fault/ppsfp.hpp"
#include "hdlsim/batch_runner.hpp"
#include "hdlsim/compiled_sim.hpp"
#include "hdlsim/gate_sim.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace scflow::fault {

namespace {

using hdlsim::GateSim;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The whole campaign stimulus, materialised once: per cycle, one value
/// per input port (indexed like Netlist::inputs()).  Outputs are observed
/// after every cycle.  Pure function of (ports, options) — the source of
/// the campaign's thread-count determinism.
struct Program {
  std::vector<std::vector<std::uint64_t>> cycles;  // [cycle][input port]
  bool scan_used = false;
};

Program build_program(const nl::Netlist& n, const CampaignOptions& opt) {
  Program prog;
  const auto& ins = n.inputs();
  std::int32_t scan_in = -1, scan_en = -1;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    if (ins[i].name == "scan_in") scan_in = static_cast<std::int32_t>(i);
    if (ins[i].name == "scan_enable") scan_en = static_cast<std::int32_t>(i);
  }
  std::size_t chain_len = 0;
  for (const nl::Cell& c : n.cells())
    if (c.type == nl::CellType::kSdff) ++chain_len;
  prog.scan_used = opt.use_scan && scan_in >= 0 && scan_en >= 0 && chain_len > 0 &&
                   n.find_output("scan_out") != nullptr;

  std::mt19937_64 rng(opt.seed);
  const auto random_inputs = [&] {
    std::vector<std::uint64_t> v(ins.size());
    for (std::size_t i = 0; i < ins.size(); ++i) v[i] = rng();
    if (scan_in >= 0) v[static_cast<std::size_t>(scan_in)] = 0;
    if (scan_en >= 0) v[static_cast<std::size_t>(scan_en)] = 0;
    return v;
  };

  if (prog.scan_used) {
    for (int p = 0; p < opt.scan_patterns; ++p) {
      // Shift a random state through the whole chain.  Primary inputs are
      // held at one random value for the pattern; scan_out streams the
      // previous state and is observed on every shift cycle.
      const std::vector<std::uint64_t> held = random_inputs();
      for (std::size_t s = 0; s < chain_len; ++s) {
        std::vector<std::uint64_t> v = held;
        v[static_cast<std::size_t>(scan_en)] = 1;
        v[static_cast<std::size_t>(scan_in)] = rng() & 1u;
        prog.cycles.push_back(std::move(v));
      }
      for (int c = 0; c < opt.capture_cycles; ++c) prog.cycles.push_back(random_inputs());
    }
  }
  for (int c = 0; c < opt.functional_cycles; ++c) prog.cycles.push_back(random_inputs());
  return prog;
}

struct Observer {
  std::vector<GateSim::PortRef> in_refs;   // per input port
  std::vector<GateSim::PortRef> out_refs;  // per output port
};

/// Port handles resolve against the shared netlist (GateSim PortRefs point
/// into Netlist::inputs()/outputs()), so one Observer serves every
/// simulator over the same netlist — good machine and all faulty machines.
Observer make_observer(const nl::Netlist& n) {
  Observer o;
  for (const nl::PortBits& p : n.inputs()) o.in_refs.push_back(&p);
  for (const nl::PortBits& p : n.outputs()) o.out_refs.push_back(&p);
  return o;
}

void apply_cycle(GateSim& sim, const Observer& o, const std::vector<std::uint64_t>& in) {
  for (std::size_t i = 0; i < o.in_refs.size(); ++i) sim.set_input(o.in_refs[i], in[i]);
  sim.step();
}

/// Runs the good machine over the whole program and collects one
/// PortSample per (cycle, output port).
std::vector<GateSim::PortSample> reference_run(GateSim& sim, const Observer& o,
                                               const Program& prog) {
  std::vector<GateSim::PortSample> reference(prog.cycles.size() * o.out_refs.size());
  const std::size_t n_ports = o.out_refs.size();
  for (std::size_t c = 0; c < prog.cycles.size(); ++c) {
    apply_cycle(sim, o, prog.cycles[c]);
    for (std::size_t p = 0; p < n_ports; ++p)
      reference[c * n_ports + p] = sim.output_sample(o.out_refs[p]);
  }
  return reference;
}

/// Fingerprint of the options that change WHAT the campaign computes.
/// Scheduling/engine knobs (threads, wall budgets, the PPSFP
/// faulty-machine engine) are deliberately excluded: results are
/// bit-identical across them, so a thread-sweep's (or an engine-sweep's)
/// ledgers must fingerprint identically.
std::uint64_t campaign_fingerprint(const CampaignOptions& o) {
  obs::Fnv1a h;
  h.update_str("fault-campaign-options-v1");
  h.update_u64(o.seed);
  h.update_u64(static_cast<std::uint64_t>(o.scan_patterns));
  h.update_u64(static_cast<std::uint64_t>(o.capture_cycles));
  h.update_u64(static_cast<std::uint64_t>(o.functional_cycles));
  h.update_u64(o.max_faults);
  h.update_u64(o.cycle_budget);
  h.update_u64(o.x_initial_flops ? 1 : 0);
  h.update_u64(static_cast<std::uint64_t>(o.oscillation_threshold));
  h.update_u64(o.use_scan ? 1 : 0);
  return h.digest();
}

}  // namespace

std::vector<std::vector<std::uint64_t>> build_campaign_stimulus(
    const nl::Netlist& n, const CampaignOptions& options, bool* scan_used) {
  Program prog = build_program(n, options);
  if (scan_used != nullptr) *scan_used = prog.scan_used;
  return std::move(prog.cycles);
}

void CampaignResult::record_into(obs::Registry& reg, std::string_view prefix) const {
  const std::string p(prefix);
  reg.set_counter(p + ".sites", list.sites);
  reg.set_counter(p + ".raw", list.raw);
  reg.set_counter(p + ".collapsed", list.collapsed);
  reg.set_counter(p + ".population", population);
  reg.set_counter(p + ".simulated", faults.size());
  reg.set_counter(p + ".detected", detected);
  reg.set_counter(p + ".undetected", undetected);
  reg.set_counter(p + ".undetected_budget", undetected_budget);
  reg.set_counter(p + ".oscillating", oscillating);
  reg.set_counter(p + ".stimulus_cycles", stimulus_cycles);
  reg.set_counter(p + ".faulty_cycles", faulty_cycles_total);
  reg.set_counter(p + ".observe_points", observe_ports.size());
  reg.set_counter(p + ".scan_used", scan_used ? 1 : 0);
  reg.set_counter(p + ".ppsfp_dropped", ppsfp_dropped);
  reg.set_counter(p + ".ppsfp_fallback_faults", ppsfp_fallback);
  reg.set_counter(p + ".ppsfp_batch_cycles", ppsfp_batch_cycles);
  reg.set_gauge(p + ".coverage_pct", coverage_pct());
}

CampaignResult run_campaign(const nl::Netlist& n, const CampaignOptions& options,
                            obs::Session* session) {
  FaultListStats stats;
  std::vector<Fault> faults = enumerate_stuck_faults(n, &stats);
  const std::size_t population = faults.size();
  faults = sample_faults(faults, options.max_faults);
  CampaignResult r = run_campaign(n, faults, options, session);
  r.list = stats;
  r.population = population;
  // The inner overload recorded with the sampled list standing in for the
  // population; overwrite those counters with the real enumeration figures.
  if (session != nullptr) {
    const std::string prefix =
        options.metric_prefix.empty() ? "fault." + n.name() : options.metric_prefix;
    r.record_into(session->registry, prefix);
  }
  return r;
}

CampaignResult run_campaign(const nl::Netlist& n, const std::vector<Fault>& faults,
                            const CampaignOptions& options, obs::Session* session) {
  const std::string prefix =
      options.metric_prefix.empty() ? "fault." + n.name() : options.metric_prefix;
  std::optional<obs::Registry::ScopedTimer> campaign_timer;
  if (session != nullptr) campaign_timer.emplace(session->registry.time_scope(prefix));
  const std::uint64_t t0_steady = steady_now_ns();
  // Root span of the campaign's fan-out: reserved up front so every batch
  // job span can parent-link to it, added (with its real extent) below.
  const std::uint64_t root_span =
      session != nullptr ? session->spans.reserve_id() : 0;
  const std::uint64_t trace_t0 = session != nullptr ? session->trace.now_ns() : 0;

  CampaignResult result;
  result.design = n.name();
  result.population = faults.size();

  const Program prog = build_program(n, options);
  const Observer obs_points = make_observer(n);
  result.scan_used = prog.scan_used;
  result.stimulus_cycles = prog.cycles.size();
  for (const nl::PortBits& p : n.outputs()) result.observe_ports.push_back(p.name);
  const std::size_t n_ports = obs_points.out_refs.size();

  GateSim::Options sim_opt;
  sim_opt.x_initial_flops = options.x_initial_flops;

  // An empty fault list has nothing to compare against a good machine:
  // it keeps only the program-derived fields above and skips the compile,
  // the reference run and the PPSFP screen.
  const bool simulate = !faults.empty();

  // One compile serves the PPSFP screen and every PPSFP batch.  A netlist
  // the compiler rejects (combinational cycle) simply keeps the whole
  // fault list on the event-driven path.
  const bool use_ppsfp = options.engine == CampaignOptions::Engine::kPpsfp;
  std::optional<hdlsim::CompiledProgram> cprog;
  if (simulate && use_ppsfp) {
    try {
      cprog.emplace(hdlsim::compile_netlist(n));
    } catch (const std::exception&) {
    }
  }

  // Reference responses of the good machine, observed after every cycle.
  std::vector<GateSim::PortSample> reference;
  if (simulate) {
    GateSim good(n, sim_opt);
    reference = reference_run(good, obs_points, prog);
  }

  // One faulty machine per fault, fanned over the batch lanes.  Each job
  // writes only its own slot; with the wall budgets off every slot is a
  // pure function of (netlist, fault, program), so the result vector is
  // bit-identical for any lane count.
  result.faults.assign(faults.size(), {});
  const std::uint64_t campaign_deadline =
      options.campaign_wall_budget_ns == 0 ? 0
                                           : steady_now_ns() + options.campaign_wall_budget_ns;
  const std::uint64_t cycle_budget =
      options.cycle_budget == 0 ? prog.cycles.size() : options.cycle_budget;

  // The event-driven faulty machine: one whole GateSim per fault — the
  // kEventDriven engine, and the per-fault fallback of kPpsfp.
  const auto event_driven_fault = [&](std::size_t fi,
                                      const hdlsim::BatchRunner::JobContext& ctx) {
    FaultResult& fr = result.faults[fi];
    fr.fault = faults[fi];
    // Campaign watchdog: once the whole campaign is over budget, remaining
    // faults degrade to a budget classification without simulating.
    if (campaign_deadline != 0 && steady_now_ns() > campaign_deadline) {
      fr.klass = FaultClass::kUndetectedBudget;
      return;
    }
    GateSim sim(n, sim_opt);
    sim.inject_stuck(fr.fault.net, fr.fault.stuck_one ? Logic::L1 : Logic::L0);
    int soft_cycles = 0;
    bool budget_hit = false;
    std::size_t c = 0;
    for (; c < prog.cycles.size(); ++c) {
      if (c >= cycle_budget) {
        budget_hit = true;
        break;
      }
      if ((c & 31u) == 0 && c != 0 &&
          (ctx.expired() ||
           (campaign_deadline != 0 && steady_now_ns() > campaign_deadline))) {
        budget_hit = true;
        break;
      }
      apply_cycle(sim, obs_points, prog.cycles[c]);
      for (std::size_t p = 0; p < n_ports; ++p) {
        const GateSim::PortSample got = sim.output_sample(obs_points.out_refs[p]);
        const GateSim::PortSample& ref = reference[c * n_ports + p];
        if ((ref.known & got.known & (ref.value ^ got.value)) != 0) {
          fr.klass = FaultClass::kDetected;
          fr.detect_cycle = c;
          fr.detect_port = static_cast<std::uint32_t>(p);
          fr.cycles = c + 1;
          return;
        }
        if ((ref.known & ~got.known) != 0) ++soft_cycles;
      }
    }
    fr.cycles = c;
    if (budget_hit)
      fr.klass = FaultClass::kUndetectedBudget;
    else if (soft_cycles >= options.oscillation_threshold)
      fr.klass = FaultClass::kOscillating;
    else
      fr.klass = FaultClass::kUndetected;
  };

  hdlsim::BatchRunner runner(options.threads);
  runner.set_job_budget_ns(options.fault_wall_budget_ns);
  PpsfpPlan plan;
  if (!use_ppsfp) {
    runner.run(faults.size(), [&](std::size_t job, unsigned /*lane*/,
                                  const hdlsim::BatchRunner::JobContext& ctx) {
      event_driven_fault(job, ctx);
    });
  } else {
    if (cprog.has_value()) {
      plan = ppsfp_plan(n, *cprog, prog.cycles, reference, options.x_initial_flops,
                        faults);
    } else if (simulate) {
      plan.reason = "combinational cycle";
      plan.fallback.resize(faults.size());
      for (std::size_t i = 0; i < faults.size(); ++i) plan.fallback[i] = i;
    }
    // Jobs: the bit-parallel batches first (64 faults each), then one job
    // per fallback fault — all on one runner, each job writing only its
    // own faults' slots, so the thread-count bit-identity carries over.
    constexpr std::size_t kB = hdlsim::CompiledSim::kLanes;
    const std::size_t n_batches = (plan.parallel.size() + kB - 1) / kB;
    runner.run(n_batches + plan.fallback.size(),
               [&](std::size_t job, unsigned /*lane*/,
                   const hdlsim::BatchRunner::JobContext& ctx) {
                 if (job >= n_batches) {
                   event_driven_fault(plan.fallback[job - n_batches], ctx);
                   return;
                 }
                 const std::size_t begin = job * kB;
                 const std::size_t count = std::min(kB, plan.parallel.size() - begin);
                 // Same watchdog degradation as the per-fault path, at
                 // batch granularity.
                 if (campaign_deadline != 0 && steady_now_ns() > campaign_deadline) {
                   for (std::size_t i = 0; i < count; ++i) {
                     FaultResult& fr = result.faults[plan.parallel[begin + i]];
                     fr.fault = faults[plan.parallel[begin + i]];
                     fr.klass = FaultClass::kUndetectedBudget;
                   }
                   return;
                 }
                 run_ppsfp_batch(
                     n, *cprog, prog.cycles, reference, faults,
                     plan.parallel.data() + begin, count, cycle_budget,
                     [&] {
                       return ctx.expired() ||
                              (campaign_deadline != 0 &&
                               steady_now_ns() > campaign_deadline);
                     },
                     result.faults);
               });
    result.ppsfp_fallback = plan.fallback.size();
    for (const std::size_t fi : plan.parallel)
      if (result.faults[fi].klass == FaultClass::kDetected) ++result.ppsfp_dropped;
    // A batch runs until its last lane drops (or the program ends), so its
    // length is the longest of its faults' simulated cycles.
    for (std::size_t begin = 0; begin < plan.parallel.size(); begin += kB) {
      std::uint64_t batch_cycles = 0;
      for (std::size_t i = begin; i < std::min(begin + kB, plan.parallel.size()); ++i)
        batch_cycles = std::max(batch_cycles, result.faults[plan.parallel[i]].cycles);
      result.ppsfp_batch_cycles += batch_cycles;
    }
  }

  for (const FaultResult& fr : result.faults) {
    result.faulty_cycles_total += fr.cycles;
    switch (fr.klass) {
      case FaultClass::kDetected: ++result.detected; break;
      case FaultClass::kUndetected: ++result.undetected; break;
      case FaultClass::kUndetectedBudget: ++result.undetected_budget; break;
      case FaultClass::kOscillating: ++result.oscillating; break;
    }
  }

  // Per-fault simulated-cycle distribution — deterministic (fr.cycles is a
  // pure function of the fault and program when wall budgets are off), so
  // it lands in the ledger as a gating histogram, not a timing one.
  obs::Histogram fault_cycles;
  for (const FaultResult& fr : result.faults) fault_cycles.record(fr.cycles);

  if (session != nullptr) {
    result.record_into(session->registry, prefix);
    session->registry.merge_histogram(prefix + ".fault_cycles", fault_cycles);
    if (use_ppsfp) {
      // Which stimulus cycle dropped each bit-parallel fault — the
      // fault-dropping evidence.  Registry-only (like the ppsfp_* counters
      // record_into adds): the ledger entry below stays engine-invariant,
      // so cross-engine `scflow_report diff` is clean modulo timing.
      obs::Histogram dropped_at;
      for (const std::size_t fi : plan.parallel)
        if (result.faults[fi].klass == FaultClass::kDetected)
          dropped_at.record(result.faults[fi].detect_cycle);
      session->registry.merge_histogram(prefix + ".ppsfp_dropped_at", dropped_at);
    }
    session->spans.add({root_span, 0, prefix, "fault", trace_t0,
                        session->trace.now_ns(), 0});
    runner.record_into(*session, prefix + ".batch", root_span);

    obs::LedgerEntry entry;
    entry.phase = "fault";
    entry.design = prefix.rfind("fault.", 0) == 0 ? prefix.substr(6) : prefix;
    entry.input_hash = nl::content_hash(n);
    entry.options_fingerprint = campaign_fingerprint(options);
    entry.duration_ns = steady_now_ns() - t0_steady;
    entry.add_counter("population", result.population);
    entry.add_counter("simulated", result.faults.size());
    entry.add_counter("detected", result.detected);
    entry.add_counter("undetected", result.undetected);
    entry.add_counter("undetected_budget", result.undetected_budget);
    entry.add_counter("oscillating", result.oscillating);
    entry.add_counter("stimulus_cycles", result.stimulus_cycles);
    entry.add_counter("faulty_cycles", result.faulty_cycles_total);
    entry.add_counter("observe_points", result.observe_ports.size());
    entry.add_counter("scan_used", result.scan_used ? 1 : 0);
    entry.add_gauge("coverage_pct", result.coverage_pct());
    entry.add_histogram("fault_cycles", fault_cycles);
    session->ledger.append(std::move(entry));
  }
  return result;
}

}  // namespace scflow::fault
