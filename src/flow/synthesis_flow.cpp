#include "flow/synthesis_flow.hpp"

#include <chrono>
#include <iomanip>
#include <optional>
#include <sstream>

#include "formal/cec.hpp"
#include "hls/src_beh.hpp"
#include "netlist/lower.hpp"
#include "obs/ledger.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "rtl/passes.hpp"
#include "rtl/src_design.hpp"

namespace scflow::flow {

namespace obs = scflow::obs;

nl::Netlist synthesize_to_gates(const rtl::Design& design, nl::GateOptStats* gate_stats,
                                obs::Registry* reg, std::string_view prefix,
                                const SynthesisOptions& options,
                                nl::Netlist* pre_scan_out) {
  const std::string p(prefix);
  const auto t0 = std::chrono::steady_clock::now();
  // Input identity for the run ledger: the freshly lowered (pre-opt)
  // netlist is a deterministic function of the design, so its content
  // hash keys the whole pipeline without an rtl::Design serializer.
  std::uint64_t lowered_hash = 0;
  // Snapshots of each refinement step's input, kept only when the formal
  // gate is on or the caller wants the scan-stripped twin (netlists copy
  // cheaply: three vectors of PODs + port names).
  std::optional<nl::Netlist> pre_opt, pre_scan;
  const bool keep_pre_scan = options.verify_cec || pre_scan_out != nullptr;

  nl::GateOptStats local_stats;
  nl::GateOptStats* stats = gate_stats != nullptr ? gate_stats : &local_stats;
  std::size_t scan_flops = 0;
  nl::Netlist gates = [&] {
    // One optional outer scope so the per-pass timers nest as
    // "<prefix>/word_passes", "<prefix>/lower", ...  (The CEC gates run
    // outside it so their timers land flat at "<prefix>.cec.*".)
    std::optional<obs::Registry::ScopedTimer> whole;
    if (reg != nullptr) whole.emplace(reg->time_scope(p));
    const auto timed = [reg](const char* step) {
      return reg == nullptr ? std::optional<obs::Registry::ScopedTimer>()
                            : std::optional<obs::Registry::ScopedTimer>(
                                  reg->time_scope(step));
    };

    rtl::Design optimised = [&] {  // constant fold + CSE + DCE for every design
      const auto t = timed("word_passes");
      return rtl::run_passes(design);
    }();
    nl::Netlist g = [&] {
      const auto t = timed("lower");
      return nl::lower_to_gates(optimised);
    }();
    lowered_hash = nl::content_hash(g);
    if (options.verify_cec) pre_opt = g;
    g = [&] {
      const auto t = timed("gate_opt");
      return nl::optimize_gates(g, stats);
    }();
    if (keep_pre_scan) pre_scan = g;
    scan_flops = [&] {
      const auto t = timed("scan_insertion");
      return nl::insert_scan_chain(g);
    }();
    g.validate();
    return g;
  }();

  if (reg != nullptr) {
    stats->record_into(*reg, p + ".opt");
    reg->set_counter(p + ".scan_flops", scan_flops);
    reg->set_counter(p + ".cells", gates.cells().size());
    if (obs::Ledger* ledger = reg->ledger(); ledger != nullptr) {
      obs::Fnv1a opt_h;
      opt_h.update_str("synthesis-options-v1");
      opt_h.update_u64(options.verify_cec ? 1 : 0);
      obs::LedgerEntry entry;
      entry.phase = "synth";
      entry.design = p;
      entry.input_hash = lowered_hash;
      entry.options_fingerprint = opt_h.digest();
      entry.duration_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      entry.add_counter("cells_before", stats->cells_before);
      entry.add_counter("cells_after", stats->cells_after);
      entry.add_counter("rewrites", stats->rewrites);
      entry.add_counter("iterations", static_cast<std::uint64_t>(stats->iterations));
      entry.add_counter("scan_flops", scan_flops);
      entry.add_counter("cells", gates.cells().size());
      entry.add_counter("output_hash", nl::content_hash(gates));
      ledger->append(std::move(entry));
    }
  }

  if (options.verify_cec) {
    // Formal gate on each refinement step: throws EquivalenceError (with
    // the counterexample dumped as VCD) if a pass changed behaviour.
    const std::string fail_vcd = p + ".cec_fail.vcd";
    formal::CecOptions opt_check;
    opt_check.metric_prefix = p + ".cec.opt";
    formal::assert_equivalent(*pre_opt, *pre_scan, reg, opt_check, fail_vcd);
    formal::CecOptions scan_check = formal::CecOptions::scan_modulo();
    scan_check.metric_prefix = p + ".cec.scan";
    formal::assert_equivalent(*pre_scan, gates, reg, scan_check, fail_vcd);
  }
  if (pre_scan_out != nullptr) *pre_scan_out = std::move(*pre_scan);
  return gates;
}

std::vector<AreaRow> figure10_area_rows(obs::Registry* reg,
                                        const SynthesisOptions& options,
                                        const FaultOptions& fault_options) {
  struct Entry {
    std::string label;
    std::string slug;  // registry-friendly name
    rtl::Design design;
    std::optional<hls::Schedule> schedule;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"VHDL-Ref", "vhdl_ref", rtl::build_src_design(rtl::vhdl_ref_config()), {}});
  hls::Schedule beh_u_sched, beh_o_sched;
  entries.push_back({"BEH unopt.", "beh_unopt",
                     hls::build_beh_src_design(hls::beh_unopt_config(), &beh_u_sched),
                     beh_u_sched});
  entries.push_back({"BEH opt.", "beh_opt",
                     hls::build_beh_src_design(hls::beh_opt_config(), &beh_o_sched),
                     beh_o_sched});
  entries.push_back(
      {"RTL unopt.", "rtl_unopt", rtl::build_src_design(rtl::rtl_unopt_config()), {}});
  entries.push_back(
      {"RTL opt.", "rtl_opt", rtl::build_src_design(rtl::rtl_opt_config()), {}});

  std::vector<AreaRow> rows;
  for (auto& e : entries) {
    AreaRow row;
    row.name = e.label;
    const std::string p = "fig10." + e.slug;
    nl::Netlist pre_scan("");
    const nl::Netlist gates =
        synthesize_to_gates(e.design, nullptr, reg, p, options,
                            fault_options.run ? &pre_scan : nullptr);
    row.area = nl::report_area(gates);
    row.flops = row.area.flop_count;
    if (reg != nullptr) {
      reg->set_gauge(p + ".comb_um2", row.area.combinational);
      reg->set_gauge(p + ".seq_um2", row.area.sequential);
      reg->set_counter(p + ".flops", row.flops);
      if (e.schedule) e.schedule->record_into(*reg, p + ".hls");
    }
    if (fault_options.run) {
      // One fault universe per design, enumerated on the pre-scan netlist
      // (scan insertion preserves net ids, so the same list is valid on
      // both variants) — the scan/no-scan coverage delta is then an
      // apples-to-apples testability measurement.
      fault::FaultListStats stats;
      std::vector<fault::Fault> list = fault::enumerate_stuck_faults(pre_scan, &stats);
      const std::size_t population = list.size();
      list = fault::sample_faults(list, fault_options.campaign.max_faults);

      fault::CampaignOptions co = fault_options.campaign;
      const auto fault_t0 = std::chrono::steady_clock::now();
      co.use_scan = true;
      co.metric_prefix = "fault." + e.slug + ".scan";
      fault::CampaignResult with_scan =
          fault::run_campaign(gates, list, co, fault_options.session);
      co.use_scan = false;
      co.metric_prefix = "fault." + e.slug + ".noscan";
      fault::CampaignResult no_scan =
          fault::run_campaign(pre_scan, list, co, fault_options.session);
      row.fault_wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - fault_t0)
              .count());
      for (fault::CampaignResult* r : {&with_scan, &no_scan}) {
        r->list = stats;
        r->population = population;
      }
      row.scan_coverage_pct = with_scan.coverage_pct();
      row.noscan_coverage_pct = no_scan.coverage_pct();
      row.fault_population = population;
      row.faults_simulated = list.size();
      if (reg != nullptr) {
        with_scan.record_into(*reg, "fault." + e.slug + ".scan");
        no_scan.record_into(*reg, "fault." + e.slug + ".noscan");
      }
    }
    rows.push_back(std::move(row));
  }
  const double ref_total = rows.front().area.total();
  for (AreaRow& r : rows) {
    r.combinational_pct = 100.0 * r.area.combinational / ref_total;
    r.sequential_pct = 100.0 * r.area.sequential / ref_total;
    r.total_pct = 100.0 * r.area.total() / ref_total;
  }
  if (reg != nullptr) {
    for (std::size_t i = 0; i < rows.size(); ++i)
      reg->set_gauge("fig10." + entries[i].slug + ".total_pct", rows[i].total_pct);
  }
  return rows;
}

std::string format_area_table(const std::vector<AreaRow>& rows) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "Figure 10: area relative to the VHDL reference (= 100 %)\n";
  os << "(memories excluded, scan chain included)\n\n";
  os << std::left << std::setw(12) << "design" << std::right << std::setw(12)
     << "comb [um^2]" << std::setw(12) << "seq [um^2]" << std::setw(8) << "flops"
     << std::setw(10) << "comb %" << std::setw(9) << "seq %" << std::setw(10)
     << "total %" << "\n";
  for (const AreaRow& r : rows) {
    os << std::left << std::setw(12) << r.name << std::right << std::setw(12)
       << r.area.combinational << std::setw(12) << r.area.sequential << std::setw(8)
       << r.flops << std::setw(10) << r.combinational_pct << std::setw(9)
       << r.sequential_pct << std::setw(10) << r.total_pct << "\n";
  }
  return os.str();
}

std::string format_fault_table(const std::vector<AreaRow>& rows) {
  bool any = false;
  for (const AreaRow& r : rows) any = any || r.scan_coverage_pct >= 0.0;
  if (!any) return "";
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "Stuck-at coverage: scan-inserted endpoint vs pre-scan twin\n";
  os << "(shared collapsed fault list per design; sampled when capped)\n\n";
  os << std::left << std::setw(12) << "design" << std::right << std::setw(12)
     << "population" << std::setw(11) << "simulated" << std::setw(10) << "scan %"
     << std::setw(11) << "noscan %" << std::setw(10) << "delta" << "\n";
  for (const AreaRow& r : rows) {
    if (r.scan_coverage_pct < 0.0) continue;
    os << std::left << std::setw(12) << r.name << std::right << std::setw(12)
       << r.fault_population << std::setw(11) << r.faults_simulated << std::setw(10)
       << r.scan_coverage_pct << std::setw(11) << r.noscan_coverage_pct
       << std::setw(10) << r.scan_coverage_pct - r.noscan_coverage_pct << "\n";
  }
  return os.str();
}

}  // namespace scflow::flow
