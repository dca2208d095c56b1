// Fault-injection walkthrough: what scan insertion buys in testability,
// measured instead of asserted.
//
// The default run takes the optimised RTL SRC design through synthesis,
// keeps the pre-scan twin, enumerates the collapsed stuck-at fault list
// (valid on both variants — scan insertion preserves net ids), and runs
// the same sampled campaign against both netlists.  It then injects SEUs
// (transient flop bit-flips) into the scan endpoint and reports how many
// upsets reach an output vs. get masked, dumping the first divergence as
// a VCD trace.
//
// `--check` instead runs the campaign pair over all five Fig. 10 designs
// with the FULL collapsed fault list per design (no sampling — the PPSFP
// bit-parallel engine with fault dropping is what makes that interactive)
// and exits non-zero unless every design's scan coverage strictly exceeds
// its no-scan coverage, every population was simulated whole and no
// fault left the bit-parallel path (ppsfp_fallback_faults is 0 in all
// ten campaigns) — the acceptance gate scripts/check.sh runs.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "fault/campaign.hpp"
#include "fault/seu.hpp"
#include "flow/synthesis_flow.hpp"
#include "obs/registry.hpp"
#include "rtl/src_design.hpp"

namespace {

// Registry slugs of the Fig. 10 designs.
constexpr const char* kSlugs[] = {"vhdl_ref", "beh_unopt", "beh_opt", "rtl_unopt",
                                  "rtl_opt"};

int run_check() {
  scflow::flow::FaultOptions fopt;
  fopt.run = true;
  fopt.campaign.max_faults = 0;  // the full collapsed list, every design
  fopt.campaign.engine = scflow::fault::CampaignOptions::Engine::kPpsfp;
  scflow::obs::Registry reg;
  const auto rows = scflow::flow::figure10_area_rows(&reg, {}, fopt);
  std::printf("%s", scflow::flow::format_fault_table(rows).c_str());
  bool ok = true;
  for (const char* slug : kSlugs) {
    for (const char* variant : {"scan", "noscan"}) {
      const std::string key =
          std::string("fault.") + slug + "." + variant + ".ppsfp_fallback_faults";
      if (!reg.has_counter(key)) {
        std::printf("FAIL: %s missing\n", key.c_str());
        ok = false;
      } else if (reg.counter(key) != 0) {
        std::printf("FAIL: %s = %llu (every fault must ride the bit-parallel path)\n",
                    key.c_str(), static_cast<unsigned long long>(reg.counter(key)));
        ok = false;
      }
    }
  }
  for (const auto& r : rows) {
    if (r.scan_coverage_pct <= r.noscan_coverage_pct) {
      std::printf("FAIL: %s scan coverage %.1f%% does not exceed no-scan %.1f%%\n",
                  r.name.c_str(), r.scan_coverage_pct, r.noscan_coverage_pct);
      ok = false;
    }
    if (r.faults_simulated != r.fault_population) {
      std::printf("FAIL: %s simulated %zu of %zu collapsed faults (expected the "
                  "full list)\n",
                  r.name.c_str(), r.faults_simulated, r.fault_population);
      ok = false;
    }
  }
  std::printf("\nfull fault lists, no event-driven fallback, scan strictly improves "
              "coverage on all %zu designs: %s\n",
              rows.size(), ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scflow;
  bool check = false;
  std::string out_dir = "build/out";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--check] [--out-dir DIR]\n", argv[0]);
      return 2;
    }
  }
  if (check) return run_check();

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create --out-dir %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  std::printf("=== Stuck-at campaign: scan vs. pre-scan twin (RTL opt.) ===\n\n");

  // Synthesise once, keeping the optimised netlist from just before scan
  // insertion: the fault universe is shared between the two variants.
  nl::Netlist pre_scan("");
  const nl::Netlist gates = flow::synthesize_to_gates(
      rtl::build_src_design(rtl::rtl_opt_config()), nullptr, nullptr, "synth", {}, &pre_scan);

  fault::FaultListStats stats;
  std::vector<fault::Fault> faults = fault::enumerate_stuck_faults(pre_scan, &stats);
  std::printf("fault universe: %zu sites, %zu raw stuck-at faults, %zu after FFR collapse "
              "(%zu dropped as equivalent)\n",
              stats.sites, stats.raw, stats.raw - stats.collapsed, stats.collapsed);

  fault::CampaignOptions opt;
  opt.max_faults = 0;  // full population; ~9k gates x a few hundred cycles
  faults = fault::sample_faults(faults, 160);
  std::printf("campaign: %zu sampled faults, seed 0x%llx\n\n", faults.size(),
              static_cast<unsigned long long>(opt.seed));

  const fault::CampaignResult scan_on = fault::run_campaign(gates, faults, opt);
  fault::CampaignOptions no_scan_opt = opt;
  no_scan_opt.use_scan = false;
  const fault::CampaignResult scan_off = fault::run_campaign(pre_scan, faults, no_scan_opt);

  const auto show = [](const char* label, const fault::CampaignResult& r) {
    std::printf("%-22s %zu cycles of stimulus (scan %s), coverage %5.1f%%\n", label,
                r.stimulus_cycles, r.scan_used ? "driven" : "absent", r.coverage_pct());
    std::printf("%-22s detected %zu, undetected %zu, budget %zu, oscillating %zu\n", "",
                r.detected, r.undetected, r.undetected_budget, r.oscillating);
  };
  show("scan endpoint:", scan_on);
  show("pre-scan twin:", scan_off);
  std::printf("testability delta: %+.1f%% coverage from scan insertion\n\n",
              scan_on.coverage_pct() - scan_off.coverage_pct());

  // A few concrete detections, named through the netlist.
  std::printf("sample detections on the scan endpoint:\n");
  int shown = 0;
  for (const fault::FaultResult& fr : scan_on.faults) {
    if (fr.klass != fault::FaultClass::kDetected || shown >= 3) continue;
    std::printf("  %-44s -> cycle %zu, port '%s'\n",
                fault::describe_fault(gates, fr.fault).c_str(), fr.detect_cycle,
                scan_on.observe_ports[fr.detect_port].c_str());
    ++shown;
  }

  std::printf("\n=== SEU campaign: transient flop upsets ===\n\n");
  fault::SeuOptions seu_opt;
  seu_opt.vcd_path = out_dir + "/seu_divergence.vcd";
  const fault::SeuResult seu = fault::run_seu_campaign(gates, seu_opt);
  std::printf("%zu upsets injected: %zu reached an output, %zu recovered silently, "
              "%zu fully masked\n",
              seu.injected, seu.diverged, seu.recovered, seu.silent);
  if (!seu.vcd_written.empty())
    std::printf("first divergence traced to %s (good vs faulty waves): %s\n",
                seu.first_divergent_net.c_str(), seu_opt.vcd_path.c_str());

  const bool ok = scan_on.coverage_pct() > scan_off.coverage_pct() && seu.injected > 0;
  std::printf("\nscan coverage exceeds no-scan: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
