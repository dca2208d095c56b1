// Concurrent stuck-at fault-simulation campaigns: one good-machine
// reference run on the event-driven GateSim, then one independently
// simulated faulty machine per fault (or 64 per PPSFP batch), fanned
// across a hdlsim::BatchRunner (dynamic ticket claiming, per-fault wall
// budgets) and compared at every observe point (primary outputs every
// cycle, scan_out during shifts).
//
// Determinism: the stimulus program is a pure function of (netlist ports,
// options.seed); every fault writes only its own result slot; aggregates
// are derived from the slots.  With the wall budgets off, a campaign's
// CampaignResult is bit-identical for any thread count.  Wall budgets
// (per-fault and the campaign watchdog) trade that determinism for
// guaranteed termination: expired faults are classified
// FaultClass::kUndetectedBudget instead of stalling the run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace scflow::obs {
class Registry;
struct Session;
}  // namespace scflow::obs

namespace scflow::fault {

struct CampaignOptions {
  std::uint64_t seed = 0xfa0175eedc0deull;
  /// Scan load/capture rounds (scan-ported netlists only): each pattern
  /// shifts a random state through the whole chain (observing scan_out on
  /// every shift cycle), then captures with random primary inputs.
  int scan_patterns = 2;
  int capture_cycles = 2;
  /// Trailing functional phase (all netlists): random primary inputs each
  /// cycle, primary outputs observed each cycle.
  int functional_cycles = 48;
  /// Cap on simulated faults (deterministic even stride over the collapsed
  /// list; 0 = simulate all).  Never silent: CampaignResult keeps both the
  /// population and the simulated count.
  std::size_t max_faults = 0;
  /// Per-fault simulated-cycle budget (0 = the full stimulus program).
  std::uint64_t cycle_budget = 0;
  /// Per-fault wall budget in ns (0 = off).  Enforced cooperatively via
  /// the BatchRunner job deadline; expired faults classify as
  /// kUndetectedBudget.  Nondeterministic by nature — leave off when
  /// comparing campaign results bit-for-bit.
  std::uint64_t fault_wall_budget_ns = 0;
  /// Campaign watchdog in ns (0 = off): once the whole campaign exceeds
  /// this wall budget, remaining faults are classified kUndetectedBudget
  /// without being simulated, so a pathological design degrades to a
  /// partial report instead of a hang.
  std::uint64_t campaign_wall_budget_ns = 0;
  /// BatchRunner lane count (1 = sequential, 0 = one per hardware thread).
  unsigned threads = 1;
  /// Power up flops to X (gate-level style).  Scan patterns still fully
  /// initialise the state, which is exactly what scan buys; without scan
  /// an uninitialisable faulty machine shows up as kOscillating.
  bool x_initial_flops = false;
  /// Observe cycles with soft divergence (good 0/1, faulty X) needed to
  /// classify a never-hard-detected fault as kOscillating.
  int oscillation_threshold = 4;
  /// Drive scan ports when the netlist has them (off: treat as functional
  /// inputs tied low — the scan-stripped baseline).
  bool use_scan = true;
  /// Metric prefix for record_into / session recording; empty = use
  /// "fault.<netlist name>".
  std::string metric_prefix;
  /// Faulty-machine engine.  kPpsfp batches up to 64 faults per two-state
  /// compiled bit-parallel run (one stuck-at overlay lane each, dropped at
  /// first detection), RAM/ROM bus faults included.  Programs the screen
  /// can't prove exact — X/oscillation-sensitive programs,
  /// x_initial_flops, cyclic netlists — fall back whole to the
  /// event-driven overlay, so classifications are bit-identical with
  /// kEventDriven either way (the differential harness in
  /// tests/test_ppsfp.cpp holds this).
  enum class Engine { kEventDriven, kPpsfp };
  Engine engine = Engine::kEventDriven;
};

/// The campaign stimulus program, materialised the same way run_campaign
/// builds it: one value per input port (indexed like Netlist::inputs())
/// per cycle, scan shifts first when used.  Exposed so differential tests
/// can drive an arbitrary engine with the exact campaign stimulus.
std::vector<std::vector<std::uint64_t>> build_campaign_stimulus(
    const nl::Netlist& n, const CampaignOptions& options, bool* scan_used = nullptr);

struct FaultResult {
  Fault fault;
  FaultClass klass = FaultClass::kUndetected;
  std::uint64_t detect_cycle = 0;  ///< observe cycle of the first hard diff
  std::uint32_t detect_port = 0;   ///< index into CampaignResult::observe_ports
  std::uint64_t cycles = 0;        ///< faulty cycles actually simulated

  friend bool operator==(const FaultResult& a, const FaultResult& b) {
    return a.fault == b.fault && a.klass == b.klass && a.detect_cycle == b.detect_cycle &&
           a.detect_port == b.detect_port && a.cycles == b.cycles;
  }
};

struct CampaignResult {
  std::string design;
  FaultListStats list;            ///< enumeration bookkeeping
  std::size_t population = 0;     ///< collapsed fault-list size
  bool scan_used = false;
  std::uint64_t stimulus_cycles = 0;  ///< program length (= good-run cycles)
  std::vector<std::string> observe_ports;
  std::vector<FaultResult> faults;  ///< simulated faults, list order

  std::size_t detected = 0;
  std::size_t undetected = 0;
  std::size_t undetected_budget = 0;
  std::size_t oscillating = 0;
  std::uint64_t faulty_cycles_total = 0;
  /// PPSFP engine accounting (0 under kEventDriven): faults detected —
  /// and therefore dropped — on the bit-parallel path, and faults that
  /// fell back to the event-driven overlay.
  std::size_t ppsfp_dropped = 0;
  std::size_t ppsfp_fallback = 0;
  /// Cycles the PPSFP batches simulated, summed over batches (each runs
  /// until its last lane drops).  Lane utilisation of the bit-parallel
  /// path is its faults' cycles / (64 x ppsfp_batch_cycles).
  std::uint64_t ppsfp_batch_cycles = 0;

  [[nodiscard]] std::size_t simulated() const { return faults.size(); }
  /// Stuck-at coverage over the simulated faults, in percent.
  [[nodiscard]] double coverage_pct() const {
    return faults.empty() ? 0.0 : 100.0 * static_cast<double>(detected) /
                                      static_cast<double>(faults.size());
  }

  /// Records counters ("<prefix>.detected", ...) and the coverage gauge
  /// ("<prefix>.coverage_pct") into the unified registry.
  void record_into(scflow::obs::Registry& reg, std::string_view prefix) const;
};

/// Enumerates (collapsed, optionally sampled per options.max_faults) and
/// simulates the stuck-at faults of @p n.  With @p session, records
/// metrics and the per-fault batch timeline under the metric prefix.
CampaignResult run_campaign(const nl::Netlist& n, const CampaignOptions& options = {},
                            scflow::obs::Session* session = nullptr);

/// Same, over a caller-supplied fault list (already collapsed/sampled) —
/// the flow uses this to compare scan vs no-scan variants of one design
/// over the identical fault universe.  An empty list only fills the
/// program-derived fields (scan_used, stimulus_cycles, observe_ports):
/// no compile, good-machine run or PPSFP screen.
CampaignResult run_campaign(const nl::Netlist& n, const std::vector<Fault>& faults,
                            const CampaignOptions& options = {},
                            scflow::obs::Session* session = nullptr);

}  // namespace scflow::fault
