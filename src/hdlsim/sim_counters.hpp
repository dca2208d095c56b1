// Simulator observability counters, reported by the Fig. 8/9 benches so
// BENCH_*.json captures the perf trajectory of the interpreted engines.
// One struct serves the gate-level simulator, the RTL interpreter wrapper
// and the cosim bridge; engines leave fields they do not track at zero.
#pragma once

#include <cstdint>
#include <string_view>

namespace scflow::obs {
class Registry;
}

namespace scflow::hdlsim {

struct SimCounters {
  /// Unit (gate / macro-port / RTL-node) evaluations performed.
  std::uint64_t evaluations = 0;
  /// Dirty-queue insertions (event-driven engines only).
  std::uint64_t dirty_pushes = 0;
  /// settle() invocations (one per clock edge plus explicit calls).
  std::uint64_t settle_calls = 0;
  /// settle() calls that found queued work.
  std::uint64_t settle_passes = 0;
  /// Macro read-port re-evaluations forced by RAM writes.
  std::uint64_t ram_rereads = 0;
  /// High-water mark of units queued dirty at once.  Sampled after each
  /// external mark batch (set_input, flop commit, RAM re-reads) and each
  /// time settle() enters a new topological level, when the queue holds
  /// exactly the marks for the levels still ahead.
  std::uint64_t peak_queue_depth = 0;
  /// Heap allocations performed by step()/settle() after construction.
  /// The table-driven engine keeps this at zero in steady state.
  std::uint64_t steady_state_allocs = 0;

  friend bool operator==(const SimCounters&, const SimCounters&) = default;

  /// THE accessor that maps these fields into the unified metric registry
  /// ("<prefix>.evaluations", ...).  Every consumer (run_src_netlist
  /// results, the testbench VM, the cosim bridge, the benches) goes
  /// through this one function, so adding a field here cannot silently
  /// desync any of them.
  void record_into(scflow::obs::Registry& reg, std::string_view prefix) const;
};

}  // namespace scflow::hdlsim
