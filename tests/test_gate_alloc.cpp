// Verifies the gate simulator's allocation-free steady state: once
// constructed and warmed up, set_input()/step()/output() must perform
// ZERO heap allocations — the persistent flop buffer, the dirty bitmaps
// and the preallocated scratch lists absorb every cycle.  A counting
// replacement of the global allocation functions enforces this directly,
// complementing the engine's own steady_state_allocs counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "hdlsim/gate_sim.hpp"
#include "netlist/lower.hpp"
#include "netlist/opt.hpp"
#include "rtl/passes.hpp"
#include "rtl/src_design.hpp"

// AddressSanitizer interposes the allocator itself; replacing the global
// allocation functions underneath it breaks its bookkeeping, so the
// counting hooks (and the test) are compiled out under ASan.
#if defined(__SANITIZE_ADDRESS__)
#define SCFLOW_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCFLOW_ASAN 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

#if !defined(SCFLOW_ASAN)
// Replaceable global allocation functions ([new.delete.single]); every
// vector growth or string build in the process bumps the counter.
// Once these inline into callers (the TSan build does), GCC pairs the
// replaced operator new with free() and reports -Wmismatched-new-delete;
// both sides are malloc/free here, so the warning is silenced for them.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace scflow::hdlsim {
namespace {

void run_alloc_check(const GateSim::Options& opts) {
  const rtl::Design optimised = rtl::run_passes(rtl::build_src_design(rtl::rtl_opt_config()));
  nl::Netlist gates = nl::lower_to_gates(optimised);
  gates = nl::optimize_gates(gates);
  nl::insert_scan_chain(gates);

  GateSim sim(gates, opts);
  // Resolve every port handle up front — name lookups build no strings
  // afterwards — and drive all inputs so no X lingers on control paths.
  const auto p_mode = sim.input_port("mode");
  const auto p_strobe = sim.input_port("in_strobe");
  const auto p_left = sim.input_port("in_left");
  const auto p_right = sim.input_port("in_right");
  const auto p_req = sim.input_port("out_req");
  const auto p_scan_in = sim.input_port("scan_in");
  const auto p_scan_en = sim.input_port("scan_enable");
  const auto p_valid = sim.output_port("out_valid");
  const auto p_out_l = sim.output_port("out_left");

  sim.set_input(p_mode, 0);
  sim.set_input(p_scan_in, 0);
  sim.set_input(p_scan_en, 0);
  sim.set_input(p_strobe, 0);
  sim.set_input(p_left, 0);
  sim.set_input(p_right, 0);
  sim.set_input(p_req, 0);

  // Warm-up: exercise flop commits, RAM writes and output reads so every
  // lazily-sized structure reaches its steady footprint.
  for (int i = 0; i < 300; ++i) {
    sim.set_input(p_strobe, i % 50 == 0 ? 1 : 0);
    sim.set_input(p_left, static_cast<std::uint64_t>(i * 37) & 0xffff);
    sim.set_input(p_right, static_cast<std::uint64_t>(i * 91) & 0xffff);
    sim.set_input(p_req, i % 46 == 0 ? 1 : 0);
    sim.step();
  }

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  std::uint64_t sink = 0;
  for (int i = 0; i < 500; ++i) {
    sim.set_input(p_strobe, i % 50 == 0 ? 1 : 0);
    sim.set_input(p_left, static_cast<std::uint64_t>(i * 131) & 0xffff);
    sim.set_input(p_right, static_cast<std::uint64_t>(i * 17) & 0xffff);
    sim.set_input(p_req, i % 46 == 3 ? 1 : 0);
    sim.step();
    sink += sim.output(p_valid);
    if (sim.output(p_valid) != 0) sink += sim.output(p_out_l);
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "hot path allocated on the heap";
  EXPECT_EQ(sim.counters().steady_state_allocs, 0u);
  EXPECT_GT(sim.counters().evaluations, 0u);
  (void)sink;
}

TEST(GateSimAllocation, SteadyStateHotPathIsAllocationFree) {
#if defined(SCFLOW_ASAN)
  GTEST_SKIP() << "global operator new counting is incompatible with ASan";
#endif
  run_alloc_check(GateSim::Options{});
}

}  // namespace
}  // namespace scflow::hdlsim
