// The sharded batch runner: whole independent simulations fanned over a
// worker pool must be invisible — every job's outputs and counters are
// bit-identical to running it alone — and the runner's claiming, deadline
// and timeout bookkeeping must hold for any lane count.  Run these under
// -DSCFLOW_SANITIZE=thread to turn the same assertions into a race hunt.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsp/stimulus.hpp"
#include "hdlsim/batch_runner.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hdlsim/src_gate_sim.hpp"
#include "netlist/lower.hpp"
#include "netlist/opt.hpp"
#include "obs/session.hpp"
#include "rtl/passes.hpp"
#include "rtl/src_design.hpp"

namespace scflow::hdlsim {
namespace {

using dsp::SrcMode;
using P = dsp::SrcParams;

void expect_same_counters(const SimCounters& a, const SimCounters& b, const std::string& ctx) {
  EXPECT_EQ(a.evaluations, b.evaluations) << ctx;
  EXPECT_EQ(a.dirty_pushes, b.dirty_pushes) << ctx;
  EXPECT_EQ(a.settle_calls, b.settle_calls) << ctx;
  EXPECT_EQ(a.settle_passes, b.settle_passes) << ctx;
  EXPECT_EQ(a.ram_rereads, b.ram_rereads) << ctx;
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth) << ctx;
  EXPECT_EQ(a.steady_state_allocs, b.steady_state_allocs) << ctx;
}

nl::Netlist synthesise_src() {
  const rtl::Design optimised = rtl::run_passes(rtl::build_src_design(rtl::rtl_opt_config()));
  nl::Netlist gates = nl::lower_to_gates(optimised);
  gates = nl::optimize_gates(gates);
  return gates;
}

std::vector<dsp::SrcEvent> schedule(SrcMode mode, std::size_t samples, std::uint64_t seed) {
  const auto inputs = dsp::make_noise_stimulus(samples, seed);
  return dsp::make_schedule(inputs, P::input_period_ps(mode), samples, P::output_period_ps(mode));
}

TEST(BatchRunner, ShardedBatchMatchesSequentialJobs) {
  const nl::Netlist gates = synthesise_src();
  std::vector<std::vector<dsp::SrcEvent>> schedules;
  for (std::uint64_t s = 0; s < 5; ++s)
    schedules.push_back(schedule(SrcMode::k48To48, 15 + 3 * s, 100 + s));

  GateSim::Options opts;
  obs::Session session;
  const auto batch = run_src_netlist_batch(gates, SrcMode::k48To48, schedules, opts, 4, &session);
  ASSERT_EQ(batch.size(), schedules.size());
  for (std::size_t j = 0; j < schedules.size(); ++j) {
    const auto ref = run_src_netlist(gates, SrcMode::k48To48, schedules[j], opts);
    ASSERT_EQ(batch[j].outputs.size(), ref.outputs.size()) << "job " << j;
    for (std::size_t i = 0; i < ref.outputs.size(); ++i)
      ASSERT_EQ(batch[j].outputs[i], ref.outputs[i]) << "job " << j << " output " << i;
    expect_same_counters(batch[j].counters, ref.counters, "job " + std::to_string(j));
  }
  // The session captured the batch shape: one slice per job, lane + job
  // counters summing to the batch size.
  EXPECT_EQ(session.trace.event_count(), schedules.size());
  EXPECT_EQ(session.registry.counter("gate_batch.jobs"), schedules.size());
  EXPECT_EQ(session.registry.counter("gate_batch.lanes"), 4u);
  std::uint64_t lane_jobs = 0;
  for (unsigned l = 0; l < 4; ++l)
    lane_jobs += session.registry.counter("gate_batch.lane" + std::to_string(l) + ".jobs");
  EXPECT_EQ(lane_jobs, schedules.size());
}

TEST(BatchRunner, JobContextDeadlineExpiresAndMarksTimedOut) {
  BatchRunner runner(1);
  runner.set_job_budget_ns(1);  // expires essentially immediately
  bool saw_expired = false;
  runner.run(1, [&](std::size_t, unsigned, const BatchRunner::JobContext& ctx) {
    volatile std::uint64_t burn = 0;
    for (int i = 0; i < 200000; ++i) burn = burn + static_cast<std::uint64_t>(i);
    saw_expired = ctx.expired();
  });
  EXPECT_TRUE(saw_expired);
  ASSERT_EQ(runner.job_stats().size(), 1u);
  EXPECT_TRUE(runner.job_stats()[0].timed_out);
}

TEST(BatchRunner, ZeroBudgetNeverExpires) {
  BatchRunner runner(1);
  ASSERT_EQ(runner.job_budget_ns(), 0u);
  bool saw_expired = true;
  runner.run(1, [&](std::size_t, unsigned, const BatchRunner::JobContext& ctx) {
    saw_expired = ctx.expired();
    EXPECT_EQ(ctx.deadline_ns, 0u);
  });
  EXPECT_FALSE(saw_expired);
  EXPECT_FALSE(runner.job_stats()[0].timed_out);
}

TEST(BatchRunner, TimedOutJobIsSkippedNotKilled) {
  // A job with an absurdly long schedule must degrade gracefully: the
  // cooperative deadline stops it early (timed_out set, partial cycle
  // count), the batch still completes, and no other job is disturbed.
  const nl::Netlist gates = synthesise_src();
  std::vector<std::vector<dsp::SrcEvent>> schedules;
  schedules.push_back(schedule(SrcMode::k48To48, 30000, 7));  // tens of seconds
  schedules.push_back(schedule(SrcMode::k48To48, 3, 8));
  GateSim::Options opts;
  // Wide margins on both sides so the split survives sanitizer slowdown
  // and single-core lane contention: the long job needs tens of seconds,
  // the short one a few ms.
  constexpr std::uint64_t kBudgetNs = 500'000'000;  // 500 ms
  const auto batch =
      run_src_netlist_batch(gates, SrcMode::k48To48, schedules, opts, 2, nullptr, kBudgetNs);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].timed_out);
  EXPECT_GT(batch[0].cycles, 0u);
  // The short job ran to completion and matches an unbudgeted reference.
  EXPECT_FALSE(batch[1].timed_out);
  const auto ref = run_src_netlist(gates, SrcMode::k48To48, schedules[1], opts);
  ASSERT_EQ(batch[1].outputs.size(), ref.outputs.size());
  for (std::size_t i = 0; i < ref.outputs.size(); ++i)
    ASSERT_EQ(batch[1].outputs[i], ref.outputs[i]) << "output " << i;
}

TEST(BatchRunner, DynamicClaimingCoversEveryJobOnce) {
  BatchRunner runner(3);
  EXPECT_EQ(runner.lanes(), 3u);
  std::vector<int> hits(17, 0);
  runner.run(hits.size(), [&](std::size_t job, unsigned) { ++hits[job]; });
  for (std::size_t j = 0; j < hits.size(); ++j) EXPECT_EQ(hits[j], 1) << "job " << j;
  ASSERT_EQ(runner.job_stats().size(), hits.size());
  for (const auto& st : runner.job_stats()) {
    EXPECT_LE(st.start_ns, st.end_ns);
    EXPECT_LT(st.lane, 3u);
  }
}

}  // namespace
}  // namespace scflow::hdlsim
