// Sharded batch runner: fans a set of independent DUT simulations across
// a persistent worker pool.  It is the simulators' one parallel axis:
// each engine (GateSim, CompiledSim, the RTL interpreter) runs a single
// simulation sequentially, and the runner splits whole simulations
// (coarse grain) — the profitable axis for sweep-style workloads like the
// Fig. 9 schedule matrix, since jobs share nothing and never synchronise
// mid-run.
//
// Determinism: every job writes only its own preallocated result slot, so
// the result vector is identical for any thread count and any claiming
// order; only the wall-clock timeline (job_stats) depends on scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "dsp/src_params.hpp"
#include "dsp/stimulus.hpp"
#include "hdlsim/src_gate_sim.hpp"
#include "netlist/netlist.hpp"

namespace scflow::core {
class ThreadPool;
}
namespace scflow::obs {
struct Session;
}

namespace scflow::hdlsim {

/// Wall-clock record of one batch job (steady-clock nanoseconds).
struct BatchJobStat {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  unsigned lane = 0;
  /// The job's wall time exceeded the runner's per-job budget.  The job was
  /// never preempted (the pool survives); it either wound itself down via
  /// JobContext::expired() or ran to completion late — either way its
  /// result should be treated as incomplete.
  bool timed_out = false;
};

class BatchRunner {
 public:
  /// @p threads lanes: 1 = run jobs inline on the caller, N > 1 = pool of
  /// N-1 workers plus the caller, 0 = one lane per hardware thread.
  explicit BatchRunner(unsigned threads);
  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;
  ~BatchRunner();

  [[nodiscard]] unsigned lanes() const;

  /// Per-job wall-clock deadline handed to cooperative jobs.  deadline_ns
  /// is a steady-clock stamp (0 = no budget); long-running jobs poll
  /// expired() at convenient boundaries (e.g. every few simulation cycles)
  /// and bail out early.  Jobs are never killed — a job that ignores the
  /// deadline just finishes late and is flagged timed_out afterwards.
  struct JobContext {
    std::uint64_t deadline_ns = 0;
    [[nodiscard]] bool expired() const;
  };

  /// Sets the per-job wall budget for subsequent run() calls (0 = none).
  void set_job_budget_ns(std::uint64_t ns) { job_budget_ns_ = ns; }
  [[nodiscard]] std::uint64_t job_budget_ns() const { return job_budget_ns_; }

  /// Runs jobs 0..n-1, dynamically claimed by the lanes (atomic ticket
  /// counter), and blocks until all complete.  @p fn must confine its
  /// writes to per-job state; it is called concurrently from all lanes.
  void run(std::size_t n, const std::function<void(std::size_t job, unsigned lane)>& fn);
  /// Same, with the per-job deadline exposed so the job can wind down
  /// before the budget expires.
  void run(std::size_t n,
           const std::function<void(std::size_t job, unsigned lane, const JobContext& ctx)>& fn);

  /// Per-job timings of the most recent run(), indexed by job.
  [[nodiscard]] const std::vector<BatchJobStat>& job_stats() const { return stats_; }

  /// Records the last run() into @p session: one span (= complete trace
  /// slice, tid = lane, so the trace shows the per-lane occupancy) per
  /// job, a "<prefix>.job_ns" latency histogram, plus "<prefix>.jobs",
  /// "<prefix>.lanes" and per-lane "<prefix>.lane<k>.jobs" counters.
  /// With @p parent_span_id (reserved from session.spans and added by the
  /// caller), every job span parent-links to it and the export draws
  /// Perfetto flow arrows from the parent slice into each lane — the link
  /// survives the thread hand-off because it is span data, not stack
  /// context.  Runs on the calling thread after the join — TraceWriter
  /// and SpanSet storage are not thread-safe.
  void record_into(obs::Session& session, std::string_view prefix,
                   std::uint64_t parent_span_id = 0) const;

 private:
  std::vector<BatchJobStat> stats_;
  std::unique_ptr<core::ThreadPool> pool_;  // only when lanes() > 1
  unsigned lanes_ = 1;
  std::uint64_t job_budget_ns_ = 0;  // 0 = unlimited
  // Offset mapping steady-clock stamps onto the session trace's epoch,
  // captured at the start of the last run().
  std::uint64_t run_t0_steady_ns_ = 0;
};

/// Runs one schedule per job over @p netlist (each job its own sequential
/// GateSim — parallelism comes from the batch axis), results in schedule
/// order.  @p options applies to every DUT; @p threads picks the batch
/// lane count.  When
/// @p session is given, job slices and counters are recorded under
/// "gate_batch".  With @p job_timeout_ns, each job's simulation winds
/// down once its wall budget expires (GateRunResult::timed_out and the
/// matching BatchJobStat::timed_out are set; the other jobs and the pool
/// are unaffected).  @p backend selects the per-job engine (see
/// run_src_netlist); results are bit-identical across thread counts for
/// either backend since each job is sequential and slot-isolated.
std::vector<GateRunResult> run_src_netlist_batch(
    const nl::Netlist& netlist, dsp::SrcMode mode,
    const std::vector<std::vector<dsp::SrcEvent>>& schedules,
    const GateSim::Options& options, unsigned threads, obs::Session* session = nullptr,
    std::uint64_t job_timeout_ns = 0, Backend backend = Backend::kInterpreted);

}  // namespace scflow::hdlsim
