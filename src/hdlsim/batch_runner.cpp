#include "hdlsim/batch_runner.hpp"

#include <atomic>
#include <chrono>
#include <string>

#include "core/thread_pool.hpp"
#include "obs/session.hpp"

namespace scflow::hdlsim {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

BatchRunner::BatchRunner(unsigned threads) {
  lanes_ = core::ThreadPool::workers_for(threads) + 1;
  if (lanes_ > 1) pool_ = std::make_unique<core::ThreadPool>(lanes_ - 1);
}

BatchRunner::~BatchRunner() = default;

unsigned BatchRunner::lanes() const { return lanes_; }

bool BatchRunner::JobContext::expired() const {
  return deadline_ns != 0 && steady_ns() > deadline_ns;
}

void BatchRunner::run(std::size_t n,
                      const std::function<void(std::size_t job, unsigned lane)>& fn) {
  run(n, [&fn](std::size_t job, unsigned lane, const JobContext&) { fn(job, lane); });
}

void BatchRunner::run(
    std::size_t n,
    const std::function<void(std::size_t job, unsigned lane, const JobContext& ctx)>& fn) {
  stats_.assign(n, {});
  run_t0_steady_ns_ = steady_ns();
  const std::uint64_t budget = job_budget_ns_;
  std::atomic<std::size_t> next{0};
  const auto lane_loop = [&](unsigned lane) {
    // Dynamic claiming: a lane stuck on a long job stops taking tickets
    // while the others drain the rest.  Each job touches only its own
    // stats_ slot, so the claiming order never shows in the results.
    for (;;) {
      const std::size_t job = next.fetch_add(1, std::memory_order_relaxed);
      if (job >= n) return;
      BatchJobStat& st = stats_[job];
      st.lane = lane;
      st.start_ns = steady_ns();
      const JobContext ctx{budget == 0 ? 0 : st.start_ns + budget};
      fn(job, lane, ctx);
      st.end_ns = steady_ns();
      st.timed_out = budget != 0 && st.end_ns - st.start_ns > budget;
    }
  };
  if (pool_ == nullptr) {
    lane_loop(0);
    return;
  }
  struct Ctx {
    const decltype(lane_loop)* loop;
  } ctx{&lane_loop};
  pool_->run(
      [](void* c, unsigned lane) { (*static_cast<Ctx*>(c)->loop)(lane); }, &ctx);
}

void BatchRunner::record_into(obs::Session& session, std::string_view prefix,
                              std::uint64_t parent_span_id) const {
  const std::string p(prefix);
  // Map steady-clock stamps onto the trace epoch via one common sample.
  const std::uint64_t trace_now = session.trace.now_ns();
  const std::uint64_t steady_now = steady_ns();
  const auto to_trace = [&](std::uint64_t t) {
    const std::uint64_t back = steady_now - t;  // both stamps are steady-clock
    return trace_now >= back ? trace_now - back : 0;
  };
  std::vector<std::uint64_t> per_lane(lanes_, 0);
  for (std::size_t j = 0; j < stats_.size(); ++j) {
    const BatchJobStat& st = stats_[j];
    ++per_lane[st.lane];
    session.spans.add({0, parent_span_id, p + ".job" + std::to_string(j), "batch",
                       to_trace(st.start_ns), to_trace(st.end_ns),
                       static_cast<int>(st.lane)});
    session.registry.record_value(p + ".job_ns", st.end_ns - st.start_ns);
  }
  session.registry.set_counter(p + ".jobs", stats_.size());
  session.registry.set_counter(p + ".lanes", lanes_);
  for (unsigned l = 0; l < lanes_; ++l)
    session.registry.set_counter(p + ".lane" + std::to_string(l) + ".jobs", per_lane[l]);
  // Export straight away so callers that only inspect session.trace (not
  // dump()) still see one slice per job; the SpanSet watermark keeps a
  // later dump() from re-emitting them.
  session.spans.export_to(session.trace);
}

std::vector<GateRunResult> run_src_netlist_batch(
    const nl::Netlist& netlist, dsp::SrcMode mode,
    const std::vector<std::vector<dsp::SrcEvent>>& schedules,
    const GateSim::Options& options, unsigned threads, obs::Session* session,
    std::uint64_t job_timeout_ns, Backend backend) {
  std::vector<GateRunResult> results(schedules.size());
  BatchRunner runner(threads);
  runner.set_job_budget_ns(job_timeout_ns);
  runner.run(schedules.size(),
             [&](std::size_t job, unsigned /*lane*/, const BatchRunner::JobContext& ctx) {
               results[job] = run_src_netlist(netlist, mode, schedules[job], options,
                                              ctx.deadline_ns, backend);
             });
  if (session != nullptr) runner.record_into(*session, "gate_batch");
  return results;
}

}  // namespace scflow::hdlsim
