#include "serve/src_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "hdlsim/batch_runner.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "serve/chaos.hpp"

namespace scflow::serve {

struct SrcService::SessionState {
  SessionState(const SessionConfig& cfg, const ServiceOptions& opt,
               std::uint64_t in_start = 0, std::uint64_t out_start = 0)
      : config(cfg),
        src(cfg.fs_in_hz, cfg.fs_out_hz, cfg.time_base),
        max_out_per_input(src.plan().max_outputs_per_input()),
        in(opt.input_ring, in_start),
        // A ring smaller than one input's worth of outputs could never
        // clear the scheduling watermark; round up.
        out(opt.output_ring > max_out_per_input ? opt.output_ring : max_out_per_input,
            out_start),
        conv_out(max_out_per_input) {}

  SessionConfig config;
  dsp::RationalSrc src;
  std::size_t max_out_per_input;
  SampleRing in;
  SampleRing out;
  std::vector<dsp::StereoSample> conv_out;  ///< lane-local conversion scratch
  SessionStats stats;
  obs::Fnv1a hasher;

  // Lease state.  Client threads stamp activity through the relaxed
  // atomic; the control thread samples it at step() into
  // client_marks_seen.  Everything else is control-thread-owned.
  std::uint64_t opened_at_step = 0;
  std::uint64_t last_active_step = 0;
  std::atomic<std::uint64_t> client_marks{0};
  std::uint64_t client_marks_seen = 0;
};

SrcService::SrcService(ServiceOptions options)
    : options_(options),
      runner_(std::make_unique<hdlsim::BatchRunner>(options.threads)) {
  slots_.reserve(options_.max_sessions);
}

SrcService::~SrcService() = default;

SrcService::SessionState* SrcService::resolve(SessionId id, bool allow_closing) const {
  if (!id.valid() || id.slot >= slots_.size()) return nullptr;
  const Slot& slot = slots_[id.slot];
  if (slot.generation != id.generation) return nullptr;
  if (slot.state == SlotState::kOpen ||
      (allow_closing && slot.state != SlotState::kFree)) {
    return slot.session.get();
  }
  return nullptr;
}

AdmitResult SrcService::try_open(const SessionConfig& config) {
  if (config.fs_in_hz < dsp::kMinRateHz || config.fs_in_hz > dsp::kMaxRateHz ||
      config.fs_out_hz < dsp::kMinRateHz || config.fs_out_hz > dsp::kMaxRateHz) {
    ++res_.admit_rate_unsupported;
    return {{}, AdmitStatus::kRateUnsupported};
  }
  // Keyed on the attempt counter (not opened_total_) so a failed attempt
  // advances the schedule — a client that retries gets a fresh draw.
  const std::uint64_t attempt = admit_attempts_++;
  if (chaos_ != nullptr && chaos_->fail_allocation(attempt)) {
    ++res_.chaos_alloc_failures;
    return {{}, AdmitStatus::kAllocFailed};
  }

  // Find capacity, escalating: a free slot, table growth, reclaiming
  // closed/evicted tenants, and finally — with shedding configured —
  // evicting the lowest-progress session.
  if (free_slots_.empty() && slots_.size() >= options_.max_sessions) {
    reclaim();            // folds kClosing slots (no lane holds them here)
    if (free_slots_.empty()) sweep_evicted();
    if (free_slots_.empty() && options_.shed_high_watermark > 0 &&
        slots_.size() - free_slots_.size() >= options_.shed_high_watermark) {
      (void)shed_one();  // a freed slot shows up in free_slots_ below
    }
    if (free_slots_.empty()) {
      ++res_.admit_overloaded;
      return {{}, AdmitStatus::kOverloaded};
    }
  }

  std::unique_ptr<SessionState> session;
  try {
    session = std::make_unique<SessionState>(config, options_);
  } catch (const std::exception&) {
    // plan_ratio rejections are caught by the range check above, so this
    // is a genuine allocation/construction failure.
    return {{}, AdmitStatus::kAllocFailed};
  }
  session->opened_at_step = steps_;
  session->last_active_step = steps_;

  std::uint32_t idx = 0;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[idx];
  slot.state = SlotState::kOpen;
  slot.session = std::move(session);
  ++open_count_;
  ++opened_total_;
  return {{idx, slot.generation}, AdmitStatus::kAdmitted};
}

SessionId SrcService::open(const SessionConfig& config) {
  const AdmitResult r = try_open(config);
  if (r.status == AdmitStatus::kRateUnsupported) {
    throw std::invalid_argument("SrcService::open: rate outside supported range");
  }
  return r.id;  // invalid id on kOverloaded / kAllocFailed, as before
}

bool SrcService::close(SessionId id) {
  if (resolve(id) == nullptr) return false;
  slots_[id.slot].state = SlotState::kClosing;
  --open_count_;
  ++closed_total_;
  return true;
}

std::size_t SrcService::push(SessionId id, const dsp::StereoSample* samples,
                             std::size_t n) {
  if (!id.valid() || id.slot >= slots_.size()) return 0;
  const Slot& slot = slots_[id.slot];
  if (slot.generation != id.generation) return 0;
  if (slot.state == SlotState::kEvicting || slot.state == SlotState::kEvicted) {
    // Lease lapsed: the client's samples are refused (and counted) so the
    // session can finish draining what it already accepted.
    slot.session->stats.push_rejected += n;
    evict_push_rejected_.fetch_add(n, std::memory_order_relaxed);
    return 0;
  }
  if (slot.state != SlotState::kOpen) return 0;
  SessionState* s = slot.session.get();
  s->client_marks.fetch_add(1, std::memory_order_relaxed);
  if (samples == nullptr) {
    // Malformed push: refuse without dereferencing.
    s->stats.push_rejected += n;
    return 0;
  }
  const std::size_t accepted = s->in.push(samples, n);
  s->stats.accepted += accepted;
  s->stats.push_rejected += n - accepted;
  return accepted;
}

std::size_t SrcService::pull(SessionId id, dsp::StereoSample* out, std::size_t cap) {
  SessionState* s = resolve(id, /*allow_closing=*/true);
  if (s == nullptr || out == nullptr) return 0;
  s->client_marks.fetch_add(1, std::memory_order_relaxed);
  const std::size_t got = s->out.pop(out, cap);
  s->stats.pulled += got;
  return got;
}

std::size_t SrcService::in_free(SessionId id) const {
  const SessionState* s = resolve(id);
  return s == nullptr ? 0 : s->in.free_space();
}

std::size_t SrcService::out_available(SessionId id) const {
  const SessionState* s = resolve(id, /*allow_closing=*/true);
  return s == nullptr ? 0 : s->out.size();
}

const SessionStats* SrcService::stats(SessionId id) const {
  const SessionState* s = resolve(id, /*allow_closing=*/true);
  return s == nullptr ? nullptr : &s->stats;
}

SessionPhase SrcService::phase(SessionId id) const {
  if (!id.valid() || id.slot >= slots_.size()) return SessionPhase::kUnknown;
  const Slot& slot = slots_[id.slot];
  if (slot.generation != id.generation) return SessionPhase::kUnknown;
  switch (slot.state) {
    case SlotState::kOpen:
      return SessionPhase::kOpen;
    case SlotState::kClosing:
      return SessionPhase::kClosing;
    case SlotState::kEvicting:
      return SessionPhase::kEvicting;
    case SlotState::kEvicted:
      return SessionPhase::kEvicted;
    case SlotState::kFree:
      break;
  }
  return SessionPhase::kUnknown;
}

void SrcService::set_chaos(const ChaosPlan* plan) {
  chaos_ = plan;
  // Injected stalls burn the whole per-job budget; installing it on the
  // runner guarantees they expire instead of hanging a lane.
  runner_->set_job_budget_ns(plan != nullptr ? plan->options().stall_budget_ns : 0);
}

void SrcService::note_chaos(ChaosClass c) {
  switch (c) {
    case ChaosClass::kLaneStall:
      ++res_.chaos_stalls;
      break;
    case ChaosClass::kDisconnect:
      ++res_.chaos_disconnects;
      break;
    case ChaosClass::kOversizedPush:
      ++res_.chaos_oversized_pushes;
      break;
    case ChaosClass::kRingStorm:
      ++res_.chaos_ring_storms;
      break;
    case ChaosClass::kAllocFail:
      ++res_.chaos_alloc_failures;
      break;
  }
}

ResilienceStats SrcService::resilience_stats() const {
  ResilienceStats out = res_;
  out.chaos_stalls += lane_stalls_.load(std::memory_order_relaxed);
  out.evict_push_rejected += evict_push_rejected_.load(std::memory_order_relaxed);
  return out;
}

void SrcService::service_one(SessionState& s) const {
  ++s.stats.dispatches;
  for (std::size_t i = 0; i < options_.work_quantum; ++i) {
    // Watermark: only consume an input when a full worst-case burst of
    // outputs is guaranteed to fit — inputs are never popped just to be
    // dropped on a full output ring.
    if (s.out.free_space() < s.max_out_per_input) break;
    dsp::StereoSample in;
    if (s.in.pop(&in, 1) == 0) break;
    const std::size_t n = s.src.push(in, s.conv_out.data(), s.conv_out.size());
    ++s.stats.converted_in;
    if (n == 0) continue;
    for (std::size_t k = 0; k < n; ++k) {
      const auto left = static_cast<std::uint16_t>(s.conv_out[k].left);
      const auto right = static_cast<std::uint16_t>(s.conv_out[k].right);
      s.hasher.update_u64((std::uint64_t{left} << 16) | right);
    }
    s.stats.output_hash = s.hasher.digest();
    s.stats.produced += s.out.push(s.conv_out.data(), n);
  }
}

void SrcService::retire_slot(std::uint32_t idx) {
  Slot& slot = slots_[idx];
  const SessionState& s = *slot.session;
  const std::uint64_t key =
      (std::uint64_t{s.config.fs_in_hz} << 32) | s.config.fs_out_hz;
  RatioAgg& agg = closed_ratio_aggs_[key];
  ++agg.sessions;
  agg.accepted += s.stats.accepted;
  agg.push_rejected += s.stats.push_rejected;
  agg.converted_in += s.stats.converted_in;
  agg.produced += s.stats.produced;
  agg.pulled += s.stats.pulled;
  slot.session.reset();
  slot.state = SlotState::kFree;
  ++slot.generation;
  free_slots_.push_back(idx);
}

void SrcService::reclaim() {
  for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
    if (slots_[idx].state == SlotState::kClosing) retire_slot(idx);
  }
}

std::size_t SrcService::sweep_evicted() {
  std::size_t swept = 0;
  for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
    if (slots_[idx].state != SlotState::kEvicted) continue;
    res_.evict_unpulled += slots_[idx].session->out.size();
    retire_slot(idx);
    ++swept;
  }
  return swept;
}

bool SrcService::shed_one() {
  // Deterministic victim: least conversion progress, lowest slot on ties.
  std::uint32_t victim = SessionId::kInvalidSlot;
  std::uint64_t victim_progress = ~std::uint64_t{0};
  for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
    const Slot& slot = slots_[idx];
    if (slot.state != SlotState::kOpen && slot.state != SlotState::kEvicting) continue;
    if (slot.session->stats.converted_in < victim_progress) {
      victim_progress = slot.session->stats.converted_in;
      victim = idx;
    }
  }
  if (victim == SessionId::kInvalidSlot) return false;
  Slot& slot = slots_[victim];
  SessionState& s = *slot.session;
  ++res_.shed_sessions;
  res_.shed_dropped_inputs += s.in.size();
  res_.shed_dropped_outputs += s.out.size();
  if (slot.state == SlotState::kOpen) {
    --open_count_;
    ++closed_total_;
  }
  retire_slot(victim);
  return true;
}

void SrcService::apply_leases() {
  if (options_.idle_timeout_steps == 0 && options_.max_lifetime_steps == 0) return;
  for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
    Slot& slot = slots_[idx];
    if (slot.state != SlotState::kOpen) continue;
    SessionState& s = *slot.session;
    const std::uint64_t marks = s.client_marks.load(std::memory_order_relaxed);
    if (marks != s.client_marks_seen) {
      s.client_marks_seen = marks;
      s.last_active_step = steps_;
    }
    const bool idle = options_.idle_timeout_steps > 0 &&
                      steps_ - s.last_active_step > options_.idle_timeout_steps;
    const bool expired = options_.max_lifetime_steps > 0 &&
                         steps_ - s.opened_at_step > options_.max_lifetime_steps;
    if (!idle && !expired) continue;
    if (idle) {
      ++res_.evict_idle;
    } else {
      ++res_.evict_lifetime;
    }
    --open_count_;
    ++closed_total_;
    if (s.in.size() == 0) {
      slot.state = SlotState::kEvicted;
      ++res_.evict_drained;
    } else {
      slot.state = SlotState::kEvicting;  // drain queued inputs first
    }
  }
}

std::size_t SrcService::step() {
  reclaim();  // safe: no lane holds a session between steps
  ++steps_;
  apply_leases();
  const std::size_t n_slots = slots_.size();
  if (n_slots == 0) return 0;

  dispatch_list_.clear();
  starved_list_.clear();
  const std::size_t cap =
      options_.max_sessions_per_step == 0 ? n_slots : options_.max_sessions_per_step;
  for (std::size_t k = 0; k < n_slots; ++k) {
    const std::size_t idx = (rr_cursor_ + k) % n_slots;
    Slot& slot = slots_[idx];
    // kEvicting sessions keep being scheduled so their accepted inputs
    // drain; everything else only runs while kOpen.
    if (slot.state != SlotState::kOpen && slot.state != SlotState::kEvicting) continue;
    SessionState& s = *slot.session;
    const bool ready =
        s.in.size() > 0 && s.out.free_space() >= s.max_out_per_input;
    if (!ready) {
      // Not starving — it has no work, or the client isn't draining.
      s.stats.starve_streak = 0;
      continue;
    }
    if (dispatch_list_.size() < cap) {
      dispatch_list_.push_back(idx);
      s.last_active_step = steps_;  // conversion progress counts as activity
    } else {
      starved_list_.push_back(idx);
    }
  }

  for (std::size_t idx : starved_list_) {
    SessionStats& st = slots_[idx].session->stats;
    ++st.starve_streak;
    if (st.starve_streak > st.starve_streak_max) st.starve_streak_max = st.starve_streak;
    if (st.starve_streak > starve_streak_max_) starve_streak_max_ = st.starve_streak;
  }
  if (dispatch_list_.empty()) return 0;

  // Next step scans from just past the last grant, so this step's
  // starved sessions lead the next rotation — the fairness bound.
  rr_cursor_ = (dispatch_list_.back() + 1) % n_slots;

  const ChaosPlan* chaos = chaos_;
  const std::uint64_t step_now = steps_;
  runner_->run(dispatch_list_.size(),
               [this, chaos, step_now](std::size_t job, unsigned /*lane*/,
                                       const hdlsim::BatchRunner::JobContext& ctx) {
    const std::size_t slot_idx = dispatch_list_[job];
    SessionState& s = *slots_[slot_idx].session;
    s.stats.starve_streak = 0;
    if (chaos != nullptr && chaos->stall_lane(step_now, static_cast<std::uint32_t>(slot_idx))) {
      // Deadline abuse: burn the job's wall budget before doing the work.
      // Bounded twice over — the runner budget set_chaos() installed and
      // an iteration cap for the pathological zero-budget case.
      lane_stalls_.fetch_add(1, std::memory_order_relaxed);
      for (std::uint64_t spin = 0; spin < (1u << 22) && !ctx.expired(); ++spin) {
      }
    }
    service_one(s);
  });
  res_.chaos_stalls += lane_stalls_.exchange(0, std::memory_order_relaxed);
  dispatch_total_ += dispatch_list_.size();
  for (const auto& stat : runner_->job_stats()) {
    job_ns_.record(stat.end_ns - stat.start_ns);
  }
  // Post-join: evicting sessions that just drained become terminal.
  for (std::size_t idx : dispatch_list_) {
    Slot& slot = slots_[idx];
    if (slot.state == SlotState::kEvicting && slot.session->in.size() == 0) {
      slot.state = SlotState::kEvicted;
      ++res_.evict_drained;
    }
  }
  return dispatch_list_.size();
}

std::size_t SrcService::run_until_idle(std::size_t max_steps) {
  std::size_t taken = 0;
  while (taken < max_steps) {
    ++taken;
    if (step() == 0) break;
  }
  return taken;
}

namespace {

std::uint64_t options_fingerprint(const ServiceOptions& opt) {
  // Semantic options only: thread count is scheduling, not meaning, and
  // must not split otherwise-identical ledger entries.
  obs::Fnv1a fp;
  fp.update_u64(opt.max_sessions);
  fp.update_u64(opt.input_ring);
  fp.update_u64(opt.output_ring);
  fp.update_u64(opt.work_quantum);
  fp.update_u64(opt.max_sessions_per_step);
  fp.update_u64(opt.idle_timeout_steps);
  fp.update_u64(opt.max_lifetime_steps);
  fp.update_u64(opt.shed_high_watermark);
  return fp.digest();
}

}  // namespace

void SrcService::record_into(obs::Session& session, std::string_view run_label) const {
  // Closed-session aggregates plus everything still live.
  std::map<std::uint64_t, RatioAgg> aggs = closed_ratio_aggs_;
  for (const Slot& slot : slots_) {
    if (slot.state == SlotState::kFree) continue;
    const SessionState& s = *slot.session;
    const std::uint64_t key =
        (std::uint64_t{s.config.fs_in_hz} << 32) | s.config.fs_out_hz;
    RatioAgg& agg = aggs[key];
    ++agg.sessions;
    agg.accepted += s.stats.accepted;
    agg.push_rejected += s.stats.push_rejected;
    agg.converted_in += s.stats.converted_in;
    agg.produced += s.stats.produced;
    agg.pulled += s.stats.pulled;
  }

  RatioAgg total;
  for (const auto& [key, agg] : aggs) {
    (void)key;
    total.sessions += agg.sessions;
    total.accepted += agg.accepted;
    total.push_rejected += agg.push_rejected;
    total.converted_in += agg.converted_in;
    total.produced += agg.produced;
    total.pulled += agg.pulled;
  }

  const ResilienceStats res = resilience_stats();

  obs::Registry& reg = session.registry;
  reg.count("serve.sessions_opened", opened_total_);
  reg.count("serve.sessions_closed", closed_total_);
  reg.count("serve.steps", steps_);
  reg.count("serve.dispatches", dispatch_total_);
  reg.count("serve.samples_in", total.accepted);
  reg.count("serve.samples_out", total.produced);
  reg.count("serve.samples_pulled", total.pulled);
  reg.count("serve.push_rejected", total.push_rejected);
  reg.set_counter("serve.starve_streak_max", starve_streak_max_);
  reg.merge_histogram("serve.job_ns", job_ns_);
  reg.count("serve.evict.idle", res.evict_idle);
  reg.count("serve.evict.lifetime", res.evict_lifetime);
  reg.count("serve.evict.drained", res.evict_drained);
  reg.count("serve.evict.push_rejected", res.evict_push_rejected);
  reg.count("serve.evict.unpulled", res.evict_unpulled);
  reg.count("serve.shed.sessions", res.shed_sessions);
  reg.count("serve.shed.dropped_inputs", res.shed_dropped_inputs);
  reg.count("serve.shed.dropped_outputs", res.shed_dropped_outputs);
  reg.count("serve.admit.overloaded", res.admit_overloaded);
  reg.count("serve.admit.rate_unsupported", res.admit_rate_unsupported);
  reg.count("serve.chaos.stalls", res.chaos_stalls);
  reg.count("serve.chaos.disconnects", res.chaos_disconnects);
  reg.count("serve.chaos.oversized_pushes", res.chaos_oversized_pushes);
  reg.count("serve.chaos.ring_storms", res.chaos_ring_storms);
  reg.count("serve.chaos.alloc_failures", res.chaos_alloc_failures);
  reg.count("serve.snapshot.saves", res.snapshot_saves);
  reg.count("serve.snapshot.restores", res.snapshot_restores);
  reg.set_counter("serve.snapshot.bytes_last", res.snapshot_bytes_last);

  const std::uint64_t opt_fp = options_fingerprint(options_);
  obs::Fnv1a run_fp;
  for (const auto& [key, agg] : aggs) {
    const auto fs_in = static_cast<std::uint32_t>(key >> 32);
    const auto fs_out = static_cast<std::uint32_t>(key);
    obs::LedgerEntry e;
    e.phase = "serve.ratio";
    e.design = std::to_string(fs_in) + "->" + std::to_string(fs_out);
    obs::Fnv1a in_hash;
    in_hash.update_u64(key);
    e.input_hash = in_hash.digest();
    e.options_fingerprint = opt_fp;
    e.add_counter("sessions", agg.sessions);
    e.add_counter("samples_in", agg.accepted);
    e.add_counter("push_rejected", agg.push_rejected);
    e.add_counter("converted_in", agg.converted_in);
    e.add_counter("samples_out", agg.produced);
    e.add_counter("samples_pulled", agg.pulled);
    session.ledger.append(std::move(e));
    run_fp.update_u64(key);
    run_fp.update_u64(agg.sessions);
  }

  // The resilience census: everything the eviction / shedding /
  // admission / chaos / snapshot machinery did.  Deterministic (chaos
  // schedules are pure functions of seed and step coordinates), so this
  // entry is bit-identical across thread counts too.
  obs::LedgerEntry rese;
  rese.phase = "serve.resilience";
  rese.design = std::string(run_label);
  {
    obs::Fnv1a in_hash;
    in_hash.update_u64(chaos_ != nullptr ? chaos_->seed() : 0);
    rese.input_hash = in_hash.digest();
  }
  rese.options_fingerprint = opt_fp;
  rese.add_counter("evict_idle", res.evict_idle);
  rese.add_counter("evict_lifetime", res.evict_lifetime);
  rese.add_counter("evict_drained", res.evict_drained);
  rese.add_counter("evict_push_rejected", res.evict_push_rejected);
  rese.add_counter("evict_unpulled", res.evict_unpulled);
  rese.add_counter("shed_sessions", res.shed_sessions);
  rese.add_counter("shed_dropped_inputs", res.shed_dropped_inputs);
  rese.add_counter("shed_dropped_outputs", res.shed_dropped_outputs);
  rese.add_counter("admit_overloaded", res.admit_overloaded);
  rese.add_counter("admit_rate_unsupported", res.admit_rate_unsupported);
  rese.add_counter("chaos_stalls", res.chaos_stalls);
  rese.add_counter("chaos_disconnects", res.chaos_disconnects);
  rese.add_counter("chaos_oversized_pushes", res.chaos_oversized_pushes);
  rese.add_counter("chaos_ring_storms", res.chaos_ring_storms);
  rese.add_counter("chaos_alloc_failures", res.chaos_alloc_failures);
  rese.add_counter("snapshot_saves", res.snapshot_saves);
  rese.add_counter("snapshot_restores", res.snapshot_restores);
  rese.add_counter("snapshot_bytes_last", res.snapshot_bytes_last);
  session.ledger.append(std::move(rese));

  obs::LedgerEntry run;
  run.phase = "serve.run";
  run.design = std::string(run_label);
  run.input_hash = run_fp.digest();  // session-count x ratio fingerprint
  run.options_fingerprint = opt_fp;
  run.duration_ns = job_ns_.sum();
  run.add_counter("sessions_opened", opened_total_);
  run.add_counter("sessions_closed", closed_total_);
  run.add_counter("ratios", aggs.size());
  run.add_counter("steps", steps_);
  run.add_counter("dispatches", dispatch_total_);
  run.add_counter("samples_in", total.accepted);
  run.add_counter("push_rejected", total.push_rejected);
  run.add_counter("samples_out", total.produced);
  run.add_counter("samples_pulled", total.pulled);
  run.add_counter("starve_streak_max", starve_streak_max_);
  run.add_histogram("job_ns", job_ns_);
  session.ledger.append(std::move(run));
}

// ---------------------------------------------------------------------------
// Snapshot support.

namespace {

void save_ring(core::StateWriter& w, const SampleRing& ring) {
  std::vector<dsp::StereoSample> contents;
  const std::uint64_t tail = ring.snapshot_into(contents);
  w.u64(tail);
  w.u64(contents.size());
  for (const dsp::StereoSample& s : contents) {
    w.i16(s.left);
    w.i16(s.right);
  }
}

struct RingImage {
  std::uint64_t tail = 0;
  std::vector<dsp::StereoSample> contents;
};

constexpr std::size_t kRingSampleBytes = 4;  // two i16 channels

bool read_ring_image(core::StateReader& r, RingImage* img) {
  img->tail = r.u64();
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > r.remaining() / kRingSampleBytes) return false;
  img->contents.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    dsp::StereoSample s;
    s.left = r.i16();
    s.right = r.i16();
    img->contents.push_back(s);
  }
  return r.ok();
}

}  // namespace

void SrcService::save_state(core::StateWriter& w) const {
  // Semantic options (threads is scheduling, restored service keeps its own).
  w.u64(options_.max_sessions);
  w.u64(options_.input_ring);
  w.u64(options_.output_ring);
  w.u64(options_.work_quantum);
  w.u64(options_.max_sessions_per_step);
  w.u64(options_.idle_timeout_steps);
  w.u64(options_.max_lifetime_steps);
  w.u64(options_.shed_high_watermark);

  // Lifetime counters (wall-clock data — the job_ns histogram — stays
  // out, so the image is byte-identical across thread counts).
  w.u64(opened_total_);
  w.u64(closed_total_);
  w.u64(admit_attempts_);
  w.u64(steps_);
  w.u64(dispatch_total_);
  w.u32(starve_streak_max_);
  w.u64(rr_cursor_);

  const ResilienceStats res = resilience_stats();
  w.u64(res.evict_idle);
  w.u64(res.evict_lifetime);
  w.u64(res.evict_drained);
  w.u64(res.evict_push_rejected);
  w.u64(res.evict_unpulled);
  w.u64(res.shed_sessions);
  w.u64(res.shed_dropped_inputs);
  w.u64(res.shed_dropped_outputs);
  w.u64(res.admit_overloaded);
  w.u64(res.admit_rate_unsupported);
  w.u64(res.chaos_stalls);
  w.u64(res.chaos_disconnects);
  w.u64(res.chaos_oversized_pushes);
  w.u64(res.chaos_ring_storms);
  w.u64(res.chaos_alloc_failures);
  w.u64(res.snapshot_saves);
  w.u64(res.snapshot_restores);
  w.u64(res.snapshot_bytes_last);

  w.u64(closed_ratio_aggs_.size());
  for (const auto& [key, agg] : closed_ratio_aggs_) {
    w.u64(key);
    w.u64(agg.sessions);
    w.u64(agg.accepted);
    w.u64(agg.push_rejected);
    w.u64(agg.converted_in);
    w.u64(agg.produced);
    w.u64(agg.pulled);
  }

  // The free stack verbatim: slot assignment after restore must replay
  // exactly as it would have uninterrupted.
  w.u64(free_slots_.size());
  for (std::uint32_t idx : free_slots_) w.u32(idx);

  w.u64(slots_.size());
  for (const Slot& slot : slots_) {
    w.u32(slot.generation);
    w.u8(static_cast<std::uint8_t>(slot.state));
    if (slot.state == SlotState::kFree) continue;
    const SessionState& s = *slot.session;
    w.u32(s.config.fs_in_hz);
    w.u32(s.config.fs_out_hz);
    w.u8(static_cast<std::uint8_t>(s.config.time_base));
    w.u64(s.stats.accepted);
    w.u64(s.stats.push_rejected);
    w.u64(s.stats.converted_in);
    w.u64(s.stats.produced);
    w.u64(s.stats.pulled);
    w.u64(s.stats.dispatches);
    w.u32(s.stats.starve_streak);
    w.u32(s.stats.starve_streak_max);
    w.u64(s.stats.output_hash);
    w.u64(s.hasher.digest());
    w.u64(s.opened_at_step);
    w.u64(s.last_active_step);
    w.u64(s.client_marks.load(std::memory_order_relaxed));
    w.u64(s.client_marks_seen);
    save_ring(w, s.in);
    save_ring(w, s.out);
    s.src.save_state(w);
  }
}

bool SrcService::load_state(core::StateReader& r, std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!slots_.empty() || opened_total_ != 0 || steps_ != 0) {
    return fail("load_state target must be a fresh service");
  }

  ServiceOptions opt;
  opt.threads = options_.threads;  // scheduling stays the target's choice
  opt.max_sessions = r.u64();
  opt.input_ring = r.u64();
  opt.output_ring = r.u64();
  opt.work_quantum = r.u64();
  opt.max_sessions_per_step = r.u64();
  opt.idle_timeout_steps = r.u64();
  opt.max_lifetime_steps = r.u64();
  opt.shed_high_watermark = r.u64();
  if (!r.ok()) return fail("truncated snapshot payload (options)");
  if (opt.max_sessions == 0 || opt.max_sessions > (1u << 24)) {
    return fail("implausible max_sessions in snapshot");
  }
  if (opt.input_ring == 0 || opt.output_ring == 0 || opt.work_quantum == 0 ||
      opt.input_ring > kMaxSnapshotRing || opt.output_ring > kMaxSnapshotRing) {
    return fail("implausible ring/quantum options in snapshot");
  }

  opened_total_ = r.u64();
  closed_total_ = r.u64();
  admit_attempts_ = r.u64();
  steps_ = r.u64();
  dispatch_total_ = r.u64();
  starve_streak_max_ = r.u32();
  rr_cursor_ = r.u64();

  ResilienceStats res;
  res.evict_idle = r.u64();
  res.evict_lifetime = r.u64();
  res.evict_drained = r.u64();
  res.evict_push_rejected = r.u64();
  res.evict_unpulled = r.u64();
  res.shed_sessions = r.u64();
  res.shed_dropped_inputs = r.u64();
  res.shed_dropped_outputs = r.u64();
  res.admit_overloaded = r.u64();
  res.admit_rate_unsupported = r.u64();
  res.chaos_stalls = r.u64();
  res.chaos_disconnects = r.u64();
  res.chaos_oversized_pushes = r.u64();
  res.chaos_ring_storms = r.u64();
  res.chaos_alloc_failures = r.u64();
  res.snapshot_saves = r.u64();
  res.snapshot_restores = r.u64();
  res.snapshot_bytes_last = r.u64();

  // Every count below is checked against the bytes left before anything
  // is allocated for it: a record is never smaller than its minimum
  // encoding, so a corrupt count cannot ask for more than the image holds.
  constexpr std::size_t kAggBytes = 7 * 8;
  constexpr std::size_t kFreeIndexBytes = 4;
  constexpr std::size_t kMinSlotBytes = 4 + 1;  // generation + state
  const std::uint64_t n_aggs = r.u64();
  if (!r.ok() || n_aggs > r.remaining() / kAggBytes) return fail("corrupt ratio aggregates");
  std::map<std::uint64_t, RatioAgg> aggs;
  for (std::uint64_t i = 0; i < n_aggs; ++i) {
    const std::uint64_t key = r.u64();
    RatioAgg agg;
    agg.sessions = r.u64();
    agg.accepted = r.u64();
    agg.push_rejected = r.u64();
    agg.converted_in = r.u64();
    agg.produced = r.u64();
    agg.pulled = r.u64();
    aggs[key] = agg;
  }

  const std::uint64_t n_free = r.u64();
  if (!r.ok() || n_free > opt.max_sessions || n_free > r.remaining() / kFreeIndexBytes) {
    return fail("corrupt free-slot stack");
  }
  std::vector<std::uint32_t> free_slots;
  free_slots.reserve(static_cast<std::size_t>(n_free));
  for (std::uint64_t i = 0; i < n_free; ++i) free_slots.push_back(r.u32());

  const std::uint64_t n_slots = r.u64();
  if (!r.ok() || n_slots > opt.max_sessions) return fail("slot count exceeds max_sessions");
  if (n_slots > r.remaining() / kMinSlotBytes) return fail("truncated snapshot payload (slots)");

  std::vector<Slot> slots(static_cast<std::size_t>(n_slots));
  std::size_t open_count = 0;
  for (std::uint64_t i = 0; i < n_slots; ++i) {
    Slot& slot = slots[static_cast<std::size_t>(i)];
    slot.generation = r.u32();
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(SlotState::kEvicted)) {
      return fail("invalid slot state in snapshot");
    }
    slot.state = static_cast<SlotState>(state);
    if (slot.state == SlotState::kFree) continue;

    SessionConfig cfg;
    cfg.fs_in_hz = r.u32();
    cfg.fs_out_hz = r.u32();
    const std::uint8_t tb = r.u8();
    if (tb > 1) return fail("invalid session time base in snapshot");
    cfg.time_base = static_cast<dsp::RationalSrc::TimeBase>(tb);
    if (!r.ok()) return fail("truncated snapshot payload (session config)");
    if (cfg.fs_in_hz < dsp::kMinRateHz || cfg.fs_in_hz > dsp::kMaxRateHz ||
        cfg.fs_out_hz < dsp::kMinRateHz || cfg.fs_out_hz > dsp::kMaxRateHz) {
      return fail("session rate outside supported range in snapshot");
    }

    SessionStats stats;
    stats.accepted = r.u64();
    stats.push_rejected = r.u64();
    stats.converted_in = r.u64();
    stats.produced = r.u64();
    stats.pulled = r.u64();
    stats.dispatches = r.u64();
    stats.starve_streak = r.u32();
    stats.starve_streak_max = r.u32();
    stats.output_hash = r.u64();
    const std::uint64_t hasher_digest = r.u64();
    const std::uint64_t opened_at_step = r.u64();
    const std::uint64_t last_active_step = r.u64();
    const std::uint64_t client_marks = r.u64();
    const std::uint64_t client_marks_seen = r.u64();
    if (!r.ok()) return fail("truncated snapshot payload (session stats)");

    // Ring images come before the session can exist (the saved counters
    // seed the reconstructed rings), so buffer them first.  Exact
    // capacity is enforced by the replaying push below.
    RingImage in_img;
    RingImage out_img;
    if (!read_ring_image(r, &in_img)) {
      return fail("corrupt input-ring contents in snapshot");
    }
    if (!read_ring_image(r, &out_img)) {
      return fail("corrupt output-ring contents in snapshot");
    }
    // The conservation laws (SessionStats): every accepted input is
    // converted or still queued, every produced output pulled or queued,
    // and each ring's consumer counter is the matching stat.
    if (stats.accepted - stats.converted_in != in_img.contents.size() ||
        stats.produced - stats.pulled != out_img.contents.size() ||
        in_img.tail != stats.converted_in || out_img.tail != stats.pulled) {
      return fail("session counters break conservation in snapshot");
    }

    auto session = std::make_unique<SessionState>(cfg, opt, in_img.tail, out_img.tail);
    session->stats = stats;
    session->hasher.restore_digest(hasher_digest);
    session->opened_at_step = opened_at_step;
    session->last_active_step = last_active_step;
    session->client_marks.store(client_marks, std::memory_order_relaxed);
    session->client_marks_seen = client_marks_seen;
    if (session->in.push(in_img.contents.data(), in_img.contents.size()) !=
        in_img.contents.size()) {
      return fail("input-ring contents exceed ring capacity in snapshot");
    }
    if (session->out.push(out_img.contents.data(), out_img.contents.size()) !=
        out_img.contents.size()) {
      return fail("output-ring contents exceed ring capacity in snapshot");
    }
    if (!session->src.load_state(r)) {
      return fail("corrupt converter state in snapshot");
    }
    if (slot.state == SlotState::kOpen) ++open_count;
    slot.session = std::move(session);
  }
  if (!r.ok()) return fail("truncated snapshot payload");
  if (!r.exhausted()) return fail("trailing bytes after snapshot payload");
  // try_open pops these indices and overwrites the slot: each must name
  // a distinct free slot of the restored table.
  std::vector<bool> listed(slots.size(), false);
  for (const std::uint32_t idx : free_slots) {
    if (idx >= slots.size() || slots[idx].state != SlotState::kFree || listed[idx]) {
      return fail("free-slot stack names a slot that is not free in snapshot");
    }
    listed[idx] = true;
  }

  options_ = opt;
  res_ = res;
  lane_stalls_.store(0, std::memory_order_relaxed);
  evict_push_rejected_.store(0, std::memory_order_relaxed);
  closed_ratio_aggs_ = std::move(aggs);
  free_slots_ = std::move(free_slots);
  slots_ = std::move(slots);
  open_count_ = open_count;
  return true;
}

}  // namespace scflow::serve
