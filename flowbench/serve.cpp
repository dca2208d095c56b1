// serve: many concurrent sessions over the eight-rate-pair mix.  A single
// control thread pushes into serve::SrcService, calls step() and pulls
// the output; a closed-loop unit is one chunk of input per session,
// pushed and drained completely before the next unit starts.
#include <iterator>
#include <optional>

#include "common.hpp"
#include "dsp/rational_src.hpp"
#include "dsp/stimulus.hpp"
#include "obs/ledger.hpp"
#include "serve/src_service.hpp"

namespace flowbench {

using namespace scflow;

namespace {

constexpr std::uint32_t kRatios[][2] = {
    {44'100, 48'000}, {48'000, 44'100}, {48'000, 48'000}, {32'000, 48'000},
    {8'000, 48'000},  {48'000, 8'000},  {22'050, 48'000}, {44'100, 8'000},
};
constexpr std::size_t kSessions = 512;
constexpr std::size_t kChunk = 2'000;  // input samples per session per unit

serve::ServiceOptions service_options(unsigned lanes) {
  serve::ServiceOptions o;
  o.threads = lanes;
  o.max_sessions = kSessions;
  o.input_ring = 256;
  o.output_ring = 1'024;
  o.work_quantum = 128;
  o.max_sessions_per_step = 128;
  return o;
}

struct Setup {
  std::optional<serve::SrcService> service;
  std::vector<serve::SessionId> ids;
  std::vector<std::vector<dsp::StereoSample>> chunks;  // one per session
};

void make_setup(const Options& opt, unsigned lanes, Setup& s) {
  s.service.reset();
  s.ids.clear();
  s.chunks.clear();
  s.service.emplace(service_options(lanes));
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& r = kRatios[i % std::size(kRatios)];
    s.ids.push_back(s.service->open({r[0], r[1]}));
    s.chunks.push_back(dsp::make_noise_stimulus(kChunk, derive_seed(opt.seed, 1000 + i)));
  }
}

/// One closed-loop unit: every session's chunk pushed, converted and
/// pulled.  Returns false if the service stopped making progress.
bool serve_unit(Setup& s, Tracer* tracer) {
  std::vector<std::size_t> fed(kSessions, 0);
  std::vector<dsp::StereoSample> out(512);
  bool progress = true;
  std::size_t idle_rounds = 0;
  while (progress) {
    progress = false;
    {
      Tracer::Scope sc(tracer, "serve.push", "push");
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (fed[i] < kChunk) {
          fed[i] += s.service->push(s.ids[i], s.chunks[i].data() + fed[i], kChunk - fed[i]);
          if (fed[i] < kChunk) progress = true;
        }
      }
    }
    std::size_t stepped = 0;
    {
      Tracer::Scope sc(tracer, "serve.step", "step");
      stepped = s.service->step();
    }
    if (stepped > 0) progress = true;
    {
      Tracer::Scope sc(tracer, "serve.pull", "pull");
      for (std::size_t i = 0; i < kSessions; ++i)
        while (s.service->pull(s.ids[i], out.data(), out.size()) > 0) progress = true;
    }
    // A stalled service (inputs left, nothing converted) must not hang
    // the benchmark; the conservation checks then report it.
    idle_rounds = stepped == 0 ? idle_rounds + 1 : 0;
    if (idle_rounds > 4) return false;
  }
  return true;
}

/// Output hash of a direct RationalSrc conversion of @p chunk repeated
/// @p repeats times — FNV-1a over (left << 16 | right) as the service
/// hashes its produced stream.
std::uint64_t direct_hash(std::uint32_t fs_in, std::uint32_t fs_out,
                          const std::vector<dsp::StereoSample>& chunk, std::size_t repeats,
                          std::uint64_t* produced) {
  dsp::RationalSrc src(fs_in, fs_out, dsp::RationalSrc::TimeBase::kContinuousPs);
  std::vector<dsp::StereoSample> out(src.plan().max_outputs_per_input());
  obs::Fnv1a h;
  std::uint64_t n_out = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const auto& in : chunk) {
      const std::size_t n = src.push(in, out.data(), out.size());
      for (std::size_t k = 0; k < n; ++k) {
        const auto left = static_cast<std::uint16_t>(out[k].left);
        const auto right = static_cast<std::uint16_t>(out[k].right);
        h.update_u64((std::uint64_t{left} << 16) | right);
      }
      n_out += n;
    }
  }
  if (produced != nullptr) *produced = n_out;
  return h.digest();
}

struct Snapshot {
  std::vector<std::uint64_t> hash;
  std::uint64_t steps = 0, dispatches = 0;
};

Snapshot snapshot(const Setup& s) {
  Snapshot snap;
  for (const auto id : s.ids) {
    const serve::SessionStats* st = s.service->stats(id);
    snap.hash.push_back(st != nullptr ? st->output_hash : 0);
  }
  snap.steps = s.service->steps();
  snap.dispatches = s.service->dispatches();
  return snap;
}

std::uint64_t combined_hash(const Snapshot& snap) {
  obs::Fnv1a h;
  for (const std::uint64_t v : snap.hash) h.update_u64(v);
  return h.digest();
}

// Each session's hash after the first unit against a direct conversion of
// its chunk, and the same unit replayed on a 1-lane service.
void first_unit_checks(const Options& opt, const Snapshot& first, Report& rep) {
  Setup one;
  make_setup(opt, 1, one);
  rep.check(serve_unit(one, nullptr), "1-lane service stalled");
  const Snapshot single = snapshot(one);
  rep.check(single.hash == first.hash && single.steps == first.steps &&
                single.dispatches == first.dispatches,
            "serve: 1-lane and " + std::to_string(opt.lanes) + "-lane units differ");
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& r = kRatios[i % std::size(kRatios)];
    rep.check(first.hash[i] == direct_hash(r[0], r[1], one.chunks[i], 1, nullptr),
              "serve: session " + std::to_string(i) + " hash differs from RationalSrc");
  }
}

// Conservation on every session after @p units units, and the whole
// stream of one session per rate pair against a direct conversion.
void stream_checks(const Setup& s, std::size_t units, Report& rep) {
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const serve::SessionStats* st = s.service->stats(s.ids[i]);
    rep.check(st != nullptr && st->converted_in == units * kChunk &&
                  st->accepted == st->converted_in && st->produced == st->pulled,
              "serve: session " + std::to_string(i) + " lost samples");
    if (st == nullptr) continue;
    rejected += st->push_rejected;
    if (i < std::size(kRatios)) {
      std::uint64_t produced = 0;
      const auto& r = kRatios[i];
      rep.check(st->output_hash == direct_hash(r[0], r[1], s.chunks[i], units, &produced) &&
                    st->produced == produced,
                "serve: session " + std::to_string(i) + " stream differs from RationalSrc");
    }
  }
  rep.counter("serve.push_rejected_per_unit", rejected / units);
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  Setup s;
  repeat_timed(5, rep.setup_s, [&] { make_setup(opt, opt.lanes, s); });
  std::vector<double> rates;
  std::optional<Snapshot> first;
  std::size_t units = 0;
  std::uint64_t steps = 0, dispatches = 0;
  const double t_end = now_s() + opt.seconds;
  do {
    const double w0 = now_s(), c0 = cpu_s();
    const std::uint64_t steps0 = s.service->steps(), disp0 = s.service->dispatches();
    const bool ok = serve_unit(s, nullptr);
    const double wall = now_s() - w0;
    rep.unit_s.push_back(wall);
    rep.unit_cpu_s.push_back(cpu_s() - c0);
    rates.push_back(static_cast<double>(kSessions * kChunk) / wall);
    ++units;
    if (!first) {
      first = snapshot(s);
      steps = s.service->steps() - steps0;
      dispatches = s.service->dispatches() - disp0;
    }
    rep.check(ok, "serve: service stalled");
    if (!ok) break;
  } while (now_s() < t_end);
  repeat_timed(4, rep.setup_s, [&] {
    Setup spare;
    make_setup(opt, opt.lanes, spare);
  });
  rep.counter("serve.steps_first_unit", steps);
  rep.counter("serve.dispatches_first_unit", dispatches);
  rep.counter("serve.first_unit.output_hash", combined_hash(*first));
  first_unit_checks(opt, *first, rep);
  stream_checks(s, units, rep);
  rep.named["serve_samples_per_s"] = {median(rates), "samples/s"};
}

void trace_serve(const Options& opt, Tracer& tracer, Report& rep) {
  Setup s;
  make_setup(opt, opt.lanes, s);
  tracer.set_workload("serve");
  const double w0 = now_s();
  const std::uint64_t steps0 = s.service->steps(), disp0 = s.service->dispatches();
  rep.check(serve_unit(s, &tracer), "serve: service stalled");
  const std::uint64_t steps = s.service->steps() - steps0;
  const std::uint64_t dispatches = s.service->dispatches() - disp0;
  rep.counter("serve.steps_first_unit", steps);
  rep.counter("serve.dispatches_first_unit", dispatches);
  rep.counter("serve.first_unit.output_hash", combined_hash(snapshot(s)));
  std::uint64_t rejected = 0;
  for (const auto id : s.ids)
    if (const auto* st = s.service->stats(id); st != nullptr) rejected += st->push_rejected;

  // The same inputs converted directly, without the service: separates
  // conversion from scheduling.
  const double convert_s = timed(&tracer, "dsp", "RationalSrc", [&] {
    for (std::size_t i = 0; i < kSessions; ++i) {
      const auto& r = kRatios[i % std::size(kRatios)];
      (void)direct_hash(r[0], r[1], s.chunks[i], 1, nullptr);
    }
  });
  rep.set_layer("trace.serve.traced_s", now_s() - w0, "s");

  std::vector<double> step_us;
  for (const Tracer::Span& sp : tracer.spans())
    if (sp.workload == "serve" && sp.layer == "serve.step") step_us.push_back(1e6 * sp.dur_s);
  rep.set_layer("serve.push_s", tracer.busy_s("serve", "serve.push"), "s");
  rep.set_layer("serve.step_s", tracer.busy_s("serve", "serve.step"), "s");
  rep.set_layer("serve.pull_s", tracer.busy_s("serve", "serve.pull"), "s");
  rep.set_layer("serve.step_us.p50", percentile(step_us, 0.5), "us");
  rep.set_layer("serve.step_us.p99", percentile(step_us, 0.99), "us");
  rep.set_layer("serve.steps", static_cast<double>(steps), "count");
  rep.set_layer("serve.dispatches", static_cast<double>(dispatches), "count");
  rep.set_layer("serve.push_rejected", static_cast<double>(rejected), "count");
  rep.set_layer("serve.samples_per_dispatch",
                static_cast<double>(kSessions * kChunk) / static_cast<double>(dispatches),
                "samples");
  rep.set_layer("dsp.convert_s", convert_s, "s");
}

}  // namespace flowbench
