// Shared plumbing of the flowbench program: clocks, the span recorder the
// traced pass wraps around each layer call, and the per-run report every
// workload fills (timings, deterministic work counters, correctness
// checks, the simulated-statistics fingerprint and per-layer metrics).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace flowbench {

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the whole process (every lane thread included).
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0,1]).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Spans recorded around layer calls in the traced pass.  A span's self
/// time is its duration minus the time its children cover; children are
/// either nested scopes or durations a layer reports itself (registry
/// timers of the flow's own passes), attached with add_child().
class Tracer {
 public:
  struct Span {
    std::string workload;
    std::string layer;
    std::string name;
    double dur_s = 0.0;
    double child_s = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* t, std::string layer, std::string name) : t_(t) {
      if (t_ != nullptr) idx_ = t_->open(std::move(layer), std::move(name));
    }
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int index() const { return idx_; }

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  void set_workload(std::string w) { workload_ = std::move(w); }

  /// A child of span @p parent that the layer timed itself.
  void add_child(int parent, std::string layer, std::string name, double dur_s) {
    spans_.push_back({workload_, std::move(layer), std::move(name), dur_s, 0.0, parent});
    if (parent >= 0) spans_[static_cast<std::size_t>(parent)].child_s += dur_s;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed span durations of @p layer in @p workload (busy time).
  [[nodiscard]] double busy_s(const std::string& workload, const std::string& layer) const {
    double s = 0.0;
    for (const Span& sp : spans_)
      if (sp.workload == workload && sp.layer == layer) s += sp.dur_s;
    return s;
  }
  /// Summed self time of @p layer in @p workload.
  [[nodiscard]] double self_s(const std::string& workload, const std::string& layer) const {
    double s = 0.0;
    for (const Span& sp : spans_)
      if (sp.workload == workload && sp.layer == layer) s += sp.dur_s - sp.child_s;
    return s;
  }
  /// Time covered by the top-level spans of @p workload.
  [[nodiscard]] double covered_s(const std::string& workload) const {
    double s = 0.0;
    for (const Span& sp : spans_)
      if (sp.workload == workload && sp.parent < 0) s += sp.dur_s;
    return s;
  }

 private:
  int open(std::string layer, std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({workload_, std::move(layer), std::move(name), 0.0, 0.0, parent});
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    starts_.push_back(now_s());
    return idx;
  }
  void close(int idx) {
    const double dur = now_s() - starts_.back();
    starts_.pop_back();
    stack_.pop_back();
    Span& sp = spans_[static_cast<std::size_t>(idx)];
    sp.dur_s = dur;
    if (sp.parent >= 0) spans_[static_cast<std::size_t>(sp.parent)].child_s += dur;
  }

  std::string workload_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<double> starts_;
};

/// Runs f() @p n times and appends each run's wall time to @p out.  The
/// workloads call it before and after their timed units, so that the
/// median set-up samples two moments of the run.
template <typename F>
void repeat_timed(int n, std::vector<double>& out, F&& f) {
  for (int i = 0; i < n; ++i) {
    const double t0 = now_s();
    f();
    out.push_back(now_s() - t0);
  }
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Times f() and, when @p tracer is set, records it as a span.
template <typename F>
double timed(Tracer* tracer, const char* layer, const std::string& name, F&& f) {
  Tracer::Scope s(tracer, layer, name);
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Everything one workload run reports.
struct Report {
  std::vector<double> setup_s;     ///< one entry per repeated set-up
  std::vector<double> unit_s;      ///< wall seconds per closed-loop unit
  std::vector<double> unit_cpu_s;  ///< process CPU seconds per unit
  /// The workload's named end-to-end metrics (signoff_s, fig9_*, ...).
  std::map<std::string, Metric> named;
  /// Per-layer metrics of the traced pass.
  std::map<std::string, Metric> layer;
  /// Deterministic work counters; must repeat exactly for a given seed
  /// and lane count.
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void set_layer(const std::string& name, double value, const char* unit) {
    layer[name] = {value, unit};
  }
  /// Records a counter and checks that repeated units reproduce it.
  void counter(const std::string& name, std::uint64_t value) {
    auto [it, fresh] = counters.emplace(name, value);
    if (!fresh) check(it->second == value, "counter moved between units: " + name);
  }
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  unsigned lanes = 4;
};

/// splitmix64: derives independent sub-seeds from the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The workloads.  run_* performs the untraced measurement (repeated
/// set-ups around closed-loop units for opt.seconds, then the output
/// checks); trace_* runs one untraced and one traced unit, recording spans
/// into @p tracer and per-layer metrics into @p rep.
void run_signoff(const Options& opt, Report& rep);
void run_simulate(const Options& opt, Report& rep);
void run_serve(const Options& opt, Report& rep);
void trace_signoff(const Options& opt, Tracer& tracer, Report& rep);
void trace_simulate(const Options& opt, Tracer& tracer, Report& rep);
void trace_serve(const Options& opt, Tracer& tracer, Report& rep);

}  // namespace flowbench
