// Shared main() for the google-benchmark binaries: adds a `--json FILE`
// convenience flag (for scripted runs and the EXPERIMENTS.md tables) on
// top of the standard benchmark flags; it expands to
// --benchmark_out=FILE --benchmark_out_format=json.  The per-mechanism
// observability counters each bench attaches via state.counters land in
// that JSON next to the timing numbers.  Every run stamps its provenance
// (git SHA via SCFLOW_GIT_REV, hostname, thread counts) into the
// benchmark context, so emitted BENCH_*.json artifacts are attributable.
//
// Also understands `--threads N` (or `--threads=N`): the worker-lane
// count the simulator benches pass to the sharded batch runner (0 = one
// lane per hardware thread, default 1).
//
// `--backend NAME` selects the gate-simulation engine for benches that
// support both ("interpreted" = event-driven GateSim, "compiled" =
// bit-parallel CompiledSim bytecode); `--repeat N` expands to
// --benchmark_repetitions=N so scripted runs can take a min-of-N against
// scheduler noise (the trajectory script's extraction does exactly that).
//
// `--ledger FILE` / `--trace FILE` turn on run telemetry: an obs::Session
// is created for the process, benches that support it route engine calls
// through its registry (see telemetry_session()), and the run ledger /
// Perfetto trace are written after the benchmarks finish.  Off by
// default — the pinned bench metrics measure the uninstrumented loop.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "obs/session.hpp"

namespace scflow::benchutil {

namespace detail {
inline unsigned& threads_slot() {
  static unsigned t = 1;
  return t;
}
inline std::string& backend_slot() {
  static std::string b = "interpreted";
  return b;
}
inline std::string& ledger_path_slot() {
  static std::string p;
  return p;
}
inline std::string& trace_path_slot() {
  static std::string p;
  return p;
}
inline std::unique_ptr<obs::Session>& session_slot() {
  static std::unique_ptr<obs::Session> s;
  return s;
}
}  // namespace detail

/// Lane count selected with --threads (1 when the flag is absent).
inline unsigned requested_threads() { return detail::threads_slot(); }

/// Engine name selected with --backend ("interpreted" when absent).
inline const std::string& requested_backend() { return detail::backend_slot(); }

/// The process-wide telemetry session, or nullptr when neither --ledger
/// nor --trace was given.  Benches pass its registry into engine calls so
/// ledger entries / histograms / spans accumulate across iterations.
inline obs::Session* telemetry_session() { return detail::session_slot().get(); }
/// Convenience: the session's registry, or nullptr when telemetry is off.
inline obs::Registry* telemetry_registry() {
  obs::Session* s = telemetry_session();
  return s != nullptr ? &s->registry : nullptr;
}

inline int run_benchmark_main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> expanded;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json" && i + 1 < args.size()) {
      expanded.push_back("--benchmark_out=" + args[++i]);
      expanded.push_back("--benchmark_out_format=json");
    } else if (args[i].rfind("--json=", 0) == 0) {
      expanded.push_back("--benchmark_out=" + args[i].substr(7));
      expanded.push_back("--benchmark_out_format=json");
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      detail::threads_slot() = static_cast<unsigned>(std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i].rfind("--threads=", 0) == 0) {
      detail::threads_slot() =
          static_cast<unsigned>(std::strtoul(args[i].c_str() + 10, nullptr, 10));
    } else if (args[i] == "--backend" && i + 1 < args.size()) {
      detail::backend_slot() = args[++i];
    } else if (args[i].rfind("--backend=", 0) == 0) {
      detail::backend_slot() = args[i].substr(10);
    } else if (args[i] == "--repeat" && i + 1 < args.size()) {
      expanded.push_back("--benchmark_repetitions=" + args[++i]);
    } else if (args[i].rfind("--repeat=", 0) == 0) {
      expanded.push_back("--benchmark_repetitions=" + args[i].substr(9));
    } else if (args[i] == "--ledger" && i + 1 < args.size()) {
      detail::ledger_path_slot() = args[++i];
    } else if (args[i].rfind("--ledger=", 0) == 0) {
      detail::ledger_path_slot() = args[i].substr(9);
    } else if (args[i] == "--trace" && i + 1 < args.size()) {
      detail::trace_path_slot() = args[++i];
    } else if (args[i].rfind("--trace=", 0) == 0) {
      detail::trace_path_slot() = args[i].substr(8);
    } else {
      expanded.push_back(args[i]);
    }
  }
  if (!detail::ledger_path_slot().empty() || !detail::trace_path_slot().empty())
    detail::session_slot() = std::make_unique<obs::Session>();

  std::vector<char*> cargs;
  cargs.reserve(expanded.size());
  for (auto& a : expanded) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;

  // Provenance stamp: lands in the "context" object of every --json
  // artifact, so committed BENCH_*.json snapshots say where they ran.
  const std::string tool = args.empty() ? "bench" : args[0];
  const obs::RunMetadata meta = obs::collect_run_metadata(tool);
  benchmark::AddCustomContext("scflow_rev", meta.rev);
  benchmark::AddCustomContext("scflow_host", meta.host);
  benchmark::AddCustomContext("scflow_hw_threads", std::to_string(meta.hw_threads));
  benchmark::AddCustomContext("scflow_threads", std::to_string(requested_threads()));
  benchmark::AddCustomContext("scflow_backend", requested_backend());

  benchmark::RunSpecifiedBenchmarks();

  if (obs::Session* s = telemetry_session(); s != nullptr) {
    s->ledger.meta = meta;
    if (!s->dump({}, detail::trace_path_slot(), detail::ledger_path_slot()))
      std::fprintf(stderr, "%s: failed to write telemetry artifacts\n", tool.c_str());
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace scflow::benchutil

#define SCFLOW_BENCHMARK_MAIN()                                              \
  int main(int argc, char** argv) {                                          \
    return scflow::benchutil::run_benchmark_main(argc, argv);                \
  }
