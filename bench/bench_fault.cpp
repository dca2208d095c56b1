// Stuck-at fault campaigns over the five Fig. 10 gate-level designs:
// each design's collapsed fault list is simulated twice — once against the
// scan-inserted synthesis endpoint (scan patterns driven through the
// chain) and once against the pre-scan twin — and the coverage delta is
// reported as the testability value of scan insertion.
//
// `--json FILE` writes the unified scflow-obs-2 report: per-design
// "fault.<design>.scan.*" / ".noscan.*" counters (population, detected,
// budget-degraded, oscillating, faulty cycles) plus the batch-runner lane
// timelines.  `--threads N` sets the campaign lane count (coverage numbers
// are bit-identical for any N — that determinism is itself under test in
// the tier-1 suite).  `--faults N` bounds the sampled faults per design.
// Every good-machine reference runs on the event-driven GateSim.
//
// `--trace FILE` / `--ledger FILE` turn on run telemetry: campaign root
// spans with per-fault batch jobs hanging off them land in a Perfetto
// trace (chrome://tracing / ui.perfetto.dev), and each campaign appends
// one run-ledger entry (counters, coverage, per-fault cycle histogram).
//
// `--engine event-driven|ppsfp` selects the campaign engine (PPSFP packs
// 64 faults per compiled run and drops each at its first detection).
// `--gbench-json FILE` emits a Google-Benchmark-shaped JSON with one
// "fault_<design>" entry per design carrying `faults_per_s` — the
// trajectory metric scripts/bench_compare.py ratchets; `--repeat N` reruns
// the whole five-design sweep N times so the ratchet can take the max.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "flow/synthesis_flow.hpp"
#include "obs/session.hpp"

namespace {

// Registry-friendly slug of an AreaRow label ("RTL opt." -> "rtl_opt"),
// matching the fig10.<slug> metric names.
std::string row_slug(const std::string& label) {
  std::string s;
  for (char c : label) {
    if (c == '.') continue;
    if (c == ' ' || c == '-') {
      if (!s.empty() && s.back() != '_') s.push_back('_');
      continue;
    }
    s.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return s;
}

// One gbench "iteration" entry per (design, repeat): name "fault_<slug>",
// counter faults_per_s = faults simulated across the scan+noscan pair per
// wall second.  The shape matches what scripts/bench_compare.py folds
// (best-of-repeats per name, then pin comparison).
bool write_gbench_json(const std::string& path,
                       const std::vector<std::vector<scflow::flow::AreaRow>>& sweeps,
                       const std::string& engine, unsigned threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"context\": {\"engine\": \"%s\", \"threads\": %u},\n",
               engine.c_str(), threads);
  std::fprintf(f, "  \"benchmarks\": [\n");
  bool first = true;
  for (const auto& rows : sweeps) {
    for (const auto& r : rows) {
      const double wall_ns = static_cast<double>(r.fault_wall_ns);
      if (wall_ns <= 0.0) continue;
      // scan + noscan each simulate the list once -> 2x faults per pair.
      const double fps = 2.0 * static_cast<double>(r.faults_simulated) /
                         (wall_ns / 1e9);
      if (!first) std::fprintf(f, ",\n");
      first = false;
      std::fprintf(f,
                   "    {\"name\": \"fault_%s\", \"run_type\": \"iteration\", "
                   "\"iterations\": 1, \"real_time\": %.1f, \"cpu_time\": %.1f, "
                   "\"time_unit\": \"ns\", \"faults_per_s\": %.3f}",
                   row_slug(r.name).c_str(), wall_ns, wall_ns, fps);
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, trace_path, ledger_path, gbench_path;
  std::string engine = "event-driven";
  unsigned threads = 1;
  std::size_t max_faults = 120;
  int repeat = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--ledger") == 0 && i + 1 < argc) {
      ledger_path = argv[++i];
    } else if (std::strncmp(argv[i], "--ledger=", 9) == 0) {
      ledger_path = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<unsigned>(std::strtoul(argv[i] + 10, nullptr, 10));
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      max_faults = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      max_faults = std::strtoul(argv[i] + 9, nullptr, 10);
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      engine = argv[++i];
    } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      engine = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--gbench-json") == 0 && i + 1 < argc) {
      gbench_path = argv[++i];
    } else if (std::strncmp(argv[i], "--gbench-json=", 14) == 0) {
      gbench_path = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max(1, static_cast<int>(std::strtol(argv[++i], nullptr, 10)));
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::max(1, static_cast<int>(std::strtol(argv[i] + 9, nullptr, 10)));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json FILE] [--trace FILE] [--ledger FILE] "
                   "[--threads N] [--faults N] "
                   "[--engine event-driven|ppsfp] "
                   "[--gbench-json FILE] [--repeat N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (engine != "event-driven" && engine != "ppsfp") {
    std::fprintf(stderr, "error: unknown --engine '%s' (event-driven|ppsfp)\n",
                 engine.c_str());
    return 2;
  }

  scflow::obs::Session session;
  // Spans, histograms and ledger entries only when asked for: the default
  // run keeps the campaign loop uninstrumented (counters still accrue in
  // the registry — they always did).
  const bool telemetry = !trace_path.empty() || !ledger_path.empty();
  scflow::flow::FaultOptions fopt;
  fopt.run = true;
  fopt.campaign.max_faults = max_faults;
  fopt.campaign.threads = threads;
  fopt.campaign.engine = engine == "ppsfp"
                             ? scflow::fault::CampaignOptions::Engine::kPpsfp
                             : scflow::fault::CampaignOptions::Engine::kEventDriven;
  fopt.session = telemetry ? &session : nullptr;
  std::vector<std::vector<scflow::flow::AreaRow>> sweeps;
  for (int rep = 0; rep < repeat; ++rep)
    sweeps.push_back(scflow::flow::figure10_area_rows(&session.registry, {}, fopt));
  const auto& rows = sweeps.front();
  std::printf("%s", scflow::flow::format_fault_table(rows).c_str());

  bool scan_helps_everywhere = true;
  for (const auto& r : rows)
    if (r.scan_coverage_pct < r.noscan_coverage_pct) scan_helps_everywhere = false;
  std::printf("\nscan coverage >= no-scan on every design: %s\n",
              scan_helps_everywhere ? "yes" : "NO");

  if (!gbench_path.empty()) {
    if (!write_gbench_json(gbench_path, sweeps, engine, threads)) {
      std::fprintf(stderr, "error: cannot write %s\n", gbench_path.c_str());
      return 1;
    }
    std::printf("gbench json: %s\n", gbench_path.c_str());
  }

  if (!json_path.empty() || telemetry) {
    session.ledger.meta = scflow::obs::collect_run_metadata(argv[0]);
    if (!session.dump(json_path, trace_path, ledger_path)) {
      std::fprintf(stderr, "error: cannot write telemetry artifacts\n");
      return 1;
    }
    if (!json_path.empty()) std::printf("metrics report: %s\n", json_path.c_str());
    if (!trace_path.empty()) std::printf("perfetto trace: %s\n", trace_path.c_str());
    if (!ledger_path.empty()) std::printf("run ledger: %s\n", ledger_path.c_str());
  }
  return scan_helps_everywhere ? 0 : 1;
}
