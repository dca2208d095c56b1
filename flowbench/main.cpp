// flowbench: runs one workload of the end-to-end benchmark and
// writes everything it measured as one JSON document.
//
//   flowbench --workload signoff|simulate|serve --seed N --seconds S
//             --lanes L --trace 0|1 --out FILE
//
// --trace 0 measures the workload untraced: repeated set-ups, closed-loop
// units for S seconds, then the output checks.  --trace 1 is the traced
// run: for every workload it runs one untraced and one traced unit,
// recording spans around each layer call, and reports the per-layer
// metrics, the self-time table and the tracing overhead.  flowbench/run.py
// builds this program and turns the document into the benchmark result.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/ledger.hpp"

namespace {

using flowbench::Report;
using flowbench::Tracer;

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) o += (i ? ", " : "") + json_num(v[i]);
  return o + "]";
}

std::string json_metrics(const std::map<std::string, flowbench::Metric>& m) {
  std::string o = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    o += (first ? "\n    " : ",\n    ") + json_str(k) + ": {\"value\": " + json_num(v.value) +
         ", \"unit\": " + json_str(v.unit) + "}";
    first = false;
  }
  return o + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// The layers of each workload's self-time table, in report order.
const std::map<std::string, std::vector<std::string>>& table_layers() {
  static const std::map<std::string, std::vector<std::string>> t = {
      {"signoff",
       {"flow", "hls", "rtl", "netlist", "netlist.lower", "netlist.opt", "netlist.scan",
        "formal", "fault", "hdlsim"}},
      {"simulate", {"core", "rtl", "hdlsim.gate", "hdlsim.compiled", "cosim", "hdlsim.batch"}},
      {"serve", {"serve.push", "serve.step", "serve.pull", "dsp"}},
  };
  return t;
}

std::string self_time_table(const Tracer& tracer, Report& rep) {
  std::string out = "workload  layer            self_s      busy_s\n";
  for (const auto& [w, layers] : table_layers()) {
    double self_sum = 0.0;
    for (const std::string& l : layers) {
      const double self = tracer.self_s(w, l), busy = tracer.busy_s(w, l);
      self_sum += self;
      rep.set_layer("self." + w + "." + l + "_s", self, "s");
      char line[160];
      std::snprintf(line, sizeof line, "%-9s %-16s %10.4f  %10.4f\n", w.c_str(), l.c_str(), self,
                    busy);
      out += line;
    }
    const double traced = rep.layer["trace." + w + ".traced_s"].value;
    const double remainder = traced - tracer.covered_s(w);
    rep.set_layer("self." + w + ".remainder_s", remainder, "s");
    char line[200];
    std::snprintf(line, sizeof line,
                  "%-9s %-16s %10.4f\n%-9s %-16s %10.4f  (layers + remainder = %.4f)\n",
                  w.c_str(), "(untraced)", remainder, w.c_str(), "traced unit", traced,
                  self_sum + remainder);
    out += line;
  }
  return out;
}

// Keeps every lane busy for @p seconds before anything is measured.  On
// the reference host (a 4-thread Xeon VM shared with other tenants) a
// fresh process's lane threads ran at a fraction of their later throughput
// for about the first second, and the first units of every workload took
// twice as long; this takes that ramp out of set-up and unit timings alike.
void warm_up(unsigned lanes, double seconds) {
  const double end = flowbench::now_s() + seconds;
  const auto spin = [end] {
    volatile std::uint64_t x = 0;
    while (flowbench::now_s() < end)
      for (int i = 0; i < 10000; ++i) x = x + 1;
  };
  std::vector<std::thread> threads;
  for (unsigned l = 1; l < lanes; ++l) threads.emplace_back(spin);
  spin();
  for (std::thread& t : threads) t.join();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_path;
  flowbench::Options opt;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--lanes") {
      opt.lanes = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (k == "--trace") {
      trace = v == "1";
    } else if (k == "--out") {
      out_path = v;
    } else {
      std::fprintf(stderr, "flowbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  const std::set<std::string> workloads = {"signoff", "simulate", "serve"};
  if (workloads.count(workload) == 0 || out_path.empty() || opt.lanes == 0) {
    std::fprintf(stderr,
                 "usage: flowbench --workload signoff|simulate|serve --seed N --seconds S "
                 "--lanes L --trace 0|1 --out FILE\n");
    return 2;
  }

  warm_up(opt.lanes, 2.0);
  Report rep;
  Tracer tracer;
  std::string table;
  try {
    if (!trace) {
      if (workload == "signoff") flowbench::run_signoff(opt, rep);
      if (workload == "simulate") flowbench::run_simulate(opt, rep);
      if (workload == "serve") flowbench::run_serve(opt, rep);
    } else {
      // Every per-layer metric and both overhead figures are measured in
      // each traced run, whichever workload it is named after.
      flowbench::trace_signoff(opt, tracer, rep);
      flowbench::trace_simulate(opt, tracer, rep);
      flowbench::trace_serve(opt, tracer, rep);
      table = self_time_table(tracer, rep);
    }
  } catch (const std::exception& e) {
    rep.check(false, std::string("uncaught exception: ") + e.what());
  }

  scflow::obs::Fnv1a fp;
  for (const auto& [k, v] : rep.counters) {
    fp.update_str(k);
    fp.update_u64(v);
  }
  char fp_hex[24];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx", static_cast<unsigned long long>(fp.digest()));

  std::string j = "{\n  \"workload\": " + json_str(workload) +
                  ",\n  \"seed\": " + std::to_string(opt.seed) +
                  ",\n  \"lanes\": " + std::to_string(opt.lanes) +
                  ",\n  \"trace\": " + (trace ? "1" : "0") +
                  ",\n  \"setup_s\": " + json_list(rep.setup_s) +
                  ",\n  \"unit_s\": " + json_list(rep.unit_s) +
                  ",\n  \"unit_cpu_s\": " + json_list(rep.unit_cpu_s) +
                  ",\n  \"peak_rss_mb\": " + json_num(peak_rss_mb()) +
                  ",\n  \"named\": " + json_metrics(rep.named) +
                  ",\n  \"layer\": " + json_metrics(rep.layer) + ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : rep.counters) {
    j += (first ? "\n    " : ",\n    ") + json_str(k) + ": " + std::to_string(v);
    first = false;
  }
  j += "},\n  \"fingerprint\": " + json_str(fp_hex) +
       ",\n  \"attempted\": " + std::to_string(rep.attempted) +
       ",\n  \"failed\": " + std::to_string(rep.failed) + ",\n  \"failures\": [";
  for (std::size_t i = 0; i < rep.failures.size(); ++i)
    j += (i ? ", " : "") + json_str(rep.failures[i]);
  j += "],\n  \"self_time_table\": " + json_str(table) + ",\n  \"spans\": [";
  // Every span of the traced pass, in the order opened; parent indexes this list.
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& sp = spans[i];
    j += std::string(i ? "," : "") + "\n    {\"workload\": " + json_str(sp.workload) +
         ", \"layer\": " + json_str(sp.layer) + ", \"name\": " + json_str(sp.name) +
         ", \"dur_s\": " + json_num(sp.dur_s) + ", \"self_s\": " + json_num(sp.dur_s - sp.child_s) +
         ", \"parent\": " + std::to_string(sp.parent) + "}";
  }
  j += "]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr || std::fputs(j.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "flowbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
