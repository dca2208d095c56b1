// Run-telemetry tests: the log2-bucketed Histogram (quantiles, merge
// associativity, JSON round trip), cross-thread span parent-linking
// through the BatchRunner, the run ledger's JSONL round trip + diff
// semantics, and the thread-sweep determinism contract (bit-identical
// ledger projections for any campaign lane count, timestamps excluded).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/campaign.hpp"
#include "hdlsim/batch_runner.hpp"
#include "netlist/lower.hpp"
#include "netlist/netlist.hpp"
#include "netlist/opt.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/session.hpp"
#include "rtl/builder.hpp"

namespace scflow::obs {
namespace {

// --- Histogram -----------------------------------------------------------

TEST(Histogram, ExactStatsAndBucketPlacement) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1000ull}) h.record(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1010.0 / 6.0);
  // Bucket b holds [2^(b-1), 2^b): 0->b0, 1->b1, {2,3}->b2, 4->b3, 1000->b10.
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  // Quantile endpoints are exact; interior quantiles stay within range.
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
  EXPECT_LE(h.p50(), 1000u);
  EXPECT_GE(h.p99(), h.p50());
}

TEST(Histogram, HandlesFullUint64Range) {
  Histogram h;
  h.record(~0ULL);
  h.record(1ULL << 63);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~0ULL);
  EXPECT_EQ(h.bucket(64), 2u);  // both land in the top bucket [2^63, 2^64)
  EXPECT_EQ(h.quantile(1.0), ~0ULL);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  // Three shards with a deterministic pseudo-random spread (xorshift).
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  Histogram a, b, c;
  for (int i = 0; i < 300; ++i) a.record(next() % 100000);
  for (int i = 0; i < 200; ++i) b.record(next() % 1000);
  for (int i = 0; i < 100; ++i) c.record(next());

  Histogram ab_c = a;  // (a + b) + c
  ab_c.merge_from(b);
  ab_c.merge_from(c);
  Histogram bc = b;  // a + (b + c)
  bc.merge_from(c);
  Histogram a_bc = a;
  a_bc.merge_from(bc);
  EXPECT_EQ(ab_c, a_bc);

  Histogram ba = b;  // commutes
  ba.merge_from(a);
  Histogram ab = a;
  ab.merge_from(b);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab_c.count(), 600u);
}

TEST(Histogram, JsonRoundTripIsExact) {
  Histogram h;
  for (std::uint64_t v : {0ull, 7ull, 8ull, 900ull, ~0ULL}) h.record(v);
  const std::string json = h.to_json();
  std::string err;
  EXPECT_TRUE(json_validate(json, &err)) << err << "\n" << json;

  Histogram back;
  ASSERT_TRUE(Histogram::from_json(json, &back)) << json;
  EXPECT_EQ(h, back);
  EXPECT_EQ(back.to_json(), json);  // stable fixed point

  Histogram junk;
  EXPECT_FALSE(Histogram::from_json("{\"count\":2}", &junk));  // bucket total mismatch
  EXPECT_FALSE(Histogram::from_json("[1,2]", &junk));
}

// --- spans across BatchRunner threads ------------------------------------

TEST(Spans, ParentLinkSurvivesBatchThreadHandoff) {
  Session session;
  constexpr std::size_t kJobs = 12;
  hdlsim::BatchRunner runner(4);
  runner.run(kJobs, [](std::size_t, unsigned) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });

  // The caller reserves the parent id BEFORE the fan-out it describes and
  // appends the parent span itself; record_into links every job span to it.
  const std::uint64_t root = session.spans.reserve_id();
  const std::uint64_t t0 = session.trace.now_ns();
  session.spans.add({root, 0, "campaign", "test", t0 > 1000000 ? t0 - 1000000 : 0,
                     session.trace.now_ns(), 0});
  runner.record_into(session, "batch", root);

  ASSERT_EQ(session.spans.size(), kJobs + 1);
  std::set<std::uint64_t> ids;
  for (const Span& s : session.spans.spans()) {
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id " << s.id;
    if (s.id != root) {
      EXPECT_EQ(s.parent_id, root);
      EXPECT_LE(s.start_ns, s.end_ns);
    }
  }

  const std::string json = session.trace.to_json();
  std::string err;
  EXPECT_TRUE(json_validate(json, &err)) << err;
  // One complete slice per span + one Perfetto flow pair per parent link.
  auto count_of = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count_of("\"ph\":\"s\""), kJobs);  // flow starts (at the parent)
  EXPECT_EQ(count_of("\"ph\":\"f\""), kJobs);  // flow ends (at each job)
  EXPECT_GE(count_of("\"ph\":\"X\""), kJobs + 1);

  // The histogram recorded one latency per job.
  ASSERT_NE(session.registry.histogram("batch.job_ns"), nullptr);
  EXPECT_EQ(session.registry.histogram("batch.job_ns")->count(), kJobs);
}

// --- ledger JSONL round trip + diff --------------------------------------

LedgerEntry make_entry(const char* phase, const char* design, std::uint64_t salt) {
  LedgerEntry e;
  e.phase = phase;
  e.design = design;
  e.input_hash = 0x1111000000000000ULL + salt;
  e.options_fingerprint = 0x2222000000000000ULL + salt;
  e.duration_ns = 123456 + salt;  // timing: excluded from diff gating
  e.add_counter("cells", 100 + salt);
  e.add_counter("setup_ns", 999 + salt);  // timing counter: also excluded
  e.add_gauge("coverage_pct", 87.5);
  Histogram h;
  for (std::uint64_t v = 0; v < 20; ++v) h.record(v * v + salt);
  e.add_histogram("fault_cycles", h);
  return e;
}

TEST(Ledger, JsonlRoundTripPreservesEverything) {
  Ledger ledger;
  ledger.meta = collect_run_metadata("test_ledger");
  ledger.append(make_entry("synth", "rtl_opt", 0));
  ledger.append(make_entry("fault", "rtl_opt.scan", 1));
  ledger.append(make_entry("fault", "rtl_opt.scan", 2));  // same key, 2nd occurrence

  const std::string path = ::testing::TempDir() + "ledger_roundtrip.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(ledger.write(path));

  LoadedLedger back;
  std::string err;
  ASSERT_TRUE(load_ledger(path, &back, &err)) << err;
  EXPECT_EQ(back.meta.tool, "test_ledger");
  ASSERT_EQ(back.entries.size(), 3u);
  EXPECT_EQ(back.entries[0].phase, "synth");
  EXPECT_EQ(back.entries[0].input_hash, ledger.entries()[0].input_hash);
  EXPECT_EQ(back.entries[0].counter("cells"), 100u);
  ASSERT_EQ(back.entries[0].histograms.size(), 1u);
  EXPECT_EQ(back.entries[0].histograms[0].second, ledger.entries()[0].histograms[0].second);
  // The parsed entries serialize back to the identical lines.
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(back.entries[i].to_json(), ledger.entries()[i].to_json());
  std::remove(path.c_str());
}

TEST(Ledger, AppendSharesOneHeader) {
  const std::string path = ::testing::TempDir() + "ledger_append.jsonl";
  std::remove(path.c_str());
  Ledger first;
  first.meta = collect_run_metadata("tool_a");
  first.append(make_entry("flow.level", "cpp", 0));
  ASSERT_TRUE(first.write(path, /*append=*/true));  // empty file: header written
  Ledger second;
  second.meta = collect_run_metadata("tool_b");
  second.append(make_entry("synth", "rtl_opt", 0));
  ASSERT_TRUE(second.write(path, /*append=*/true));  // non-empty: header skipped

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0, headers = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.find("\"schema\":\"scflow-ledger-1\"") != std::string::npos) ++headers;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(headers, 1u);

  LoadedLedger merged;
  std::string err;
  ASSERT_TRUE(load_ledger(path, &merged, &err)) << err;
  EXPECT_EQ(merged.meta.tool, "tool_a");  // first header wins
  ASSERT_EQ(merged.entries.size(), 2u);
  EXPECT_EQ(merged.entries[1].phase, "synth");
  std::remove(path.c_str());
}

TEST(Ledger, DiffIgnoresTimingButGatesOnCounters) {
  LoadedLedger a, b;
  a.entries.push_back(make_entry("synth", "rtl_opt", 0));
  b.entries.push_back(make_entry("synth", "rtl_opt", 0));
  // Timing drift only: still clean, reported informationally.
  b.entries[0].duration_ns += 999999;
  b.entries[0].counters[1].second = 1;  // "setup_ns"
  LedgerDiff d = diff_ledgers(a, b);
  EXPECT_TRUE(d.clean()) << format_diff(d);
  EXPECT_EQ(d.timing_only.size(), 2u);

  // A real counter delta gates.
  b.entries[0].counters[0].second = 101;  // "cells"
  d = diff_ledgers(a, b);
  EXPECT_FALSE(d.clean());
  ASSERT_EQ(d.deltas.size(), 1u);
  EXPECT_EQ(d.deltas[0].metric, "cells");
  EXPECT_EQ(d.deltas[0].entry, "synth/rtl_opt");
  EXPECT_NE(format_diff(d).find("cells"), std::string::npos);

  // Unmatched entries gate too.
  b.entries[0].counters[0].second = 100;
  b.entries.push_back(make_entry("fault", "extra", 0));
  d = diff_ledgers(a, b);
  EXPECT_FALSE(d.clean());
  ASSERT_EQ(d.only_b.size(), 1u);
  EXPECT_EQ(d.only_b[0], "fault/extra");
}

TEST(Ledger, FormattersRenderLoadedLedgers) {
  LoadedLedger led;
  led.meta = collect_run_metadata("fmt");
  led.entries.push_back(make_entry("synth", "rtl_opt", 0));
  led.entries.push_back(make_entry("fault", "rtl_opt.scan", 1));
  const std::string table = format_ledger_table(led);
  EXPECT_NE(table.find("synth"), std::string::npos);
  EXPECT_NE(table.find("rtl_opt"), std::string::npos);
  const std::string hists = format_ledger_histograms(led);
  EXPECT_NE(hists.find("fault_cycles"), std::string::npos);
  EXPECT_NE(hists.find("n=20"), std::string::npos);
}

TEST(Ledger, IsTimingMetricRule) {
  EXPECT_TRUE(is_timing_metric("duration_ns"));
  EXPECT_TRUE(is_timing_metric("job_ns"));
  EXPECT_TRUE(is_timing_metric("batch.job_ns"));
  EXPECT_FALSE(is_timing_metric("cells"));
  EXPECT_FALSE(is_timing_metric("ns_total"));
  EXPECT_FALSE(is_timing_metric("_ns" + std::string("x")));
}

// --- registry integration -------------------------------------------------

TEST(Registry, ReportCarriesHistogramsAndSchemaV2) {
  Registry r;
  r.record_value("lat_ns", 100);
  r.record_value("lat_ns", 200);
  r.set_gauge("bad", std::numeric_limits<double>::quiet_NaN());
  r.set_gauge("worse", std::numeric_limits<double>::infinity());
  const std::string json = r.report_json();
  std::string err;
  EXPECT_TRUE(json_validate(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"schema\":\"scflow-obs-2\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"lat_ns\""), std::string::npos);
  // Non-finite gauges must not produce invalid JSON tokens like nan/inf.
  EXPECT_NE(json.find("\"bad\":null"), std::string::npos);
  EXPECT_NE(json.find("\"worse\":null"), std::string::npos);
}

TEST(Registry, MergePrefixesHistograms) {
  Registry a, b;
  b.record_value("job_ns", 5);
  b.record_value("job_ns", 50);
  a.merge_from(b, "sub");
  ASSERT_NE(a.histogram("sub.job_ns"), nullptr);
  EXPECT_EQ(a.histogram("sub.job_ns")->count(), 2u);
  EXPECT_EQ(a.histogram("job_ns"), nullptr);
}

// --- thread-sweep determinism of the fault campaign ledger ----------------

nl::Netlist scan_accumulator() {
  rtl::DesignBuilder b("swp");
  auto x = b.input("x", 8);
  auto y = b.input("y", 8);
  auto acc = b.reg("acc", 8, 3);
  b.assign_always(acc, b.add(acc.q, b.and_(x, y)));
  b.output("sum", b.add(x, y));
  b.output("acc", acc.q);
  nl::Netlist g = nl::optimize_gates(nl::lower_to_gates(b.finalise()));
  nl::insert_scan_chain(g);
  return g;
}

TEST(Ledger, FaultCampaignLedgerIsBitIdenticalAcrossThreadCounts) {
  const nl::Netlist scan = scan_accumulator();
  std::string reference;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    obs::Session session;
    fault::CampaignOptions opt;
    opt.max_faults = 24;
    opt.threads = threads;
    const fault::CampaignResult r = fault::run_campaign(scan, opt, &session);
    EXPECT_GT(r.detected, 0u);
    ASSERT_EQ(session.ledger.size(), 1u);
    // The strip-timing projection removes duration + "*_ns" metrics; what
    // remains (hashes, fingerprints, counters, coverage, the per-fault
    // cycle histogram) must not depend on the lane count.
    const std::string img = session.ledger.entries()[0].to_json(/*strip_timing=*/true);
    if (reference.empty()) {
      reference = img;
      EXPECT_NE(img.find("\"phase\":\"fault\""), std::string::npos) << img;
      EXPECT_NE(img.find("fault_cycles"), std::string::npos) << img;
    } else {
      EXPECT_EQ(img, reference) << "threads=" << threads;
    }
  }
}

// --- lenient parsing of damaged ledgers ----------------------------------
//
// A crashed run leaves a byte-truncated tail; bit rot flips characters
// mid-file.  Strict loads must fail with the line number; lenient loads
// (skip_malformed) must salvage every intact entry and report each
// damaged line so `scflow_report validate` can render the damage.

std::string write_three_entry_ledger(const std::string& path) {
  Ledger ledger;
  ledger.meta = collect_run_metadata("test_ledger");
  ledger.append(make_entry("synth", "a", 0));
  ledger.append(make_entry("fault", "b", 1));
  ledger.append(make_entry("cosim", "c", 2));
  std::remove(path.c_str());
  EXPECT_TRUE(ledger.write(path));
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(LedgerCorruption, ByteTruncatedTailIsSkippedWithLineNumber) {
  const std::string path = ::testing::TempDir() + "ledger_truncated.jsonl";
  const std::string text = write_three_entry_ledger(path);
  // Chop the file mid-way through the LAST entry's JSON.
  const std::size_t cut = text.rfind("\"phase\":\"cosim\"");
  ASSERT_NE(cut, std::string::npos);
  write_raw(path, text.substr(0, cut + 20));

  LoadedLedger strict;
  std::string err;
  EXPECT_FALSE(load_ledger(path, &strict, &err));
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;

  LoadedLedger lenient;
  err.clear();
  ASSERT_TRUE(load_ledger(path, &lenient, &err, /*skip_malformed=*/true)) << err;
  EXPECT_EQ(lenient.entries.size(), 2u);  // intact entries salvaged
  ASSERT_EQ(lenient.malformed.size(), 1u);
  EXPECT_EQ(lenient.malformed[0].line_no, 4u);
  EXPECT_FALSE(lenient.malformed[0].error.empty());
  std::remove(path.c_str());
}

TEST(LedgerCorruption, BitFlippedMiddleLineIsSkippedOthersSurvive) {
  const std::string path = ::testing::TempDir() + "ledger_bitflip.jsonl";
  std::string text = write_three_entry_ledger(path);
  // Corrupt line 3 (the second entry): flip its opening brace.
  std::size_t pos = 0;
  for (int nl = 0; nl < 2; ++nl) pos = text.find('\n', pos) + 1;
  ASSERT_EQ(text[pos], '{');
  text[pos] = '[';
  write_raw(path, text);

  LoadedLedger lenient;
  std::string err;
  ASSERT_TRUE(load_ledger(path, &lenient, &err, /*skip_malformed=*/true)) << err;
  ASSERT_EQ(lenient.entries.size(), 2u);
  EXPECT_EQ(lenient.entries[0].phase, "synth");
  EXPECT_EQ(lenient.entries[1].phase, "cosim");  // the entry AFTER the damage
  ASSERT_EQ(lenient.malformed.size(), 1u);
  EXPECT_EQ(lenient.malformed[0].line_no, 3u);

  LoadedLedger strict;
  err.clear();
  EXPECT_FALSE(load_ledger(path, &strict, &err));
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(LedgerCorruption, MissingHeaderReportedAtFileLevel) {
  const std::string path = ::testing::TempDir() + "ledger_noheader.jsonl";
  const std::string text = write_three_entry_ledger(path);
  write_raw(path, text.substr(text.find('\n') + 1));  // drop the header line

  LoadedLedger strict;
  std::string err;
  EXPECT_FALSE(load_ledger(path, &strict, &err));

  LoadedLedger lenient;
  err.clear();
  ASSERT_TRUE(load_ledger(path, &lenient, &err, /*skip_malformed=*/true)) << err;
  EXPECT_EQ(lenient.entries.size(), 3u);  // entries are intact
  ASSERT_EQ(lenient.malformed.size(), 1u);
  EXPECT_EQ(lenient.malformed[0].line_no, 0u);  // file-level problem
  EXPECT_NE(lenient.malformed[0].error.find("header"), std::string::npos);
  std::remove(path.c_str());
}

// --- exact uint64 JSON parsing (the hash fields need all 64 bits) ---------

TEST(JsonParse, PreservesFullUint64Precision) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse("{\"h\":18446744073709551615,\"d\":2.5}", &v, &err)) << err;
  const JsonValue* h = v.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->as_u64(0), ~0ULL);
  const JsonValue* d = v.find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->as_double(0.0), 2.5);
}

}  // namespace
}  // namespace scflow::obs
