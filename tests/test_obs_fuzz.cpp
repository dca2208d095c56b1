// Seeded mutation fuzzing of the obs layer's readers: the JSON grammar
// (json_parse / json_validate) and the ledger reader (parse_ledger).  The
// seed corpus is the real artifacts of a small fault-campaign run (ledger
// JSONL, registry report, Perfetto trace) plus one document dense in
// string escapes; mutants are truncations, bit flips and splices.  The
// contract is "diagnostic, never a crash, never UB" — the ASan+UBSan lane
// runs this suite like the rest of ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "mutants.hpp"
#include "netlist/lower.hpp"
#include "netlist/netlist.hpp"
#include "netlist/opt.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/session.hpp"
#include "rtl/builder.hpp"

namespace scflow::obs {
namespace {

using fuzz::flip_bits;
using fuzz::splice;

// Lines as parse_ledger numbers them: split at '\n', a final piece
// without one included.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

struct Corpus {
  std::string ledger;             // JSONL: header + one line per entry
  std::vector<std::string> docs;  // the ledger's lines, report, trace, escapes
};

// A scan campaign and its pre-scan twin, recorded into one session.
const Corpus& corpus() {
  static const Corpus c = [] {
    rtl::DesignBuilder b("fz");
    auto x = b.input("x", 6);
    auto y = b.input("y", 6);
    auto acc = b.reg("acc", 6, 1);
    b.assign_always(acc, b.add(acc.q, b.and_(x, y)));
    b.output("sum", b.add(x, y));
    b.output("acc", acc.q);
    const nl::Netlist noscan = nl::optimize_gates(nl::lower_to_gates(b.finalise()));
    nl::Netlist scan = noscan;
    nl::insert_scan_chain(scan);

    Session session;
    session.ledger.meta = collect_run_metadata("test_obs_fuzz");
    fault::CampaignOptions opt;
    opt.max_faults = 16;
    opt.functional_cycles = 12;
    opt.threads = 2;
    (void)fault::run_campaign(scan, opt, &session);
    opt.use_scan = false;
    (void)fault::run_campaign(noscan, opt, &session);
    session.spans.export_to(session.trace);

    Corpus out;
    out.ledger = session.ledger.to_jsonl();
    out.docs = split_lines(out.ledger);
    out.docs.push_back(session.registry.report_json());
    out.docs.push_back(session.trace.to_json());
    out.docs.push_back("{\"ctl\":\"" + json_escape("a\x01\x1f\n\t\"\\") +
                       "\",\"pair\":\"\\ud83d\\ude00\",\"lone\":\"\\ud83d\\u0041\","
                       "\"n\":[-0.5e+3,0,18446744073709551615,1E-2,true,false,null]}");
    return out;
  }();
  return c;
}

// Both entry points give one verdict; a rejection names an offset inside
// the text.  Returns the verdict.
bool json_verdict(const std::string& text) {
  JsonValue v;
  std::string perr, verr;
  const bool parsed = json_parse(text, &v, &perr);
  EXPECT_EQ(parsed, json_validate(text, &verr)) << text;
  EXPECT_EQ(perr, verr) << text;
  if (!parsed) {
    const std::size_t at = perr.rfind(" at offset ");
    EXPECT_NE(at, std::string::npos) << perr;
    if (at != std::string::npos) {
      EXPECT_LE(std::stoul(perr.substr(at + 11)), text.size()) << perr;
    }
  }
  return parsed;
}

TEST(JsonFuzz, CorpusParsesAndStitchesSurrogatePairs) {
  for (const std::string& d : corpus().docs) EXPECT_TRUE(json_verdict(d)) << d;
  JsonValue v;
  ASSERT_TRUE(json_parse(corpus().docs.back(), &v));
  // A lone high surrogate stays a 3-byte code point before the next escape.
  EXPECT_EQ(v.find("pair")->as_string(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(v.find("lone")->as_string(), "\xED\xA0\xBD" "A");
}

// A prefix of an object document that stops before its closing brace is
// rejected.
TEST(JsonFuzz, TruncatedArtifactsAreRejected) {
  std::mt19937_64 rng(0x0b5f022);
  for (const std::string& d : corpus().docs) {
    const std::size_t close = d.find_last_not_of(" \t\r\n");
    ASSERT_EQ(d[close], '}');
    for (int i = 0; i < 400; ++i) EXPECT_FALSE(json_verdict(d.substr(0, rng() % (close + 1))));
  }
}

TEST(JsonFuzz, BitFlipAndSpliceMutantsGetOneLocatedVerdict) {
  std::mt19937_64 rng(0x0b5f023);
  const std::vector<std::string>& docs = corpus().docs;
  std::size_t accepted = 0, total = 0;
  for (const std::string& d : docs)
    for (int i = 0; i < 400; ++i, ++total) accepted += json_verdict(flip_bits(d, rng));
  for (int i = 0; i < 2000; ++i, ++total)
    accepted += json_verdict(splice(docs[rng() % docs.size()], docs[rng() % docs.size()], rng));
  // Both verdicts occur: a flip inside a string or digit run survives, a
  // flip of structure does not.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, total);
}

TEST(JsonFuzz, DeepNestingIsADiagnosticNotAStackOverflow) {
  std::string err;
  EXPECT_FALSE(json_validate(std::string(100000, '[') + std::string(100000, ']'), &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

// Lenient and strict reads of one mutant agree: strict succeeds exactly
// when lenient found no damage (then with the same entries), and
// otherwise fails with lenient's first finding.  Every entry line that
// came through unchanged is still read as an entry.
void check_ledger_mutant(const std::string& m, const std::vector<std::string>& entry_lines) {
  LoadedLedger lenient;
  ASSERT_TRUE(parse_ledger(m, &lenient, nullptr, /*skip_malformed=*/true));
  const std::vector<std::string> lines = split_lines(m);
  for (const MalformedLine& bad : lenient.malformed) {
    ASSERT_LE(bad.line_no, lines.size());
    ASSERT_FALSE(bad.error.empty());
    ASSERT_TRUE(bad.line_no == 0 || !lines[bad.line_no - 1].empty());
  }
  std::size_t intact = 0;
  for (const std::string& l : lines)
    for (const std::string& e : entry_lines) intact += l == e ? 1 : 0;
  ASSERT_GE(lenient.entries.size(), intact) << m;

  LoadedLedger strict;
  std::string err;
  ASSERT_EQ(parse_ledger(m, &strict, &err), lenient.malformed.empty()) << err;
  if (lenient.malformed.empty()) {
    ASSERT_EQ(strict.entries.size(), lenient.entries.size());
    for (std::size_t i = 0; i < strict.entries.size(); ++i)
      ASSERT_EQ(strict.entries[i].to_json(), lenient.entries[i].to_json());
  } else {
    const MalformedLine& first = lenient.malformed.front();
    ASSERT_EQ(err, first.line_no == 0
                       ? first.error
                       : "line " + std::to_string(first.line_no) + ": " + first.error);
  }
}

TEST(LedgerFuzz, LenientReadReportsDamagedLinesAndKeepsIntactOnes) {
  const Corpus& c = corpus();
  std::vector<std::string> entry_lines = split_lines(c.ledger);
  entry_lines.erase(entry_lines.begin());  // the header
  ASSERT_EQ(entry_lines.size(), 2u);
  check_ledger_mutant(c.ledger, entry_lines);
  std::mt19937_64 rng(0x0b5f024);
  for (int i = 0; i < 300; ++i) {
    check_ledger_mutant(c.ledger.substr(0, rng() % c.ledger.size()), entry_lines);
    check_ledger_mutant(flip_bits(c.ledger, rng), entry_lines);
    // Splices within the ledger (a partial write, then a rerun's append)
    // and with the other artifacts (the wrong file handed in).
    const std::string& other = i % 2 == 0 ? c.ledger : c.docs[rng() % c.docs.size()];
    check_ledger_mutant(splice(c.ledger, other, rng), entry_lines);
    check_ledger_mutant(splice(other, c.ledger, rng), entry_lines);
  }
}

}  // namespace
}  // namespace scflow::obs
