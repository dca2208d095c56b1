// Verilog writer/parser tests: structural round-trip preserving behaviour,
// and sanity of the behavioural RTL writer output.
#include <gtest/gtest.h>

#include <random>

#include "formal/cec.hpp"
#include "hdlsim/gate_sim.hpp"
#include "netlist/lower.hpp"
#include "rtl/builder.hpp"
#include "rtl/src_design.hpp"
#include "verilog/parser.hpp"
#include "verilog/writer.hpp"

namespace scflow::vlog {
namespace {

rtl::Design small_design() {
  rtl::DesignBuilder b("tiny");
  auto x = b.input("x", 8);
  auto y = b.input("y", 8);
  auto acc = b.reg("acc", 8, 3);
  b.assign_always(acc, b.add(acc.q, b.and_(x, y)));
  b.output("sum", b.add(x, y));
  b.output("acc", acc.q);
  return b.finalise();
}

TEST(VerilogWriter, StructuralContainsModuleAndGates) {
  const auto gates = nl::lower_to_gates(small_design());
  const std::string v = write_structural(gates);
  EXPECT_NE(v.find("module tiny"), std::string::npos);
  EXPECT_NE(v.find("XOR2"), std::string::npos);
  EXPECT_NE(v.find("DFF"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(VerilogWriter, BehaviouralContainsAlwaysBlock) {
  const std::string v = write_behavioural(small_design());
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("acc_q <="), std::string::npos);
  EXPECT_NE(v.find("output [7:0] sum"), std::string::npos);
}

TEST(VerilogRoundtrip, ParsedNetlistMatchesOriginalBehaviour) {
  const auto gates = nl::lower_to_gates(small_design());
  const std::string text = write_structural(gates);
  const nl::Netlist parsed = parse_structural(text);
  EXPECT_EQ(parsed.cells().size(), gates.cells().size());
  EXPECT_EQ(parsed.name(), gates.name());

  hdlsim::GateSim a(gates), b(parsed);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t xv = rng() & 0xff, yv = rng() & 0xff;
    a.set_input("x", xv);
    b.set_input("x", xv);
    a.set_input("y", yv);
    b.set_input("y", yv);
    a.step();
    b.step();
    a.settle();
    b.settle();
    ASSERT_EQ(a.output("sum"), b.output("sum"));
    ASSERT_EQ(a.output("acc"), b.output("acc"));
  }
}

TEST(VerilogRoundtrip, ScanChainSurvives) {
  auto gates = nl::lower_to_gates(small_design());
  nl::insert_scan_chain(gates);
  const nl::Netlist parsed = parse_structural(write_structural(gates));
  std::size_t sdffs = 0;
  for (const auto& c : parsed.cells())
    if (c.type == nl::CellType::kSdff) ++sdffs;
  EXPECT_EQ(sdffs, 8u);
  EXPECT_NE(parsed.find_input("scan_in"), nullptr);
  EXPECT_NE(parsed.find_output("scan_out"), nullptr);
}

TEST(VerilogRoundtrip, FullSrcNetlistParses) {
  const auto gates = nl::lower_to_gates(
      rtl::build_src_design(rtl::rtl_opt_config()));
  const nl::Netlist parsed = parse_structural(write_structural(gates));
  EXPECT_EQ(parsed.cells().size(), gates.cells().size());
}

// The formal round-trip guarantee: emit, re-parse, re-emit, re-parse —
// every stage must be CEC-equivalent to the original, which requires the
// writer/parser to carry flop provenance names through as instance names.
TEST(VerilogRoundtrip, ReParsedNetlistIsCecEquivalent) {
  const auto gates = nl::lower_to_gates(small_design());
  const nl::Netlist parsed = parse_structural(write_structural(gates));
  // Flop provenance survived the trip (needed for boundary pairing).
  std::size_t named_flops = 0;
  for (const auto& c : parsed.cells())
    if (nl::cell_is_sequential(c.type) && !c.name.empty()) ++named_flops;
  EXPECT_EQ(named_flops, 8u);

  formal::assert_equivalent(gates, parsed);
  const nl::Netlist reparsed = parse_structural(write_structural(parsed));
  formal::assert_equivalent(parsed, reparsed);
  formal::assert_equivalent(gates, reparsed);
}

TEST(VerilogRoundtrip, ScanNetlistCecEquivalentAfterRoundTrip) {
  auto gates = nl::lower_to_gates(small_design());
  nl::insert_scan_chain(gates);
  const nl::Netlist parsed = parse_structural(write_structural(gates));
  formal::assert_equivalent(gates, parsed);
}

TEST(VerilogRoundtrip, FullSrcNetlistCecEquivalent) {
  const auto gates = nl::lower_to_gates(
      rtl::build_src_design(rtl::rtl_opt_config()));
  const nl::Netlist parsed = parse_structural(write_structural(gates));
  const formal::CecResult res = formal::check_equivalence(gates, parsed);
  EXPECT_TRUE(res.equivalent());
  // Identical structure on both sides: hashing alone closes the miter.
  EXPECT_EQ(res.stats.sat_calls, 0u);
}

TEST(VerilogParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_structural("module x (a;"), std::runtime_error);
  EXPECT_THROW(parse_structural("module x (a); input a; FOO u0 (.y(n0)); endmodule"),
               std::runtime_error);
  EXPECT_THROW(parse_structural("module x (); wire w1; INV u0 (.y(w1), .a(nope)); endmodule"),
               std::runtime_error);
  EXPECT_THROW(parse_structural("module x ();"), std::runtime_error);  // no endmodule
}

TEST(VerilogParser, ParseErrorCarriesKindAndLine) {
  try {
    (void)parse_structural("module x ();\nwire w;\nFOO u0 (.y(w));\nendmodule");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kUnknownCell);
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FOO"), std::string::npos);
  }
}

TEST(VerilogParser, TruncatedInputClassifiedAsTruncated) {
  try {
    (void)parse_structural("module x (a);\ninput a;\nwire w1, w2");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kTruncated);
    EXPECT_STREQ(parse_error_kind_name(e.kind()), "truncated");
  }
}

TEST(VerilogParser, DuplicateDeclarationsRejected) {
  try {
    (void)parse_structural("module x ();\nwire w1;\nwire w1;\nendmodule");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kDuplicateDecl);
    EXPECT_NE(std::string(e.what()).find("w1"), std::string::npos);
  }
  try {
    (void)parse_structural("module x (a);\ninput a;\ninput a;\nendmodule");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kDuplicateDecl);
  }
}

TEST(VerilogParser, BadPortBitIndexRejected) {
  try {
    (void)parse_structural(
        "module x (a, o);\ninput [3:0] a;\noutput o;\nwire w1;\n"
        "assign w1 = a[9];\nINV u0 (.y(w1), .a(w1));\nassign o = w1;\nendmodule");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kBadReference);
    EXPECT_NE(std::string(e.what()).find("a"), std::string::npos);
  }
}

TEST(VerilogParser, OversizedNumbersAndWidthsRejected) {
  EXPECT_THROW(parse_structural("module x (a);\ninput [99999999999999:0] a;\nendmodule"),
               ParseError);
  EXPECT_THROW(parse_structural("module x (a);\ninput [64:0] a;\nendmodule"), ParseError);
}

// Robustness fuzz: every truncation prefix and a pile of single-character
// mutations of a real writer emission must either parse (producing a valid
// netlist) or throw ParseError — never crash, hang, or throw anything else.
TEST(VerilogParser, TruncationAndMutationFuzzNeverCrashes) {
  const auto gates = nl::lower_to_gates(small_design());
  const std::string text = write_structural(gates);

  std::size_t truncated_kind = 0;
  for (std::size_t len = 0; len < text.size(); len += 7) {
    try {
      (void)parse_structural(text.substr(0, len));
    } catch (const ParseError& e) {
      if (e.kind() == ParseError::Kind::kTruncated) ++truncated_kind;
    }
  }
  // The dominant failure mode of a cut-off file must be classified as such.
  EXPECT_GT(truncated_kind, text.size() / 7 / 2);

  std::mt19937_64 rng(0xfe22);
  static constexpr char kCharset[] = "abwxyz01[]();.,_ \n";
  for (int i = 0; i < 400; ++i) {
    std::string mutated = text;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] = kCharset[rng() % (sizeof(kCharset) - 1)];
    try {
      const nl::Netlist parsed = parse_structural(mutated);
      EXPECT_FALSE(parsed.name().empty());
    } catch (const ParseError&) {
      // Structured rejection is a pass — this covers semantic validation
      // failures too (the parser wraps Netlist::validate).  Anything else
      // (std::invalid_argument out of an unguarded std::stoi, bad_alloc,
      // a crash) escapes and fails the test.
    }
  }
}

TEST(VerilogWriter, SrcBehaviouralRtlEmits) {
  const std::string v = write_behavioural(rtl::build_src_design(rtl::rtl_opt_config()));
  EXPECT_NE(v.find("module src_rtl_opt"), std::string::npos);
  EXPECT_GT(v.size(), 5000u);
}

}  // namespace
}  // namespace scflow::vlog
