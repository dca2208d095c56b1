#include "formal/cec.hpp"

#include <bit>
#include <chrono>
#include <map>
#include <optional>
#include <unordered_map>

#include "core/wordpack.hpp"
#include "formal/aig.hpp"
#include "formal/bitblast.hpp"
#include "formal/sat.hpp"
#include "hdlsim/gate_sim.hpp"
#include "kernel/vcd.hpp"
#include "obs/ledger.hpp"
#include "obs/registry.hpp"

namespace scflow::formal {

namespace {

// Engine tuning, the same for every check.  options_fingerprint still
// hashes each of them, in their historical order, so ledger entries stay
// comparable across versions.
constexpr int kSimRounds = 4;  // rounds of 64 random patterns each
constexpr std::uint64_t kSweepConflictLimit = 200;  // per sweep SAT call
constexpr std::uint64_t kSweepMaxChecks = 10000;    // total sweep SAT calls
constexpr std::uint64_t kFinalConflictLimit = 0;    // per output bit; 0 = unbounded

struct CompareBit {
  const std::string* name;
  int bit;
  AigLit a, b;
  bool proved = false;
};

struct Engine {
  Aig aig;
  VarMap vars;
  sat::Solver solver;
  std::vector<sat::Var> node_var;
  std::vector<std::uint32_t> uf_parent;
  std::vector<std::uint8_t> uf_parity;
  CecStats stats;

  Engine() : vars(aig) {}

  void sync_nodes() {
    node_var.resize(aig.node_count(), -1);
    while (uf_parent.size() < aig.node_count()) {
      uf_parent.push_back(static_cast<std::uint32_t>(uf_parent.size()));
      uf_parity.push_back(0);
    }
  }

  std::pair<std::uint32_t, bool> uf_find(std::uint32_t n) const {
    bool par = false;
    while (uf_parent[n] != n) {
      par ^= uf_parity[n] != 0;
      n = uf_parent[n];
    }
    return {n, par};
  }

  AigLit canon(AigLit l) const {
    const auto [r, par] = uf_find(aig_node(l));
    return (r << 1) | ((aig_phase(l) ^ par) ? 1u : 0u);
  }

  void uf_union(std::uint32_t a, std::uint32_t b, bool parity) {
    const auto [ra, pa] = uf_find(a);
    const auto [rb, pb] = uf_find(b);
    if (ra == rb) return;
    const bool rel = parity ^ pa ^ pb;
    if (ra < rb) {  // smaller id wins so the constant node stays a root
      uf_parent[rb] = ra;
      uf_parity[rb] = rel ? 1 : 0;
    } else {
      uf_parent[ra] = rb;
      uf_parity[ra] = rel ? 1 : 0;
    }
  }

  sat::Var var_of(std::uint32_t node) {
    if (node_var[node] >= 0) return node_var[node];
    std::vector<std::uint32_t> stack{node};
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      if (node_var[n] >= 0) {
        stack.pop_back();
        continue;
      }
      if (n == 0) {  // constant-false node
        const sat::Var v = solver.new_var();
        solver.add_clause({sat::mk_lit(v, true)});
        node_var[n] = v;
        stack.pop_back();
        continue;
      }
      if (aig.is_input(n)) {
        node_var[n] = solver.new_var();
        stack.pop_back();
        continue;
      }
      const std::uint32_t f0 = aig_node(aig.fanin0(n));
      const std::uint32_t f1 = aig_node(aig.fanin1(n));
      if (node_var[f0] < 0) {
        stack.push_back(f0);
        continue;
      }
      if (node_var[f1] < 0) {
        stack.push_back(f1);
        continue;
      }
      // Tseitin for v <-> l0 & l1.
      const sat::Var v = solver.new_var();
      const sat::Lit lv = sat::mk_lit(v);
      const sat::Lit l0 = sat_lit_raw(aig.fanin0(n));
      const sat::Lit l1 = sat_lit_raw(aig.fanin1(n));
      solver.add_clause({sat::lit_neg(lv), l0});
      solver.add_clause({sat::lit_neg(lv), l1});
      solver.add_clause({lv, sat::lit_neg(l0), sat::lit_neg(l1)});
      node_var[n] = v;
      stack.pop_back();
    }
    return node_var[node];
  }

  sat::Lit sat_lit_raw(AigLit l) const {
    return sat::mk_lit(node_var[aig_node(l)], aig_phase(l));
  }
  sat::Lit sat_lit(AigLit l) {
    (void)var_of(aig_node(l));
    return sat_lit_raw(l);
  }

  /// Tries to refute la == lb.  kUnsat proves equality (and records it as
  /// clauses + a union-find merge); kSat leaves a distinguishing model.
  sat::Result prove_equal(AigLit la, AigLit lb, std::uint64_t budget) {
    const sat::Lit sa = sat_lit(la);
    const sat::Lit sb = sat_lit(lb);
    const sat::Var s = solver.new_var();
    const sat::Lit ls = sat::mk_lit(s);
    solver.add_clause({sat::lit_neg(ls), sa, sb});
    solver.add_clause({sat::lit_neg(ls), sat::lit_neg(sa), sat::lit_neg(sb)});
    ++stats.sat_calls;
    const std::uint64_t conflicts_before = solver.stats().conflicts;
    const sat::Result r = solver.solve({ls}, budget);
    stats.sat_call_conflicts.record(solver.stats().conflicts - conflicts_before);
    solver.add_clause({sat::lit_neg(ls)});  // retire the activation literal
    if (r == sat::Result::kUnsat) {
      solver.add_clause({sat::lit_neg(sa), sb});
      solver.add_clause({sa, sat::lit_neg(sb)});
      uf_union(aig_node(la), aig_node(lb), aig_phase(la) ^ aig_phase(lb));
    }
    return r;
  }
};

std::uint64_t lit_word(const Aig&, const std::vector<std::uint64_t>& node_words,
                       AigLit l) {
  return node_words[aig_node(l)] ^ (aig_phase(l) ? ~0ull : 0ull);
}

/// Extracts the concrete assignment at pattern @p pat of a simulated AIG
/// into a counterexample (inputs + divergent-point values).
CecCounterexample extract_cex(const Aig& aig, const VarMap& vars,
                              const std::vector<std::uint64_t>& node_words, int pat,
                              const std::string& name, int bit,
                              const std::vector<AigLit>& bits_a,
                              const std::vector<AigLit>& bits_b) {
  CecCounterexample cex;
  auto bit_of = [&](AigLit l) -> std::uint64_t {
    return (lit_word(aig, node_words, l) >> pat) & 1u;
  };
  for (const auto& [vname, lits] : vars.entries()) {
    CecInputAssignment in;
    in.name = vname;
    in.width = static_cast<int>(lits.size());
    for (std::size_t i = 0; i < lits.size() && i < 64; ++i)
      in.value |= bit_of(lits[i]) << i;
    cex.inputs.push_back(std::move(in));
  }
  cex.divergent_output = name;
  cex.divergent_bit = bit;
  for (std::size_t i = 0; i < bits_a.size() && i < 64; ++i)
    cex.value_a |= bit_of(bits_a[i]) << i;
  for (std::size_t i = 0; i < bits_b.size() && i < 64; ++i)
    cex.value_b |= bit_of(bits_b[i]) << i;
  return cex;
}

/// Replays the counterexample through GateSim on comb_view(n) and returns
/// the observed value of the divergent port (nullopt on X or port issues).
std::optional<std::uint64_t> replay_side(const nl::Netlist& n,
                                         const CecCounterexample& cex) {
  try {
    const nl::Netlist view = comb_view(n);
    hdlsim::GateSim sim(view);
    std::unordered_map<std::string, std::uint64_t> assign;
    for (const auto& in : cex.inputs) assign[in.name] = in.value;
    for (const nl::PortBits& p : view.inputs()) {
      const auto it = assign.find(p.name);
      sim.set_input(p.name, it == assign.end() ? 0 : it->second);
    }
    sim.settle();
    return sim.output(cex.divergent_output);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void replay_cex(CecCounterexample& cex, const nl::Netlist* a_nl,
                const nl::Netlist& b) {
  cex.replayed = true;
  const std::optional<std::uint64_t> vb = replay_side(b, cex);
  if (a_nl != nullptr) {
    const std::optional<std::uint64_t> va = replay_side(*a_nl, cex);
    cex.replay_confirmed = va.has_value() && vb.has_value() &&
                           *va == cex.value_a && *vb == cex.value_b &&
                           (((*va ^ *vb) >> cex.divergent_bit) & 1u) != 0;
  } else {
    // RTL side A: the AIG-predicted value stands in for a replay.
    cex.replay_confirmed = vb.has_value() && *vb == cex.value_b &&
                           (((cex.value_a ^ *vb) >> cex.divergent_bit) & 1u) != 0;
  }
}

/// Hash of the options that change what the engine computes (thread/wall
/// knobs would go here too if CEC had any — it is single-threaded).
std::uint64_t options_fingerprint(const CecOptions& opt) {
  obs::Fnv1a h;
  h.update_str("cec-options-v1");
  for (const auto& s : opt.tie_zero_inputs) h.update_str(s);
  for (const auto& s : opt.ignore_outputs) h.update_str(s);
  h.update_u64(1);  // fraig sweep, always on
  h.update_u64(static_cast<std::uint64_t>(kSimRounds));
  h.update_u64(1);  // retired compiled pre-pass flag: keeps ledger fingerprints comparable
  h.update_u64(kSweepConflictLimit);
  h.update_u64(kSweepMaxChecks);
  h.update_u64(kFinalConflictLimit);
  h.update_u64(opt.seed);
  h.update_u64(1);  // GateSim replay, always on
  return h.digest();
}

void record_metrics(obs::Registry* reg, const CecOptions& opt, const CecStats& st,
                    const CecResult& res, std::uint64_t input_hash,
                    std::uint64_t duration_ns) {
  if (reg == nullptr) return;
  const std::string& p = opt.metric_prefix;
  reg->set_counter(p + ".aig_nodes", st.aig_nodes);
  reg->set_counter(p + ".compare_points", st.compare_points);
  reg->set_counter(p + ".compare_bits", st.compare_bits);
  reg->set_counter(p + ".bits_structural", st.bits_structural);
  reg->set_counter(p + ".bits_sat_proved", st.bits_sat_proved);
  reg->set_counter(p + ".sweep_classes", st.sweep_classes);
  reg->set_counter(p + ".sweep_merges", st.sweep_merges);
  reg->set_counter(p + ".sat_calls", st.sat_calls);
  reg->set_counter(p + ".sat_conflicts", st.sat_conflicts);
  reg->set_counter(p + ".sat_decisions", st.sat_decisions);
  reg->set_counter(p + ".sat_propagations", st.sat_propagations);
  reg->set_counter(p + ".counterexamples", res.cex ? 1 : 0);
  reg->set_gauge(p + ".equivalent", res.equivalent() ? 1.0 : 0.0);
  if (st.sat_call_conflicts.count() > 0)
    reg->merge_histogram(p + ".sat_call_conflicts", st.sat_call_conflicts);
  if (obs::Ledger* ledger = reg->ledger(); ledger != nullptr) {
    obs::LedgerEntry e;
    e.phase = "cec";
    e.design = p;
    e.input_hash = input_hash;
    e.options_fingerprint = options_fingerprint(opt);
    e.duration_ns = duration_ns;
    e.add_counter("aig_nodes", st.aig_nodes);
    e.add_counter("compare_points", st.compare_points);
    e.add_counter("compare_bits", st.compare_bits);
    e.add_counter("bits_structural", st.bits_structural);
    e.add_counter("bits_sat_proved", st.bits_sat_proved);
    e.add_counter("sweep_classes", st.sweep_classes);
    e.add_counter("sweep_merges", st.sweep_merges);
    e.add_counter("sat_calls", st.sat_calls);
    e.add_counter("sat_conflicts", st.sat_conflicts);
    e.add_counter("sat_decisions", st.sat_decisions);
    e.add_counter("sat_propagations", st.sat_propagations);
    e.add_counter("counterexamples", res.cex ? 1 : 0);
    e.add_counter("equivalent", res.equivalent() ? 1 : 0);
    e.add_histogram("sat_call_conflicts", st.sat_call_conflicts);
    ledger->append(std::move(e));
  }
}

CecResult run_cec(const nl::Netlist* a_nl, const rtl::Design* a_rtl,
                  const nl::Netlist& b, obs::Registry* reg, const CecOptions& opt) {
  std::optional<obs::Registry::ScopedTimer> timer;
  if (reg != nullptr) timer.emplace(reg->time_scope(opt.metric_prefix));
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ns = [t0] {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - t0)
                                          .count());
  };
  // Input identity for the run ledger (and a future artifact cache): the
  // structural hash of both sides.  The RTL variant keys on the design
  // name — rtl::Design has no canonical serialization yet.
  obs::Fnv1a input_h;
  if (a_nl != nullptr) input_h.update_u64(nl::content_hash(*a_nl));
  else input_h.update_str("rtl:" + a_rtl->name());
  input_h.update_u64(nl::content_hash(b));
  const std::uint64_t input_hash = input_h.digest();

  Engine eng;
  CecResult res;

  // Positional flop pairing is only meaningful when both sides have the
  // same flop count; with provenance names this guard never fires.
  if (a_nl != nullptr) {
    const auto ka = flop_keys(*a_nl);
    const auto kb = flop_keys(b);
    const auto positional = [](const std::vector<std::string>& ks) {
      for (const auto& k : ks)
        if (!k.empty() && k[0] == '#') return true;
      return false;
    };
    if ((positional(ka) || positional(kb)) && ka.size() != kb.size()) {
      throw std::invalid_argument(
          "cec: cannot pair unnamed flops, counts differ (" +
          std::to_string(ka.size()) + " vs " + std::to_string(kb.size()) + ")");
    }
  } else if (!flop_keys(b).empty() && flop_keys(b).front()[0] == '#') {
    throw std::invalid_argument("cec: rtl comparison needs named netlist flops");
  }

  // Tie scan-style pins to 0 on whichever side has them.
  for (const std::string& name : opt.tie_zero_inputs) {
    std::size_t width = 0;
    if (const nl::PortBits* p = b.find_input(name)) width = p->nets.size();
    if (width == 0 && a_nl != nullptr) {
      if (const nl::PortBits* p = a_nl->find_input(name)) width = p->nets.size();
    }
    if (width == 0 && a_rtl != nullptr) {
      for (const auto& in : a_rtl->inputs())
        if (in.name == name) width = static_cast<std::size_t>(in.width);
    }
    if (width > 0) eng.vars.seed(name, std::vector<AigLit>(width, kAigFalse));
  }

  const BlastedOutputs oa = a_nl != nullptr
                                ? bitblast_netlist(*a_nl, eng.aig, eng.vars)
                                : bitblast_rtl(*a_rtl, eng.aig, eng.vars);
  const BlastedOutputs ob = bitblast_netlist(b, eng.aig, eng.vars);
  eng.sync_nodes();
  eng.stats.aig_nodes = eng.aig.node_count();

  // Pair comparison points by name.
  std::map<std::string, std::pair<const std::vector<AigLit>*, const std::vector<AigLit>*>>
      points;
  for (const auto& [name, bits] : oa.outputs) points[name].first = &bits;
  for (const auto& [name, bits] : ob.outputs) points[name].second = &bits;
  std::vector<CompareBit> cmp;
  for (auto& [name, sides] : points) {
    bool ignored = false;
    for (const auto& ig : opt.ignore_outputs) ignored |= ig == name;
    if (ignored) continue;
    if (sides.first == nullptr || sides.second == nullptr) {
      // A flop present on one side only stays free state: sound for passes
      // that drop flops no output cone reads.
      if (name.rfind("next:", 0) == 0) continue;
      throw std::invalid_argument("cec: output '" + name +
                                  "' exists on only one side");
    }
    if (sides.first->size() != sides.second->size()) {
      throw std::invalid_argument("cec: width mismatch on output '" + name + "'");
    }
    ++eng.stats.compare_points;
    for (std::size_t i = 0; i < sides.first->size(); ++i) {
      cmp.push_back({&name, static_cast<int>(i), (*sides.first)[i],
                     (*sides.second)[i]});
      ++eng.stats.compare_bits;
    }
  }

  const auto finish = [&](CecStatus status) {
    res.status = status;
    res.stats = eng.stats;
    res.stats.sat_conflicts = eng.solver.stats().conflicts;
    res.stats.sat_decisions = eng.solver.stats().decisions;
    res.stats.sat_propagations = eng.solver.stats().propagations;
    if (res.cex) replay_cex(*res.cex, a_nl, b);
    record_metrics(reg, opt, res.stats, res, input_hash, elapsed_ns());
    return res;
  };

  // --- random simulation: cheap refutation + sweep signatures ---
  core::SplitMix64 rng{opt.seed};
  std::vector<std::uint64_t> input_words(eng.aig.input_count());
  std::vector<std::uint64_t> node_words;
  std::vector<std::vector<std::uint64_t>> sigs;  // per round, per node
  for (int r = 0; r < kSimRounds; ++r) {
    for (auto& w : input_words) w = rng.next();
    eng.aig.simulate(input_words, node_words);
    for (const CompareBit& c : cmp) {
      const std::uint64_t wa = lit_word(eng.aig, node_words, c.a);
      const std::uint64_t wb = lit_word(eng.aig, node_words, c.b);
      if (wa != wb) {
        const int pat = std::countr_zero(wa ^ wb);
        res.cex = extract_cex(eng.aig, eng.vars, node_words, pat, *c.name, c.bit,
                              *points[*c.name].first, *points[*c.name].second);
        return finish(CecStatus::kNotEquivalent);
      }
    }
    sigs.push_back(node_words);
  }

  // Mark structurally proven bits; collect the support of the rest.
  std::vector<bool> relevant(eng.aig.node_count(), false);
  relevant[0] = true;
  std::vector<std::uint32_t> dfs;
  auto mark = [&](AigLit l) {
    dfs.push_back(aig_node(l));
    while (!dfs.empty()) {
      const std::uint32_t n = dfs.back();
      dfs.pop_back();
      if (relevant[n]) continue;
      relevant[n] = true;
      if (eng.aig.is_and(n)) {
        dfs.push_back(aig_node(eng.aig.fanin0(n)));
        dfs.push_back(aig_node(eng.aig.fanin1(n)));
      }
    }
  };
  bool any_open = false;
  for (CompareBit& c : cmp) {
    if (c.a == c.b) {
      c.proved = true;
      ++eng.stats.bits_structural;
    } else {
      any_open = true;
      mark(c.a);
      mark(c.b);
    }
  }
  if (!any_open) return finish(CecStatus::kEquivalent);

  // --- fraig-lite sweep over the open bits' support ---
  std::map<std::vector<std::uint64_t>, std::vector<std::pair<std::uint32_t, bool>>>
      classes;
  std::vector<std::uint64_t> key(sigs.size());
  for (std::uint32_t n = 0; n < eng.aig.node_count(); ++n) {
    if (!relevant[n]) continue;
    bool phase = false;
    for (std::size_t r = 0; r < sigs.size(); ++r) key[r] = sigs[r][n];
    if (key[0] & 1u) {  // canonicalise so pattern 0 is 0
      phase = true;
      for (auto& w : key) w = ~w;
    }
    classes[key].push_back({n, phase});
  }
  std::size_t checks = 0;
  for (const auto& [sig_key, members] : classes) {
    if (members.size() < 2) continue;
    ++eng.stats.sweep_classes;
    const auto [n0, p0] = members[0];
    const AigLit la = (n0 << 1) | (p0 ? 1u : 0u);
    for (std::size_t i = 1; i < members.size(); ++i) {
      if (checks >= kSweepMaxChecks) break;
      const auto [ni, pi] = members[i];
      const AigLit lb = (ni << 1) | (pi ? 1u : 0u);
      if (eng.canon(la) == eng.canon(lb)) continue;
      ++checks;
      if (eng.prove_equal(la, lb, kSweepConflictLimit) == sat::Result::kUnsat)
        ++eng.stats.sweep_merges;
    }
  }

  // --- final per-bit discharge ---
  // kFinalConflictLimit is unbounded, so each call ends kUnsat or kSat.
  for (CompareBit& c : cmp) {
    if (c.proved) continue;
    if (eng.canon(c.a) == eng.canon(c.b)) {
      ++eng.stats.bits_structural;
      continue;
    }
    if (eng.prove_equal(c.a, c.b, kFinalConflictLimit) == sat::Result::kUnsat) {
      ++eng.stats.bits_sat_proved;
      continue;
    }
    // SAT: evaluate the whole AIG under the model for a complete vector.
    for (std::uint32_t n = 1; n < eng.aig.node_count(); ++n) {
      if (!eng.aig.is_input(n)) continue;
      const bool v =
          eng.node_var[n] >= 0 && eng.solver.model_value(eng.node_var[n]);
      input_words[static_cast<std::size_t>(eng.aig.input_index(n))] = v ? 1u : 0u;
    }
    eng.aig.simulate(input_words, node_words);
    res.cex = extract_cex(eng.aig, eng.vars, node_words, 0, *c.name, c.bit,
                          *points[*c.name].first, *points[*c.name].second);
    return finish(CecStatus::kNotEquivalent);
  }
  return finish(CecStatus::kEquivalent);
}

}  // namespace

CecOptions CecOptions::scan_modulo() {
  CecOptions o;
  o.tie_zero_inputs = {"scan_in", "scan_enable"};
  o.ignore_outputs = {"scan_out"};
  return o;
}

CecResult check_equivalence(const nl::Netlist& a, const nl::Netlist& b,
                            obs::Registry* reg, const CecOptions& options) {
  return run_cec(&a, nullptr, b, reg, options);
}

CecResult check_rtl_vs_netlist(const rtl::Design& a, const nl::Netlist& b,
                               obs::Registry* reg, const CecOptions& options) {
  return run_cec(nullptr, &a, b, reg, options);
}

bool write_cex_vcd(const CecCounterexample& cex, const std::string& path) {
  minisc::VcdFile vcd(path);
  std::vector<std::size_t> in_vars;
  in_vars.reserve(cex.inputs.size());
  for (const auto& in : cex.inputs) in_vars.push_back(vcd.add_var(in.name, in.width));
  const std::size_t va = vcd.add_var("a." + cex.divergent_output, 64);
  const std::size_t vb = vcd.add_var("b." + cex.divergent_output, 64);
  vcd.time(0);
  for (std::size_t i = 0; i < cex.inputs.size(); ++i)
    vcd.change(in_vars[i], cex.inputs[i].value);
  vcd.change(va, cex.value_a);
  vcd.change(vb, cex.value_b);
  vcd.flush();
  return vcd.good();
}

void assert_equivalent(const nl::Netlist& a, const nl::Netlist& b,
                       obs::Registry* reg, const CecOptions& options,
                       const std::string& cex_vcd_path) {
  CecResult res = check_equivalence(a, b, reg, options);
  if (res.equivalent()) return;
  std::string msg = "equivalence check failed: '" + a.name() + "' vs '" + b.name() + "'";
  if (res.cex) {
    msg += ": first divergent net '" + res.cex->divergent_output + "' bit " +
           std::to_string(res.cex->divergent_bit) + " (a=" +
           std::to_string(res.cex->value_a) + ", b=" +
           std::to_string(res.cex->value_b) + ")";
    if (res.cex->replayed) {
      msg += res.cex->replay_confirmed ? "; GateSim replay confirms the mismatch"
                                       : "; GateSim replay did NOT confirm";
    }
    if (!cex_vcd_path.empty() && write_cex_vcd(*res.cex, cex_vcd_path)) {
      msg += "; counterexample dumped to " + cex_vcd_path;
    }
  }
  throw EquivalenceError(msg, std::move(res));
}

}  // namespace scflow::formal
