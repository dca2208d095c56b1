#include "netlist/lower.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace scflow::nl {

namespace {

using rtl::NodeId;
using rtl::Op;
using BitVec = std::vector<NetId>;

struct Lowerer {
  const rtl::Design& d;
  Netlist out;
  std::vector<BitVec> bits;          // per rtl node
  std::vector<BitVec> flop_q;        // per register: flop output nets
  std::vector<int> ram_read_count;   // per memory
  std::vector<int> rom_read_count;   // per rom

  explicit Lowerer(const rtl::Design& design)
      : d(design), out(design.name()), bits(design.nodes().size()) {}

  NetId c0() { return out.const_net(false); }
  NetId c1() { return out.const_net(true); }

  // --- gate helpers ---
  NetId inv(NetId a) { return out.add_cell(CellType::kInv, {a}); }
  NetId and2(NetId a, NetId b) { return out.add_cell(CellType::kAnd2, {a, b}); }
  NetId or2(NetId a, NetId b) { return out.add_cell(CellType::kOr2, {a, b}); }
  NetId xor2(NetId a, NetId b) { return out.add_cell(CellType::kXor2, {a, b}); }
  NetId xnor2(NetId a, NetId b) { return out.add_cell(CellType::kXnor2, {a, b}); }
  NetId mux2(NetId sel, NetId a0, NetId a1) {
    return out.add_cell(CellType::kMux2, {sel, a0, a1});
  }

  /// Full adder; returns {sum, carry}.
  std::pair<NetId, NetId> full_adder(NetId a, NetId b, NetId c) {
    const NetId axb = xor2(a, b);
    const NetId sum = xor2(axb, c);
    const NetId carry = or2(and2(a, b), and2(c, axb));
    return {sum, carry};
  }

  /// Ripple-carry a + b + cin, truncated to a.size() bits.
  BitVec ripple_add(const BitVec& a, const BitVec& b, NetId cin, NetId* cout = nullptr) {
    BitVec sum(a.size());
    NetId carry = cin;
    for (std::size_t i = 0; i < a.size(); ++i) {
      auto [s, c] = full_adder(a[i], b[i], carry);
      sum[i] = s;
      carry = c;
    }
    if (cout != nullptr) *cout = carry;
    return sum;
  }

  BitVec invert(const BitVec& a) {
    BitVec r(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) r[i] = inv(a[i]);
    return r;
  }

  BitVec ripple_sub(const BitVec& a, const BitVec& b, NetId* cout = nullptr) {
    return ripple_add(a, invert(b), c1(), cout);
  }

  NetId and_reduce(const BitVec& v) {
    NetId acc = v[0];
    for (std::size_t i = 1; i < v.size(); ++i) acc = and2(acc, v[i]);
    return acc;
  }

  BitVec widen(const BitVec& a, std::size_t w, bool sign) {
    BitVec r = a;
    const NetId fill = sign ? a.back() : c0();
    while (r.size() < w) r.push_back(fill);
    r.resize(w);
    return r;
  }

  /// Signed array multiplier: unsigned partial-product core of the natural
  /// operand widths plus two conditional sign-correction subtractions.
  BitVec multiply_signed(const BitVec& a, const BitVec& b, std::size_t out_w) {
    const std::size_t aw = a.size(), bw = b.size();
    const std::size_t pw = std::min(aw + bw, out_w + 0);
    // Unsigned core: accumulate masked shifted rows.
    BitVec acc(pw, c0());
    for (std::size_t i = 0; i < bw && i < pw; ++i) {
      BitVec row(pw, c0());
      for (std::size_t j = 0; j < aw && i + j < pw; ++j) row[i + j] = and2(a[j], b[i]);
      acc = ripple_add(acc, row, c0());
    }
    // Corrections: acc -= a_sign ? (b << aw) : 0;  acc -= b_sign ? (a << bw) : 0.
    auto correct = [this, pw](BitVec acc_in, const BitVec& v, std::size_t shift, NetId sgn) {
      BitVec masked(pw, c0());
      for (std::size_t j = 0; j < v.size() && shift + j < pw; ++j)
        masked[shift + j] = and2(v[j], sgn);
      return ripple_sub(acc_in, masked);
    };
    acc = correct(acc, b, aw, a.back());
    acc = correct(acc, a, bw, b.back());
    // Truncate/extend to the node width (product is sign-correct mod 2^pw).
    return widen(acc, out_w, true);
  }

  NetId less_unsigned(const BitVec& a, const BitVec& b) {
    NetId cout = kNoNet;
    (void)ripple_sub(a, b, &cout);
    return inv(cout);  // borrow <=> no carry out
  }

  BitVec lower_node(NodeId id) {
    const rtl::Node& n = d.node(id);
    const auto w = static_cast<std::size_t>(n.width);
    auto arg = [this, &n](int i) -> const BitVec& {
      return bits[static_cast<std::size_t>(n.args[static_cast<std::size_t>(i)])];
    };
    switch (n.op) {
      case Op::kConst: {
        BitVec r(w);
        for (std::size_t i = 0; i < w; ++i)
          r[i] = ((static_cast<std::uint64_t>(n.imm) >> i) & 1u) ? c1() : c0();
        return r;
      }
      case Op::kInput: {
        BitVec r(w);
        for (std::size_t i = 0; i < w; ++i) r[i] = out.new_net();
        out.add_input(n.name, r);
        return r;
      }
      case Op::kRegQ: return flop_q[static_cast<std::size_t>(n.imm)];
      case Op::kAdd: return ripple_add(arg(0), arg(1), c0());
      case Op::kAddC: return ripple_add(arg(0), arg(1), arg(2)[0]);
      case Op::kSub: return ripple_sub(arg(0), arg(1));
      case Op::kMul: return multiply_signed(arg(0), arg(1), w);
      case Op::kAnd: case Op::kOr: case Op::kXor: {
        BitVec r(w);
        for (std::size_t i = 0; i < w; ++i)
          r[i] = n.op == Op::kAnd ? and2(arg(0)[i], arg(1)[i])
               : n.op == Op::kOr ? or2(arg(0)[i], arg(1)[i])
                                 : xor2(arg(0)[i], arg(1)[i]);
        return r;
      }
      case Op::kNot: return invert(arg(0));
      case Op::kEq: case Op::kNe: {
        BitVec eqbits(arg(0).size());
        for (std::size_t i = 0; i < eqbits.size(); ++i)
          eqbits[i] = xnor2(arg(0)[i], arg(1)[i]);
        const NetId eq_all = and_reduce(eqbits);
        return {n.op == Op::kEq ? eq_all : inv(eq_all)};
      }
      case Op::kLtU: return {less_unsigned(arg(0), arg(1))};
      case Op::kLtS: {
        // Bias trick: flip both MSBs, compare unsigned.
        BitVec a = arg(0), b = arg(1);
        a.back() = inv(a.back());
        b.back() = inv(b.back());
        return {less_unsigned(a, b)};
      }
      case Op::kShl: {
        BitVec r(w, c0());
        for (std::size_t i = 0; i < w; ++i)
          if (i >= static_cast<std::size_t>(n.imm)) r[i] = arg(0)[i - n.imm];
        return r;
      }
      case Op::kShr: {
        BitVec r(w, c0());
        for (std::size_t i = 0; i + n.imm < w; ++i) r[i] = arg(0)[i + n.imm];
        return r;
      }
      case Op::kMux: {
        BitVec r(w);
        for (std::size_t i = 0; i < w; ++i) r[i] = mux2(arg(0)[0], arg(1)[i], arg(2)[i]);
        return r;
      }
      case Op::kSlice: {
        BitVec r(w);
        for (std::size_t i = 0; i < w; ++i) r[i] = arg(0)[i + n.imm];
        return r;
      }
      case Op::kZext: return widen(arg(0), w, false);
      case Op::kSext: return widen(arg(0), w, true);
      case Op::kRamRead: {
        const auto mem = static_cast<std::size_t>(n.imm);
        const int port = ram_read_count[mem]++;
        const auto& m = d.memories()[mem];
        const std::string base = m.name + "_r" + std::to_string(port);
        out.add_output(base + "_addr",
                       widen(arg(0), static_cast<std::size_t>(m.addr_bits), false));
        out.add_output(base + "_ren", arg(1));
        BitVec data(w);
        for (std::size_t i = 0; i < w; ++i) data[i] = out.new_net();
        out.add_input(base + "_data", data);
        out.macros[mem].read_addr_ports.push_back(base + "_addr");
        out.macros[mem].read_data_ports.push_back(base + "_data");
        out.macros[mem].read_enable_ports.push_back(base + "_ren");
        return data;
      }
      case Op::kRomRead: {
        const auto rom = static_cast<std::size_t>(n.imm);
        const int port = rom_read_count[rom]++;
        const auto& r = d.roms()[rom];
        const std::string base = r.name + "_r" + std::to_string(port);
        const std::size_t macro_idx = d.memories().size() + rom;
        out.add_output(base + "_addr",
                       widen(arg(0), static_cast<std::size_t>(r.addr_bits), false));
        BitVec data(w);
        for (std::size_t i = 0; i < w; ++i) data[i] = out.new_net();
        out.add_input(base + "_data", data);
        out.macros[macro_idx].read_addr_ports.push_back(base + "_addr");
        out.macros[macro_idx].read_data_ports.push_back(base + "_data");
        return data;
      }
    }
    throw std::logic_error("unhandled op in lowering");
  }

  void run() {
    ram_read_count.assign(d.memories().size(), 0);
    rom_read_count.assign(d.roms().size(), 0);
    for (const auto& m : d.memories()) {
      MacroInfo mi;
      mi.kind = MacroInfo::Kind::kRam;
      mi.name = m.name;
      mi.addr_bits = m.addr_bits;
      mi.data_bits = m.data_bits;
      out.macros.push_back(std::move(mi));
    }
    for (const auto& r : d.roms()) {
      MacroInfo mi;
      mi.kind = MacroInfo::Kind::kRom;
      mi.name = r.name;
      mi.addr_bits = r.addr_bits;
      mi.data_bits = r.data_bits;
      mi.rom_contents = r.contents;
      out.macros.push_back(std::move(mi));
    }

    // Flops first so kRegQ references resolve.
    flop_q.resize(d.registers().size());
    for (std::size_t r = 0; r < d.registers().size(); ++r) {
      flop_q[r].resize(static_cast<std::size_t>(d.registers()[r].width));
      for (std::size_t i = 0; i < flop_q[r].size(); ++i) flop_q[r][i] = out.new_net();
    }

    for (std::size_t i = 0; i < d.nodes().size(); ++i)
      bits[i] = lower_node(static_cast<NodeId>(i));

    // Connect flop D inputs (enable becomes a recirculating mux).
    std::vector<std::size_t> flop_cell_base(d.registers().size());
    for (std::size_t r = 0; r < d.registers().size(); ++r) {
      const auto& reg = d.registers()[r];
      const BitVec& next = bits[static_cast<std::size_t>(reg.next)];
      const NetId en = reg.enable == rtl::kNoNode
                           ? kNoNet
                           : bits[static_cast<std::size_t>(reg.enable)][0];
      for (std::size_t i = 0; i < flop_q[r].size(); ++i) {
        NetId dnet = next[i];
        if (en != kNoNet) dnet = mux2(en, flop_q[r][i], next[i]);
        const int init = static_cast<int>(
            (static_cast<std::uint64_t>(reg.reset_value) >> i) & 1u);
        // The flop's output net was pre-allocated: emit the cell and then
        // rewrite its output to the reserved net.
        const NetId placed = out.add_cell(CellType::kDff, {dnet}, init);
        out.cells_mut().back().output = flop_q[r][i];
        out.cells_mut().back().name = reg.name + "_q" + std::to_string(i);
        (void)placed;
      }
      (void)flop_cell_base;
    }

    // Memory write ports.
    for (std::size_t m = 0; m < d.memories().size(); ++m) {
      const auto& mem = d.memories()[m];
      out.add_output(mem.name + "_waddr", bits[static_cast<std::size_t>(mem.write_addr)]);
      out.add_output(mem.name + "_wdata", bits[static_cast<std::size_t>(mem.write_data)]);
      out.add_output(mem.name + "_wen", bits[static_cast<std::size_t>(mem.write_enable)]);
      out.macros[m].write_addr_port = mem.name + "_waddr";
      out.macros[m].write_data_port = mem.name + "_wdata";
      out.macros[m].write_enable_port = mem.name + "_wen";
    }

    for (const auto& o : d.outputs())
      out.add_output(o.name, bits[static_cast<std::size_t>(o.node)]);
  }
};

}  // namespace

Netlist lower_to_gates(const rtl::Design& design) {
  design.validate();
  Lowerer l(design);
  l.run();
  l.out.validate();
  return std::move(l.out);
}

std::size_t insert_scan_chain(Netlist& n) {
  NetId scan_in = n.new_net();
  n.add_input("scan_in", {scan_in});
  const NetId scan_en = n.new_net();
  n.add_input("scan_enable", {scan_en});
  NetId chain = scan_in;
  std::size_t converted = 0;
  for (Cell& c : n.cells_mut()) {
    if (c.type != CellType::kDff) continue;
    c.type = CellType::kSdff;
    c.inputs.push_back(chain);    // si
    c.inputs.push_back(scan_en);  // se
    chain = c.output;
    ++converted;
  }
  n.add_output("scan_out", {chain});
  return converted;
}

}  // namespace scflow::nl
