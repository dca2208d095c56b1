#include "rtl/passes.hpp"

#include <map>
#include <optional>
#include <tuple>

#include "dtypes/bit_int.hpp"

namespace scflow::rtl {

namespace {

std::uint64_t mask_w(int width) { return scflow::bit_mask(width); }

/// Constant evaluation mirroring the interpreter's semantics.
std::optional<std::uint64_t> fold_const(const Design& d, const Node& n,
                                        const std::vector<Node>& new_nodes,
                                        const std::vector<NodeId>& remap) {
  // All arguments must be constants in the *new* design.
  std::vector<std::uint64_t> a;
  std::vector<int> aw;
  for (NodeId old_arg : n.args) {
    const Node& arg = new_nodes[static_cast<std::size_t>(remap[static_cast<std::size_t>(old_arg)])];
    if (arg.op != Op::kConst) return std::nullopt;
    a.push_back(static_cast<std::uint64_t>(arg.imm) & mask_w(arg.width));
    aw.push_back(arg.width);
  }
  const std::uint64_t m = mask_w(n.width);
  switch (n.op) {
    case Op::kAdd: return (a[0] + a[1]) & m;
    case Op::kSub: return (a[0] - a[1]) & m;
    case Op::kAddC: return (a[0] + a[1] + (a[2] & 1u)) & m;
    case Op::kMul:
      return static_cast<std::uint64_t>(scflow::sign_extend(a[0], aw[0]) *
                                        scflow::sign_extend(a[1], aw[1])) & m;
    case Op::kAnd: return a[0] & a[1];
    case Op::kOr: return a[0] | a[1];
    case Op::kXor: return a[0] ^ a[1];
    case Op::kNot: return (~a[0]) & m;
    case Op::kEq: return a[0] == a[1] ? 1 : 0;
    case Op::kNe: return a[0] != a[1] ? 1 : 0;
    case Op::kLtU: return a[0] < a[1] ? 1 : 0;
    case Op::kLtS:
      return scflow::sign_extend(a[0], aw[0]) < scflow::sign_extend(a[1], aw[1]) ? 1 : 0;
    case Op::kShl: return (n.imm >= 64 ? 0 : a[0] << n.imm) & m;
    case Op::kShr: return (n.imm >= 64 ? 0 : a[0] >> n.imm) & m;
    case Op::kMux: return a[0] ? a[2] : a[1];
    case Op::kSlice: return (a[0] >> n.imm) & m;
    case Op::kZext: return a[0];
    case Op::kSext: return static_cast<std::uint64_t>(scflow::sign_extend(a[0], aw[0])) & m;
    case Op::kRomRead: {
      const auto& rom = d.roms()[static_cast<std::size_t>(n.imm)];
      const std::uint64_t addr = a[0] & mask_w(rom.addr_bits);
      if (addr >= rom.contents.size()) return 0;
      return static_cast<std::uint64_t>(rom.contents[addr]) & m;
    }
    default: return std::nullopt;
  }
}

/// Rebuilds on the fixpoint; the first build counts as one.
constexpr int kMaxRebuilds = 4;

struct Rebuilder {
  const Design& src;
  Design out;
  std::vector<NodeId> remap;
  std::map<std::tuple<int, int, std::vector<NodeId>, std::int64_t>, NodeId> hash;
  std::size_t folded = 0;

  explicit Rebuilder(const Design& s)
      : src(s), out(s.name()), remap(s.nodes().size(), kNoNode) {}

  /// Emits @p n, structurally hashed (CSE) unless it is a state or input
  /// node.
  NodeId emit(Node n) {
    if (n.op != Op::kRegQ && n.op != Op::kInput && n.op != Op::kRamRead) {
      auto key = std::make_tuple(static_cast<int>(n.op), n.width, n.args, n.imm);
      const auto it = hash.find(key);
      if (it != hash.end()) return it->second;
      const NodeId id = out.add_node(n);
      hash.emplace(std::move(key), id);
      return id;
    }
    return out.add_node(std::move(n));
  }

  NodeId mapped(NodeId old_id) const {
    return old_id == kNoNode ? kNoNode : remap[static_cast<std::size_t>(old_id)];
  }

  /// Cheap algebraic identities returning an existing new-node id.
  std::optional<NodeId> identity(const Node& n, const std::vector<NodeId>& new_args) {
    auto is_const = [&](NodeId id, std::uint64_t v) {
      const Node& c = out.node(id);
      return c.op == Op::kConst &&
             (static_cast<std::uint64_t>(c.imm) & mask_w(c.width)) == v;
    };
    switch (n.op) {
      case Op::kAdd:
      case Op::kSub:
      case Op::kOr:
      case Op::kXor:
      case Op::kShl:
      case Op::kShr:
        if (n.op == Op::kShl || n.op == Op::kShr) {
          if (n.imm == 0) return new_args[0];
        } else if (is_const(new_args[1], 0) &&
                   out.node(new_args[0]).width == n.width) {
          return new_args[0];
        }
        return std::nullopt;
      case Op::kMux:
        if (new_args[1] == new_args[2]) return new_args[1];
        if (is_const(new_args[0], 1)) return new_args[2];
        if (is_const(new_args[0], 0)) return new_args[1];
        return std::nullopt;
      case Op::kSlice:
        if (n.imm == 0 && out.node(new_args[0]).width == n.width) return new_args[0];
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }

  void run() {
    // Pre-create registers so kRegQ nodes can map by register index, and
    // carry memories/roms over verbatim.
    for (const Register& r : src.registers())
      out.add_register(r.name, r.width, r.reset_value);
    for (const Memory& m : src.memories())
      out.add_memory(m.name, m.addr_bits, m.data_bits);
    for (const Rom& r : src.roms())
      out.add_rom(r.name, r.addr_bits, r.data_bits, r.contents);

    const auto live = src.live_nodes();
    for (std::size_t i = 0; i < src.nodes().size(); ++i) {
      const Node& n = src.nodes()[i];
      if (!live[i] && n.op != Op::kInput) continue;
      if (n.op == Op::kRegQ) {
        remap[i] = out.registers()[static_cast<std::size_t>(n.imm)].q;
        continue;
      }
      if (n.op == Op::kInput) {
        remap[i] = out.input(n.name, n.width);
        continue;
      }
      if (auto v = fold_const(src, n, out.nodes(), remap)) {
        remap[i] = emit([&] {
          Node c;
          c.op = Op::kConst;
          c.width = n.width;
          c.imm = static_cast<std::int64_t>(*v);
          return c;
        }());
        ++folded;
        continue;
      }
      Node copy = n;
      for (NodeId& a : copy.args) a = mapped(a);
      if (auto id = identity(n, copy.args)) {
        remap[i] = *id;
        ++folded;
        continue;
      }
      remap[i] = emit(std::move(copy));
    }

    for (std::size_t r = 0; r < src.registers().size(); ++r)
      out.set_register_next(static_cast<int>(r), mapped(src.registers()[r].next),
                            mapped(src.registers()[r].enable));
    for (std::size_t m = 0; m < src.memories().size(); ++m) {
      const Memory& mem = src.memories()[m];
      out.set_memory_write(static_cast<int>(m), mapped(mem.write_addr),
                           mapped(mem.write_data), mapped(mem.write_enable));
    }
    for (const PortDef& o : src.outputs()) out.add_output(o.name, mapped(o.node));
  }
};

}  // namespace

Design run_passes(const Design& design, PassStats* stats) {
  PassStats local;
  local.nodes_before = design.nodes().size();
  local.registers_before = design.registers().size();

  Design current("tmp");
  {
    Rebuilder rb(design);
    rb.run();
    local.folded += rb.folded;
    current = std::move(rb.out);
  }
  for (int it = 1; it < kMaxRebuilds; ++it) {
    Rebuilder rb(current);
    rb.run();
    const bool changed = rb.out.nodes().size() != current.nodes().size() || rb.folded > 0;
    local.folded += rb.folded;
    current = std::move(rb.out);
    if (!changed) break;
  }
  current.validate();
  local.nodes_after = current.nodes().size();
  local.registers_after = current.registers().size();
  if (stats != nullptr) *stats = local;
  return current;
}

}  // namespace scflow::rtl
