// Word-level RTL intermediate representation.
//
// This is the common currency of the synthesis substrate: hand-written RTL
// architectures (the paper's RTL-SystemC designs and the VHDL reference)
// are built directly in it, the behavioural synthesiser (hls/) emits it,
// the cycle-accurate interpreter executes it, and the netlist stage
// bit-blasts it to gates.
//
// Semantics: a Design is one clock domain.  Combinational logic is a DAG
// of width-annotated nodes over inputs, register outputs and memory reads;
// registers update on the (implicit) rising edge; memories have synchronous
// write and asynchronous read ports and are black-box macros (excluded
// from synthesis area, like the paper's buffer RAM and coefficient ROM).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scflow::rtl {

using NodeId = std::int32_t;
constexpr NodeId kNoNode = -1;

enum class Op : std::uint8_t {
  kConst,    // imm = value
  kInput,    // top-level input port
  kRegQ,     // output of register imm
  kAdd, kSub, kMul,          // two's-complement, result truncated to width
  kAddC,                     // args {a, b, cin}: a + b + cin (shared-ALU idiom)
  kAnd, kOr, kXor, kNot,
  kEq, kNe, kLtU, kLtS,      // 1-bit results
  kShl, kShr,                // constant shift amount in imm (logical)
  kMux,                      // args: {sel, a0, a1} -> sel ? a1 : a0
  kSlice,                    // bits [imm+width-1 : imm] of arg
  kZext, kSext,              // width extension
  kRamRead,                  // async read: args {addr, enable}, imm = memory index
  kRomRead,                  // args {addr}, imm = rom index
};

[[nodiscard]] const char* op_name(Op op);

struct Node {
  Op op = Op::kConst;
  int width = 1;
  std::vector<NodeId> args;
  std::int64_t imm = 0;
  std::string name;  // inputs and debug labels
};

struct Register {
  std::string name;
  int width = 1;
  std::int64_t reset_value = 0;
  NodeId next = kNoNode;    ///< D input (required after finalise)
  NodeId enable = kNoNode;  ///< optional write enable (kNoNode = always)
  NodeId q = kNoNode;       ///< the kRegQ node representing the output
};

/// Black-box memory macro with one synchronous write port; reads appear as
/// kRamRead nodes.  Contents live in the interpreter / simulation model.
struct Memory {
  std::string name;
  int addr_bits = 0;
  int data_bits = 0;
  NodeId write_addr = kNoNode;
  NodeId write_data = kNoNode;
  NodeId write_enable = kNoNode;
};

/// Black-box ROM macro with baked contents (used by the interpreter and
/// the gate-level simulation model; excluded from synthesis area).
struct Rom {
  std::string name;
  int addr_bits = 0;
  int data_bits = 0;
  std::vector<std::int64_t> contents;  // sign-extended values
};

struct PortDef {
  std::string name;
  int width = 1;
  NodeId node = kNoNode;  // kInput node / driven output node
};

class Design {
 public:
  explicit Design(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- construction ---
  NodeId add_node(Node n);
  NodeId constant(int width, std::int64_t value);
  NodeId input(const std::string& name, int width);
  int add_register(const std::string& name, int width, std::int64_t reset = 0);
  int add_memory(const std::string& name, int addr_bits, int data_bits);
  int add_rom(const std::string& name, int addr_bits, int data_bits,
              std::vector<std::int64_t> contents);
  void add_output(const std::string& name, NodeId node);

  void set_register_next(int reg, NodeId next, NodeId enable = kNoNode);
  void set_memory_write(int mem, NodeId addr, NodeId data, NodeId enable);

  // --- access ---
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const std::vector<Register>& registers() const { return regs_; }
  [[nodiscard]] const std::vector<Memory>& memories() const { return mems_; }
  [[nodiscard]] const std::vector<Rom>& roms() const { return roms_; }
  [[nodiscard]] const std::vector<PortDef>& inputs() const { return ins_; }
  [[nodiscard]] const std::vector<PortDef>& outputs() const { return outs_; }

  /// Checks that every register has a next function, all widths are
  /// positive and argument references are in range.  Throws on violation.
  void validate() const;

  /// Topological order of all nodes (inputs/consts/regQ/ram-reads are
  /// sources; ram reads depend on their address).  Deterministic.
  [[nodiscard]] std::vector<NodeId> topo_order() const;

  /// Every node reachable from outputs, register inputs and memory ports.
  [[nodiscard]] std::vector<bool> live_nodes() const;

  /// Simple statistics used by reports and tests.
  struct Stats {
    std::size_t nodes = 0;
    std::size_t registers = 0;
    std::size_t register_bits = 0;
    std::size_t multipliers = 0;  // live kMul nodes
    std::size_t adders = 0;       // live kAdd/kSub nodes
  };
  [[nodiscard]] Stats stats() const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Register> regs_;
  std::vector<Memory> mems_;
  std::vector<Rom> roms_;
  std::vector<PortDef> ins_;
  std::vector<PortDef> outs_;
};

}  // namespace scflow::rtl
