//===- Instruction.h - Pseudo-assembly for litmus tests -------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The litmus pseudo-ISA. It abstracts over Power / ARM / x86 assembly the
/// way the paper's examples do (Sec. 5): loads, stores (optionally with an
/// index register creating an address dependency, true or false), register
/// arithmetic (xor for false dependencies), compare-and-branch (for control
/// dependencies), and the architecture's fences.
///
/// Control flow is straight-line: branches emit a branch decision (and hence
/// ctrl / ctrl+cfence dependencies per Fig. 22) but always fall through, as
/// in the paper's litmus idiom where the branch target is the sequentially
/// next instruction ("this applies even if the branch target is the
/// sequentially next instruction", Power ISA quote in Sec. 6).
///
//===----------------------------------------------------------------------===//

#ifndef CATS_LITMUS_INSTRUCTION_H
#define CATS_LITMUS_INSTRUCTION_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace cats {

/// Register index, private to a thread. r0..r31.
using Register = int;

/// An instruction operand: either a register or an immediate.
struct Operand {
  enum class Kind : uint8_t { None, Reg, Imm };
  Kind OpKind = Kind::None;
  int Payload = 0;

  static Operand none() { return {}; }
  static Operand reg(Register R) { return {Kind::Reg, R}; }
  static Operand imm(int64_t V) {
    return {Kind::Imm, static_cast<int>(V)};
  }

  bool isReg() const { return OpKind == Kind::Reg; }
  bool isImm() const { return OpKind == Kind::Imm; }
  Register asReg() const {
    assert(isReg() && "operand is not a register");
    return Payload;
  }
  int64_t asImm() const {
    assert(isImm() && "operand is not an immediate");
    return Payload;
  }
};

/// Instruction opcodes of the pseudo-ISA.
enum class Opcode : uint8_t {
  Load,      ///< Dst <- [Loc], optional AddrDep index register.
  Store,     ///< [Loc] <- Src1 (reg or imm), optional AddrDep register.
  Move,      ///< Dst <- Src1.
  Xor,       ///< Dst <- Src1 ^ Src2 (xor r,r yields 0: false dependencies).
  Add,       ///< Dst <- Src1 + Src2.
  CmpBranch, ///< Branch on Src1 (always falls through; emits branch event).
  Fence      ///< Memory or control fence named by FenceName.
};

/// One pseudo-assembly instruction.
struct Instruction {
  Opcode Op = Opcode::Fence;
  Register Dst = -1;
  Operand Src1 = Operand::none();
  Operand Src2 = Operand::none();
  /// Memory location name for Load/Store.
  std::string Loc;
  /// Index register participating in the address computation of a
  /// Load/Store (-1 if none). Creates an addr dependency from any load that
  /// taints it, even when the value cannot change the address (false
  /// dependency, Sec. 5.2.1).
  Register AddrDep = -1;
  /// Fence name for Opcode::Fence (see event/Execution.h fence namespace).
  std::string FenceName;

  //===--------------------------------------------------------------------===//
  // Convenience constructors
  //===--------------------------------------------------------------------===//

  static Instruction load(Register Dst, std::string Loc,
                          Register AddrDep = -1) {
    Instruction I;
    I.Op = Opcode::Load;
    I.Dst = Dst;
    I.Loc = std::move(Loc);
    I.AddrDep = AddrDep;
    return I;
  }

  static Instruction store(std::string Loc, Operand Src,
                           Register AddrDep = -1) {
    Instruction I;
    I.Op = Opcode::Store;
    I.Loc = std::move(Loc);
    I.Src1 = Src;
    I.AddrDep = AddrDep;
    return I;
  }

  static Instruction move(Register Dst, Operand Src) {
    Instruction I;
    I.Op = Opcode::Move;
    I.Dst = Dst;
    I.Src1 = Src;
    return I;
  }

  static Instruction xorOp(Register Dst, Register A, Register B) {
    Instruction I;
    I.Op = Opcode::Xor;
    I.Dst = Dst;
    I.Src1 = Operand::reg(A);
    I.Src2 = Operand::reg(B);
    return I;
  }

  static Instruction addOp(Register Dst, Register A, Register B) {
    Instruction I;
    I.Op = Opcode::Add;
    I.Dst = Dst;
    I.Src1 = Operand::reg(A);
    I.Src2 = Operand::reg(B);
    return I;
  }

  static Instruction cmpBranch(Register Src) {
    Instruction I;
    I.Op = Opcode::CmpBranch;
    I.Src1 = Operand::reg(Src);
    return I;
  }

  static Instruction fenceNamed(std::string Name) {
    Instruction I;
    I.Op = Opcode::Fence;
    I.FenceName = std::move(Name);
    return I;
  }

  /// True for control fences (isync on Power, isb on ARM): they take part
  /// in ctrl+cfence dependencies rather than the propagation order.
  bool isControlFence() const {
    return Op == Opcode::Fence && (FenceName == "isync" || FenceName == "isb");
  }

  /// Renders in the pseudo-assembly syntax accepted by the parser.
  std::string toString() const;
};

/// A straight-line thread body.
using ThreadCode = std::vector<Instruction>;

} // namespace cats

#endif // CATS_LITMUS_INSTRUCTION_H
