//===- LitmusTest.h - Litmus tests and final conditions -------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A litmus test: a small multi-threaded program with an initial state and a
/// final condition, in the diy tradition (Sec. 8.1). The condition is an
/// existential query over final register and memory values; a test's
/// interesting behaviour is "can the condition be reached".
///
//===----------------------------------------------------------------------===//

#ifndef CATS_LITMUS_LITMUSTEST_H
#define CATS_LITMUS_LITMUSTEST_H

#include "event/Event.h"
#include "litmus/Instruction.h"
#include "support/Error.h"

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cats {

/// Architectures a litmus test can target. The architecture constrains the
/// fences the test may use and selects the model instance the simulators
/// apply by default.
enum class Arch : uint8_t { SC, TSO, Power, ARM, CppRA };

/// Parses "SC" / "TSO" / "X86" / "Power" / "PPC" / "ARM" / "C++RA".
/// Returns false on unknown names.
bool parseArch(const std::string &Name, Arch &Out);

/// Canonical display name.
std::string archName(Arch A);

/// True if fence \p FenceName is available on \p A.
bool archHasFence(Arch A, const std::string &FenceName);

/// The control fence that completes a ctrl+cfence dependency on \p A
/// (isb on ARM, isync elsewhere). Whether the architecture actually has
/// it is a separate archHasFence check.
const char *archControlFence(Arch A);

/// One conjunct of a final condition.
struct ConditionAtom {
  enum class Kind : uint8_t {
    RegEquals, ///< Thread's register holds Value.
    MemEquals  ///< Memory location holds Value in the final state.
  };
  Kind AtomKind = Kind::RegEquals;
  ThreadId Thread = 0;
  Register Reg = 0;
  std::string Loc;
  Value Val = 0;

  static ConditionAtom regEquals(ThreadId T, Register R, Value V) {
    ConditionAtom A;
    A.AtomKind = Kind::RegEquals;
    A.Thread = T;
    A.Reg = R;
    A.Val = V;
    return A;
  }
  static ConditionAtom memEquals(std::string Loc, Value V) {
    ConditionAtom A;
    A.AtomKind = Kind::MemEquals;
    A.Loc = std::move(Loc);
    A.Val = V;
    return A;
  }

  std::string toString() const;
};

/// A final condition in disjunctive normal form: exists (C1 \/ C2 \/ ...)
/// where each Ci is a conjunction of atoms. An empty DNF is "exists true".
struct Condition {
  std::vector<std::vector<ConditionAtom>> Disjuncts;

  /// Adds one conjunction.
  void addConjunction(std::vector<ConditionAtom> Atoms) {
    Disjuncts.push_back(std::move(Atoms));
  }

  bool trivial() const { return Disjuncts.empty(); }
  std::string toString() const;
};

/// Evaluates \p Cond over a final state given by two lookups,
/// \p Reg(ThreadId, Register) and \p Mem(const std::string &Loc), each
/// answering 0 for a register, thread or location the state does not hold.
/// The one condition walk of the project: Outcome::satisfies and the pruned
/// enumerator, which never builds an Outcome, both call it.
template <typename RegFn, typename MemFn>
bool conditionHolds(const Condition &Cond, const RegFn &Reg,
                    const MemFn &Mem) {
  if (Cond.trivial())
    return true;
  for (const auto &Conj : Cond.Disjuncts) {
    bool All = true;
    for (const ConditionAtom &Atom : Conj) {
      const Value Actual = Atom.AtomKind == ConditionAtom::Kind::RegEquals
                               ? Reg(Atom.Thread, Atom.Reg)
                               : Mem(Atom.Loc);
      if (Actual != Atom.Val) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

/// The observable final state of one program execution: per-thread register
/// files and the final memory contents.
struct Outcome {
  /// Final register values: Regs[Thread][Register]; registers not written
  /// read as 0.
  std::vector<std::map<Register, Value>> Regs;
  /// Final memory values by location name.
  std::map<std::string, Value> Memory;

  Value reg(ThreadId T, Register R) const;
  Value mem(const std::string &Loc) const;

  /// Evaluates \p Cond against this outcome.
  bool satisfies(const Condition &Cond) const;

  /// Canonical textual key, usable as a set element when collecting the
  /// distinct final states of a test (grammar: "Outcome keys" below).
  std::string key() const;

  /// Enables memoization of key(). Only call once the outcome is final
  /// (the litmus compiler enables it on every concretized candidate):
  /// mutating Regs/Memory afterwards yields a stale key. Set/map
  /// operations between cached outcomes then compare without rebuilding
  /// the key string each time.
  void enableKeyCache() const { KeyCacheEnabled = true; }

  bool operator<(const Outcome &Other) const;
  bool operator==(const Outcome &Other) const;

private:
  /// keyRef() fills KeyCache on first use when enabled; copies of the
  /// outcome (e.g. inside a std::set) carry the warm cache along.
  const std::string &keyRef() const;
  mutable std::string KeyCache;
  mutable bool KeyCacheEnabled = false;
  mutable bool KeyCacheValid = false;
};

//===----------------------------------------------------------------------===//
// Outcome keys
//
// The canonical key of a final state lists every written register as
// "T:rR=V;" in (thread, register) order, then every location as "loc=V;"
// in name order, with decimal integers in their shortest form. Keys are
// what outcome tables, reports and cache entries store; Outcome::key() and
// the pruned enumerator write them with the two helpers below, and
// outcomeFromKey is the one parser. Location names cannot contain ':' or
// ';' (LitmusTest::validate), which keeps register and memory fields
// apart.
//===----------------------------------------------------------------------===//

/// Appends the register field "T:rR=V;" to \p Key.
void appendRegisterKeyField(std::string &Key, size_t Thread, Register R,
                            Value V);

/// Appends the memory field "loc=V;" to \p Key.
void appendMemoryKeyField(std::string &Key, std::string_view Loc, Value V);

/// Parses a canonical key back into the Outcome whose key() it is. A key
/// that is malformed, or not canonical (fields out of order or repeated, a
/// number written with '+', a leading zero or as "-0"), is refused while
/// parsing, so an accepted key renders back to itself.
Expected<Outcome> outcomeFromKey(std::string_view Key);

/// The same grammar and canonical-form check as outcomeFromKey, without
/// building the outcome.
Status checkOutcomeKey(std::string_view Key);

/// A complete litmus test.
struct LitmusTest {
  std::string Name;
  Arch TargetArch = Arch::SC;
  std::vector<ThreadCode> Threads;
  /// Initial memory values; locations referenced by the code but absent
  /// here start at 0.
  std::map<std::string, Value> Init;
  Condition Final;

  unsigned numThreads() const {
    return static_cast<unsigned>(Threads.size());
  }

  /// All location names used by loads/stores plus initialised ones, in
  /// first-use order.
  std::vector<std::string> locations() const;

  /// Sanity checks: fences legal for the architecture, registers in range,
  /// branch/arith operands defined, location names free of the ':' and ';'
  /// that outcome keys reserve. Returns an explanatory error otherwise.
  std::string validate() const;

  /// Renders in the text format understood by parseLitmus.
  std::string toString() const;
};

} // namespace cats

#endif // CATS_LITMUS_LITMUSTEST_H
