//===- LitmusTest.cpp - Litmus tests and final conditions -----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "litmus/LitmusTest.h"

#include "event/Execution.h"
#include "obs/Metrics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <set>
#include <type_traits>

using namespace cats;

namespace {

/// Appends each of \p Parts to \p Out: text as it is, an integer in
/// decimal by std::to_chars. A const char * stops at its NUL, which is
/// how location names are appended: cut at a NUL byte, as the printf
/// rendering that cache keys were first hashed over cut them.
template <typename... Parts>
void append(std::string &Out, const Parts &...Part) {
  auto One = [&Out](const auto &P) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(P)>> &&
                  !std::is_same_v<std::decay_t<decltype(P)>, char>) {
      char Buf[24];
      Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), P).ptr);
    } else {
      Out += P;
    }
  };
  (One(Part), ...);
}

/// Appends "loc" or "loc[rN]".
void appendAddress(std::string &Out, const Instruction &I) {
  append(Out, I.Loc.c_str());
  if (I.AddrDep >= 0)
    append(Out, "[r", I.AddrDep, ']');
}

/// Appends ", #imm" or ", rN".
void appendSource(std::string &Out, const Operand &Src) {
  if (Src.isImm())
    append(Out, ", #", Src.asImm());
  else
    append(Out, ", r", Src.asReg());
}

void appendInstruction(std::string &Out, const Instruction &I) {
  switch (I.Op) {
  case Opcode::Load:
    append(Out, "ld r", I.Dst, ", ");
    return appendAddress(Out, I);
  case Opcode::Store:
    append(Out, "st ");
    appendAddress(Out, I);
    return appendSource(Out, I.Src1);
  case Opcode::Move:
    append(Out, "mov r", I.Dst);
    return appendSource(Out, I.Src1);
  case Opcode::Xor:
  case Opcode::Add:
    return append(Out, I.Op == Opcode::Xor ? "xor r" : "add r", I.Dst, ", r",
                  I.Src1.asReg(), ", r", I.Src2.asReg());
  case Opcode::CmpBranch:
    return append(Out, "beq r", I.Src1.asReg());
  case Opcode::Fence:
    return append(Out, I.FenceName);
  }
  append(Out, "<bad instruction>");
}

void appendAtom(std::string &Out, const ConditionAtom &A) {
  if (A.AtomKind == ConditionAtom::Kind::RegEquals)
    append(Out, A.Thread, ":r", A.Reg, '=', A.Val);
  else
    append(Out, A.Loc.c_str(), '=', A.Val);
}

void appendCondition(std::string &Out, const Condition &C) {
  if (C.trivial())
    return append(Out, "exists (true)");
  append(Out, "exists (");
  for (size_t D = 0; D < C.Disjuncts.size(); ++D) {
    append(Out, D ? " \\/ " : "");
    for (size_t A = 0; A < C.Disjuncts[D].size(); ++A) {
      append(Out, A ? " /\\ " : "");
      appendAtom(Out, C.Disjuncts[D][A]);
    }
  }
  append(Out, ')');
}

} // namespace

std::string Instruction::toString() const {
  std::string Out;
  appendInstruction(Out, *this);
  return Out;
}

bool cats::parseArch(const std::string &Name, Arch &Out) {
  // Case-insensitive: litmus headers write "Power"/"PPC", the CLIs take
  // "power".
  std::string Lower;
  for (char C : Name)
    Lower += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (Lower == "sc") {
    Out = Arch::SC;
    return true;
  }
  if (Lower == "tso" || Lower == "x86") {
    Out = Arch::TSO;
    return true;
  }
  if (Lower == "power" || Lower == "ppc") {
    Out = Arch::Power;
    return true;
  }
  if (Lower == "arm") {
    Out = Arch::ARM;
    return true;
  }
  if (Lower == "c++ra" || Lower == "cppra" || Lower == "ra") {
    Out = Arch::CppRA;
    return true;
  }
  return false;
}

std::string cats::archName(Arch A) {
  switch (A) {
  case Arch::SC:
    return "SC";
  case Arch::TSO:
    return "TSO";
  case Arch::Power:
    return "Power";
  case Arch::ARM:
    return "ARM";
  case Arch::CppRA:
    return "C++RA";
  }
  return "?";
}

bool cats::archHasFence(Arch A, const std::string &FenceName) {
  switch (A) {
  case Arch::SC:
  case Arch::CppRA:
    return false;
  case Arch::TSO:
    return FenceName == fence::MFence;
  case Arch::Power:
    return FenceName == fence::Sync || FenceName == fence::LwSync ||
           FenceName == fence::Eieio || FenceName == fence::ISync;
  case Arch::ARM:
    return FenceName == fence::Dmb || FenceName == fence::Dsb ||
           FenceName == fence::DmbSt || FenceName == fence::DsbSt ||
           FenceName == fence::Isb;
  }
  return false;
}

const char *cats::archControlFence(Arch A) {
  return A == Arch::ARM ? fence::Isb : fence::ISync;
}

std::string ConditionAtom::toString() const {
  std::string Out;
  appendAtom(Out, *this);
  return Out;
}

std::string Condition::toString() const {
  std::string Out;
  appendCondition(Out, *this);
  return Out;
}

Value Outcome::reg(ThreadId T, Register R) const {
  if (T < 0 || static_cast<size_t>(T) >= Regs.size())
    return 0;
  auto It = Regs[T].find(R);
  return It == Regs[T].end() ? 0 : It->second;
}

Value Outcome::mem(const std::string &Loc) const {
  auto It = Memory.find(Loc);
  return It == Memory.end() ? 0 : It->second;
}

bool Outcome::satisfies(const Condition &Cond) const {
  return conditionHolds(
      Cond, [this](ThreadId T, Register R) { return reg(T, R); },
      [this](const std::string &Loc) { return mem(Loc); });
}

namespace {

std::string buildOutcomeKey(const Outcome &O) {
  std::string Out;
  Out.reserve(64);
  for (size_t T = 0; T < O.Regs.size(); ++T)
    for (const auto &[R, V] : O.Regs[T])
      appendRegisterKeyField(Out, T, R, V);
  for (const auto &[Loc, V] : O.Memory)
    appendMemoryKeyField(Out, Loc, V);
  return Out;
}

/// Parses the whole of \p Text as a decimal integer of type \p T written
/// the way append writes it: no '+', no leading zero, no "-0".
template <typename T> bool parseCanonicalInt(std::string_view Text, T &Out) {
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, Out);
  if (Ec != std::errc() || Stop != End)
    return false;
  const size_t First = Text[0] == '-';
  return Text[First] != '0' || Text.size() == 1;
}

/// Register fields name threads below this. outcomeFromKey sizes its
/// register table by the largest thread index, so a corrupt index must
/// not size it; no litmus test comes close.
constexpr unsigned MaxKeyThreads = 1u << 16;

/// Walks the fields of \p Key in order, checking the grammar and the
/// canonical order, and hands each one to \p OnReg(Thread, Reg, Val) or
/// \p OnMem(Loc, Val). Returns null when the whole key is canonical, the
/// reason otherwise.
template <typename RegFn, typename MemFn>
const char *walkOutcomeKey(std::string_view Key, const RegFn &OnReg,
                           const MemFn &OnMem) {
  bool SeenReg = false, SeenMem = false;
  unsigned LastThread = 0;
  Register LastReg = 0;
  std::string_view LastLoc;
  size_t Pos = 0;
  while (Pos < Key.size()) {
    const size_t End = Key.find(';', Pos);
    if (End == std::string_view::npos)
      return "field without trailing ';'";
    const std::string_view Field = Key.substr(Pos, End - Pos);
    Pos = End + 1;
    const size_t Eq = Field.rfind('=');
    if (Eq == std::string_view::npos || Eq == 0)
      return "field without '='";
    Value Val = 0;
    if (!parseCanonicalInt(Field.substr(Eq + 1), Val))
      return "unparsable or non-canonical value";
    const std::string_view Left = Field.substr(0, Eq);
    // "T:rR" is a register field; anything else is a memory location
    // (location names cannot contain ':').
    const size_t Colon = Left.find(':');
    if (Colon == std::string_view::npos) {
      if (SeenMem && !(LastLoc < Left))
        return "memory fields out of name order";
      SeenMem = true;
      LastLoc = Left;
      OnMem(Left, Val);
      continue;
    }
    unsigned Thread = 0;
    Register Reg = 0;
    if (!parseCanonicalInt(Left.substr(0, Colon), Thread) ||
        Thread >= MaxKeyThreads || Colon + 1 >= Left.size() ||
        Left[Colon + 1] != 'r' ||
        !parseCanonicalInt(Left.substr(Colon + 2), Reg))
      return "malformed register field";
    if (SeenMem)
      return "register field after a memory field";
    if (SeenReg && !(LastThread < Thread ||
                     (LastThread == Thread && LastReg < Reg)))
      return "register fields out of order";
    SeenReg = true;
    LastThread = Thread;
    LastReg = Reg;
    OnReg(Thread, Reg, Val);
  }
  return nullptr;
}

std::string badKey(std::string_view Key, const char *Why) {
  return "bad outcome key '" + std::string(Key) + "': " + Why;
}

} // namespace

// Hot path: the pruned enumerator writes a key per consistent outcome of
// every rf choice, so these format digits directly instead of going
// through strFormat's double vsnprintf.
void cats::appendRegisterKeyField(std::string &Key, size_t Thread,
                                  Register R, Value V) {
  append(Key, Thread, ":r", R, '=', V, ';');
}

void cats::appendMemoryKeyField(std::string &Key, std::string_view Loc,
                                Value V) {
  append(Key, Loc, '=', V, ';');
}

Expected<Outcome> cats::outcomeFromKey(std::string_view Key) {
  Outcome Out;
  // Fields arrive in map order, so every insert lands at the end.
  const char *Why = walkOutcomeKey(
      Key,
      [&](unsigned Thread, Register Reg, Value Val) {
        if (Out.Regs.size() <= Thread)
          Out.Regs.resize(Thread + 1);
        Out.Regs[Thread].emplace_hint(Out.Regs[Thread].end(), Reg, Val);
      },
      [&](std::string_view Loc, Value Val) {
        Out.Memory.emplace_hint(Out.Memory.end(), std::string(Loc), Val);
      });
  if (Why)
    return Expected<Outcome>::error(badKey(Key, Why));
  Out.enableKeyCache();
  return Out;
}

Status cats::checkOutcomeKey(std::string_view Key) {
  const char *Why = walkOutcomeKey(
      Key, [](unsigned, Register, Value) {}, [](std::string_view, Value) {});
  return Why ? Status::error(badKey(Key, Why)) : Status::success();
}

std::string Outcome::key() const {
  return KeyCacheEnabled ? keyRef() : buildOutcomeKey(*this);
}

const std::string &Outcome::keyRef() const {
  // Static instrument handles: this runs per outcome-set comparison, so
  // each tick must stay a sharded relaxed add, not a registry lookup.
  static obs::Counter &Builds = obs::counter("memo.outcome_key_builds");
  static obs::Counter &Hits = obs::counter("memo.outcome_key_hits");
  if (!KeyCacheValid) {
    KeyCache = buildOutcomeKey(*this);
    KeyCacheValid = true;
    if (obs::metricsEnabled())
      Builds.add(1);
  } else if (obs::metricsEnabled()) {
    Hits.add(1);
  }
  return KeyCache;
}

bool Outcome::operator<(const Outcome &Other) const {
  // Compare via the caches when both sides have them (the common case in
  // outcome sets, where stored elements were inserted cache-warm).
  if (KeyCacheEnabled && Other.KeyCacheEnabled)
    return keyRef() < Other.keyRef();
  return key() < Other.key();
}

bool Outcome::operator==(const Outcome &Other) const {
  if (KeyCacheEnabled && Other.KeyCacheEnabled)
    return keyRef() == Other.keyRef();
  return key() == Other.key();
}

std::vector<std::string> LitmusTest::locations() const {
  std::vector<std::string> Out;
  std::set<std::string> Seen;
  auto Note = [&](const std::string &Loc) {
    if (!Loc.empty() && Seen.insert(Loc).second)
      Out.push_back(Loc);
  };
  for (const auto &Thread : Threads)
    for (const auto &Instr : Thread)
      Note(Instr.Loc);
  for (const auto &[Loc, _] : Init)
    Note(Loc);
  for (const auto &Conj : Final.Disjuncts)
    for (const auto &Atom : Conj)
      if (Atom.AtomKind == ConditionAtom::Kind::MemEquals)
        Note(Atom.Loc);
  return Out;
}

std::string LitmusTest::validate() const {
  for (size_t T = 0; T < Threads.size(); ++T) {
    for (size_t I = 0; I < Threads[T].size(); ++I) {
      const Instruction &Instr = Threads[T][I];
      auto Where = [&](const char *Problem) {
        return strFormat("P%zu instruction %zu (%s): %s", T, I,
                         Instr.toString().c_str(), Problem);
      };
      switch (Instr.Op) {
      case Opcode::Load:
        if (Instr.Dst < 0)
          return Where("load needs a destination register");
        if (Instr.Loc.empty())
          return Where("load needs a location");
        break;
      case Opcode::Store:
        if (Instr.Loc.empty())
          return Where("store needs a location");
        if (Instr.Src1.OpKind == Operand::Kind::None)
          return Where("store needs a source operand");
        break;
      case Opcode::Move:
        if (Instr.Dst < 0 || Instr.Src1.OpKind == Operand::Kind::None)
          return Where("mov needs a destination and a source");
        break;
      case Opcode::Xor:
      case Opcode::Add:
        if (Instr.Dst < 0 || !Instr.Src1.isReg() || !Instr.Src2.isReg())
          return Where("alu op needs a destination and two registers");
        break;
      case Opcode::CmpBranch:
        if (!Instr.Src1.isReg())
          return Where("branch needs a register");
        break;
      case Opcode::Fence:
        if (!archHasFence(TargetArch, Instr.FenceName) &&
            !Instr.isControlFence())
          return Where(strFormat("fence '%s' is not available on %s",
                                 Instr.FenceName.c_str(),
                                 archName(TargetArch).c_str())
                           .c_str());
        if (Instr.isControlFence() && !archHasFence(TargetArch,
                                                    Instr.FenceName))
          return Where(strFormat("control fence '%s' is not available on %s",
                                 Instr.FenceName.c_str(),
                                 archName(TargetArch).c_str())
                           .c_str());
        break;
      }
    }
  }
  // Outcome keys separate fields with ';' and tell register fields by
  // their ':', so a location name holding either could not round-trip
  // through a report or a cache entry.
  auto BadName = [](const std::string &Loc) {
    const size_t At = Loc.find_first_of(":;");
    if (At == std::string::npos)
      return std::string();
    return strFormat("location name '%s' contains '%c', which outcome keys "
                     "reserve",
                     Loc.c_str(), Loc[At]);
  };
  for (const auto &Thread : Threads)
    for (const auto &Instr : Thread)
      if (std::string Problem = BadName(Instr.Loc); !Problem.empty())
        return Problem;
  for (const auto &[Loc, _] : Init)
    if (std::string Problem = BadName(Loc); !Problem.empty())
      return Problem;
  for (const auto &Conj : Final.Disjuncts)
    for (const auto &Atom : Conj)
      if (std::string Problem = BadName(Atom.Loc); !Problem.empty())
        return Problem;
  return "";
}

std::string LitmusTest::toString() const {
  // One buffer, digits by std::to_chars: this text is every cache key's
  // and every exported file's, rendered once per test a campaign pulls.
  std::string Out;
  Out.reserve(256);
  append(Out, archName(TargetArch), ' ', Name, "\n{ ");
  const char *Separator = "";
  for (const auto &[Loc, V] : Init) {
    append(Out, Separator, Loc.c_str(), '=', V);
    Separator = "; ";
  }
  append(Out, " }\n");
  for (size_t T = 0; T < Threads.size(); ++T) {
    append(Out, 'P', T, ":\n");
    for (const Instruction &Instr : Threads[T]) {
      append(Out, "  ");
      appendInstruction(Out, Instr);
      append(Out, '\n');
    }
  }
  appendCondition(Out, Final);
  append(Out, '\n');
  return Out;
}
