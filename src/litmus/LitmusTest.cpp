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

using namespace cats;

std::string Instruction::toString() const {
  switch (Op) {
  case Opcode::Load:
    if (AddrDep >= 0)
      return strFormat("ld r%d, %s[r%d]", Dst, Loc.c_str(), AddrDep);
    return strFormat("ld r%d, %s", Dst, Loc.c_str());
  case Opcode::Store: {
    std::string Target =
        AddrDep >= 0 ? strFormat("%s[r%d]", Loc.c_str(), AddrDep) : Loc;
    if (Src1.isImm())
      return strFormat("st %s, #%lld", Target.c_str(),
                       static_cast<long long>(Src1.asImm()));
    return strFormat("st %s, r%d", Target.c_str(), Src1.asReg());
  }
  case Opcode::Move:
    if (Src1.isImm())
      return strFormat("mov r%d, #%lld", Dst,
                       static_cast<long long>(Src1.asImm()));
    return strFormat("mov r%d, r%d", Dst, Src1.asReg());
  case Opcode::Xor:
    return strFormat("xor r%d, r%d, r%d", Dst, Src1.asReg(), Src2.asReg());
  case Opcode::Add:
    return strFormat("add r%d, r%d, r%d", Dst, Src1.asReg(), Src2.asReg());
  case Opcode::CmpBranch:
    return strFormat("beq r%d", Src1.asReg());
  case Opcode::Fence:
    return FenceName;
  }
  return "<bad instruction>";
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
  if (AtomKind == Kind::RegEquals)
    return strFormat("%d:r%d=%lld", Thread, Reg,
                     static_cast<long long>(Val));
  return strFormat("%s=%lld", Loc.c_str(), static_cast<long long>(Val));
}

std::string Condition::toString() const {
  if (trivial())
    return "exists (true)";
  std::vector<std::string> DisjunctStrings;
  for (const auto &Conj : Disjuncts) {
    std::vector<std::string> AtomStrings;
    for (const auto &Atom : Conj)
      AtomStrings.push_back(Atom.toString());
    DisjunctStrings.push_back(joinStrings(AtomStrings, " /\\ "));
  }
  return "exists (" + joinStrings(DisjunctStrings, " \\/ ") + ")";
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

void appendInt(std::string &Out, long long V) {
  char Buf[24];
  char *End = Buf + sizeof(Buf);
  char *P = End;
  const bool Neg = V < 0;
  unsigned long long U =
      Neg ? ~static_cast<unsigned long long>(V) + 1 : static_cast<unsigned long long>(V);
  do {
    *--P = static_cast<char>('0' + U % 10);
    U /= 10;
  } while (U);
  if (Neg)
    *--P = '-';
  Out.append(P, End);
}

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
/// the way appendInt writes it: no '+', no leading zero, no "-0".
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
  appendInt(Key, static_cast<long long>(Thread));
  Key += ":r";
  appendInt(Key, R);
  Key += '=';
  appendInt(Key, V);
  Key += ';';
}

void cats::appendMemoryKeyField(std::string &Key, std::string_view Loc,
                                Value V) {
  Key += Loc;
  Key += '=';
  appendInt(Key, V);
  Key += ';';
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
  std::string Out = archName(TargetArch) + " " + Name + "\n{ ";
  bool First = true;
  for (const auto &[Loc, V] : Init) {
    if (!First)
      Out += "; ";
    First = false;
    Out += strFormat("%s=%lld", Loc.c_str(), static_cast<long long>(V));
  }
  Out += " }\n";
  for (size_t T = 0; T < Threads.size(); ++T) {
    Out += strFormat("P%zu:\n", T);
    for (const auto &Instr : Threads[T])
      Out += "  " + Instr.toString() + "\n";
  }
  Out += Final.toString() + "\n";
  return Out;
}
