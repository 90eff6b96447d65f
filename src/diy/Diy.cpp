//===- Diy.cpp - Cycle-based litmus test generation -----------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "diy/Diy.h"

#include "event/Execution.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace cats;

bool cats::isExternalEdge(EdgeKind Kind) {
  return Kind == EdgeKind::Rfe || Kind == EdgeKind::Fre ||
         Kind == EdgeKind::Wse;
}

bool cats::isInternalComEdge(EdgeKind Kind) {
  return Kind == EdgeKind::Rfi || Kind == EdgeKind::Fri ||
         Kind == EdgeKind::Wsi;
}

std::string DiyEdge::toString() const {
  switch (Kind) {
  case EdgeKind::Rfe:
    return "Rfe";
  case EdgeKind::Fre:
    return "Fre";
  case EdgeKind::Wse:
    return "Wse";
  case EdgeKind::Rfi:
    return "Rfi";
  case EdgeKind::Fri:
    return "Fri";
  case EdgeKind::Wsi:
    return "Wsi";
  case EdgeKind::Po:
    break;
  }
  auto DirName = [](Dir D) { return D == Dir::R ? "R" : "W"; };
  switch (Mech) {
  case PoMech::None:
    return strFormat("Pod%s%s", DirName(Src), DirName(Dst));
  case PoMech::Addr:
    return strFormat("DpAddrd%s", DirName(Dst));
  case PoMech::Data:
    return "DpDatadW";
  case PoMech::Ctrl:
    return strFormat("DpCtrld%s", DirName(Dst));
  case PoMech::CtrlCfence:
    return strFormat("DpCtrlCfenced%s", DirName(Dst));
  case PoMech::Fence:
    return strFormat("Fenced%s%s:%s", DirName(Src), DirName(Dst),
                     FenceName.c_str());
  }
  return "?";
}

namespace {

/// One event of the laid-out cycle.
struct CycleEvent {
  Dir Direction;
  int Thread;
  int Loc;
  /// Index in the cycle.
  size_t Index;
  /// For writes: the assigned value (co position). For reads: the value
  /// the condition pins.
  Value Val = 0;
  /// For reads: the register receiving the value.
  Register Reg = -1;
};

/// Mechanism names for test naming.
std::string mechSuffix(const DiyEdge &E, Arch Target) {
  switch (E.Mech) {
  case PoMech::None:
    return "po";
  case PoMech::Addr:
    return "addr";
  case PoMech::Data:
    return "data";
  case PoMech::Ctrl:
    return "ctrl";
  case PoMech::CtrlCfence:
    return Target == Arch::ARM ? "ctrlisb" : "ctrlisync";
  case PoMech::Fence:
    return E.FenceName;
  }
  return "?";
}

} // namespace

namespace {

/// Per-edge signature tokens: directions and edge kinds only, no
/// mechanisms. Two cycles are the same shape iff their signatures match
/// under some rotation.
std::vector<std::string> edgeSignature(const DiyCycle &C) {
  std::vector<std::string> Sig;
  for (const DiyEdge &E : C) {
    switch (E.Kind) {
    case EdgeKind::Rfe:
      Sig.push_back("r");
      break;
    case EdgeKind::Fre:
      Sig.push_back("f");
      break;
    case EdgeKind::Wse:
      Sig.push_back("w");
      break;
    case EdgeKind::Rfi:
      Sig.push_back("ri");
      break;
    case EdgeKind::Fri:
      Sig.push_back("fi");
      break;
    case EdgeKind::Wsi:
      Sig.push_back("wi");
      break;
    case EdgeKind::Po:
      Sig.push_back(std::string("p") + (E.Src == Dir::R ? "R" : "W") +
                    (E.Dst == Dir::R ? "R" : "W"));
      break;
    }
  }
  return Sig;
}

/// True when \p Sig rotated left by \p Start equals \p Other.
bool rotationEquals(const std::vector<std::string> &Sig, size_t Start,
                    const std::vector<std::string> &Other) {
  if (Sig.size() != Other.size())
    return false;
  for (size_t I = 0; I < Sig.size(); ++I)
    if (Sig[(Start + I) % Sig.size()] != Other[I])
      return false;
  return true;
}

/// Rotation starts sitting on a thread boundary (the predecessor edge is
/// external), so a rotation started there renders threads whole. Cycles
/// with no external edge (malformed) fall back to every index.
std::vector<size_t> boundaryStarts(const DiyCycle &C) {
  std::vector<size_t> Starts;
  for (size_t I = 0; I < C.size(); ++I)
    if (isExternalEdge(C[(I + C.size() - 1) % C.size()].Kind))
      Starts.push_back(I);
  if (Starts.empty())
    for (size_t I = 0; I < C.size(); ++I)
      Starts.push_back(I);
  return Starts;
}

/// The canonical rotation start of a cycle, plus the classic family it
/// matches (empty when none). Classic-family alignment wins so that the
/// paper's conventional rotations (writer side first for mp) survive;
/// remaining ties — rotation-symmetric cycles like sb or iriw — break to
/// the lexicographically-least full-edge-token rotation.
struct CanonicalChoice {
  size_t Start = 0;
  std::string Family;
};

/// The classic families' signatures, computed once: canonicalChoice runs
/// once per enumerated cycle, so it must not rebuild the family cycles per
/// call.
const std::vector<std::pair<std::string, std::vector<std::string>>> &
familySignatures() {
  static const auto Sigs = [] {
    std::vector<std::pair<std::string, std::vector<std::string>>> Out;
    for (const auto &[Family, Cycle] : classicFamilies())
      Out.push_back({Family, edgeSignature(Cycle)});
    return Out;
  }();
  return Sigs;
}

CanonicalChoice canonicalChoice(const DiyCycle &Cycle) {
  CanonicalChoice Out;
  if (Cycle.empty())
    return Out;
  std::vector<size_t> Candidates = boundaryStarts(Cycle);
  const std::vector<std::string> Sig = edgeSignature(Cycle);
  for (const auto &[Family, FamilySig] : familySignatures()) {
    std::vector<size_t> Aligned;
    for (size_t S : Candidates)
      if (rotationEquals(Sig, S, FamilySig))
        Aligned.push_back(S);
    if (!Aligned.empty()) {
      Out.Family = Family;
      Candidates = std::move(Aligned);
      break;
    }
  }
  std::vector<std::string> Tokens;
  for (const DiyEdge &E : Cycle)
    Tokens.push_back(E.toString());
  auto Less = [&](size_t A, size_t B) {
    for (size_t I = 0; I < Tokens.size(); ++I) {
      const std::string &TA = Tokens[(A + I) % Tokens.size()];
      const std::string &TB = Tokens[(B + I) % Tokens.size()];
      if (TA != TB)
        return TA < TB;
    }
    return A < B;
  };
  Out.Start = Candidates.front();
  for (size_t S : Candidates)
    if (Less(S, Out.Start))
      Out.Start = S;
  return Out;
}

} // namespace

DiyCycle cats::canonicalCycle(const DiyCycle &Cycle) {
  if (Cycle.empty())
    return Cycle;
  DiyCycle Out = Cycle;
  std::rotate(Out.begin(), Out.begin() + canonicalChoice(Cycle).Start,
              Out.end());
  return Out;
}

std::string cats::cycleName(const DiyCycle &Orig, Arch NameArch) {
  if (Orig.empty())
    return "";
  DiyCycle Cycle = Orig;
  return canonicalizeCycle(Cycle, NameArch);
}

std::string cats::canonicalizeCycle(DiyCycle &Cycle, Arch NameArch) {
  if (Cycle.empty())
    return "";
  CanonicalChoice Choice = canonicalChoice(Cycle);
  std::rotate(Cycle.begin(), Cycle.begin() + Choice.Start, Cycle.end());

  std::string Base = Choice.Family;
  if (Base.empty()) {
    // Systematic name: per-thread direction strings (Tab. III). Internal
    // communication edges (rfi/fri/wsi) continue the thread; only
    // external edges end it.
    std::vector<std::string> Threads;
    std::string Current;
    for (const DiyEdge &E : Cycle) {
      if (!isExternalEdge(E.Kind)) {
        if (Current.empty())
          Current += E.Src == Dir::R ? 'r' : 'w';
        Current += E.Dst == Dir::R ? 'r' : 'w';
      } else {
        if (Current.empty())
          Current += E.Src == Dir::R ? 'r' : 'w';
        Threads.push_back(Current);
        Current.clear();
      }
    }
    if (!Current.empty())
      Threads.push_back(Current);
    Base = joinStrings(Threads, "+");
  }

  // Mechanism suffixes: one per-thread chain of the thread's non-external
  // edges, hyphen-joined in the paper's detour notation ("fri-rfi-ctrlisb"),
  // in cycle order. For external-only cycles every chain is a single po
  // mechanism, so this reads exactly as the classic one-suffix-per-po-edge
  // convention; internal communication edges spell fri/rfi/wsi into the
  // chain, keeping names injective (an rfi detour and a plain po thread
  // share a direction signature but not a name). All-plain external
  // cycles carry no suffix at all.
  bool AnyMech = false;
  for (const DiyEdge &E : Cycle)
    if ((E.Kind == EdgeKind::Po && E.Mech != PoMech::None) ||
        isInternalComEdge(E.Kind))
      AnyMech = true;
  if (!AnyMech)
    return Base;
  std::string Name = Base;
  std::string Chain;
  auto FlushChain = [&] {
    if (!Chain.empty())
      Name += "+" + Chain;
    Chain.clear();
  };
  for (const DiyEdge &E : Cycle) {
    if (isExternalEdge(E.Kind)) {
      FlushChain();
      continue;
    }
    if (!Chain.empty())
      Chain += "-";
    switch (E.Kind) {
    case EdgeKind::Rfi:
      Chain += "rfi";
      break;
    case EdgeKind::Fri:
      Chain += "fri";
      break;
    case EdgeKind::Wsi:
      Chain += "wsi";
      break;
    default:
      Chain += mechSuffix(E, NameArch);
      break;
    }
  }
  FlushChain();
  return Name;
}

std::vector<std::pair<std::string, DiyCycle>> cats::classicFamilies() {
  using E = DiyEdge;
  return {
      {"mp", {E::po(Dir::W, Dir::W), E::rfe(), E::po(Dir::R, Dir::R),
              E::fre()}},
      {"sb", {E::po(Dir::W, Dir::R), E::fre(), E::po(Dir::W, Dir::R),
              E::fre()}},
      {"lb", {E::po(Dir::R, Dir::W), E::rfe(), E::po(Dir::R, Dir::W),
              E::rfe()}},
      {"wrc", {E::rfe(), E::po(Dir::R, Dir::W), E::rfe(),
               E::po(Dir::R, Dir::R), E::fre()}},
      {"isa2", {E::po(Dir::W, Dir::W), E::rfe(), E::po(Dir::R, Dir::W),
                E::rfe(), E::po(Dir::R, Dir::R), E::fre()}},
      {"2+2w", {E::po(Dir::W, Dir::W), E::wse(), E::po(Dir::W, Dir::W),
                E::wse()}},
      {"w+rw+2w", {E::rfe(), E::po(Dir::R, Dir::W), E::wse(),
                   E::po(Dir::W, Dir::W), E::wse()}},
      {"rwc", {E::rfe(), E::po(Dir::R, Dir::R), E::fre(),
               E::po(Dir::W, Dir::R), E::fre()}},
      {"r", {E::po(Dir::W, Dir::W), E::wse(), E::po(Dir::W, Dir::R),
             E::fre()}},
      {"s", {E::po(Dir::W, Dir::W), E::rfe(), E::po(Dir::R, Dir::W),
             E::wse()}},
      {"iriw", {E::rfe(), E::po(Dir::R, Dir::R), E::fre(), E::rfe(),
                E::po(Dir::R, Dir::R), E::fre()}},
  };
}

Expected<LitmusTest> cats::synthesizeTest(const DiyCycle &Cycle,
                                          Arch Target,
                                          const std::string &NameOverride) {
  using Fail = Expected<LitmusTest>;
  if (Cycle.empty())
    return Fail::error("diy: empty cycle");

  // Direction coherence between consecutive edges, and counting.
  unsigned NumExternal = 0, NumInternal = 0;
  for (size_t I = 0; I < Cycle.size(); ++I) {
    const DiyEdge &Cur = Cycle[I];
    const DiyEdge &Next = Cycle[(I + 1) % Cycle.size()];
    if (Cur.Dst != Next.Src)
      return Fail::error(strFormat(
          "diy: direction mismatch between edge %zu (%s) and %zu (%s)", I,
          Cur.toString().c_str(), (I + 1) % Cycle.size(),
          Next.toString().c_str()));
    if (Cur.Kind == EdgeKind::Po) {
      ++NumInternal;
      if ((Cur.Mech == PoMech::Addr || Cur.Mech == PoMech::Data ||
           Cur.Mech == PoMech::Ctrl || Cur.Mech == PoMech::CtrlCfence) &&
          Cur.Src != Dir::R)
        return Fail::error("diy: dependencies must start at a read");
      if (Cur.Mech == PoMech::Data && Cur.Dst != Dir::W)
        return Fail::error("diy: data dependencies must target a write");
      if (Cur.Mech == PoMech::Fence) {
        if (Cur.FenceName.empty())
          return Fail::error(
              strFormat("diy: edge %zu has a fence mechanism but no fence "
                        "name", I));
        if (!archHasFence(Target, Cur.FenceName))
          return Fail::error(strFormat(
              "diy: fence '%s' is not in the %s fence vocabulary",
              Cur.FenceName.c_str(), archName(Target).c_str()));
      }
      if (Cur.Mech == PoMech::CtrlCfence &&
          !archHasFence(Target, archControlFence(Target)))
        return Fail::error(strFormat(
            "diy: ctrl+cfence needs the control fence '%s', which is not "
            "in the %s fence vocabulary",
            archControlFence(Target), archName(Target).c_str()));
    } else if (isExternalEdge(Cur.Kind)) {
      ++NumExternal;
    }
  }
  if (NumExternal < 2)
    return Fail::error("diy: a critical cycle needs at least two threads");
  if (NumInternal < 1)
    return Fail::error("diy: a critical cycle needs a po edge");
  // Consecutive po edges would put three same-thread accesses with
  // nothing pinning the middle one; internal communication edges are the
  // sanctioned way to extend a thread (Figs. 32/33).
  for (size_t I = 0; I < Cycle.size(); ++I)
    if (Cycle[I].Kind == EdgeKind::Po &&
        Cycle[(I + 1) % Cycle.size()].Kind == EdgeKind::Po)
      return Fail::error("diy: consecutive po edges are not supported");

  // Lay out events: rotate so the cycle starts right after an external
  // edge (a thread boundary).
  size_t Start = 0;
  for (size_t I = 0; I < Cycle.size(); ++I)
    if (isExternalEdge(Cycle[I].Kind)) {
      Start = (I + 1) % Cycle.size();
      break;
    }

  std::vector<CycleEvent> Events(Cycle.size());
  std::vector<const DiyEdge *> OutEdge(Cycle.size());
  int Thread = 0, Loc = 0;
  for (size_t Step = 0; Step < Cycle.size(); ++Step) {
    size_t I = (Start + Step) % Cycle.size();
    const DiyEdge &Edge = Cycle[I];
    CycleEvent &Ev = Events[Step];
    Ev.Direction = Edge.Src;
    Ev.Thread = Thread;
    Ev.Loc = Loc;
    Ev.Index = Step;
    OutEdge[Step] = &Edge;
    if (Edge.Kind == EdgeKind::Po) {
      Loc = (Loc + 1) % static_cast<int>(NumInternal);
    } else if (isExternalEdge(Edge.Kind)) {
      ++Thread;
    }
    // Internal communication edges keep both the thread and the location.
  }
  unsigned NumThreads = NumExternal;

  // Location names x, y, z, w, a, b...: one location per po edge.
  static const char *const LocNames[] = {"x", "y", "z", "w",
                                         "a", "b", "c", "d"};
  if (NumInternal > std::size(LocNames))
    return Fail::error(strFormat(
        "diy: the cycle needs %u locations, more than the %zu supported",
        NumInternal, std::size(LocNames)));
  auto LocName = [](int L) { return std::string(LocNames[L]); };

  // Coherence values: per location, writes in cycle order; Wse edges give
  // src-co-before-dst, which cycle order already respects because a Wse
  // edge's target is laid out after its source (modulo the wrap, where the
  // wrapped-to write is co-last: it is the first event, so instead order
  // by "position in co chain". We simply topologically order the at most
  // two writes per location via the Wse edges, defaulting to cycle order.
  std::map<int, std::vector<size_t>> WritesPerLoc;
  for (const CycleEvent &Ev : Events)
    if (Ev.Direction == Dir::W)
      WritesPerLoc[Ev.Loc].push_back(Ev.Index);
  // Coherence constraints: ws edges order source before target; a read
  // that takes its value from one write (rf in) and is from-read to
  // another (fr out) pins its rf source co-before the fr target.
  std::vector<std::pair<size_t, size_t>> CoConstraints;
  for (size_t I = 0; I < Events.size(); ++I) {
    const DiyEdge &Out = *OutEdge[I];
    size_t Next = (I + 1) % Events.size();
    if (Out.Kind == EdgeKind::Wse || Out.Kind == EdgeKind::Wsi)
      CoConstraints.push_back({I, Next});
    if (Out.Kind == EdgeKind::Fre || Out.Kind == EdgeKind::Fri) {
      const DiyEdge &In =
          *OutEdge[(I + Events.size() - 1) % Events.size()];
      if (In.Kind == EdgeKind::Rfe || In.Kind == EdgeKind::Rfi)
        CoConstraints.push_back(
            {(I + Events.size() - 1) % Events.size(), Next});
    }
  }
  for (auto &[L, Writes] : WritesPerLoc) {
    // Topological order under the constraints, tie-broken by cycle index.
    std::vector<size_t> Order;
    std::vector<bool> Placed(Events.size(), false);
    while (Order.size() < Writes.size()) {
      bool Progress = false;
      for (size_t W : Writes) {
        if (Placed[W])
          continue;
        bool Ready = true;
        for (auto [A, B] : CoConstraints)
          if (B == W && !Placed[A] && Events[A].Loc == L &&
              Events[A].Direction == Dir::W)
            Ready = false;
        if (Ready) {
          Order.push_back(W);
          Placed[W] = true;
          Progress = true;
        }
      }
      if (!Progress)
        return Fail::error("diy: cyclic coherence constraints");
    }
    Value V = 1;
    for (size_t W : Order)
      Events[W].Val = V++;
  }

  // Read values: an Rfe pins the read to its source write's value; a read
  // whose outgoing edge is Fre reads the co-predecessor of the Fre target.
  for (size_t I = 0; I < Events.size(); ++I) {
    const DiyEdge &In = *OutEdge[(I + Events.size() - 1) % Events.size()];
    CycleEvent &Ev = Events[I];
    if (Ev.Direction != Dir::R)
      continue;
    if (In.Kind == EdgeKind::Rfe || In.Kind == EdgeKind::Rfi) {
      Ev.Val = Events[(I + Events.size() - 1) % Events.size()].Val;
      continue;
    }
    // Outgoing must determine the value: from-read to the next event.
    const DiyEdge &Out = *OutEdge[I];
    if (Out.Kind == EdgeKind::Fre || Out.Kind == EdgeKind::Fri) {
      const CycleEvent &Target = Events[(I + 1) % Events.size()];
      // Value of the co-predecessor of Target at that location (0 = init).
      Value Pred = 0;
      for (size_t W : WritesPerLoc[Target.Loc])
        if (Events[W].Val < Target.Val && Events[W].Val > Pred)
          Pred = Events[W].Val;
      Ev.Val = Pred;
      continue;
    }
    // A read with po in and po out cannot occur (two accesses per thread).
    return Fail::error("diy: read value is unconstrained by the cycle");
  }

  // Emit code.
  LitmusTest Test;
  Test.TargetArch = Target;
  Test.Threads.resize(NumThreads);
  std::vector<ConditionAtom> Atoms;
  std::vector<Register> NextReg(NumThreads, 1);

  for (size_t I = 0; I < Events.size(); ++I) {
    CycleEvent &Ev = Events[I];
    ThreadCode &Code = Test.Threads[Ev.Thread];
    // The mechanism on the incoming edge, when it is a po edge of the same
    // thread, is emitted before this access.
    const DiyEdge &In = *OutEdge[(I + Events.size() - 1) % Events.size()];
    bool HasInPo = In.Kind == EdgeKind::Po;
    Register SrcReg = -1;
    if (HasInPo) {
      const CycleEvent &Prev =
          Events[(I + Events.size() - 1) % Events.size()];
      SrcReg = Prev.Reg; // Reads record their register below.
      switch (In.Mech) {
      case PoMech::None:
        break;
      case PoMech::Fence:
        Code.push_back(Instruction::fenceNamed(In.FenceName));
        break;
      case PoMech::Ctrl:
        Code.push_back(Instruction::cmpBranch(SrcReg));
        break;
      case PoMech::CtrlCfence:
        Code.push_back(Instruction::cmpBranch(SrcReg));
        Code.push_back(Instruction::fenceNamed(archControlFence(Target)));
        break;
      case PoMech::Addr:
      case PoMech::Data:
        // Emitted as part of the access below.
        break;
      }
    }

    if (Ev.Direction == Dir::R) {
      Register Dst = NextReg[Ev.Thread]++;
      Ev.Reg = Dst;
      Register AddrDep = -1;
      if (HasInPo && In.Mech == PoMech::Addr) {
        AddrDep = NextReg[Ev.Thread]++;
        Code.push_back(Instruction::xorOp(AddrDep, SrcReg, SrcReg));
      }
      Code.push_back(Instruction::load(Dst, LocName(Ev.Loc), AddrDep));
      Atoms.push_back(ConditionAtom::regEquals(Ev.Thread, Dst, Ev.Val));
    } else {
      if (HasInPo && In.Mech == PoMech::Addr) {
        Register AddrDep = NextReg[Ev.Thread]++;
        Code.push_back(Instruction::xorOp(AddrDep, SrcReg, SrcReg));
        Code.push_back(Instruction::store(
            LocName(Ev.Loc), Operand::imm(Ev.Val), AddrDep));
      } else if (HasInPo && In.Mech == PoMech::Data) {
        // Value dependency preserving the assigned value: zero the source
        // register, add the constant.
        Register ImmReg = NextReg[Ev.Thread]++;
        Register ZeroReg = NextReg[Ev.Thread]++;
        Register ValReg = NextReg[Ev.Thread]++;
        // mov of the immediate is untainted and placed just before use.
        Code.push_back(Instruction::move(ImmReg, Operand::imm(Ev.Val)));
        Code.push_back(Instruction::xorOp(ZeroReg, SrcReg, SrcReg));
        Code.push_back(Instruction::addOp(ValReg, ZeroReg, ImmReg));
        Code.push_back(
            Instruction::store(LocName(Ev.Loc), Operand::reg(ValReg)));
      } else {
        Code.push_back(Instruction::store(LocName(Ev.Loc),
                                          Operand::imm(Ev.Val)));
      }
    }
  }

  // Final-state atoms pinning coherence for multi-write locations.
  for (const auto &[L, Writes] : WritesPerLoc) {
    if (Writes.size() < 2)
      continue;
    Value Max = 0;
    for (size_t W : Writes)
      Max = std::max(Max, Events[W].Val);
    Atoms.push_back(ConditionAtom::memEquals(LocName(L), Max));
  }
  Test.Final.addConjunction(std::move(Atoms));

  // Canonical name: cycleName rotates to the classic-family alignment (or
  // the least boundary rotation), so every rotation of the same cycle gets
  // the same name, the one enumeration emits it under.
  Test.Name = NameOverride.empty() ? cycleName(Cycle, Target) : NameOverride;

  std::string Problem = Test.validate();
  if (!Problem.empty())
    return Fail::error("diy: generated an invalid test: " + Problem);
  return Test;
}

std::vector<LitmusTest> cats::generateBattery(Arch Target,
                                              unsigned MaxPerFamily) {
  // Mechanism vocabulary per architecture.
  std::vector<std::pair<PoMech, std::string>> Mechs = {
      {PoMech::None, ""}};
  switch (Target) {
  case Arch::Power:
    Mechs.push_back({PoMech::Fence, fence::Sync});
    Mechs.push_back({PoMech::Fence, fence::LwSync});
    Mechs.push_back({PoMech::Fence, fence::Eieio});
    break;
  case Arch::ARM:
    Mechs.push_back({PoMech::Fence, fence::Dmb});
    Mechs.push_back({PoMech::Fence, fence::DmbSt});
    break;
  case Arch::TSO:
    Mechs.push_back({PoMech::Fence, fence::MFence});
    break;
  case Arch::SC:
  case Arch::CppRA:
    break;
  }
  bool HasDeps = Target == Arch::Power || Target == Arch::ARM;

  std::vector<LitmusTest> Battery;
  for (const auto &[Family, Base] : classicFamilies()) {
    // Indices of po edges in the base cycle.
    std::vector<size_t> PoEdges;
    for (size_t I = 0; I < Base.size(); ++I)
      if (Base[I].Kind == EdgeKind::Po)
        PoEdges.push_back(I);

    // Per-edge choices.
    std::vector<std::vector<DiyEdge>> Choices(PoEdges.size());
    for (size_t K = 0; K < PoEdges.size(); ++K) {
      const DiyEdge &E = Base[PoEdges[K]];
      for (const auto &[Mech, Fence] : Mechs)
        Choices[K].push_back(
            DiyEdge::po(E.Src, E.Dst, Mech, Fence));
      if (HasDeps && E.Src == Dir::R) {
        Choices[K].push_back(DiyEdge::po(E.Src, E.Dst, PoMech::Addr));
        Choices[K].push_back(DiyEdge::po(E.Src, E.Dst, PoMech::Ctrl));
        Choices[K].push_back(
            DiyEdge::po(E.Src, E.Dst, PoMech::CtrlCfence));
        if (E.Dst == Dir::W)
          Choices[K].push_back(DiyEdge::po(E.Src, E.Dst, PoMech::Data));
      }
    }

    // Cross product. Rotation-symmetric families (sb, lb, 2+2w, iriw)
    // produce the same cycle twice under swapped mechanism assignments;
    // canonical names make those collisions visible, so dedup on the name.
    std::vector<size_t> Pick(PoEdges.size(), 0);
    std::set<std::string> SeenNames;
    unsigned Emitted = 0;
    while (true) {
      DiyCycle Cycle = Base;
      for (size_t K = 0; K < PoEdges.size(); ++K)
        Cycle[PoEdges[K]] = Choices[K][Pick[K]];
      auto Test = synthesizeTest(Cycle, Target);
      if (Test && SeenNames.insert(Test->Name).second) {
        Battery.push_back(Test.take());
        ++Emitted;
        if (MaxPerFamily && Emitted >= MaxPerFamily)
          break;
      }
      size_t K = 0;
      for (; K < PoEdges.size(); ++K) {
        if (++Pick[K] < Choices[K].size())
          break;
        Pick[K] = 0;
      }
      if (K == PoEdges.size())
        break;
    }
  }
  return Battery;
}
