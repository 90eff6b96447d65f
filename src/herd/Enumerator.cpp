//===- Enumerator.cpp - Incremental pruned candidate search ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
//
// Search order (docs/enumeration.md): rf choices in the same odometer
// order as forEachCandidate; under each rf, one coherence permutation per
// multi-write location, committed location by location. The partial graph
//
//   po-loc\llh | rf | co(committed) | fr(forced)
//
// is re-checked for acyclicity after every commitment: a cycle there is a
// cycle of po-loc | com in every completion, i.e. an SC PER LOCATION
// violation that every model of the framework rejects (the llh weakening
// is subtracted up front so the prune stays sound for RMO / ARM llh).
//
// The model-independent tallies never walk the co space at all: value
// consistency and final register files depend only on rf (the data-flow
// fixpoint never reads co), the per-rf candidate count is a closed form,
// and the consistent-outcome set is the cross product of per-location
// final-value sets (any program write is co-last in some permutation).
//
// Outcomes are keys, never Outcome objects: per rf the register part of
// the key is written once, each cross-product entry appends its memory
// fields (locations in name order) into one reused buffer, and the
// checker's note id for the entry is recorded by cross-product index. A
// leaf's index follows from the co-last write of each multi-write
// location, so accounting a judged leaf is one table read.
//
//===----------------------------------------------------------------------===//

#include "herd/Enumerator.h"

#include <algorithm>

using namespace cats;

namespace {

/// Coherence structure of one location.
struct CoLocation {
  EventId InitWrite = 0;
  /// Program writes in ascending event order (the base permutation).
  std::vector<EventId> ProgramWrites;
};

/// One incremental search over a compiled test: the rf odometer, the
/// closed-form outcome pass per rf and the per-location coherence walk.
/// Every buffer is sized once per test and reused across rf choices and
/// leaves.
class Search {
public:
  Search(const CompiledTest &Compiled, MultiModelChecker &Checker);
  EnumerationStats run();

private:
  void visitRf();
  void accountOutcomes();
  void walk(size_t D);
  void leaf();
  void recordCut(const Relation &Graph, const Relation &CoSoFar);

  const CompiledTest &Compiled;
  MultiModelChecker &Checker;
  const Execution &Skel;
  const std::vector<EventId> &Reads;
  const unsigned N;
  EnumerationStats Stats;

  /// Per location (by location id), mirroring allCoherenceOrders().
  std::vector<CoLocation> AllLocs;
  /// Locations with >= 2 program writes, ascending.
  std::vector<Location> BranchLocs;
  /// Location ids in name order, the order of a key's memory fields.
  std::vector<Location> NameOrder;
  unsigned long long CoCount = 1;
  Relation PoLocLlh, InitCo;
  bool CanPrune = false;

  /// One scratch execution, mutated in place and re-judged per leaf; the
  /// memo tiers keep whatever stays valid across the mutation.
  Execution Scratch;

  // Per rf choice.
  std::vector<EventId> RfVec;
  CompiledTest::RfConcretization C;
  /// Per location: its sorted final-value set, and its place value in the
  /// cross-product index (first location in name order varies fastest).
  std::vector<std::vector<Value>> ValueSets;
  std::vector<size_t> Stride, VPick;
  /// The note id of every cross-product entry, by index.
  std::vector<uint32_t> CrossIds;
  /// Per program write of a multi-write location: its value's index in
  /// the location's value set times the location's stride, so a leaf's
  /// cross-product index is the sum over its co-last writes.
  std::vector<size_t> WriteDigit;
  std::string Key;
  Relation ScBase, Base, ScG;
  bool ScBaseAcyclic = true;
  /// Reads taking their value from a program write of BranchLocs[D]: their
  /// fr edges depend on where that write lands in co.
  std::vector<std::vector<std::pair<EventId, EventId>>> ReadsOfBranchLoc;

  // Coherence walk: the permutation committed at each depth, and the
  // partial prune graph after committing depths < D.
  std::vector<std::vector<EventId>> Perm;
  std::vector<Relation> Graphs;
};

Search::Search(const CompiledTest &CompiledIn, MultiModelChecker &CheckerIn)
    : Compiled(CompiledIn), Checker(CheckerIn), Skel(CompiledIn.skeleton()),
      Reads(CompiledIn.reads()), N(CompiledIn.skeleton().numEvents()),
      PoLocLlh(N), InitCo(N), Scratch(Skel), ScBase(N), Base(N), ScG(N) {
  const Location NumLocs = static_cast<Location>(Skel.LocationNames.size());
  AllLocs.resize(NumLocs);
  for (Location Loc = 0; Loc < NumLocs; ++Loc) {
    CoLocation &L = AllLocs[Loc];
    for (EventId W : Skel.writesTo(Loc)) {
      if (Skel.event(W).IsInit)
        L.InitWrite = W;
      else
        L.ProgramWrites.push_back(W);
    }
    std::sort(L.ProgramWrites.begin(), L.ProgramWrites.end());
    for (size_t I = 2; I <= L.ProgramWrites.size(); ++I)
      CoCount *= I;
    if (L.ProgramWrites.size() >= 2)
      BranchLocs.push_back(Loc);
    NameOrder.push_back(Loc);
  }
  std::sort(NameOrder.begin(), NameOrder.end(), [&](Location A, Location B) {
    return Skel.LocationNames[A] < Skel.LocationNames[B];
  });

  // po-loc weakened by the load-load-hazard rule, the strongest same-
  // location order every model agrees on. Without any such pair com alone
  // is acyclic (all its edges stay within one location, where co is a
  // total order), so the graph bookkeeping is skipped entirely.
  const EventSet ReadSet = Skel.reads();
  PoLocLlh = Skel.poLoc() - Relation::cross(ReadSet, ReadSet);
  CanPrune = !PoLocLlh.empty();

  // Initial writes co-precede every program write of their location in
  // every coherence order.
  for (const CoLocation &L : AllLocs)
    for (EventId W : L.ProgramWrites)
      InitCo.set(L.InitWrite, W);

  Scratch.enableDerivedCache();
  RfVec.resize(Reads.size());
  ValueSets.resize(NumLocs);
  Stride.resize(NumLocs);
  VPick.resize(NumLocs);
  WriteDigit.resize(N);
  ReadsOfBranchLoc.resize(BranchLocs.size());
  Perm.resize(BranchLocs.size());
  if (CanPrune)
    Graphs.assign(BranchLocs.size() + 1, Relation(N));
}

EnumerationStats Search::run() {
  // rf odometer, the same order as forEachCandidate.
  const auto &CandWrites = Compiled.candidateWrites();
  std::vector<size_t> Pick(Reads.size(), 0);
  while (true) {
    for (size_t I = 0; I < Reads.size(); ++I)
      RfVec[I] = CandWrites[I][Pick[I]];
    visitRf();
    size_t I = 0;
    for (; I < Reads.size(); ++I) {
      if (++Pick[I] < CandWrites[I].size())
        break;
      Pick[I] = 0;
    }
    if (I == Reads.size())
      break;
  }

  // Everything consistent but never reaching a judged leaf was cut on a
  // po-loc | com cycle: rejected by SC PER LOCATION under every model,
  // with no outcome or allowance to account.
  Stats.PrunedCandidates = Checker.consistentCount() - Stats.JudgedCandidates;
  Checker.accountPrunedMass(Stats.PrunedCandidates);
  return Stats;
}

void Search::accountOutcomes() {
  // Consistent outcomes, closed form: registers are rf-determined and any
  // program write is co-last in some permutation, so the memory side is
  // the cross product of per-location final-value sets.
  size_t Count = 1;
  for (Location Loc : NameOrder) {
    const CoLocation &L = AllLocs[Loc];
    std::vector<Value> &Vals = ValueSets[Loc];
    Vals.clear();
    if (L.ProgramWrites.empty()) {
      Vals.push_back(C.EventVals[L.InitWrite]);
    } else {
      for (EventId W : L.ProgramWrites)
        Vals.push_back(C.EventVals[W]);
      std::sort(Vals.begin(), Vals.end());
      Vals.erase(std::unique(Vals.begin(), Vals.end()), Vals.end());
    }
    Stride[Loc] = Count;
    Count *= Vals.size();
    VPick[Loc] = 0;
  }
  for (Location Loc : BranchLocs) {
    const std::vector<Value> &Vals = ValueSets[Loc];
    for (EventId W : AllLocs[Loc].ProgramWrites)
      WriteDigit[W] = static_cast<size_t>(
                          std::lower_bound(Vals.begin(), Vals.end(),
                                           C.EventVals[W]) -
                          Vals.begin()) *
                      Stride[Loc];
  }

  // The register part of every key under this rf, written once.
  const auto &Slots = Compiled.registerSlots();
  Key.clear();
  for (size_t S = 0; S < Slots.size(); ++S)
    appendRegisterKeyField(Key, static_cast<size_t>(Slots[S].Thread),
                           Slots[S].Reg, C.RegVals[S]);
  const size_t RegLen = Key.size();

  // The condition reads the same state through the shared walk: register
  // slots, and the entry's value of each location (0 for names the test
  // does not hold).
  auto RegOf = [&](ThreadId T, Register R) {
    const int Slot = Compiled.registerSlot(T, R);
    return Slot < 0 ? Value{0} : C.RegVals[static_cast<size_t>(Slot)];
  };
  auto MemOf = [&](const std::string &Name) {
    auto It = std::lower_bound(NameOrder.begin(), NameOrder.end(), Name,
                               [&](Location L, const std::string &X) {
                                 return Skel.LocationNames[L] < X;
                               });
    if (It == NameOrder.end() || Skel.LocationNames[*It] != Name)
      return Value{0};
    return ValueSets[*It][VPick[*It]];
  };

  const Condition &Final = Compiled.test().Final;
  CrossIds.resize(Count);
  for (size_t Index = 0; Index < Count; ++Index) {
    Key.resize(RegLen);
    for (Location Loc : NameOrder)
      appendMemoryKeyField(Key, Skel.LocationNames[Loc],
                           ValueSets[Loc][VPick[Loc]]);
    CrossIds[Index] = Checker.accountConsistentOutcome(
        Key, conditionHolds(Final, RegOf, MemOf));
    for (Location Loc : NameOrder) {
      if (++VPick[Loc] < ValueSets[Loc].size())
        break;
      VPick[Loc] = 0;
    }
  }
}

void Search::recordCut(const Relation &Graph, const Relation &CoSoFar) {
  // Witness mode: turns the first partial-graph cycle that justified a
  // prune cut into labeled provenance edges. Membership order mirrors how
  // the graph was assembled — rf, then po-loc (llh-weakened), then co
  // (init-co or an ordered write pair), leaving fr for the read-to-write
  // edges the init/branch completion added.
  std::vector<EventId> Loop = Graph.minimalCycle();
  if (Loop.size() < 2)
    return;
  std::vector<LabeledEdge> Cycle;
  for (size_t I = 0; I + 1 < Loop.size(); ++I) {
    LabeledEdge E;
    E.From = Loop[I];
    E.To = Loop[I + 1];
    if (Scratch.Rf.test(E.From, E.To))
      E.Label = "rf";
    else if (PoLocLlh.test(E.From, E.To))
      E.Label = "po-loc";
    else if (CoSoFar.test(E.From, E.To) ||
             (Skel.event(E.From).isWrite() && Skel.event(E.To).isWrite()))
      E.Label = "co";
    else
      E.Label = "fr";
    Cycle.push_back(E);
  }
  Scratch.Co = CoSoFar;
  Scratch.invalidateDerived(MemoTier::PerCo);
  Checker.recordPruneCut(Scratch, std::move(Cycle));
}

void Search::visitRf() {
  Checker.accountTotal(CoCount);
  Compiled.concretizeRf(RfVec, C);
  if (!C.Consistent)
    return;
  Checker.accountConsistent(CoCount);
  accountOutcomes();

  Scratch.Rf = Relation(N);
  for (size_t I = 0; I < Reads.size(); ++I)
    Scratch.Rf.set(RfVec[I], Reads[I]);
  for (EventId E = 0; E < N; ++E)
    Scratch.event(E).Val = C.EventVals[E];
  Scratch.invalidateDerived(MemoTier::PerRf);

  // Full SC graph at the rf level: po | rf plus the co/fr edges shared
  // by every completion (init co-first; a read of the initial write
  // fr-precedes every program write of its location). Each leaf below
  // extends it with the branch locations' co and fr edges, which makes
  // it exactly po | com — so the Lemma 4.1 SC verdict (acyclic(po |
  // com)) falls out of one acyclicity check on a graph the enumerator
  // already maintains, with no com/fr rebuild per leaf.
  ScBase = Skel.Po | Scratch.Rf | InitCo;
  for (size_t I = 0; I < Reads.size(); ++I) {
    if (!Skel.event(RfVec[I]).IsInit)
      continue;
    for (EventId W : AllLocs[Skel.event(Reads[I]).Loc].ProgramWrites)
      ScBase.set(Reads[I], W);
  }
  // Cyclic already at the rf level: every leaf is SC-forbidden (their
  // graphs are supergraphs), no per-leaf check needed either way.
  ScBaseAcyclic = ScBase.isAcyclic();

  // Partial prune graph at the rf level: as above but with po weakened
  // to po-loc-llh, the strongest same-location order every model
  // agrees on.
  if (CanPrune) {
    Base = PoLocLlh | Scratch.Rf | InitCo;
    for (size_t I = 0; I < Reads.size(); ++I) {
      if (!Skel.event(RfVec[I]).IsInit)
        continue;
      for (EventId W : AllLocs[Skel.event(Reads[I]).Loc].ProgramWrites)
        Base.set(Reads[I], W);
    }
    // Base's edges are a subset of ScBase's (po-loc-llh is po), so its
    // own check only runs when ScBase's cycle leaves the question open.
    if (!ScBaseAcyclic && !Base.isAcyclic()) {
      ++Stats.PartialCuts;
      if (Checker.witnessCapture() && !Checker.havePruneCutWitness())
        recordCut(Base, InitCo);
      return; // every completion violates SC PER LOCATION
    }
    Graphs[0] = Base;
  }

  for (auto &Rs : ReadsOfBranchLoc)
    Rs.clear();
  for (size_t I = 0; I < Reads.size(); ++I) {
    const Event &W = Skel.event(RfVec[I]);
    if (W.IsInit)
      continue;
    for (size_t D = 0; D < BranchLocs.size(); ++D)
      if (BranchLocs[D] == W.Loc)
        ReadsOfBranchLoc[D].emplace_back(Reads[I], RfVec[I]);
  }

  walk(0);
}

void Search::walk(size_t D) {
  // Commit one coherence permutation per multi-write location, pruning
  // the subtree as soon as the partial graph acquires a cycle.
  if (D == BranchLocs.size()) {
    leaf();
    return;
  }
  std::vector<EventId> &P = Perm[D];
  const std::vector<EventId> &Writes = AllLocs[BranchLocs[D]].ProgramWrites;
  P.assign(Writes.begin(), Writes.end());
  do {
    if (!CanPrune) {
      walk(D + 1);
      continue;
    }
    Relation &Next = Graphs[D + 1];
    Next = Graphs[D];
    for (size_t I = 0; I < P.size(); ++I)
      for (size_t J = I + 1; J < P.size(); ++J)
        Next.set(P[I], P[J]);
    for (auto [R, W] : ReadsOfBranchLoc[D]) {
      size_t WI = 0;
      while (P[WI] != W)
        ++WI;
      for (size_t J = WI + 1; J < P.size(); ++J)
        Next.set(R, P[J]);
    }
    if (!Next.isAcyclic()) {
      ++Stats.PartialCuts;
      if (Checker.witnessCapture() && !Checker.havePruneCutWitness()) {
        Relation CoSoFar = InitCo;
        for (size_t Dim = 0; Dim <= D; ++Dim)
          for (size_t I = 0; I < Perm[Dim].size(); ++I)
            for (size_t J = I + 1; J < Perm[Dim].size(); ++J)
              CoSoFar.set(Perm[Dim][I], Perm[Dim][J]);
        recordCut(Next, CoSoFar);
      }
      continue; // the whole subtree is SC-PER-LOCATION dead
    }
    walk(D + 1);
  } while (std::next_permutation(P.begin(), P.end()));
}

void Search::leaf() {
  Scratch.Co = InitCo;
  size_t Index = 0;
  for (const std::vector<EventId> &P : Perm) {
    for (size_t I = 0; I < P.size(); ++I)
      for (size_t J = I + 1; J < P.size(); ++J)
        Scratch.Co.set(P[I], P[J]);
    Index += WriteDigit[P.back()];
  }
  Scratch.invalidateDerived(MemoTier::PerCo);

  // The leaf's SC verdict from the incremental graph: ScBase plus the
  // branch locations' co edges and the fr edges of reads whose source
  // write is no longer co-last. Leaves without branch locations are
  // exactly ScBase, already decided.
  bool ScAllowed = ScBaseAcyclic;
  if (ScAllowed && !BranchLocs.empty()) {
    ScG = ScBase;
    for (size_t D = 0; D < Perm.size(); ++D) {
      const std::vector<EventId> &P = Perm[D];
      for (size_t I = 0; I < P.size(); ++I)
        for (size_t J = I + 1; J < P.size(); ++J)
          ScG.set(P[I], P[J]);
      for (auto [R, W] : ReadsOfBranchLoc[D]) {
        size_t Pos =
            static_cast<size_t>(std::find(P.begin(), P.end(), W) - P.begin());
        for (size_t J = Pos + 1; J < P.size(); ++J)
          ScG.set(R, P[J]);
      }
    }
    ScAllowed = ScG.isAcyclic();
  }

  Checker.accountImage(Checker.judge(Scratch, ScAllowed), CrossIds[Index]);
  ++Stats.JudgedCandidates;
}

} // namespace

EnumerationStats cats::enumerateIncremental(const CompiledTest &Compiled,
                                            MultiModelChecker &Checker) {
  return Search(Compiled, Checker).run();
}
