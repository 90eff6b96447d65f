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
//===----------------------------------------------------------------------===//

#include "herd/Enumerator.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>

using namespace cats;

namespace {

/// Coherence structure of one location.
struct CoLocation {
  Location Loc = -1;
  EventId InitWrite = 0;
  /// Program writes in ascending event order (the base permutation).
  std::vector<EventId> ProgramWrites;
};

} // namespace

EnumerationStats cats::enumerateIncremental(const CompiledTest &Compiled,
                                            MultiModelChecker &Checker) {
  EnumerationStats Stats;
  const Execution &Skel = Compiled.skeleton();
  const auto &Reads = Compiled.reads();
  const auto &CandWrites = Compiled.candidateWrites();
  const unsigned N = Skel.numEvents();

  // Per-location write structure, mirroring allCoherenceOrders().
  std::vector<CoLocation> AllLocs;
  std::vector<size_t> BranchIdx; // locations with >= 2 program writes
  unsigned long long CoCount = 1;
  for (Location Loc = 0;
       Loc < static_cast<Location>(Skel.LocationNames.size()); ++Loc) {
    CoLocation L;
    L.Loc = Loc;
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
      BranchIdx.push_back(AllLocs.size());
    AllLocs.push_back(std::move(L));
  }

  // po-loc weakened by the load-load-hazard rule, the strongest same-
  // location order every model agrees on. Without any such pair com alone
  // is acyclic (all its edges stay within one location, where co is a
  // total order), so the graph bookkeeping is skipped entirely.
  Relation PoLocLlh(N);
  for (auto [From, To] : Skel.Po.pairs())
    if (Skel.event(From).Loc == Skel.event(To).Loc &&
        !(Skel.event(From).isRead() && Skel.event(To).isRead()))
      PoLocLlh.set(From, To);
  const bool CanPrune = !PoLocLlh.empty();

  // Initial writes co-precede every program write of their location in
  // every coherence order.
  Relation InitCo(N);
  for (const CoLocation &L : AllLocs)
    for (EventId W : L.ProgramWrites)
      InitCo.set(L.InitWrite, W);

  // One scratch execution, mutated in place and re-judged per leaf; the
  // memo tiers keep whatever stays valid across the mutation.
  Execution Scratch = Skel;
  Scratch.enableDerivedCache();

  std::vector<std::vector<EventId>> Perm(BranchIdx.size());
  std::vector<std::vector<std::pair<EventId, EventId>>> ReadsOfBranchLoc(
      BranchIdx.size());
  // Reused across rf choices: per-location final-value sets of the
  // closed-form outcome pass.
  std::vector<std::vector<Value>> ValueSets(AllLocs.size());
  std::vector<size_t> VPick(AllLocs.size());

  // Witness mode: turns the first partial-graph cycle that justified a
  // prune cut into labeled provenance edges. Membership order mirrors how
  // the graph was assembled — rf, then po-loc (llh-weakened), then co
  // (init-co or an ordered write pair), leaving fr for the read-to-write
  // edges the init/branch completion added.
  auto recordCut = [&](const Relation &Graph, const Relation &CoSoFar) {
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
  };

  auto visitRf = [&](const std::vector<EventId> &RfVec) {
    Checker.accountTotal(CoCount);
    CompiledTest::RfConcretization C = Compiled.concretizeRf(RfVec);
    if (!C.Consistent)
      return;
    Checker.accountConsistent(CoCount);

    // Consistent outcomes, closed form: registers are rf-determined and
    // any program write is co-last in some permutation, so the memory
    // side is the cross product of per-location final-value sets.
    //
    // When the cross product is a single outcome (every location's final
    // value is forced — the norm on critical-cycle corpora), every leaf
    // under this rf shares it, and the leaves below reuse the object
    // instead of rebuilding outcome and key per coherence permutation.
    std::optional<Outcome> SoleOutcome;
    {
      for (size_t LI = 0; LI < AllLocs.size(); ++LI) {
        const CoLocation &L = AllLocs[LI];
        std::vector<Value> &Vals = ValueSets[LI];
        Vals.clear();
        if (L.ProgramWrites.empty()) {
          Vals.push_back(C.EventVals[L.InitWrite]);
        } else {
          for (EventId W : L.ProgramWrites)
            Vals.push_back(C.EventVals[W]);
          std::sort(Vals.begin(), Vals.end());
          Vals.erase(std::unique(Vals.begin(), Vals.end()), Vals.end());
        }
      }
      SoleOutcome.reset();
      size_t OutcomeCount = 0;
      VPick.assign(AllLocs.size(), 0);
      while (true) {
        Outcome O;
        O.Regs = C.FinalRegs;
        for (size_t L = 0; L < AllLocs.size(); ++L)
          O.Memory[Skel.LocationNames[AllLocs[L].Loc]] =
              ValueSets[L][VPick[L]];
        O.enableKeyCache();
        Checker.accountConsistentOutcome(O);
        if (++OutcomeCount == 1)
          SoleOutcome = std::move(O);
        else
          SoleOutcome.reset();
        size_t L = 0;
        for (; L < AllLocs.size(); ++L) {
          if (++VPick[L] < ValueSets[L].size())
            break;
          VPick[L] = 0;
        }
        if (L == AllLocs.size())
          break;
      }
    }

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
    // com)) falls out of one DFS on a graph the enumerator already
    // maintains, with no com/fr rebuild per leaf.
    Relation ScBase = Skel.Po | Scratch.Rf | InitCo;
    for (size_t I = 0; I < Reads.size(); ++I) {
      if (!Skel.event(RfVec[I]).IsInit)
        continue;
      const CoLocation &L = AllLocs[Skel.event(Reads[I]).Loc];
      for (EventId W : L.ProgramWrites)
        ScBase.set(Reads[I], W);
    }
    // Cyclic already at the rf level: every leaf is SC-forbidden (their
    // graphs are supergraphs), no per-leaf DFS needed either way.
    const bool ScBaseAcyclic = ScBase.isAcyclic();

    // Partial prune graph at the rf level: as above but with po weakened
    // to po-loc-llh, the strongest same-location order every model
    // agrees on.
    Relation Base(N);
    if (CanPrune) {
      Base = PoLocLlh | Scratch.Rf | InitCo;
      for (size_t I = 0; I < Reads.size(); ++I) {
        if (!Skel.event(RfVec[I]).IsInit)
          continue;
        const CoLocation &L = AllLocs[Skel.event(Reads[I]).Loc];
        for (EventId W : L.ProgramWrites)
          Base.set(Reads[I], W);
      }
      // Base's edges are a subset of ScBase's (po-loc-llh is po), so its
      // own DFS only runs when ScBase's cycle leaves the question open.
      if (!ScBaseAcyclic && !Base.isAcyclic()) {
        ++Stats.PartialCuts;
        if (Checker.witnessCapture() && !Checker.havePruneCutWitness())
          recordCut(Base, InitCo);
        return; // every completion violates SC PER LOCATION
      }
    }

    // Reads taking their value from a program write of a multi-write
    // location: their fr edges depend on where that write lands in co.
    for (auto &Rs : ReadsOfBranchLoc)
      Rs.clear();
    for (size_t I = 0; I < Reads.size(); ++I) {
      const Event &W = Skel.event(RfVec[I]);
      if (W.IsInit)
        continue;
      for (size_t D = 0; D < BranchIdx.size(); ++D)
        if (AllLocs[BranchIdx[D]].Loc == W.Loc)
          ReadsOfBranchLoc[D].emplace_back(Reads[I], RfVec[I]);
    }

    // Outcome template for this rf; multi-write entries are overwritten
    // per leaf with the co-last value. Unused (and skipped) when the rf
    // has a sole outcome.
    std::map<std::string, Value> MemTemplate;
    if (!SoleOutcome)
      for (const CoLocation &L : AllLocs)
        MemTemplate[Skel.LocationNames[L.Loc]] =
            C.EventVals[L.ProgramWrites.empty() ? L.InitWrite
                                                : L.ProgramWrites.front()];

    auto leaf = [&]() {
      // The leaf's outcome: the rf-level sole outcome when the final
      // memory state is forced, otherwise built from the template with
      // each multi-write location's co-last value.
      Outcome Built;
      if (!SoleOutcome) {
        Built.Regs = C.FinalRegs;
        Built.Memory = MemTemplate;
        for (size_t D = 0; D < Perm.size(); ++D)
          Built.Memory[Skel.LocationNames[AllLocs[BranchIdx[D]].Loc]] =
              C.EventVals[Perm[D].back()];
        Built.enableKeyCache();
      }
      const Outcome &O = SoleOutcome ? *SoleOutcome : Built;

      Relation Co = InitCo;
      for (size_t D = 0; D < Perm.size(); ++D)
        for (size_t I = 0; I < Perm[D].size(); ++I)
          for (size_t J = I + 1; J < Perm[D].size(); ++J)
            Co.set(Perm[D][I], Perm[D][J]);
      Scratch.Co = std::move(Co);
      Scratch.invalidateDerived(MemoTier::PerCo);

      // The leaf's SC verdict from the incremental graph: ScBase plus
      // the branch locations' co edges and the fr edges of reads whose
      // source write is no longer co-last. Leaves without branch
      // locations are exactly ScBase, already decided.
      bool ScAllowed = ScBaseAcyclic;
      if (ScAllowed && !BranchIdx.empty()) {
        Relation ScG = ScBase;
        for (size_t D = 0; D < Perm.size(); ++D) {
          for (size_t I = 0; I < Perm[D].size(); ++I)
            for (size_t J = I + 1; J < Perm[D].size(); ++J)
              ScG.set(Perm[D][I], Perm[D][J]);
          for (auto [R, W] : ReadsOfBranchLoc[D]) {
            size_t Pos = static_cast<size_t>(
                std::find(Perm[D].begin(), Perm[D].end(), W) -
                Perm[D].begin());
            for (size_t J = Pos + 1; J < Perm[D].size(); ++J)
              ScG.set(R, Perm[D][J]);
          }
        }
        ScAllowed = ScG.isAcyclic();
      }

      Checker.accountImage(Checker.judge(Scratch, ScAllowed), O);
      ++Stats.JudgedCandidates;
    };

    // Commit one coherence permutation per multi-write location, pruning
    // the subtree as soon as the partial graph acquires a cycle.
    std::function<void(size_t, const Relation &)> walk =
        [&](size_t D, const Relation &Graph) {
          if (D == BranchIdx.size()) {
            leaf();
            return;
          }
          const CoLocation &L = AllLocs[BranchIdx[D]];
          std::vector<EventId> P = L.ProgramWrites;
          do {
            if (!CanPrune) {
              Perm[D] = P;
              walk(D + 1, Graph);
              continue;
            }
            Relation Next = Graph;
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
                for (size_t Dim = 0; Dim < D; ++Dim)
                  for (size_t I = 0; I < Perm[Dim].size(); ++I)
                    for (size_t J = I + 1; J < Perm[Dim].size(); ++J)
                      CoSoFar.set(Perm[Dim][I], Perm[Dim][J]);
                for (size_t I = 0; I < P.size(); ++I)
                  for (size_t J = I + 1; J < P.size(); ++J)
                    CoSoFar.set(P[I], P[J]);
                recordCut(Next, CoSoFar);
              }
              continue; // the whole subtree is SC-PER-LOCATION dead
            }
            Perm[D] = P;
            walk(D + 1, Next);
          } while (std::next_permutation(P.begin(), P.end()));
        };
    walk(0, Base);
  };

  // rf odometer, the same order as forEachCandidate.
  std::vector<size_t> Pick(Reads.size(), 0);
  std::vector<EventId> RfVec(Reads.size());
  while (true) {
    for (size_t I = 0; I < Reads.size(); ++I)
      RfVec[I] = CandWrites[I][Pick[I]];
    visitRf(RfVec);
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
