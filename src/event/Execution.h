//===- Execution.h - Candidate executions (E, po, rf, co) -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A candidate execution in the sense of Sec. 3/4 of the paper: a set of
/// memory events E, the program order po, a read-from map rf and a coherence
/// order co, together with the architectural ingredient relations computed by
/// the instruction semantics (dependencies and fence relations).
///
/// From these the class derives the glossary relations of Tab. II: fr, com,
/// po-loc, and the internal/external splits rfi/rfe, coi/coe, fri/fre.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_EVENT_EXECUTION_H
#define CATS_EVENT_EXECUTION_H

#include "event/Event.h"
#include "relation/Relation.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cats {

/// How long a memoized derived relation stays valid while the incremental
/// enumerator mutates one scratch Execution in place (docs/enumeration.md).
/// Tiers are ordered by volatility: invalidating at a tier drops every
/// entry at that tier or above and keeps the cheaper ones.
enum class MemoTier : unsigned char {
  /// Depends only on the program structure (events, po, dependencies,
  /// fences): valid across every rf/co assignment of the same test.
  Static = 0,
  /// Depends on rf but not co (e.g. rfe, the C++RA prop): valid while the
  /// enumerator walks the coherence orders under one fixed rf.
  PerRf = 1,
  /// Depends on co (fr, com, the Power/ARM prop): valid for one candidate.
  PerCo = 2,
};

/// Canonical fence names shared by the litmus layer, the native models and
/// the cat interpreter builtins.
namespace fence {
inline constexpr const char *Sync = "sync";
inline constexpr const char *LwSync = "lwsync";
inline constexpr const char *Eieio = "eieio";
inline constexpr const char *ISync = "isync";
inline constexpr const char *Dmb = "dmb";
inline constexpr const char *Dsb = "dsb";
inline constexpr const char *DmbSt = "dmb.st";
inline constexpr const char *DsbSt = "dsb.st";
inline constexpr const char *Isb = "isb";
inline constexpr const char *MFence = "mfence";
} // namespace fence

/// A candidate execution. The structural parts (events, po, dependencies,
/// fence relations) are fixed by the program; rf and co vary per candidate
/// and are filled in by the enumerator.
class Execution {
public:
  Execution() = default;

  /// Number of events (including initial writes).
  unsigned numEvents() const { return static_cast<unsigned>(Events.size()); }

  /// Number of program threads (initial writes belong to none).
  unsigned numThreads() const { return NumThreads; }

  /// Adds an event and returns its id. Events must be added thread by
  /// thread in program order; initial writes may be added at any point.
  EventId addEvent(Event E);

  /// Event accessor.
  const Event &event(EventId Id) const { return Events[Id]; }
  Event &event(EventId Id) { return Events[Id]; }
  const std::vector<Event> &events() const { return Events; }

  /// Location-name table (index -> name).
  std::vector<std::string> LocationNames;

  /// Registers a location name, returning its dense index.
  Location internLocation(const std::string &Name);

  /// Builds po from the thread/instruction structure of the events: total
  /// per-thread order following insertion order, no inter-thread pairs,
  /// and no pairs involving initial writes. Call once all events are added.
  void finalizeStructure(unsigned NumThreadsIn);

  //===--------------------------------------------------------------------===//
  // Structural relations (program-determined)
  //===--------------------------------------------------------------------===//

  /// Program order over memory events.
  Relation Po;

  /// Address dependencies (Fig. 22): read -> po-later memory access whose
  /// address data-flows from the read.
  Relation Addr;

  /// Data dependencies: read -> po-later write whose stored value data-flows
  /// from the read.
  Relation Data;

  /// Control dependencies: read -> po-later access after a branch whose
  /// condition data-flows from the read.
  Relation Ctrl;

  /// Control + control-fence dependencies (ctrl+isync / ctrl+isb).
  Relation CtrlCfence;

  /// Fence relations: for fence name F, the pairs (e1, e2) in po with an F
  /// instruction po-between them (footnote 2 of the paper: membership does
  /// not yet say whether the fence *orders* the pair).
  std::map<std::string, Relation> Fences;

  /// Looks up a fence relation; returns the empty relation if the program
  /// contains no such fence.
  Relation fenceRelation(const std::string &Name) const;

  //===--------------------------------------------------------------------===//
  // Data-flow relations (candidate-specific)
  //===--------------------------------------------------------------------===//

  /// Read-from: links each read to the write it takes its value from.
  Relation Rf;

  /// Coherence: total order per location over writes to that location.
  Relation Co;

  //===--------------------------------------------------------------------===//
  // Event-set views
  //===--------------------------------------------------------------------===//

  EventSet reads() const;
  EventSet writes() const;
  EventSet initWrites() const;
  EventSet memoryEvents() const;

  /// Events of thread \p Thread in program order.
  std::vector<EventId> threadEvents(ThreadId Thread) const;

  /// Writes to \p Loc (including the initial write), in insertion order.
  std::vector<EventId> writesTo(Location Loc) const;

  /// The initial write of \p Loc, or -1 if none was added.
  int initWriteOf(Location Loc) const;

  //===--------------------------------------------------------------------===//
  // Derived relations (Tab. II)
  //===--------------------------------------------------------------------===//
  //
  // po-loc, fr, com, rfe, coe, fre, rdw, detour and com* are memoized once
  // the memo is on (see memo() below), each at the tier its definition
  // states.

  /// Same-location pairs of po.
  Relation poLoc() const;

  /// From-read: r -> w1 when r reads from w0 and w0 co-precedes w1.
  Relation fr() const;

  /// Communications: co | rf | fr.
  Relation com() const;

  /// Internal (same-thread) / external (cross-thread) splits. Initial
  /// writes count as external to every thread, as in herd.
  Relation internal(const Relation &R) const;
  Relation external(const Relation &R) const;

  Relation rfi() const { return internal(Rf); }
  Relation rfe() const;
  Relation coi() const { return internal(Co); }
  Relation coe() const;
  Relation fri() const { return internal(fr()); }
  Relation fre() const;

  /// Read-different-writes (Fig. 27): po-loc & (fre; rfe).
  Relation rdw() const;

  /// Detour (Fig. 28): po-loc & (coe; rfe).
  Relation detour() const;

  /// Reflexive-transitive closure of com (used by the Power/ARM prop).
  Relation comStar() const;

  /// Pretty-prints the execution (events plus rf/co/fr pairs).
  std::string toString() const;

  //===--------------------------------------------------------------------===//
  // Memoization (opt-in)
  //===--------------------------------------------------------------------===//

  /// Turns on the memo: from now on every derived relation above, and
  /// every relation a model derives through memo(), is computed once and
  /// served from the table until invalidateDerived drops it. Executions
  /// that never opt in compute everything afresh. The multi-model checker
  /// opts each candidate in before judging it, so nine models checked
  /// against one candidate share one computation of fr, com, ppo, ...
  /// Copies of the execution carry the table along.
  void enableDerivedCache() const;

  /// Returns the relation \p Compute derives, memoized under (\p Tag,
  /// \p Slot) when the memo is on and computed afresh otherwise. \p Tag
  /// says who derives it: the execution itself (`this`) for the nine
  /// relations above, whose slots are fixed, or a model's memoTag(),
  /// which shares entries between models with identical triples. \p Tier
  /// is how long the entry stays valid (see invalidateDerived).
  /// \p Compute may itself call memo.
  template <typename ComputeFn>
  Relation memo(const void *Tag, unsigned Slot, MemoTier Tier,
                const ComputeFn &Compute) const {
    if (!MemoEnabled)
      return Compute();
    // An index, not a reference: nested memo calls inside Compute append
    // entries, and the arrays may move.
    const size_t I = Tag == this ? Slot : modelEntry(Tag, Slot);
    if (MemoKeys[I].Valid)
      return MemoRels[I];
    Relation R = Compute();
    MemoKeys[I].Tier = Tier;
    MemoKeys[I].Valid = true;
    MemoRels[I] = R;
    return R;
  }

  /// Drops every memo entry filled at \p Floor or a more volatile tier;
  /// entries below the floor survive. The incremental enumerator calls
  /// this after mutating Rf (PerRf floor) or Co (PerCo floor) on its
  /// scratch execution, so the program-structural work (po-loc, static
  /// ppo and fences) is paid once per test while the candidate-specific
  /// relations are recomputed exactly when needed.
  void invalidateDerived(MemoTier Floor) const;

private:
  std::vector<Event> Events;
  unsigned NumThreads = 0;
  std::map<std::string, Location> LocationIds;
  /// Built by finalizeStructure: pairs of events of one program thread
  /// (initial writes belong to none), and pairs of events on one location.
  Relation SameThread, SameLocation;

  /// The slots of the execution's own memo entries, which are the first
  /// entries of the table, indexed by slot.
  enum : unsigned {
    MemoPoLoc,
    MemoFr,
    MemoCom,
    MemoRfe,
    MemoCoe,
    MemoFre,
    MemoRdw,
    MemoDetour,
    MemoComStar,
    NumOwnSlots
  };

  /// The index of the model-tagged entry (\p Tag, \p Slot), appended
  /// invalid when the table has none yet. Ticks memo.model_hits or
  /// memo.model_misses.
  size_t modelEntry(const void *Tag, unsigned Slot) const;

  /// The memo table: keys in one compact array, scanned for model-tagged
  /// lookups, and the relations in a parallel one. Empty until the memo
  /// is enabled; then the own entries come first, and each model-tagged
  /// (tag, slot) pair keeps its one entry, invalid or not, for the
  /// execution's life.
  struct MemoKey {
    const void *Tag = nullptr;
    unsigned Slot = 0;
    MemoTier Tier = MemoTier::Static;
    bool Valid = false;
  };
  mutable std::vector<MemoKey> MemoKeys;
  mutable std::vector<Relation> MemoRels;
  mutable bool MemoEnabled = false;
};

} // namespace cats

#endif // CATS_EVENT_EXECUTION_H
