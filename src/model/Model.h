//===- Model.h - The generic axiomatic framework (Fig. 5) -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's generic model of weak memory. A Model supplies the three
/// architecture functions (ppo, fences, prop) of Sec. 4.1; the base class
/// then evaluates the four axioms of Fig. 5 on a candidate execution:
///
///   SC PER LOCATION   acyclic(po-loc | com)
///   NO THIN AIR       acyclic(hb)           hb = ppo | fences | rfe
///   OBSERVATION       irreflexive(fre; prop; hb*)
///   PROPAGATION       acyclic(co | prop)
///
/// Two documented weakenings are supported (Sec. 4.8/4.9 and 8.1.2): C++ R-A
/// replaces PROPAGATION by irreflexive(prop; co), and the "llh" variants drop
/// read-read pairs from po-loc in SC PER LOCATION to tolerate load-load
/// hazards.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_MODEL_MODEL_H
#define CATS_MODEL_MODEL_H

#include "event/Execution.h"
#include "relation/Relation.h"

#include <string>
#include <vector>

namespace cats {

/// The four axioms, used both for checking and for classifying violations
/// (Table VIII's S/T/O/P sets).
enum class Axiom : uint8_t {
  ScPerLocation,
  NoThinAir,
  Observation,
  Propagation
};

/// Short display name: "S", "T", "O", "P".
const char *axiomLetter(Axiom A);

/// An edge of an execution graph together with the name of the derived
/// relation it came from ("rf", "co", "fr", "po-loc", "ppo",
/// "fence:sync", "prop", ...). The witness layer (src/obs/Witness) renders
/// lists of these as DOT graphs and JSON cycles.
struct LabeledEdge {
  EventId From = 0;
  EventId To = 0;
  std::string Label;

  bool operator==(const LabeledEdge &O) const {
    return From == O.From && To == O.To && Label == O.Label;
  }
};

/// Full name as the shipped .cat models label the check ("sc-per-location",
/// "no-thin-air", "observation", "propagation"); keys the per-axiom metrics
/// counters.
const char *axiomName(Axiom A);

/// Outcome of checking one candidate execution against a model.
struct Verdict {
  /// True when no axiom is violated.
  bool Allowed = true;
  /// The violated axioms, in declaration order.
  std::vector<Axiom> Violated;

  /// Letter string like "OP" for the Table VIII classification; empty when
  /// allowed.
  std::string letters() const;

  bool violates(Axiom A) const;
};

/// How the axiom checks may be weakened per instance.
struct AxiomStyle {
  /// Drop read-read pairs from po-loc in SC PER LOCATION (ARM llh).
  bool AllowLoadLoadHazard = false;
  /// Check irreflexive(prop; co) instead of acyclic(co | prop) (C++ R-A).
  bool PropagationIrreflexiveOnly = false;
  /// Disable NO THIN AIR entirely (for exploring Java/C++-like settings,
  /// Sec. 4.9).
  bool DisableNoThinAir = false;
};

/// A memory model: the architecture triple (ppo, fences, prop) plus axiom
/// style. Instances are stateless and thread-compatible.
class Model {
public:
  virtual ~Model();

  /// Display name, e.g. "Power" or "ARM llh".
  virtual std::string name() const = 0;

  /// Preserved program order for \p Exe.
  virtual Relation ppo(const Execution &Exe) const = 0;

  /// The ordering fences relation (the architecture's "fences" function;
  /// e.g. lwsync\WR | sync on Power).
  virtual Relation fences(const Execution &Exe) const = 0;

  /// The propagation order contribution.
  virtual Relation prop(const Execution &Exe) const = 0;

  /// Axiom weakenings for this instance.
  virtual AxiomStyle style() const { return {}; }

  /// Memo volatility of ppo for \p Exe: how long a cached ppo stays valid
  /// while the incremental enumerator mutates rf/co on one scratch
  /// execution. The conservative default (per-candidate) is always sound;
  /// models whose ppo reads neither rf nor co (SC, TSO, PSO, RMO, C++ R-A)
  /// override to Static, and the hardware models answer dynamically
  /// (their ppo fixpoint reads rfi plus the rdw/detour co-slices, which
  /// are empty whenever po-loc is — per-rf on the diy corpora).
  virtual MemoTier ppoTier(const Execution &Exe) const {
    (void)Exe;
    return MemoTier::PerCo;
  }

  /// Memo volatility of fences: the fence relations are structural, so
  /// every shipped model returns Static; the conservative default remains
  /// per-candidate for exotic subclasses.
  virtual MemoTier fencesTier() const { return MemoTier::PerCo; }

  /// Memo volatility of prop for \p Exe (C++ R-A's (po | rf)+ is per-rf;
  /// the others read fr or com* and stay per-candidate).
  virtual MemoTier propTier(const Execution &Exe) const {
    (void)Exe;
    return MemoTier::PerCo;
  }

  /// Identity under which this model's per-candidate memo entries are
  /// stored. Models whose (ppo, fences, prop) triples are definitionally
  /// identical may return one shared tag so the relations are derived
  /// once for the whole group — e.g. ARM and ARM llh, which differ only
  /// in axiom style. Defaults to the instance address (no sharing).
  virtual const void *memoTag() const { return this; }

  /// happens-before: ppo | fences | rfe, memoized on \p Exe like the
  /// wrappers below.
  Relation happensBefore(const Execution &Exe) const;

  /// Evaluates the four axioms on \p Exe. Virtual so adapters over other
  /// model formalisms (e.g. the cat interpreter) can substitute their own
  /// evaluation while staying usable wherever a Model is expected.
  virtual Verdict check(const Execution &Exe) const;

  /// True when \p Exe passes every axiom.
  bool allows(const Execution &Exe) const { return check(Exe).Allowed; }

  /// Provenance for a violation check() reported: the concrete evidence
  /// that \p A fails on \p Exe, as a minimal cycle (for the acyclicity
  /// axioms) or the fre; prop; hb* loop (for OBSERVATION), every edge
  /// labeled by the derived relation it came from. Returns a closed edge
  /// walk E0 -> E1 -> ... -> E0; empty when the axiom in fact holds.
  virtual std::vector<LabeledEdge> explainViolation(Axiom A,
                                                    const Execution &Exe) const;

  /// A string that changes whenever the model's *definition* changes, not
  /// just its name — hashed into the campaign result-cache key so model
  /// edits self-invalidate cached verdicts. Native models fold in their
  /// axiom style (the name covers the triple, which is fixed in code);
  /// configurable models must override to serialize their configuration,
  /// and .cat-backed models hash the source text.
  virtual std::string definitionFingerprint() const;

protected:
  /// Memoized wrappers around the architecture functions, shared by the
  /// axiom evaluation and the prop implementations so each relation is
  /// derived once per candidate (Execution::memo under memoTag(), when the
  /// execution's memo is on; pass-through otherwise). Subclasses adding
  /// their own memoized relations must use slots >= MemoFirstSubclassSlot.
  Relation cachedPpo(const Execution &Exe) const;
  Relation cachedFences(const Execution &Exe) const;
  /// Combined memo tier of happens-before (max of ppo/fences tiers and
  /// PerRf for the rfe component).
  MemoTier hbTier(const Execution &Exe) const;
  /// Reflexive-transitive closure of happens-before.
  Relation cachedHbStar(const Execution &Exe) const;
  Relation cachedProp(const Execution &Exe) const;

  /// The po-loc relation as SC PER LOCATION sees it for this model's
  /// style: read-read pairs removed under the llh weakening.
  Relation scPerLocationPoLoc(const Execution &Exe) const;

  /// Labels each consecutive edge of \p Walk with the first relation in
  /// \p Sources containing it (shared by the explainViolation paths).
  static std::vector<LabeledEdge>
  labelWalk(const std::vector<EventId> &Walk,
            const std::vector<std::pair<std::string, const Relation *>>
                &Sources);

  /// The NO THIN AIR labeling sources for hb edges: rfe, each named fence
  /// relation restricted to the model's fences(), generic "fence", ppo.
  /// Returned relations are materialized into \p Storage so the pointers
  /// in the result stay valid.
  std::vector<std::pair<std::string, const Relation *>>
  hbEdgeSources(const Execution &Exe, std::vector<Relation> &Storage) const;

  enum : unsigned {
    MemoPpo = 0,
    MemoFences,
    MemoHb,
    MemoHbStar,
    MemoProp,
    MemoFirstSubclassSlot
  };
};

} // namespace cats

#endif // CATS_MODEL_MODEL_H
