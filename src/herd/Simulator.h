//===- Simulator.h - Single-event axiomatic simulation (herd) -*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The herd-style simulator (Sec. 8.3): enumerate the candidate executions
/// of a litmus test (every rf map times every coherence order), discard the
/// value-inconsistent ones, check each against a model, and collect the
/// allowed outcomes. A test's headline question — "is the final condition
/// observable under this model?" — is answered by whether any allowed
/// candidate satisfies it.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_HERD_SIMULATOR_H
#define CATS_HERD_SIMULATOR_H

#include "litmus/Compiler.h"
#include "model/Model.h"
#include "obs/Witness.h"

#include <array>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace cats {

/// Result of simulating one test under one model.
struct SimulationResult {
  std::string TestName;
  std::string ModelName;
  /// Raw candidate count (rf choices x coherence orders).
  unsigned long long CandidatesTotal = 0;
  /// Candidates surviving value-consistency.
  unsigned long long CandidatesConsistent = 0;
  /// Candidates allowed by the model.
  unsigned long long CandidatesAllowed = 0;
  /// Distinct outcomes of allowed candidates.
  std::set<Outcome> AllowedOutcomes;
  /// Distinct outcomes over all consistent candidates (any model).
  /// Populated by the single-model simulate(); in a multi-model sweep the
  /// set is shared and lives on MultiSimulationResult instead.
  std::set<Outcome> ConsistentOutcomes;
  /// True if some allowed candidate satisfies the test's final condition.
  bool ConditionReachable = false;

  /// "Allow"/"Forbid" verdict string for the final condition.
  const char *verdict() const {
    return ConditionReachable ? "Allow" : "Forbid";
  }
};

/// Result of simulating one test under a set of models in a single
/// shared-enumeration pass. The candidate space of a test does not depend
/// on the model, so the model-independent fields live here, computed once,
/// while perModel() carries the verdict-specific counts.
struct MultiSimulationResult {
  std::string TestName;
  /// Raw candidate count (rf choices x coherence orders); shared.
  unsigned long long CandidatesTotal = 0;
  /// Candidates surviving value-consistency; shared.
  unsigned long long CandidatesConsistent = 0;
  /// Distinct outcomes over all consistent candidates; shared.
  std::set<Outcome> ConsistentOutcomes;
  /// One entry per requested model, in request order. The shared counts
  /// above are mirrored into each entry; the shared ConsistentOutcomes set
  /// is not (copying it per model dominates take() on wide sweeps) except
  /// when exactly one model was requested, so simulate()'s detached return
  /// value stays a complete SimulationResult.
  std::vector<SimulationResult> PerModel;
  /// Verdict evidence, only populated when witness capture was enabled
  /// (docs/explain.md): per model one witness backing its verdict, plus
  /// at most one model-independent prune-cut witness from the incremental
  /// backend. Always empty otherwise, keeping reports byte-identical.
  std::vector<obs::Witness> Witnesses;

  /// The entry for model \p Name; nullptr when the model was not swept.
  const SimulationResult *forModel(const std::string &Name) const;
};

/// Visits every candidate execution of \p Compiled (consistent or not).
/// Return false from the callback to stop early.
void forEachCandidate(const CompiledTest &Compiled,
                      const std::function<bool(const Candidate &)> &Fn);

/// Which engine walks the candidate space behind simulateAll
/// (docs/enumeration.md). Both produce identical verdicts, counts and
/// outcome sets; the differential harness (tests/differential.cpp) pins
/// them to each other over the litmus catalogue and generated diy corpora.
enum class JudgeBackend : uint8_t {
  /// Materialize every full candidate and judge it afterwards — the
  /// reference semantics the pruned search is checked against.
  Naive,
  /// Incremental backtracking search (src/herd/Enumerator.cpp): commit
  /// rf then per-location coherence choices and prune a partial
  /// assignment as soon as po-loc | com is cyclic. Byte-identical results
  /// to Naive; the default.
  Pruned,
};

/// Parses a CLI backend name ("naive" or "pruned"); returns false on
/// unknown input.
bool parseJudgeBackend(const std::string &Name, JudgeBackend &Out);

/// Counters produced by one incremental-enumeration pass; flushed to the
/// judge.pruned.* and judge.candidates_judged metrics by
/// MultiModelChecker::take (docs/observability.md).
struct EnumerationStats {
  /// Partial rf/co assignments abandoned mid-search on a po-loc | com
  /// cycle (each cut removes a whole subtree of candidates).
  unsigned long long PartialCuts = 0;
  /// Consistent candidates never materialized because every completion
  /// was provably rejected by SC PER LOCATION (the pruned mass).
  unsigned long long PrunedCandidates = 0;
  /// Leaves actually judged by the models; with PrunedCandidates they
  /// cover the consistent candidates exactly.
  unsigned long long JudgedCandidates = 0;
};

/// Accumulates per-model verdicts over a stream of candidates, computing
/// the model-independent work (consistency counts, outcome keys, final
/// condition evaluation) exactly once per candidate. Feed every candidate
/// of one compiled test, then call take().
///
/// This is the engine under both simulate() overloads and the sweep
/// subsystem; instances are single-use and not thread-safe (one checker
/// per worker).
class MultiModelChecker {
public:
  MultiModelChecker(const CompiledTest &Compiled,
                    std::vector<const Model *> Models);

  /// Accounts one candidate under every model (the naive path).
  void feed(const Candidate &Cand);

  //===--------------------------------------------------------------------===//
  // Incremental-backend interface (src/herd/Enumerator.cpp)
  //
  // The pruned search never materializes full Candidates: it accounts the
  // model-independent tallies in bulk (closed forms per rf choice) and
  // judges one scratch execution per surviving leaf. A checker instance is
  // driven either by feed() or by these calls, never both.
  //===--------------------------------------------------------------------===//

  /// Adds \p N raw candidates to the shared total.
  void accountTotal(unsigned long long N) { Result.CandidatesTotal += N; }

  /// Adds \p N value-consistent candidates to the shared count.
  void accountConsistent(unsigned long long N) {
    Result.CandidatesConsistent += N;
  }

  /// Records one model-independent consistent outcome. First sighting of
  /// a key pays the set insert and the final-condition evaluation; repeats
  /// are a hash lookup.
  void accountConsistentOutcome(const Outcome &O);

  unsigned long long consistentCount() const {
    return Result.CandidatesConsistent;
  }

  /// Checks \p Exe against every model; the returned buffer is owned by
  /// the checker and reused across calls. No accounting happens here —
  /// pair with accountImage for the judged leaf.
  ///
  /// The checks exploit the registry's model-strength forest
  /// (strongerModel): models are visited stronger-first, and a model whose
  /// designated ancestor in the set already allowed \p Exe is marked
  /// allowed without running its axioms. The shortcut runs whether metrics
  /// are on or off (a skipped model is allowed, and the judge.kill.*
  /// tallies only record violations); only witness capture bypasses it.
  /// The differential harness pins the shortcut to the naive backend's
  /// full per-model checks.
  const std::vector<Verdict> &judge(const Execution &Exe);

  /// As above, with the enumerator's incrementally-maintained SC verdict:
  /// \p ScAllowed must equal acyclic(po | com) on \p Exe — the Lemma 4.1
  /// SC reference, which the enumerator reads off its own partial graph
  /// instead of rebuilding com per leaf. The boolean-only path then
  /// answers SC (and, through the implication shortcut, every model SC
  /// dominates) without touching the execution's derived relations. The
  /// hint is trusted, so the differential harness pins this path to the
  /// un-hinted one over the catalogue and the diy corpora.
  const std::vector<Verdict> &judge(const Execution &Exe, bool ScAllowed);

  /// Accounts one judged leaf: \p Verdicts from judge() and the leaf's
  /// outcome \p O, which accountConsistentOutcome already recorded during
  /// the closed-form pass of the leaf's rf.
  void accountImage(const std::vector<Verdict> &Verdicts, const Outcome &O);

  /// Accounts \p N consistent candidates whose every coherence completion
  /// was pruned on a po-loc | com cycle: all of them are rejected by SC
  /// PER LOCATION under every model, so the per-axiom kill tallies credit
  /// that axiom (the naive path may additionally blame other axioms for
  /// the same candidates, hence the documented >= semantics of
  /// judge.kill.*).
  void accountPrunedMass(unsigned long long N);

  /// Hands the enumerator's counters over for the metrics flush in take().
  void setEnumerationStats(const EnumerationStats &S) {
    Stats = S;
    HaveStats = true;
  }

  /// Switches on witness capture (docs/explain.md): the judge() path runs
  /// the full four-axiom check per model (no implication shortcut, no
  /// reference formulations — a witness needs the failing axiom, not just
  /// the bit) and the checker snapshots, per model, the first satisfying
  /// execution it sees allowed and the first it sees killed; take() then
  /// assembles them into Result.Witnesses. Call before the first
  /// candidate; off by default, with zero cost when off.
  void enableWitnessCapture();

  /// True when enableWitnessCapture() was called.
  bool witnessCapture() const { return WitnessMode; }

  /// True once a prune-cut witness has been recorded (the enumerator only
  /// records the first cut).
  bool havePruneCutWitness() const { return HaveCut; }

  /// Records the first prune cut of the incremental backend: \p Partial
  /// is the scratch execution at the cut and \p Cycle the po-loc | com
  /// cycle on its partial graph (see Enumerator.cpp). Witness mode only.
  void recordPruneCut(const Execution &Partial,
                      std::vector<LabeledEdge> Cycle);

  /// Finalizes and returns the result; the checker is spent afterwards.
  MultiSimulationResult take();

private:
  const Condition &Final;
  std::vector<const Model *> Models;
  MultiSimulationResult Result;
  /// Per-model, per-axiom counts of candidates each axiom killed,
  /// tallied in plain locals (the inner loop never touches an atomic)
  /// and flushed to the metrics registry by take(). Only maintained when
  /// metrics were enabled at construction.
  bool Metrics = false;
  std::vector<std::array<unsigned long long, 4>> AxiomKills;
  /// Reused verdict buffer for judge().
  std::vector<Verdict> JudgeBuf;
  /// Shared body of the judge() overloads; \p ScHint is null when no
  /// precomputed SC verdict is available.
  const std::vector<Verdict> &judgeImpl(const Execution &Exe,
                                        const bool *ScHint);
  /// Index (into Models) of each model's designated stronger ancestor
  /// within this set, or -1; drives the judge() implication shortcut.
  std::vector<int> StrongerIdx;
  /// Model indices in stronger-before-weaker order, so an ancestor's
  /// verdict is always final before its descendants consult it.
  std::vector<size_t> EvalOrder;
  /// Which models the boolean-only judge() path can answer through a
  /// Lemma 4.1 reference formulation instead of the four-axiom check.
  enum class RefFormulation : uint8_t { None, Sc, Tso };
  std::vector<RefFormulation> RefPath;
  /// Incremental-path memo per distinct outcome key: whether the outcome
  /// satisfies the final condition, and which models (bit I = Models[I],
  /// capped at 64) allowed some candidate with this outcome. accountImage
  /// only bumps counters and ORs the mask; take() reconstructs each
  /// model's AllowedOutcomes set and ConditionReachable flag from the
  /// notes in one ordered pass, so no per-leaf ordered-set inserts happen
  /// at all. feed() leaves the masks empty: the naive path stays the
  /// plain reference loop and take()'s reconstruction is then a no-op.
  struct OutcomeNote {
    bool Satisfies = false;
    unsigned long long AllowedMask = 0;
  };
  std::unordered_map<std::string, OutcomeNote> OutcomeNotes;
  EnumerationStats Stats;
  bool HaveStats = false;
  /// Witness capture (enableWitnessCapture). Slots hold, per model, the
  /// first satisfying execution seen allowed and the first seen killed;
  /// the cut slot holds the first enumerator prune cut. take() turns the
  /// slots into Result.Witnesses.
  bool WitnessMode = false;
  struct WitnessSlot {
    bool HaveAllow = false;
    bool HaveKill = false;
    Execution AllowExe, KillExe;
    Outcome AllowOut, KillOut;
    Axiom KillAxiom = Axiom::ScPerLocation;
  };
  std::vector<WitnessSlot> Slots;
  /// The execution judgeImpl last checked; accountImage consumes it for
  /// the witness snapshot of the leaf's outcome. Null between leaves.
  const Execution *PendingJudged = nullptr;
  bool HaveCut = false;
  Execution CutExe;
  std::vector<LabeledEdge> CutCycle;
  /// feed()/accountImage capture body.
  void captureWitness(size_t ModelIdx, const Verdict &V, const Execution &Exe,
                      const Outcome &O);
};

/// Knobs of one simulateAll run beyond the model set.
struct SimulateOptions {
  JudgeBackend Backend = JudgeBackend::Pruned;
  /// Capture verdict witnesses (MultiSimulationResult::Witnesses). The
  /// capture piggybacks on the main pass; verdicts the pass never
  /// materialized evidence for (pruned subtrees) are completed afterwards
  /// by a targeted naive walk.
  bool Witness = false;
};

/// Runs one shared candidate enumeration of \p Compiled and checks every
/// model in \p Models against each candidate, with explicit options.
MultiSimulationResult simulateAll(const CompiledTest &Compiled,
                                  const std::vector<const Model *> &Models,
                                  const SimulateOptions &Opts);

/// Fills the witnesses missing from \p Result.Witnesses so every model in
/// \p Models has one backing its verdict: Allow verdicts get an allowed
/// execution realizing the final condition, Forbid verdicts the first
/// failing axiom's cycle on a satisfying candidate (or an
/// unreachable-outcome marker when no consistent candidate satisfies the
/// condition). Walks candidates naively with per-model early stop; cheap
/// on litmus-sized tests. Existing witnesses (matched by model name) are
/// kept untouched.
void completeWitnesses(const CompiledTest &Compiled,
                       const std::vector<const Model *> &Models,
                       MultiSimulationResult &Result);

/// Runs one shared candidate enumeration of \p Compiled and checks every
/// model in \p Models against each candidate, using the default backend
/// (Pruned — byte-identical to Naive, just faster).
MultiSimulationResult simulateAll(const CompiledTest &Compiled,
                                  const std::vector<const Model *> &Models);

/// As above with an explicit judging backend.
MultiSimulationResult simulateAll(const CompiledTest &Compiled,
                                  const std::vector<const Model *> &Models,
                                  JudgeBackend Backend);

/// Convenience overload: compiles \p Test first. Asserts on compile errors
/// (use CompiledTest::compile directly for fallible input).
MultiSimulationResult simulateAll(const LitmusTest &Test,
                                  const std::vector<const Model *> &Models);

/// As above with an explicit judging backend.
MultiSimulationResult simulateAll(const LitmusTest &Test,
                                  const std::vector<const Model *> &Models,
                                  JudgeBackend Backend);

/// Runs the full simulation of \p Compiled under \p M (the one-model case
/// of simulateAll).
SimulationResult simulate(const CompiledTest &Compiled, const Model &M);

/// Convenience overload: compiles \p Test first. Asserts on compile errors
/// (use CompiledTest::compile directly for fallible input).
SimulationResult simulate(const LitmusTest &Test, const Model &M);

/// True if the final condition of \p Test is reachable under \p M.
bool allowedBy(const LitmusTest &Test, const Model &M);

/// Renders \p Result in the classic herd output format:
///
///   Test mp Allowed
///   States 3
///   1:r1=0; 1:r2=0;
///   ...
///   Ok
///   Condition exists (1:r1=1 /\ 1:r2=0)
///
/// \p Final is the test's condition (echoed in the footer).
std::string herdStyleReport(const SimulationResult &Result,
                            const Condition &Final);

} // namespace cats

#endif // CATS_HERD_SIMULATOR_H
