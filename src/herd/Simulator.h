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
/// A test's distinct final states live in one OutcomeTable: their
/// canonical keys, in key order, in one buffer. Each model's allowed
/// states are indices into it. The judge writes and hashes keys directly
/// and never builds an Outcome per state; Outcome is the type of a single
/// final state (a naive-backend candidate, a witness, a native-run
/// bucket), parsed from its key where one is needed.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_HERD_SIMULATOR_H
#define CATS_HERD_SIMULATOR_H

#include "litmus/Compiler.h"
#include "model/Model.h"
#include "obs/Witness.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace cats {

/// A test's outcome table: the canonical keys (Outcome::key() grammar,
/// litmus/LitmusTest.h) of its distinct consistent final states, stored
/// back to back in one buffer with one end offset per row. The judge
/// fills it in key order; readers take keys as views into the buffer.
class OutcomeTable {
public:
  size_t size() const { return Ends.size(); }
  bool empty() const { return Ends.empty(); }

  /// The key of row \p I.
  std::string_view key(size_t I) const {
    assert(I < Ends.size() && "outcome table row out of range");
    const uint32_t Begin = I ? Ends[I - 1] : 0;
    return std::string_view(Keys).substr(Begin, Ends[I] - Begin);
  }

  /// Appends a row holding \p Key.
  void push(std::string_view Key) {
    Keys.append(Key);
    Ends.push_back(static_cast<uint32_t>(Keys.size()));
  }

  /// Reserves room for \p Rows rows of \p Bytes key bytes in total.
  void reserve(size_t Rows, size_t Bytes) {
    Ends.reserve(Rows);
    Keys.reserve(Bytes);
  }

  bool operator==(const OutcomeTable &Other) const {
    return Ends == Other.Ends && Keys == Other.Keys;
  }
  bool operator!=(const OutcomeTable &Other) const {
    return !(*this == Other);
  }

private:
  std::string Keys;
  std::vector<uint32_t> Ends;
};

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
  /// Distinct outcomes of allowed candidates, as strictly ascending
  /// indices into the test's outcome table: the ConsistentOutcomes of the
  /// enclosing MultiSimulationResult, or this entry's own when simulate()
  /// returned it detached. Ascending index order is key order.
  std::vector<uint32_t> AllowedOutcomes;
  /// The outcome table of a detached simulate() result (every distinct
  /// consistent outcome, in key order). Empty on the entries of a
  /// MultiSimulationResult, which holds the one table all models share.
  OutcomeTable ConsistentOutcomes;
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
  /// The test's outcome table: every distinct outcome of a consistent
  /// candidate, in key order, stored once. Each model's AllowedOutcomes
  /// indexes into it.
  OutcomeTable ConsistentOutcomes;
  /// One entry per requested model, in request order. The shared counts
  /// above are mirrored into each entry; the table is not.
  std::vector<SimulationResult> PerModel;
  /// Verdict evidence, only populated under SimulateOptions::Witness
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
/// condition evaluation) once per candidate, and once per distinct
/// outcome where it can. Feed every candidate of one compiled test, then
/// call take().
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

  /// Records one model-independent consistent outcome by its canonical
  /// \p Key, which satisfies the final condition iff \p Satisfies, and
  /// returns its note id. First sighting of a key copies it into the note
  /// buffer; repeats are a hash probe.
  uint32_t accountConsistentOutcome(std::string_view Key, bool Satisfies);

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
  /// allowed without running its axioms. The shortcut runs whatever
  /// instrumentation is on (a skipped model is allowed, and the
  /// judge.kill.* tallies only record violations); witnesses are built
  /// after judging (completeWitnesses), so they never change this path.
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

  /// Accounts one judged leaf: \p Verdicts from judge() and the note id
  /// accountConsistentOutcome returned for the leaf's outcome during the
  /// closed-form pass of the leaf's rf.
  void accountImage(const std::vector<Verdict> &Verdicts, uint32_t NoteId);

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

  /// Arms the prune-cut witness (docs/explain.md): the incremental
  /// backend then records its first subtree cut, and take() emits it into
  /// Result.Witnesses. Judging and accounting are unchanged; the
  /// per-model witnesses come from completeWitnesses after take(). Call
  /// before the first candidate; off by default.
  void enableWitnessCapture() { WitnessMode = true; }

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
  /// Per-model, per-axiom counts of candidates each axiom killed, and per
  /// model the kills a Lemma 4.1 reference formulation answered (booked
  /// under PROPAGATION too), tallied in plain locals (the inner loop never
  /// touches an atomic) and flushed to the metrics registry by take().
  /// Only maintained when metrics were enabled at construction.
  bool Metrics = false;
  std::vector<std::array<unsigned long long, 4>> AxiomKills;
  std::vector<unsigned long long> ReferenceKills;
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
  /// One note per distinct consistent outcome, with a dense id in
  /// first-sighting order. Note N's key is
  /// NoteKeys[NoteEnds[N - 1], NoteEnds[N]) (from 0 for note 0), found
  /// again through NoteIndex, an open-addressing table over the buffer
  /// (power-of-two size, at most half full; a slot holds the key hash's
  /// upper 32 bits above id + 1, 0 when empty). NoteSatisfies[N] says
  /// whether the outcome satisfies the final condition. Which models
  /// allowed some candidate with the outcome is kept in AllowedWords,
  /// Words = ceil(models / 64) words per note (bit I of note N's row =
  /// Models[I]). feed() and accountImage() only bump counters and set
  /// bits; take() sorts the notes by key into the outcome table and emits
  /// every model's allowed indices and ConditionReachable flag in one
  /// pass, so no key is copied per model.
  std::string NoteKeys;
  std::vector<uint32_t> NoteEnds;
  std::vector<uint8_t> NoteSatisfies;
  std::vector<uint64_t> NoteIndex;
  size_t Words = 0;
  std::vector<uint64_t> AllowedWords;
  std::string_view noteKey(uint32_t Id) const;
  /// The dense id of \p Key's note; \p New says whether this call created
  /// it (the caller then pushes its NoteSatisfies entry).
  uint32_t internNote(std::string_view Key, bool &New);
  /// Rebuilds NoteIndex at twice its size.
  void growNoteIndex();
  /// Sets the allowed bits of the models \p Verdicts allows on note \p Id
  /// and books their allowed counts and kill tallies.
  void accountVerdicts(const std::vector<Verdict> &Verdicts, uint32_t Id);
  EnumerationStats Stats;
  bool HaveStats = false;
  /// Prune-cut witness (enableWitnessCapture): the first enumerator cut,
  /// turned into a Result.Witnesses entry by take().
  bool WitnessMode = false;
  bool HaveCut = false;
  Execution CutExe;
  std::vector<LabeledEdge> CutCycle;
};

/// Knobs of one simulateAll run beyond the model set.
struct SimulateOptions {
  JudgeBackend Backend = JudgeBackend::Pruned;
  /// Build verdict witnesses (MultiSimulationResult::Witnesses). The
  /// judging pass is the same either way; completeWitnesses derives one
  /// witness per model afterwards, and the pruned backend adds its first
  /// subtree cut.
  bool Witness = false;
};

/// Runs one shared candidate enumeration of \p Compiled and checks every
/// model in \p Models against each candidate, with explicit options.
MultiSimulationResult simulateAll(const CompiledTest &Compiled,
                                  const std::vector<const Model *> &Models,
                                  const SimulateOptions &Opts);

/// Gives every model in \p Models one witness backing its verdict in
/// \p Result, from the verdicts alone: Allow verdicts get the first
/// allowed execution realizing the final condition, Forbid verdicts the
/// first failing axiom's cycle on the first satisfying candidate (or an
/// unreachable-outcome marker when no consistent candidate satisfies the
/// condition). Walks candidates naively with per-model early stop; cheap
/// on litmus-sized tests. The model witnesses go in request order ahead
/// of those already in \p Result.Witnesses (the prune cut).
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
/// \p Table is the outcome table \p Result's allowed indices point into;
/// \p Final is the test's condition (echoed in the footer).
std::string herdStyleReport(const SimulationResult &Result,
                            const OutcomeTable &Table,
                            const Condition &Final);

} // namespace cats

#endif // CATS_HERD_SIMULATOR_H
