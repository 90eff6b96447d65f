//===- Simulator.cpp - Single-event axiomatic simulation (herd) -----------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "herd/Simulator.h"

#include "herd/Enumerator.h"
#include "model/Registry.h"
#include "model/SimpleModels.h"
#include "obs/Metrics.h"
#include "support/Bits.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>

using namespace cats;

namespace {

/// Per-model counter handles, cached per thread. Registry storage is
/// node-based so Counter addresses are stable for the process lifetime;
/// the cache skips rebuilding the "judge.allowed.<model>" and
/// "judge.kill.<model>.<axiom>" names and taking the registry mutex per
/// model per test — a measurable slice of the metrics overhead on
/// many-small-test campaigns.
struct ModelCounters {
  obs::Counter *Allowed = nullptr;
  std::array<obs::Counter *, 4> Kill{};
  obs::Counter *ReferenceKills = nullptr;
};

const ModelCounters &modelCounters(const Model &M) {
  thread_local std::map<const Model *, ModelCounters> Cache;
  auto [It, New] = Cache.try_emplace(&M);
  if (New) {
    const std::string Name = M.name();
    It->second.Allowed = &obs::counter("judge.allowed." + Name);
    for (size_t A = 0; A < It->second.Kill.size(); ++A)
      It->second.Kill[A] = &obs::counter("judge.kill." + Name + "." +
                                         axiomName(static_cast<Axiom>(A)));
    It->second.ReferenceKills =
        &obs::counter("judge.reference_kills." + Name);
  }
  return It->second;
}

} // namespace

bool cats::parseJudgeBackend(const std::string &Name, JudgeBackend &Out) {
  if (Name == "naive")
    Out = JudgeBackend::Naive;
  else if (Name == "pruned")
    Out = JudgeBackend::Pruned;
  else
    return false;
  return true;
}

void cats::forEachCandidate(
    const CompiledTest &Compiled,
    const std::function<bool(const Candidate &)> &Fn) {
  const auto &Reads = Compiled.reads();
  const auto &Writes = Compiled.candidateWrites();
  std::vector<Relation> Cos = Compiled.allCoherenceOrders();

  std::vector<size_t> Pick(Reads.size(), 0);
  std::vector<EventId> Choice(Reads.size());
  while (true) {
    for (size_t I = 0; I < Reads.size(); ++I)
      Choice[I] = Writes[I][Pick[I]];
    for (const Relation &Co : Cos) {
      Candidate Cand = Compiled.concretize(Choice, Co);
      if (!Fn(Cand))
        return;
    }
    // Odometer step over rf choices.
    size_t I = 0;
    for (; I < Reads.size(); ++I) {
      if (++Pick[I] < Writes[I].size())
        break;
      Pick[I] = 0;
    }
    if (I == Reads.size())
      break;
  }
}

const SimulationResult *
MultiSimulationResult::forModel(const std::string &Name) const {
  for (const SimulationResult &R : PerModel)
    if (R.ModelName == Name)
      return &R;
  return nullptr;
}

MultiModelChecker::MultiModelChecker(const CompiledTest &Compiled,
                                     std::vector<const Model *> ModelsIn)
    : Final(Compiled.test().Final), Models(std::move(ModelsIn)) {
  Result.TestName = Compiled.test().Name;
  Result.PerModel.resize(Models.size());
  for (size_t I = 0; I < Models.size(); ++I) {
    Result.PerModel[I].TestName = Result.TestName;
    Result.PerModel[I].ModelName = Models[I]->name();
  }
  Metrics = obs::metricsEnabled();
  if (Metrics) {
    AxiomKills.assign(Models.size(), {});
    ReferenceKills.assign(Models.size(), 0);
  }
  Words = (Models.size() + 63) / 64;

  // Resolve the model-strength forest against this model set: an edge
  // only exists when the designated stronger registry instance is itself
  // part of the set. EvalOrder lists ancestors before descendants (the
  // forest is a few levels deep, so a relaxation loop settles fast).
  StrongerIdx.assign(Models.size(), -1);
  for (size_t I = 0; I < Models.size(); ++I) {
    const Model *Stronger = strongerModel(*Models[I]);
    for (size_t J = 0; Stronger && J < Models.size(); ++J)
      if (Models[J] == Stronger && J != I) {
        StrongerIdx[I] = static_cast<int>(J);
        break;
      }
  }
  std::vector<bool> Placed(Models.size(), false);
  while (EvalOrder.size() < Models.size())
    for (size_t I = 0; I < Models.size(); ++I) {
      if (Placed[I])
        continue;
      int P = StrongerIdx[I];
      if (P < 0 || Placed[static_cast<size_t>(P)]) {
        EvalOrder.push_back(I);
        Placed[I] = true;
      }
    }

  // Lemma 4.1 fast paths: the registry SC and TSO instances are provably
  // equivalent to their one-shot reference formulations (tests/model.cpp
  // re-checks the equivalence on every catalogue candidate), so the
  // boolean-only judge() path can answer them with one or two acyclicity
  // checks instead of the four-axiom evaluation.
  RefPath.assign(Models.size(), RefFormulation::None);
  // The registry lookups allocate (Model::name() is by-value); resolve
  // them once, not per checker.
  static const Model *const ScInstance = modelByName("SC");
  static const Model *const TsoInstance = modelByName("TSO");
  for (size_t I = 0; I < Models.size(); ++I) {
    if (Models[I] == ScInstance)
      RefPath[I] = RefFormulation::Sc;
    else if (Models[I] == TsoInstance)
      RefPath[I] = RefFormulation::Tso;
  }
}

void MultiModelChecker::feed(const Candidate &Cand) {
  ++Result.CandidatesTotal;
  if (!Cand.Consistent)
    return;
  ++Result.CandidatesConsistent;

  // The candidate is final by now: let every model check share one
  // computation of the derived relations (fr, po-loc, com, ...).
  Cand.Exe.enableDerivedCache();

  // Model-independent work: the condition once per distinct outcome.
  bool New = false;
  const uint32_t Id = internNote(Cand.Out.key(), New);
  if (New)
    NoteSatisfies.push_back(Cand.Out.satisfies(Final));

  // check() evaluates all four axioms without short-circuiting either
  // way, so reading the full verdict (for the per-axiom kill tallies)
  // costs the same as the boolean allows().
  JudgeBuf.resize(Models.size());
  for (size_t I = 0; I < Models.size(); ++I)
    JudgeBuf[I] = Models[I]->check(Cand.Exe);
  accountVerdicts(JudgeBuf, Id);
}

void MultiModelChecker::recordPruneCut(const Execution &Partial,
                                       std::vector<LabeledEdge> Cycle) {
  if (!WitnessMode || HaveCut)
    return;
  HaveCut = true;
  CutExe = Partial;
  CutCycle = std::move(Cycle);
}

const std::vector<Verdict> &MultiModelChecker::judge(const Execution &Exe,
                                                     bool ScAllowed) {
  JudgeBuf.resize(Models.size());
  // Stronger-first with the implication shortcut: once a model's
  // designated stronger ancestor allowed the execution, monotonicity of
  // the axioms in (ppo, fences, prop) forces this model to allow it too,
  // so the checks are skipped outright. On executions SC allows this
  // collapses nine model checks into one.
  //
  // The shortcut is exact for the judge.kill.* tallies too: skipped
  // models are allowed, and kill counters only record violations. A
  // reference-formulation answer carries its own attribution: for SC
  // and TSO the reference acyclicity check *is* the PROPAGATION axiom
  // with co | prop spelled out (SC: co|po|rf|fr = po|com, Lemma 4.1;
  // TSO: ppo|mfence|co|rfe|fr), so "forbidden" means propagation is
  // violated and the kill books there without a full check. Other
  // axioms possibly violated on the same candidate are not re-derived
  // on this path — the catalogue documents judge.kill as "at least".
  // Such answers are also counted on their own (judge.reference_kills),
  // so a reader can tell them from fully derived PROPAGATION kills.
  // Verdicts answered here are written in place, keeping the Violated
  // buffer of the previous leaf instead of reallocating it per kill.
  auto Answer = [&](size_t I, bool Allowed) {
    JudgeBuf[I].Allowed = Allowed;
    JudgeBuf[I].Violated.clear();
  };
  for (size_t I : EvalOrder) {
    int P = StrongerIdx[I];
    if (P >= 0 && JudgeBuf[static_cast<size_t>(P)].Allowed) {
      Answer(I, true);
      continue;
    }
    if (RefPath[I] != RefFormulation::None) {
      const bool RefAllowed = RefPath[I] == RefFormulation::Sc
                                  ? ScAllowed
                                  : isTsoReference(Exe);
      Answer(I, RefAllowed);
      if (!RefAllowed && Metrics) {
        JudgeBuf[I].Violated.push_back(Axiom::Propagation);
        ++ReferenceKills[I];
      }
      continue;
    }
    JudgeBuf[I] = Models[I]->check(Exe);
  }
  return JudgeBuf;
}

std::string_view MultiModelChecker::noteKey(uint32_t Id) const {
  const uint32_t Begin = Id ? NoteEnds[Id - 1] : 0;
  return std::string_view(NoteKeys).substr(Begin, NoteEnds[Id] - Begin);
}

void MultiModelChecker::growNoteIndex() {
  NoteIndex.assign(NoteIndex.empty() ? 32 : 2 * NoteIndex.size(), 0);
  const size_t Mask = NoteIndex.size() - 1;
  for (uint32_t Id = 0; Id < NoteEnds.size(); ++Id) {
    const uint64_t Hash = std::hash<std::string_view>{}(noteKey(Id));
    size_t Slot = Hash & Mask;
    while (NoteIndex[Slot])
      Slot = (Slot + 1) & Mask;
    NoteIndex[Slot] = (Hash >> 32 << 32) | (uint64_t{Id} + 1);
  }
}

uint32_t MultiModelChecker::internNote(std::string_view Key, bool &New) {
  if (2 * (NoteEnds.size() + 1) > NoteIndex.size())
    growNoteIndex();
  const uint64_t Hash = std::hash<std::string_view>{}(Key);
  const uint64_t Tag = Hash >> 32 << 32;
  const size_t Mask = NoteIndex.size() - 1;
  for (size_t Slot = Hash & Mask;; Slot = (Slot + 1) & Mask) {
    const uint64_t Entry = NoteIndex[Slot];
    if (!Entry) {
      const uint32_t Id = static_cast<uint32_t>(NoteEnds.size());
      NoteIndex[Slot] = Tag | (uint64_t{Id} + 1);
      NoteKeys.append(Key);
      NoteEnds.push_back(static_cast<uint32_t>(NoteKeys.size()));
      AllowedWords.resize(AllowedWords.size() + Words);
      New = true;
      return Id;
    }
    const uint32_t Id = static_cast<uint32_t>(Entry) - 1;
    if ((Entry & ~uint64_t{0xffffffff}) == Tag && noteKey(Id) == Key) {
      New = false;
      return Id;
    }
  }
}

uint32_t MultiModelChecker::accountConsistentOutcome(std::string_view Key,
                                                     bool Satisfies) {
  bool New = false;
  const uint32_t Id = internNote(Key, New);
  if (New)
    NoteSatisfies.push_back(Satisfies);
  return Id;
}

void MultiModelChecker::accountVerdicts(const std::vector<Verdict> &Verdicts,
                                        uint32_t Id) {
  uint64_t *Row = AllowedWords.data() + size_t(Id) * Words;
  for (size_t I = 0; I < Models.size(); ++I) {
    const Verdict &V = Verdicts[I];
    if (!V.Allowed) {
      if (Metrics)
        for (Axiom A : V.Violated)
          ++AxiomKills[I][static_cast<size_t>(A)];
      continue;
    }
    ++Result.PerModel[I].CandidatesAllowed;
    Row[I / 64] |= 1ull << (I % 64);
  }
}

void MultiModelChecker::accountImage(const std::vector<Verdict> &Verdicts,
                                     uint32_t NoteId) {
  // The closed-form pass of the leaf's rf covers that rf's whole outcome
  // cross product, so the leaf's outcome already has its note.
  assert(NoteId < NoteEnds.size() && "leaf outcome was never accounted");
  accountVerdicts(Verdicts, NoteId);
}

void MultiModelChecker::accountPrunedMass(unsigned long long N) {
  if (!Metrics || !N)
    return;
  for (size_t I = 0; I < Models.size(); ++I)
    AxiomKills[I][static_cast<size_t>(Axiom::ScPerLocation)] += N;
}

MultiSimulationResult MultiModelChecker::take() {
  // The outcome table is the notes in key order; each model's allowed
  // indices then come out of one pass over it, ascending by construction,
  // into vectors sized exactly by a first pass over the allowed bits.
  const uint32_t NumNotes = static_cast<uint32_t>(NoteEnds.size());
  std::vector<uint32_t> Order(NumNotes);
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return noteKey(A) < noteKey(B);
  });
  std::vector<uint32_t> AllowedCount(Models.size(), 0);
  for (uint64_t W = 0; W < AllowedWords.size(); ++W)
    for (uint64_t Bits = AllowedWords[W]; Bits; Bits &= Bits - 1)
      ++AllowedCount[(W % Words) * 64 + countrZero(Bits)];
  for (size_t I = 0; I < Models.size(); ++I)
    Result.PerModel[I].AllowedOutcomes.reserve(AllowedCount[I]);
  Result.ConsistentOutcomes.reserve(NumNotes, NoteKeys.size());
  for (uint32_t Pos = 0; Pos < NumNotes; ++Pos) {
    const uint32_t Id = Order[Pos];
    Result.ConsistentOutcomes.push(noteKey(Id));
    const uint64_t *Row = AllowedWords.data() + size_t(Id) * Words;
    for (size_t W = 0; W < Words; ++W)
      for (uint64_t Bits = Row[W]; Bits; Bits &= Bits - 1) {
        SimulationResult &R = Result.PerModel[W * 64 + countrZero(Bits)];
        R.AllowedOutcomes.push_back(Pos);
        if (NoteSatisfies[Id])
          R.ConditionReachable = true;
      }
  }

  // Mirror the shared counts so each PerModel entry stands alone.
  for (SimulationResult &R : Result.PerModel) {
    R.CandidatesTotal = Result.CandidatesTotal;
    R.CandidatesConsistent = Result.CandidatesConsistent;
  }

  if (HaveCut)
    Result.Witnesses.push_back(obs::makePruneCutWitness(
        Result.TestName, CutExe, std::move(CutCycle)));

  // Flush the local tallies into the metrics registry, once per test.
  // The fixed-name handles resolve once per process (registry addresses
  // are stable), the per-model ones come from the thread-local cache.
  if (Metrics) {
    static obs::Counter &CTests = obs::counter("judge.tests");
    static obs::Counter &CTotal = obs::counter("judge.candidates_total");
    static obs::Counter &CConsistent =
        obs::counter("judge.candidates_consistent");
    static obs::Counter &CInconsistent =
        obs::counter("judge.candidates_inconsistent");
    CTests.add(1);
    CTotal.add(Result.CandidatesTotal);
    CConsistent.add(Result.CandidatesConsistent);
    CInconsistent.add(Result.CandidatesTotal - Result.CandidatesConsistent);
    for (size_t I = 0; I < Models.size(); ++I) {
      const ModelCounters &MC = modelCounters(*Models[I]);
      if (Result.PerModel[I].CandidatesAllowed)
        MC.Allowed->add(Result.PerModel[I].CandidatesAllowed);
      for (size_t A = 0; A < AxiomKills[I].size(); ++A)
        if (AxiomKills[I][A])
          MC.Kill[A]->add(AxiomKills[I][A]);
      if (ReferenceKills[I])
        MC.ReferenceKills->add(ReferenceKills[I]);
    }
    if (HaveStats) {
      static obs::Counter &CPartial = obs::counter("judge.pruned.partial");
      static obs::Counter &CPruned = obs::counter("judge.pruned.candidates");
      static obs::Counter &CJudged = obs::counter("judge.candidates_judged");
      CPartial.add(Stats.PartialCuts);
      CPruned.add(Stats.PrunedCandidates);
      CJudged.add(Stats.JudgedCandidates);
    }
  }
  return std::move(Result);
}

MultiSimulationResult
cats::simulateAll(const CompiledTest &Compiled,
                  const std::vector<const Model *> &Models,
                  const SimulateOptions &Opts) {
  MultiModelChecker Checker(Compiled, Models);
  if (Opts.Witness)
    Checker.enableWitnessCapture();
  if (Opts.Backend == JudgeBackend::Naive) {
    forEachCandidate(Compiled, [&](const Candidate &Cand) {
      Checker.feed(Cand);
      return true;
    });
  } else {
    Checker.setEnumerationStats(enumerateIncremental(Compiled, Checker));
  }
  MultiSimulationResult Result = Checker.take();
  if (Opts.Witness)
    completeWitnesses(Compiled, Models, Result);
  return Result;
}

MultiSimulationResult
cats::simulateAll(const CompiledTest &Compiled,
                  const std::vector<const Model *> &Models,
                  JudgeBackend Backend) {
  SimulateOptions Opts;
  Opts.Backend = Backend;
  return simulateAll(Compiled, Models, Opts);
}

void cats::completeWitnesses(const CompiledTest &Compiled,
                             const std::vector<const Model *> &Models,
                             MultiSimulationResult &Result) {
  const Condition &Final = Compiled.test().Final;
  std::vector<std::optional<obs::Witness>> Found(Models.size());

  // When no consistent outcome satisfies the condition the forbidden
  // verdicts are condition-level facts, not axiom kills: emit the marker
  // without walking a single candidate.
  bool Satisfiable = false;
  for (size_t I = 0; I < Result.ConsistentOutcomes.size() && !Satisfiable;
       ++I) {
    Expected<Outcome> O = outcomeFromKey(Result.ConsistentOutcomes.key(I));
    Satisfiable = O && O->satisfies(Final);
  }
  if (!Satisfiable) {
    for (size_t I = 0; I < Models.size(); ++I)
      Found[I] =
          obs::makeUnreachableWitness(Result.TestName, Models[I]->name());
  } else {
    // Naive walk over the satisfying consistent candidates, stopping as
    // soon as every model has its witness. An Allow verdict is final on
    // the first allowed candidate; a Forbid verdict is killed on *every*
    // satisfying candidate, so the first one seen serves.
    size_t Missing = Models.size();
    forEachCandidate(Compiled, [&](const Candidate &Cand) {
      if (!Cand.Consistent || !Cand.Out.satisfies(Final))
        return true;
      Cand.Exe.enableDerivedCache();
      for (size_t I = 0; I < Models.size(); ++I) {
        if (Found[I])
          continue;
        const Verdict V = Models[I]->check(Cand.Exe);
        if (Result.PerModel[I].ConditionReachable && V.Allowed)
          Found[I] = obs::makeAllowedWitness(
              Result.TestName, Models[I]->name(), Cand.Exe, Cand.Out);
        else if (!Result.PerModel[I].ConditionReachable && !V.Allowed &&
                 !V.Violated.empty())
          Found[I] = obs::makeKillWitness(Result.TestName, *Models[I],
                                          V.Violated.front(), Cand.Exe,
                                          Cand.Out);
        else
          continue;
        --Missing;
      }
      return Missing != 0;
    });
  }

  // Request order of the models, then whatever the judge recorded (the
  // prune-cut witness).
  std::vector<obs::Witness> Ordered;
  Ordered.reserve(Models.size() + Result.Witnesses.size());
  for (std::optional<obs::Witness> &W : Found)
    if (W)
      Ordered.push_back(std::move(*W));
  for (obs::Witness &W : Result.Witnesses)
    Ordered.push_back(std::move(W));
  Result.Witnesses = std::move(Ordered);
}

MultiSimulationResult
cats::simulateAll(const CompiledTest &Compiled,
                  const std::vector<const Model *> &Models) {
  return simulateAll(Compiled, Models, JudgeBackend::Pruned);
}

MultiSimulationResult
cats::simulateAll(const LitmusTest &Test,
                  const std::vector<const Model *> &Models,
                  JudgeBackend Backend) {
  auto Compiled = CompiledTest::compile(Test);
  assert(Compiled && "litmus test failed to compile");
  return simulateAll(*Compiled, Models, Backend);
}

MultiSimulationResult
cats::simulateAll(const LitmusTest &Test,
                  const std::vector<const Model *> &Models) {
  return simulateAll(Test, Models, JudgeBackend::Pruned);
}

SimulationResult cats::simulate(const CompiledTest &Compiled,
                                const Model &M) {
  // Detach the lone entry with the table its indices point into.
  MultiSimulationResult Multi = simulateAll(Compiled, {&M});
  SimulationResult R = std::move(Multi.PerModel.front());
  R.ConsistentOutcomes = std::move(Multi.ConsistentOutcomes);
  return R;
}

SimulationResult cats::simulate(const LitmusTest &Test, const Model &M) {
  auto Compiled = CompiledTest::compile(Test);
  assert(Compiled && "litmus test failed to compile");
  return simulate(*Compiled, M);
}

bool cats::allowedBy(const LitmusTest &Test, const Model &M) {
  return simulate(Test, M).ConditionReachable;
}

std::string cats::herdStyleReport(const SimulationResult &Result,
                                  const OutcomeTable &Table,
                                  const Condition &Final) {
  std::string Out = "Test " + Result.TestName + " " +
                    (Result.ConditionReachable ? "Allowed" : "Forbidden") +
                    "\n";
  Out += "States " + std::to_string(Result.AllowedOutcomes.size()) + "\n";
  for (uint32_t State : Result.AllowedOutcomes) {
    // The key is already "t:rN=v;loc=v;..." — reformat with spaces.
    for (char C : Table.key(State)) {
      Out += C;
      if (C == ';')
        Out += ' ';
    }
    Out += '\n';
  }
  Out += Result.ConditionReachable ? "Ok\n" : "No\n";
  Out += "Condition " + Final.toString() + "\n";
  Out += "Model " + Result.ModelName + "\n";
  return Out;
}
