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

#include <algorithm>
#include <map>

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
  if (Metrics)
    AxiomKills.assign(Models.size(), {});

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
  // computation of the derived relations (fr, po-loc, com, ...). The
  // outcome's key cache is already on (enabled by concretize), so the
  // outcome-set inserts below compare memoized keys instead of
  // rebuilding the key string per comparison.
  Cand.Exe.enableDerivedCache();

  // Model-independent work, once per candidate.
  Result.ConsistentOutcomes.insert(Cand.Out);
  const bool SatisfiesFinal = Cand.Out.satisfies(Final);

  for (size_t I = 0; I < Models.size(); ++I) {
    // check() evaluates all four axioms without short-circuiting either
    // way, so reading the full verdict (for the per-axiom kill tallies)
    // costs the same as the boolean allows().
    const Verdict V = Models[I]->check(Cand.Exe);
    if (WitnessMode && SatisfiesFinal)
      captureWitness(I, V, Cand.Exe, Cand.Out);
    if (!V.Allowed) {
      if (Metrics)
        for (Axiom A : V.Violated)
          ++AxiomKills[I][static_cast<size_t>(A)];
      continue;
    }
    SimulationResult &R = Result.PerModel[I];
    ++R.CandidatesAllowed;
    R.AllowedOutcomes.insert(Cand.Out);
    if (SatisfiesFinal)
      R.ConditionReachable = true;
  }
}

void MultiModelChecker::enableWitnessCapture() {
  if (WitnessMode)
    return;
  WitnessMode = true;
  Slots.resize(Models.size());
}

void MultiModelChecker::captureWitness(size_t ModelIdx, const Verdict &V,
                                       const Execution &Exe,
                                       const Outcome &O) {
  WitnessSlot &S = Slots[ModelIdx];
  if (V.Allowed) {
    if (S.HaveAllow)
      return;
    S.HaveAllow = true;
    S.AllowExe = Exe;
    S.AllowOut = O;
    return;
  }
  if (S.HaveKill || V.Violated.empty())
    return;
  S.HaveKill = true;
  S.KillExe = Exe;
  S.KillOut = O;
  S.KillAxiom = V.Violated.front();
}

void MultiModelChecker::recordPruneCut(const Execution &Partial,
                                       std::vector<LabeledEdge> Cycle) {
  if (!WitnessMode || HaveCut)
    return;
  HaveCut = true;
  CutExe = Partial;
  CutCycle = std::move(Cycle);
}

const std::vector<Verdict> &MultiModelChecker::judge(const Execution &Exe) {
  return judgeImpl(Exe, nullptr);
}

const std::vector<Verdict> &MultiModelChecker::judge(const Execution &Exe,
                                                     bool ScAllowed) {
  return judgeImpl(Exe, &ScAllowed);
}

const std::vector<Verdict> &
MultiModelChecker::judgeImpl(const Execution &Exe, const bool *ScHint) {
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
  // Witness capture needs the failing axiom of every model, so it runs
  // the full check for each: a shortcut-skipped model has an empty
  // Violated list and a reference-formulation answer only attributes
  // PROPAGATION, neither of which can seed an axiom-cycle witness.
  if (WitnessMode) {
    for (size_t I = 0; I < Models.size(); ++I)
      JudgeBuf[I] = Models[I]->check(Exe);
    PendingJudged = &Exe;
    return JudgeBuf;
  }
  for (size_t I : EvalOrder) {
    int P = StrongerIdx[I];
    if (P >= 0 && JudgeBuf[static_cast<size_t>(P)].Allowed) {
      JudgeBuf[I] = Verdict();
      continue;
    }
    if (RefPath[I] != RefFormulation::None) {
      const bool RefAllowed =
          RefPath[I] == RefFormulation::Sc
              ? (ScHint ? *ScHint : isScReference(Exe))
              : isTsoReference(Exe);
      if (RefAllowed) {
        JudgeBuf[I] = Verdict();
        continue;
      }
      JudgeBuf[I] = Verdict();
      JudgeBuf[I].Allowed = false;
      if (Metrics)
        JudgeBuf[I].Violated.push_back(Axiom::Propagation);
      continue;
    }
    JudgeBuf[I] = Models[I]->check(Exe);
  }
  return JudgeBuf;
}

void MultiModelChecker::accountConsistentOutcome(const Outcome &O) {
  auto [It, New] = OutcomeNotes.try_emplace(O.key());
  if (!New)
    return;
  It->second.Satisfies = O.satisfies(Final);
  Result.ConsistentOutcomes.insert(O);
}

void MultiModelChecker::accountImage(const std::vector<Verdict> &Verdicts,
                                     const Outcome &O) {
  // The closed-form pass of the leaf's rf covers that rf's whole outcome
  // cross product, so the leaf's outcome already has its note.
  auto It = OutcomeNotes.find(O.key());
  assert(It != OutcomeNotes.end() && "leaf outcome was never accounted");
  OutcomeNote &Note = It->second;
  // The leaf's outcome belongs to the execution judge() just checked.
  if (WitnessMode && PendingJudged) {
    const Execution &Judged = *PendingJudged;
    PendingJudged = nullptr;
    if (Note.Satisfies)
      for (size_t I = 0; I < Models.size(); ++I)
        captureWitness(I, Verdicts[I], Judged, O);
  }
  // The per-model AllowedOutcomes sets and ConditionReachable flags are
  // not touched here: they are reconstructed in take() from the per-
  // outcome allowed masks, so the per-leaf cost is counter bumps and one
  // mask OR instead of up to one ordered-set insert per model.
  unsigned long long Mask = 0;
  for (size_t I = 0; I < Models.size(); ++I) {
    const Verdict &V = Verdicts[I];
    if (!V.Allowed) {
      if (Metrics)
        for (Axiom A : V.Violated)
          ++AxiomKills[I][static_cast<size_t>(A)];
      continue;
    }
    ++Result.PerModel[I].CandidatesAllowed;
    if (I < 64) {
      Mask |= 1ull << I;
    } else {
      // Past the mask width the deferral has nowhere to record the
      // model, so those entries materialize immediately (the insert
      // dedups repeats on its own).
      Result.PerModel[I].AllowedOutcomes.insert(O);
      if (Note.Satisfies)
        Result.PerModel[I].ConditionReachable = true;
    }
  }
  Note.AllowedMask |= Mask;
}

void MultiModelChecker::accountPrunedMass(unsigned long long N) {
  if (!Metrics || !N)
    return;
  for (size_t I = 0; I < Models.size(); ++I)
    AxiomKills[I][static_cast<size_t>(Axiom::ScPerLocation)] += N;
}

MultiSimulationResult MultiModelChecker::take() {
  // Materialize the per-model allowed sets and reachability flags the
  // incremental path deferred (feed() fills them directly and leaves the
  // notes' masks empty, so this loop is a no-op after a naive run).
  // ConsistentOutcomes iterates in key order and every note key is a
  // consistent outcome's key, so each model's inserts arrive ascending
  // and the end() hint keeps them search-free.
  for (const Outcome &O : Result.ConsistentOutcomes) {
    auto It = OutcomeNotes.find(O.key());
    if (It == OutcomeNotes.end() || !It->second.AllowedMask)
      continue;
    const OutcomeNote &Note = It->second;
    for (size_t I = 0; I < Models.size() && I < 64; ++I) {
      if (!(Note.AllowedMask >> I & 1))
        continue;
      SimulationResult &R = Result.PerModel[I];
      R.AllowedOutcomes.insert(R.AllowedOutcomes.end(), O);
      if (Note.Satisfies)
        R.ConditionReachable = true;
    }
  }

  // Mirror the shared counts so each PerModel entry stands alone. The
  // ConsistentOutcomes set is only copied in the single-model case (the
  // simulate() facade returns that lone entry detached from the multi
  // result); with many models the copies dominate take() itself, so
  // multi-model consumers read the shared set on MultiSimulationResult.
  for (SimulationResult &R : Result.PerModel) {
    R.CandidatesTotal = Result.CandidatesTotal;
    R.CandidatesConsistent = Result.CandidatesConsistent;
  }
  if (Result.PerModel.size() == 1)
    Result.PerModel.front().ConsistentOutcomes = Result.ConsistentOutcomes;

  // Assemble the captured witness slots now that every verdict is final.
  // A slot can be empty when the backend never materialized evidence for
  // the verdict (a pruned subtree); completeWitnesses fills those gaps on
  // demand.
  if (WitnessMode) {
    for (size_t I = 0; I < Models.size(); ++I) {
      const SimulationResult &R = Result.PerModel[I];
      const WitnessSlot &S = Slots[I];
      if (R.ConditionReachable && S.HaveAllow)
        Result.Witnesses.push_back(obs::makeAllowedWitness(
            Result.TestName, R.ModelName, S.AllowExe, S.AllowOut));
      else if (!R.ConditionReachable && S.HaveKill)
        Result.Witnesses.push_back(obs::makeKillWitness(
            Result.TestName, *Models[I], S.KillAxiom, S.KillExe, S.KillOut));
    }
    if (HaveCut)
      Result.Witnesses.push_back(obs::makePruneCutWitness(
          Result.TestName, CutExe, std::move(CutCycle)));
  }

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
  if (Opts.Witness) {
    completeWitnesses(Compiled, Models, Result);
    // Deterministic order regardless of which pass produced an entry:
    // request order of the models, the prune-cut witness last.
    auto Rank = [&](const obs::Witness &W) {
      for (size_t I = 0; I < Models.size(); ++I)
        if (W.Model == Models[I]->name())
          return I;
      return Models.size();
    };
    std::stable_sort(
        Result.Witnesses.begin(), Result.Witnesses.end(),
        [&](const obs::Witness &A, const obs::Witness &B) {
          return Rank(A) < Rank(B);
        });
  }
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

  // Which models still need evidence (the capture may have covered them).
  std::vector<bool> Have(Models.size(), false);
  for (const obs::Witness &W : Result.Witnesses)
    for (size_t I = 0; I < Models.size(); ++I)
      if (W.Model == Models[I]->name())
        Have[I] = true;
  size_t Missing = 0;
  for (bool H : Have)
    Missing += !H;
  if (!Missing)
    return;

  // When no consistent outcome satisfies the condition the forbidden
  // verdicts are condition-level facts, not axiom kills: emit the marker
  // without walking a single candidate.
  bool Satisfiable = false;
  for (const Outcome &O : Result.ConsistentOutcomes)
    if (O.satisfies(Final)) {
      Satisfiable = true;
      break;
    }
  if (!Satisfiable) {
    for (size_t I = 0; I < Models.size(); ++I)
      if (!Have[I])
        Result.Witnesses.push_back(obs::makeUnreachableWitness(
            Result.TestName, Models[I]->name()));
    return;
  }

  // Naive walk over the satisfying consistent candidates, stopping as
  // soon as every missing model has its witness. An Allow verdict is
  // final on the first allowed candidate; a Forbid verdict is killed on
  // *every* satisfying candidate, so the first one seen serves.
  forEachCandidate(Compiled, [&](const Candidate &Cand) {
    if (!Cand.Consistent || !Cand.Out.satisfies(Final))
      return true;
    Cand.Exe.enableDerivedCache();
    for (size_t I = 0; I < Models.size(); ++I) {
      if (Have[I])
        continue;
      const Verdict V = Models[I]->check(Cand.Exe);
      const bool Reachable = Result.PerModel[I].ConditionReachable;
      if (Reachable && V.Allowed) {
        Result.Witnesses.push_back(obs::makeAllowedWitness(
            Result.TestName, Models[I]->name(), Cand.Exe, Cand.Out));
      } else if (!Reachable && !V.Allowed && !V.Violated.empty()) {
        Result.Witnesses.push_back(obs::makeKillWitness(
            Result.TestName, *Models[I], V.Violated.front(), Cand.Exe,
            Cand.Out));
      } else {
        continue;
      }
      Have[I] = true;
      --Missing;
    }
    return Missing != 0;
  });
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
  return simulateAll(Compiled, {&M}).PerModel.front();
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
                                  const Condition &Final) {
  std::string Out = "Test " + Result.TestName + " " +
                    (Result.ConditionReachable ? "Allowed" : "Forbidden") +
                    "\n";
  Out += "States " + std::to_string(Result.AllowedOutcomes.size()) + "\n";
  for (const Outcome &State : Result.AllowedOutcomes) {
    // The key is already "t:rN=v;loc=v;..." — reformat with spaces.
    std::string Line = State.key();
    std::string Spaced;
    for (char C : Line) {
      Spaced += C;
      if (C == ';')
        Spaced += ' ';
    }
    Out += Spaced + "\n";
  }
  Out += Result.ConditionReachable ? "Ok\n" : "No\n";
  Out += "Condition " + Final.toString() + "\n";
  Out += "Model " + Result.ModelName + "\n";
  return Out;
}
