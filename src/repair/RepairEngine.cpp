//===- RepairEngine.cpp - Search-based fence synthesis --------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "repair/RepairEngine.h"

#include "herd/Simulator.h"
#include "model/Registry.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/StringUtils.h"
#include "sweep/SweepEngine.h"

#include <algorithm>
#include <chrono>
#include <map>

using namespace cats;

const char *cats::repairGoalName(RepairGoal G) {
  return G == RepairGoal::ForbidFinal ? "forbid" : "sc";
}

const char *TestRepairResult::verdict() const {
  if (!Error.empty())
    return "Error";
  if (AlreadyMeetsGoal)
    return "AlreadyOk";
  return Repairable ? "Repairable" : "Unrepairable";
}

bool RepairReport::allOk() const {
  for (const TestRepairResult &T : Tests)
    if (!T.Error.empty())
      return false;
  return true;
}

RepairEngine::RepairEngine(RepairOptions OptsIn) : Opts(std::move(OptsIn)) {}

namespace {

/// Verdict of judging one mutant.
struct JudgeOutcome {
  std::string Error;
  bool GoalMet = false;
};

/// The goal predicate over the per-model results of one mutant: entry 0 is
/// the target model, entry 1 (ScEquivalence only) the SC reference. Both
/// allowed lists index the mutant's one outcome table, so equal index
/// lists are equal outcome sets.
bool goalMet(RepairGoal Goal, const MultiSimulationResult &R) {
  if (Goal == RepairGoal::ForbidFinal)
    return !R.PerModel[0].ConditionReachable;
  return R.PerModel[0].AllowedOutcomes == R.PerModel[1].AllowedOutcomes;
}

/// Judges every mutant job in one batched SweepEngine pass, each mutant's
/// models checked against one shared candidate enumeration.
std::vector<JudgeOutcome> judge(const std::vector<SweepJob> &Jobs,
                                RepairGoal Goal, unsigned Workers) {
  std::vector<JudgeOutcome> Out(Jobs.size());
  SweepEngine Engine(SweepOptions{Workers});
  SweepReport Report = Engine.run(Jobs);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (!Report.Tests[I].Error.empty())
      Out[I].Error = Report.Tests[I].Error;
    else
      Out[I].GoalMet = goalMet(Goal, Report.Tests[I].Result);
  }
  return Out;
}

/// Per-test state of the lock-step lattice search.
struct SearchState {
  LitmusTest Test;
  std::vector<const Model *> Models;
  /// All candidate single insertions, grouped per site ordinal.
  std::vector<RepairAction> Actions;
  std::vector<std::vector<size_t>> ActionsPerSite;
  unsigned MaxK = 0;
  /// Candidate sets (action indices, site-ordered) awaiting judgement.
  std::vector<std::vector<size_t>> Pending;
  /// Sets that met the goal, in discovery order.
  std::vector<std::vector<size_t>> Repairing;
  unsigned Level = 0;
  bool Done = false;
  TestRepairResult Result;

  /// True when known repairing set \p R makes candidate \p S redundant:
  /// every action of R has a same-site, same-or-stronger action in S, so
  /// S repairs by monotonicity and cannot be minimal.
  bool dominates(const std::vector<size_t> &R,
                 const std::vector<size_t> &S) const {
    for (size_t RI : R) {
      bool Covered = false;
      for (size_t SI : S)
        Covered |= repairActionLeq(Actions[RI], Actions[SI]);
      if (!Covered)
        return false;
    }
    return true;
  }

  bool dominatedByRepairing(const std::vector<size_t> &S) const {
    for (const std::vector<size_t> &R : Repairing)
      if (dominates(R, S))
        return true;
    return false;
  }

  /// Generates the next level's candidate sets: every choice of Level
  /// sites (increasing ordinals) with one action each, minus the ones a
  /// known repairing set dominates. Generation stops as soon as Pending
  /// exceeds \p Budget, so a huge lattice level never materializes past
  /// the mutant cap (the caller detects the overshoot and truncates).
  void generateLevel(unsigned long long Budget) {
    Pending.clear();
    const size_t Sites = ActionsPerSite.size();
    if (Level > MaxK || Level > Sites)
      return;
    std::vector<size_t> Set;
    // Recursive enumeration, site-lexicographic for determinism.
    auto Recurse = [&](auto &&Self, size_t Depth, size_t FirstSite) -> void {
      if (Pending.size() > Budget)
        return;
      if (Depth == Level) {
        if (!dominatedByRepairing(Set))
          Pending.push_back(Set);
        return;
      }
      for (size_t Site = FirstSite; Site < Sites; ++Site)
        for (size_t AI : ActionsPerSite[Site]) {
          Set.push_back(AI);
          Self(Self, Depth + 1, Site + 1);
          Set.pop_back();
        }
    };
    Recurse(Recurse, 0, 0);
  }

  std::vector<RepairAction> actionsOf(const std::vector<size_t> &Set) const {
    std::vector<RepairAction> List;
    List.reserve(Set.size());
    for (size_t I : Set)
      List.push_back(Actions[I]);
    return List;
  }
};

void initState(SearchState &State, const RepairOptions &Opts) {
  TestRepairResult &R = State.Result;
  R.TestName = State.Test.Name;
  R.Goal = Opts.Goal;

  const Model *Target = Opts.TargetModel
                            ? Opts.TargetModel
                            : &modelFor(State.Test.TargetArch);
  R.ModelName = Target->name();
  State.Models = {Target};
  if (Opts.Goal == RepairGoal::ScEquivalence) {
    const Model *Sc = Opts.ScReference ? Opts.ScReference : modelByName("SC");
    State.Models.push_back(Sc);
  }

  std::string Invalid = State.Test.validate();
  if (!Invalid.empty()) {
    R.Error = Invalid;
    State.Done = true;
    return;
  }

  State.Actions = enumerateActions(State.Test, Opts.IncludeWWOnlyFences);
  // Group per site ordinal (actions arrive site-major).
  for (const RepairAction &Act : State.Actions) {
    if (State.ActionsPerSite.empty() ||
        !State.Actions[State.ActionsPerSite.back().front()]
             .Site.sameAs(Act.Site))
      State.ActionsPerSite.emplace_back();
    State.ActionsPerSite.back().push_back(
        &Act - State.Actions.data());
  }
  R.Sites = static_cast<unsigned>(enumerateSites(State.Test).size());
  State.MaxK = Opts.MaxInsertions
                   ? std::min<unsigned>(
                         Opts.MaxInsertions,
                         static_cast<unsigned>(State.ActionsPerSite.size()))
                   : static_cast<unsigned>(State.ActionsPerSite.size());

  // Level 0: judge the unmutated test (the goal may already hold).
  State.Level = 0;
  State.Pending = {{}};
}

void finalizeState(SearchState &State, Arch A) {
  TestRepairResult &R = State.Result;
  if (!R.Error.empty() || R.AlreadyMeetsGoal)
    return;
  // The minimal repairs are the antichain: drop every repairing set some
  // other repairing set dominates.
  for (size_t I = 0; I < State.Repairing.size(); ++I) {
    bool Dominated = false;
    for (size_t J = 0; J < State.Repairing.size() && !Dominated; ++J)
      Dominated = I != J && State.dominates(State.Repairing[J],
                                            State.Repairing[I]);
    if (Dominated)
      continue;
    RepairSet Set;
    Set.Actions = State.actionsOf(State.Repairing[I]);
    for (const RepairAction &Act : Set.Actions)
      Set.Cost += repairActionCost(A, Act);
    R.MinimalRepairs.push_back(std::move(Set));
  }
  std::sort(R.MinimalRepairs.begin(), R.MinimalRepairs.end(),
            [](const RepairSet &L, const RepairSet &Rhs) {
              if (L.Cost != Rhs.Cost)
                return L.Cost < Rhs.Cost;
              return L.name() < Rhs.name();
            });
  R.Repairable = !R.MinimalRepairs.empty();
}

} // namespace

RepairReport RepairEngine::run(const std::vector<LitmusTest> &Tests) const {
  const auto Start = std::chrono::steady_clock::now();

  RepairReport Report;
  Report.Jobs = SweepEngine(SweepOptions{Opts.Jobs}).workerCount();

  std::vector<SearchState> States(Tests.size());
  for (size_t I = 0; I < Tests.size(); ++I) {
    States[I].Test = Tests[I];
    initState(States[I], Opts);
  }

  // Lock-step campaign: each round batches the pending mutants of every
  // unfinished test into one sweep.
  while (true) {
    std::vector<SweepJob> Jobs;
    std::vector<std::pair<size_t, size_t>> JobOrigin; // (state, pending idx)
    for (size_t SI = 0; SI < States.size(); ++SI) {
      SearchState &State = States[SI];
      if (State.Done)
        continue;
      for (size_t PI = 0; PI < State.Pending.size(); ++PI) {
        const std::vector<size_t> &Set = State.Pending[PI];
        if (Set.empty()) {
          Jobs.push_back(SweepJob{State.Test, State.Models});
        } else {
          auto Mutant = applyRepair(State.Test, State.actionsOf(Set));
          if (!Mutant) {
            State.Result.Error = Mutant.message();
            State.Done = true;
            break;
          }
          Jobs.push_back(SweepJob{Mutant.take(), State.Models});
        }
        JobOrigin.push_back({SI, PI});
      }
    }
    if (Jobs.empty())
      break;
    ++Report.Rounds;

    // One trace span per lattice level (the whole batched judging round).
    obs::Span RoundSpan(obs::traceEnabled()
                            ? strFormat("repair round %u (%zu mutants)",
                                        Report.Rounds, Jobs.size())
                            : std::string());
    if (obs::metricsEnabled()) {
      obs::counter("repair.rounds").add(1);
      obs::counter("repair.mutants").add(Jobs.size());
      obs::histogram("repair.round_mutants").record(Jobs.size());
    }

    std::vector<JudgeOutcome> Verdicts = judge(Jobs, Opts.Goal, Opts.Jobs);

    for (size_t J = 0; J < Jobs.size(); ++J) {
      auto [SI, PI] = JobOrigin[J];
      SearchState &State = States[SI];
      if (State.Done)
        continue; // A mutation error already sank this test.
      ++State.Result.MutantsEvaluated;
      if (!Verdicts[J].Error.empty()) {
        State.Result.Error = Verdicts[J].Error;
        State.Done = true;
        continue;
      }
      if (!Verdicts[J].GoalMet)
        continue;
      if (State.Pending[PI].empty()) {
        State.Result.AlreadyMeetsGoal = true;
        State.Result.Repairable = true;
        State.Done = true;
      } else {
        State.Repairing.push_back(State.Pending[PI]);
      }
    }

    // Advance every unfinished test to its next lattice level.
    for (SearchState &State : States) {
      if (State.Done)
        continue;
      ++State.Level;
      const unsigned long long Budget =
          Opts.MaxMutantsPerTest > State.Result.MutantsEvaluated
              ? Opts.MaxMutantsPerTest - State.Result.MutantsEvaluated
              : 0;
      State.generateLevel(Budget);
      if (State.Pending.empty()) {
        State.Done = true;
        continue;
      }
      if (State.Pending.size() > Budget) {
        State.Result.Truncated = true;
        State.Pending.clear();
        State.Done = true;
      }
    }

    if (Opts.OnRound) {
      unsigned long long Mutants = 0;
      size_t Active = 0;
      for (const SearchState &State : States) {
        Mutants += State.Result.MutantsEvaluated;
        Active += State.Done ? 0 : 1;
      }
      Opts.OnRound(Report.Rounds, Mutants, Active);
    }
  }

  Report.Tests.reserve(States.size());
  for (SearchState &State : States) {
    finalizeState(State, State.Test.TargetArch);
    Report.MutantsEvaluated += State.Result.MutantsEvaluated;
    Report.Tests.push_back(std::move(State.Result));
  }
  Report.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Report;
}

TestRepairResult RepairEngine::repairOne(const LitmusTest &Test) const {
  return run({Test}).Tests.front();
}

//===----------------------------------------------------------------------===//
// Reports (cats-repair-report/1 and herd-flavoured text)
//===----------------------------------------------------------------------===//

JsonValue cats::repairReportToJson(const RepairReport &Report) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-repair-report/1");
  Root.set("jobs", Report.Jobs);
  Root.set("rounds", Report.Rounds);
  Root.set("mutants_evaluated", Report.MutantsEvaluated);
  Root.set("wall_seconds", Report.WallSeconds);

  JsonValue Tests = JsonValue::array();
  for (const TestRepairResult &T : Report.Tests) {
    JsonValue Entry = JsonValue::object();
    Entry.set("name", T.TestName);
    Entry.set("model", T.ModelName);
    Entry.set("goal", repairGoalName(T.Goal));
    Entry.set("verdict", T.verdict());
    if (!T.Error.empty()) {
      Entry.set("error", T.Error);
      Tests.push(std::move(Entry));
      continue;
    }
    Entry.set("sites", T.Sites);
    Entry.set("mutants_evaluated", T.MutantsEvaluated);
    if (T.Truncated)
      Entry.set("truncated", true);

    JsonValue Repairs = JsonValue::array();
    for (const RepairSet &Set : T.MinimalRepairs) {
      JsonValue R = JsonValue::object();
      R.set("name", Set.name());
      R.set("cost", Set.Cost);
      JsonValue Actions = JsonValue::array();
      for (const RepairAction &Act : Set.Actions) {
        JsonValue A = JsonValue::object();
        A.set("site", Act.Site.toString());
        A.set("thread", Act.Site.Thread);
        A.set("gap", Act.Site.Gap);
        A.set("mech", repairMechName(Act.Mech));
        if (Act.Mech == RepairMech::Fence)
          A.set("fence", Act.FenceName);
        Actions.push(std::move(A));
      }
      R.set("actions", std::move(Actions));
      Repairs.push(std::move(R));
    }
    Entry.set("minimal_repairs", std::move(Repairs));
    if (const RepairSet *Best = T.cheapest())
      Entry.set("cheapest", Best->name());
    else
      Entry.set("cheapest", JsonValue());
    Tests.push(std::move(Entry));
  }
  Root.set("tests", std::move(Tests));
  return Root;
}

std::string cats::repairTextReport(const TestRepairResult &Result) {
  std::string Out =
      strFormat("Test %s %s\n", Result.TestName.c_str(), Result.verdict());
  if (!Result.Error.empty()) {
    Out += Result.Error + "\n";
    return Out;
  }
  Out += strFormat("Model %s goal %s\n", Result.ModelName.c_str(),
                   repairGoalName(Result.Goal));
  Out += strFormat("Sites %u\n", Result.Sites);
  if (Result.AlreadyMeetsGoal) {
    Out += "No insertion needed\n";
    return Out;
  }
  Out += strFormat("Minimal repairs %zu%s\n", Result.MinimalRepairs.size(),
                   Result.Truncated ? " (truncated)" : "");
  for (const RepairSet &Set : Result.MinimalRepairs)
    Out += strFormat("%s cost %u\n", Set.name().c_str(), Set.Cost);
  if (const RepairSet *Best = Result.cheapest())
    Out += strFormat("Cheapest %s\n", Best->name().c_str());
  return Out;
}
