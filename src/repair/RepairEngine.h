//===- RepairEngine.h - Search-based fence synthesis ----------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repair subsystem's search engine (Sec. 7, and the "Don't sit on the
/// fence" program-transformation direction): given litmus tests whose
/// final condition is reachable on a weak model, find every *minimal* set
/// of fence/dependency insertions restoring the goal —
///
///  * ForbidFinal: the exists-clause outcome becomes unobservable;
///  * ScEquivalence: the model's allowed outcomes equal the native SC
///    model's.
///
/// The insertion lattice (one action per program-order gap, drawn from
/// repair/Mutation.h) is explored level by level. Both goals are monotone
/// — inserting more or stronger mechanisms only shrinks the allowed set —
/// so the repairing sets are upward-closed and the search prunes every
/// candidate that dominates an already-repairing set. What remains of a
/// level is judged in one batch: all mutants of all tests of the campaign
/// go through a single SweepEngine pass per round, each mutant's models
/// (target, plus SC for the equivalence goal) checked in one shared
/// candidate enumeration by MultiModelChecker, instead of one simulate()
/// per mutant and model.
///
/// Reported minimal repairs form the antichain frontier: removing any
/// single insertion re-allows the goal outcome, and no reported set is a
/// weakening-dominated variant of another. The cheapest repair under the
/// per-architecture fence-cost table (HwConfig::FenceCosts) comes first.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_REPAIR_REPAIRENGINE_H
#define CATS_REPAIR_REPAIRENGINE_H

#include "model/Model.h"
#include "repair/Mutation.h"
#include "sweep/Json.h"

#include <functional>
#include <string>
#include <vector>

namespace cats {

/// What a repair must restore.
enum class RepairGoal : uint8_t {
  ForbidFinal,   ///< Forbid the test's exists-clause outcome.
  ScEquivalence, ///< Allowed outcomes equal the native SC model's.
};

/// "forbid" / "sc".
const char *repairGoalName(RepairGoal G);

/// Engine configuration.
struct RepairOptions {
  RepairGoal Goal = RepairGoal::ForbidFinal;
  /// Model to repair against; nullptr selects each test's architecture
  /// default (model/Registry's modelFor).
  const Model *TargetModel = nullptr;
  /// SC reference for RepairGoal::ScEquivalence; nullptr selects the
  /// registry's native SC model.
  const Model *ScReference = nullptr;
  /// Sweep workers for the batched judging; 0 = hardware concurrency.
  unsigned Jobs = 0;
  /// Cap on insertions per repair set; 0 = the test's site count.
  unsigned MaxInsertions = 0;
  /// Safety cap on mutants evaluated per test; exceeding it truncates the
  /// search (TestRepairResult::Truncated).
  unsigned long long MaxMutantsPerTest = 200000;
  /// Add the write-write-only fences (eieio, dmb.st) to the vocabulary.
  bool IncludeWWOnlyFences = false;
  /// Progress hook: called after every lock-step round with the rounds
  /// completed, mutants judged so far, and the tests still searching
  /// (cats_repair --progress feeds its reporter from this).
  std::function<void(unsigned Rounds, unsigned long long Mutants,
                     size_t ActiveTests)>
      OnRound;
};

/// One minimal repairing set.
struct RepairSet {
  std::vector<RepairAction> Actions;
  /// Sum of the per-action costs on the test's architecture.
  unsigned Cost = 0;

  /// "{P0:lwsync, P1:addr}".
  std::string name() const { return repairSetName(Actions); }
};

/// The repair outcome for one test.
struct TestRepairResult {
  std::string TestName;
  std::string ModelName;
  RepairGoal Goal = RepairGoal::ForbidFinal;
  /// Non-empty when the test failed to validate/compile.
  std::string Error;
  /// The unmutated test already meets the goal.
  bool AlreadyMeetsGoal = false;
  /// Some insertion set meets the goal.
  bool Repairable = false;
  /// The search hit MaxMutantsPerTest before exhausting the lattice.
  bool Truncated = false;
  /// All minimal repairing sets, cheapest first (ties by name).
  std::vector<RepairSet> MinimalRepairs;
  /// Program-order gaps available for insertion.
  unsigned Sites = 0;
  /// Mutants judged for this test.
  unsigned long long MutantsEvaluated = 0;

  /// The first (cheapest) minimal repair; nullptr when none.
  const RepairSet *cheapest() const {
    return MinimalRepairs.empty() ? nullptr : &MinimalRepairs.front();
  }

  /// "AlreadyOk" / "Repairable" / "Unrepairable" / "Error".
  const char *verdict() const;
};

/// A completed repair campaign, in submission order.
struct RepairReport {
  std::vector<TestRepairResult> Tests;
  /// Wall time of the whole campaign, seconds.
  double WallSeconds = 0;
  /// Sweep workers used for the batched judging.
  unsigned Jobs = 1;
  /// Mutants judged across the campaign.
  unsigned long long MutantsEvaluated = 0;
  /// Batched judging rounds (lattice levels crossed, campaign-wide).
  unsigned Rounds = 0;

  /// True when no test carries an error.
  bool allOk() const;
};

/// Runs repair campaigns: the whole battery advances through the insertion
/// lattice in lock-step, one batched sweep per level.
class RepairEngine {
public:
  explicit RepairEngine(RepairOptions Opts = {});

  const RepairOptions &options() const { return Opts; }

  /// Repairs every test; one SweepEngine pass per lattice level judges the
  /// surviving mutants of all tests together.
  RepairReport run(const std::vector<LitmusTest> &Tests) const;

  /// Convenience: a one-test campaign.
  TestRepairResult repairOne(const LitmusTest &Test) const;

private:
  RepairOptions Opts;
};

/// Serializes \p Report to the cats-repair-report/1 JSON schema
/// (docs/repair.md documents every field). Deterministic rendering: two
/// runs of the same campaign differ only in the wall-time field.
JsonValue repairReportToJson(const RepairReport &Report);

/// Renders one test's repairs in the herd-flavoured text format:
///
///   Test mp Repairable
///   Model Power goal forbid
///   Minimal repairs 2
///   {P0:lwsync, P1:addr} cost 4
///   {P0:lwsync, P1:ctrl+cfence} cost 5
///   Cheapest {P0:lwsync, P1:addr}
std::string repairTextReport(const TestRepairResult &Result);

} // namespace cats

#endif // CATS_REPAIR_REPAIRENGINE_H
