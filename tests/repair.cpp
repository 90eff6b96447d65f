//===- repair.cpp - Tests for the fence-synthesis subsystem ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repair acceptance suite: the mutation layer produces well-formed
/// mutants, and the search engine reproduces the paper's known repairs on
/// the classic families under the Power and ARM models. Every reported
/// minimal repair is re-simulated from scratch: the goal outcome must be
/// forbidden, and removing any single insertion must re-allow it.
///
//===----------------------------------------------------------------------===//

#include "diy/Diy.h"
#include "herd/Simulator.h"
#include "litmus/TestFilter.h"
#include "model/Registry.h"
#include "repair/RepairEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace cats;

namespace {

LitmusTest familyTest(const std::string &Name, Arch A) {
  for (const auto &[Family, Cycle] : classicFamilies())
    if (Family == Name) {
      auto Test = synthesizeTest(Cycle, A);
      EXPECT_TRUE(static_cast<bool>(Test)) << Test.message();
      return Test.take();
    }
  ADD_FAILURE() << "unknown family " << Name;
  return {};
}

/// The mechanism tags of a repair set, site-ordered, e.g. {"lwsync","addr"}.
std::vector<std::string> mechTags(const RepairSet &Set) {
  std::vector<std::string> Tags;
  for (const RepairAction &Act : Set.Actions)
    Tags.push_back(Act.Mech == RepairMech::Fence ? Act.FenceName
                                                 : repairMechName(Act.Mech));
  return Tags;
}

bool setHasTags(const RepairSet &Set,
                const std::vector<std::string> &Expected) {
  return mechTags(Set) == Expected;
}

/// The acceptance check: re-simulate the repaired test (the goal outcome
/// must be unobservable) and every single-deletion weakening (each must
/// re-allow it).
void expectMinimal(const LitmusTest &Test, const RepairSet &Set,
                   const Model &M) {
  auto Mutant = applyRepair(Test, Set.Actions);
  ASSERT_TRUE(static_cast<bool>(Mutant)) << Mutant.message();
  EXPECT_FALSE(allowedBy(*Mutant, M))
      << Set.name() << " must forbid " << Test.Name;
  for (size_t Drop = 0; Drop < Set.Actions.size(); ++Drop) {
    std::vector<RepairAction> Weaker = Set.Actions;
    Weaker.erase(Weaker.begin() + Drop);
    auto Partial = applyRepair(Test, Weaker);
    ASSERT_TRUE(static_cast<bool>(Partial)) << Partial.message();
    EXPECT_TRUE(allowedBy(*Partial, M))
        << "dropping " << Set.Actions[Drop].toString() << " from "
        << Set.name() << " must re-allow " << Test.Name;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Mutation layer
//===----------------------------------------------------------------------===//

TEST(Mutation, SitesOnMp) {
  // diy lays the mp cycle out reader-first: P0 is the R->R thread, P1 the
  // W->W one.
  LitmusTest Mp = familyTest("mp", Arch::Power);
  auto Sites = enumerateSites(Mp);
  ASSERT_EQ(Sites.size(), 2u);
  EXPECT_EQ(Sites[0].Thread, 0);
  EXPECT_TRUE(Sites[0].PrevIsRead);
  EXPECT_TRUE(Sites[0].NextIsRead);
  EXPECT_GE(Sites[0].PrevLoadReg, 0);
  EXPECT_EQ(Sites[1].Thread, 1);
  EXPECT_FALSE(Sites[1].PrevIsRead);
  EXPECT_FALSE(Sites[1].NextIsRead);
  EXPECT_EQ(Sites[1].PrevLoadReg, -1);
  EXPECT_EQ(Sites[0].toString(), "P0");
  EXPECT_EQ(Sites[1].toString(), "P1");
}

TEST(Mutation, ActionsRespectDirections) {
  LitmusTest Mp = familyTest("mp", Arch::Power);
  auto Actions = enumerateActions(Mp);
  // P0 (R->R): fences + addr/ctrl/ctrl+cfence (no data: the target is a
  // read). P1 (W->W): fences only.
  std::set<std::string> Tags;
  for (const RepairAction &Act : Actions)
    Tags.insert(Act.toString());
  EXPECT_TRUE(Tags.count("P1:lwsync"));
  EXPECT_TRUE(Tags.count("P1:sync"));
  EXPECT_FALSE(Tags.count("P1:addr"));
  EXPECT_TRUE(Tags.count("P0:addr"));
  EXPECT_TRUE(Tags.count("P0:ctrl"));
  EXPECT_TRUE(Tags.count("P0:ctrl+cfence"));
  EXPECT_FALSE(Tags.count("P0:data"));
}

TEST(Mutation, DataActionNeedsImmediateStore) {
  LitmusTest Lb = familyTest("lb", Arch::Power);
  auto Actions = enumerateActions(Lb);
  unsigned DataActions = 0;
  for (const RepairAction &Act : Actions)
    DataActions += Act.Mech == RepairMech::Data;
  // Both lb gaps are R->W with immediate stores.
  EXPECT_EQ(DataActions, 2u);
}

TEST(Mutation, AppliedFenceMutantIsWellFormed) {
  LitmusTest Mp = familyTest("mp", Arch::Power);
  auto Actions = enumerateActions(Mp);
  auto Lwsync = std::find_if(Actions.begin(), Actions.end(),
                             [](const RepairAction &A) {
                               return A.toString() == "P1:lwsync";
                             });
  ASSERT_NE(Lwsync, Actions.end());
  auto Mutant = applyRepair(Mp, {*Lwsync});
  ASSERT_TRUE(static_cast<bool>(Mutant)) << Mutant.message();
  EXPECT_EQ(Mutant->validate(), "");
  EXPECT_EQ(Mutant->Name, "mp+repair[P1:lwsync]");
  EXPECT_NE(Mutant->toString().find("lwsync"), std::string::npos);
}

TEST(Mutation, AppliedAddrMutantThreadsTheDependency) {
  LitmusTest Mp = familyTest("mp", Arch::Power);
  auto Actions = enumerateActions(Mp);
  auto Addr = std::find_if(Actions.begin(), Actions.end(),
                           [](const RepairAction &A) {
                             return A.toString() == "P0:addr";
                           });
  ASSERT_NE(Addr, Actions.end());
  auto Mutant = applyRepair(Mp, {*Addr});
  ASSERT_TRUE(static_cast<bool>(Mutant)) << Mutant.message();
  // The second load now carries an address dependency via a fresh xor.
  const ThreadCode &T1 = Mutant->Threads[0];
  unsigned Xors = 0;
  bool DepLoad = false;
  for (const Instruction &I : T1) {
    Xors += I.Op == Opcode::Xor;
    DepLoad |= I.Op == Opcode::Load && I.AddrDep != -1;
  }
  EXPECT_EQ(Xors, 1u);
  EXPECT_TRUE(DepLoad);
  ASSERT_TRUE(static_cast<bool>(CompiledTest::compile(*Mutant)));
}

TEST(Mutation, DataMutantPreservesStoredValues) {
  LitmusTest Lb = familyTest("lb", Arch::Power);
  auto Actions = enumerateActions(Lb);
  std::vector<RepairAction> Datas;
  for (const RepairAction &Act : Actions)
    if (Act.Mech == RepairMech::Data)
      Datas.push_back(Act);
  ASSERT_EQ(Datas.size(), 2u);
  auto Mutant = applyRepair(Lb, Datas);
  ASSERT_TRUE(static_cast<bool>(Mutant)) << Mutant.message();
  // The witness outcome must still exist among consistent candidates.
  SimulationResult R = simulate(*Mutant, *modelByName("Power"));
  bool Witness = false;
  for (size_t I = 0; I < R.ConsistentOutcomes.size(); ++I)
    Witness |= outcomeFromKey(R.ConsistentOutcomes.key(I))
                   ->satisfies(Mutant->Final);
  EXPECT_TRUE(Witness);
}

TEST(Mutation, RejectsDoubleInsertionAtOneSite) {
  LitmusTest Mp = familyTest("mp", Arch::Power);
  auto Actions = enumerateActions(Mp);
  std::vector<RepairAction> Two;
  for (const RepairAction &Act : Actions)
    if (Act.Site.Thread == 0 && Act.Mech == RepairMech::Fence)
      Two.push_back(Act);
  ASSERT_GE(Two.size(), 2u);
  Two.resize(2);
  EXPECT_FALSE(static_cast<bool>(applyRepair(Mp, Two)));
}

TEST(Mutation, DedupSkipsImpliedFences) {
  // mp with lwsync already on P0: inserting lwsync there again is
  // pointless, but sync still strengthens.
  LitmusTest Mp = familyTest("mp", Arch::Power);
  auto Actions = enumerateActions(Mp);
  auto Lwsync = std::find_if(Actions.begin(), Actions.end(),
                             [](const RepairAction &A) {
                               return A.toString() == "P0:lwsync";
                             });
  ASSERT_NE(Lwsync, Actions.end());
  auto Mutant = applyRepair(Mp, {*Lwsync});
  ASSERT_TRUE(static_cast<bool>(Mutant));
  std::set<std::string> Tags;
  for (const RepairAction &Act : enumerateActions(*Mutant))
    Tags.insert(Act.toString());
  EXPECT_FALSE(Tags.count("P0:lwsync"));
  EXPECT_TRUE(Tags.count("P0:sync"));
}

TEST(Mutation, StrengthOrder) {
  RepairSite S;
  auto Act = [&](RepairMech M, std::string F = "") {
    RepairAction A;
    A.Site = S;
    A.Mech = M;
    A.FenceName = std::move(F);
    return A;
  };
  auto Fence = [&](const char *F) { return Act(RepairMech::Fence, F); };
  EXPECT_TRUE(repairActionLeq(Fence("lwsync"), Fence("sync")));
  EXPECT_FALSE(repairActionLeq(Fence("sync"), Fence("lwsync")));
  EXPECT_TRUE(repairActionLeq(Fence("eieio"), Fence("lwsync")));
  EXPECT_TRUE(repairActionLeq(Fence("dmb.st"), Fence("dmb")));
  EXPECT_FALSE(repairActionLeq(Fence("lwsync"), Fence("dmb.st")));
  EXPECT_TRUE(repairActionLeq(Act(RepairMech::Ctrl),
                              Act(RepairMech::CtrlCfence)));
  EXPECT_FALSE(repairActionLeq(Act(RepairMech::CtrlCfence),
                               Act(RepairMech::Ctrl)));
  EXPECT_FALSE(repairActionLeq(Act(RepairMech::Addr),
                               Act(RepairMech::CtrlCfence)));
  // A dependency is below lwsync/sync but not below a WW-only fence.
  EXPECT_TRUE(repairActionLeq(Act(RepairMech::Addr), Fence("lwsync")));
  EXPECT_TRUE(repairActionLeq(Act(RepairMech::Ctrl), Fence("sync")));
  EXPECT_FALSE(repairActionLeq(Act(RepairMech::Addr), Fence("eieio")));
  EXPECT_FALSE(repairActionLeq(Fence("lwsync"), Act(RepairMech::Addr)));
  // Different sites never compare.
  RepairAction Other = Fence("sync");
  Other.Site.Thread = 1;
  EXPECT_FALSE(repairActionLeq(Fence("lwsync"), Other));
}

TEST(Mutation, CostsFollowTheArchTables) {
  RepairSite S;
  RepairAction Lwsync;
  Lwsync.Site = S;
  Lwsync.FenceName = "lwsync";
  RepairAction Sync = Lwsync;
  Sync.FenceName = "sync";
  EXPECT_LT(repairActionCost(Arch::Power, Lwsync),
            repairActionCost(Arch::Power, Sync));
  RepairAction Addr;
  Addr.Site = S;
  Addr.Mech = RepairMech::Addr;
  EXPECT_EQ(repairActionCost(Arch::Power, Addr), 1u);
  RepairAction CtrlCfence;
  CtrlCfence.Site = S;
  CtrlCfence.Mech = RepairMech::CtrlCfence;
  EXPECT_GT(repairActionCost(Arch::Power, CtrlCfence), 1u);
  RepairAction DmbSt;
  DmbSt.Site = S;
  DmbSt.FenceName = "dmb.st";
  RepairAction Dmb = DmbSt;
  Dmb.FenceName = "dmb";
  EXPECT_LT(repairActionCost(Arch::ARM, DmbSt),
            repairActionCost(Arch::ARM, Dmb));
}

//===----------------------------------------------------------------------===//
// The paper's known repairs (Sec. 7 flavour), with minimality verified by
// re-simulation.
//===----------------------------------------------------------------------===//

TEST(Repair, MpPowerNeedsLwsyncPlusReaderDep) {
  LitmusTest Mp = familyTest("mp", Arch::Power);
  RepairEngine Engine;
  TestRepairResult R = Engine.repairOne(Mp);
  ASSERT_EQ(R.Error, "");
  EXPECT_TRUE(R.Repairable);
  EXPECT_FALSE(R.AlreadyMeetsGoal);
  ASSERT_FALSE(R.MinimalRepairs.empty());

  // Cheapest: addr on the reader (P0 in diy's layout), lwsync on the
  // writer.
  EXPECT_TRUE(setHasTags(*R.cheapest(), {"addr", "lwsync"}))
      << R.cheapest()->name();
  // ctrl+cfence on the reader is the other minimal reader mechanism; bare
  // ctrl must not appear (it does not order read-read pairs).
  bool HasCtrlCfence = false;
  for (const RepairSet &Set : R.MinimalRepairs) {
    HasCtrlCfence |= setHasTags(Set, {"ctrl+cfence", "lwsync"});
    for (const std::string &Tag : mechTags(Set)) {
      EXPECT_NE(Tag, "ctrl") << Set.name();
      EXPECT_NE(Tag, "sync") << "sync is never minimal for mp: "
                             << Set.name();
    }
  }
  EXPECT_TRUE(HasCtrlCfence);

  const Model &Power = *modelByName("Power");
  for (const RepairSet &Set : R.MinimalRepairs)
    expectMinimal(Mp, Set, Power);
}

TEST(Repair, SbNeedsFullFencesBothSides) {
  for (Arch A : {Arch::Power, Arch::ARM}) {
    LitmusTest Sb = familyTest("sb", A);
    RepairEngine Engine;
    TestRepairResult R = Engine.repairOne(Sb);
    ASSERT_EQ(R.Error, "");
    ASSERT_TRUE(R.Repairable) << archName(A);
    const char *Full = A == Arch::Power ? "sync" : "dmb";
    // The one and only minimal repair: the full fence on both sides.
    ASSERT_EQ(R.MinimalRepairs.size(), 1u) << archName(A);
    EXPECT_TRUE(setHasTags(*R.cheapest(), {Full, Full}))
        << R.cheapest()->name();
    expectMinimal(Sb, *R.cheapest(), modelFor(A));
  }
}

TEST(Repair, LbRepairsWithDependenciesAlone) {
  LitmusTest Lb = familyTest("lb", Arch::Power);
  RepairEngine Engine;
  TestRepairResult R = Engine.repairOne(Lb);
  ASSERT_EQ(R.Error, "");
  ASSERT_TRUE(R.Repairable);
  // Both gaps are R->W: a dependency on each side suffices, so the
  // cheapest repair costs 2 and no minimal repair contains any fence.
  EXPECT_EQ(R.cheapest()->Cost, 2u) << R.cheapest()->name();
  const Model &Power = *modelByName("Power");
  for (const RepairSet &Set : R.MinimalRepairs) {
    for (const RepairAction &Act : Set.Actions)
      EXPECT_NE(Act.Mech, RepairMech::Fence) << Set.name();
    expectMinimal(Lb, Set, Power);
  }
}

TEST(Repair, WrcNeedsCumulativeLightFence) {
  LitmusTest Wrc = familyTest("wrc", Arch::Power);
  RepairEngine Engine;
  TestRepairResult R = Engine.repairOne(Wrc);
  ASSERT_EQ(R.Error, "");
  ASSERT_TRUE(R.Repairable);
  // Dependencies on both threads do not restore wrc (Power is not
  // multi-copy atomic): every minimal repair carries a fence on the
  // rfe-target thread, and the cheapest is lwsync there plus addr.
  EXPECT_TRUE(setHasTags(*R.cheapest(), {"lwsync", "addr"}))
      << R.cheapest()->name();
  const Model &Power = *modelByName("Power");
  for (const RepairSet &Set : R.MinimalRepairs) {
    EXPECT_EQ(Set.Actions.front().Mech, RepairMech::Fence) << Set.name();
    expectMinimal(Wrc, Set, Power);
  }
}

TEST(Repair, IriwNeedsFullFencesOnBothReaders) {
  for (Arch A : {Arch::Power, Arch::ARM}) {
    LitmusTest Iriw = familyTest("iriw", A);
    RepairEngine Engine;
    TestRepairResult R = Engine.repairOne(Iriw);
    ASSERT_EQ(R.Error, "");
    ASSERT_TRUE(R.Repairable) << archName(A);
    const char *Full = A == Arch::Power ? "sync" : "dmb";
    ASSERT_EQ(R.MinimalRepairs.size(), 1u) << archName(A);
    EXPECT_TRUE(setHasTags(*R.cheapest(), {Full, Full}))
        << R.cheapest()->name();
    expectMinimal(Iriw, *R.cheapest(), modelFor(A));
  }
}

TEST(Repair, MpArmUsesDmbAndIsb) {
  LitmusTest Mp = familyTest("mp", Arch::ARM);
  RepairEngine Engine;
  TestRepairResult R = Engine.repairOne(Mp);
  ASSERT_EQ(R.Error, "");
  ASSERT_TRUE(R.Repairable);
  // ARM has no lightweight fence: dmb on the writer, a dependency or
  // ctrl+isb on the reader (P0 in diy's layout).
  EXPECT_TRUE(setHasTags(*R.cheapest(), {"addr", "dmb"}))
      << R.cheapest()->name();
  const Model &Arm = *modelByName("ARM");
  for (const RepairSet &Set : R.MinimalRepairs)
    expectMinimal(Mp, Set, Arm);
}

//===----------------------------------------------------------------------===//
// Goals, determinism and the campaign pipeline
//===----------------------------------------------------------------------===//

TEST(Repair, AlreadyForbiddenTestNeedsNothing) {
  // mp with syncs everywhere is already forbidden on Power.
  LitmusTest Mp = familyTest("mp", Arch::Power);
  auto Actions = enumerateActions(Mp);
  std::vector<RepairAction> Syncs;
  for (const RepairAction &Act : Actions)
    if (Act.Mech == RepairMech::Fence && Act.FenceName == "sync")
      Syncs.push_back(Act);
  ASSERT_EQ(Syncs.size(), 2u);
  auto Fixed = applyRepair(Mp, Syncs);
  ASSERT_TRUE(static_cast<bool>(Fixed));
  RepairEngine Engine;
  TestRepairResult R = Engine.repairOne(*Fixed);
  EXPECT_TRUE(R.AlreadyMeetsGoal);
  EXPECT_TRUE(R.Repairable);
  EXPECT_TRUE(R.MinimalRepairs.empty());
  EXPECT_STREQ(R.verdict(), "AlreadyOk");
  EXPECT_EQ(R.MutantsEvaluated, 1u);
}

TEST(Repair, ScEquivalenceGoalOnMp) {
  LitmusTest Mp = familyTest("mp", Arch::Power);
  RepairOptions Opts;
  Opts.Goal = RepairGoal::ScEquivalence;
  RepairEngine Engine(Opts);
  TestRepairResult R = Engine.repairOne(Mp);
  ASSERT_EQ(R.Error, "");
  ASSERT_TRUE(R.Repairable);
  const Model &Power = *modelByName("Power");
  const Model &Sc = *modelByName("SC");
  for (const RepairSet &Set : R.MinimalRepairs) {
    auto Mutant = applyRepair(Mp, Set.Actions);
    ASSERT_TRUE(static_cast<bool>(Mutant));
    MultiSimulationResult Multi = simulateAll(*Mutant, {&Power, &Sc});
    std::vector<std::string> Keys[2];
    for (int M = 0; M < 2; ++M)
      for (uint32_t Idx : Multi.PerModel[M].AllowedOutcomes)
        Keys[M].emplace_back(Multi.ConsistentOutcomes.key(Idx));
    EXPECT_EQ(Keys[0], Keys[1]) << Set.name();
  }
}

TEST(Repair, ScEquivalenceIsAtLeastAsStrongAsForbid) {
  // An SC-equivalent repair in particular forbids the exists-clause of a
  // critical-cycle test; on mp the two goals coincide.
  LitmusTest Mp = familyTest("mp", Arch::Power);
  RepairOptions Sc;
  Sc.Goal = RepairGoal::ScEquivalence;
  TestRepairResult RSc = RepairEngine(Sc).repairOne(Mp);
  TestRepairResult RForbid = RepairEngine().repairOne(Mp);
  ASSERT_FALSE(RSc.MinimalRepairs.empty());
  ASSERT_FALSE(RForbid.MinimalRepairs.empty());
  EXPECT_EQ(RSc.MinimalRepairs.size(), RForbid.MinimalRepairs.size());
  EXPECT_EQ(RSc.cheapest()->name(), RForbid.cheapest()->name());
}

TEST(Repair, DeterministicAcrossWorkerCounts) {
  std::vector<LitmusTest> Battery = {familyTest("mp", Arch::Power),
                                     familyTest("sb", Arch::Power),
                                     familyTest("lb", Arch::Power),
                                     familyTest("wrc", Arch::Power)};
  RepairOptions One;
  One.Jobs = 1;
  RepairOptions Many;
  Many.Jobs = 4;
  RepairReport A = RepairEngine(One).run(Battery);
  RepairReport B = RepairEngine(Many).run(Battery);
  ASSERT_EQ(A.Tests.size(), B.Tests.size());
  for (size_t I = 0; I < A.Tests.size(); ++I) {
    EXPECT_EQ(A.Tests[I].TestName, B.Tests[I].TestName);
    EXPECT_EQ(A.Tests[I].MutantsEvaluated, B.Tests[I].MutantsEvaluated);
    ASSERT_EQ(A.Tests[I].MinimalRepairs.size(),
              B.Tests[I].MinimalRepairs.size());
    for (size_t J = 0; J < A.Tests[I].MinimalRepairs.size(); ++J)
      EXPECT_EQ(A.Tests[I].MinimalRepairs[J].name(),
                B.Tests[I].MinimalRepairs[J].name());
  }
}

TEST(Repair, BatteryCampaignRepairsEveryAllowedFamily) {
  // The battery -> repair pipeline: every classic family on Power either
  // already meets the goal or is repairable; none errors.
  std::vector<LitmusTest> Battery;
  for (const auto &[Family, Cycle] : classicFamilies()) {
    auto Test = synthesizeTest(Cycle, Arch::Power);
    ASSERT_TRUE(static_cast<bool>(Test)) << Family;
    Battery.push_back(Test.take());
  }
  RepairEngine Engine;
  RepairReport Report = Engine.run(Battery);
  EXPECT_TRUE(Report.allOk());
  EXPECT_GT(Report.MutantsEvaluated, Battery.size());
  for (const TestRepairResult &T : Report.Tests) {
    EXPECT_TRUE(T.Repairable) << T.TestName;
    EXPECT_FALSE(T.Truncated) << T.TestName;
  }
}

TEST(Repair, JsonReportRoundTrips) {
  RepairEngine Engine;
  RepairReport Report = Engine.run({familyTest("mp", Arch::Power)});
  JsonValue Json = repairReportToJson(Report);
  EXPECT_EQ(Json.get("schema")->asString(), "cats-repair-report/1");
  auto Parsed = JsonValue::parse(Json.dump());
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(*Parsed, Json);
  const JsonValue *Tests = Json.get("tests");
  ASSERT_NE(Tests, nullptr);
  ASSERT_EQ(Tests->elements().size(), 1u);
  const JsonValue &Entry = Tests->elements()[0];
  EXPECT_EQ(Entry.get("name")->asString(), "mp");
  EXPECT_EQ(Entry.get("verdict")->asString(), "Repairable");
  EXPECT_FALSE(Entry.get("minimal_repairs")->elements().empty());
  EXPECT_EQ(Entry.get("cheapest")->asString(),
            Report.Tests[0].cheapest()->name());
}

TEST(Repair, TextReportShape) {
  RepairEngine Engine;
  TestRepairResult R = Engine.repairOne(familyTest("mp", Arch::Power));
  std::string Text = repairTextReport(R);
  EXPECT_NE(Text.find("Test mp Repairable"), std::string::npos) << Text;
  EXPECT_NE(Text.find("Model Power goal forbid"), std::string::npos);
  EXPECT_NE(Text.find("Cheapest {P0:addr, P1:lwsync}"), std::string::npos)
      << Text;
}

TEST(Repair, UnrepairableWhenNoSitesHelp) {
  // A test whose condition is SC-reachable can never be forbidden by
  // fences: two unrelated stores with a trivially true condition.
  LitmusTest T;
  T.Name = "sc-reachable";
  T.TargetArch = Arch::Power;
  T.Threads.resize(2);
  T.Threads[0].push_back(Instruction::store("x", Operand::imm(1)));
  T.Threads[0].push_back(Instruction::store("y", Operand::imm(1)));
  T.Threads[1].push_back(Instruction::load(1, "y"));
  T.Threads[1].push_back(Instruction::load(2, "x"));
  T.Final.addConjunction({ConditionAtom::regEquals(1, 1, 1),
                          ConditionAtom::regEquals(1, 2, 1)});
  RepairEngine Engine;
  TestRepairResult R = Engine.repairOne(T);
  EXPECT_EQ(R.Error, "");
  EXPECT_FALSE(R.Repairable);
  EXPECT_STREQ(R.verdict(), "Unrepairable");
  EXPECT_TRUE(R.MinimalRepairs.empty());
}

//===----------------------------------------------------------------------===//
// Test filtering (shared by cats_sweep/cats_repair --filter)
//===----------------------------------------------------------------------===//

TEST(TestFilter, SelectsByRegex) {
  std::vector<LitmusTest> Tests = {familyTest("mp", Arch::Power),
                                   familyTest("sb", Arch::Power),
                                   familyTest("iriw", Arch::Power)};
  auto All = filterTestsByName(Tests, "");
  ASSERT_TRUE(static_cast<bool>(All));
  EXPECT_EQ(All->size(), 3u);
  auto Exact = filterTestsByName(Tests, "^mp$");
  ASSERT_TRUE(static_cast<bool>(Exact));
  ASSERT_EQ(Exact->size(), 1u);
  EXPECT_EQ((*Exact)[0].Name, "mp");
  auto Family = filterTestsByName(Tests, "^(sb|iriw)$");
  ASSERT_TRUE(static_cast<bool>(Family));
  EXPECT_EQ(Family->size(), 2u);
  auto Partial = filterTestsByName(Tests, "b");
  ASSERT_TRUE(static_cast<bool>(Partial));
  EXPECT_EQ(Partial->size(), 1u);
}

TEST(TestFilter, RejectsMalformedRegex) {
  std::vector<LitmusTest> Tests = {familyTest("mp", Arch::Power)};
  auto Bad = filterTestsByName(Tests, "([");
  EXPECT_FALSE(static_cast<bool>(Bad));
  EXPECT_NE(Bad.message().find("bad filter regex"), std::string::npos);
}
