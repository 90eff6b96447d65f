//===- model.cpp - Tests for the axiomatic models ---------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heart of the reproduction: every documented verdict of the paper's
/// figure catalogue must be reproduced by the corresponding model, Lemma 4.1
/// must hold against the reference SC/TSO formulations, and the ppo/prop
/// building blocks must behave as Figs. 17/18/25 prescribe.
///
//===----------------------------------------------------------------------===//

#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "litmus/Parser.h"
#include "model/HwModel.h"
#include "model/Registry.h"
#include "model/SimpleModels.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

using namespace cats;

namespace {

LitmusTest parseOrDie(const char *Text) {
  auto Test = parseLitmus(Text);
  EXPECT_TRUE(static_cast<bool>(Test)) << Test.message();
  return Test.take();
}

} // namespace

//===----------------------------------------------------------------------===//
// The figure catalogue: one parameterised test per (entry, model) pair.
//===----------------------------------------------------------------------===//

struct CatalogCase {
  size_t EntryIndex;
  std::string ModelName;
  bool ExpectedAllowed;
};

class CatalogVerdictTest : public ::testing::TestWithParam<CatalogCase> {};

TEST_P(CatalogVerdictTest, MatchesPaper) {
  const CatalogCase &Case = GetParam();
  const CatalogEntry &Entry = figureCatalog()[Case.EntryIndex];
  const Model *M = modelByName(Case.ModelName);
  ASSERT_NE(M, nullptr) << "unknown model " << Case.ModelName;
  SimulationResult Result = simulate(Entry.Test, *M);
  EXPECT_EQ(Result.ConditionReachable, Case.ExpectedAllowed)
      << Entry.Test.Name << " under " << Case.ModelName << " ("
      << Entry.Figure << ": " << Entry.PaperVerdict << ")";
}

static std::vector<CatalogCase> allCatalogCases() {
  std::vector<CatalogCase> Cases;
  const auto &Catalog = figureCatalog();
  for (size_t I = 0; I < Catalog.size(); ++I)
    for (const auto &[ModelName, Allowed] : Catalog[I].Expected)
      Cases.push_back({I, ModelName, Allowed});
  return Cases;
}

static std::string catalogCaseName(
    const ::testing::TestParamInfo<CatalogCase> &Info) {
  const CatalogEntry &Entry = figureCatalog()[Info.param.EntryIndex];
  std::string Name = Entry.Test.Name + "_" + Info.param.ModelName;
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(Figures, CatalogVerdictTest,
                         ::testing::ValuesIn(allCatalogCases()),
                         catalogCaseName);

//===----------------------------------------------------------------------===//
// Lemma 4.1: the SC and TSO instances agree with the reference definitions
// on every candidate execution of the catalogue tests.
//===----------------------------------------------------------------------===//

class Lemma41Test : public ::testing::TestWithParam<size_t> {};

TEST_P(Lemma41Test, ScAndTsoMatchReferences) {
  const CatalogEntry &Entry = figureCatalog()[GetParam()];
  auto Compiled = CompiledTest::compile(Entry.Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  ScModel Sc;
  TsoModel Tso;
  unsigned Checked = 0;
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (!Cand.Consistent)
      return true;
    EXPECT_EQ(Sc.allows(Cand.Exe), isScReference(Cand.Exe))
        << "SC disagreement on " << Entry.Test.Name << "\n"
        << Cand.Exe.toString();
    EXPECT_EQ(Tso.allows(Cand.Exe), isTsoReference(Cand.Exe))
        << "TSO disagreement on " << Entry.Test.Name << "\n"
        << Cand.Exe.toString();
    ++Checked;
    return true;
  });
  EXPECT_GT(Checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Figures, Lemma41Test,
    ::testing::Range<size_t>(0, figureCatalog().size()));

//===----------------------------------------------------------------------===//
// Model hierarchy properties over the whole catalogue.
//===----------------------------------------------------------------------===//

class HierarchyTest : public ::testing::TestWithParam<size_t> {};

namespace {

/// True when the test only uses fences TSO understands (mfence): only then
/// is "TSO-allowed implies Power-allowed" meaningful, since TSO ignores
/// Power/ARM fences and would under-constrain fenced tests.
bool usesOnlyTsoFences(const LitmusTest &Test) {
  for (const ThreadCode &Thread : Test.Threads)
    for (const Instruction &Instr : Thread)
      if (Instr.Op == Opcode::Fence && Instr.FenceName != fence::MFence)
        return false;
  return true;
}

} // namespace

TEST_P(HierarchyTest, ScStrongerThanTsoStrongerThanPower) {
  const CatalogEntry &Entry = figureCatalog()[GetParam()];
  auto Compiled = CompiledTest::compile(Entry.Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Model &Sc = *modelByName("SC");
  const Model &Tso = *modelByName("TSO");
  const Model &Power = *modelByName("Power");
  const Model &ArmLlh = *modelByName("ARM llh");
  const Model &Arm = *modelByName("ARM");
  bool TsoComparable = usesOnlyTsoFences(Entry.Test);
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (!Cand.Consistent)
      return true;
    // SC-allowed => TSO-allowed => Power-allowed: the models weaken.
    if (Sc.allows(Cand.Exe)) {
      EXPECT_TRUE(Tso.allows(Cand.Exe)) << Entry.Test.Name;
    }
    if (TsoComparable && Tso.allows(Cand.Exe)) {
      EXPECT_TRUE(Power.allows(Cand.Exe)) << Entry.Test.Name;
    }
    // ARM weakens ARM's SC-per-location into llh.
    if (Arm.allows(Cand.Exe)) {
      EXPECT_TRUE(ArmLlh.allows(Cand.Exe)) << Entry.Test.Name;
    }
    return true;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Figures, HierarchyTest,
    ::testing::Range<size_t>(0, figureCatalog().size()));

//===----------------------------------------------------------------------===//
// ppo building blocks (Fig. 25).
//===----------------------------------------------------------------------===//

namespace {

/// Compiles and returns the unique candidate matching the exists-condition,
/// to inspect relations on the paper's intended execution witness.
Candidate witnessOf(const LitmusTest &Test) {
  auto Compiled = CompiledTest::compile(Test);
  EXPECT_TRUE(static_cast<bool>(Compiled));
  Candidate Witness;
  bool Found = false;
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (Cand.Consistent && Cand.Out.satisfies(Test.Final) && !Found) {
      Witness = Cand;
      Found = true;
    }
    return true;
  });
  EXPECT_TRUE(Found) << "no witness candidate for " << Test.Name;
  return Witness;
}

} // namespace

TEST(Ppo, AddressDependencyPreservesReadReadOnPower) {
  LitmusTest Test = parseOrDie(R"(
Power addrppo
P0:
  st x, #1
P1:
  ld r1, y
  xor r2, r1, r1
  ld r3, x[r2]
exists (1:r1=0 /\ 1:r3=1)
)");
  Candidate Witness = witnessOf(Test);
  HwModel Power(HwConfig::power());
  Relation Ppo = Power.ppo(Witness.Exe);
  auto T1 = Witness.Exe.threadEvents(1);
  ASSERT_EQ(T1.size(), 2u);
  EXPECT_TRUE(Ppo.test(T1[0], T1[1]));
}

TEST(Ppo, PlainPoReadReadNotPreservedOnPower) {
  LitmusTest Test = parseOrDie(R"(
Power noppo
P0:
  st x, #1
P1:
  ld r1, y
  ld r3, x
exists (1:r1=0 /\ 1:r3=1)
)");
  Candidate Witness = witnessOf(Test);
  HwModel Power(HwConfig::power());
  Relation Ppo = Power.ppo(Witness.Exe);
  auto T1 = Witness.Exe.threadEvents(1);
  EXPECT_FALSE(Ppo.test(T1[0], T1[1]));
}

TEST(Ppo, CtrlPreservesReadWriteButNotReadRead) {
  LitmusTest Test = parseOrDie(R"(
Power ctrlppo
P0:
  ld r1, y
  beq r1
  st x, #1
  ld r2, z
exists (0:r1=0)
)");
  Candidate Witness = witnessOf(Test);
  HwModel Power(HwConfig::power());
  Relation Ppo = Power.ppo(Witness.Exe);
  auto T0 = Witness.Exe.threadEvents(0);
  ASSERT_EQ(T0.size(), 3u);
  EXPECT_TRUE(Ppo.test(T0[0], T0[1]))
      << "ctrl to a write must be preserved";
  EXPECT_FALSE(Ppo.test(T0[0], T0[2]))
      << "ctrl to a read needs a control fence";
}

TEST(Ppo, CtrlIsyncPreservesReadRead) {
  LitmusTest Test = parseOrDie(R"(
Power ctrlisyncppo
P0:
  ld r1, y
  beq r1
  isync
  ld r2, z
exists (0:r1=0)
)");
  Candidate Witness = witnessOf(Test);
  HwModel Power(HwConfig::power());
  Relation Ppo = Power.ppo(Witness.Exe);
  auto T0 = Witness.Exe.threadEvents(0);
  EXPECT_TRUE(Ppo.test(T0[0], T0[1]));
}

TEST(Ppo, PpoOnlyRelatesReadsToAnything) {
  // ppo = RR(ii) | RW(ic): sources are always reads.
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    HwModel Power(HwConfig::power());
    const Execution &Skel = Compiled->skeleton();
    // ppo needs rf/co to evaluate rdw/detour; use the first candidate.
    bool Done = false;
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (Done || !Cand.Consistent)
        return true;
      Done = true;
      for (auto [From, To] : Power.ppo(Cand.Exe).pairs()) {
        EXPECT_TRUE(Cand.Exe.event(From).isRead())
            << Entry.Test.Name << ": ppo source must be a read";
        EXPECT_EQ(Cand.Exe.event(From).Thread, Cand.Exe.event(To).Thread)
            << Entry.Test.Name << ": ppo is per-thread";
      }
      return true;
    });
    (void)Skel;
  }
}

//===----------------------------------------------------------------------===//
// Fence semantics (Fig. 17).
//===----------------------------------------------------------------------===//

TEST(Fences, LwsyncExcludesWriteReadPairs) {
  LitmusTest Test = parseOrDie(R"(
Power lwsyncwr
P0:
  st x, #1
  lwsync
  ld r1, y
exists (0:r1=0)
)");
  Candidate Witness = witnessOf(Test);
  HwModel Power(HwConfig::power());
  Relation Light = Power.lightFence(Witness.Exe);
  auto T0 = Witness.Exe.threadEvents(0);
  EXPECT_FALSE(Light.test(T0[0], T0[1]))
      << "lwsync does not order write->read";
  // But the raw fence relation still records the pair (footnote 2).
  EXPECT_TRUE(Witness.Exe.fenceRelation("lwsync").test(T0[0], T0[1]));
}

TEST(Fences, SyncOrdersEverything) {
  LitmusTest Test = parseOrDie(R"(
Power syncwr
P0:
  st x, #1
  sync
  ld r1, y
exists (0:r1=0)
)");
  Candidate Witness = witnessOf(Test);
  HwModel Power(HwConfig::power());
  auto T0 = Witness.Exe.threadEvents(0);
  EXPECT_TRUE(Power.fullFence(Witness.Exe).test(T0[0], T0[1]));
}

TEST(Fences, EieioOnlyOrdersWriteWrite) {
  LitmusTest Test = parseOrDie(R"(
Power eieiomixed
P0:
  st x, #1
  eieio
  st y, #1
  eieio
  ld r1, z
exists (0:r1=0)
)");
  Candidate Witness = witnessOf(Test);
  HwModel Power(HwConfig::power());
  Relation Light = Power.lightFence(Witness.Exe);
  auto T0 = Witness.Exe.threadEvents(0);
  ASSERT_EQ(T0.size(), 3u);
  EXPECT_TRUE(Light.test(T0[0], T0[1])) << "eieio orders write->write";
  EXPECT_FALSE(Light.test(T0[1], T0[2])) << "eieio ignores write->read";
  EXPECT_FALSE(Light.test(T0[0], T0[2]));
}

TEST(Fences, DmbStOnlyOrdersWriteWrite) {
  LitmusTest Test = parseOrDie(R"(
ARM dmbst
P0:
  st x, #1
  dmb.st
  st y, #1
  dmb.st
  ld r1, z
exists (0:r1=0)
)");
  Candidate Witness = witnessOf(Test);
  HwModel Arm(HwConfig::arm());
  Relation Full = Arm.fullFence(Witness.Exe);
  auto T0 = Witness.Exe.threadEvents(0);
  EXPECT_TRUE(Full.test(T0[0], T0[1]));
  EXPECT_FALSE(Full.test(T0[1], T0[2]));
}

//===----------------------------------------------------------------------===//
// Axiom classification (Verdict::letters, used by Table VIII).
//===----------------------------------------------------------------------===//

TEST(Verdicts, LettersNameViolatedAxioms) {
  // An mp witness under TSO violates OBSERVATION and/or PROPAGATION but
  // not SC PER LOCATION.
  LitmusTest Test = parseOrDie(R"(
TSO mp
P0:
  st x, #1
  st y, #1
P1:
  ld r1, y
  ld r2, x
exists (1:r1=1 /\ 1:r2=0)
)");
  Candidate Witness = witnessOf(Test);
  Verdict V = modelByName("TSO")->check(Witness.Exe);
  EXPECT_FALSE(V.Allowed);
  EXPECT_FALSE(V.violates(Axiom::ScPerLocation));
  EXPECT_FALSE(V.letters().empty());
}

TEST(Verdicts, AllowedHasNoLetters) {
  LitmusTest Test = parseOrDie(R"(
Power mp
P0:
  st x, #1
  st y, #1
P1:
  ld r1, y
  ld r2, x
exists (1:r1=1 /\ 1:r2=0)
)");
  Candidate Witness = witnessOf(Test);
  Verdict V = modelByName("Power")->check(Witness.Exe);
  EXPECT_TRUE(V.Allowed);
  EXPECT_EQ(V.letters(), "");
}

//===----------------------------------------------------------------------===//
// Registry.
//===----------------------------------------------------------------------===//

TEST(Registry, AllModelsPresent) {
  EXPECT_EQ(allModels().size(), 9u);
  for (const char *Name : {"SC", "TSO", "PSO", "RMO", "C++RA", "Power",
                           "ARM", "Power-ARM", "ARM llh"})
    EXPECT_NE(modelByName(Name), nullptr) << Name;
  EXPECT_EQ(modelByName("bogus"), nullptr);
}

TEST(Registry, DefaultModelPerArch) {
  EXPECT_EQ(modelFor(Arch::SC).name(), "SC");
  EXPECT_EQ(modelFor(Arch::TSO).name(), "TSO");
  EXPECT_EQ(modelFor(Arch::Power).name(), "Power");
  EXPECT_EQ(modelFor(Arch::ARM).name(), "ARM");
  EXPECT_EQ(modelFor(Arch::CppRA).name(), "C++RA");
}

//===----------------------------------------------------------------------===//
// Memo entries shared between models.
//===----------------------------------------------------------------------===//

TEST(ModelMemo, ArmLlhSharesEveryEntryButItsUniprocClosure) {
  // ARM and ARM llh have one triple, so one memoTag(). On the coRR
  // candidate that only the llh weakening allows, ARM llh checked after
  // ARM must miss exactly once, on its own SC PER LOCATION closure, and
  // still reach its own verdict.
  const Model *Arm = modelByName("ARM");
  const Model *Llh = modelByName("ARM llh");
  ASSERT_EQ(Arm->memoTag(), Llh->memoTag());
  const CatalogEntry *Entry = catalogEntry("coRR");
  ASSERT_NE(Entry, nullptr);
  auto Compiled = CompiledTest::compile(Entry->Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  Execution Exe;
  bool Found = false;
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (!Cand.Consistent || Arm->allows(Cand.Exe) || !Llh->allows(Cand.Exe))
      return true;
    Exe = Cand.Exe;
    Found = true;
    return false;
  });
  ASSERT_TRUE(Found);

  Exe.enableDerivedCache();
  obs::Counter &Misses = obs::counter("memo.model_misses");
  const bool WasOn = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  const unsigned long long Before = Misses.value();
  const Verdict ArmVerdict = Arm->check(Exe);
  const unsigned long long AfterArm = Misses.value();
  const Verdict LlhVerdict = Llh->check(Exe);
  const unsigned long long AfterLlh = Misses.value();
  obs::setMetricsEnabled(WasOn);

  EXPECT_EQ(ArmVerdict.letters(), "S");
  EXPECT_TRUE(LlhVerdict.Allowed);
  EXPECT_GT(AfterArm, Before);
  EXPECT_EQ(AfterLlh - AfterArm, 1ull);
}

//===----------------------------------------------------------------------===//
// Simulator bookkeeping.
//===----------------------------------------------------------------------===//

TEST(Simulator, CandidateCountsAreConsistent) {
  const CatalogEntry *Entry = catalogEntry("mp+lwsync+addr");
  ASSERT_NE(Entry, nullptr);
  SimulationResult R = simulate(Entry->Test, *modelByName("Power"));
  EXPECT_EQ(R.CandidatesTotal, 4ull);
  EXPECT_LE(R.CandidatesAllowed, R.CandidatesConsistent);
  EXPECT_LE(R.CandidatesConsistent, R.CandidatesTotal);
  EXPECT_FALSE(R.AllowedOutcomes.empty());
  EXPECT_STREQ(R.verdict(), "Forbid");
}

TEST(Simulator, ScAllowsOnlyInterleavings) {
  // On sb, SC allows exactly 3 of the 4 outcomes (both-zero excluded).
  const CatalogEntry *Entry = catalogEntry("sb");
  ASSERT_NE(Entry, nullptr);
  SimulationResult R = simulate(Entry->Test, *modelByName("SC"));
  EXPECT_EQ(R.AllowedOutcomes.size(), 3u);
  SimulationResult RTso = simulate(Entry->Test, *modelByName("TSO"));
  EXPECT_EQ(RTso.AllowedOutcomes.size(), 4u);
}

//===----------------------------------------------------------------------===//
// The Sparc siblings (Sec. 4.9 instantiation exercise).
//===----------------------------------------------------------------------===//

TEST(SparcSiblings, Registered) {
  ASSERT_NE(modelByName("PSO"), nullptr);
  ASSERT_NE(modelByName("RMO"), nullptr);
  EXPECT_EQ(allModels().size(), 9u);
}

TEST(SparcSiblings, PsoAllowsStoreReorderingButKeepsMpReads) {
  // 2+2w (write-write reordering) is allowed on PSO, forbidden on TSO.
  const CatalogEntry *TwoW = catalogEntry("2+2w");
  ASSERT_NE(TwoW, nullptr);
  EXPECT_TRUE(allowedBy(TwoW->Test, *modelByName("PSO")));
  EXPECT_FALSE(allowedBy(TwoW->Test, *modelByName("TSO")));
  // mp is allowed on PSO too (the writes race ahead) but read pairs stay
  // ordered: lb is still forbidden.
  const CatalogEntry *Mp = catalogEntry("mp");
  ASSERT_NE(Mp, nullptr);
  EXPECT_TRUE(allowedBy(Mp->Test, *modelByName("PSO")));
  const CatalogEntry *Lb = catalogEntry("lb");
  ASSERT_NE(Lb, nullptr);
  EXPECT_FALSE(allowedBy(Lb->Test, *modelByName("PSO")));
}

TEST(SparcSiblings, RmoKeepsOnlyDependencies) {
  // Bare lb is allowed on RMO; with dependencies it is forbidden.
  EXPECT_TRUE(allowedBy(catalogEntry("lb")->Test, *modelByName("RMO")));
  EXPECT_FALSE(
      allowedBy(catalogEntry("lb+addrs")->Test, *modelByName("RMO")));
  // RMO officially allows load-load hazards (Sec. 4.9).
  EXPECT_TRUE(allowedBy(catalogEntry("coRR")->Test, *modelByName("RMO")));
}

TEST(SparcSiblings, WeakeningChain) {
  // Per candidate: TSO-allowed => PSO-allowed => RMO-allowed, on
  // fence-free catalogue tests.
  for (const CatalogEntry &Entry : figureCatalog()) {
    bool HasFences = false;
    for (const ThreadCode &Thread : Entry.Test.Threads)
      for (const Instruction &Instr : Thread)
        if (Instr.Op == Opcode::Fence)
          HasFences = true;
    if (HasFences)
      continue;
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (!Cand.Consistent)
        return true;
      if (modelByName("TSO")->allows(Cand.Exe)) {
        EXPECT_TRUE(modelByName("PSO")->allows(Cand.Exe))
            << Entry.Test.Name;
      }
      if (modelByName("PSO")->allows(Cand.Exe)) {
        EXPECT_TRUE(modelByName("RMO")->allows(Cand.Exe))
            << Entry.Test.Name;
      }
      return true;
    });
  }
}
