//===- run.cpp - Tests for the native litmus runner -----------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "litmus/Compiler.h"
#include "litmus/Parser.h"
#include "model/Registry.h"
#include "run/Codegen.h"
#include "run/RunEngine.h"
#include "run/Verdict.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <set>

using namespace cats;

namespace {

LitmusTest parseOrDie(const std::string &Text) {
  auto Test = parseLitmus(Text);
  EXPECT_TRUE(static_cast<bool>(Test)) << Test.message();
  return Test.take();
}

/// The keys of simulate()'s allowed states, resolved against its table.
std::set<std::string> allowedKeys(const SimulationResult &Sim) {
  std::set<std::string> Keys;
  for (uint32_t Idx : Sim.AllowedOutcomes)
    Keys.emplace(Sim.ConsistentOutcomes.key(Idx));
  return Keys;
}

} // namespace

//===----------------------------------------------------------------------===//
// Codegen
//===----------------------------------------------------------------------===//

TEST(Codegen, WholeCatalogueLowers) {
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Native = NativeTest::compile(Entry.Test);
    EXPECT_TRUE(static_cast<bool>(Native))
        << Entry.Test.Name << ": " << Native.message();
  }
}

TEST(Codegen, FenceClassification) {
  EXPECT_EQ(classifyFence("sync"), HostFence::Full);
  EXPECT_EQ(classifyFence("dmb"), HostFence::Full);
  EXPECT_EQ(classifyFence("dsb"), HostFence::Full);
  EXPECT_EQ(classifyFence("mfence"), HostFence::Full);
  EXPECT_EQ(classifyFence("lwsync"), HostFence::Light);
  EXPECT_EQ(classifyFence("eieio"), HostFence::Light);
  EXPECT_EQ(classifyFence("dmb.st"), HostFence::Light);
  EXPECT_EQ(classifyFence("dsb.st"), HostFence::Light);
  EXPECT_EQ(classifyFence("isync"), HostFence::Control);
  EXPECT_EQ(classifyFence("isb"), HostFence::Control);
  EXPECT_EQ(classifyFence("nonesuch"), HostFence::None);
}

TEST(Codegen, SingleThreadReplayMatchesSimulator) {
  // Single-threaded programs have exactly one SC outcome; the native
  // replay (which exercises loads, stores, mov/xor/add, branches, fences
  // and dependent addressing) must land on it, key for key.
  const char *Programs[] = {
      // Straight-line value flow through registers and memory.
      "TSO seq-1\n"
      "{ x=0; y=0 }\n"
      "P0:\n"
      "  mov r1, #3\n"
      "  st x, r1\n"
      "  ld r2, x\n"
      "  add r3, r2, r2\n"
      "  st y, r3\n"
      "exists (0:r3=6 /\\ y=6)",
      // False address dependency: x[r2] with r2 = r1^r1 still reads x.
      "Power seq-2\n"
      "{ x=7; y=1 }\n"
      "P0:\n"
      "  ld r1, y\n"
      "  xor r2, r1, r1\n"
      "  ld r3, x[r2]\n"
      "exists (0:r3=7)",
      // Branch + control fence + overwrite; the final register file keeps
      // the last value.
      "Power seq-3\n"
      "{ x=0 }\n"
      "P0:\n"
      "  ld r1, x\n"
      "  beq r1\n"
      "  isync\n"
      "  mov r1, #5\n"
      "  st x, r1\n"
      "  sync\n"
      "  ld r4, x\n"
      "exists (0:r1=5 /\\ 0:r4=5)",
      // Init-only and condition-only locations appear in the outcome.
      "TSO seq-4\n"
      "{ a=9 }\n"
      "P0:\n"
      "  ld r1, a\n"
      "  st b, r1\n"
      "exists (b=9 /\\ c=0)",
  };
  for (const char *Text : Programs) {
    LitmusTest Test = parseOrDie(Text);
    auto Native = NativeTest::compile(Test);
    ASSERT_TRUE(static_cast<bool>(Native)) << Native.message();
    SimulationResult Sim = simulate(Test, *modelByName("SC"));
    ASSERT_EQ(Sim.AllowedOutcomes.size(), 1u) << Test.Name;
    EXPECT_EQ(Native->replay().key(), *allowedKeys(Sim).begin())
        << Test.Name;
    EXPECT_TRUE(Native->replay().satisfies(Test.Final)) << Test.Name;
  }
}

TEST(Codegen, CatalogueReplaysAreScExecutions) {
  // Running threads to completion in index order is one SC interleaving,
  // so every replayed outcome must be in the SC allowed set — this pins
  // the value semantics (rf through real memory) of the whole catalogue
  // against MicroSemantics-derived simulation.
  const Model *Sc = modelByName("SC");
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.message();
    if (Compiled->candidateCount() > 200000)
      continue; // Keep the suite fast; the big detour tests cost minutes.
    auto Native = NativeTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Native)) << Native.message();
    SimulationResult Sim = simulate(*Compiled, *Sc);
    std::set<std::string> Allowed = allowedKeys(Sim);
    EXPECT_TRUE(Allowed.count(Native->replay().key()))
        << Entry.Test.Name << ": replay outcome "
        << Native->replay().key() << " is not SC-allowed";
  }
}

TEST(Codegen, OutcomeShapeMatchesSimulator) {
  // The register/memory sets of a native outcome must equal the
  // simulator's, or histogram keys would never match the allowed sets.
  LitmusTest Test = parseOrDie("Power mp-shape\n"
                               "{ x=0; y=0 }\n"
                               "P0:\n"
                               "  st x, #1\n"
                               "  st y, #1\n"
                               "P1:\n"
                               "  ld r1, y\n"
                               "  xor r2, r1, r1\n"
                               "  ld r3, x[r2]\n"
                               "exists (1:r1=1 /\\ 1:r3=0)");
  auto Native = NativeTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Native));
  ASSERT_EQ(Native->numThreads(), 2u);
  EXPECT_TRUE(Native->outcomeRegisters(0).empty());
  // P1 writes r1, r2, r3 — all three are outcome registers.
  EXPECT_EQ(Native->outcomeRegisters(1).size(), 3u);
  Outcome Replay = Native->replay();
  EXPECT_EQ(Replay.Regs.size(), 2u);
  EXPECT_EQ(Replay.Memory.size(), 2u);
  EXPECT_EQ(Replay.reg(1, 1), 1);
  EXPECT_EQ(Replay.reg(1, 3), 1);
}

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

TEST(RunEngine, HistogramCountsAndOrder) {
  RunOptions Opts;
  Opts.Iterations = 20000;
  Opts.BatchSize = 128;
  Opts.Seed = 1;
  RunEngine Engine(Opts);
  const CatalogEntry *Mp = catalogEntry("mp");
  ASSERT_NE(Mp, nullptr);
  RunTestResult R = Engine.runTest(Mp->Test, hostReferenceModel());
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  unsigned long long Total = 0;
  for (const RunBucket &B : R.Histogram)
    Total += B.Count;
  EXPECT_EQ(Total, Opts.Iterations);
  for (size_t I = 1; I < R.Histogram.size(); ++I)
    EXPECT_LT(R.Histogram[I - 1].Key, R.Histogram[I].Key);
  // Every observed outcome is explained by the candidate enumeration —
  // true on any hardware, or the codegen value semantics are wrong.
  EXPECT_EQ(R.OutsideEnumeration, 0ull);
}

TEST(RunEngine, ObservedOutcomesAreModelAllowedOnThisHost) {
#if defined(__x86_64__)
  // On x86 the host reference model is TSO, and TSO soundness over the
  // classic families is the CI acceptance gate.
  RunOptions Opts;
  Opts.Iterations = 30000;
  Opts.Seed = 3;
  RunEngine Engine(Opts);
  const Model &Reference = hostReferenceModel();
  EXPECT_EQ(Reference.name(), "TSO");
  for (const char *Name : {"mp", "sb", "lb+addrs", "wrc+addrs"}) {
    const CatalogEntry *Entry = catalogEntry(Name);
    ASSERT_NE(Entry, nullptr) << Name;
    RunTestResult R = Engine.runTest(Entry->Test, Reference);
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_TRUE(R.sound())
        << Name << ": " << R.OutsideModel << " outcome(s) outside TSO";
  }
#else
  GTEST_SKIP() << "host reference soundness is asserted on x86 only";
#endif
}

TEST(RunEngine, ScheduleIsDeterministicPerSeed) {
  const CatalogEntry *Sb = catalogEntry("sb");
  ASSERT_NE(Sb, nullptr);
  RunOptions Opts;
  Opts.Iterations = 5000;
  Opts.BatchSize = 64;
  Opts.Seed = 7;
  const Model &Reference = hostReferenceModel();
  for (ScheduleKind Kind : {ScheduleKind::Shuffle, ScheduleKind::Stride,
                            ScheduleKind::Sequential}) {
    Opts.Schedule = Kind;
    RunEngine Engine(Opts);
    RunTestResult A = Engine.runTest(Sb->Test, Reference);
    RunTestResult B = Engine.runTest(Sb->Test, Reference);
    ASSERT_TRUE(A.Error.empty()) << A.Error;
    EXPECT_EQ(A.ScheduleHash, B.ScheduleHash) << scheduleName(Kind);
    Opts.Seed = 8;
    RunEngine Other(Opts);
    RunTestResult C = Other.runTest(Sb->Test, Reference);
    if (Kind != ScheduleKind::Sequential) {
      EXPECT_NE(A.ScheduleHash, C.ScheduleHash) << scheduleName(Kind);
    }
    Opts.Seed = 7;
  }
}

TEST(RunEngine, DistinctTestsDrawDistinctSchedules) {
  RunOptions Opts;
  Opts.Iterations = 2000;
  Opts.BatchSize = 64;
  RunEngine Engine(Opts);
  const Model &Reference = hostReferenceModel();
  RunTestResult A = Engine.runTest(catalogEntry("mp")->Test, Reference);
  RunTestResult B = Engine.runTest(catalogEntry("sb")->Test, Reference);
  EXPECT_NE(A.ScheduleHash, B.ScheduleHash);
}

TEST(RunEngine, ReportShapeAndJson) {
  RunOptions Opts;
  Opts.Iterations = 1000;
  Opts.Seed = 11;
  RunEngine Engine(Opts);
  std::vector<LitmusTest> Tests{catalogEntry("mp")->Test,
                                catalogEntry("sb")->Test};
  RunReport Report = Engine.run(Tests, hostReferenceModel());
  ASSERT_EQ(Report.Tests.size(), 2u);
  EXPECT_EQ(Report.Host, hostArchName());
  JsonValue Json = runReportToJson(Report);
  EXPECT_EQ(Json.get("schema")->asString(), "cats-run-report/1");
  EXPECT_EQ(Json.get("tests")->elements().size(), 2u);
  // Round-trips through the parser.
  auto Back = JsonValue::parse(Json.dump());
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  EXPECT_EQ(*Back, Json);
}

TEST(RunEngine, CompileErrorIsReportedNotFatal) {
  LitmusTest Bad;
  Bad.Name = "bad";
  Bad.TargetArch = Arch::TSO;
  Bad.Threads.push_back({Instruction::fenceNamed("sync")}); // not on TSO
  RunEngine Engine;
  RunTestResult R = Engine.runTest(Bad, hostReferenceModel());
  EXPECT_FALSE(R.Error.empty());
  EXPECT_FALSE(R.sound());
}

//===----------------------------------------------------------------------===//
// Verdict layer
//===----------------------------------------------------------------------===//

TEST(Verdict, SyntheticUnsoundHistogramIsFlagged) {
  // Judge a hand-built histogram for mp containing the sc-forbidden (and
  // even TSO-forbidden) outcome r1=1, r3=0: the soundness check must
  // fire even though no real x86 run would produce it.
  const CatalogEntry *Mp = catalogEntry("mp");
  ASSERT_NE(Mp, nullptr);
  RunTestResult R;
  R.TestName = "mp";
  R.Iterations = 2;

  RunBucket Good; // The observable SC outcome r1=0, r2=0.
  Good.Out.Regs.resize(2);
  Good.Out.Regs[1][1] = 0;
  Good.Out.Regs[1][2] = 0;
  Good.Out.Memory = {{"x", 1}, {"y", 1}};
  Good.Key = Good.Out.key();
  Good.Count = 1;

  RunBucket Bad = Good; // The mp relaxation: saw y=1 but x stale.
  Bad.Out.Regs[1][1] = 1;
  Bad.Key = Bad.Out.key();
  Bad.Count = 1;

  R.Histogram = {Good, Bad};
  judgeHistogram(Mp->Test, *modelByName("TSO"), R);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.ConditionObserved); // Bad matches the exists-clause.
  EXPECT_FALSE(R.ConditionAllowedByModel);
  EXPECT_EQ(R.OutsideModel, 1ull);
  EXPECT_FALSE(R.sound());

  // The same histogram judged under Power (which allows mp) is sound.
  RunTestResult Relaxed = R;
  judgeHistogram(Mp->Test, *modelByName("Power"), Relaxed);
  EXPECT_TRUE(Relaxed.ConditionAllowedByModel);
  EXPECT_EQ(Relaxed.OutsideModel, 0ull);
  EXPECT_TRUE(Relaxed.sound());
  EXPECT_EQ(Relaxed.OutsideSc, 1ull); // Still a relaxation beyond SC.
}

TEST(Verdict, OutcomeOutsideEnumerationIsACodegenBug) {
  const CatalogEntry *Mp = catalogEntry("mp");
  RunTestResult R;
  R.Iterations = 1;
  RunBucket Phantom; // A value no candidate execution can produce.
  Phantom.Out.Regs.resize(2);
  Phantom.Out.Regs[1][1] = 99;
  Phantom.Out.Regs[1][2] = 0;
  Phantom.Out.Regs[1][3] = 0;
  Phantom.Out.Memory = {{"x", 1}, {"y", 1}};
  Phantom.Key = Phantom.Out.key();
  Phantom.Count = 1;
  R.Histogram = {Phantom};
  judgeHistogram(Mp->Test, *modelByName("Power"), R);
  EXPECT_EQ(R.OutsideEnumeration, 1ull);
  // Disjoint counters: the phantom execution counts once, not also as
  // model-forbidden (allowed outcomes are a subset of consistent ones).
  EXPECT_EQ(R.OutsideModel, 0ull);
  EXPECT_EQ(R.OutsideSc, 0ull);
  EXPECT_FALSE(R.sound());
}

TEST(Verdict, JudgingFromASweptSimulationMatchesFreshJudging) {
  // The cats_mine --run path judges from the sweep's already-computed
  // simulation; both paths must agree bucket for bucket.
  const CatalogEntry *Sb = catalogEntry("sb");
  ASSERT_NE(Sb, nullptr);
  RunOptions Opts;
  Opts.Iterations = 5000;
  RunEngine Engine(Opts);
  const Model *Tso = modelByName("TSO");
  MultiSimulationResult Sim =
      simulateAll(Sb->Test, {Tso, modelByName("SC")});
  RunTestResult Fresh = Engine.runTest(Sb->Test, *Tso);
  RunTestResult Memoed = Engine.runTest(
      Sb->Test, *Tso,
      [&Sim](const std::string &) { return &Sim; });
  ASSERT_TRUE(Fresh.Error.empty()) << Fresh.Error;
  ASSERT_TRUE(Memoed.Error.empty()) << Memoed.Error;
  EXPECT_EQ(Fresh.ConditionAllowedByModel, Memoed.ConditionAllowedByModel);
  EXPECT_EQ(Fresh.ConditionAllowedBySc, Memoed.ConditionAllowedBySc);
  EXPECT_EQ(Fresh.OutsideModel, 0ull);
  EXPECT_EQ(Memoed.OutsideModel, 0ull);
  // A memo lacking the needed models falls back to fresh judging.
  MultiSimulationResult PowerOnly =
      simulateAll(Sb->Test, {modelByName("Power")});
  RunTestResult Fallback = Engine.runTest(
      Sb->Test, *Tso,
      [&PowerOnly](const std::string &) { return &PowerOnly; });
  EXPECT_EQ(Fallback.ModelName, "TSO");
  EXPECT_TRUE(Fallback.sound());
}

TEST(Verdict, AttachEmpiricalFillsTheFamilyColumn) {
  // Sweep mp variants so the mine report has an mp family, then attach a
  // fake run report and check the empirical column.
  std::vector<LitmusTest> Tests{catalogEntry("mp")->Test,
                                catalogEntry("mp+lwsync+addr")->Test};
  SweepEngine Engine(SweepOptions{1});
  SweepReport Swept =
      Engine.run(makeJobs(Tests, {modelByName("TSO")}));
  MineReport Mined = mineSweepReport(Swept);
  ASSERT_NE(Mined.family("mp"), nullptr);

  RunReport Run;
  Run.ModelName = "TSO";
  Run.Host = "x86_64";
  RunTestResult A;
  A.TestName = "mp";
  A.Iterations = 1000;
  A.ConditionObserved = false;
  RunTestResult B;
  B.TestName = "mp+lwsync+addr";
  B.Iterations = 1000;
  B.ConditionObserved = true;
  Run.Tests = {A, B};

  attachEmpirical(Mined, Run);
  EXPECT_TRUE(Mined.HasEmpirical);
  EXPECT_EQ(Mined.EmpiricalModel, "TSO");
  const FamilyVerdicts *F = Mined.family("mp");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->HasEmpirical);
  EXPECT_EQ(F->Empirical.Tests, 2u);
  EXPECT_EQ(F->Empirical.Observed, 1u);
  EXPECT_EQ(F->Empirical.Iterations, 2000ull);
  EXPECT_EQ(F->Empirical.OutsideModel, 0ull);

  // The JSON rendering carries the column.
  JsonValue Json = mineReportToJson(Mined);
  const JsonValue *Corpus = Json.get("corpus");
  ASSERT_NE(Corpus, nullptr);
  EXPECT_EQ(Corpus->get("empirical_model")->asString(), "TSO");
  bool FoundEmpirical = false;
  for (const JsonValue &Family : Corpus->get("families")->elements())
    if (Family.get("family")->asString() == "mp") {
      ASSERT_NE(Family.get("empirical"), nullptr);
      EXPECT_EQ(Family.get("empirical")->get("observed")->asNumber(), 1);
      FoundEmpirical = true;
    }
  EXPECT_TRUE(FoundEmpirical);
}

TEST(Verdict, HostReferenceModelMatchesHost) {
  const Model &M = hostReferenceModel();
#if defined(__x86_64__)
  EXPECT_EQ(M.name(), "TSO");
  EXPECT_STREQ(hostArchName(), "x86_64");
#else
  EXPECT_FALSE(M.name().empty());
#endif
}
