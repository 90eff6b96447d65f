//===- differential.cpp - Naive vs pruned backend equivalence ----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential harness behind the incremental enumerator
/// (src/herd/Enumerator.cpp, docs/enumeration.md). The pruned backend is
/// the default judging engine of the whole sweep path, so its safety is
/// not argued — it is pinned: every litmus test of the paper catalogue and
/// generated diy corpora (the size-6 Power slice and internal-com slices
/// that actually exercise the po-loc pruning) run through both backends
/// under all nine registry models, and the MultiSimulationResults must be
/// byte-identical — candidate totals, consistent counts,
/// consistent/allowed outcome sets, per-model allowed counts and
/// verdicts. The naive backend is the oracle.
///
//===----------------------------------------------------------------------===//

#include "diy/Enumerate.h"
#include "herd/Enumerator.h"
#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "model/Registry.h"
#include "obs/FlightRecorder.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace cats;

namespace {

/// Renders an outcome table as its keys, for readable mismatch output.
std::vector<std::string> keysOf(const OutcomeTable &Table) {
  std::vector<std::string> Keys;
  Keys.reserve(Table.size());
  for (size_t I = 0; I < Table.size(); ++I)
    Keys.emplace_back(Table.key(I));
  return Keys;
}

/// Renders \p R's allowed states as keys, resolved against \p Table (never
/// compare raw indices across two results: each indexes its own table).
std::vector<std::string> keysOf(const SimulationResult &R,
                                const OutcomeTable &Table) {
  std::vector<std::string> Keys;
  Keys.reserve(R.AllowedOutcomes.size());
  for (uint32_t Idx : R.AllowedOutcomes) {
    EXPECT_LT(Idx, Table.size()) << R.TestName << " " << R.ModelName;
    if (Idx < Table.size())
      Keys.emplace_back(Table.key(Idx));
  }
  return Keys;
}

/// Full equality of two multi-model results (the Naive vs Pruned
/// contract: every shared and per-model field, including the counts).
void expectIdentical(const MultiSimulationResult &A,
                     const MultiSimulationResult &B, const std::string &What) {
  EXPECT_EQ(A.TestName, B.TestName) << What;
  EXPECT_EQ(A.CandidatesTotal, B.CandidatesTotal) << What;
  EXPECT_EQ(A.CandidatesConsistent, B.CandidatesConsistent) << What;
  EXPECT_EQ(keysOf(A.ConsistentOutcomes), keysOf(B.ConsistentOutcomes))
      << What;
  EXPECT_TRUE(A.ConsistentOutcomes == B.ConsistentOutcomes) << What;
  ASSERT_EQ(A.PerModel.size(), B.PerModel.size()) << What;
  for (size_t I = 0; I < A.PerModel.size(); ++I) {
    const SimulationResult &MA = A.PerModel[I];
    const SimulationResult &MB = B.PerModel[I];
    const std::string Where = What + " [" + MA.ModelName + "]";
    EXPECT_EQ(MA.ModelName, MB.ModelName) << Where;
    EXPECT_EQ(MA.CandidatesAllowed, MB.CandidatesAllowed) << Where;
    EXPECT_EQ(keysOf(MA, A.ConsistentOutcomes),
              keysOf(MB, B.ConsistentOutcomes))
        << Where;
    EXPECT_EQ(MA.ConditionReachable, MB.ConditionReachable) << Where;
  }
}

/// On a cross-check failure, freezes the evidence: a witness-mode rerun
/// of the test dumps its verdict explanations (and the prune cut, if one
/// fired) into the flight-recorder directory, so the mismatch is
/// debuggable after CI tore the workspace down.
void flightRecordMismatch(const LitmusTest &Test,
                          const CompiledTest &Compiled,
                          const std::string &What) {
  SimulateOptions Opts;
  Opts.Backend = JudgeBackend::Pruned;
  Opts.Witness = true;
  MultiSimulationResult Explained =
      simulateAll(Compiled, allModels(), Opts);
  obs::FlightRecorder Recorder;
  auto Saved = Recorder.record("backend-mismatch-" + Test.Name,
                               Test.toString(),
                               "backend cross-check mismatch: " + What + "\n",
                               Explained.Witnesses);
  if (Saved && !Saved->empty())
    std::fprintf(stderr, "flight recorder: dumped %s\n", Saved->c_str());
}

/// Runs one test through both backends under every registry model and
/// checks their equality plus the closed-form candidate count.
void differentialCheck(const LitmusTest &Test) {
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled))
      << Test.Name << ": " << Compiled.message();
  const std::vector<const Model *> &Models = allModels();
  MultiSimulationResult Naive =
      simulateAll(*Compiled, Models, JudgeBackend::Naive);
  MultiSimulationResult Pruned =
      simulateAll(*Compiled, Models, JudgeBackend::Pruned);
  const bool FailedBefore = ::testing::Test::HasNonfatalFailure();
  expectIdentical(Naive, Pruned, Test.Name + " naive-vs-pruned");
  EXPECT_EQ(Naive.CandidatesTotal, Compiled->candidateCount()) << Test.Name;
  EXPECT_EQ(Pruned.CandidatesTotal, Compiled->candidateCount()) << Test.Name;
  if (!FailedBefore && ::testing::Test::HasNonfatalFailure())
    flightRecordMismatch(Test, *Compiled, Test.Name);
}

/// Pulls up to \p Cap tests from a diy slice, skipping candidate spaces
/// too large for a two-backend unit-test pass.
std::vector<LitmusTest> diySlice(const EnumerateOptions &Opts, unsigned Cap,
                                 unsigned long long MaxCandidates = 20000) {
  auto Source = makeDiyTestSource(Opts);
  EXPECT_TRUE(static_cast<bool>(Source)) << Source.message();
  std::vector<LitmusTest> Tests;
  if (!Source)
    return Tests;
  TestSource Drain = inlineSource(Source.take());
  LitmusTest Test;
  while (Tests.size() < Cap && Drain(Test)) {
    auto Compiled = CompiledTest::compile(Test);
    if (Compiled && Compiled->candidateCount() <= MaxCandidates)
      Tests.push_back(Test);
  }
  return Tests;
}

} // namespace

TEST(Differential, NineModels) {
  // The equivalence claims below quantify over "all nine models"; pin the
  // registry so a model added later joins the harness automatically.
  EXPECT_EQ(allModels().size(), 9u);
}

TEST(Differential, BackendNames) {
  JudgeBackend B = JudgeBackend::Naive;
  EXPECT_TRUE(parseJudgeBackend("pruned", B));
  EXPECT_EQ(B, JudgeBackend::Pruned);
  EXPECT_TRUE(parseJudgeBackend("naive", B));
  EXPECT_EQ(B, JudgeBackend::Naive);
  EXPECT_FALSE(parseJudgeBackend("bmc", B));
  EXPECT_FALSE(parseJudgeBackend("exhaustive", B));
}

/// Every figure of the paper, both backends, all nine models.
class DifferentialCatalog : public ::testing::TestWithParam<size_t> {};

TEST_P(DifferentialCatalog, BackendsAgree) {
  differentialCheck(figureCatalog()[GetParam()].Test);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, DifferentialCatalog,
    ::testing::Range<size_t>(0, figureCatalog().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = figureCatalog()[Info.param].Test.Name;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

/// The acceptance corpus: a size-6 Power diy slice (six-event critical
/// cycles with dependencies and fences). Basic critical cycles have empty
/// po-loc, so this leg mostly exercises the incremental search and
/// closed-form outcome assembly rather than the cycle cut.
TEST(Differential, DiySize6Power) {
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MinEdges = 6;
  Opts.MaxEdges = 6;
  Opts.Limit = 200;
  std::vector<LitmusTest> Tests = diySlice(Opts, 200);
  ASSERT_GE(Tests.size(), 100u);
  for (const LitmusTest &Test : Tests)
    differentialCheck(Test);
}

/// Internal-communication slice (rfi/fri/wsi detours): these cycles put
/// several same-location accesses on one thread, so po-loc is non-empty
/// and the partial-assignment cut actually fires. The test additionally
/// asserts that it fires — a slice where PartialCuts stayed zero would
/// leave the pruning leg of the harness vacuous.
TEST(Differential, DiyInternalComPower) {
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MinEdges = 4;
  Opts.MaxEdges = 5;
  Opts.InternalCom = true;
  Opts.Limit = 150;
  std::vector<LitmusTest> Tests = diySlice(Opts, 150);
  ASSERT_GE(Tests.size(), 50u);
  unsigned long long TotalCuts = 0, TotalPruned = 0;
  for (const LitmusTest &Test : Tests) {
    differentialCheck(Test);
    auto Compiled = CompiledTest::compile(Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    MultiModelChecker Checker(*Compiled, allModels());
    EnumerationStats Stats = enumerateIncremental(*Compiled, Checker);
    TotalCuts += Stats.PartialCuts;
    TotalPruned += Stats.PrunedCandidates;
  }
  EXPECT_GT(TotalCuts, 0u);
  EXPECT_GT(TotalPruned, 0u);
}

/// An ARM slice keeps the llh-flavoured models (ARM llh, RMO relaxations)
/// honest about the load-load-hazard carve-out in the pruning relation.
TEST(Differential, DiyInternalComArm) {
  EnumerateOptions Opts;
  Opts.Target = Arch::ARM;
  Opts.MinEdges = 4;
  Opts.MaxEdges = 5;
  Opts.InternalCom = true;
  Opts.Limit = 100;
  std::vector<LitmusTest> Tests = diySlice(Opts, 100);
  ASSERT_GE(Tests.size(), 30u);
  for (const LitmusTest &Test : Tests)
    differentialCheck(Test);
}

/// The sweep engine threads the backend through verbatim: a catalogue
/// sweep under each backend produces the same per-test reports (modulo
/// wall times).
TEST(Differential, SweepEngineBackends) {
  std::vector<LitmusTest> Tests;
  for (const CatalogEntry &Entry : figureCatalog())
    Tests.push_back(Entry.Test);
  const std::vector<const Model *> &Models = allModels();
  std::vector<SweepJob> Jobs = makeJobs(Tests, Models);

  SweepOptions NaiveOpts;
  NaiveOpts.Jobs = 2;
  NaiveOpts.Backend = JudgeBackend::Naive;
  SweepReport Naive = SweepEngine(NaiveOpts).run(Jobs);

  SweepOptions PrunedOpts;
  PrunedOpts.Jobs = 2;
  PrunedOpts.Backend = JudgeBackend::Pruned;
  SweepReport Pruned = SweepEngine(PrunedOpts).run(Jobs);

  ASSERT_TRUE(Naive.allOk());
  ASSERT_TRUE(Pruned.allOk());
  ASSERT_EQ(Naive.Tests.size(), Pruned.Tests.size());
  for (size_t I = 0; I < Naive.Tests.size(); ++I)
    expectIdentical(Naive.Tests[I].Result, Pruned.Tests[I].Result,
                    "sweep " + Naive.Tests[I].TestName);
}

/// The pruned backend's subtree cuts carry sound provenance: every
/// prune-cut witness captured over the catalogue names a real axiom of
/// the framework (always SC PER LOCATION — the partial po-loc | com
/// graph is exactly the Lemma 4.1 argument), draws its cycle from the
/// base-relation vocabulary, and closes it.
TEST(Differential, PruneCutWitnessesSound) {
  const std::set<std::string> AxiomNames = {
      axiomName(Axiom::ScPerLocation), axiomName(Axiom::NoThinAir),
      axiomName(Axiom::Observation), axiomName(Axiom::Propagation)};
  const std::set<std::string> CutEdgeLabels = {"rf", "po-loc", "co", "fr"};
  SimulateOptions Opts;
  Opts.Backend = JudgeBackend::Pruned;
  Opts.Witness = true;
  const std::vector<const Model *> &Models = allModels();
  size_t Cuts = 0;
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Entry.Test.Name;
    MultiSimulationResult Result = simulateAll(*Compiled, Models, Opts);
    for (const obs::Witness &W : Result.Witnesses) {
      if (W.Kind != obs::WitnessKind::PruneCut)
        continue;
      ++Cuts;
      EXPECT_EQ(W.Model, "*") << Entry.Test.Name;
      EXPECT_TRUE(AxiomNames.count(W.Axiom))
          << Entry.Test.Name << ": cut reason '" << W.Axiom
          << "' is not an axiom of the framework";
      EXPECT_EQ(W.Axiom, axiomName(Axiom::ScPerLocation)) << Entry.Test.Name;
      ASSERT_GE(W.Cycle.size(), 2u) << Entry.Test.Name;
      for (const LabeledEdge &E : W.Cycle)
        EXPECT_TRUE(CutEdgeLabels.count(E.Label))
            << Entry.Test.Name << ": edge label '" << E.Label << "'";
      // A closed walk: edges chain and return to the start.
      for (size_t I = 0; I + 1 < W.Cycle.size(); ++I)
        EXPECT_EQ(W.Cycle[I].To, W.Cycle[I + 1].From) << Entry.Test.Name;
      EXPECT_EQ(W.Cycle.back().To, W.Cycle.front().From) << Entry.Test.Name;
    }
  }
  // The coherence figures (coWW, coRW1, ...) make the po-loc pruning
  // fire, so the catalogue is a real corpus for this property.
  EXPECT_GT(Cuts, 0u);
}

//===----------------------------------------------------------------------===//
// Duplicated threads: hand-counted searches and thread renaming
//===----------------------------------------------------------------------===//

/// Two identical store-then-load threads on one location. Hand count: two
/// program writes w0/w1 plus init give each read 3 rf sources and the
/// writes 2 coherence orders — 18 raw candidates, all value-consistent (a
/// load's value is whatever it reads). SC PER LOCATION kills every
/// candidate where a read sees a write coherence-before its own thread's
/// po-earlier store (the coWR shape, reading init included): in each
/// coherence order the co-first writer's read may see either write and
/// the co-last writer's read only its own, so 2 survivors per order = 4
/// judged leaves, and the other 14 are discharged by partial cuts.
TEST(Differential, TwoIdenticalStoreLoadThreads) {
  LitmusTest Test;
  Test.Name = "dup-sl-sl";
  Test.TargetArch = Arch::Power;
  for (int T = 0; T < 2; ++T)
    Test.Threads.push_back({Instruction::store("x", Operand::imm(1)),
                            Instruction::load(1, "x")});
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.message();

  MultiModelChecker Checker(*Compiled, allModels());
  EnumerationStats Stats = enumerateIncremental(*Compiled, Checker);
  Checker.setEnumerationStats(Stats);
  MultiSimulationResult Pruned = Checker.take();
  EXPECT_EQ(Pruned.CandidatesTotal, 18u);
  EXPECT_EQ(Pruned.CandidatesConsistent, 18u);
  EXPECT_EQ(Stats.JudgedCandidates, 4u);
  EXPECT_EQ(Stats.PrunedCandidates, 14u);
  EXPECT_GT(Stats.PartialCuts, 0u);
  expectIdentical(simulateAll(*Compiled, allModels(), JudgeBackend::Naive),
                  Pruned, Test.Name);
}

/// Renaming identical threads is a no-op on the program text, so only the
/// final condition can tell them apart. Asking the same question of
/// thread 1 and of thread 2 of an identical pair must get the same answer
/// under every model.
TEST(Differential, ConditionInvariantUnderThreadRenaming) {
  LitmusTest Test;
  Test.Name = "dup-rename";
  Test.TargetArch = Arch::Power;
  Test.Threads.push_back({Instruction::store("x", Operand::imm(1)),
                          Instruction::load(1, "y")});
  Test.Threads.push_back({Instruction::store("y", Operand::imm(1)),
                          Instruction::load(1, "x")});
  // Threads 1 and 2 are the identical pair; thread 0 is their sibling.
  Test.Threads.push_back(Test.Threads[1]);

  LitmusTest OnT1 = Test;
  OnT1.Final.addConjunction({ConditionAtom::regEquals(1, 1, 0),
                             ConditionAtom::regEquals(0, 1, 1)});
  LitmusTest OnT2 = Test;
  OnT2.Final.addConjunction({ConditionAtom::regEquals(2, 1, 0),
                             ConditionAtom::regEquals(0, 1, 1)});

  MultiSimulationResult R1 = simulateAll(OnT1, allModels());
  MultiSimulationResult R2 = simulateAll(OnT2, allModels());
  ASSERT_EQ(R1.PerModel.size(), R2.PerModel.size());
  EXPECT_EQ(R1.CandidatesTotal, R2.CandidatesTotal);
  EXPECT_EQ(R1.CandidatesConsistent, R2.CandidatesConsistent);
  for (size_t I = 0; I < R1.PerModel.size(); ++I) {
    EXPECT_EQ(R1.PerModel[I].ConditionReachable,
              R2.PerModel[I].ConditionReachable)
        << R1.PerModel[I].ModelName;
    EXPECT_EQ(R1.PerModel[I].CandidatesAllowed,
              R2.PerModel[I].CandidatesAllowed)
        << R1.PerModel[I].ModelName;
  }
  expectIdentical(simulateAll(OnT1, allModels(), JudgeBackend::Naive), R1,
                  OnT1.Name + " on T1");
  expectIdentical(simulateAll(OnT2, allModels(), JudgeBackend::Naive), R2,
                  OnT2.Name + " on T2");
}

/// Same invariance at the message-passing scale with a fence: the
/// identical pair are two receivers, and the condition asks whether one
/// specific receiver can see the stale value.
TEST(Differential, TwoIdenticalReceiversPower) {
  LitmusTest Test;
  Test.Name = "dup-mp-2r";
  Test.TargetArch = Arch::Power;
  Test.Threads.push_back({Instruction::store("x", Operand::imm(1)),
                          Instruction::fenceNamed("sync"),
                          Instruction::store("y", Operand::imm(1))});
  ThreadCode Receiver = {Instruction::load(1, "y"),
                         Instruction::load(2, "x")};
  Test.Threads.push_back(Receiver);
  Test.Threads.push_back(Receiver);

  for (int Receiver : {1, 2}) {
    LitmusTest Q = Test;
    Q.Final.addConjunction({ConditionAtom::regEquals(Receiver, 1, 1),
                            ConditionAtom::regEquals(Receiver, 2, 0)});
    MultiSimulationResult Pruned = simulateAll(Q, allModels());
    expectIdentical(simulateAll(Q, allModels(), JudgeBackend::Naive), Pruned,
                    Q.Name + " receiver " + std::to_string(Receiver));
    // The receivers are unfenced, so Power allows the stale read while SC
    // forbids it, whichever receiver the condition names.
    EXPECT_TRUE(Pruned.forModel("Power")->ConditionReachable);
    EXPECT_FALSE(Pruned.forModel("SC")->ConditionReachable);
  }
}

namespace {

/// Every model's verdict, recomputed from its allowed keys through
/// Outcome::satisfies: the reference the enumerator's condition walk is
/// held to.
void expectVerdictsFollowKeys(const MultiSimulationResult &R,
                              const Condition &Final,
                              const std::string &What) {
  for (const SimulationResult &M : R.PerModel) {
    bool Reachable = false;
    for (uint32_t Idx : M.AllowedOutcomes) {
      auto O = outcomeFromKey(R.ConsistentOutcomes.key(Idx));
      ASSERT_TRUE(static_cast<bool>(O)) << O.message();
      Reachable |= O->satisfies(Final);
    }
    EXPECT_EQ(M.ConditionReachable, Reachable) << What << " " << M.ModelName;
  }
}

} // namespace

/// Condition atoms on state no outcome key lists — a register its thread
/// never writes, a thread past the last one, a location only the
/// condition names — read as 0 in both backends, exactly as
/// Outcome::reg and Outcome::mem answer them. Every register and location
/// the test does hold is nonzero in the relaxed outcome, so a lookup that
/// lands on real state instead of answering 0 changes a verdict.
TEST(Differential, ConditionAtomsOutsideTheStateReadZero) {
  LitmusTest Sb;
  Sb.Name = "sb-odd-atoms";
  Sb.TargetArch = Arch::TSO;
  Sb.Init = {{"x", 2}, {"y", 2}};
  Sb.Threads.push_back({Instruction::store("x", Operand::imm(1)),
                        Instruction::load(1, "y")});
  Sb.Threads.push_back({Instruction::store("y", Operand::imm(1)),
                        Instruction::load(1, "x")});
  const std::vector<ConditionAtom> Core = {ConditionAtom::regEquals(0, 1, 2),
                                           ConditionAtom::regEquals(1, 1, 2)};
  const std::vector<std::pair<std::string, ConditionAtom>> Odd = {
      {"unwritten register", ConditionAtom::regEquals(0, 7, 0)},
      {"thread past the last", ConditionAtom::regEquals(5, 1, 0)},
      {"untouched location", ConditionAtom::memEquals("z", 0)},
  };
  for (const auto &[What, Atom] : Odd)
    for (Value V : {0, 1}) {
      LitmusTest Test = Sb;
      ConditionAtom A = Atom;
      A.Val = V;
      std::vector<ConditionAtom> Conj = Core;
      Conj.push_back(A);
      Test.Final.addConjunction(Conj);
      // A second disjunct that never holds keeps the OR in play.
      Test.Final.addConjunction({ConditionAtom::regEquals(0, 1, 3)});
      const std::string Where = What + " = " + std::to_string(V);
      auto Compiled = CompiledTest::compile(Test);
      ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.message();
      MultiSimulationResult Naive =
          simulateAll(*Compiled, allModels(), JudgeBackend::Naive);
      MultiSimulationResult Pruned =
          simulateAll(*Compiled, allModels(), JudgeBackend::Pruned);
      expectIdentical(Naive, Pruned, Where);
      expectVerdictsFollowKeys(Pruned, Test.Final, Where);
      // The store-buffering relaxation: TSO allows it, SC does not, and an
      // atom expecting 1 where the state reads 0 forbids it everywhere.
      EXPECT_EQ(Pruned.forModel("TSO")->ConditionReachable, V == 0) << Where;
      EXPECT_FALSE(Pruned.forModel("SC")->ConditionReachable) << Where;
    }
}

/// Register numbers go up to r1000000 and index nothing: a test naming its
/// registers r999999 and r1000000 gets the verdicts and counts of its
/// r1/r2 twin, and keys that differ only in the register names.
TEST(Differential, HighRegisterNumbersMatchTheirLowTwin) {
  auto Mp = [](Register A, Register B) {
    LitmusTest Test;
    Test.Name = "mp-regs";
    Test.TargetArch = Arch::Power;
    Test.Threads.push_back({Instruction::store("x", Operand::imm(1)),
                            Instruction::store("y", Operand::imm(1))});
    Test.Threads.push_back({Instruction::load(A, "y"),
                            Instruction::load(B, "x")});
    Test.Final.addConjunction({ConditionAtom::regEquals(1, A, 1),
                               ConditionAtom::regEquals(1, B, 0)});
    return Test;
  };
  auto Rename = [](std::string Key) {
    for (auto [From, To] : {std::pair<std::string, std::string>{
                                ":r1=", ":r999999="},
                            {":r2=", ":r1000000="}}) {
      const size_t At = Key.find(From);
      if (At != std::string::npos)
        Key.replace(At, From.size(), To);
    }
    return Key;
  };
  const LitmusTest Low = Mp(1, 2), High = Mp(999999, 1000000);
  for (JudgeBackend Backend : {JudgeBackend::Naive, JudgeBackend::Pruned}) {
    MultiSimulationResult L = simulateAll(Low, allModels(), Backend);
    MultiSimulationResult H = simulateAll(High, allModels(), Backend);
    std::vector<std::string> Renamed = keysOf(L.ConsistentOutcomes);
    for (std::string &Key : Renamed)
      Key = Rename(Key);
    EXPECT_EQ(Renamed, keysOf(H.ConsistentOutcomes));
    EXPECT_EQ(L.CandidatesTotal, H.CandidatesTotal);
    EXPECT_EQ(L.CandidatesConsistent, H.CandidatesConsistent);
    ASSERT_EQ(L.PerModel.size(), H.PerModel.size());
    for (size_t I = 0; I < L.PerModel.size(); ++I) {
      EXPECT_EQ(L.PerModel[I].ConditionReachable,
                H.PerModel[I].ConditionReachable)
          << L.PerModel[I].ModelName;
      EXPECT_EQ(L.PerModel[I].CandidatesAllowed,
                H.PerModel[I].CandidatesAllowed)
          << L.PerModel[I].ModelName;
      EXPECT_EQ(L.PerModel[I].AllowedOutcomes, H.PerModel[I].AllowedOutcomes)
          << L.PerModel[I].ModelName;
    }
    EXPECT_TRUE(H.forModel("Power")->ConditionReachable);
    EXPECT_FALSE(H.forModel("SC")->ConditionReachable);
  }
}
