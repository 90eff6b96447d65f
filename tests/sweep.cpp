//===- sweep.cpp - The parallel shared-enumeration sweep engine ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the sweep subsystem: the shared-enumeration multi-model path must
/// agree exactly with a naive per-model reference on the whole catalogue,
/// results must be byte-identical for any worker count, and the JSON
/// report must round-trip through its own parser.
///
//===----------------------------------------------------------------------===//

#include "campaign/Merge.h"
#include "diy/Enumerate.h"
#include "litmus/Catalog.h"
#include "litmus/Compiler.h"
#include "litmus/Parser.h"
#include "model/Registry.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

using namespace cats;

namespace {

/// What the reference below computes: the SimulationResult fields, with
/// plain outcome sets instead of a table and indices.
struct NaiveResult {
  std::string TestName;
  std::string ModelName;
  unsigned long long CandidatesTotal = 0;
  unsigned long long CandidatesConsistent = 0;
  unsigned long long CandidatesAllowed = 0;
  std::set<Outcome> AllowedOutcomes;
  std::set<Outcome> ConsistentOutcomes;
  bool ConditionReachable = false;
};

/// The legacy per-model algorithm, re-implemented here as an independent
/// reference: one full candidate enumeration per model, exactly what
/// simulate() did before the shared MultiModelChecker path existed.
NaiveResult naiveSimulate(const CompiledTest &Compiled, const Model &M) {
  NaiveResult Result;
  Result.TestName = Compiled.test().Name;
  Result.ModelName = M.name();
  const Condition &Final = Compiled.test().Final;
  forEachCandidate(Compiled, [&](const Candidate &Cand) {
    ++Result.CandidatesTotal;
    if (!Cand.Consistent)
      return true;
    ++Result.CandidatesConsistent;
    Result.ConsistentOutcomes.insert(Cand.Out);
    if (!M.allows(Cand.Exe))
      return true;
    ++Result.CandidatesAllowed;
    Result.AllowedOutcomes.insert(Cand.Out);
    if (Cand.Out.satisfies(Final))
      Result.ConditionReachable = true;
    return true;
  });
  return Result;
}

/// The keys of an outcome set, in its order.
std::vector<std::string> keysOf(const std::set<Outcome> &Os) {
  std::vector<std::string> Keys;
  for (const Outcome &O : Os)
    Keys.push_back(O.key());
  return Keys;
}

/// The keys of an outcome table, in its order.
std::vector<std::string> keysOf(const OutcomeTable &Table) {
  std::vector<std::string> Keys;
  for (size_t I = 0; I < Table.size(); ++I)
    Keys.emplace_back(Table.key(I));
  return Keys;
}

/// The keys of \p R's allowed states, resolved against \p Table.
std::vector<std::string> allowedKeys(const SimulationResult &R,
                                     const OutcomeTable &Table) {
  std::vector<std::string> Keys;
  for (uint32_t Idx : R.AllowedOutcomes) {
    EXPECT_LT(Idx, Table.size()) << R.TestName << " " << R.ModelName;
    if (Idx < Table.size())
      Keys.emplace_back(Table.key(Idx));
  }
  return Keys;
}

/// Compares the reference \p A with \p B, whose allowed indices point into
/// \p Table.
void expectSameResult(const NaiveResult &A, const SimulationResult &B,
                      const OutcomeTable &Table,
                      const std::string &Context) {
  EXPECT_EQ(A.TestName, B.TestName) << Context;
  EXPECT_EQ(A.ModelName, B.ModelName) << Context;
  EXPECT_EQ(A.CandidatesTotal, B.CandidatesTotal) << Context;
  EXPECT_EQ(A.CandidatesConsistent, B.CandidatesConsistent) << Context;
  EXPECT_EQ(A.CandidatesAllowed, B.CandidatesAllowed) << Context;
  EXPECT_EQ(keysOf(A.AllowedOutcomes), allowedKeys(B, Table)) << Context;
  EXPECT_EQ(keysOf(A.ConsistentOutcomes), keysOf(Table)) << Context;
  EXPECT_EQ(A.ConditionReachable, B.ConditionReachable) << Context;
}

std::vector<LitmusTest> catalogueTests() {
  std::vector<LitmusTest> Out;
  for (const CatalogEntry &Entry : figureCatalog())
    Out.push_back(Entry.Test);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared enumeration vs the legacy per-model reference
//===----------------------------------------------------------------------===//

TEST(MultiModel, MatchesNaivePerModelOnFullCatalogue) {
  const auto &Models = allModels();
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Entry.Test.Name;
    MultiSimulationResult Multi = simulateAll(*Compiled, Models);
    ASSERT_EQ(Multi.PerModel.size(), Models.size());
    for (size_t I = 0; I < Models.size(); ++I)
      expectSameResult(naiveSimulate(*Compiled, *Models[I]), Multi.PerModel[I],
                       Multi.ConsistentOutcomes,
                       Entry.Test.Name + " under " + Models[I]->name());
  }
}

TEST(MultiModel, SingleModelSimulateStillMatchesReference) {
  const Model &Power = *modelByName("Power");
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Entry.Test.Name;
    // The detached result carries the table its indices point into.
    SimulationResult R = simulate(*Compiled, Power);
    expectSameResult(naiveSimulate(*Compiled, Power), R, R.ConsistentOutcomes,
                     Entry.Test.Name);
  }
}

TEST(MultiModel, SharedFieldsComputedOnceAndMirrored) {
  const CatalogEntry *Entry = catalogEntry("mp");
  ASSERT_NE(Entry, nullptr);
  MultiSimulationResult Multi = simulateAll(Entry->Test, allModels());
  for (const SimulationResult &R : Multi.PerModel) {
    EXPECT_EQ(R.CandidatesTotal, Multi.CandidatesTotal);
    EXPECT_EQ(R.CandidatesConsistent, Multi.CandidatesConsistent);
    // The outcome table is held once, not mirrored into every entry.
    EXPECT_TRUE(R.ConsistentOutcomes.empty());
  }
  EXPECT_FALSE(Multi.ConsistentOutcomes.empty());
}

namespace {

/// Tests of a diy slice (Power, \p Edges edges), for checks that should
/// reach past the catalogue.
std::vector<LitmusTest> diySlice(unsigned Edges, unsigned Cap) {
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MinEdges = Edges;
  Opts.MaxEdges = Edges;
  Opts.Limit = Cap;
  auto Source = makeDiyTestSource(Opts);
  EXPECT_TRUE(static_cast<bool>(Source)) << Source.message();
  std::vector<LitmusTest> Tests;
  LitmusTest Test;
  while (Source && Tests.size() < Cap && (*Source)(Test))
    Tests.push_back(Test);
  return Tests;
}

} // namespace

// The representation itself: the table is strictly key-ascending, every
// model's indices are strictly ascending and in range, and the verdict is
// "some indexed outcome satisfies the condition" — under both backends.
TEST(MultiModel, AllowedIndicesResolveIntoTable) {
  std::vector<LitmusTest> Tests = catalogueTests();
  std::vector<LitmusTest> Diy = diySlice(5, 60);
  ASSERT_GE(Diy.size(), 20u);
  Tests.insert(Tests.end(), Diy.begin(), Diy.end());
  for (const LitmusTest &Test : Tests) {
    auto Compiled = CompiledTest::compile(Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Test.Name;
    for (JudgeBackend Backend : {JudgeBackend::Naive, JudgeBackend::Pruned}) {
      MultiSimulationResult Multi =
          simulateAll(*Compiled, allModels(), Backend);
      const OutcomeTable &Table = Multi.ConsistentOutcomes;
      EXPECT_FALSE(Table.empty()) << Test.Name;
      for (size_t I = 1; I < Table.size(); ++I)
        EXPECT_LT(Table.key(I - 1), Table.key(I)) << Test.Name;
      for (const SimulationResult &R : Multi.PerModel) {
        bool Satisfied = false;
        for (size_t J = 0; J < R.AllowedOutcomes.size(); ++J) {
          const uint32_t Idx = R.AllowedOutcomes[J];
          ASSERT_LT(Idx, Table.size()) << Test.Name << " " << R.ModelName;
          if (J) {
            EXPECT_LT(R.AllowedOutcomes[J - 1], Idx)
                << Test.Name << " " << R.ModelName;
          }
          Satisfied |=
              outcomeFromKey(Table.key(Idx))->satisfies(Test.Final);
        }
        EXPECT_EQ(R.ConditionReachable, Satisfied)
            << Test.Name << " " << R.ModelName;
      }
    }
  }
}

// Wider model lists than one 64-bit word of allowed bits: 72 entries (the
// nine registry models eight times over) must each equal their nine-model
// counterpart, under both backends.
TEST(MultiModel, MoreThan64ModelEntries) {
  const std::vector<const Model *> &Nine = allModels();
  std::vector<const Model *> Wide;
  for (int Copy = 0; Copy < 8; ++Copy)
    Wide.insert(Wide.end(), Nine.begin(), Nine.end());
  ASSERT_EQ(Wide.size(), 72u);
  for (const LitmusTest &Test : catalogueTests()) {
    auto Compiled = CompiledTest::compile(Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Test.Name;
    for (JudgeBackend Backend : {JudgeBackend::Naive, JudgeBackend::Pruned}) {
      MultiSimulationResult Ref = simulateAll(*Compiled, Nine, Backend);
      MultiSimulationResult Multi = simulateAll(*Compiled, Wide, Backend);
      ASSERT_EQ(Multi.PerModel.size(), Wide.size());
      EXPECT_EQ(keysOf(Multi.ConsistentOutcomes),
                keysOf(Ref.ConsistentOutcomes))
          << Test.Name;
      for (size_t I = 0; I < Wide.size(); ++I) {
        const SimulationResult &A = Multi.PerModel[I];
        const SimulationResult &B = Ref.PerModel[I % Nine.size()];
        const std::string Where =
            Test.Name + " entry " + std::to_string(I) + " " + A.ModelName;
        EXPECT_EQ(A.ModelName, B.ModelName) << Where;
        EXPECT_EQ(A.ConditionReachable, B.ConditionReachable) << Where;
        EXPECT_EQ(A.CandidatesAllowed, B.CandidatesAllowed) << Where;
        EXPECT_EQ(A.CandidatesTotal, B.CandidatesTotal) << Where;
        EXPECT_EQ(A.CandidatesConsistent, B.CandidatesConsistent) << Where;
        EXPECT_EQ(allowedKeys(A, Multi.ConsistentOutcomes),
                  allowedKeys(B, Ref.ConsistentOutcomes))
            << Where;
      }
    }
  }
}

TEST(OutcomeTable, EmptyTable) {
  OutcomeTable Table;
  EXPECT_TRUE(Table.empty());
  EXPECT_EQ(Table.size(), 0u);
  EXPECT_TRUE(Table == OutcomeTable());
}

TEST(OutcomeTable, PushAndKeyRoundTrip) {
  // The empty key is a legal row: the state of a test that observes no
  // register and no location.
  const std::vector<std::string> Keys = {"", "0:r1=1;x=1;", "", "y=-2;"};
  OutcomeTable Table;
  Table.reserve(Keys.size(), 16);
  for (const std::string &Key : Keys)
    Table.push(Key);
  ASSERT_EQ(Table.size(), Keys.size());
  EXPECT_FALSE(Table.empty());
  for (size_t I = 0; I < Keys.size(); ++I)
    EXPECT_EQ(Table.key(I), Keys[I]) << I;
}

TEST(OutcomeTable, EqualityComparesRowsNotBytes) {
  auto Of = [](std::initializer_list<const char *> Keys) {
    OutcomeTable Table;
    for (const char *Key : Keys)
      Table.push(Key);
    return Table;
  };
  EXPECT_TRUE(Of({"x=1;", "x=2;"}) == Of({"x=1;", "x=2;"}));
  EXPECT_TRUE(Of({"x=1;", "x=2;"}) != Of({"x=1;", "x=3;"}));
  EXPECT_TRUE(Of({"x=1;", "x=2;"}) != Of({"x=1;"}));
  // Same bytes, different rows.
  EXPECT_TRUE(Of({"x=1;", "x=2;"}) != Of({"x=1;x", "=2;"}));
  EXPECT_TRUE(Of({""}) != Of({}));
}

TEST(MultiModel, ForModelLookup) {
  const CatalogEntry *Entry = catalogEntry("sb");
  ASSERT_NE(Entry, nullptr);
  MultiSimulationResult Multi =
      simulateAll(Entry->Test, {modelByName("SC"), modelByName("TSO")});
  ASSERT_NE(Multi.forModel("TSO"), nullptr);
  EXPECT_EQ(Multi.forModel("TSO")->ModelName, "TSO");
  // sb is the classic TSO/SC separator: store buffering is visible on TSO.
  EXPECT_FALSE(Multi.forModel("SC")->ConditionReachable);
  EXPECT_TRUE(Multi.forModel("TSO")->ConditionReachable);
  EXPECT_EQ(Multi.forModel("Power"), nullptr);
}

//===----------------------------------------------------------------------===//
// Engine: determinism and error handling
//===----------------------------------------------------------------------===//

namespace {

/// Everything observable about a report except wall-clock times.
std::string reportSignature(const SweepReport &Report) {
  // Zero the timing fields so the JSON rendering is comparable across
  // runs and worker counts.
  SweepReport Scrubbed = Report;
  Scrubbed.WallSeconds = 0;
  Scrubbed.Jobs = 1;
  for (SweepTestResult &T : Scrubbed.Tests)
    T.WallSeconds = 0;
  return sweepReportToJson(Scrubbed).dump();
}

/// A single-pass source over \p Tests.
TestSource vectorSource(const std::vector<LitmusTest> &Tests) {
  auto Next = std::make_shared<size_t>(0);
  return [&Tests, Next](LitmusTest &Out) {
    if (*Next == Tests.size())
      return false;
    Out = Tests[(*Next)++];
    return true;
  };
}

/// Cache hooks whose lookup hits every third test, answering with
/// \p Hits' entry at the test's position; \p Calls counts lookups.
StreamHooks everyThirdHits(const std::vector<SweepTestResult> &Hits,
                           size_t &Calls) {
  StreamHooks Hooks;
  Hooks.CacheLookup = [&Hits, &Calls](const LitmusTest &,
                                      SweepTestResult &Out) {
    const size_t Position = Calls++;
    if (Position % 3 != 2)
      return false;
    Out = Hits[Position];
    return true;
  };
  Hooks.CacheStore = [](const LitmusTest &, const SweepTestResult &) {};
  return Hooks;
}

} // namespace

TEST(SweepEngine, DeterministicAcrossWorkerCounts) {
  const std::vector<LitmusTest> Tests = catalogueTests();
  const std::vector<SweepJob> Jobs = makeJobs(Tests, allModels());
  const SweepReport Reference = SweepEngine({1}).run(Jobs);
  // The streamed path with cache hooks, mixed hits and small batches.
  auto Streamed = [&](unsigned Workers) {
    size_t Calls = 0;
    return reportSignature(SweepEngine({Workers}).runStreamed(
        vectorSource(Tests), allModels(), 4,
        everyThirdHits(Reference.Tests, Calls)));
  };

  const std::string Baseline = reportSignature(Reference);
  const std::string StreamedBaseline = Streamed(1);
  for (unsigned N = 1; N <= 8; ++N) {
    EXPECT_EQ(reportSignature(SweepEngine({N}).run(Jobs)), Baseline)
        << "with " << N << " workers";
    EXPECT_EQ(Streamed(N), StreamedBaseline) << "with " << N << " workers";
  }
}

TEST(SweepEngine, HooksRunOnTheCallingThread) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(24);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const SweepReport Reference = SweepEngine({1}).run(makeJobs(Tests, Models));
  for (unsigned Workers : {1u, 4u}) {
    // Guarded, so a hook on a worker fails the test instead of racing.
    std::mutex Lock;
    std::map<std::string, std::set<std::thread::id>> Seen;
    auto Record = [&](const char *Hook) {
      std::lock_guard<std::mutex> L(Lock);
      Seen[Hook].insert(std::this_thread::get_id());
    };
    size_t Calls = 0;
    StreamHooks Hooks = everyThirdHits(Reference.Tests, Calls);
    TestSource Inner = vectorSource(Tests);
    TestSource Source = [&](LitmusTest &Out) {
      Record("source");
      return Inner(Out);
    };
    auto Lookup = Hooks.CacheLookup;
    Hooks.CacheLookup = [&, Lookup](const LitmusTest &T, SweepTestResult &R) {
      Record("lookup");
      return Lookup(T, R);
    };
    Hooks.CacheStore = [&](const LitmusTest &, const SweepTestResult &) {
      Record("store");
    };
    Hooks.OnBatch = [&](const SweepReport &) { Record("batch"); };
    SweepEngine(SweepOptions{Workers}).runStreamed(Source, Models, 4, Hooks);

    const std::set<std::thread::id> Caller = {std::this_thread::get_id()};
    for (const char *Hook : {"source", "lookup", "store", "batch"})
      EXPECT_EQ(Seen[Hook], Caller) << Hook << " at " << Workers << " workers";
  }
}

TEST(SweepEngine, OnBatchSeesTheInOrderFrontier) {
  // Two slow tests lead the source (15,000 candidates each, against a
  // few dozen for a catalogue test), so at 4 workers the tests behind
  // them are judged first.
  auto Slow = parseLitmus("Power slow\n{ }\n"
                          "P0:\n  st x, #1\n  st x, #2\n"
                          "P1:\n  st x, #3\n  st x, #4\n"
                          "P2:\n  ld r1, x\n  ld r2, x\n"
                          "P3:\n  ld r1, x\n  ld r2, x\n"
                          "exists (2:r1=1 /\\ 3:r1=3)\n");
  ASSERT_TRUE(static_cast<bool>(Slow)) << Slow.message();
  std::vector<LitmusTest> Tests = {*Slow, *Slow};
  Tests[1].Name = "slow2";
  for (const LitmusTest &T : catalogueTests())
    if (Tests.size() < 13)
      Tests.push_back(T);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const SweepReport Reference = SweepEngine({1}).run(makeJobs(Tests, Models));

  size_t Calls = 0;
  StreamHooks Hooks = everyThirdHits(Reference.Tests, Calls);
  std::vector<size_t> Frontiers;
  Hooks.OnBatch = [&](const SweepReport &SoFar) {
    Frontiers.push_back(SoFar.Tests.size());
    EXPECT_EQ(SoFar.CacheHits + SoFar.CacheMisses, SoFar.Tests.size());
    for (size_t I = 0; I < SoFar.Tests.size(); ++I) {
      EXPECT_EQ(SoFar.Tests[I].TestName, Tests[I].Name) << I;
      EXPECT_EQ(SoFar.Tests[I].Result.CandidatesTotal,
                Reference.Tests[I].Result.CandidatesTotal)
          << I;
    }
  };
  SweepEngine({4}).runStreamed(vectorSource(Tests), Models, 4, Hooks);
  EXPECT_EQ(Frontiers, (std::vector<size_t>{4, 8, 12, 13}));
}

TEST(SweepEngine, ResultsInSubmissionOrder) {
  std::vector<LitmusTest> Tests = catalogueTests();
  SweepReport Report =
      SweepEngine({4}).run(makeJobs(Tests, {modelByName("SC")}));
  ASSERT_EQ(Report.Tests.size(), Tests.size());
  for (size_t I = 0; I < Tests.size(); ++I)
    EXPECT_EQ(Report.Tests[I].TestName, Tests[I].Name);
}

TEST(SweepEngine, WorkerCountDefaultsToHardwareAndClamps) {
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  EXPECT_EQ(SweepEngine().workerCount(), Hw);
  EXPECT_EQ(SweepEngine({3}).workerCount(), std::min(3u, Hw));
  // CPU-bound sweeps never benefit from more workers than cores.
  EXPECT_EQ(SweepEngine({1000}).workerCount(), Hw);
}

TEST(SweepEngine, InvalidTestReportsErrorWithoutPoisoningTheBatch) {
  std::vector<LitmusTest> Tests = catalogueTests();
  // An x86 fence on a Power test fails validation.
  LitmusTest Bad = Tests.front();
  Bad.Name = "bad-fence";
  Bad.TargetArch = Arch::Power;
  Instruction Fence;
  Fence.Op = Opcode::Fence;
  Fence.FenceName = "mfence";
  Bad.Threads[0].push_back(Fence);
  Tests.insert(Tests.begin() + 1, Bad);

  SweepReport Report =
      SweepEngine({2}).run(makeJobs(Tests, {modelByName("Power")}));
  ASSERT_EQ(Report.Tests.size(), Tests.size());
  EXPECT_FALSE(Report.Tests[1].Error.empty());
  EXPECT_FALSE(Report.allOk());
  // Neighbours are unaffected.
  EXPECT_TRUE(Report.Tests[0].Error.empty());
  EXPECT_TRUE(Report.Tests[2].Error.empty());
  EXPECT_GT(Report.Tests[2].Result.CandidatesTotal, 0u);
}

//===----------------------------------------------------------------------===//
// JSON report schema round-trip
//===----------------------------------------------------------------------===//

TEST(SweepReportJson, SchemaRoundTrip) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(8);
  SweepReport Report = SweepEngine({2}).run(
      makeJobs(Tests, {modelByName("SC"), modelByName("Power")}));

  JsonValue Root = sweepReportToJson(Report);
  const std::string Text = Root.dump();
  auto Reparsed = JsonValue::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Reparsed)) << Reparsed.message();
  // Value-level round-trip, and byte-level through the report reader.
  EXPECT_EQ(*Reparsed, Root);
  auto Back = sweepReportFromJson(*Reparsed);
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  EXPECT_EQ(sweepReportToJson(*Back).dump(), Text);

  // The layout: the top level one member per line, then one line per
  // test record, in its compact rendering.
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 7 + Report.Tests.size());
  EXPECT_EQ(Lines[1], R"(  "schema": "cats-sweep-report/2",)");
  EXPECT_EQ(Lines[2], "  \"jobs\": " + std::to_string(Report.Jobs) + ",");
  EXPECT_EQ(Lines[4], R"(  "tests": [)");
  for (size_t I = 0; I < Report.Tests.size(); ++I)
    EXPECT_EQ(Lines[5 + I],
              "    " + sweepTestResultToJson(Report.Tests[I]).dump(0) +
                  (I + 1 < Report.Tests.size() ? "," : ""));
  EXPECT_EQ(Lines[5 + Report.Tests.size()], "  ]");

  // Schema spot checks against the in-memory report.
  EXPECT_EQ(Root.get("jobs")->asNumber(), Report.Jobs);
  const auto &TestsJson = Root.get("tests")->elements();
  ASSERT_EQ(TestsJson.size(), Report.Tests.size());
  for (size_t I = 0; I < TestsJson.size(); ++I) {
    const JsonValue &Entry = TestsJson[I];
    const SweepTestResult &T = Report.Tests[I];
    EXPECT_EQ(Entry.get("name")->asString(), T.TestName);
    EXPECT_EQ(Entry.get("candidates_total")->asNumber(),
              static_cast<double>(T.Result.CandidatesTotal));
    EXPECT_EQ(Entry.get("consistent_states")->elements().size(),
              T.Result.ConsistentOutcomes.size());
    const auto &ModelsJson = Entry.get("models")->elements();
    ASSERT_EQ(ModelsJson.size(), T.Result.PerModel.size());
    for (size_t J = 0; J < ModelsJson.size(); ++J) {
      const SimulationResult &R = T.Result.PerModel[J];
      EXPECT_EQ(ModelsJson[J].get("model")->asString(), R.ModelName);
      EXPECT_EQ(ModelsJson[J].get("verdict")->asString(), R.verdict());
      EXPECT_EQ(ModelsJson[J].get("allowed_states"), nullptr);
      std::vector<uint32_t> Allowed;
      for (const JsonValue &Idx : ModelsJson[J].get("allowed")->elements())
        Allowed.push_back(static_cast<uint32_t>(Idx.asNumber()));
      EXPECT_EQ(Allowed, R.AllowedOutcomes);
    }
  }
}

TEST(SweepReportJson, ErrorEntriesCarryTheMessage) {
  // An x86 fence on a Power test fails validation.
  LitmusTest Bad = figureCatalog().front().Test;
  Bad.Name = "bad-fence";
  Bad.TargetArch = Arch::Power;
  Instruction Fence;
  Fence.Op = Opcode::Fence;
  Fence.FenceName = "mfence";
  Bad.Threads[0].push_back(Fence);
  SweepReport Report =
      SweepEngine({1}).run(makeJobs({Bad}, {modelByName("SC")}));
  ASSERT_EQ(Report.Tests.size(), 1u);
  ASSERT_FALSE(Report.Tests[0].Error.empty());
  JsonValue Root = sweepReportToJson(Report);
  const JsonValue *Entry = &Root.get("tests")->elements()[0];
  ASSERT_NE(Entry->get("error"), nullptr);
  EXPECT_EQ(Entry->get("error")->asString(), Report.Tests[0].Error);
  EXPECT_EQ(Entry->get("models"), nullptr);
}

//===----------------------------------------------------------------------===//
// The JSON library itself
//===----------------------------------------------------------------------===//

TEST(Json, ScalarsAndNesting) {
  auto V = JsonValue::parse(
      R"({"a": [1, -2.5, true, false, null], "b": {"c": "x\ny\"z\\"}})");
  ASSERT_TRUE(static_cast<bool>(V)) << V.message();
  ASSERT_TRUE(V->isObject());
  const auto &A = V->get("a")->elements();
  ASSERT_EQ(A.size(), 5u);
  EXPECT_EQ(A[0].asNumber(), 1);
  EXPECT_EQ(A[1].asNumber(), -2.5);
  EXPECT_TRUE(A[2].asBool());
  EXPECT_FALSE(A[3].asBool());
  EXPECT_TRUE(A[4].isNull());
  EXPECT_EQ(V->get("b")->get("c")->asString(), "x\ny\"z\\");
}

TEST(Json, DumpParsesBackEqual) {
  JsonValue Root = JsonValue::object();
  Root.set("name", "sweep");
  Root.set("count", 42u);
  Root.set("ratio", 0.125);
  Root.set("big", 123456789012345ull);
  Root.set("flag", true);
  JsonValue Arr = JsonValue::array();
  Arr.push(JsonValue());
  Arr.push("tab\there");
  Root.set("list", std::move(Arr));
  Root.set("empty_obj", JsonValue::object());
  Root.set("empty_arr", JsonValue::array());

  for (unsigned Indent : {0u, 2u, 4u}) {
    auto Back = JsonValue::parse(Root.dump(Indent));
    ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
    EXPECT_EQ(*Back, Root) << "indent " << Indent;
  }
  // Integral numbers print without a decimal point.
  EXPECT_NE(Root.dump(0).find("\"count\":42"), std::string::npos);
}

TEST(Json, ObjectPreservesInsertionOrderAndReplaces) {
  JsonValue Obj = JsonValue::object();
  Obj.set("z", 1);
  Obj.set("a", 2);
  Obj.set("z", 3);
  ASSERT_EQ(Obj.members().size(), 2u);
  EXPECT_EQ(Obj.members()[0].first, "z");
  EXPECT_EQ(Obj.members()[0].second.asNumber(), 3);
  EXPECT_EQ(Obj.members()[1].first, "a");
  // The parser resolves a repeated key the same way.
  auto Parsed = JsonValue::parse(R"({"z": 1, "a": 2, "z": 3})");
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(*Parsed, Obj);
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("{\"a\": 1,}")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("[1, 2")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("\"unterminated")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("{\"a\" 1}")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("nul")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("1 2")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("\"bad \\q escape\"")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("[1e]")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("[1-2]")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("-")));
  // Errors carry an offset.
  auto E = JsonValue::parse("[1, 2");
  EXPECT_NE(E.message().find("offset"), std::string::npos);

  // Nesting is bounded: a deep document is an error at the first level
  // too deep, never a stack overflow.
  for (const std::string_view Open : {"[", "{\"a\":"}) {
    std::string Deep;
    for (int I = 0; I < 100000; ++I)
      Deep += Open;
    auto D = JsonValue::parse(Deep);
    ASSERT_FALSE(static_cast<bool>(D)) << Open;
    EXPECT_NE(D.message().find("nesting deeper than 256"), std::string::npos)
        << D.message();
    const std::string Offset =
        "offset " + std::to_string(JsonValue::MaxDepth * Open.size());
    EXPECT_NE(D.message().find(Offset), std::string::npos) << D.message();
  }
  const std::string Deepest = std::string(JsonValue::MaxDepth, '[') +
                              std::string(JsonValue::MaxDepth, ']');
  EXPECT_TRUE(static_cast<bool>(JsonValue::parse(Deepest)));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("[" + Deepest + "]")));
}

TEST(Json, NumbersParseLikeStrtod) {
  // Out-of-range literals round to infinity or zero rather than failing.
  auto Huge = JsonValue::parse("[1e999, -1e999, 1e-999, 4.9e-324, -0]");
  ASSERT_TRUE(static_cast<bool>(Huge)) << Huge.message();
  const auto &N = Huge->elements();
  EXPECT_TRUE(std::isinf(N[0].asNumber()) && N[0].asNumber() > 0);
  EXPECT_TRUE(std::isinf(N[1].asNumber()) && N[1].asNumber() < 0);
  EXPECT_EQ(N[2].asNumber(), 0);
  EXPECT_GT(N[3].asNumber(), 0);
  EXPECT_TRUE(std::signbit(N[4].asNumber()));
  EXPECT_EQ(N[4].dump(0), "-0");
}

namespace {

/// The fixtures in tests/fixtures were rendered by the printer this
/// library replaced; every byte of them is part of the report formats.
std::string readFixture(const std::string &Name) {
  std::ifstream In(std::string(CATS_FIXTURE_DIR) + "/" + Name,
                   std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The value pinned by json-scalars.json: the number formats' edges
/// (negative zero, the integer/%.17g switch at 1e15, 2^53, fractions),
/// every escape, control characters and raw non-ASCII bytes.
JsonValue fixtureScalars() {
  JsonValue S = JsonValue::object();
  S.set("negative_zero", -0.0);
  S.set("below_1e15", 1e15 - 1);
  S.set("1e15", 1e15);
  S.set("2^53", 9007199254740992.0);
  S.set("tenth", 0.1);
  S.set("1e-7", 1e-7);
  S.set("fifteen_digits", 123456789012345ull);
  S.set("negative", -42);
  S.set("huge", 1e300);
  S.set("escapes", "quote\" backslash\\ slash/ newline\n tab\t return\r "
                   "backspace\b formfeed\f");
  S.set("controls", std::string("nul\x01 unit\x1f del\x7f utf8\xc3\xa9"));
  S.set("key \"with\\ escapes\n", true);
  S.set("false", false);
  S.set("null", JsonValue());
  JsonValue Nested = JsonValue::array();
  Nested.push(JsonValue::array());
  Nested.push(JsonValue::object());
  Nested.push(-0.5);
  S.set("nested", std::move(Nested));
  return S;
}

/// A random value nested at most \p Depth deep: finite numbers of every
/// magnitude, strings of arbitrary bytes, repeated object keys.
JsonValue randomValue(std::mt19937_64 &Rng, unsigned Depth) {
  auto Pick = [&](unsigned N) { return static_cast<unsigned>(Rng() % N); };
  auto RandomString = [&] {
    std::string S(Pick(12), ' ');
    for (char &C : S)
      C = static_cast<char>(Pick(4) ? "\"\\/\n\tab\x01"[Pick(8)] : Rng());
    return S;
  };
  switch (Pick(Depth ? 7 : 5)) {
  case 0:
    return Pick(2) ? JsonValue() : JsonValue(Pick(2) == 1);
  case 1: {
    double D;
    do {
      const uint64_t Bits = Rng();
      std::memcpy(&D, &Bits, sizeof(D));
    } while (!std::isfinite(D));
    return D;
  }
  case 2:
    return static_cast<double>(static_cast<int64_t>(Rng()) >> Pick(64));
  case 3:
    return (Pick(2) ? -1.0 : 1.0) * Pick(1000) / 8;
  case 4:
    return RandomString();
  case 5: {
    JsonValue A = JsonValue::array();
    for (unsigned I = Pick(5); I; --I)
      A.push(randomValue(Rng, Depth - 1));
    return A;
  }
  default: {
    JsonValue O = JsonValue::object();
    for (unsigned I = Pick(5); I; --I)
      O.set(Pick(3) ? RandomString() : "k", randomValue(Rng, Depth - 1));
    return O;
  }
  }
}

} // namespace

TEST(Json, RendersTheCommittedFixturesByteForByte) {
  std::vector<LitmusTest> Tests;
  for (const CatalogEntry &Entry : figureCatalog())
    Tests.push_back(Entry.Test);
  const SweepReport Report = SweepEngine({1}).run(
      makeJobs(Tests, {modelByName("SC"), modelByName("Power")}));
  const std::pair<std::string, JsonValue> Cases[] = {
      {"catalogue-sc-power-2.json", zeroWallTimes(sweepReportToJson(Report))},
      {"json-scalars.json", fixtureScalars()}};
  for (const auto &[Name, Fresh] : Cases) {
    const std::string Pinned = readFixture(Name);
    ASSERT_FALSE(Pinned.empty()) << Name;
    EXPECT_EQ(Fresh.dump(), Pinned) << Name;
    auto Parsed = JsonValue::parse(Pinned);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Name << ": " << Parsed.message();
    EXPECT_EQ(*Parsed, Fresh) << Name;
  }
  // A parsed document carries no one-line mark, so documents rendered
  // without one reprint byte for byte: the /1 report the old printer
  // wrote, and the scalars.
  for (const char *Name : {"catalogue-sc-power.json", "json-scalars.json"}) {
    const std::string Pinned = readFixture(Name);
    auto Parsed = JsonValue::parse(Pinned);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Name << ": " << Parsed.message();
    EXPECT_EQ(Parsed->dump(), Pinned) << Name;
  }
}

TEST(SweepReportJson, ReadsTheCommittedV1Fixture) {
  // catalogue-sc-power.json is the catalogue under SC and Power as a /1
  // build wrote it; catalogue-sc-power-2.json is the same sweep in /2.
  // Both read to one report, and merging the /1 document converts it.
  const std::string V2Text = readFixture("catalogue-sc-power-2.json");
  auto V1 = JsonValue::parse(readFixture("catalogue-sc-power.json"));
  auto V2 = JsonValue::parse(V2Text);
  ASSERT_TRUE(static_cast<bool>(V1)) << V1.message();
  ASSERT_TRUE(static_cast<bool>(V2)) << V2.message();
  EXPECT_EQ(V1->get("schema")->asString(), "cats-sweep-report/1");
  auto FromV1 = sweepReportFromJson(*V1);
  auto FromV2 = sweepReportFromJson(*V2);
  ASSERT_TRUE(static_cast<bool>(FromV1)) << FromV1.message();
  ASSERT_TRUE(static_cast<bool>(FromV2)) << FromV2.message();
  EXPECT_EQ(sweepReportToJson(*FromV1).dump(), V2Text);
  EXPECT_EQ(sweepReportToJson(*FromV2).dump(), V2Text);
  auto Merged = mergeReports({*V1});
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  EXPECT_EQ(Merged->dump(), V2Text);
}

TEST(Json, OneLineMarkRendersCompactInsideIndentedDumps) {
  JsonValue Inner = JsonValue::object();
  Inner.set("a", 1);
  JsonValue Deep = JsonValue::array();
  Deep.push(JsonValue(2));
  Deep.push(JsonValue::object());
  Inner.set("b", std::move(Deep));
  JsonValue Plain = Inner;
  Inner.setOneLine();
  EXPECT_TRUE(Inner.oneLine());
  EXPECT_FALSE(Plain.oneLine());
  EXPECT_FALSE(JsonValue(1).oneLine());

  JsonValue Root = JsonValue::object();
  Root.set("list", JsonValue::array());
  Root.get("list")->push(Inner);
  Root.get("list")->push(Plain);
  JsonValue Moved = Inner;
  Root.set("moved", std::move(Moved));
  EXPECT_EQ(Root.dump(), "{\n"
                         "  \"list\": [\n"
                         "    {\"a\":1,\"b\":[2,{}]},\n"
                         "    {\n"
                         "      \"a\": 1,\n"
                         "      \"b\": [\n"
                         "        2,\n"
                         "        {}\n"
                         "      ]\n"
                         "    }\n"
                         "  ],\n"
                         "  \"moved\": {\"a\":1,\"b\":[2,{}]}\n"
                         "}\n");
  // The compact form is the same with or without marks; equality and
  // parsing ignore them.
  EXPECT_EQ(Inner.dump(0), Plain.dump(0));
  EXPECT_EQ(Inner, Plain);
  auto Back = JsonValue::parse(Root.dump());
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  EXPECT_EQ(*Back, Root);
  EXPECT_FALSE(Back->get("moved")->oneLine());
}

TEST(Json, RandomTreesRoundTrip) {
  std::mt19937_64 Rng(14);
  for (int I = 0; I < 500; ++I) {
    const JsonValue V = randomValue(Rng, 4);
    for (unsigned Indent : {0u, 2u}) {
      const std::string Text = V.dump(Indent);
      auto Back = JsonValue::parse(Text);
      ASSERT_TRUE(static_cast<bool>(Back)) << Back.message() << "\n" << Text;
      EXPECT_EQ(*Back, V) << Text;
      EXPECT_EQ(Back->dump(Indent), Text);
    }
  }
}
