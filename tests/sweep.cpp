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
#include "campaign/Shard.h"
#include "diy/Enumerate.h"
#include "litmus/Catalog.h"
#include "litmus/Compiler.h"
#include "litmus/Parser.h"
#include "model/Registry.h"
#include "model/SimpleModels.h"
#include "obs/Metrics.h"
#include "support/StringUtils.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
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
  if (!Source)
    return Tests;
  TestSource Drain = inlineSource(Source.take());
  LitmusTest Test;
  while (Tests.size() < Cap && Drain(Test))
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

/// Cache hooks whose lookup hits every third test from the third on,
/// answering with the record of \p Hits' entry at the test's position;
/// \p Calls counts lookups. (testsWithAnError puts its errored test at
/// position 1, which never hits.)
StreamHooks everyThirdHits(const std::vector<SweepTestResult> &Hits,
                           size_t &Calls) {
  StreamHooks Hooks;
  Hooks.CacheLookup = [&Hits, &Calls](const LitmusTest &,
                                      SweepTestResult &Out) {
    const size_t Position = Calls++;
    if (Position % 3 != 2)
      return false;
    Out.Record = sweepTestResultToJson(Hits[Position]).dump(0);
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

  // The same, with a sink taking the results at the frontier: the report
  // of what it took is the same report.
  auto Sunk = [&](unsigned Workers) {
    size_t Calls = 0;
    StreamHooks Hooks = everyThirdHits(Reference.Tests, Calls);
    std::vector<SweepTestResult> Taken;
    Hooks.OnResult = [&Taken](StagedTest &, SweepTestResult &R) {
      Taken.push_back(std::move(R));
    };
    SweepReport Counts = SweepEngine({Workers}).runStreamed(
        vectorSource(Tests), allModels(), 4, Hooks);
    EXPECT_TRUE(Counts.Tests.empty());
    Counts.Tests = std::move(Taken);
    return reportSignature(Counts);
  };

  const std::string Baseline = reportSignature(Reference);
  const std::string StreamedBaseline = Streamed(1);
  for (unsigned N = 1; N <= 8; ++N) {
    EXPECT_EQ(reportSignature(SweepEngine({N}).run(Jobs)), Baseline)
        << "with " << N << " workers";
    EXPECT_EQ(Streamed(N), StreamedBaseline) << "with " << N << " workers";
    EXPECT_EQ(Sunk(N), StreamedBaseline) << "with " << N << " workers";
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

namespace {

/// SC, noting under a lock every thread that asks for its name: the
/// judge does, and so does the check of a stored record's model list.
class WatchedSc : public ScModel {
public:
  std::string name() const override {
    std::lock_guard<std::mutex> L(Lock);
    Threads.insert(std::this_thread::get_id());
    return ScModel::name();
  }
  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> L(Lock);
    return Threads;
  }
  void forget() {
    std::lock_guard<std::mutex> L(Lock);
    Threads.clear();
  }

private:
  mutable std::mutex Lock;
  mutable std::set<std::thread::id> Threads;
};

/// \p R's record with its wall time zeroed.
std::string timeless(SweepTestResult R) {
  R.WallSeconds = 0;
  return sweepTestResultToJson(R).dump(0);
}

} // namespace

TEST(SweepEngine, HitsGivenAsRecordsDecodeOnTheWorkers) {
  // A lookup answers a hit with a stored record. The engine decodes and
  // checks it where it would judge the test: on a worker, or on the
  // calling thread at one worker. A record that does not answer its test
  // is judged instead, counted as a miss, and stored.
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(24);
  WatchedSc Sc;
  const std::vector<const Model *> Models = {&Sc, modelByName("Power")};
  std::vector<SweepTestResult> Judged;
  StreamHooks Rendering;
  Rendering.SinkWritesRecords = true;
  Rendering.OnResult = [&](StagedTest &, SweepTestResult &R) {
    Judged.push_back(std::move(R));
  };
  SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 4, Rendering);
  ASSERT_EQ(Judged.size(), Tests.size());

  // Every other test hits. These four records do not answer their test:
  // another test's, one judged under the models in the other order, one
  // whose Allow verdict its allowed states back turned into Forbid, and
  // one cut in half.
  std::map<size_t, std::string> Foreign = {
      {1, Judged[3].Record},
      {9, Judged[9].Record.substr(0, Judged[9].Record.size() / 2)}};
  SweepTestResult Reordered = SweepEngine({1})
                                  .run(makeJobs({Tests[5]}, {Models[1], &Sc}))
                                  .Tests.at(0);
  Foreign[5] = sweepTestResultToJson(Reordered).dump(0);
  const std::string Allow = "\"verdict\":\"Allow\"";
  for (size_t I = 3; I < Tests.size() && Foreign.size() < 4; I += 2) {
    const size_t At = Judged[I].Record.find(Allow);
    if (!Foreign.count(I) && At != std::string::npos)
      Foreign[I] = std::string(Judged[I].Record).replace(
          At, Allow.size(), "\"verdict\":\"Forbid\"");
  }
  ASSERT_EQ(Foreign.size(), 4u);

  const std::thread::id Caller = std::this_thread::get_id();
  for (unsigned Workers = 1; Workers <= 8; ++Workers) {
    SCOPED_TRACE(std::to_string(Workers) + " workers");
    size_t Calls = 0;
    std::vector<SweepTestResult> Results;
    std::map<std::string, std::string> Stored;
    StreamHooks Hooks;
    Hooks.CacheLookup = [&](const LitmusTest &, SweepTestResult &Out) {
      const size_t Position = Calls++;
      if (Position % 2 == 0)
        return false;
      const auto Bad = Foreign.find(Position);
      Out.Record =
          Bad != Foreign.end() ? Bad->second : Judged[Position].Record;
      return true;
    };
    Hooks.CacheStore = [&](const LitmusTest &T, const SweepTestResult &R) {
      EXPECT_EQ(R.Record, sweepTestResultToJson(R).dump(0)) << T.Name;
      Stored[T.Name] = timeless(R);
    };
    Hooks.OnResult = [&](StagedTest &, SweepTestResult &R) {
      Results.push_back(std::move(R));
    };
    Sc.forget();
    const SweepReport Report = SweepEngine({Workers}).runStreamed(
        vectorSource(Tests), Models, 4, Hooks);

    // The results and records of the judged run; a decoded hit lists its
    // stored bytes.
    ASSERT_EQ(Results.size(), Tests.size());
    for (size_t I = 0; I < Tests.size(); ++I) {
      EXPECT_EQ(timeless(Results[I]), timeless(Judged[I])) << I;
      const bool Hit = I % 2 == 1 && !Foreign.count(I);
      if (Hit)
        EXPECT_EQ(Results[I].Record, Judged[I].Record) << I;
      else
        EXPECT_EQ(timeless(Results[I]), Stored[Tests[I].Name]) << I;
    }
    EXPECT_EQ(Report.CacheHits, Tests.size() / 2 - Foreign.size());
    EXPECT_EQ(Report.CacheMisses, Tests.size() / 2 + Foreign.size());
    EXPECT_EQ(Stored.size(), Tests.size() / 2 + Foreign.size());

    // Off the calling thread on a pool; on it at one worker.
    const std::set<std::thread::id> Asked = Sc.threads();
    if (Workers == 1) {
      EXPECT_EQ(Asked, std::set<std::thread::id>{Caller});
    } else if (SweepEngine({Workers}).workerCount() > 1) {
      EXPECT_FALSE(Asked.empty());
      EXPECT_EQ(Asked.count(Caller), 0u);
    }
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
  EXPECT_EQ(Report.Reported, Tests.size());
  EXPECT_EQ(Report.Errored, 1u);
}

namespace {

/// The first \p N catalogue tests with an invalid one at position 1: an
/// x86 fence on a Power test fails validation.
std::vector<LitmusTest> testsWithAnError(size_t N) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(N);
  LitmusTest Bad = Tests.front();
  Bad.Name = "bad-fence";
  Bad.TargetArch = Arch::Power;
  Instruction Fence;
  Fence.Op = Opcode::Fence;
  Fence.FenceName = "mfence";
  Bad.Threads[0].push_back(Fence);
  Tests.insert(Tests.begin() + 1, Bad);
  return Tests;
}

} // namespace

TEST(SweepEngine, SinkTakesEachResultOnceInSourceOrderOnTheCallingThread) {
  const std::vector<LitmusTest> Tests = testsWithAnError(24);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const SweepReport Reference = SweepEngine({1}).run(makeJobs(Tests, Models));
  ASSERT_EQ(Reference.Tests.size(), Tests.size());
  for (unsigned Workers : {1u, 4u}) {
    size_t Calls = 0;
    StreamHooks Hooks = everyThirdHits(Reference.Tests, Calls);
    std::vector<std::string> Names;
    std::set<std::thread::id> Threads;
    Hooks.OnResult = [&](StagedTest &Item, SweepTestResult &R) {
      // The item the result was made from, a cache hit's too: its pull
      // position and its test.
      EXPECT_EQ(Item.Index, Names.size());
      EXPECT_EQ(Item.Test.Name, R.TestName);
      Names.push_back(R.TestName);
      Threads.insert(std::this_thread::get_id());
      R = SweepTestResult();
    };
    std::vector<unsigned long long> Frontiers;
    Hooks.OnBatch = [&](const SweepReport &SoFar) {
      Frontiers.push_back(SoFar.Reported);
      EXPECT_TRUE(SoFar.Tests.empty());
      EXPECT_EQ(SoFar.Reported, Names.size());
    };
    const SweepReport Report = SweepEngine({Workers}).runStreamed(
        vectorSource(Tests), Models, 4, Hooks);

    // The report keeps counts, no result.
    EXPECT_TRUE(Report.Tests.empty());
    EXPECT_EQ(Report.Reported, Tests.size());
    EXPECT_EQ(Report.Errored, 1u);
    EXPECT_FALSE(Report.allOk());
    EXPECT_EQ(Report.CacheHits, Tests.size() / 3);
    EXPECT_EQ(Report.CacheHits + Report.CacheMisses, Tests.size());
    // Each result once, in source order, on this thread.
    ASSERT_EQ(Names.size(), Tests.size());
    for (size_t I = 0; I < Tests.size(); ++I)
      EXPECT_EQ(Names[I], Tests[I].Name) << I;
    EXPECT_EQ(Threads, std::set<std::thread::id>{std::this_thread::get_id()});
    EXPECT_EQ(Frontiers, (std::vector<unsigned long long>{4, 8, 12, 16, 20,
                                                          24, 25}));
  }
}

TEST(SweepEngine, RecordsAreRenderedOnlyWhenSomethingWritesThem) {
  const std::vector<LitmusTest> Tests = testsWithAnError(12);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  for (unsigned Workers : {1u, 3u}) {
    const SweepEngine Engine({Workers});
    // Nothing writes records: run(), and a sink that only reads results.
    for (const SweepTestResult &T : Engine.run(makeJobs(Tests, Models)).Tests)
      EXPECT_TRUE(T.Record.empty()) << T.TestName;
    StreamHooks Reading;
    size_t Read = 0;
    Reading.OnResult = [&](StagedTest &, SweepTestResult &R) {
      EXPECT_TRUE(R.Record.empty()) << R.TestName;
      ++Read;
    };
    Engine.runStreamed(vectorSource(Tests), Models, 4, Reading);
    EXPECT_EQ(Read, Tests.size());

    // A sink that writes records takes each one rendered, errors too.
    StreamHooks Writing;
    Writing.SinkWritesRecords = true;
    size_t Written = 0;
    Writing.OnResult = [&](StagedTest &, SweepTestResult &R) {
      EXPECT_EQ(R.Record, sweepTestResultToJson(R).dump(0));
      ++Written;
    };
    Engine.runStreamed(vectorSource(Tests), Models, 4, Writing);
    EXPECT_EQ(Written, Tests.size());

    // A cache store is offered each judged result rendered, while the
    // report keeps its results without their records.
    StreamHooks Storing;
    size_t Stored = 0;
    Storing.CacheStore = [&](const LitmusTest &, const SweepTestResult &R) {
      EXPECT_EQ(R.Record, sweepTestResultToJson(R).dump(0));
      ++Stored;
    };
    const SweepReport Kept =
        Engine.runStreamed(vectorSource(Tests), Models, 4, Storing);
    EXPECT_EQ(Stored, Tests.size());
    ASSERT_EQ(Kept.Tests.size(), Tests.size());
    for (const SweepTestResult &T : Kept.Tests)
      EXPECT_TRUE(T.Record.empty()) << T.TestName;
  }
}

TEST(SweepEngine, AHookThatThrowsStopsTheSweep) {
  // A source or a sink that throws stops the sweep and joins its pool;
  // the exception reaches the caller, and the sweep runs again after it.
  const std::vector<LitmusTest> Tests = testsWithAnError(24);
  const std::vector<const Model *> Models = {modelByName("SC")};
  for (unsigned Workers : {1u, 4u})
    for (bool FromSource : {true, false}) {
      SCOPED_TRACE(std::to_string(Workers) + " workers, thrown by the " +
                   (FromSource ? "source" : "sink"));
      TestSource Inner = vectorSource(Tests);
      size_t Pulled = 0, Taken = 0;
      TestSource Source = [&](LitmusTest &Out) {
        if (FromSource && Pulled == 10)
          throw std::runtime_error("source");
        ++Pulled;
        return Inner(Out);
      };
      StreamHooks Hooks;
      Hooks.OnResult = [&](StagedTest &, SweepTestResult &) {
        if (!FromSource && Taken == 5)
          throw std::runtime_error("sink");
        ++Taken;
      };
      const SweepEngine Engine({Workers});
      EXPECT_THROW(Engine.runStreamed(Source, Models, 4, Hooks),
                   std::runtime_error);
      EXPECT_LE(Taken, FromSource ? 10u : 5u);
      EXPECT_EQ(Engine.runStreamed(vectorSource(Tests), Models, 4).Reported,
                Tests.size());
    }
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

namespace {

/// What \p Writer writes for \p Root.
std::string writtenBytes(SweepReportWriter &Writer, const JsonValue &Root) {
  std::FILE *Out = std::tmpfile();
  EXPECT_NE(Out, nullptr);
  if (!Out)
    return std::string();
  EXPECT_TRUE(Writer.write(Root, Out));
  std::rewind(Out);
  std::string Bytes;
  char Chunk[4096];
  while (size_t Got = std::fread(Chunk, 1, sizeof(Chunk), Out))
    Bytes.append(Chunk, Got);
  std::fclose(Out);
  return Bytes;
}

} // namespace

TEST(SweepReportWriter, WritesTheBytesOfTheWholeDocument) {
  // Each sweep sends its results to a writer and keeps a copy; the
  // writer's bytes must be dump() of the document holding the copies,
  // with the members the CLIs add after "tests".
  struct Case {
    const char *What;
    std::vector<LitmusTest> Tests;
    bool Witness = false;
    bool Cached = false;
    bool Trailer = false;
  };
  std::vector<LitmusTest> One = catalogueTests();
  One.resize(1);
  const std::vector<Case> Cases = {
      {"no test", {}},
      {"one test", One},
      {"many tests", catalogueTests()},
      {"errored tests", testsWithAnError(9)},
      {"witnesses", testsWithAnError(5), true},
      {"cache, shard and metrics", testsWithAnError(16), false, true, true}};
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  for (const Case &C : Cases) {
    SweepOptions Opts;
    Opts.Jobs = 3;
    Opts.Witness = C.Witness;
    const SweepReport Reference =
        SweepEngine({1}).run(makeJobs(C.Tests, Models));
    size_t Calls = 0;
    StreamHooks Hooks;
    if (C.Cached)
      Hooks = everyThirdHits(Reference.Tests, Calls);
    auto Writer = SweepReportWriter::create();
    ASSERT_TRUE(static_cast<bool>(Writer)) << Writer.message();
    std::vector<SweepTestResult> Kept;
    Hooks.SinkWritesRecords = true;
    Hooks.OnResult = [&](StagedTest &, SweepTestResult &R) {
      Kept.push_back(R);
      Writer->add(R);
    };
    const SweepReport Counts = SweepEngine(Opts).runStreamed(
        vectorSource(C.Tests), Models, 4, Hooks);
    SweepReport Whole = Counts;
    Whole.Tests = Kept;
    JsonValue Expected = sweepReportToJson(Whole);
    JsonValue Streamed = Writer->document(Counts);
    if (C.Trailer) {
      const JsonValue Metrics = obs::metricsToJson();
      for (JsonValue *Doc : {&Expected, &Streamed}) {
        Doc->set("shard", shardToJson(ShardSpec{2, 3}));
        Doc->set("metrics", Metrics);
      }
    }
    EXPECT_EQ(Expected.get("witness") != nullptr, C.Witness) << C.What;
    EXPECT_EQ(writtenBytes(*Writer, Streamed), Expected.dump()) << C.What;
  }
}

TEST(SweepReportWriter, SpillsBesideItsTarget) {
  // A report's spill sits in its target's directory; a report for
  // stdout or a device, or for a target whose directory cannot hold the
  // spill, spills to the temporary directory.
  if (!std::filesystem::is_directory("/proc/self/fd"))
    GTEST_SKIP() << "no /proc/self/fd to find the spill through";
  namespace fs = std::filesystem;
  const fs::path Dir = ::testing::TempDir() + "cats_spill_beside";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  // How many of the process's files without a name are in \p Where.
  auto SpillsIn = [](const fs::path &Where) {
    const fs::path Real = fs::canonical(Where);
    size_t Count = 0;
    for (const auto &Entry : fs::directory_iterator("/proc/self/fd")) {
      std::error_code Ec;
      const std::string Link = fs::read_symlink(Entry.path(), Ec).string();
      const std::string Deleted = " (deleted)";
      if (!Ec && Link.size() > Deleted.size() &&
          Link.compare(Link.size() - Deleted.size(), Deleted.size(),
                       Deleted) == 0)
        Count += fs::path(Link).parent_path() == Real;
    }
    return Count;
  };
  const fs::path Temp = temporaryDirectory();
  auto Beside = SweepReportWriter::create((Dir / "report.json").string());
  ASSERT_TRUE(static_cast<bool>(Beside)) << Beside.message();
  EXPECT_EQ(SpillsIn(Dir), 1u);
  const size_t InTemp = SpillsIn(Temp);
  auto ForStdout = SweepReportWriter::create("");
  auto ForDevice = SweepReportWriter::create("/dev/null");
  auto Homeless =
      SweepReportWriter::create((Dir / "missing" / "report.json").string());
  ASSERT_TRUE(static_cast<bool>(ForStdout)) << ForStdout.message();
  ASSERT_TRUE(static_cast<bool>(ForDevice)) << ForDevice.message();
  ASSERT_TRUE(static_cast<bool>(Homeless)) << Homeless.message();
  EXPECT_EQ(SpillsIn(Temp), InTemp + 3);
  EXPECT_EQ(SpillsIn(Dir), 1u);
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

//===----------------------------------------------------------------------===//
// The bounded-memory file reader
//===----------------------------------------------------------------------===//

namespace {

/// \p Text written to a file, for JsonFileReader. Each test has its own
/// file: ctest runs tests at once, each in its own process.
std::string fileHolding(const std::string &Text) {
  const std::string Path =
      ::testing::TempDir() + "cats_json_reader_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
  EXPECT_FALSE(writeWholeFile(Path, Text).failed());
  return Path;
}

/// \p Text read from a file by JsonFileReader as one document: a value,
/// then the end of the file. The value, or the reader's error.
Expected<JsonValue> readAsFile(const std::string &Text) {
  JsonFileReader Reader(fileHolding(Text));
  JsonValue Value;
  if (!Reader.parse(0, Value) ||
      (Reader.peek() != -1 &&
       !Reader.fail("trailing characters after document")))
    return Expected<JsonValue>::error(Reader.error());
  return Value;
}

/// The offset an error of the JSON parser or reader names.
unsigned long long errorOffset(const std::string &Message) {
  const std::string Lead = "JSON error at offset ";
  EXPECT_EQ(Message.compare(0, Lead.size(), Lead), 0) << Message;
  return std::strtoull(Message.c_str() + Lead.size(), nullptr, 10);
}

} // namespace

TEST(JsonFileReader, ParsesExactlyWhatParseAccepts) {
  // Every document is read both ways. The reader finds where a value
  // ends and leaves the grammar to the parser, so it must accept a
  // document exactly when the parser does, give back the same value,
  // and never name an error before the parser's first one: the same
  // error, unless the reader stops at the end of the file or at the
  // nesting limit first.
  const std::string Deepest = std::string(JsonValue::MaxDepth, '[') +
                              std::string(JsonValue::MaxDepth, ']');
  std::vector<std::string> Docs = {
      "", " ", "{\"a\": 1,}", "[1, 2", "\"unterminated", "{\"a\" 1}", "nul",
      "1 2", "\"bad \\q escape\"", "[1e]", "[1-2]", "-", "[,1]", "[1,]",
      "{,}", "{\"a\":}", "{1:2}", "tru", "nulls", "falsey", "01", "1.",
      ".5", "+1", "-0", "1e+5", "[1e999, -1e999, 1e-999]", "\"\\u00e9\"",
      "\"\\u12G4\"", "\"\\u12\"", "\"\\u", "\"\\", "\"a\\\"b\"", "  {}  ",
      " [ ] ", "{\"a\" : [ 1 , { } ] , \"b\":null}\n", "[true,false,null]",
      "\"tab\tand\x01raw\"", "{\"z\": 1, \"a\": 2, \"z\": 3}", Deepest,
      "[" + Deepest + "]", "{\"a\":" + Deepest + "}", "[]]", "{}x", "[1}",
      "{\"a\": [1}]", "[\"]\"]", "[\"\\\"]\"]", ",", "]"};
  // Where the parser's first error is the only one, the reader names it.
  const std::set<std::string> Same = {
      "{\"a\" 1}", "1 2", "\"bad \\q escape\"", "[1e]", "{1:2}", "nulls",
      "[" + Deepest + "]", "[]]", "{}x", "[1}", ","};
  std::mt19937_64 Rng(25);
  for (int I = 0; I < 300; ++I) {
    const std::string Text = randomValue(Rng, 4).dump(I % 2 ? 2 : 0);
    Docs.push_back(Text);
    // A flipped bit or a cut, anywhere.
    std::string Broken = Text;
    const size_t At = Rng() % (Text.size() + 1);
    if (I % 3 == 0 || At == Text.size())
      Broken.resize(At);
    else
      Broken[At] = static_cast<char>(Broken[At] ^ (1 << (Rng() % 8)));
    Docs.push_back(Broken);
  }
  for (const std::string &Doc : Docs) {
    auto Parsed = JsonValue::parse(Doc);
    auto Read = readAsFile(Doc);
    ASSERT_EQ(static_cast<bool>(Read), static_cast<bool>(Parsed))
        << Doc << "\n"
        << (Read ? Parsed.message() : Read.message());
    if (Parsed) {
      EXPECT_EQ(*Read, *Parsed) << Doc;
      continue;
    }
    EXPECT_GE(errorOffset(Read.message()), errorOffset(Parsed.message()))
        << Doc << "\n"
        << Read.message() << "\n"
        << Parsed.message();
    if (Same.count(Doc)) {
      EXPECT_EQ(Read.message(), Parsed.message()) << Doc;
    }
  }
}

TEST(JsonFileReader, ValuesCrossTheBufferAndSeekBack) {
  // A string, an array and an object each far longer than the reader's
  // buffer, and a nesting of the largest depth.
  std::string Long(200000, 'x');
  for (size_t I = 0; I < Long.size(); I += 997)
    Long[I] = I % 2 ? '\n' : '"';
  JsonValue Numbers = JsonValue::array();
  for (int I = 0; I < 50000; ++I)
    Numbers.push(I * 1.5 - 7);
  JsonValue Doc = JsonValue::object();
  Doc.set("long", Long);
  Doc.set("numbers", Numbers);
  Doc.set("deep", *JsonValue::parse(std::string(255, '[') +
                                    std::string(255, ']')));
  const std::string Text = Doc.dump();

  JsonFileReader Reader(fileHolding(Text));
  ASSERT_EQ(Reader.peek(), '{');
  Reader.take();
  // Where each value starts and ends.
  std::vector<std::pair<uint64_t, uint64_t>> Values;
  for (int Member = 0; Member < 3; ++Member) {
    JsonValue Key, Value;
    ASSERT_TRUE(Reader.parse(1, Key)) << Reader.error();
    ASSERT_EQ(Reader.peek(), ':');
    Reader.take();
    Reader.peek();
    const uint64_t At = Reader.offset();
    ASSERT_TRUE(Reader.parse(1, Value)) << Reader.error();
    EXPECT_EQ(Value, *Doc.get(Key.asString()));
    Values.emplace_back(At, Reader.offset());
    ASSERT_EQ(Reader.peek(), Member < 2 ? ',' : '}');
    Reader.take();
  }
  EXPECT_EQ(Reader.peek(), -1);
  // Going back, each value is skipped to the same end.
  for (const auto &[At, End] : Values) {
    ASSERT_TRUE(Reader.seek(At));
    ASSERT_TRUE(Reader.skip(1)) << Reader.error();
    EXPECT_EQ(Reader.offset(), End);
  }
  // skip() checks no grammar but the nesting limit and the end.
  for (const auto &[Value, Ok] : std::vector<std::pair<std::string, bool>>{
           {"{\"a\" 1}", true},
           {"[1 2}", true},
           {"[[1]", false},
           {"\"open", false},
           {std::string(JsonValue::MaxDepth, '['), false}}) {
    JsonFileReader Skipping(fileHolding(Value));
    EXPECT_EQ(Skipping.skip(0), Ok) << Value;
  }
  // A file that is not there fails to read.
  JsonFileReader Missing(::testing::TempDir() + "cats_no_such_file.json");
  EXPECT_FALSE(Missing.skip(0));
  EXPECT_TRUE(Missing.readFailed());
}
