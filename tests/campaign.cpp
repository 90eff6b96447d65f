//===- campaign.cpp - Sharding, caching, checkpointing, merging ----------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the campaign layer (docs/campaigns.md): round-robin shards must
/// partition a stream completely and disjointly, a merged shard set must
/// reproduce the single-process report byte-for-byte (modulo wall
/// times), cache hits must be byte-identical to fresh judgements while
/// any test mutation misses, and resuming an interrupted checkpoint must
/// equal the uninterrupted run. Also covers the cats-sweep-report/1
/// reader (outcome keys included) and the mine-report shard merge.
///
//===----------------------------------------------------------------------===//

#include "../tools/CampaignCli.h"
#include "campaign/Checkpoint.h"
#include "campaign/Merge.h"
#include "campaign/ResultCache.h"
#include "campaign/Shard.h"
#include "cat/CatAdapter.h"
#include "litmus/Catalog.h"
#include "model/Registry.h"
#include "mole/Mine.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>

using namespace cats;

namespace {

std::vector<LitmusTest> catalogueTests() {
  std::vector<LitmusTest> Out;
  for (const CatalogEntry &Entry : figureCatalog())
    Out.push_back(Entry.Test);
  return Out;
}

/// A single-pass source over a materialized vector, sharing its cursor
/// across std::function copies like every real source does.
TestSource vectorSource(std::vector<LitmusTest> Tests) {
  auto Vec = std::make_shared<std::vector<LitmusTest>>(std::move(Tests));
  auto Idx = std::make_shared<size_t>(0);
  return [Vec, Idx](LitmusTest &Out) -> bool {
    if (*Idx >= Vec->size())
      return false;
    Out = (*Vec)[(*Idx)++];
    return true;
  };
}

/// The report's JSON with every wall_seconds zeroed — the determinism
/// contract of docs/sweep.md, byte-comparable across runs.
std::string scrubbedDump(const SweepReport &Report) {
  return zeroWallTimes(sweepReportToJson(Report)).dump();
}

/// A fresh scratch directory under the test temp root.
std::string scratchDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "cats_campaign_" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shard specs and partitioning
//===----------------------------------------------------------------------===//

TEST(Shard, ParsesAndRejects) {
  auto Ok = parseShardSpec("2/4");
  ASSERT_TRUE(static_cast<bool>(Ok)) << Ok.message();
  EXPECT_EQ(Ok->Index, 2u);
  EXPECT_EQ(Ok->Count, 4u);
  EXPECT_TRUE(Ok->active());
  EXPECT_EQ(Ok->toString(), "2/4");

  auto Whole = parseShardSpec("1/1");
  ASSERT_TRUE(static_cast<bool>(Whole));
  EXPECT_FALSE(Whole->active());

  for (const char *Bad : {"0/4", "5/4", "4", "x/y", "2/", "/4", "2/4/8", ""})
    EXPECT_FALSE(static_cast<bool>(parseShardSpec(Bad))) << Bad;
}

TEST(Shard, RoundRobinOwnership) {
  ShardSpec Spec{2, 3};
  // Shard 2 of 3 owns positions 1, 4, 7, ...
  EXPECT_FALSE(Spec.owns(0));
  EXPECT_TRUE(Spec.owns(1));
  EXPECT_FALSE(Spec.owns(2));
  EXPECT_TRUE(Spec.owns(4));
}

TEST(Shard, SourcePartitionIsCompleteDisjointAndDeterministic) {
  const std::vector<LitmusTest> Tests = catalogueTests();
  const unsigned N = 3;

  auto ShardNames = [&](unsigned K) {
    std::vector<std::string> Names;
    TestSource Src = shardTestSource(vectorSource(Tests), ShardSpec{K, N});
    LitmusTest T;
    while (Src(T))
      Names.push_back(T.Name);
    return Names;
  };

  std::vector<std::string> Interleaved;
  std::set<std::string> Seen;
  std::vector<std::vector<std::string>> PerShard;
  for (unsigned K = 1; K <= N; ++K) {
    PerShard.push_back(ShardNames(K));
    // Deterministic: a second pass yields the same slice.
    EXPECT_EQ(ShardNames(K), PerShard.back());
    for (const std::string &Name : PerShard.back()) {
      EXPECT_TRUE(Seen.insert(Name).second) << Name << " in two shards";
    }
  }
  EXPECT_EQ(Seen.size(), Tests.size());

  // Shards are balanced to within one test and interleave back to the
  // source order.
  for (unsigned K = 0; K < N; ++K)
    EXPECT_LE(PerShard[0].size() - PerShard[K].size(), 1u);
  for (size_t Offset = 0;; ++Offset) {
    bool Any = false;
    for (unsigned K = 0; K < N; ++K)
      if (Offset < PerShard[K].size()) {
        Interleaved.push_back(PerShard[K][Offset]);
        Any = true;
      }
    if (!Any)
      break;
  }
  ASSERT_EQ(Interleaved.size(), Tests.size());
  for (size_t I = 0; I < Tests.size(); ++I)
    EXPECT_EQ(Interleaved[I], Tests[I].Name);
}

TEST(Shard, StanzaRoundTrip) {
  ShardSpec Spec{3, 8};
  auto Back = shardFromJson(shardToJson(Spec));
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  EXPECT_EQ(Back->Index, 3u);
  EXPECT_EQ(Back->Count, 8u);
  EXPECT_FALSE(static_cast<bool>(shardFromJson(JsonValue(1))));
}

//===----------------------------------------------------------------------===//
// Report IO: outcome keys and the sweep-report reader
//===----------------------------------------------------------------------===//

TEST(ReportIO, OutcomeKeyRoundTripsEveryCatalogueState) {
  const CatalogEntry *Entry = catalogEntry("mp");
  ASSERT_NE(Entry, nullptr);
  SweepReport Report = SweepEngine({1}).run(
      makeJobs({Entry->Test}, {modelByName("SC"), modelByName("Power")}));
  ASSERT_EQ(Report.Tests.size(), 1u);
  const OutcomeTable &Table = Report.Tests[0].Result.ConsistentOutcomes;
  for (size_t I = 0; I < Table.size(); ++I) {
    auto Back = outcomeFromKey(Table.key(I));
    ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
    EXPECT_EQ(Back->key(), Table.key(I));
  }
  EXPECT_GT(Table.size(), 0u);
}

TEST(ReportIO, OutcomeKeyRejectsGarbage) {
  // A thread index sizes the register table, so a corrupt one must be
  // refused before it allocates.
  for (const char *Bad : {"0:r0=1", "novalue;", "=1;", "0:q0=1;", "x:r0=1;",
                          "0:r0=z;", "-1:r0=1;", "0:r=1;", "x=+1;",
                          "x=99999999999999999999;", "70000:r0=1;",
                          "99999999999:r0=1;"})
    EXPECT_FALSE(static_cast<bool>(outcomeFromKey(Bad))) << Bad;
  // The empty outcome is legal (a test with no observed locations).
  EXPECT_TRUE(static_cast<bool>(outcomeFromKey("")));
}

TEST(ReportIO, SweepReportRoundTripsByteIdentically) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  SweepReport Report = SweepEngine({2}).run(
      makeJobs(Tests, {modelByName("SC"), modelByName("TSO")}));
  JsonValue Root = sweepReportToJson(Report);

  auto Parsed = sweepReportFromJson(Root);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(sweepReportToJson(*Parsed).dump(), Root.dump());
}

TEST(ReportIO, ReaderEnforcesEntryInvariants) {
  // A sound one-model entry, then one breach per invariant of the entry
  // reader; each breach must be rejected by the reader itself.
  auto Entry = [](const std::string &States, const std::string &Model,
                  const std::string &Total = "4",
                  const std::string &Consistent = "4") {
    return R"({"name": "t", "candidates_total": )" + Total +
           R"(, "candidates_consistent": )" + Consistent +
           R"(, "consistent_states": )" + States + R"(, "models": [)" +
           Model + "]}";
  };
  auto Model = [](const std::string &Verdict, int Allowed,
                  const std::string &States) {
    return R"({"model": "SC", )" + Verdict +
           R"( "candidates_allowed": )" + std::to_string(Allowed) +
           R"(, "allowed_states": )" + States + "}";
  };
  const std::string Table = R"(["x=1;", "x=2;"])";
  const std::string Allow = R"("verdict": "Allow",)";
  const std::string Forbid = R"("verdict": "Forbid",)";
  auto Parse = [](const std::string &Text) {
    auto Doc = JsonValue::parse(Text);
    EXPECT_TRUE(static_cast<bool>(Doc)) << Text;
    return sweepTestResultFromJson(*Doc);
  };

  auto Sound = Parse(Entry(Table, Model(Allow, 3, Table)));
  ASSERT_TRUE(static_cast<bool>(Sound)) << Sound.message();
  EXPECT_EQ(Sound->Result.PerModel[0].AllowedOutcomes,
            (std::vector<uint32_t>{0, 1}));

  const std::vector<std::pair<std::string, std::string>> Breaches = {
      {"verdict missing", Entry(Table, Model("", 2, Table))},
      {"verdict not Allow/Forbid",
       Entry(Table, Model(R"("verdict": "allow",)", 2, Table))},
      {"consistent states out of order",
       Entry(R"(["x=2;", "x=1;"])", Model(Forbid, 0, "[]"))},
      {"consistent state repeated",
       Entry(R"(["x=1;", "x=1;"])", Model(Forbid, 0, "[]"))},
      {"state key not canonical",
       Entry(R"(["x=01;", "x=2;"])", Model(Forbid, 0, "[]"))},
      {"allowed state missing from consistent states",
       Entry(Table, Model(Allow, 2, R"(["x=3;"])"))},
      {"allowed states out of order",
       Entry(Table, Model(Allow, 2, R"(["x=2;", "x=1;"])"))},
      {"allowed state repeated",
       Entry(Table, Model(Allow, 2, R"(["x=1;", "x=1;"])"))},
      {"candidates_allowed below the allowed-state count",
       Entry(Table, Model(Allow, 1, Table))},
      // Counts are integers in [0, 2^53], ordered as the judge counts.
      {"negative count", Entry(Table, Model(Allow, 3, Table), "-1")},
      {"fractional count", Entry(Table, Model(Allow, 3, Table), "4", "2.5")},
      {"count beyond 2^53",
       Entry(Table, Model(Allow, 3, Table), "18014398509481984")},
      {"count not a number", Entry(Table, Model(Allow, 3, Table), R"("4")")},
      {"more consistent candidates than candidates",
       Entry(Table, Model(Allow, 3, Table), "4", "5")},
      {"more consistent states than consistent candidates",
       Entry(Table, Model(Forbid, 0, "[]"), "4", "1")},
      {"candidates_allowed above candidates_consistent",
       Entry(Table, Model(Allow, 5, Table))},
      {"models missing",
       R"({"name": "t", "candidates_total": 4, "candidates_consistent": 4,)"
       R"( "consistent_states": ["x=1;"]})"},
      {"consistent_states missing",
       R"({"name": "t", "candidates_total": 4, "candidates_consistent": 4,)"
       R"( "models": []})"},
      // Allowed candidates, or an Allow verdict, need an allowed state.
      {"Allow verdict without allowed states",
       Entry(Table, Model(Allow, 0, "[]"))},
      {"allowed candidates without allowed states",
       Entry(Table, Model(Forbid, 2, "[]"))},
  };
  for (const auto &[What, Text] : Breaches)
    EXPECT_FALSE(static_cast<bool>(Parse(Text))) << What;
}

TEST(ReportIO, ReaderRejectsWrongSchema) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-run-report/1");
  Root.set("tests", JsonValue::array());
  EXPECT_FALSE(static_cast<bool>(sweepReportFromJson(Root)));
}

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

TEST(ResultCache, HitsAreByteIdenticalAndMutationsMiss) {
  const std::string Dir = scratchDir("cache");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache)) << Cache.message();

  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(8);
  std::vector<const Model *> Models = {modelByName("SC"),
                                       modelByName("Power")};
  SweepEngine Engine({2});

  // Cold run: everything misses and populates the cache.
  SweepReport Cold = Engine.runStreamed(vectorSource(Tests), Models, 4,
                                        Cache->hooks(Models));
  EXPECT_TRUE(Cold.CacheUsed);
  EXPECT_EQ(Cold.CacheHits, 0ull);
  EXPECT_EQ(Cold.CacheMisses, Tests.size());

  // Warm run: everything hits, and the per-test entries are
  // byte-identical to the freshly judged ones (modulo wall times).
  SweepReport Warm = Engine.runStreamed(vectorSource(Tests), Models, 4,
                                        Cache->hooks(Models));
  EXPECT_EQ(Warm.CacheHits, Tests.size());
  EXPECT_EQ(Warm.CacheMisses, 0ull);
  ASSERT_EQ(Warm.Tests.size(), Cold.Tests.size());
  for (size_t I = 0; I < Cold.Tests.size(); ++I) {
    JsonValue A = sweepTestResultToJson(Cold.Tests[I]);
    JsonValue B = sweepTestResultToJson(Warm.Tests[I]);
    EXPECT_EQ(zeroWallTimes(A).dump(), zeroWallTimes(B).dump())
        << Cold.Tests[I].TestName;
  }

  // Any mutation of the concretized test text keys differently.
  LitmusTest Mutated = Tests[0];
  Mutated.Init["x"] = 7;
  EXPECT_NE(resultCacheKey(Tests[0], Models), resultCacheKey(Mutated, Models));
  SweepTestResult Out;
  EXPECT_FALSE(Cache->lookup(Mutated, Models, Out));

  // So does the model set and its order.
  std::vector<const Model *> Reordered = {Models[1], Models[0]};
  EXPECT_NE(resultCacheKey(Tests[0], Models),
            resultCacheKey(Tests[0], Reordered));
  EXPECT_FALSE(Cache->lookup(Tests[0], Reordered, Out));
  EXPECT_TRUE(Cache->lookup(Tests[0], Models, Out));
}

TEST(ResultCache, EntriesAreBackendIndependent) {
  // The key hashes no judging backend, so an entry one backend stored is
  // served to the other: every hit must equal a fresh run of the reader.
  const std::string Dir = scratchDir("cache_backend");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache)) << Cache.message();

  const std::vector<LitmusTest> Tests = catalogueTests();
  const std::vector<const Model *> &Models = allModels();
  SweepOptions NaiveOpts;
  NaiveOpts.Jobs = 2;
  NaiveOpts.Backend = JudgeBackend::Naive;
  SweepOptions PrunedOpts;
  PrunedOpts.Jobs = 2;
  PrunedOpts.Backend = JudgeBackend::Pruned;

  SweepReport Filled = SweepEngine(NaiveOpts).runStreamed(
      vectorSource(Tests), Models, 8, Cache->hooks(Models));
  EXPECT_EQ(Filled.CacheMisses, Tests.size());
  SweepReport Warm = SweepEngine(PrunedOpts).runStreamed(
      vectorSource(Tests), Models, 8, Cache->hooks(Models));
  EXPECT_EQ(Warm.CacheHits, Tests.size());
  SweepReport Fresh = SweepEngine(PrunedOpts).runStreamed(
      vectorSource(Tests), Models, 8);

  ASSERT_EQ(Warm.Tests.size(), Fresh.Tests.size());
  for (size_t I = 0; I < Fresh.Tests.size(); ++I)
    EXPECT_EQ(zeroWallTimes(sweepTestResultToJson(Warm.Tests[I])).dump(),
              zeroWallTimes(sweepTestResultToJson(Fresh.Tests[I])).dump())
        << Fresh.Tests[I].TestName;
}

TEST(ResultCache, ModelDefinitionEditsMiss) {
  // The key covers Model::definitionFingerprint(), so editing a model's
  // *definition* — not just its display name — invalidates its entries.
  const std::string Dir = scratchDir("cache_model_edit");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));

  const std::string SourceV1 = "let hb = po | rfe\n"
                               "let prop = po | rf | fr\n"
                               "acyclic po-loc | com as sc-per-location\n"
                               "acyclic hb as no-thin-air\n"
                               "irreflexive fre; prop; hb* as observation\n"
                               "acyclic co | prop as propagation\n";
  // Same checks, weaker hb: a semantic edit under an unchanged name.
  const std::string SourceV2 = "let hb = rfe\n"
                               "let prop = rf | fr\n"
                               "acyclic po-loc | com as sc-per-location\n"
                               "acyclic hb as no-thin-air\n"
                               "irreflexive fre; prop; hb* as observation\n"
                               "acyclic co | prop as propagation\n";
  auto V1 = CatAdapterModel::fromSource(SourceV1, "edited");
  auto V2 = CatAdapterModel::fromSource(SourceV2, "edited");
  ASSERT_TRUE(static_cast<bool>(V1)) << V1.message();
  ASSERT_TRUE(static_cast<bool>(V2)) << V2.message();
  EXPECT_EQ(V1->name(), V2->name());
  EXPECT_NE(V1->definitionFingerprint(), V2->definitionFingerprint());

  const LitmusTest Test = catalogueTests().front();
  const std::vector<const Model *> WithV1 = {modelByName("SC"), &*V1};
  const std::vector<const Model *> WithV2 = {modelByName("SC"), &*V2};
  EXPECT_NE(resultCacheKey(Test, WithV1), resultCacheKey(Test, WithV2));

  // Store under the v1 definition; the same name with the v2 definition
  // must miss, and v1 must still hit.
  SweepReport Judged = SweepEngine({1}).run(makeJobs({Test}, WithV1));
  ASSERT_TRUE(Judged.allOk());
  ASSERT_FALSE(Cache->store(Test, WithV1, Judged.Tests[0]).failed());
  SweepTestResult Out;
  EXPECT_TRUE(Cache->lookup(Test, WithV1, Out));
  EXPECT_FALSE(Cache->lookup(Test, WithV2, Out));

  // Native models key on their architecture configuration, not just the
  // display name either.
  EXPECT_NE(modelByName("Power")->definitionFingerprint(),
            modelByName("ARM")->definitionFingerprint());
}

TEST(ResultCache, CollisionGuardRejectsForeignEntries) {
  const std::string Dir = scratchDir("cache_collide");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));
  std::vector<const Model *> Models = {modelByName("SC")};

  std::vector<LitmusTest> Tests = catalogueTests();
  SweepReport Report =
      SweepEngine({1}).run(makeJobs({Tests[0]}, Models));
  ASSERT_TRUE(Cache->store(Tests[0], Models, Report.Tests[0]));

  // Hand-plant Tests[0]'s entry under Tests[1]'s key: a (hypothetical)
  // hash collision. The stored name no longer matches, so lookup treats
  // it as a miss instead of serving a wrong verdict.
  const std::string From =
      Dir + "/" + resultCacheKey(Tests[0], Models).substr(0, 2) + "/" +
      resultCacheKey(Tests[0], Models) + ".json";
  const std::string ToKey = resultCacheKey(Tests[1], Models);
  std::filesystem::create_directories(Dir + "/" + ToKey.substr(0, 2));
  std::filesystem::copy_file(From, Dir + "/" + ToKey.substr(0, 2) + "/" +
                                       ToKey + ".json");
  SweepTestResult Out;
  EXPECT_FALSE(Cache->lookup(Tests[1], Models, Out));
}

namespace {

/// A copy of JSON object \p Obj with member \p Key replaced by \p V, or
/// dropped when \p V is null; member order is kept.
JsonValue withMember(const JsonValue &Obj, const std::string &Key,
                     const JsonValue &V) {
  JsonValue Out = JsonValue::object();
  for (const auto &[K, Val] : Obj.members())
    if (K != Key)
      Out.set(K, Val);
    else if (!V.isNull())
      Out.set(K, V);
  return Out;
}

/// \p Obj with its array member \p Key passed through \p Edit.
JsonValue editList(const JsonValue &Obj, const std::string &Key,
                   const std::function<void(std::vector<JsonValue> &)> &Edit) {
  std::vector<JsonValue> Items = Obj.get(Key)->elements();
  Edit(Items);
  JsonValue List = JsonValue::array();
  for (JsonValue &Item : Items)
    List.push(std::move(Item));
  return withMember(Obj, Key, List);
}

} // namespace

TEST(ResultCache, CorruptWellFormedEntriesMiss) {
  // One hand-corrupted but syntactically valid entry per invariant of the
  // entry reader and of the cache lookup: each must be a miss, and the
  // warm run that re-judges it must equal the cold run.
  const std::string Dir = scratchDir("cache_corrupt");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));
  const std::vector<const Model *> &Models = allModels();
  const CatalogEntry *Target = catalogEntry("mp+lwsync+addr");
  ASSERT_NE(Target, nullptr);
  const std::vector<LitmusTest> Tests = {catalogEntry("mp")->Test,
                                         Target->Test,
                                         catalogEntry("sb")->Test};
  SweepEngine Engine({2});
  SweepReport Cold = Engine.runStreamed(vectorSource(Tests), Models, 4,
                                        Cache->hooks(Models));
  ASSERT_EQ(Cold.CacheMisses, Tests.size());

  const std::string Path =
      Dir + "/" + resultCacheKey(Target->Test, Models).substr(0, 2) + "/" +
      resultCacheKey(Target->Test, Models) + ".json";
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  auto Pristine = JsonValue::parse(Buf.str());
  ASSERT_TRUE(static_cast<bool>(Pristine)) << Pristine.message();
  const JsonValue Entry = *Pristine->get("result");
  // Model block 2 is PSO, which allows the condition of mp+lwsync+addr.
  const JsonValue &Pso = Entry.get("models")->elements()[2];
  ASSERT_EQ(Pso.get("model")->asString(), "PSO");
  ASSERT_EQ(Pso.get("verdict")->asString(), "Allow");
  ASSERT_FALSE(Pso.get("allowed_states")->elements().empty());
  const JsonValue FirstAllowed = Pso.get("allowed_states")->elements()[0];

  using Items = std::vector<JsonValue>;
  auto EditModels = [&](const std::function<void(Items &)> &Edit) {
    return editList(Entry, "models", Edit);
  };
  auto EditStates = [&](const std::function<void(Items &)> &Edit) {
    return editList(Entry, "consistent_states", Edit);
  };
  const std::vector<std::pair<std::string, JsonValue>> Corruptions = {
      // Reader invariants.
      {"PSO verdict dropped", EditModels([](Items &M) {
         M[2] = withMember(M[2], "verdict", JsonValue());
       })},
      {"consistent states out of order",
       EditStates([](Items &S) { std::swap(S[0], S[1]); })},
      {"state key not canonical", EditStates([](Items &S) {
         S.back() = JsonValue(S.back().asString() + "x=0;");
       })},
      {"allowed state missing from consistent states",
       EditStates([&](Items &S) {
         S.erase(std::find(S.begin(), S.end(), FirstAllowed));
       })},
      {"candidates_allowed below the allowed-state count",
       EditModels([](Items &M) {
         M[2] = withMember(M[2], "candidates_allowed", JsonValue(0));
       })},
      {"negative and fractional counts",
       withMember(withMember(Entry, "candidates_total", JsonValue(-1)),
                  "candidates_consistent", JsonValue(2.5))},
      {"candidates_allowed above candidates_consistent",
       EditModels([&](Items &M) {
         M[2] = withMember(
             M[2], "candidates_allowed",
             JsonValue(Entry.get("candidates_consistent")->asNumber() + 1));
       })},
      // Lookup invariants.
      {"PSO model block dropped",
       EditModels([](Items &M) { M.erase(M.begin() + 2); })},
      {"model blocks reordered",
       EditModels([](Items &M) { std::swap(M[2], M[3]); })},
      {"extra model block", EditModels([](Items &M) { M.push_back(M[2]); })},
      {"PSO verdict contradicts its allowed states", EditModels([](Items &M) {
         M[2] = withMember(M[2], "verdict", JsonValue("Forbid"));
       })},
  };
  for (const auto &[What, Corrupt] : Corruptions) {
    {
      std::ofstream Out(Path);
      Out << withMember(*Pristine, "result", Corrupt).dump();
    }
    SweepTestResult Served;
    EXPECT_FALSE(Cache->lookup(Target->Test, Models, Served)) << What;
    SweepReport Warm = Engine.runStreamed(vectorSource(Tests), Models, 4,
                                          Cache->hooks(Models));
    EXPECT_EQ(Warm.CacheMisses, 1ull) << What;
    ASSERT_EQ(Warm.Tests.size(), Cold.Tests.size());
    for (size_t I = 0; I < Cold.Tests.size(); ++I)
      EXPECT_EQ(zeroWallTimes(sweepTestResultToJson(Warm.Tests[I])).dump(),
                zeroWallTimes(sweepTestResultToJson(Cold.Tests[I])).dump())
          << What << ": " << Cold.Tests[I].TestName;
    // The miss re-stored a sound entry.
    EXPECT_TRUE(Cache->lookup(Target->Test, Models, Served)) << What;
  }

  // An entry nested past the parser's depth limit is a miss too, not a
  // stack overflow.
  {
    std::ofstream Out(Path);
    Out << std::string(100000, '[');
  }
  SweepTestResult Served;
  EXPECT_FALSE(Cache->lookup(Target->Test, Models, Served));
  SweepReport Warm = Engine.runStreamed(vectorSource(Tests), Models, 4,
                                        Cache->hooks(Models));
  EXPECT_EQ(Warm.CacheMisses, 1ull);
  EXPECT_TRUE(Cache->lookup(Target->Test, Models, Served));
}

TEST(ResultCache, ErroredResultsAreNotCached) {
  const std::string Dir = scratchDir("cache_error");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));
  std::vector<const Model *> Models = {modelByName("SC")};
  LitmusTest Test = catalogueTests()[0];
  SweepTestResult Errored;
  Errored.TestName = Test.Name;
  Errored.Error = "synthetic failure";
  ASSERT_TRUE(Cache->store(Test, Models, Errored));
  SweepTestResult Out;
  EXPECT_FALSE(Cache->lookup(Test, Models, Out));
}

//===----------------------------------------------------------------------===//
// Checkpoint / resume
//===----------------------------------------------------------------------===//

TEST(Checkpoint, ResumeAfterKillEqualsUninterrupted) {
  const std::string Dir = scratchDir("checkpoint");
  const std::string Path = Dir + "/campaign.jsonl";
  const std::string Id = campaignId("tool=test;models=SC,TSO");

  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(12);
  std::vector<const Model *> Models = {modelByName("SC"),
                                       modelByName("TSO")};
  SweepEngine Engine({2});

  const std::string Reference =
      scrubbedDump(Engine.runStreamed(vectorSource(Tests), Models, 4));

  // Phase A: the "killed" run covers only the first 7 tests (batches of
  // 4: progress lines at 4 and 7).
  {
    auto Writer = CheckpointWriter::create(Path, Id);
    ASSERT_TRUE(static_cast<bool>(Writer)) << Writer.message();
    size_t LastWritten = 0;
    StreamHooks Hooks;
    Hooks.OnBatch = [&](const SweepReport &SoFar) {
      ASSERT_TRUE(Writer->appendBatch(SoFar.Tests.begin() + LastWritten,
                                      SoFar.Tests.end(), SoFar.Tests.size(),
                                      SoFar.CacheHits, SoFar.CacheMisses));
      LastWritten = SoFar.Tests.size();
    };
    std::vector<LitmusTest> Partial(Tests.begin(), Tests.begin() + 7);
    Engine.runStreamed(vectorSource(Partial), Models, 4, Hooks);
  }
  // The kill also tore the file mid-append: two entries of the next
  // batch landed without their progress line, the last one cut short.
  {
    std::ofstream Tail(Path, std::ios::app);
    JsonValue Line = JsonValue::object();
    Line.set("entry", sweepTestResultToJson(SweepTestResult{
                          "orphan", "", MultiSimulationResult{}, 0}));
    Tail << Line.dump(0) << "\n";
    Tail << "{\"entry\":{\"name\":\"torn";
  }

  // Phase B: load, trim to the last completed batch, resume.
  auto State = loadCheckpoint(Path, Id);
  ASSERT_TRUE(static_cast<bool>(State)) << State.message();
  EXPECT_EQ(State->Consumed, 7ull);
  ASSERT_EQ(State->Tests.size(), 7u);

  StreamHooks Hooks;
  Hooks.SkipTests = State->Consumed;
  SweepReport Resumed =
      Engine.runStreamed(vectorSource(Tests), Models, 4, Hooks);
  Resumed.Tests.insert(Resumed.Tests.begin(),
                       std::make_move_iterator(State->Tests.begin()),
                       std::make_move_iterator(State->Tests.end()));
  EXPECT_EQ(scrubbedDump(Resumed), Reference);
}

TEST(Checkpoint, CorruptProgressCountsTrimTheTail) {
  // A progress line whose counts are not counts is treated like a torn
  // one: resume trusts only the batches before it.
  const std::string Dir = scratchDir("checkpoint_counts");
  const std::string Path = Dir + "/c.jsonl";
  const std::string Id = campaignId("spec");
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(2);
  SweepReport Report =
      SweepEngine({1}).run(makeJobs(Tests, {modelByName("SC")}));
  {
    auto Writer = CheckpointWriter::create(Path, Id);
    ASSERT_TRUE(static_cast<bool>(Writer)) << Writer.message();
    ASSERT_TRUE(Writer->appendBatch(Report.Tests.begin(),
                                    Report.Tests.begin() + 1, 1, 0, 1));
  }
  for (const char *Bad : {"-1", "1.5", "1e300", "\"2\""}) {
    std::filesystem::copy_file(
        Path, Path + ".bad", std::filesystem::copy_options::overwrite_existing);
    {
      std::ofstream Tail(Path + ".bad", std::ios::app);
      Tail << R"({"entry":)" << sweepTestResultToJson(Report.Tests[1]).dump(0)
           << "}\n";
      Tail << R"({"progress":{"consumed":2,"hits":)" << Bad
           << R"(,"misses":2}})" << "\n";
    }
    auto State = loadCheckpoint(Path + ".bad", Id);
    ASSERT_TRUE(static_cast<bool>(State)) << State.message();
    EXPECT_EQ(State->Consumed, 1ull) << Bad;
    EXPECT_EQ(State->CacheMisses, 1ull) << Bad;
    EXPECT_EQ(State->Tests.size(), 1u) << Bad;
  }
}

TEST(Checkpoint, RefusesForeignCampaigns) {
  const std::string Dir = scratchDir("checkpoint_id");
  const std::string Path = Dir + "/c.jsonl";
  {
    auto Writer = CheckpointWriter::create(Path, campaignId("spec-a"));
    ASSERT_TRUE(static_cast<bool>(Writer));
  }
  EXPECT_TRUE(static_cast<bool>(loadCheckpoint(Path, campaignId("spec-a"))));
  auto Foreign = loadCheckpoint(Path, campaignId("spec-b"));
  EXPECT_FALSE(static_cast<bool>(Foreign));
  EXPECT_NE(Foreign.message().find("different campaign"), std::string::npos);
}

TEST(Checkpoint, ResumeWithoutCacheWritesNoCacheStanza) {
  // A campaign checkpointed while caching, resumed without --cache: the
  // resumed run looks nothing up, so whatever the checkpoint counted, its
  // report reads like an uncached run's.
  const std::string Dir = scratchDir("resume_nocache");
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(12);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("TSO")};
  const SweepEngine Engine({2});
  cli::CampaignFlags Flags;
  Flags.CacheDir = Dir + "/cache";
  Flags.CheckpointPath = Dir + "/campaign.jsonl";
  auto Cached = cli::runCampaignSweep("test", Engine, vectorSource(Tests),
                                      Models, Flags, "spec");
  ASSERT_TRUE(static_cast<bool>(Cached)) << Cached.message();
  EXPECT_TRUE(Cached->CacheUsed);
  EXPECT_EQ(Cached->CacheMisses, 12ull);

  Flags.CacheDir.clear();
  Flags.Resume = true;
  auto Resumed = cli::runCampaignSweep("test", Engine, vectorSource(Tests),
                                       Models, Flags, "spec");
  ASSERT_TRUE(static_cast<bool>(Resumed)) << Resumed.message();
  EXPECT_FALSE(Resumed->CacheUsed);
  EXPECT_EQ(Resumed->CacheHits + Resumed->CacheMisses, 0ull);
  EXPECT_EQ(sweepReportToJson(*Resumed).get("cache"), nullptr);
  EXPECT_EQ(Resumed->Tests.size(), Tests.size());
}

//===----------------------------------------------------------------------===//
// Merging
//===----------------------------------------------------------------------===//

namespace {

/// Runs one shard of the catalogue campaign and returns its report
/// document with the shard stanza, exactly as cats_sweep --shard writes.
JsonValue shardReportDoc(const std::vector<LitmusTest> &Tests,
                         const std::vector<const Model *> &Models,
                         unsigned K, unsigned N) {
  SweepReport Report = SweepEngine({2}).runStreamed(
      shardTestSource(vectorSource(Tests), ShardSpec{K, N}), Models, 8);
  JsonValue Doc = sweepReportToJson(Report);
  Doc.set("shard", shardToJson(ShardSpec{K, N}));
  return Doc;
}

} // namespace

TEST(Merge, ShardedSweepMergesByteIdenticallyToSingleRun) {
  const std::vector<LitmusTest> Tests = catalogueTests();
  std::vector<const Model *> Models = {modelByName("SC"),
                                       modelByName("Power")};
  const unsigned N = 3;

  const std::string Reference = scrubbedDump(
      SweepEngine({2}).runStreamed(vectorSource(Tests), Models, 8));

  std::vector<JsonValue> Shards;
  for (unsigned K = 1; K <= N; ++K)
    Shards.push_back(shardReportDoc(Tests, Models, K, N));

  auto Merged = mergeSweepReports(Shards);
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  EXPECT_EQ(zeroWallTimes(*Merged).dump(), Reference);
  // Shard order on the command line must not matter.
  std::swap(Shards[0], Shards[2]);
  auto Shuffled = mergeSweepReports(Shards);
  ASSERT_TRUE(static_cast<bool>(Shuffled));
  EXPECT_EQ(zeroWallTimes(*Shuffled).dump(), Reference);
}

TEST(Merge, SingleInputPassesThrough) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(5);
  std::vector<const Model *> Models = {modelByName("SC")};
  JsonValue Doc =
      sweepReportToJson(SweepEngine({1}).runStreamed(
          vectorSource(Tests), Models, 8));
  auto Merged = mergeSweepReports({Doc});
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  EXPECT_EQ(Merged->dump(), Doc.dump());
}

TEST(Merge, RejectsBrokenShardSets) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  std::vector<const Model *> Models = {modelByName("SC")};

  // Incomplete: 2 of 3 shards.
  auto Incomplete = mergeSweepReports({shardReportDoc(Tests, Models, 1, 3),
                                       shardReportDoc(Tests, Models, 2, 3)});
  EXPECT_FALSE(static_cast<bool>(Incomplete));
  EXPECT_NE(Incomplete.message().find("incomplete"), std::string::npos);

  // Duplicate index.
  auto Duplicate = mergeSweepReports({shardReportDoc(Tests, Models, 1, 2),
                                      shardReportDoc(Tests, Models, 1, 2)});
  EXPECT_FALSE(static_cast<bool>(Duplicate));

  // Sharded mixed with unsharded.
  JsonValue Plain = sweepReportToJson(
      SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 8));
  auto Mixed =
      mergeSweepReports({shardReportDoc(Tests, Models, 1, 2), Plain});
  EXPECT_FALSE(static_cast<bool>(Mixed));
}

TEST(Merge, RejectsCorruptEntries) {
  // The corruptions cats_merge used to copy into its output: each test
  // entry must pass the entry reader, and the error names the input and
  // the test.
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const JsonValue Doc = sweepReportToJson(
      SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 8));
  const JsonValue Entry = Doc.get("tests")->elements()[3];
  const std::string Name = Entry.get("name")->asString();
  // Model block 0 is SC, which allows at least one state of every test.
  ASSERT_FALSE(Entry.get("models")->elements()[0].get("allowed_states")
                   ->elements()
                   .empty());

  using Items = std::vector<JsonValue>;
  auto EditSc = [&](const std::function<JsonValue(const JsonValue &)> &Edit) {
    return editList(Entry, "models", [&](Items &M) { M[0] = Edit(M[0]); });
  };
  auto WithEntry = [&](const JsonValue &E) {
    return editList(Doc, "tests", [&](Items &T) { T[3] = E; });
  };

  const std::vector<std::pair<std::string, JsonValue>> Corruptions = {
      {"verdict deleted", EditSc([](const JsonValue &M) {
         return withMember(M, "verdict", JsonValue());
       })},
      {"ill-formed allowed state appended", EditSc([](const JsonValue &M) {
         return editList(M, "allowed_states",
                         [](Items &S) { S.push_back(JsonValue("1:r3]=1")); });
       })},
      {"candidates_allowed zeroed", EditSc([](const JsonValue &M) {
         return withMember(M, "candidates_allowed", JsonValue(0));
       })},
      {"allowed states deleted", EditSc([](const JsonValue &M) {
         return withMember(M, "allowed_states", JsonValue::array());
       })},
  };
  for (const auto &[What, Corrupt] : Corruptions) {
    auto Merged = mergeSweepReports({Doc, WithEntry(Corrupt)});
    ASSERT_FALSE(static_cast<bool>(Merged)) << What;
    EXPECT_EQ(Merged.message().rfind("input 2: test '" + Name + "': ", 0), 0u)
        << What << ": " << Merged.message();
  }

  // A sound entry keeps its own JSON, members the reader does not know
  // included.
  JsonValue Noted = Entry;
  Noted.set("note", "kept");
  const JsonValue Annotated = WithEntry(Noted);
  auto Merged = mergeSweepReports({Annotated});
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  EXPECT_EQ(Merged->dump(), Annotated.dump());
}

TEST(Merge, CacheCountersSumAcrossShards) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  std::vector<const Model *> Models = {modelByName("SC")};
  const std::string Dir = scratchDir("merge_cache");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));

  std::vector<JsonValue> Docs;
  for (unsigned K = 1; K <= 2; ++K) {
    SweepReport R = SweepEngine({1}).runStreamed(
        shardTestSource(vectorSource(Tests), ShardSpec{K, 2}), Models, 4,
        Cache->hooks(Models));
    JsonValue Doc = sweepReportToJson(R);
    Doc.set("shard", shardToJson(ShardSpec{K, 2}));
    Docs.push_back(Doc);
  }
  auto Merged = mergeSweepReports(Docs);
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  const JsonValue *CacheStanza = Merged->get("cache");
  ASSERT_NE(CacheStanza, nullptr);
  EXPECT_EQ(CacheStanza->get("hits")->asNumber() +
                CacheStanza->get("misses")->asNumber(),
            static_cast<double>(Tests.size()));
}

TEST(Merge, DispatchRejectsMixedAndUnknownSchemas) {
  JsonValue Sweep = JsonValue::object();
  Sweep.set("schema", "cats-sweep-report/1");
  Sweep.set("tests", JsonValue::array());
  JsonValue Mine = JsonValue::object();
  Mine.set("schema", "cats-mine-report/1");
  EXPECT_FALSE(static_cast<bool>(mergeReports({Sweep, Mine})));

  JsonValue Run = JsonValue::object();
  Run.set("schema", "cats-run-report/1");
  auto Unknown = mergeReports({Run});
  EXPECT_FALSE(static_cast<bool>(Unknown));
  EXPECT_NE(Unknown.message().find("not mergeable"), std::string::npos);
}

TEST(Merge, ZeroWallTimesOnlyTouchesNumericWallFields) {
  auto Doc = JsonValue::parse(
      R"({"wall_seconds": 1.5, "nested": [{"wall_seconds": 2}],)"
      R"( "wall_seconds_str": "keep", "other": 3})");
  ASSERT_TRUE(static_cast<bool>(Doc));
  JsonValue Zeroed = zeroWallTimes(*Doc);
  EXPECT_EQ(Zeroed.get("wall_seconds")->asNumber(), 0);
  EXPECT_EQ(Zeroed.get("nested")->elements()[0].get("wall_seconds")
                ->asNumber(),
            0);
  EXPECT_EQ(Zeroed.get("other")->asNumber(), 3);
}

//===----------------------------------------------------------------------===//
// Mine-report merging
//===----------------------------------------------------------------------===//

TEST(MineMerge, ShardAggregatesEqualTheFullMine) {
  const std::vector<LitmusTest> Tests = catalogueTests();
  std::vector<const Model *> Models = {modelByName("SC"),
                                       modelByName("Power")};
  SweepEngine Engine({2});

  MineReport Full = mineSweepReport(
      Engine.runStreamed(vectorSource(Tests), Models, 16));

  std::vector<MineReport> Parts;
  for (unsigned K = 1; K <= 3; ++K)
    Parts.push_back(mineSweepReport(Engine.runStreamed(
        shardTestSource(vectorSource(Tests), ShardSpec{K, 3}), Models, 16)));
  auto Merged = mergeMineReports(Parts);
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();

  EXPECT_EQ(Merged->CorpusTests, Full.CorpusTests);
  EXPECT_EQ(Merged->CorpusErrors, Full.CorpusErrors);
  EXPECT_EQ(Merged->Models, Full.Models);
  ASSERT_EQ(Merged->Families.size(), Full.Families.size());
  for (size_t I = 0; I < Full.Families.size(); ++I) {
    const FamilyVerdicts &A = Full.Families[I];
    const FamilyVerdicts &B = Merged->Families[I];
    EXPECT_EQ(A.Family, B.Family);
    EXPECT_EQ(A.Tests, B.Tests);
    ASSERT_EQ(A.PerModel.size(), B.PerModel.size());
    for (size_t J = 0; J < A.PerModel.size(); ++J) {
      EXPECT_EQ(A.PerModel[J].Model, B.PerModel[J].Model);
      EXPECT_EQ(A.PerModel[J].Allowed, B.PerModel[J].Allowed);
      EXPECT_EQ(A.PerModel[J].Forbidden, B.PerModel[J].Forbidden);
    }
    // Merged test_names are the sorted normal form.
    std::vector<std::string> Sorted = A.TestNames;
    std::sort(Sorted.begin(), Sorted.end());
    EXPECT_EQ(B.TestNames, Sorted) << A.Family;
  }
}

TEST(MineMerge, JsonRoundTripAndStaticRefusal) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(10);
  std::vector<const Model *> Models = {modelByName("SC")};
  MineReport Mined = mineSweepReport(
      SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 8));

  JsonValue Doc = mineReportToJson(Mined);
  auto Back = mineReportFromJson(Doc);
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  EXPECT_EQ(mineReportToJson(*Back).dump(), Doc.dump());

  // Reports carrying static analyses cannot be merged shard-wise.
  Mined.StaticReports.push_back(MoleReport{});
  auto Refused = mineReportFromJson(mineReportToJson(Mined));
  EXPECT_FALSE(static_cast<bool>(Refused));
  EXPECT_NE(Refused.message().find("static"), std::string::npos);
}

TEST(MineMerge, JsonLevelMergeMatchesStructMerge) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(12);
  std::vector<const Model *> Models = {modelByName("SC")};
  SweepEngine Engine({1});

  std::vector<JsonValue> Docs;
  std::vector<MineReport> Parts;
  for (unsigned K = 1; K <= 2; ++K) {
    MineReport Part = mineSweepReport(Engine.runStreamed(
        shardTestSource(vectorSource(Tests), ShardSpec{K, 2}), Models, 8));
    Docs.push_back(mineReportToJson(Part));
    Parts.push_back(std::move(Part));
  }
  auto ViaJson = mergeMineReports(Docs);
  ASSERT_TRUE(static_cast<bool>(ViaJson)) << ViaJson.message();
  auto ViaStructs = mergeMineReports(Parts);
  ASSERT_TRUE(static_cast<bool>(ViaStructs));
  EXPECT_EQ(ViaJson->dump(), mineReportToJson(*ViaStructs).dump());
}
