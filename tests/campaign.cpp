//===- campaign.cpp - Sharding, caching, merging --------------------------===//
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
/// any test mutation misses, and a campaign rerun on its cache after a
/// kill must give the uninterrupted run's records. Also covers the
/// cats-sweep-report/1 and /2 record reader (outcome keys included), the
/// cache's log layout, seeded mutations of the two artifacts that carry
/// records (reports and cache logs), and the mine-report shard merge.
///
//===----------------------------------------------------------------------===//

#include "../tools/CampaignCli.h"
#include "campaign/Merge.h"
#include "campaign/ResultCache.h"
#include "campaign/Shard.h"
#include "cat/CatAdapter.h"
#include "diy/Enumerate.h"
#include "litmus/Catalog.h"
#include "model/Registry.h"
#include "mole/Mine.h"
#include "obs/Progress.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <set>

#include <sys/resource.h>
#include <unistd.h>

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

/// 64-bit FNV-1a over \p Text: the sum a cache log line carries.
uint64_t fnv1a64(const std::string &Text) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// A cache log line holding \p Record under \p Key, with its sum.
std::string cacheLine(const std::string &Key, const std::string &Record) {
  return Key + " " +
         strFormat("%016llx",
                   static_cast<unsigned long long>(fnv1a64(Record))) +
         " " + Record + "\n";
}

/// The paths of the files in cache directory \p Dir, in name order.
std::vector<std::string> cacheFiles(const std::string &Dir) {
  std::vector<std::string> Out;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Out.push_back(Entry.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Appends \p Text to file \p Path.
void appendTo(const std::string &Path, const std::string &Text) {
  std::string Old;
  ASSERT_TRUE(readWholeFile(Path, Old)) << Path;
  ASSERT_FALSE(writeWholeFile(Path, Old + Text).failed()) << Path;
}

/// Test record \p Record (/2) as a /1 build wrote it: each model's
/// "allowed" indices spelled out as the "allowed_states" they index (an
/// index past the table as a key no table holds).
JsonValue asV1Record(const JsonValue &Record) {
  JsonValue Out = Record;
  if (!Out.get("models"))
    return Out;
  const std::vector<JsonValue> &Table =
      Out.get("consistent_states")->elements();
  for (JsonValue &M : Out.get("models")->elements())
    for (auto &[Key, Member] : M.members())
      if (Key == "allowed") {
        JsonValue States = JsonValue::array();
        for (const JsonValue &Idx : Member.elements()) {
          const auto I = static_cast<size_t>(Idx.asNumber());
          States.push(I < Table.size() ? Table[I] : JsonValue("?"));
        }
        Key = "allowed_states";
        Member = std::move(States);
      }
  return Out;
}

/// Report \p Doc (/2) as a /1 build wrote it, records pretty-printed.
JsonValue asV1Report(const JsonValue &Doc) {
  auto Copy = JsonValue::parse(Doc.dump());
  EXPECT_TRUE(static_cast<bool>(Copy));
  Copy->set("schema", "cats-sweep-report/1");
  for (JsonValue &Test : Copy->get("tests")->elements())
    Test = asV1Record(Test);
  return Copy.take();
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
    TestSource Src =
        inlineSource(shardSource(vectorSource(Tests), ShardSpec{K, N}));
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

TEST(Shard, ParsedOnWorkersAStagedSweepKeepsItsReportsErrorsAndShards) {
  // A directory of the catalogue's tests with unparsable files among
  // them, swept under --filter, whole and as each shard of 3. The files
  // are parsed on the workers and admitted in file order, so every worker
  // count gives the one-worker reports and load errors, and those equal
  // the parse-at-pull-time sweep of the same files.
  const std::string Dir = scratchDir("staged_sweep");
  const std::vector<LitmusTest> Tests = catalogueTests();
  for (size_t I = 0; I < Tests.size(); ++I) {
    const std::string Stem = Dir + strFormat("/%03zu", 2 * I);
    ASSERT_FALSE(writeWholeFile(Stem + ".litmus", Tests[I].toString()).failed());
    if (I % 9 == 4) {
      ASSERT_FALSE(writeWholeFile(Dir + strFormat("/%03zu.litmus", 2 * I + 1),
                                  "Power broken\n{ }\nP0:\n  frob x\n")
                       .failed());
    }
  }
  const std::string Filter = "^[^c]";
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};

  struct Run {
    std::string Report;
    std::vector<std::string> Errors;
    std::vector<std::string> Names;
  };
  auto Sweep = [&](ShardSpec Shard, unsigned Workers, bool Staged) {
    Run Out;
    cli::CampaignFlags Flags;
    Flags.Shard = Shard;
    StagedSource Source;
    if (Staged) {
      auto S = stageCampaignTests({Dir}, false, Filter, &Out.Errors);
      EXPECT_TRUE(static_cast<bool>(S)) << S.message();
      Source = S.take();
    } else {
      auto S = stageCampaignTests({Dir}, false, Filter, &Out.Errors);
      EXPECT_TRUE(static_cast<bool>(S)) << S.message();
      Source = inlineSource(S.take());
    }
    auto Report =
        cli::runCampaignSweep(SweepEngine({Workers}), Source, Models, Flags);
    EXPECT_TRUE(static_cast<bool>(Report)) << Report.message();
    for (const SweepTestResult &T : Report->Tests)
      Out.Names.push_back(T.TestName);
    Report->Jobs = 1;
    Out.Report = scrubbedDump(*Report);
    return Out;
  };

  std::vector<std::string> WholeNames;
  std::vector<std::vector<std::string>> ShardNames;
  for (unsigned K = 0; K <= 3; ++K) {
    const ShardSpec Shard = K ? ShardSpec{K, 3} : ShardSpec{};
    SCOPED_TRACE("shard " + Shard.toString());
    const Run Reference = Sweep(Shard, 1, false);
    ASSERT_EQ(Reference.Errors.size(), 6u);
    for (size_t I = 1; I < Reference.Errors.size(); ++I)
      EXPECT_LT(Reference.Errors[I - 1], Reference.Errors[I]);
    for (unsigned Workers = 1; Workers <= 8; ++Workers) {
      const Run Staged = Sweep(Shard, Workers, true);
      EXPECT_EQ(Staged.Report, Reference.Report) << Workers << " workers";
      EXPECT_EQ(Staged.Errors, Reference.Errors) << Workers << " workers";
      EXPECT_EQ(Staged.Names, Reference.Names) << Workers << " workers";
    }
    (K ? ShardNames.emplace_back() : WholeNames) = Reference.Names;
  }
  // The filter kept some and dropped some, and the shards interleave
  // back to the whole sweep, as cats_merge takes them.
  EXPECT_GT(WholeNames.size(), 30u);
  EXPECT_LT(WholeNames.size(), Tests.size());
  std::vector<std::string> Interleaved;
  for (size_t Offset = 0; Interleaved.size() < WholeNames.size(); ++Offset)
    for (const std::vector<std::string> &Names : ShardNames)
      if (Offset < Names.size())
        Interleaved.push_back(Names[Offset]);
  EXPECT_EQ(Interleaved, WholeNames);
}

//===----------------------------------------------------------------------===//
// Concatenated sources
//===----------------------------------------------------------------------===//

TEST(Concat, EachPartKeepsItsIndicesStepsAndDrops) {
  // Two staged parts of the catalogue, each with its own make and
  // admission: the first part's admission drops every third item, and
  // the second part's make fails on every fourth item, which its
  // admission records and drops. The sweep emits the first part's items,
  // then the second's, each under its own part's index, and each part's
  // make and admission see only their own items, in order.
  const std::vector<LitmusTest> Tests = catalogueTests();
  const std::vector<std::vector<LitmusTest>> Parts = {
      {Tests.begin(), Tests.begin() + 20}, {Tests.begin() + 20, Tests.end()}};
  const std::vector<const Model *> Models = {modelByName("SC")};
  for (unsigned Workers = 1; Workers <= 8; ++Workers) {
    SCOPED_TRACE(std::to_string(Workers) + " workers");
    std::mutex Lock;
    std::vector<std::multiset<size_t>> Made(2);
    std::vector<std::vector<size_t>> Admitted(2);
    std::vector<std::string> Errors;
    auto Part = [&](unsigned P) {
      auto Next = std::make_shared<size_t>(0);
      StagedSource Source;
      Source.Pull = [&, P, Next](StagedTest &Item) {
        if (*Next == Parts[P].size())
          return false;
        Item.Index = (*Next)++;
        return true;
      };
      Source.Make = [&, P](StagedTest &Item) {
        {
          std::lock_guard<std::mutex> L(Lock);
          Made[P].insert(Item.Index);
        }
        Item.Test = Parts[P][Item.Index];
        Item.Error = P == 1 && Item.Index % 4 == 1 ? "cannot make" : "";
      };
      Source.Admit = [&, P](StagedTest &Item) {
        Admitted[P].push_back(Item.Index);
        if (!Item.Error.empty()) {
          Errors.push_back(Item.Test.Name + ": " + Item.Error);
          return false;
        }
        return P == 1 || Item.Index % 3 != 2;
      };
      return Source;
    };
    std::vector<std::string> Emitted;
    StreamHooks Hooks;
    Hooks.OnResult = [&](StagedTest &Item, SweepTestResult &R) {
      EXPECT_EQ(R.TestName, Parts[Item.Part][Item.Index].Name);
      Emitted.push_back(strFormat("%u:%zu:", Item.Part, Item.Index) +
                        R.TestName);
    };
    const SweepReport Report = SweepEngine({Workers}).runStreamed(
        concatSources(Part(0), Part(1)), Models, 4, Hooks);

    std::vector<std::string> Expected, ExpectedErrors;
    for (unsigned P = 0; P < 2; ++P) {
      std::vector<size_t> Each;
      for (size_t I = 0; I < Parts[P].size(); ++I) {
        Each.push_back(I);
        EXPECT_EQ(Made[P].count(I), 1u) << P << ":" << I;
        if (P == 1 && I % 4 == 1)
          ExpectedErrors.push_back(Parts[P][I].Name + ": cannot make");
        else if (P == 1 || I % 3 != 2)
          Expected.push_back(strFormat("%u:%zu:", P, I) + Parts[P][I].Name);
      }
      EXPECT_EQ(Made[P].size(), Parts[P].size()) << P;
      EXPECT_EQ(Admitted[P], Each) << P;
    }
    EXPECT_EQ(Emitted, Expected);
    EXPECT_EQ(Errors, ExpectedErrors);
    EXPECT_EQ(Report.Reported, Expected.size());
  }
}

TEST(Concat, LoadAndSynthesisErrorsComeInOrder) {
  // A filtered directory with unparsable files among the catalogue's,
  // then diy cycles with unsynthesizable ones among them, both reporting
  // into one list: the load errors come in file order, then the
  // synthesis errors in cycle order, and the tests in the same order as
  // an inline drain of the concatenation, at every worker count.
  const std::string Dir = scratchDir("concat_errors");
  const std::vector<LitmusTest> Tests = catalogueTests();
  for (size_t I = 0; I < Tests.size(); ++I) {
    ASSERT_FALSE(writeWholeFile(Dir + strFormat("/%03zu.litmus", 2 * I),
                                Tests[I].toString())
                     .failed());
    if (I % 9 == 4) {
      ASSERT_FALSE(writeWholeFile(Dir + strFormat("/%03zu.litmus", 2 * I + 1),
                                  "Power broken\n{ }\nP0:\n  frob x\n")
                       .failed());
    }
  }
  EnumerateOptions Opts;
  Opts.MaxEdges = 4;
  std::vector<EnumeratedCycle> Cycles = enumerateAll(Opts);
  size_t Bad = 0;
  for (size_t I = 3; I < Cycles.size(); I += 7, ++Bad)
    Cycles.insert(Cycles.begin() + I,
                  EnumeratedCycle{DiyCycle(), strFormat("bad%zu", I)});
  const auto Shared =
      std::make_shared<const std::vector<EnumeratedCycle>>(Cycles);
  auto Corpus = [&](std::vector<std::string> &Errors) {
    auto Files = stageCampaignTests({Dir}, false, "^[^c]", &Errors);
    EXPECT_TRUE(static_cast<bool>(Files)) << Files.message();
    return concatSources(Files.take(),
                         stageDiyTests(Shared, Arch::Power, &Errors));
  };

  std::vector<std::string> InlineErrors, InlineNames;
  TestSource Drain = inlineSource(Corpus(InlineErrors));
  for (LitmusTest Test; Drain(Test);)
    InlineNames.push_back(Test.Name);
  ASSERT_GT(Bad, 5u);
  ASSERT_EQ(InlineErrors.size(), 6u + Bad);
  for (size_t I = 0; I < 6; ++I)
    EXPECT_EQ(InlineErrors[I].rfind(Dir + "/", 0), 0u) << InlineErrors[I];
  for (size_t I = 6; I < InlineErrors.size(); ++I)
    EXPECT_EQ(InlineErrors[I].rfind("bad", 0), 0u) << InlineErrors[I];
  EXPECT_TRUE(std::is_sorted(InlineErrors.begin(), InlineErrors.begin() + 6));

  const std::vector<const Model *> Models = {modelByName("SC")};
  for (unsigned Workers = 1; Workers <= 8; ++Workers) {
    std::vector<std::string> Errors, Names;
    StreamHooks Hooks;
    Hooks.OnResult = [&](StagedTest &, SweepTestResult &R) {
      Names.push_back(R.TestName);
    };
    SweepEngine({Workers}).runStreamed(Corpus(Errors), Models, 4, Hooks);
    EXPECT_EQ(Errors, InlineErrors) << Workers << " workers";
    EXPECT_EQ(Names, InlineNames) << Workers << " workers";
  }
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
  // The /2 spelling: indices into the consistent states.
  auto Indexed = [](const std::string &Verdict, int Allowed,
                    const std::string &Indices) {
    return R"({"model": "SC", )" + Verdict +
           R"( "candidates_allowed": )" + std::to_string(Allowed) +
           R"(, "allowed": )" + Indices + "}";
  };
  auto SoundV2 = Parse(Entry(Table, Indexed(Allow, 3, "[0, 1]")));
  ASSERT_TRUE(static_cast<bool>(SoundV2)) << SoundV2.message();
  EXPECT_EQ(SoundV2->Result.PerModel[0].AllowedOutcomes,
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(sweepTestResultToJson(*SoundV2), sweepTestResultToJson(*Sound));

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
      // /2: indices in range, strictly ascending, and one list per block.
      {"allowed index past the consistent states",
       Entry(Table, Indexed(Allow, 2, "[2]"))},
      {"allowed index repeated", Entry(Table, Indexed(Allow, 2, "[1, 1]"))},
      {"allowed indices descending",
       Entry(Table, Indexed(Allow, 2, "[1, 0]"))},
      {"allowed index negative", Entry(Table, Indexed(Allow, 2, "[-1]"))},
      {"allowed index fractional", Entry(Table, Indexed(Allow, 2, "[0.5]"))},
      {"allowed index not a number",
       Entry(Table, Indexed(Allow, 2, R"(["0"])"))},
      {"allowed not an array", Entry(Table, Indexed(Forbid, 0, "0"))},
      {"Allow verdict without allowed indices",
       Entry(Table, Indexed(Allow, 0, "[]"))},
      {"both allowed and allowed_states",
       Entry(Table, R"({"model": "SC", "verdict": "Allow",)"
                    R"( "candidates_allowed": 2, "allowed": [0],)"
                    R"( "allowed_states": ["x=1;"]})")},
      {"neither allowed nor allowed_states",
       Entry(Table, R"({"model": "SC", "verdict": "Forbid",)"
                    R"( "candidates_allowed": 0})")},
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

TEST(ResultCache, ATestTwiceInOneSweepMissesTwiceAtAnyWorkerCount) {
  // The catalogue twice into an empty cache: whether the first copy's
  // store comes before the second copy's lookup depends on the worker
  // count and the batch, so the lookups serve only what was stored
  // before the sweep, and every copy misses and is stored. A warm rerun
  // hits every test.
  std::vector<LitmusTest> Tests = catalogueTests();
  const size_t Once = Tests.size();
  for (size_t I = 0; I < Once; ++I)
    Tests.push_back(Tests[I]);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  for (unsigned Batch : {4u, 64u})
    for (unsigned Workers : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(strFormat("%u workers, batches of %u", Workers, Batch));
      const std::string Dir = scratchDir("cache_twice");
      auto Cache = ResultCache::open(Dir);
      ASSERT_TRUE(static_cast<bool>(Cache)) << Cache.message();
      const SweepReport Cold = SweepEngine({Workers}).runStreamed(
          vectorSource(Tests), Models, Batch, Cache->hooks(Models));
      EXPECT_EQ(Cold.CacheHits, 0u);
      EXPECT_EQ(Cold.CacheMisses, 2 * Once);
      size_t Lines = 0;
      for (const auto &Log : std::filesystem::directory_iterator(Dir)) {
        std::string Text;
        ASSERT_TRUE(readWholeFile(Log.path().string(), Text));
        Lines += std::count(Text.begin(), Text.end(), '\n') - 1;
      }
      EXPECT_EQ(Lines, 2 * Once);
      const SweepReport Warm = SweepEngine({Workers}).runStreamed(
          vectorSource(Tests), Models, Batch, Cache->hooks(Models));
      EXPECT_EQ(Warm.CacheHits, 2 * Once);
      ASSERT_EQ(Warm.Tests.size(), Cold.Tests.size());
      for (size_t I = 0; I < Cold.Tests.size(); ++I)
        EXPECT_EQ(zeroWallTimes(sweepTestResultToJson(Warm.Tests[I])).dump(),
                  zeroWallTimes(sweepTestResultToJson(Cold.Tests[I])).dump())
            << I;
    }
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
  std::vector<const Model *> Models = {modelByName("SC")};
  std::vector<LitmusTest> Tests = catalogueTests();
  SweepReport Report =
      SweepEngine({1}).run(makeJobs({Tests[0]}, Models));
  {
    auto Cache = ResultCache::open(Dir);
    ASSERT_TRUE(static_cast<bool>(Cache));
    ASSERT_TRUE(Cache->store(Tests[0], Models, Report.Tests[0]));
  }

  // Plant Tests[0]'s record, with a valid sum, under Tests[1]'s key: a
  // (hypothetical) hash collision. The stored name no longer matches, so
  // lookup treats it as a miss instead of serving a wrong verdict.
  const std::vector<std::string> Logs = cacheFiles(Dir);
  ASSERT_EQ(Logs.size(), 1u);
  appendTo(Logs[0],
           cacheLine(resultCacheKey(Tests[1], Models),
                     sweepTestResultToJson(Report.Tests[0]).dump(0)));
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));
  SweepTestResult Out;
  EXPECT_FALSE(Cache->lookup(Tests[1], Models, Out));
  EXPECT_TRUE(Cache->lookup(Tests[0], Models, Out));
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
  // One hand-corrupted record per invariant of the record reader and of
  // the cache lookup, each appended as the newest line of its key with a
  // valid sum, so the guards and not the sum must reject it. Each must be
  // a miss on reopening, the warm run that re-judges it must equal the
  // cold run, and its re-store must hit once the cache is reopened again.
  const std::string Dir = scratchDir("cache_corrupt");
  const std::vector<const Model *> &Models = allModels();
  const CatalogEntry *Target = catalogEntry("mp+lwsync+addr");
  ASSERT_NE(Target, nullptr);
  const std::vector<LitmusTest> Tests = {catalogEntry("mp")->Test,
                                         Target->Test,
                                         catalogEntry("sb")->Test};
  SweepEngine Engine({2});
  SweepReport Cold;
  {
    auto Cache = ResultCache::open(Dir);
    ASSERT_TRUE(static_cast<bool>(Cache));
    Cold = Engine.runStreamed(vectorSource(Tests), Models, 4,
                              Cache->hooks(Models));
  }
  ASSERT_EQ(Cold.CacheMisses, Tests.size());

  // The stored record, read back from the log.
  const std::string Key = resultCacheKey(Target->Test, Models);
  const std::vector<std::string> Logs = cacheFiles(Dir);
  ASSERT_EQ(Logs.size(), 1u);
  std::string Log;
  ASSERT_TRUE(readWholeFile(Logs[0], Log));
  const size_t At = Log.find("\n" + Key + " ");
  ASSERT_NE(At, std::string::npos);
  const size_t RecordAt = At + 1 + 32 + 1 + 16 + 1;
  auto Stored = JsonValue::parse(
      Log.substr(RecordAt, Log.find('\n', RecordAt) - RecordAt));
  ASSERT_TRUE(static_cast<bool>(Stored)) << Stored.message();
  const JsonValue Entry = Stored.take();
  // Model block 2 is PSO, which allows the condition of mp+lwsync+addr.
  const JsonValue &Pso = Entry.get("models")->elements()[2];
  ASSERT_EQ(Pso.get("model")->asString(), "PSO");
  ASSERT_EQ(Pso.get("verdict")->asString(), "Allow");
  ASSERT_GE(Pso.get("allowed")->elements().size(), 2u);
  const double TableSize =
      static_cast<double>(Entry.get("consistent_states")->elements().size());

  using Items = std::vector<JsonValue>;
  auto EditModels = [&](const std::function<void(Items &)> &Edit) {
    return editList(Entry, "models", Edit);
  };
  auto EditStates = [&](const std::function<void(Items &)> &Edit) {
    return editList(Entry, "consistent_states", Edit);
  };
  auto EditPsoAllowed = [&](const std::function<void(Items &)> &Edit) {
    return EditModels(
        [&](Items &M) { M[2] = editList(M[2], "allowed", Edit); });
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
      {"allowed index past the consistent states",
       EditPsoAllowed([&](Items &A) { A.emplace_back(TableSize); })},
      {"allowed index repeated",
       EditPsoAllowed([](Items &A) { A.push_back(A.back()); })},
      {"allowed indices descending",
       EditPsoAllowed([](Items &A) { std::swap(A[0], A[1]); })},
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
  std::vector<std::pair<std::string, std::string>> Records;
  for (const auto &[What, Corrupt] : Corruptions)
    Records.emplace_back(What, Corrupt.dump(0));
  // A record that is not an object, and one nested past the parser's
  // depth limit: a miss, not a stack overflow.
  Records.emplace_back("record is an array", "[]");
  Records.emplace_back("record nested past the depth limit",
                       std::string(100000, '['));
  for (const auto &[What, Record] : Records) {
    // The newest log, whose last line is then the newest of the key.
    appendTo(cacheFiles(Dir).back(), cacheLine(Key, Record));
    {
      auto Cache = ResultCache::open(Dir);
      ASSERT_TRUE(static_cast<bool>(Cache));
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
      // The miss re-stored a sound entry, served at once.
      EXPECT_TRUE(Cache->lookup(Target->Test, Models, Served)) << What;
    }
    // And it is the newest line of the key on disk.
    SweepTestResult Served;
    EXPECT_TRUE(ResultCache::open(Dir)->lookup(Target->Test, Models, Served))
        << What;
  }
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

TEST(ResultCache, EntryIsOneLineHoldingTheRecord) {
  const std::string Dir = scratchDir("cache_entry_format");
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const LitmusTest Test = catalogEntry("mp")->Test;
  SweepReport Judged = SweepEngine({1}).run(makeJobs({Test}, Models));
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));
  // Opening writes nothing: a log appears at the first store.
  EXPECT_TRUE(cacheFiles(Dir).empty());
  ASSERT_TRUE(Cache->store(Test, Models, Judged.Tests[0]));

  // The hooks key with a model set hashed once; a lookup keyed from the
  // model list finds what they stored, and the other way round.
  const std::string Key = resultCacheKey(Test, Models);
  EXPECT_EQ(resultCacheKey(Test, CacheModelSet(Models)), Key);
  const std::vector<std::string> Logs = cacheFiles(Dir);
  ASSERT_EQ(Logs.size(), 1u);
  EXPECT_TRUE(endsWith(Logs[0], ".log")) << Logs[0];
  std::string Text;
  ASSERT_TRUE(readWholeFile(Logs[0], Text));
  const std::string Record = sweepTestResultToJson(Judged.Tests[0]).dump(0);
  EXPECT_EQ(Text, "cats-cache/4\n" + Key + " " +
                      strFormat("%016llx", static_cast<unsigned long long>(
                                               fnv1a64(Record))) +
                      " " + Record + "\n");
  // The hook only reads: it hands back the line's record bytes, which the
  // engine decodes. lookup() decodes them itself, to the judged result.
  SweepTestResult Hit;
  ASSERT_TRUE(Cache->hooks(Models).CacheLookup(Test, Hit));
  EXPECT_EQ(Hit.Record, Record);
  EXPECT_TRUE(Hit.TestName.empty());
  EXPECT_TRUE(Hit.Result.PerModel.empty());
  SweepTestResult Out;
  ASSERT_TRUE(Cache->lookup(Test, Models, Out));
  EXPECT_EQ(Out.Record, Record);
  EXPECT_EQ(sweepTestResultToJson(Out).dump(0), Record);
  EXPECT_EQ(Out.Result.PerModel.size(), Models.size());
}

TEST(ResultCache, HitServesItsLogLineAsTheRecord) {
  // A hit's record is the bytes of its log line, which a report lists as
  // they are; a store writes a judged result's own record.
  const std::string Dir = scratchDir("cache_hit_record");
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  SweepReport Judged = SweepEngine({1}).run(makeJobs(Tests, Models));
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));
  for (size_t I = 0; I < Tests.size(); ++I) {
    SweepTestResult Result = Judged.Tests[I];
    // A marked record shows that the store writes it, not a rendering.
    if (I == 1)
      Result.Record = sweepTestResultToJson(Result).dump(0) + " ";
    ASSERT_TRUE(Cache->store(Tests[I], Models, Result));
  }
  std::string Text;
  ASSERT_TRUE(readWholeFile(cacheFiles(Dir).at(0), Text));
  const std::vector<std::string> Lines = splitString(Text, '\n');
  ASSERT_EQ(Lines.size(), Tests.size() + 2);
  for (size_t I = 0; I < Tests.size(); ++I) {
    const std::string Logged = Lines[I + 1].substr(32 + 1 + 16 + 1);
    SweepTestResult Out;
    ASSERT_TRUE(Cache->lookup(Tests[I], Models, Out)) << I;
    EXPECT_EQ(Out.Record, Logged) << I;
    EXPECT_EQ(Out.Record, sweepTestResultToJson(Judged.Tests[I]).dump(0) +
                              (I == 1 ? " " : ""))
        << I;
  }
}

TEST(ResultCache, FailedStorePublishesNothing) {
  // A file-size limit cuts the third store short. The store reports it,
  // the handle then stores nothing, and a reopened cache serves exactly
  // the lines written before the cut.
  const std::string Dir = scratchDir("cache_store_fails");
  const std::vector<const Model *> Models = {modelByName("SC")};
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(4);
  SweepReport Judged = SweepEngine({1}).run(makeJobs(Tests, Models));
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));
  for (size_t I = 0; I < 2; ++I)
    ASSERT_TRUE(Cache->store(Tests[I], Models, Judged.Tests[I]));
  const std::string Log = cacheFiles(Dir).at(0);
  const auto Before = std::filesystem::file_size(Log);

  // Past the limit a write is cut short, and SIGXFSZ (ignored here) would
  // end the process.
  rlimit Saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &Saved), 0);
  rlimit Cut = Saved;
  Cut.rlim_cur = static_cast<rlim_t>(Before + 10);
  const auto OldHandler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &Cut), 0);
  const Status Failed = Cache->store(Tests[2], Models, Judged.Tests[2]);
  const Status After = Cache->store(Tests[3], Models, Judged.Tests[3]);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &Saved), 0);
  std::signal(SIGXFSZ, OldHandler);

  EXPECT_TRUE(Failed.failed());
  EXPECT_EQ(Failed.message(), "cannot write " + Log + "; storing nothing more");
  // Reported once: the next store writes nothing and says nothing.
  EXPECT_FALSE(After.failed());
  EXPECT_EQ(std::filesystem::file_size(Log), Before + 10);
  auto Reopened = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Reopened));
  for (const ResultCache *C : {&*Cache, &*Reopened})
    for (size_t I = 0; I < Tests.size(); ++I) {
      SweepTestResult Out;
      EXPECT_EQ(C->lookup(Tests[I], Models, Out), I < 2) << I;
    }
}

TEST(ResultCache, RerunAfterKillEqualsUninterrupted) {
  // A campaign killed after 7 of its 12 tests, in the middle of writing
  // the 7th entry, is rerun on the same directory: the 6 whole entries
  // hit, the rest is judged, and the records equal an uninterrupted run's.
  const std::string Dir = scratchDir("cache_kill");
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(12);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("TSO")};
  const SweepEngine Engine({2});
  const SweepReport Whole = Engine.runStreamed(vectorSource(Tests), Models, 4);
  cli::CampaignFlags Flags;
  Flags.CacheDir = Dir;
  std::vector<LitmusTest> Prefix(Tests.begin(), Tests.begin() + 7);
  auto Killed =
      cli::runCampaignSweep(Engine, vectorSource(Prefix), Models, Flags);
  ASSERT_TRUE(static_cast<bool>(Killed)) << Killed.message();
  EXPECT_EQ(Killed->CacheMisses, 7ull);

  const std::vector<std::string> Logs = cacheFiles(Dir);
  ASSERT_EQ(Logs.size(), 1u);
  std::string Text;
  ASSERT_TRUE(readWholeFile(Logs[0], Text));
  const size_t LastLine = Text.rfind('\n', Text.size() - 2) + 1;
  std::filesystem::resize_file(Logs[0],
                               LastLine + (Text.size() - LastLine) / 2);

  auto Rerun =
      cli::runCampaignSweep(Engine, vectorSource(Tests), Models, Flags);
  ASSERT_TRUE(static_cast<bool>(Rerun)) << Rerun.message();
  EXPECT_EQ(Rerun->CacheHits, 6ull);
  EXPECT_EQ(Rerun->CacheMisses, 6ull);
  ASSERT_EQ(Rerun->Tests.size(), Whole.Tests.size());
  for (size_t I = 0; I < Whole.Tests.size(); ++I)
    EXPECT_EQ(zeroWallTimes(sweepTestResultToJson(Rerun->Tests[I])).dump(),
              zeroWallTimes(sweepTestResultToJson(Whole.Tests[I])).dump())
        << Whole.Tests[I].TestName;
  // The rerun wrote a log of its own, leaving the cut line the last of
  // the killed run's.
  EXPECT_EQ(cacheFiles(Dir).size(), 2u);
}

TEST(ResultCache, TwoWritersShareADirectory) {
  // Two handles on one directory store interleaved entries, each into a
  // log of its own; a third open serves all of them.
  const std::string Dir = scratchDir("cache_writers");
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(8);
  SweepReport Judged = SweepEngine({1}).run(makeJobs(Tests, Models));
  auto A = ResultCache::open(Dir);
  auto B = ResultCache::open(Dir);
  ASSERT_TRUE(A && B);
  for (size_t I = 0; I < Tests.size(); ++I)
    ASSERT_TRUE((I % 2 ? *B : *A).store(Tests[I], Models, Judged.Tests[I]));
  EXPECT_EQ(cacheFiles(Dir).size(), 2u);
  // A handle serves its own stores at once, and the other's from its
  // next open.
  SweepTestResult Out;
  EXPECT_TRUE(A->lookup(Tests[0], Models, Out));
  EXPECT_FALSE(A->lookup(Tests[1], Models, Out));
  auto C = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(C));
  for (size_t I = 0; I < Tests.size(); ++I) {
    ASSERT_TRUE(C->lookup(Tests[I], Models, Out)) << I;
    EXPECT_EQ(sweepTestResultToJson(Out).dump(0),
              sweepTestResultToJson(Judged.Tests[I]).dump(0));
  }
}

TEST(ResultCache, OpenSkipsOtherLayoutsAndHeaderlessFiles) {
  // An entry of the cats-cache/3 layout (one file per entry in a 256-way
  // fan-out), a log under the /3 tag, a log without a header, one whose
  // header is cut, and a whole log that is not named *.log: open reads
  // none of them, so the lookup misses.
  const std::string Dir = scratchDir("cache_layouts");
  const std::vector<const Model *> Models = {modelByName("SC")};
  const LitmusTest Test = catalogEntry("mp")->Test;
  SweepReport Judged = SweepEngine({1}).run(makeJobs({Test}, Models));
  const std::string Key = resultCacheKey(Test, Models);
  const std::string Record = sweepTestResultToJson(Judged.Tests[0]).dump(0);
  const std::string Line = cacheLine(Key, Record);
  std::filesystem::create_directories(Dir + "/" + Key.substr(0, 2));
  ASSERT_FALSE(writeWholeFile(Dir + "/" + Key.substr(0, 2) + "/" + Key +
                                  ".json",
                              R"({"schema":"cats-cache-entry/2","key":")" +
                                  Key + R"(","result":)" + Record + "}\n")
                   .failed());
  ASSERT_FALSE(
      writeWholeFile(Dir + "/1-old.log", "cats-cache/3\n" + Line).failed());
  ASSERT_FALSE(writeWholeFile(Dir + "/2-bare.log", Line).failed());
  ASSERT_FALSE(writeWholeFile(Dir + "/3-cut.log", "cats-cache/4").failed());
  ASSERT_FALSE(
      writeWholeFile(Dir + "/4-entries.txt", "cats-cache/4\n" + Line).failed());
  SweepTestResult Out;
  EXPECT_FALSE(ResultCache::open(Dir)->lookup(Test, Models, Out));
  // The same line under the header, in a log, is served.
  ASSERT_FALSE(
      writeWholeFile(Dir + "/5-good.log", "cats-cache/4\n" + Line).failed());
  EXPECT_TRUE(ResultCache::open(Dir)->lookup(Test, Models, Out));
}

//===----------------------------------------------------------------------===//
// Merging
//===----------------------------------------------------------------------===//

namespace {

/// The first \p N catalogue tests.
std::vector<LitmusTest> firstTests(size_t N) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(N);
  return Tests;
}

/// Runs one shard of the catalogue campaign and returns its report
/// document with the shard stanza, exactly as cats_sweep --shard writes.
JsonValue shardReportDoc(const std::vector<LitmusTest> &Tests,
                         const std::vector<const Model *> &Models,
                         unsigned K, unsigned N) {
  SweepReport Report = SweepEngine({2}).runStreamed(
      shardSource(vectorSource(Tests), ShardSpec{K, N}), Models, 8);
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

  // A complete set whose shards come from different campaigns: shard 1/2
  // of 10 tests holds 5 records and shard 2/2 of 20 tests 10, while one
  // campaign of 15 records puts 8 and 7 in them.
  auto Foreign = mergeSweepReports(
      {shardReportDoc(firstTests(10), Models, 1, 2),
       shardReportDoc(firstTests(20), Models, 2, 2)});
  ASSERT_FALSE(static_cast<bool>(Foreign));
  EXPECT_NE(Foreign.message().find("shard 1/2 holds 5 records"),
            std::string::npos)
      << Foreign.message();
  // Shards of one campaign hold floor((T-K)/N)+1 records each, or none
  // when K > T: a campaign shorter than its shard count merges.
  std::vector<JsonValue> Short;
  for (unsigned K = 1; K <= 4; ++K)
    Short.push_back(shardReportDoc(firstTests(2), Models, K, 4));
  auto Merged = mergeSweepReports(Short);
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  EXPECT_EQ(Merged->get("tests")->elements().size(), 2u);
  // A shard with a record too many, or one too few, is refused.
  Short[3] = shardReportDoc(firstTests(2), Models, 1, 4);
  Short[3].set("shard", shardToJson(ShardSpec{4, 4}));
  EXPECT_FALSE(static_cast<bool>(mergeSweepReports(Short)));
  Short[3] = shardReportDoc(firstTests(2), Models, 4, 4);
  Short[0] = shardReportDoc(firstTests(2), Models, 4, 4);
  Short[0].set("shard", shardToJson(ShardSpec{1, 4}));
  EXPECT_FALSE(static_cast<bool>(mergeSweepReports(Short)));
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
  ASSERT_FALSE(
      Entry.get("models")->elements()[0].get("allowed")->elements().empty());

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
      {"out-of-range allowed index appended", EditSc([](const JsonValue &M) {
         return editList(M, "allowed",
                         [](Items &S) { S.emplace_back(1u << 20); });
       })},
      {"candidates_allowed zeroed", EditSc([](const JsonValue &M) {
         return withMember(M, "candidates_allowed", JsonValue(0));
       })},
      {"allowed indices deleted", EditSc([](const JsonValue &M) {
         return withMember(M, "allowed", JsonValue::array());
       })},
      // A /1 entry, in a /2 report or in its own /1 one.
      {"ill-formed allowed state appended",
       editList(asV1Record(Entry), "models",
                [](Items &M) {
                  M[0] = editList(M[0], "allowed_states", [](Items &S) {
                    S.push_back(JsonValue("1:r3]=1"));
                  });
                })},
  };
  for (const auto &[What, Corrupt] : Corruptions)
    for (const JsonValue &Input : {WithEntry(Corrupt),
                                   asV1Report(WithEntry(Corrupt))}) {
      auto Merged = mergeSweepReports({Doc, Input});
      ASSERT_FALSE(static_cast<bool>(Merged)) << What;
      EXPECT_EQ(Merged.message().rfind("input 2: test '" + Name + "': ", 0),
                0u)
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
  // So does a /1 entry, converted to /2 around the member.
  auto FromV1 = mergeSweepReports({asV1Report(Annotated)});
  ASSERT_TRUE(static_cast<bool>(FromV1)) << FromV1.message();
  EXPECT_EQ(FromV1->dump(), Annotated.dump());
}

TEST(Merge, V1ReportsMergeToTheV2Rendering) {
  // Reports a /1 build wrote, alone or mixed with /2 shards, merge to the
  // bytes of a single /2 run: allowed states become the resolved indices
  // and every record renders on one line.
  const std::vector<LitmusTest> Tests = catalogueTests();
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const std::string Reference = scrubbedDump(
      SweepEngine({2}).runStreamed(vectorSource(Tests), Models, 8));

  std::vector<JsonValue> Shards;
  for (unsigned K = 1; K <= 3; ++K)
    Shards.push_back(shardReportDoc(Tests, Models, K, 3));
  Shards[1] = asV1Report(Shards[1]);
  EXPECT_EQ(Shards[1].get("schema")->asString(), "cats-sweep-report/1");
  auto Mixed = mergeReports(Shards);
  ASSERT_TRUE(static_cast<bool>(Mixed)) << Mixed.message();
  EXPECT_EQ(zeroWallTimes(Mixed.take()).dump(), Reference);

  for (JsonValue &Shard : Shards)
    Shard = asV1Report(Shard);
  auto AllV1 = mergeReports(std::move(Shards));
  ASSERT_TRUE(static_cast<bool>(AllV1)) << AllV1.message();
  EXPECT_EQ(zeroWallTimes(AllV1.take()).dump(), Reference);
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
        shardSource(vectorSource(Tests), ShardSpec{K, 2}), Models, 4,
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

namespace {

/// What cats_merge does with \p Texts written to files input-1.json,
/// input-2.json, ...: the exit status, and the merged bytes in \p Out
/// (written to a file, or captured from stdout when \p ToStdout). An
/// output file is removed first, so it exists only when the merge wrote
/// it. Each test has its own directory, so tests run at once (ctest -j)
/// do not share files.
int mergeTexts(const std::vector<std::string> &Texts, bool ZeroWall,
               std::string &Out, bool ToStdout = false) {
  const std::string Dir = scratchDir(
      std::string("merge_files_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::vector<std::string> Paths;
  for (size_t I = 0; I < Texts.size(); ++I) {
    Paths.push_back(Dir + strFormat("/input-%zu.json", I + 1));
    EXPECT_FALSE(writeWholeFile(Paths.back(), Texts[I]).failed());
  }
  const std::string OutPath = ToStdout ? std::string() : Dir + "/merged.json";
  obs::ProgressReporter Progress("cats_merge", 0, false);
  if (ToStdout)
    ::testing::internal::CaptureStdout();
  const int Status = cli::mergeReportFiles("cats_merge", Paths, OutPath,
                                           ZeroWall, true, Progress);
  Out.clear();
  if (ToStdout) {
    Out = ::testing::internal::GetCapturedStdout();
  } else if (std::filesystem::exists(OutPath)) {
    EXPECT_TRUE(readWholeFile(OutPath, Out));
  }
  return Status;
}

/// mergeTexts over the renderings of \p Docs.
int mergeFiles(const std::vector<JsonValue> &Docs, bool ZeroWall,
               std::string &Out, bool ToStdout = false) {
  std::vector<std::string> Texts;
  for (const JsonValue &Doc : Docs)
    Texts.push_back(Doc.dump());
  return mergeTexts(Texts, ZeroWall, Out, ToStdout);
}

/// What the merge of parsed documents gives: mergeReports, zeroWallTimes
/// when \p ZeroWall, and dump().
std::string domMerge(std::vector<JsonValue> Docs, bool ZeroWall) {
  auto Merged = mergeReports(std::move(Docs));
  EXPECT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  if (!Merged)
    return std::string();
  return (ZeroWall ? zeroWallTimes(Merged.take()) : Merged.take()).dump();
}

} // namespace

TEST(Merge, FilesMergeToTheBytesOfTheDomMerge) {
  // cats_merge reads its inputs a record at a time; the bytes it writes
  // are those of the merge of the parsed documents.
  const std::vector<LitmusTest> Tests = catalogueTests();
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  std::vector<JsonValue> Shards;
  for (unsigned K = 1; K <= 3; ++K)
    Shards.push_back(shardReportDoc(Tests, Models, K, 3));
  std::vector<JsonValue> V1Shards = Shards;
  for (JsonValue &Shard : V1Shards)
    Shard = asV1Report(Shard);
  std::vector<JsonValue> MixedShards = Shards;
  MixedShards[1] = V1Shards[1];
  std::vector<LitmusTest> Half = Tests;
  Half.resize(Tests.size() / 2);
  const JsonValue Whole = sweepReportToJson(
      SweepEngine({2}).runStreamed(vectorSource(Tests), Models, 8));
  const JsonValue Part = sweepReportToJson(
      SweepEngine({1}).runStreamed(vectorSource(Half), Models, 8));
  const JsonValue Empty = sweepReportToJson(
      SweepEngine({1}).runStreamed(vectorSource({}), Models, 8));

  const std::vector<std::pair<std::string, std::vector<JsonValue>>> Cases = {
      {"sharded /2", Shards},
      {"sharded, in another order", {Shards[2], Shards[0], Shards[1]}},
      {"sharded /1", V1Shards},
      {"sharded, /1 and /2 mixed", MixedShards},
      {"unsharded /2", {Whole, Part}},
      {"unsharded /1 and /2", {asV1Report(Part), Whole, Empty}},
      {"one report", {Whole}},
      {"one /1 report", {asV1Report(Whole)}},
      {"no test", {Empty}}};
  for (const auto &[What, Docs] : Cases)
    for (bool ZeroWall : {true, false}) {
      const std::string Expected = domMerge(Docs, ZeroWall);
      std::string Written;
      EXPECT_EQ(mergeFiles(Docs, ZeroWall, Written), 0) << What;
      EXPECT_EQ(Written, Expected) << What;
      // On stdout, as cats_merge without -o writes it.
      EXPECT_EQ(mergeFiles(Docs, ZeroWall, Written, true), 0) << What;
      EXPECT_EQ(Written, Expected + "\n") << What;
    }
}

TEST(Merge, RefusedFileMergesWriteNothing) {
  // A refused merge exits 1 and an unreadable input 2; neither creates
  // the output file or prints on stdout, though records may have passed
  // before the refusal.
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  const std::vector<const Model *> Models = {modelByName("SC")};
  const JsonValue Doc = sweepReportToJson(
      SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 8));
  JsonValue Corrupt = Doc;
  Corrupt.get("tests")->elements()[4].set("candidates_total", -1);
  JsonValue NoTests = Doc;
  NoTests.set("tests", "none");
  const std::vector<std::pair<std::vector<JsonValue>, int>> Cases = {
      {{Doc, Corrupt}, 1},
      {{Doc, NoTests}, 1},
      {{shardReportDoc(Tests, Models, 1, 2), Doc}, 1},
      {{shardReportDoc(Tests, Models, 1, 3),
        shardReportDoc(Tests, Models, 2, 3)},
       1},
      {{shardReportDoc(firstTests(10), Models, 1, 2),
        shardReportDoc(firstTests(20), Models, 2, 2)},
       1},
      {{Doc, *JsonValue::parse(R"({"schema": "cats-run-report/1"})")}, 1}};
  for (const auto &[Docs, Want] : Cases)
    for (bool ToStdout : {false, true}) {
      std::string Written;
      EXPECT_EQ(mergeFiles(Docs, true, Written, ToStdout), Want);
      EXPECT_EQ(Written, "") << Docs.back().dump();
    }

  // An input that does not parse, with a sound one before it; one whose
  // merge is refused at its second record before its fifth turns out not
  // to parse (the first pass only finds where records end); and one
  // whose repeated "tests" hides a record that does not parse. Each
  // exits 2, as when the inputs are parsed before the merge.
  const std::string Dir = scratchDir("merge_unparsable");
  const std::string Sound = Dir + "/sound.json", Cut = Dir + "/cut.json",
                    Late = Dir + "/late.json", Hidden = Dir + "/hidden.json",
                    OutPath = Dir + "/merged.json";
  ASSERT_FALSE(writeWholeFile(Sound, Doc.dump()).failed());
  ASSERT_FALSE(writeWholeFile(Cut, Doc.dump().substr(0, 700)).failed());
  JsonValue Refused = Doc;
  Refused.get("tests")->elements()[1].set("candidates_total", -1);
  std::vector<std::string> Lines = splitString(Refused.dump(), '\n');
  size_t Record = 0;
  for (std::string &Line : Lines)
    if (Line.rfind("    {\"name\":", 0) == 0 && ++Record == 5)
      Line.replace(Line.find(':'), 1, ";");
  ASSERT_EQ(Record, Tests.size());
  ASSERT_FALSE(writeWholeFile(Late, joinStrings(Lines, "\n")).failed());
  ASSERT_FALSE(writeWholeFile(Hidden, "{\"tests\": [{\"a\" 1}]," +
                                          Doc.dump().substr(1))
                   .failed());
  obs::ProgressReporter Progress("cats_merge", 0, false);
  for (const std::vector<std::string> &Paths :
       std::vector<std::vector<std::string>>{{Sound, Cut},
                                             {Sound, Dir + "/missing.json"},
                                             {Dir},
                                             {Late},
                                             {Sound, Late},
                                             {Hidden}}) {
    EXPECT_EQ(cli::mergeReportFiles("cats_merge", Paths, OutPath, true, true,
                                    Progress),
              2);
    EXPECT_FALSE(std::filesystem::exists(OutPath));
  }
}

namespace {

/// A campaign of \p Copies times the catalogue's records under SC and
/// Power, each copy's tests renamed apart and every record given a wall
/// time of its own: enough records for several merge windows at 8
/// workers, which hold 8 x 64.
std::vector<JsonValue> manyRecords(size_t Copies) {
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const JsonValue Doc = sweepReportToJson(
      SweepEngine({2}).run(makeJobs(catalogueTests(), Models)));
  std::vector<JsonValue> Out;
  for (size_t C = 0; C < Copies; ++C)
    for (const JsonValue &Record : Doc.get("tests")->elements()) {
      JsonValue Copy = Record;
      Copy.set("name",
               Record.get("name")->asString() + "." + std::to_string(C));
      Copy.set("wall_seconds", 0.001 * static_cast<double>(Out.size() + 1));
      Out.push_back(std::move(Copy));
    }
  return Out;
}

/// Shard \p K of \p N of the campaign \p Records as a report: the records
/// at positions K-1, K-1+N, ..., its shard stanza, \p K jobs and a wall
/// time of K / 4 seconds.
JsonValue shardOf(const std::vector<JsonValue> &Records, unsigned K,
                  unsigned N) {
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", SweepReportSchema);
  Doc.set("jobs", K);
  Doc.set("wall_seconds", 0.25 * K);
  JsonValue Tests = JsonValue::array();
  for (size_t I = K - 1; I < Records.size(); I += N)
    Tests.push(Records[I]);
  Doc.set("tests", std::move(Tests));
  Doc.set("shard", shardToJson(ShardSpec{K, N}));
  return Doc;
}

/// The campaign \p Records split into 4 shards, the even ones as a /1
/// build wrote them.
std::vector<JsonValue> fourMixedShards(const std::vector<JsonValue> &Records) {
  std::vector<JsonValue> Shards;
  for (unsigned K = 1; K <= 4; ++K)
    Shards.push_back(K % 2 ? shardOf(Records, K, 4)
                           : asV1Report(shardOf(Records, K, 4)));
  return Shards;
}

/// The bytes of a merge done serially: the top level of \p Jobs jobs and
/// \p WallSeconds, and then, for each of \p Stream in order,
/// upgradeTestEntry, zeroWallTimes under \p ZeroWall, and dump(0), each
/// record on its own line of the "tests" array.
std::string serialMerge(const std::vector<JsonValue> &Stream, unsigned Jobs,
                        double WallSeconds, bool ZeroWall) {
  JsonValue Top = JsonValue::object();
  Top.set("schema", SweepReportSchema);
  Top.set("jobs", Jobs);
  Top.set("wall_seconds", ZeroWall ? 0.0 : WallSeconds);
  Top.set("tests", JsonValue::array());
  std::vector<std::string> Lines;
  for (JsonValue Record : Stream) {
    EXPECT_FALSE(upgradeTestEntry(Record).failed());
    if (ZeroWall)
      Record = zeroWallTimes(std::move(Record));
    Lines.push_back(Record.dump(0));
  }
  std::string Text = Top.dump();
  const std::string Empty = "\"tests\": []";
  Text.replace(Text.find(Empty), Empty.size(),
               "\"tests\": [\n    " + joinStrings(Lines, ",\n    ") +
                   "\n  ]");
  return Text;
}

/// \p Text with the record named \p Name made unparsable: its first ':'
/// turned into ';'. \p At gets where the parse of the record fails.
std::string breakRecord(std::string Text, const std::string &Name,
                        size_t &At) {
  At = Text.find("{\"name\":\"" + Name + "\"");
  EXPECT_NE(At, std::string::npos) << Name;
  At += 7;
  Text[At] = ';';
  return Text;
}

/// The name of record \p Record.
std::string nameOf(const JsonValue &Record) {
  return Record.get("name")->asString();
}

} // namespace

TEST(Merge, ShardedFilesMergeAcrossWindowsToTheSerialBytes) {
  // Four shards, /1 and /2 mixed, of a campaign several windows long:
  // the file merge writes, for each record in stream order, its upgraded
  // (and zeroed) dump(0), whatever order the workers settle them in.
  const std::vector<JsonValue> Records = manyRecords(40);
  ASSERT_GT(Records.size(), 3u * 8 * 64);
  const std::vector<JsonValue> Shards = fourMixedShards(Records);
  EXPECT_EQ(Shards[1].get("schema")->asString(), "cats-sweep-report/1");
  // The records in stream order, as the shards hold them.
  std::vector<JsonValue> Stream;
  for (size_t Seq = 0; Seq < Records.size(); ++Seq)
    Stream.push_back(Shards[Seq % 4].get("tests")->elements()[Seq / 4]);
  for (bool ZeroWall : {false, true}) {
    const std::string Expected = serialMerge(Stream, 4, 2.5, ZeroWall);
    std::string Written;
    EXPECT_EQ(mergeFiles(Shards, ZeroWall, Written), 0);
    EXPECT_EQ(Written, Expected) << "zero-wall " << ZeroWall;
    EXPECT_EQ(mergeFiles({Shards[3], Shards[1], Shards[0], Shards[2]},
                         ZeroWall, Written),
              0);
    EXPECT_EQ(Written, Expected) << "zero-wall " << ZeroWall;
    EXPECT_EQ(mergeFiles(Shards, ZeroWall, Written, true), 0);
    EXPECT_EQ(Written, Expected + "\n") << "zero-wall " << ZeroWall;
  }
}

TEST(Merge, TheFirstRefusalAcrossWindowsWins) {
  // Refused records at positions P < Q, windows apart at 8 workers: the
  // message names P's test, from files and from parsed documents, sharded
  // and not.
  std::vector<JsonValue> Records = manyRecords(40);
  const size_t P = 100, Q = 1300;
  Records[P].set("candidates_total", -1);
  Records[Q].set("candidates_total", -1);
  const std::vector<JsonValue> Shards = fourMixedShards(Records);
  JsonValue Whole = shardOf(Records, 1, 1);
  Whole.members().pop_back();
  const std::string Want = "test '" + nameOf(Records[P]) + "': ";
  for (const auto &[Docs, Input] :
       std::vector<std::pair<std::vector<JsonValue>, std::string>>{
           {Shards, "input 1: "}, {{Whole}, "input 1: "}}) {
    std::string Written;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(mergeFiles(Docs, true, Written), 1);
    const std::string Said = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(Written, "");
    EXPECT_EQ(Said.rfind("cats_merge: " + Input + Want, 0), 0u) << Said;
    auto Merged = mergeReports(Docs);
    ASSERT_FALSE(static_cast<bool>(Merged));
    EXPECT_EQ(Merged.message().rfind(Input + Want, 0), 0u)
        << Merged.message();
  }
}

TEST(Merge, AnUnparsableRecordAnywhereBeatsARefusal) {
  // A document that does not parse exits 2 whatever the merge refused
  // first: a record refused in an early window with one that does not
  // parse in a later window, and a record that does not parse before a
  // refused one. The parse error names its file and offset.
  std::vector<JsonValue> Records = manyRecords(40);
  const size_t Early = 100, Late = 1301;
  for (bool RefusedFirst : {true, false}) {
    std::vector<JsonValue> Edited = Records;
    const size_t Refused = RefusedFirst ? Early : Late;
    const size_t Broken = RefusedFirst ? Late : Early;
    Edited[Refused].set("candidates_total", -1);
    std::vector<std::string> Texts;
    for (unsigned K = 1; K <= 4; ++K)
      Texts.push_back(shardOf(Edited, K, 4).dump());
    size_t At = 0;
    const size_t Shard = Broken % 4;
    Texts[Shard] = breakRecord(Texts[Shard], nameOf(Edited[Broken]), At);
    std::string Written;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(mergeTexts(Texts, true, Written), 2) << RefusedFirst;
    const std::string Said = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(Written, "");
    EXPECT_NE(Said.find(strFormat("input-%zu.json: JSON error at offset %zu",
                                  Shard + 1, At)),
              std::string::npos)
        << Said;
  }
}

TEST(Merge, PipesAndRepeatedMembersMergeAsParsedDocuments) {
  // An input read from a pipe, as `cats_merge <(zcat shard.json.gz)`
  // gives it, is copied to an unnamed file for its two passes: sweep and
  // mine reports merge from pipes to the bytes of the merge of the parsed
  // documents.
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(8);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  std::vector<JsonValue> Shards, Mines;
  for (unsigned K = 1; K <= 2; ++K) {
    Shards.push_back(shardReportDoc(Tests, Models, K, 2));
    Mines.push_back(mineReportToJson(mineSweepReport(SweepEngine({1}).runStreamed(
        shardSource(vectorSource(Tests), ShardSpec{K, 2}), Models, 8))));
  }
  const std::string Dir = scratchDir("merge_pipes");
  const std::string OutPath = Dir + "/merged.json";
  obs::ProgressReporter Progress("cats_merge", 0, false);
  for (const std::vector<JsonValue> &Docs : {Shards, Mines}) {
    std::vector<int> Pipes;
    std::vector<std::string> Paths;
    for (const JsonValue &Doc : Docs) {
      const std::string Text = Doc.dump();
      // The pipe holds the whole document, so nothing waits on a reader.
      ASSERT_LT(Text.size(), 1u << 16);
      int Ends[2];
      ASSERT_EQ(::pipe(Ends), 0);
      ASSERT_EQ(::write(Ends[1], Text.data(), Text.size()),
                static_cast<ssize_t>(Text.size()));
      ::close(Ends[1]);
      Pipes.push_back(Ends[0]);
      Paths.push_back("/dev/fd/" + std::to_string(Ends[0]));
    }
    std::filesystem::remove(OutPath);
    EXPECT_EQ(cli::mergeReportFiles("cats_merge", Paths, OutPath, true, true,
                                    Progress),
              0);
    for (int Fd : Pipes)
      ::close(Fd);
    std::string Written;
    EXPECT_TRUE(readWholeFile(OutPath, Written));
    EXPECT_EQ(Written, domMerge(Docs, true)) << Docs[0].dump();
  }

  // A repeated top-level "tests": the merge reads the last array, as the
  // parser keeps the last value, at the first one's place.
  const JsonValue Whole = sweepReportToJson(
      SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 8));
  const std::string Text =
      "{\"tests\": [1, {\"a\": 2}]," + Whole.dump().substr(1);
  const std::string Input = Dir + "/repeated.json";
  ASSERT_FALSE(writeWholeFile(Input, Text).failed());
  std::filesystem::remove(OutPath);
  EXPECT_EQ(cli::mergeReportFiles("cats_merge", {Input}, OutPath, true, true,
                                  Progress),
            0);
  std::string Written;
  EXPECT_TRUE(readWholeFile(OutPath, Written));
  std::vector<JsonValue> Parsed;
  Parsed.push_back(*JsonValue::parse(Text));
  EXPECT_EQ(Written, domMerge(Parsed, true));
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
        shardSource(vectorSource(Tests), ShardSpec{K, 3}), Models, 16)));
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
        shardSource(vectorSource(Tests), ShardSpec{K, 2}), Models, 8));
    Docs.push_back(mineReportToJson(Part));
    Parts.push_back(std::move(Part));
  }
  auto ViaJson = mergeMineReports(Docs);
  ASSERT_TRUE(static_cast<bool>(ViaJson)) << ViaJson.message();
  auto ViaStructs = mergeMineReports(Parts);
  ASSERT_TRUE(static_cast<bool>(ViaStructs));
  EXPECT_EQ(ViaJson->dump(), mineReportToJson(*ViaStructs).dump());
}

//===----------------------------------------------------------------------===//
// Seeded mutations of the artifacts that carry test records
//===----------------------------------------------------------------------===//

namespace {

/// One mutation of a text, and the offset of its first changed byte:
/// every byte before it is as it was.
struct Mutation {
  enum Kind { Flip, Truncate, Duplicate, IndexEdit, SwapLines } What;
  std::string Text;
  size_t Offset;
};

/// The seeded mutator: a flipped bit, a truncation, a span of up to 64
/// bytes copied to another place, an edit of one "allowed" index list
/// (an index past any table, a repeated index, two indices swapped into
/// descending order), or, among \p Kinds = 5, two whole lines swapped.
Mutation mutate(const std::string &Text, std::mt19937_64 &Rng,
                unsigned Kinds = 4) {
  auto Pick = [&](size_t N) { return static_cast<size_t>(Rng() % N); };
  Mutation M{static_cast<Mutation::Kind>(Pick(Kinds)), Text, 0};
  std::vector<size_t> Lists;
  for (size_t At = Text.find("\"allowed\":[");
       At != std::string::npos; At = Text.find("\"allowed\":[", At + 1))
    if (Text[At + 11] != ']')
      Lists.push_back(At + 11);
  if (M.What == Mutation::IndexEdit && Lists.empty())
    M.What = Mutation::Flip;
  switch (M.What) {
  case Mutation::Flip:
    M.Offset = Pick(Text.size());
    M.Text[M.Offset] = static_cast<char>(M.Text[M.Offset] ^ (1 << Pick(8)));
    break;
  case Mutation::Truncate:
    M.Offset = Pick(Text.size());
    M.Text.resize(M.Offset);
    break;
  case Mutation::Duplicate: {
    const size_t From = Pick(Text.size());
    const size_t Length = 1 + Pick(std::min<size_t>(64, Text.size() - From));
    M.Offset = Pick(Text.size() + 1);
    M.Text.insert(M.Offset, Text, From, Length);
    break;
  }
  case Mutation::IndexEdit: {
    const size_t Begin = Lists[Pick(Lists.size())];
    const size_t End = Text.find(']', Begin);
    std::vector<std::string> Items = splitString(Text.substr(Begin, End - Begin), ',');
    const size_t I = Pick(Items.size());
    switch (Items.size() > 1 ? Pick(3) : Pick(2)) {
    case 0:
      Items[I] = "1000000";
      break;
    case 1:
      Items.insert(Items.begin() + I, Items[I]);
      break;
    default: {
      const size_t J = I + 1 < Items.size() ? I : I - 1;
      std::swap(Items[J], Items[J + 1]);
    }
    }
    M.Text.replace(Begin, End - Begin, joinStrings(Items, ","));
    M.Offset = Begin;
    break;
  }
  case Mutation::SwapLines: {
    std::vector<std::string> Lines;
    for (size_t At = 0; At < Text.size();) {
      const size_t End = Text.find('\n', At);
      Lines.push_back(Text.substr(At, End - At + 1));
      At = End + 1;
    }
    size_t I = Pick(Lines.size());
    size_t J = Pick(Lines.size() - 1);
    J += J >= I;
    if (I > J)
      std::swap(I, J);
    std::swap(Lines[I], Lines[J]);
    M.Text = joinStrings(Lines, "");
    for (size_t K = 0; K < I; ++K)
      M.Offset += Lines[K].size();
    break;
  }
  }
  return M;
}

constexpr unsigned MutationsPerInput = 300;

} // namespace

TEST(Mutation, ReportsAreRefusedOrMergeSoundly) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const std::string Text = sweepReportToJson(
      SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 8)).dump();
  std::mt19937_64 Rng(22);
  unsigned Refused = 0;
  for (unsigned N = 0; N < MutationsPerInput; ++N) {
    const Mutation M = mutate(Text, Rng);
    auto Doc = JsonValue::parse(M.Text);
    if (!Doc) {
      EXPECT_FALSE(Doc.message().empty());
      ++Refused;
      continue;
    }
    std::vector<JsonValue> Inputs;
    Inputs.push_back(Doc.take());
    auto Merged = mergeReports(std::move(Inputs));
    // An index edit always breaks a reader rule.
    if (M.What == Mutation::IndexEdit) {
      EXPECT_FALSE(static_cast<bool>(Merged)) << M.Text;
    }
    if (!Merged) {
      EXPECT_FALSE(Merged.message().empty());
      ++Refused;
      continue;
    }
    // Accepted: what the merge wrote is a report its reader takes.
    auto Again = sweepReportFromJson(*Merged);
    EXPECT_TRUE(static_cast<bool>(Again)) << Again.message() << "\n"
                                          << M.Text;
  }
  EXPECT_GT(Refused, MutationsPerInput / 2);
}

TEST(Mutation, ReportFilesAreRefusedOrMergeLikeTheDom) {
  // The mutations of ReportsAreRefusedOrMergeSoundly, merged from a file
  // a record at a time: a document that does not parse exits 2 and one
  // the merge refuses exits 1, each with no output; any other merges to
  // the bytes of the merge of the parsed document.
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const std::string Text = sweepReportToJson(
      SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 8)).dump();
  const std::string Dir = scratchDir("mutation_files");
  const std::string Input = Dir + "/report.json", Output = Dir + "/out.json";
  obs::ProgressReporter Progress("cats_merge", 0, false);
  std::mt19937_64 Rng(22);
  unsigned Refused = 0;
  for (unsigned N = 0; N < MutationsPerInput; ++N) {
    const Mutation M = mutate(Text, Rng);
    ASSERT_FALSE(writeWholeFile(Input, M.Text).failed());
    std::filesystem::remove(Output);
    ::testing::internal::CaptureStderr();
    const int Status = cli::mergeReportFiles("cats_merge", {Input}, Output,
                                             true, true, Progress);
    const std::string Said = ::testing::internal::GetCapturedStderr();
    auto Doc = JsonValue::parse(M.Text);
    std::vector<JsonValue> Docs;
    if (Doc)
      Docs.push_back(Doc.take());
    auto Merged = Docs.empty() ? Expected<JsonValue>::error("no document")
                               : mergeReports(std::move(Docs));
    const int Want = !Doc ? 2 : !Merged ? 1 : 0;
    EXPECT_EQ(Status, Want) << M.What << " at " << M.Offset << ": " << Said;
    if (Status != 0) {
      ++Refused;
      EXPECT_FALSE(Said.empty());
      EXPECT_FALSE(std::filesystem::exists(Output));
      continue;
    }
    std::string Written;
    ASSERT_TRUE(readWholeFile(Output, Written));
    EXPECT_EQ(Written, zeroWallTimes(Merged.take()).dump())
        << M.What << " at " << M.Offset;
  }
  EXPECT_GT(Refused, MutationsPerInput / 2);
}

TEST(Mutation, CacheEntriesMissOrServeTheSameVerdicts) {
  // A log of six entries under seeded bit flips, truncations, copied
  // spans, index edits and swapped lines: after each mutation every
  // lookup misses or serves its stored record byte for byte.
  const std::string Dir = scratchDir("mutation_cache");
  const std::vector<const Model *> &Models = allModels();
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  SweepReport Judged = SweepEngine({1}).run(makeJobs(Tests, Models));
  {
    auto Cache = ResultCache::open(Dir);
    ASSERT_TRUE(static_cast<bool>(Cache));
    for (size_t I = 0; I < Tests.size(); ++I)
      ASSERT_TRUE(Cache->store(Tests[I], Models, Judged.Tests[I]));
  }
  const std::string Log = cacheFiles(Dir).at(0);
  std::string Pristine;
  ASSERT_TRUE(readWholeFile(Log, Pristine));
  std::vector<std::string> Records;
  for (const SweepTestResult &T : Judged.Tests)
    Records.push_back(sweepTestResultToJson(T).dump(0));
  const CacheModelSet Set(Models);

  std::mt19937_64 Rng(22);
  unsigned Hits = 0, Damaged = 0;
  for (unsigned N = 0; N < MutationsPerInput; ++N) {
    const Mutation M = mutate(Pristine, Rng, 5);
    ASSERT_FALSE(writeWholeFile(Log, M.Text).failed());
    auto Cache = ResultCache::open(Dir);
    ASSERT_TRUE(static_cast<bool>(Cache));
    bool Missed = false;
    for (size_t I = 0; I < Tests.size(); ++I) {
      SweepTestResult Served;
      if (!Cache->lookup(Tests[I], Set, Served)) {
        Missed = true;
        continue;
      }
      ++Hits;
      EXPECT_EQ(sweepTestResultToJson(Served).dump(0), Records[I])
          << M.What << " at " << M.Offset;
    }
    Damaged += Missed;
    // A swap of two entry lines loses nothing; an index edit always
    // breaks its line's sum.
    if (M.What == Mutation::IndexEdit) {
      EXPECT_TRUE(Missed) << M.Offset;
    }
  }
  EXPECT_GT(Damaged, MutationsPerInput / 2);
  EXPECT_GT(Hits, MutationsPerInput * 3);
}
