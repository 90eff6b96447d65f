//===- obs.cpp - The observability subsystem ------------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the observability subsystem: counters must count exactly under the
/// sweep thread pool, trace output must be valid Chrome trace JSON with
/// balanced B/E events, the cats-metrics/1 section must merge by
/// summation through the campaign merger, and — the contract every other
/// test relies on — enabling observability must not change any report.
///
//===----------------------------------------------------------------------===//

#include "campaign/Merge.h"
#include "litmus/Catalog.h"
#include "model/Registry.h"
#include "obs/Metrics.h"
#include "obs/Progress.h"
#include "obs/Trace.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace cats;

namespace {

/// RAII guard: every test leaves observability off and the registry/trace
/// buffers clean, whatever its own toggling did.
struct ObsSandbox {
  ObsSandbox() {
    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    obs::resetMetrics();
    obs::resetTrace();
  }
  ~ObsSandbox() {
    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    obs::resetMetrics();
    obs::resetTrace();
  }
};

std::vector<LitmusTest> catalogueSlice(size_t N) {
  std::vector<LitmusTest> Tests;
  for (const CatalogEntry &Entry : figureCatalog()) {
    Tests.push_back(Entry.Test);
    if (Tests.size() >= N)
      break;
  }
  return Tests;
}

unsigned long long counterIn(const JsonValue &Metrics,
                             const std::string &Name) {
  const JsonValue *Counters = Metrics.get("counters");
  if (!Counters)
    return 0;
  const JsonValue *V = Counters->get(Name);
  return V && V->isNumber() ? static_cast<unsigned long long>(V->asNumber())
                            : 0;
}

/// The judge.* counters of \p Metrics, by name.
std::map<std::string, unsigned long long>
judgeCounters(const JsonValue &Metrics) {
  std::map<std::string, unsigned long long> Out;
  if (const JsonValue *Counters = Metrics.get("counters"))
    for (const auto &[Name, V] : Counters->members())
      if (Name.rfind("judge.", 0) == 0)
        Out[Name] = static_cast<unsigned long long>(V.asNumber());
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Counters and histograms
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterExactUnderConcurrentIncrements) {
  ObsSandbox Sandbox;
  obs::setMetricsEnabled(true);
  obs::Counter &C = obs::counter("test.concurrent");
  constexpr unsigned NumThreads = 8;
  constexpr unsigned long long PerThread = 50000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < NumThreads; ++T)
    Pool.emplace_back([&C] {
      for (unsigned long long I = 0; I < PerThread; ++I)
        C.add(1);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(C.value(), NumThreads * PerThread);
}

TEST(Metrics, HistogramBucketsByPowerOfTwo) {
  ObsSandbox Sandbox;
  obs::Histogram &H = obs::histogram("test.hist");
  H.record(0);  // bucket 0
  H.record(1);  // bucket 1
  H.record(2);  // bucket 2
  H.record(3);  // bucket 2
  H.record(4);  // bucket 3
  H.record(1000); // bucket 10
  EXPECT_EQ(H.count(), 6u);
  EXPECT_EQ(H.sum(), 1010u);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(2), 2u);
  EXPECT_EQ(H.bucket(3), 1u);
  EXPECT_EQ(H.bucket(10), 1u);
}

TEST(Metrics, DisabledTicksDoNotCount) {
  ObsSandbox Sandbox;
  obs::tick("test.disabled");
  EXPECT_EQ(obs::counter("test.disabled").value(), 0u);
  obs::setMetricsEnabled(true);
  obs::tick("test.disabled");
  EXPECT_EQ(obs::counter("test.disabled").value(), 1u);
}

TEST(Metrics, SweepCountsCandidatesAndPerAxiomKills) {
  ObsSandbox Sandbox;
  obs::setMetricsEnabled(true);

  // Sweep a catalogue slice under SC: the kill counters must account for
  // every rejected consistent candidate, and candidates_total must match
  // the per-test counts the report already carries.
  std::vector<const Model *> Models{modelByName("SC")};
  ASSERT_NE(Models[0], nullptr);
  SweepEngine Engine(SweepOptions{2});
  SweepReport Report = Engine.run(makeJobs(catalogueSlice(12), Models));

  unsigned long long WantTotal = 0, WantConsistent = 0,
                     WantAllowed = 0;
  for (const SweepTestResult &T : Report.Tests) {
    WantTotal += T.Result.CandidatesTotal;
    WantConsistent += T.Result.CandidatesConsistent;
    WantAllowed += T.Result.PerModel[0].CandidatesAllowed;
  }

  JsonValue Metrics = obs::metricsToJson();
  EXPECT_EQ(counterIn(Metrics, "judge.tests"), Report.Tests.size());
  EXPECT_EQ(counterIn(Metrics, "judge.candidates_total"), WantTotal);
  EXPECT_EQ(counterIn(Metrics, "judge.candidates_consistent"),
            WantConsistent);
  EXPECT_EQ(counterIn(Metrics, "judge.allowed.SC"), WantAllowed);

  // Every consistent-but-rejected candidate violates at least one axiom,
  // and (unique to SC) SC PER LOCATION + NO THIN AIR + PROPAGATION style
  // kills sum to at least the rejected count.
  unsigned long long Kills = 0;
  const JsonValue *Counters = Metrics.get("counters");
  ASSERT_NE(Counters, nullptr);
  for (const auto &[Name, V] : Counters->members())
    if (Name.rfind("judge.kill.SC.", 0) == 0)
      Kills += static_cast<unsigned long long>(V.asNumber());
  EXPECT_GE(Kills, WantConsistent - WantAllowed);
}

// A Lemma 4.1 reference answer books its kill under PROPAGATION without
// re-deriving other axioms; judge.reference_kills counts those answers on
// their own. On the pruned path every SC kill of a judged candidate comes
// from the reference check (pruned mass books SC PER LOCATION), so the two
// counters agree; the naive path runs full checks and never takes the
// reference path. Witnesses are built after judging, so a witness-mode
// sweep books every judge.* counter exactly as the plain one does.
TEST(Metrics, ReferenceKillsCountLemmaAnswersOnly) {
  ObsSandbox Sandbox;
  obs::setMetricsEnabled(true);
  auto SweepCatalogue = [](JudgeBackend Backend, bool Witness) {
    obs::resetMetrics();
    SimulateOptions Opts;
    Opts.Backend = Backend;
    Opts.Witness = Witness;
    for (const CatalogEntry &Entry : figureCatalog()) {
      auto Compiled = CompiledTest::compile(Entry.Test);
      EXPECT_TRUE(static_cast<bool>(Compiled)) << Entry.Test.Name;
      if (Compiled)
        simulateAll(*Compiled, allModels(), Opts);
    }
    return obs::metricsToJson();
  };

  JsonValue Pruned = SweepCatalogue(JudgeBackend::Pruned, false);
  EXPECT_GT(counterIn(Pruned, "judge.reference_kills.SC"), 0u);
  EXPECT_EQ(counterIn(Pruned, "judge.reference_kills.SC"),
            counterIn(Pruned, "judge.kill.SC.propagation"));
  EXPECT_GT(counterIn(Pruned, "judge.reference_kills.TSO"), 0u);
  EXPECT_EQ(counterIn(Pruned, "judge.reference_kills.TSO"),
            counterIn(Pruned, "judge.kill.TSO.propagation"));
  EXPECT_EQ(counterIn(Pruned, "judge.reference_kills.Power"), 0u);

  JsonValue Naive = SweepCatalogue(JudgeBackend::Naive, false);
  EXPECT_GT(counterIn(Naive, "judge.kill.SC.propagation"), 0u);
  EXPECT_EQ(counterIn(Naive, "judge.reference_kills.SC"), 0u);
  EXPECT_EQ(counterIn(Naive, "judge.reference_kills.TSO"), 0u);

  const auto Plain = judgeCounters(Pruned);
  const auto Witnessed =
      judgeCounters(SweepCatalogue(JudgeBackend::Pruned, true));
  EXPECT_GT(Plain.size(), 40u);
  EXPECT_EQ(Witnessed, Plain);
}

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

TEST(Trace, BalancedEventsParseableAndPerThreadOrdered) {
  ObsSandbox Sandbox;
  obs::setTraceEnabled(true);

  {
    obs::Span Outer("outer");
    obs::Span Inner("inner");
  }
  std::thread Worker([] {
    obs::Span T("worker span");
  });
  Worker.join();

  // Valid JSON through the bundled reader.
  const std::string Text = obs::traceToJson().dump();
  auto Parsed = JsonValue::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();

  const JsonValue *Events = Parsed->get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_EQ(Events->elements().size(), 6u); // 3 spans x B+E

  // Balanced per tid: every E closes the innermost open B of that thread
  // with the same name, and timestamps never run backwards per thread.
  std::map<double, std::vector<std::pair<std::string, char>>> PerTid;
  std::map<double, double> LastTs;
  for (const JsonValue &E : Events->elements()) {
    ASSERT_TRUE(E.get("name") && E.get("ph") && E.get("ts") &&
                E.get("pid") && E.get("tid"));
    const double Tid = E.get("tid")->asNumber();
    const std::string Ph = E.get("ph")->asString();
    ASSERT_TRUE(Ph == "B" || Ph == "E");
    const double Ts = E.get("ts")->asNumber();
    EXPECT_GE(Ts, LastTs[Tid]);
    LastTs[Tid] = Ts;
    auto &Stack = PerTid[Tid];
    if (Ph == "B") {
      Stack.push_back({E.get("name")->asString(), 'B'});
    } else {
      ASSERT_FALSE(Stack.empty()) << "E without a matching B";
      EXPECT_EQ(Stack.back().first, E.get("name")->asString());
      Stack.pop_back();
    }
  }
  for (const auto &[Tid, Stack] : PerTid)
    EXPECT_TRUE(Stack.empty()) << "unclosed B events on tid " << Tid;
}

TEST(Trace, TheWrittenFileParsesToTheBufferedEvents) {
  // writeTrace renders one event at a time; what it writes is still the
  // document traceToJson() builds, names that need escaping included.
  ObsSandbox Sandbox;
  obs::setTraceEnabled(true);
  {
    obs::Span Outer("judge \"quoted\\name\"\t");
    obs::Span Inner("inner");
  }
  std::thread Worker([] { obs::Span T("worker span"); });
  Worker.join();
  obs::setTraceEnabled(false);

  const std::string Path = ::testing::TempDir() + "cats_trace_stream.json";
  std::string Error;
  ASSERT_TRUE(obs::writeTrace(Path, Error)) << Error;
  std::ifstream In(Path);
  const std::string Text((std::istreambuf_iterator<char>(In)),
                         std::istreambuf_iterator<char>());
  auto Parsed = JsonValue::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_TRUE(*Parsed == obs::traceToJson());
  EXPECT_EQ(Parsed->get("traceEvents")->elements().size(), 6u);
  std::remove(Path.c_str());
}

TEST(Trace, DisabledSpansEmitNothing) {
  ObsSandbox Sandbox;
  {
    obs::Span S("invisible");
  }
  auto Parsed = JsonValue::parse(obs::traceToJson().dump());
  ASSERT_TRUE(static_cast<bool>(Parsed));
  EXPECT_TRUE(Parsed->get("traceEvents")->elements().empty());
}

TEST(Trace, SweepEmitsJudgeSpans) {
  ObsSandbox Sandbox;
  obs::setTraceEnabled(true);
  std::vector<const Model *> Models{modelByName("SC")};
  SweepEngine Engine(SweepOptions{2});
  Engine.run(makeJobs(catalogueSlice(4), Models));
  obs::setTraceEnabled(false);

  unsigned JudgeSpans = 0;
  JsonValue Trace = obs::traceToJson();
  for (const JsonValue &E : Trace.get("traceEvents")->elements())
    if (E.get("ph")->asString() == "B" &&
        E.get("name")->asString().rfind("judge ", 0) == 0)
      ++JudgeSpans;
  EXPECT_EQ(JudgeSpans, 4u);
}

//===----------------------------------------------------------------------===//
// Metrics JSON: round-trip and merge summation
//===----------------------------------------------------------------------===//

TEST(MetricsJson, SnapshotRoundTripsThroughTheJsonReader) {
  ObsSandbox Sandbox;
  obs::setMetricsEnabled(true);
  obs::counter("rt.a").add(3);
  obs::counter("rt.b").add(40);
  obs::histogram("rt.h").record(7);
  obs::histogram("rt.h").record(900);

  JsonValue Snapshot = obs::metricsToJson();
  auto Reparsed = JsonValue::parse(Snapshot.dump());
  ASSERT_TRUE(static_cast<bool>(Reparsed)) << Reparsed.message();
  EXPECT_TRUE(*Reparsed == Snapshot);
  EXPECT_EQ(counterIn(*Reparsed, "rt.a"), 3u);
  EXPECT_EQ(counterIn(*Reparsed, "rt.b"), 40u);
  const JsonValue *H = Reparsed->get("histograms")->get("rt.h");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->get("count")->asNumber(), 2);
  EXPECT_EQ(H->get("sum")->asNumber(), 907);
}

TEST(MetricsJson, MergeSumsCountersAndHistograms) {
  ObsSandbox Sandbox;
  obs::setMetricsEnabled(true);
  obs::counter("m.a").add(5);
  obs::counter("m.b").add(2);
  obs::histogram("m.h").record(3);
  JsonValue A = obs::metricsToJson();

  obs::resetMetrics();
  obs::counter("m.a").add(10);
  obs::counter("m.c").add(1);
  obs::histogram("m.h").record(3);
  obs::histogram("m.h").record(64);
  JsonValue B = obs::metricsToJson();

  std::string Error;
  ASSERT_TRUE(obs::mergeMetricsJson(A, B, Error)) << Error;
  EXPECT_EQ(counterIn(A, "m.a"), 15u);
  EXPECT_EQ(counterIn(A, "m.b"), 2u);
  EXPECT_EQ(counterIn(A, "m.c"), 1u);
  const JsonValue *H = A.get("histograms")->get("m.h");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->get("count")->asNumber(), 3);
  EXPECT_EQ(H->get("sum")->asNumber(), 70);
  // Bucket 2 (value 3, twice) and bucket 7 (value 64, once).
  unsigned long long Bucket2 = 0, Bucket7 = 0;
  for (const JsonValue &Pair : H->get("buckets")->elements()) {
    if (Pair.elements()[0].asNumber() == 2)
      Bucket2 = static_cast<unsigned long long>(
          Pair.elements()[1].asNumber());
    if (Pair.elements()[0].asNumber() == 7)
      Bucket7 = static_cast<unsigned long long>(
          Pair.elements()[1].asNumber());
  }
  EXPECT_EQ(Bucket2, 2u);
  EXPECT_EQ(Bucket7, 1u);
}

namespace {

/// VmHWM of /proc/self/status in KB, as the snapshot reads it.
double vmHwmKb() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6));
  return 0;
}

} // namespace

TEST(MetricsJson, EverySnapshotSamplesTheProcessPeakOnce) {
  // One sample of the process's own peak resident set per snapshot, so a
  // merge of shard reports holds one sample per shard.
  ObsSandbox Sandbox;
  obs::setMetricsEnabled(true);
  if (vmHwmKb() == 0)
    GTEST_SKIP() << "no VmHWM in /proc/self/status here";
  const double Before = vmHwmKb();
  JsonValue A = obs::metricsToJson();
  JsonValue B = obs::metricsToJson();
  const double After = vmHwmKb();
  for (const JsonValue *Snapshot : {&A, &B}) {
    const JsonValue *Peak =
        Snapshot->get("histograms")->get("process.peak_rss_kb");
    ASSERT_NE(Peak, nullptr);
    EXPECT_EQ(Peak->get("count")->asNumber(), 1);
    EXPECT_GE(Peak->get("sum")->asNumber(), Before);
    EXPECT_LE(Peak->get("sum")->asNumber(), After);
  }
  EXPECT_NE(obs::metricsToText().find("process.peak_rss_kb"),
            std::string::npos);
  std::string Error;
  ASSERT_TRUE(obs::mergeMetricsJson(A, B, Error)) << Error;
  EXPECT_EQ(A.get("histograms")
                ->get("process.peak_rss_kb")
                ->get("count")
                ->asNumber(),
            2);
}

TEST(MetricsJson, MergeRejectsForeignDocuments) {
  ObsSandbox Sandbox;
  JsonValue A = obs::metricsToJson();
  JsonValue B = JsonValue::object();
  B.set("schema", "cats-sweep-report/1");
  std::string Error;
  EXPECT_FALSE(obs::mergeMetricsJson(A, B, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(MetricsJson, SweepReportMergeFoldsMetricsSections) {
  ObsSandbox Sandbox;
  obs::setMetricsEnabled(true);

  // Two one-test sweep reports, each carrying its own metrics section, as
  // two campaign shards would produce under --metrics.
  std::vector<const Model *> Models{modelByName("SC")};
  SweepEngine Engine(SweepOptions{1});
  std::vector<JsonValue> Shards;
  unsigned long long TotalCandidates = 0;
  for (size_t I = 0; I < 2; ++I) {
    obs::resetMetrics();
    SweepReport Report =
        Engine.run(makeJobs({figureCatalog()[I].Test}, Models));
    JsonValue Doc = sweepReportToJson(Report);
    JsonValue Metrics = obs::metricsToJson();
    TotalCandidates += counterIn(Metrics, "judge.candidates_total");
    Doc.set("metrics", std::move(Metrics));
    Shards.push_back(std::move(Doc));
  }

  auto Merged = mergeReports(Shards);
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  const JsonValue *Metrics = Merged->get("metrics");
  ASSERT_NE(Metrics, nullptr) << "merged report dropped the metrics";
  EXPECT_EQ(counterIn(*Metrics, "judge.candidates_total"),
            TotalCandidates);
  EXPECT_EQ(counterIn(*Metrics, "judge.tests"), 2u);

  // Reports without metrics still merge to a metrics-free document.
  std::vector<JsonValue> Bare;
  for (const JsonValue &Doc : Shards) {
    JsonValue Copy = JsonValue::object();
    for (const auto &[Key, Member] : Doc.members())
      if (Key != "metrics")
        Copy.set(Key, Member);
    Bare.push_back(std::move(Copy));
  }
  auto MergedBare = mergeReports(Bare);
  ASSERT_TRUE(static_cast<bool>(MergedBare)) << MergedBare.message();
  EXPECT_EQ(MergedBare->get("metrics"), nullptr);
}

TEST(MetricsJson, ReportReaderIgnoresTheMetricsSection) {
  ObsSandbox Sandbox;
  obs::setMetricsEnabled(true);
  std::vector<const Model *> Models{modelByName("SC")};
  SweepEngine Engine(SweepOptions{1});
  SweepReport Report =
      Engine.run(makeJobs(catalogueSlice(2), Models));
  JsonValue Doc = sweepReportToJson(Report);
  JsonValue Plain = Doc; // before attaching metrics
  Doc.set("metrics", obs::metricsToJson());

  // The cats-sweep-report/1 reader treats metrics as an unknown member:
  // parsing the augmented document yields the same report as the plain
  // one (forward compatibility of the additive section).
  auto FromAugmented = sweepReportFromJson(Doc);
  auto FromPlain = sweepReportFromJson(Plain);
  ASSERT_TRUE(static_cast<bool>(FromAugmented)) << FromAugmented.message();
  ASSERT_TRUE(static_cast<bool>(FromPlain)) << FromPlain.message();
  EXPECT_TRUE(sweepReportToJson(*FromAugmented) ==
              sweepReportToJson(*FromPlain));
}

//===----------------------------------------------------------------------===//
// Determinism: observability must never change a report
//===----------------------------------------------------------------------===//

TEST(ObsDeterminism, ReportsUnaffectedByEnablingObservability) {
  ObsSandbox Sandbox;
  std::vector<const Model *> Models{modelByName("SC"),
                                    modelByName("Power")};
  SweepEngine Engine(SweepOptions{2});
  const std::vector<SweepJob> Jobs = makeJobs(catalogueSlice(8), Models);

  SweepReport Plain = Engine.run(Jobs);

  obs::setMetricsEnabled(true);
  obs::setTraceEnabled(true);
  SweepReport Observed = Engine.run(Jobs);
  obs::setMetricsEnabled(false);
  obs::setTraceEnabled(false);

  // Identical up to wall time: compare the normalized JSON renderings.
  EXPECT_TRUE(zeroWallTimes(sweepReportToJson(Plain)) ==
              zeroWallTimes(sweepReportToJson(Observed)));
}

//===----------------------------------------------------------------------===//
// Progress
//===----------------------------------------------------------------------===//

TEST(Progress, DisabledReporterIsSilentAndSafe) {
  ObsSandbox Sandbox;
  obs::ProgressReporter Reporter("test", 100, /*Enabled=*/false);
  Reporter.update(10);
  Reporter.update(100, 5, 5);
  Reporter.finish(); // and again via the destructor
  SUCCEED();
}

TEST(Progress, EnabledReporterSurvivesManyUpdates) {
  ObsSandbox Sandbox;
  // Writes go to stderr (gtest swallows them); this pins rate-limiting
  // and the unknown-total path against crashes and division by zero.
  obs::ProgressReporter Reporter("test", 0, /*Enabled=*/true);
  for (unsigned I = 1; I <= 1000; ++I)
    Reporter.update(I, I / 2, I - I / 2);
  Reporter.finish();
  SUCCEED();
}
