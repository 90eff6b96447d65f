//===- ledger.cpp - Traced layer-by-layer replay for the e2e benchmark ---===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process half of the end-to-end benchmark (bench_e2e/run.py).
/// Where run.py times the real CLIs with tracing off, this tool replays
/// a workload's CLI pipeline in one process by calling each layer's public
/// functions itself, with a span around every call. Spans (layer name,
/// start, end, parent) are kept in memory, reduced to per-layer self time,
/// and written out as a Chrome trace when the run ends.
///
///   e2e_ledger catalogue
///   e2e_ledger golden   --workload W [--files LIST]
///   e2e_ledger pipeline --workload W --work DIR [--files LIST]
///                       [--cache DIR] [--trace 0|1]
///   e2e_ledger layers   --workload W --work DIR [--files LIST] [--cache DIR]
///
/// Workloads (bench_e2e/LEDGER.md):
///   diy7-power     cats_diy --arch power --size 7 --sweep
///   corpus6i-json  cats_sweep --json R <LIST>; cats_merge --zero-wall R
///   corpus6i-warm  the same with cats_sweep --cache DIR
///
/// `catalogue` judges the figure catalogue and checks the paper verdicts;
/// `golden` prints the naive-backend verdict table of a workload's corpus;
/// `pipeline` is the traced replay at one worker (or the same code with
/// spans off, for the tracing overhead); `layers` times the sweep engine at
/// 1/2/4 workers and the single-layer probes. Every mode but `golden`
/// prints one JSON object on stdout.
///
//===----------------------------------------------------------------------===//

#include "campaign/Merge.h"
#include "campaign/ResultCache.h"
#include "diy/Enumerate.h"
#include "litmus/Catalog.h"
#include "litmus/Parser.h"
#include "model/Registry.h"
#include "obs/Metrics.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace cats;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "e2e_ledger: %s\n", Msg.c_str());
  std::exit(1);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder for the single-threaded replay. A span's name
/// is "<layer>.<operation>"; the layer is the module the call belongs to.
class Tracer {
public:
  struct Rec {
    const char *Name;
    int Parent;
    Clock::time_point Start, End;
  };

  bool On = true;
  std::vector<Rec> Spans;

  int begin(const char *Name) {
    if (!On)
      return -1;
    const int Id = static_cast<int>(Spans.size());
    Spans.push_back({Name, Stack.empty() ? -1 : Stack.back(), Clock::now(),
                     Clock::time_point()});
    Stack.push_back(Id);
    return Id;
  }

  void end(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = Clock::now();
    Stack.pop_back();
  }

private:
  std::vector<int> Stack;
};

Tracer TheTracer;

class Span {
public:
  explicit Span(const char *Name) : Id(TheTracer.begin(Name)) {}
  ~Span() { TheTracer.end(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int Id;
};

template <typename Fn> auto traced(const char *Name, Fn &&F) {
  Span S(Name);
  return F();
}

double spanSeconds(const Tracer::Rec &R) {
  return std::chrono::duration<double>(R.End - R.Start).count();
}

std::string layerOf(const char *Name) {
  const char *Dot = std::strchr(Name, '.');
  return Dot ? std::string(Name, Dot) : std::string(Name);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// A flat JSON object of numbers and nested objects, printed by hand so the
/// digits are exactly what was measured.
class Out {
public:
  void num(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    Items.push_back("\"" + Key + "\": " + Buf);
  }
  void str(const std::string &Key, const std::string &V) {
    Items.push_back("\"" + Key + "\": \"" + V + "\"");
  }
  void obj(const std::string &Key, const Out &V) {
    Items.push_back("\"" + Key + "\": " + V.text());
  }
  std::string text() const {
    std::string S = "{";
    for (size_t I = 0; I < Items.size(); ++I)
      S += (I ? ", " : "") + Items[I];
    return S + "}";
  }

private:
  std::vector<std::string> Items;
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct Options {
  std::string Mode, Workload, Work = ".", FilesPath, CacheDir;
  bool Trace = true;
};

bool isDiy(const Options &O) { return O.Workload == "diy7-power"; }
bool isWarm(const Options &O) { return O.Workload == "corpus6i-warm"; }

EnumerateOptions diyOptions() {
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MaxEdges = 7;
  return Opts;
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read " + Path);
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    if (!L.empty())
      Lines.push_back(L);
  return Lines;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream OutFile(Path, std::ios::binary);
  if (!OutFile || !(OutFile << Text))
    die("cannot write " + Path);
}

std::vector<const Model *> models() { return allModels(); }

std::vector<LitmusTest> parseAll(const std::vector<std::string> &Files) {
  std::vector<LitmusTest> Tests;
  Tests.reserve(Files.size());
  for (const std::string &F : Files) {
    auto T = parseLitmusFile(F);
    if (!T)
      die(F + ": " + T.message());
    Tests.push_back(T.take());
  }
  return Tests;
}

long rssKb() {
  std::ifstream In("/proc/self/status");
  for (std::string L; std::getline(In, L);)
    if (L.rfind("VmRSS:", 0) == 0)
      return std::stol(L.substr(6));
  return 0;
}

//===----------------------------------------------------------------------===//
// catalogue / golden
//===----------------------------------------------------------------------===//

int runCatalogue() {
  unsigned Attempted = 0, Failed = 0;
  std::string Mismatches;
  for (const CatalogEntry &E : figureCatalog()) {
    MultiSimulationResult R = simulateAll(E.Test, models());
    for (const auto &[Model, Allow] : E.Expected) {
      ++Attempted;
      const SimulationResult *S = R.forModel(Model);
      if (S && S->ConditionReachable == Allow)
        continue;
      ++Failed;
      Mismatches += (Mismatches.empty() ? "" : " ") + E.Test.Name + "/" + Model;
    }
  }
  Out O;
  O.num("attempted", Attempted);
  O.num("failed", Failed);
  O.str("mismatches", Mismatches);
  std::printf("%s\n", O.text().c_str());
  return 0;
}

/// Tab-separated: name, one A/F letter per model, candidates_total,
/// candidates_consistent, per-model candidates_allowed (comma-separated).
void printGoldenRow(const SweepTestResult &T) {
  if (!T.Error.empty())
    die(T.TestName + ": " + T.Error);
  std::string Verdicts, Allowed;
  for (const SimulationResult &M : T.Result.PerModel) {
    Verdicts += M.ConditionReachable ? 'A' : 'F';
    Allowed += (Allowed.empty() ? "" : ",") +
               std::to_string(M.CandidatesAllowed);
  }
  std::printf("%s\t%s\t%llu\t%llu\t%s\n", T.TestName.c_str(), Verdicts.c_str(),
              T.Result.CandidatesTotal, T.Result.CandidatesConsistent,
              Allowed.c_str());
}

int runGolden(const Options &O) {
  SweepOptions SO;
  SO.Jobs = 4;
  SO.Backend = JudgeBackend::Naive;
  SweepEngine Engine(SO);
  std::string Names;
  for (const Model *M : models())
    Names += (Names.empty() ? "" : ",") + M->name();
  std::printf("#name\t%s\tcandidates_total\tcandidates_consistent\tallowed\n",
              Names.c_str());
  if (isDiy(O)) {
    auto Source = makeDiyTestSource(diyOptions());
    if (!Source)
      die(Source.message());
    SweepReport R = Engine.runStreamed(*Source, models(), 256);
    for (const SweepTestResult &T : R.Tests)
      printGoldenRow(T);
  } else {
    std::vector<std::string> Files = readLines(O.FilesPath);
    std::sort(Files.begin(), Files.end());
    SweepReport R = Engine.run(makeJobs(parseAll(Files), models()));
    for (const SweepTestResult &T : R.Tests)
      printGoldenRow(T);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// pipeline: the CLI pipeline replayed under spans
//===----------------------------------------------------------------------===//

/// What SweepEngine's per-job body does (validate, compile, judge), with
/// the compile and the judge under their own spans.
SweepTestResult runJob(const LitmusTest &Test,
                       const std::vector<const Model *> &Models) {
  Span Job("sweep.job");
  SweepTestResult Result;
  Result.TestName = Test.Name;
  const auto Start = Clock::now();
  auto Compiled = traced("litmus.compile", [&]() -> Expected<CompiledTest> {
    std::string Invalid = Test.validate();
    if (!Invalid.empty())
      return Expected<CompiledTest>::error(Invalid);
    return CompiledTest::compile(Test);
  });
  if (!Compiled) {
    Result.Error = Compiled.message();
  } else {
    Span Judge("herd.judge");
    Result.Result = simulateAll(*Compiled, Models, SimulateOptions());
  }
  Result.WallSeconds = secondsSince(Start);
  return Result;
}

/// cats_sweep's summary table, written where the CLI writes stdout.
void writeTable(const SweepReport &Report,
                const std::vector<const Model *> &Models,
                const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    die("cannot write " + Path);
  std::fprintf(F, "%-34s %10s %10s", "test", "cands", "consist");
  for (const Model *M : Models)
    std::fprintf(F, " %-10s", M->name().c_str());
  std::fprintf(F, "\n");
  for (const SweepTestResult &T : Report.Tests) {
    std::fprintf(F, "%-34s", T.TestName.c_str());
    if (!T.Error.empty()) {
      std::fprintf(F, "  ERROR: %s\n", T.Error.c_str());
      continue;
    }
    std::fprintf(F, " %10llu %10llu", T.Result.CandidatesTotal,
                 T.Result.CandidatesConsistent);
    for (const SimulationResult &R : T.Result.PerModel)
      std::fprintf(F, " %-10s", R.verdict());
    std::fprintf(F, "\n");
  }
  std::fprintf(F, "\n%zu tests x %zu models, %u worker(s), %.3fs\n",
               Report.Tests.size(), Models.size(), Report.Jobs,
               Report.WallSeconds);
  std::fclose(F);
}

/// cats_diy's per-cycle listing (the verdict columns the benchmark checks).
void writeListing(const std::vector<EnumeratedCycle> &Cycles,
                  const SweepReport &Report,
                  const std::vector<const Model *> &Models,
                  const std::string &Path) {
  std::map<std::string, const SweepTestResult *> ByName;
  for (const SweepTestResult &T : Report.Tests)
    ByName[T.TestName] = &T;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    die("cannot write " + Path);
  std::fprintf(F, "%-40s %5s %8s", "cycle", "size", "threads");
  for (const Model *M : Models)
    std::fprintf(F, " %-10s", M->name().c_str());
  std::fprintf(F, "\n");
  for (const EnumeratedCycle &C : Cycles) {
    unsigned External = 0;
    for (const DiyEdge &E : C.Cycle)
      if (isExternalEdge(E.Kind))
        ++External;
    std::fprintf(F, "%-40s %5zu %8u", C.Name.c_str(), C.Cycle.size(),
                 External);
    auto It = ByName.find(C.Name);
    if (It != ByName.end() && It->second->Error.empty())
      for (const SimulationResult &M : It->second->Result.PerModel)
        std::fprintf(F, " %-10s", M.verdict());
    std::fprintf(F, "\n");
  }
  std::fprintf(F, "%zu canonical cycle(s), arch Power, size 3-7\n",
               Cycles.size());
  std::fprintf(F, "swept %zu test(s) x %zu model(s), %u worker(s), %.3fs\n",
               Report.Tests.size(), Models.size(), Report.Jobs,
               Report.WallSeconds);
  std::fclose(F);
}

/// cats_merge --zero-wall over one report.
void mergeLeg(const std::string &ReportPath, const std::string &MergedPath) {
  std::string Text = traced("report.read", [&] { return readFile(ReportPath); });
  std::vector<JsonValue> Inputs;
  {
    Span S("report.parse");
    auto Doc = JsonValue::parse(Text);
    if (!Doc)
      die(ReportPath + ": " + Doc.message());
    Inputs.push_back(Doc.take());
  }
  auto Merged = traced("campaign.merge", [&] { return mergeReports(Inputs); });
  if (!Merged)
    die(Merged.message());
  JsonValue MergedDoc = Merged.take();
  JsonValue Zeroed =
      traced("campaign.zero_wall", [&] { return zeroWallTimes(MergedDoc); });
  std::string MergedText =
      traced("report.serialize_merged", [&] { return Zeroed.dump(); });
  traced("report.write_merged", [&] { writeFile(MergedPath, MergedText); });
  Span Free("report.free");
  Inputs.clear();
  MergedDoc = JsonValue();
  Zeroed = JsonValue();
  std::string().swap(Text);
  std::string().swap(MergedText);
}

struct PipelineCounts {
  size_t Tests = 0;
  size_t ReportBytes = 0;
  unsigned long long CacheHits = 0;
};

PipelineCounts pipelineDiy(const Options &O) {
  PipelineCounts C;
  const std::vector<const Model *> Models = models();
  const EnumerateOptions Opts = diyOptions();
  auto Matching =
      traced("diy.enumerate", [&] { return enumerateMatching(Opts, ""); });
  if (!Matching)
    die(Matching.message());
  std::vector<EnumeratedCycle> Cycles = Matching.take();
  SweepReport Report;
  {
    Span Stream("sweep.stream");
    const auto Start = Clock::now();
    Report.Tests.reserve(Cycles.size());
    for (const EnumeratedCycle &Cycle : Cycles) {
      auto Test = traced("diy.synthesize",
                         [&] { return synthesizeTest(Cycle.Cycle, Opts.Target); });
      if (!Test)
        die(Cycle.Name + ": " + Test.message());
      Report.Tests.push_back(runJob(*Test, Models));
    }
    Report.WallSeconds = secondsSince(Start);
  }
  C.Tests = Report.Tests.size();
  traced("cli.listing", [&] {
    writeListing(Cycles, Report, Models, O.Work + "/listing.txt");
  });
  traced("sweep.result_free", [&] { Report = SweepReport(); });
  traced("diy.free", [&] { std::vector<EnumeratedCycle>().swap(Cycles); });
  return C;
}

PipelineCounts pipelineCorpus(const Options &O) {
  PipelineCounts C;
  const std::vector<const Model *> Models = models();
  const std::vector<std::string> Files = readLines(O.FilesPath);
  const std::string ReportPath = O.Work + "/report.json";
  SweepReport Report;
  std::vector<LitmusTest> Tests;
  std::vector<SweepJob> Jobs;
  if (!isWarm(O)) {
    // cats_sweep's materialized path: parse every file, then one run().
    {
      Span Load("litmus.load");
      Tests.reserve(Files.size());
      for (const std::string &F : Files) {
        auto T = traced("litmus.parse", [&] { return parseLitmusFile(F); });
        if (!T)
          die(F + ": " + T.message());
        Tests.push_back(T.take());
      }
    }
    Jobs = traced("sweep.make_jobs", [&] { return makeJobs(Tests, Models); });
    Span Run("sweep.run");
    const auto Start = Clock::now();
    Report.Tests.reserve(Jobs.size());
    for (const SweepJob &J : Jobs)
      Report.Tests.push_back(runJob(J.Test, Models));
    Report.WallSeconds = secondsSince(Start);
  } else {
    // The campaign path: parse on pull, cache lookup, judge the misses.
    auto Opened = ResultCache::open(O.CacheDir);
    if (!Opened)
      die(Opened.message());
    const ResultCache Cache = Opened.take();
    Report.CacheUsed = true;
    Span Stream("sweep.stream");
    const auto Start = Clock::now();
    Report.Tests.reserve(Files.size());
    for (const std::string &F : Files) {
      auto T = traced("litmus.parse", [&] { return parseLitmusFile(F); });
      if (!T)
        die(F + ": " + T.message());
      SweepTestResult Hit;
      if (traced("campaign.cache_lookup",
                 [&] { return Cache.lookup(*T, Models, Hit); })) {
        ++Report.CacheHits;
        Report.Tests.push_back(std::move(Hit));
        continue;
      }
      ++Report.CacheMisses;
      SweepTestResult Judged = runJob(*T, Models);
      traced("campaign.cache_store",
             [&] { return Cache.store(*T, Models, Judged); });
      Report.Tests.push_back(std::move(Judged));
    }
    Report.WallSeconds = secondsSince(Start);
  }
  C.Tests = Report.Tests.size();
  C.CacheHits = Report.CacheHits;
  traced("cli.table",
         [&] { writeTable(Report, Models, O.Work + "/table.txt"); });
  std::string Text =
      traced("report.serialize", [&] { return sweepReportToJson(Report).dump(); });
  C.ReportBytes = Text.size();
  traced("report.write", [&] { writeFile(ReportPath, Text); });
  traced("sweep.result_free", [&] {
    Report = SweepReport();
    std::vector<SweepJob>().swap(Jobs);
  });
  traced("litmus.free", [&] { std::vector<LitmusTest>().swap(Tests); });
  traced("report.free", [&] { std::string().swap(Text); });
  mergeLeg(ReportPath, O.Work + "/merged.json");
  return C;
}

/// Writes the spans as a Chrome trace (ts/dur in microseconds from the
/// first span; the parent index rides in args).
void flushTrace(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    die("cannot write " + Path);
  const auto &Spans = TheTracer.Spans;
  const Clock::time_point Zero =
      Spans.empty() ? Clock::now() : Spans.front().Start;
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const auto &S = Spans[I];
    std::fprintf(
        F,
        "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
        "\"parent\": %d}}\n",
        I ? "," : "", S.Name, layerOf(S.Name).c_str(),
        std::chrono::duration<double, std::micro>(S.Start - Zero).count(),
        spanSeconds(S) * 1e6, I, S.Parent);
  }
  std::fprintf(F, "]}\n");
  std::fclose(F);
}

int runPipeline(const Options &O) {
  TheTracer.On = O.Trace;
  const auto Start = Clock::now();
  PipelineCounts C;
  {
    Span Root("main.pipeline");
    C = isDiy(O) ? pipelineDiy(O) : pipelineCorpus(O);
  }
  const double Wall = secondsSince(Start);

  Out Result;
  Result.num("tests", C.Tests);
  Result.num("wall_s", Wall);
  Result.num("report_bytes", C.ReportBytes);
  Result.num("cache_hits", C.CacheHits);
  if (!O.Trace) {
    std::printf("%s\n", Result.text().c_str());
    return 0;
  }

  // Self time = duration minus the direct children's durations.
  const auto &Spans = TheTracer.Spans;
  std::vector<double> ChildSeconds(Spans.size(), 0.0);
  for (const auto &S : Spans)
    if (S.Parent >= 0)
      ChildSeconds[S.Parent] += spanSeconds(S);
  std::map<std::string, double> OpSelf, OpTotal, LayerSelf;
  std::map<std::string, double> OpCount;
  std::vector<double> JudgeUs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const double Total = spanSeconds(Spans[I]);
    const double Self = Total - ChildSeconds[I];
    OpSelf[Spans[I].Name] += Self;
    OpTotal[Spans[I].Name] += Total;
    OpCount[Spans[I].Name] += 1;
    LayerSelf[layerOf(Spans[I].Name)] += Self;
    if (std::strcmp(Spans[I].Name, "herd.judge") == 0)
      JudgeUs.push_back(Total * 1e6);
  }
  std::sort(JudgeUs.begin(), JudgeUs.end());
  auto Pct = [&](double P) {
    return JudgeUs.empty()
               ? 0.0
               : JudgeUs[std::min(JudgeUs.size() - 1,
                                  static_cast<size_t>(P * JudgeUs.size()))];
  };
  Result.num("judge_p50_us", Pct(0.50));
  Result.num("judge_p99_us", Pct(0.99));
  Out Ops, Layers;
  for (const auto &[Name, Self] : OpSelf) {
    Out Op;
    Op.num("count", OpCount[Name]);
    Op.num("self_s", Self);
    Op.num("total_s", OpTotal[Name]);
    Ops.obj(Name, Op);
  }
  for (const auto &[Name, Self] : LayerSelf)
    Layers.num(Name, Self);
  Result.obj("ops", Ops);
  Result.obj("layers", Layers);

  // The trace is written after the measured pipeline; its own cost is
  // reported separately (it is tracing overhead, not a program layer).
  const auto FlushStart = Clock::now();
  flushTrace(O.Work + "/trace.json");
  Result.num("trace_flush_s", secondsSince(FlushStart));
  Result.num("spans", static_cast<double>(Spans.size()));
  std::printf("%s\n", Result.text().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// layers: the sweep engine at 1/2/4 workers and single-layer probes
//===----------------------------------------------------------------------===//

struct EngineRun {
  SweepReport Report;
  double WallSeconds = 0;
  double ProducerSeconds = 0;
  /// Names of the tests the cache served (their wall is not worker time).
  std::set<std::string> Hits;
};

/// One engine pass the way the workload's CLI drives it: diy7-power and
/// corpus6i-warm stream from a benchmark-supplied TestSource (timed from
/// outside as the producer); corpus6i-json materializes its jobs first
/// (that load is its producer) and makes one run() call.
EngineRun engineRun(const Options &O, unsigned Jobs,
                    const std::vector<EnumeratedCycle> &Cycles,
                    const std::vector<std::string> &Files,
                    const std::vector<const Model *> &Models) {
  EngineRun R;
  SweepEngine Engine(SweepOptions{Jobs});
  if (!isDiy(O) && !isWarm(O)) {
    const auto LoadStart = Clock::now();
    std::vector<SweepJob> Batch = makeJobs(parseAll(Files), Models);
    R.ProducerSeconds = secondsSince(LoadStart);
    const auto Start = Clock::now();
    R.Report = Engine.run(Batch);
    R.WallSeconds = secondsSince(Start);
    return R;
  }
  size_t Cursor = 0;
  TestSource Source = [&](LitmusTest &Test) {
    const auto Start = Clock::now();
    bool More = Cursor < (isDiy(O) ? Cycles.size() : Files.size());
    if (More) {
      if (isDiy(O)) {
        auto T = synthesizeTest(Cycles[Cursor].Cycle, Arch::Power);
        if (!T)
          die(T.message());
        Test = T.take();
      } else {
        auto T = parseLitmusFile(Files[Cursor]);
        if (!T)
          die(T.message());
        Test = T.take();
      }
      ++Cursor;
    }
    R.ProducerSeconds += secondsSince(Start);
    return More;
  };
  StreamHooks Hooks;
  std::optional<ResultCache> Cache;
  if (isWarm(O)) {
    auto Opened = ResultCache::open(O.CacheDir);
    if (!Opened)
      die(Opened.message());
    Cache.emplace(Opened.take());
    Hooks = Cache->hooks(Models);
    auto Lookup = Hooks.CacheLookup;
    Hooks.CacheLookup = [&R, Lookup](const LitmusTest &T,
                                     SweepTestResult &Hit) {
      const bool Found = Lookup(T, Hit);
      if (Found)
        R.Hits.insert(T.Name);
      return Found;
    };
  }
  const auto Start = Clock::now();
  R.Report = Engine.runStreamed(Source, Models, 64, Hooks);
  R.WallSeconds = secondsSince(Start);
  return R;
}

/// The tests of the workload, materialized (diy: synthesized in order).
std::vector<LitmusTest> workloadTests(const Options &O,
                                      const std::vector<EnumeratedCycle> &Cycles,
                                      const std::vector<std::string> &Files) {
  if (!isDiy(O))
    return parseAll(Files);
  std::vector<LitmusTest> Tests;
  Tests.reserve(Cycles.size());
  for (const EnumeratedCycle &C : Cycles) {
    auto T = synthesizeTest(C.Cycle, Arch::Power);
    if (!T)
      die(T.message());
    Tests.push_back(T.take());
  }
  return Tests;
}

int runLayers(const Options &O) {
  const std::vector<const Model *> Models = models();
  std::vector<EnumeratedCycle> Cycles;
  std::vector<std::string> Files;
  if (isDiy(O)) {
    auto Matching = enumerateMatching(diyOptions(), "");
    if (!Matching)
      die(Matching.message());
    Cycles = Matching.take();
  } else {
    Files = readLines(O.FilesPath);
  }
  const size_t NumTests = isDiy(O) ? Cycles.size() : Files.size();
  Out Result;

  // Engine passes at 1, 2 and 4 workers.
  double WallJ1 = 0;
  std::string ReportText;
  for (unsigned Jobs : {1u, 2u, 4u}) {
    const long RssBefore = rssKb();
    EngineRun R = engineRun(O, Jobs, Cycles, Files, Models);
    if (R.Report.Tests.size() != NumTests || !R.Report.allOk())
      die("engine pass at " + std::to_string(Jobs) + " worker(s) failed");
    if (Jobs == 1) {
      WallJ1 = R.WallSeconds;
      Result.num("sweep.run_s_j1", R.WallSeconds);
      Result.num("sweep.rss_growth_mb", (rssKb() - RssBefore) / 1024.0);
      const unsigned long long Lookups =
          R.Report.CacheHits + R.Report.CacheMisses;
      Result.num("campaign.cache_hit_rate",
                 Lookups ? double(R.Report.CacheHits) / Lookups : 0.0);
      if (!isDiy(O))
        ReportText = sweepReportToJson(R.Report).dump();
      if (isWarm(O)) {
        // Store into a fresh directory: the cost the cold set-up pays.
        auto Probe = ResultCache::open(O.Work + "/store_probe");
        if (!Probe)
          die(Probe.message());
        const std::vector<LitmusTest> Tests = parseAll(Files);
        auto Start = Clock::now();
        for (size_t I = 0; I < Tests.size(); ++I)
          if (Status S = Probe->store(Tests[I], Models, R.Report.Tests[I]);
              S.failed())
            die(S.message());
        Result.num("campaign.cache_store_us_per_test",
                   secondsSince(Start) * 1e6 / NumTests);
        Start = Clock::now();
        size_t KeyBytes = 0;
        for (const LitmusTest &T : Tests)
          KeyBytes += resultCacheKey(T, Models).size();
        Result.num("campaign.cache_key_us_per_test",
                   secondsSince(Start) * 1e6 / NumTests);
        if (KeyBytes != 32 * NumTests)
          die("unexpected cache key length");
      }
    } else {
      Result.num("sweep.par_eff_j" + std::to_string(Jobs),
                 WallJ1 / (Jobs * R.WallSeconds));
    }
    if (Jobs == 4) {
      double Busy = 0;
      for (const SweepTestResult &T : R.Report.Tests)
        if (!R.Hits.count(T.TestName))
          Busy += T.WallSeconds;
      Result.num("sweep.worker_idle_frac_j4",
                 1.0 - Busy / (R.Report.Jobs * R.WallSeconds));
      Result.num("sweep.producer_s", R.ProducerSeconds);
    }
    R = EngineRun();
  }

  // Report read-back: JsonValue::parse + sweepReportFromJson.
  if (!ReportText.empty()) {
    const auto Start = Clock::now();
    auto Doc = JsonValue::parse(ReportText);
    if (!Doc)
      die(Doc.message());
    auto Back = sweepReportFromJson(*Doc);
    if (!Back || Back->Tests.size() != NumTests)
      die("report read-back failed");
    Result.num("report.parse_us_per_test",
               secondsSince(Start) * 1e6 / NumTests);
  }
  std::string().swap(ReportText);

  // Judge probes (nothing is judged on the warm workload).
  if (!isWarm(O)) {
    const std::vector<LitmusTest> Tests = workloadTests(O, Cycles, Files);
    const std::vector<const Model *> ScOnly = {modelByName("SC")};
    double ScSeconds = 0;
    for (const LitmusTest &T : Tests) {
      auto Compiled = CompiledTest::compile(T);
      if (!Compiled)
        die(T.Name + ": " + Compiled.message());
      const auto Start = Clock::now();
      MultiSimulationResult R = simulateAll(*Compiled, ScOnly);
      ScSeconds += secondsSince(Start);
    }
    Result.num("herd.sc_only_us_per_test", ScSeconds * 1e6 / Tests.size());

    // Counting pass: the program's own judge counters, read once with
    // metrics on (metrics change the judge path, so nothing here is timed).
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    if (!SweepEngine(SweepOptions{4}).run(makeJobs(Tests, Models)).allOk())
      die("counting pass failed");
    obs::setMetricsEnabled(false);
    const double Total = obs::counter("judge.candidates_total").value();
    const double Pruned = obs::counter("judge.pruned.candidates").value();
    Result.num("herd.candidates_total", Total);
    Result.num("herd.candidates_judged",
               obs::counter("judge.candidates_judged").value());
    // As docs/observability.md defines it: pruned over all candidates.
    Result.num("herd.prune_rate", Total ? Pruned / Total : 0.0);
  }
  std::printf("%s\n", Result.text().c_str());
  return 0;
}

Options parseArgs(int argc, char **argv) {
  Options O;
  if (argc < 2)
    die("usage: e2e_ledger catalogue|golden|pipeline|layers [options]");
  O.Mode = argv[1];
  for (int I = 2; I < argc; ++I) {
    const std::string A = argv[I];
    if (I + 1 >= argc)
      die("missing value for " + A);
    const std::string V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--work")
      O.Work = V;
    else if (A == "--files")
      O.FilesPath = V;
    else if (A == "--cache")
      O.CacheDir = V;
    else if (A == "--trace")
      O.Trace = V != "0";
    else
      die("unknown option " + A);
  }
  if (O.Mode != "catalogue" && O.Workload != "diy7-power" &&
      O.Workload != "corpus6i-json" && O.Workload != "corpus6i-warm")
    die("unknown workload '" + O.Workload + "'");
  if (O.Mode != "catalogue" && !isDiy(O) && O.FilesPath.empty())
    die("corpus workloads need --files");
  if (isWarm(O) && O.Mode != "golden" && O.CacheDir.empty())
    die("corpus6i-warm needs --cache");
  return O;
}

} // namespace

int main(int argc, char **argv) {
  const Options O = parseArgs(argc, argv);
  if (O.Mode == "catalogue")
    return runCatalogue();
  if (O.Mode == "golden")
    return runGolden(O);
  if (O.Mode == "pipeline")
    return runPipeline(O);
  if (O.Mode == "layers")
    return runLayers(O);
  die("unknown mode '" + O.Mode + "'");
}
