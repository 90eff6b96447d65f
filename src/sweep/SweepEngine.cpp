//===- SweepEngine.cpp - Parallel batch litmus sweeps ---------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/SweepEngine.h"

#include "litmus/Compiler.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/OrderedWindow.h"
#include "sweep/ReportIO.h"

#include <chrono>

using namespace cats;

SweepEngine::SweepEngine(SweepOptions Opts)
    : Workers(hardwareWorkers(Opts.Jobs)), Judge{Opts.Backend, Opts.Witness} {}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// A report's "jobs" for a sweep of \p Workers workers that judged
/// \p Judged tests. One worker judges on the calling thread; more start a
/// pool at the first test to judge, and a report counts the pool's
/// threads that could have had work.
unsigned judgingThreads(unsigned Workers, unsigned long long Judged) {
  if (Workers <= 1 || Judged == 0)
    return 1;
  return static_cast<unsigned>(std::min<unsigned long long>(Workers, Judged));
}

/// Judges \p Test under \p Models and, when \p Render, renders the
/// result's record.
SweepTestResult runOneJob(const LitmusTest &Test,
                          const std::vector<const Model *> &Models,
                          const SimulateOptions &Opts, bool Render) {
  SweepTestResult Out;
  Out.TestName = Test.Name;
  const auto Start = Clock::now();
  obs::Span JobSpan(obs::traceEnabled() ? "judge " + Test.Name
                                        : std::string());

  std::string Invalid = Test.validate();
  if (!Invalid.empty()) {
    Out.Error = Invalid;
  } else {
    auto Compiled = [&] {
      obs::Span CompileSpan("compile");
      return CompiledTest::compile(Test);
    }();
    if (!Compiled) {
      Out.Error = Compiled.message();
    } else {
      obs::Span EnumerateSpan("enumerate+judge");
      Out.Result = simulateAll(*Compiled, Models, Opts);
    }
  }
  if (!Out.Error.empty())
    obs::tick("sweep.errors");

  Out.WallSeconds = secondsSince(Start);
  obs::recordSeconds("sweep.job_wall_us", Out.WallSeconds);
  if (Render) {
    obs::Span RenderSpan("report.render");
    Out.Record = sweepTestResultToJson(Out).dump(0);
  }
  return Out;
}

/// One test of the sweep window, reused from test to test.
struct Slot {
  StagedTest Item;
  /// The models to judge it under.
  const std::vector<const Model *> *Models = nullptr;
  SweepTestResult Result;
  /// A cache hit: until settled, the result holds only its stored record.
  bool Hit = false;
};

/// Settles \p S on the thread that takes it: decodes a hit's stored
/// record, or judges the test, also when that record does not answer it
/// (the slot is then a miss). Touches nothing but the slot.
void settle(Slot &S, const SimulateOptions &Opts, bool Render) {
  if (S.Hit) {
    std::vector<std::string> Names;
    Names.reserve(S.Models->size());
    for (const Model *M : *S.Models)
      Names.push_back(M->name());
    if (resultFromRecord(std::move(S.Result.Record), S.Item.Test, Names,
                         S.Result))
      return;
    S.Hit = false;
  }
  S.Result = runOneJob(S.Item.Test, *S.Models, Opts, Render);
}

} // namespace

SweepReport SweepEngine::sweep(
    const StagedSource &Source,
    const std::function<const std::vector<const Model *> &(size_t)> &ModelsOf,
    unsigned BatchSize, const StreamHooks &Hooks) const {
  if (BatchSize == 0)
    BatchSize = 1;
  SweepReport Report;
  Report.CacheUsed = static_cast<bool>(Hooks.CacheLookup);
  const auto Start = Clock::now();
  double PullSeconds = 0;
  // Records are rendered only for a store or a sink that writes them.
  const bool Render = Hooks.SinkWritesRecords || Hooks.CacheStore;
  // Without a sink, the report keeps each result, without its record.
  const std::function<void(StagedTest &, SweepTestResult &)> Sink =
      Hooks.OnResult ? Hooks.OnResult
                     : [&Report](StagedTest &, SweepTestResult &R) {
                         R.Record = std::string();
                         Report.Tests.push_back(std::move(R));
                       };

  // The calling thread pulls each input, the pool makes a staged
  // source's test, the calling thread admits it and looks it up, the pool
  // decodes a hit's stored record or judges a miss, and the calling
  // thread reports the results in pull order.
  auto Pull = [&](Slot &S) {
    if (!Source.Pull(S.Item))
      return false;
    S.Models = &ModelsOf(S.Item.Index);
    return true;
  };
  auto Admit = [&](Slot &S) {
    if (Source.Admit && !Source.Admit(S.Item))
      return false;
    S.Hit = Hooks.CacheLookup && Hooks.CacheLookup(S.Item.Test, S.Result);
    return true;
  };
  auto Settle = [&](Slot &S) { settle(S, Judge, Render); };
  auto Emit = [&](Slot &S) {
    if (S.Hit) {
      ++Report.CacheHits;
    } else {
      if (Report.CacheUsed)
        ++Report.CacheMisses;
      if (Hooks.CacheStore)
        Hooks.CacheStore(S.Item.Test, S.Result);
    }
    ++Report.Reported;
    Report.Errored += !S.Result.Error.empty();
    Sink(S.Item, S.Result);
    if (Hooks.OnBatch && Report.Reported % BatchSize == 0)
      Hooks.OnBatch(Report);
    return true;
  };
  auto Fill = [&](auto &&Steps) {
    obs::Span PullSpan("pull");
    const auto PullStart = Clock::now();
    Steps();
    PullSeconds += secondsSince(PullStart);
  };
  const OrderedWindow<Slot> Window(Workers, BatchSize);
  if (Source.Make)
    // The make also releases the slot's last result, on its worker.
    Window.run(
        Pull,
        [&](Slot &S) {
          S.Result = SweepTestResult();
          Source.Make(S.Item);
        },
        Admit, Settle, Emit, Fill);
  else
    Window.run(Pull, NoMake(), Admit, Settle, Emit, Fill);
  if (Hooks.OnBatch && Report.Reported % BatchSize != 0)
    Hooks.OnBatch(Report);

  Report.Jobs = judgingThreads(Workers, Report.Reported - Report.CacheHits);
  Report.WallSeconds = secondsSince(Start);
  if (obs::metricsEnabled()) {
    // Zero counters are left out of the snapshot, so a sweep without a
    // cache reports neither cache counter.
    obs::counter("sweep.tests_consumed").add(Report.Reported);
    obs::counter("sweep.cache_hits").add(Report.CacheHits);
    obs::counter("sweep.cache_misses").add(Report.CacheMisses);
    obs::counter("sweep.generation_wall_us")
        .add(static_cast<unsigned long long>(PullSeconds * 1e6));
    obs::counter("sweep.judge_wall_us")
        .add(static_cast<unsigned long long>(
            (Report.WallSeconds - PullSeconds) * 1e6));
  }
  return Report;
}

SweepReport SweepEngine::run(const std::vector<SweepJob> &Jobs) const {
  obs::Span RunSpan(obs::traceEnabled() ? "sweep run (" +
                                              std::to_string(Jobs.size()) +
                                              " jobs)"
                                        : std::string());
  size_t Next = 0;
  StagedSource Source;
  Source.Pull = [&](StagedTest &Item) {
    if (Next == Jobs.size())
      return false;
    Item.Index = Next;
    Item.Test = Jobs[Next++].Test;
    return true;
  };
  return sweep(
      Source,
      [&Jobs](size_t I) -> const std::vector<const Model *> & {
        return Jobs[I].Models;
      },
      StreamBatchSize, {});
}

SweepReport
SweepEngine::runStreamed(const StagedSource &Source,
                         const std::vector<const Model *> &Models,
                         unsigned BatchSize,
                         const StreamHooks &Hooks) const {
  return sweep(
      Source,
      [&Models](size_t) -> const std::vector<const Model *> & {
        return Models;
      },
      BatchSize, Hooks);
}

std::vector<SweepJob> cats::makeJobs(const std::vector<LitmusTest> &Tests,
                                     const std::vector<const Model *> &Models) {
  std::vector<SweepJob> Jobs;
  Jobs.reserve(Tests.size());
  for (const LitmusTest &Test : Tests)
    Jobs.push_back(SweepJob{Test, Models});
  return Jobs;
}

// The JSON rendering and parsing of the cats-sweep-report/2 schema live
// together in sweep/ReportIO.cpp.
