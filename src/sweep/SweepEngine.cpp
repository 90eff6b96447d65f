//===- SweepEngine.cpp - Parallel batch litmus sweeps ---------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/SweepEngine.h"

#include "litmus/Compiler.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sweep/ReportIO.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

using namespace cats;

SweepEngine::SweepEngine(SweepOptions Opts)
    : Workers(Opts.Jobs), Judge{Opts.Backend, Opts.Witness} {
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  // Sweep jobs are CPU-bound, so oversubscribing cores only adds context
  // switching; clamp to the hardware (and default to it).
  if (Workers == 0 || Workers > Hw)
    Workers = Hw;
}

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

/// Judges \p Job and, when \p Render, renders the result's record.
SweepTestResult runOneJob(const SweepJob &Job, const SimulateOptions &Opts,
                          bool Render) {
  SweepTestResult Out;
  Out.TestName = Job.Test.Name;
  const auto Start = Clock::now();
  obs::Span JobSpan(obs::traceEnabled() ? "judge " + Job.Test.Name
                                        : std::string());

  std::string Invalid = Job.Test.validate();
  if (!Invalid.empty()) {
    Out.Error = Invalid;
  } else {
    auto Compiled = [&] {
      obs::Span CompileSpan("compile");
      return CompiledTest::compile(Job.Test);
    }();
    if (!Compiled) {
      Out.Error = Compiled.message();
    } else {
      obs::Span EnumerateSpan("enumerate+judge");
      Out.Result = simulateAll(*Compiled, Job.Models, Opts);
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

/// One test of the sweep window. Deque elements keep their address while
/// the window grows and shrinks at its ends, so a worker settles its slot
/// without the lock; only Done is shared.
struct Slot {
  SweepJob Job;
  SweepTestResult Result;
  /// A cache hit: until settled, the result holds only its stored record.
  bool Hit = false;
  bool Done = false;
};

/// Settles \p S on the thread that takes it: decodes a hit's stored
/// record, or judges the test, also when that record does not answer it
/// (the slot is then a miss). Touches nothing but the slot.
void settle(Slot &S, const SimulateOptions &Opts, bool Render) {
  if (S.Hit) {
    std::vector<std::string> Names;
    Names.reserve(S.Job.Models.size());
    for (const Model *M : S.Job.Models)
      Names.push_back(M->name());
    if (resultFromRecord(std::move(S.Result.Record), S.Job.Test, Names,
                         S.Result))
      return;
    S.Hit = false;
  }
  S.Result = runOneJob(S.Job, Opts, Render);
}

} // namespace

SweepReport SweepEngine::sweep(const std::function<bool(SweepJob &)> &Pull,
                               unsigned BatchSize,
                               const StreamHooks &Hooks) const {
  if (BatchSize == 0)
    BatchSize = 1;
  SweepReport Report;
  Report.CacheUsed = static_cast<bool>(Hooks.CacheLookup);
  const auto Start = Clock::now();
  double PullSeconds = 0;
  // Records are rendered only for a store or a sink that writes them.
  const bool Render = Hooks.SinkWritesRecords || Hooks.CacheStore;
  // Without a sink, the report keeps each result, without its record.
  const std::function<void(SweepTestResult &)> Sink =
      Hooks.OnResult ? Hooks.OnResult : [&Report](SweepTestResult &R) {
        R.Record = std::string();
        Report.Tests.push_back(std::move(R));
      };

  std::deque<Slot> Window;
  // Shared with the pool, under Lock: the misses no worker has claimed
  // yet, every queued slot's Done flag, the slot the calling thread
  // sleeps on, and the stop request.
  std::mutex Lock;
  std::condition_variable Queued, Finished;
  std::deque<Slot *> Pending;
  const Slot *Awaited = nullptr;
  bool Stop = false;
  auto Work = [&] {
    std::unique_lock<std::mutex> L(Lock);
    while (true) {
      Queued.wait(L, [&] { return Stop || !Pending.empty(); });
      if (Stop)
        return;
      Slot *S = Pending.front();
      Pending.pop_front();
      L.unlock();
      settle(*S, Judge, Render);
      L.lock();
      S->Done = true;
      if (S == Awaited)
        Finished.notify_one();
    }
  };
  // The pool starts whole at the first queued slot. It is stopped and
  // joined on every way out of the loop, a hook's exception included.
  std::vector<std::thread> Pool;
  auto StopPool = [&] {
    {
      std::lock_guard<std::mutex> L(Lock);
      Stop = true;
    }
    Queued.notify_all();
    for (std::thread &T : Pool)
      T.join();
  };

  const size_t WindowSize = static_cast<size_t>(Workers) * BatchSize;
  bool Drained = false;
  try {
    while (true) {
      {
        // Fill the window: hits and misses alike queue for the pool,
        // which decodes a hit's stored record and judges a miss. At one
        // worker no thread starts: the window is settled below, after its
        // pulls.
        obs::Span PullSpan("pull");
        const auto PullStart = Clock::now();
        while (!Drained && Window.size() < WindowSize) {
          Slot &S = Window.emplace_back();
          if (!Pull(S.Job)) {
            Window.pop_back();
            Drained = true;
            break;
          }
          S.Hit = Hooks.CacheLookup && Hooks.CacheLookup(S.Job.Test, S.Result);
          if (Workers > 1) {
            while (Pool.size() < Workers)
              Pool.emplace_back(Work);
            std::lock_guard<std::mutex> L(Lock);
            Pending.push_back(&S);
            Queued.notify_one();
          }
        }
        PullSeconds += secondsSince(PullStart);
      }
      if (Window.empty())
        break;
      if (Workers == 1)
        for (Slot &S : Window) {
          settle(S, Judge, Render);
          S.Done = true;
        }

      // Wait for the oldest batch, sleeping on its last slot and then on
      // each straggler before it (about one wake-up per batch), and
      // report the done prefix in pull order.
      const size_t Want = std::min<size_t>(BatchSize, Window.size());
      size_t Ready = 0;
      {
        std::unique_lock<std::mutex> L(Lock);
        Finished.wait(L, [&] {
          while (Ready < Window.size() && Window[Ready].Done)
            ++Ready;
          if (Ready >= Want)
            Awaited = nullptr;
          else
            Awaited = &Window[Window[Want - 1].Done ? Ready : Want - 1];
          return !Awaited;
        });
      }
      for (; Ready; --Ready) {
        Slot &S = Window.front();
        if (S.Hit) {
          ++Report.CacheHits;
        } else {
          if (Report.CacheUsed)
            ++Report.CacheMisses;
          if (Hooks.CacheStore)
            Hooks.CacheStore(S.Job.Test, S.Result);
        }
        ++Report.Reported;
        Report.Errored += !S.Result.Error.empty();
        Sink(S.Result);
        Window.pop_front();
        if (Hooks.OnBatch && Report.Reported % BatchSize == 0)
          Hooks.OnBatch(Report);
      }
    }
    if (Hooks.OnBatch && Report.Reported % BatchSize != 0)
      Hooks.OnBatch(Report);
  } catch (...) {
    StopPool();
    throw;
  }
  StopPool();

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
  return sweep(
      [&](SweepJob &Out) {
        if (Next == Jobs.size())
          return false;
        Out = Jobs[Next++];
        return true;
      },
      StreamBatchSize, {});
}

SweepReport
SweepEngine::runStreamed(const TestSource &Source,
                         const std::vector<const Model *> &Models,
                         unsigned BatchSize,
                         const StreamHooks &Hooks) const {
  return sweep(
      [&](SweepJob &Out) {
        Out.Models = Models;
        return Source(Out.Test);
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
