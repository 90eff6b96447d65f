//===- SweepEngine.h - Parallel batch litmus sweeps -----------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign driver behind the paper's tables: run many litmus tests
/// against many models at once. Each job is one test plus a model set; the
/// engine compiles the test once, enumerates its candidate space once, and
/// checks every model of the set against each candidate in the same pass
/// (herd/Simulator's MultiModelChecker), instead of one full enumeration
/// per model as the legacy per-model simulate() loop does.
///
/// Jobs are distributed over a pool of std::thread workers. Results land in
/// a slot per job, so the report order equals submission order and is
/// byte-for-byte deterministic for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SWEEP_SWEEPENGINE_H
#define CATS_SWEEP_SWEEPENGINE_H

#include "herd/Simulator.h"
#include "litmus/LitmusTest.h"
#include "litmus/TestFilter.h"
#include "model/Model.h"
#include "sweep/Json.h"

#include <string>
#include <vector>

namespace cats {

/// One unit of sweep work: a litmus test and the models to judge it under.
/// Model instances must be stateless (every registry model is) and outlive
/// the sweep.
struct SweepJob {
  LitmusTest Test;
  std::vector<const Model *> Models;
};

/// The outcome of one job.
struct SweepTestResult {
  std::string TestName;
  /// Non-empty when the test failed to validate/compile; Result is then
  /// empty and the sweep's exit status reflects the failure.
  std::string Error;
  MultiSimulationResult Result;
  /// Wall time of this job on its worker, seconds.
  double WallSeconds = 0;
};

/// Engine configuration.
struct SweepOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency(). Values
  /// above the hardware concurrency are clamped to it: sweep jobs are
  /// CPU-bound, so oversubscription only adds context switching.
  unsigned Jobs = 0;
  /// Judging backend for every job (docs/enumeration.md). Pruned is
  /// byte-identical to Naive, the reference it is checked against.
  JudgeBackend Backend = JudgeBackend::Pruned;
  /// Capture per-(test, model) witnesses (docs/explain.md). Off by
  /// default: the report rendering is then byte-identical to a
  /// witness-unaware build.
  bool Witness = false;
};

/// A completed sweep: per-job results in submission order.
struct SweepReport {
  std::vector<SweepTestResult> Tests;
  /// Wall time of the whole sweep, seconds.
  double WallSeconds = 0;
  /// Worker threads actually used.
  unsigned Jobs = 1;
  /// Result-cache statistics of a streamed run with cache hooks attached
  /// (campaign/ResultCache.h). CacheUsed stays false on plain runs and
  /// the JSON report then omits the "cache" stanza, keeping the
  /// rendering byte-compatible with pre-campaign reports.
  bool CacheUsed = false;
  unsigned long long CacheHits = 0;
  unsigned long long CacheMisses = 0;

  /// True when no job carries an error.
  bool allOk() const;
};

/// Optional instrumentation of a streamed campaign (runStreamed). All
/// members default to inert; the campaign layer (src/campaign/) supplies
/// them for caching and checkpoint/resume without the engine depending on
/// either subsystem.
struct StreamHooks {
  /// Consulted per pulled test before judging; return true and fill the
  /// result to skip the batch entirely (a cache hit). Hit results land in
  /// the report at the test's source position, exactly as if judged.
  std::function<bool(const LitmusTest &, SweepTestResult &)> CacheLookup;
  /// Offered every freshly judged result (cache population).
  std::function<void(const LitmusTest &, const SweepTestResult &)> CacheStore;
  /// Called after each completed batch with the cumulative report and the
  /// total number of source tests consumed so far — the checkpoint write
  /// point: everything in the report is final, nothing in flight.
  std::function<void(const SweepReport &SoFar, unsigned long long Consumed)>
      OnBatch;
  /// Pull and discard this many source tests before judging anything —
  /// how --resume skips the prefix a checkpoint already covers (synthesis
  /// is repaid, judging — the dominant cost — is not).
  unsigned long long SkipTests = 0;
};

/// Runs litmus sweeps over a worker pool.
class SweepEngine {
public:
  explicit SweepEngine(SweepOptions Opts = {});

  /// Worker threads this engine will use.
  unsigned workerCount() const { return Workers; }

  /// Runs every job and returns the report. Thread-safe for concurrent
  /// calls (the engine holds no mutable state).
  SweepReport run(const std::vector<SweepJob> &Jobs) const;

  /// Streamed campaign: pulls up to \p BatchSize tests from \p Source,
  /// judges the batch under \p Models as one run() pass, appends the
  /// results, and repeats until the source drains. Results keep source
  /// order; peak memory is one batch of tests plus the accumulated
  /// (test-free) results — this is how the diy enumeration feeds
  /// thousands of generated scenarios through the engine. \p Hooks adds
  /// the campaign-scale behaviours: result-cache lookup/store around each
  /// test, a per-batch checkpoint callback, and a resume skip count.
  SweepReport runStreamed(const TestSource &Source,
                          const std::vector<const Model *> &Models,
                          unsigned BatchSize = 64,
                          const StreamHooks &Hooks = {}) const;

private:
  unsigned Workers;
  JudgeBackend Backend;
  bool Witness;
};

/// Convenience: one job per test, all judged under the same \p Models.
std::vector<SweepJob> makeJobs(const std::vector<LitmusTest> &Tests,
                               const std::vector<const Model *> &Models);

/// Serializes \p Report to the cats-sweep-report/1 JSON schema
/// (docs/sweep.md documents every field). The rendering is deterministic:
/// two runs of the same sweep differ only in the wall-time fields.
JsonValue sweepReportToJson(const SweepReport &Report);

} // namespace cats

#endif // CATS_SWEEP_SWEEPENGINE_H
