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
/// run() and runStreamed() share one loop, an ordered window
/// (support/OrderedWindow.h, which the sweep merge shares). The calling
/// thread pulls each input (a job, a test, or for a staged source only a
/// file or a cycle), admits the made tests in pull order (the source's
/// own admission, then the cache lookup), and reports results in pull
/// order; a pool of worker threads, started once per sweep, makes a
/// staged source's tests (reads and parses, or synthesizes them), judges
/// the misses and decodes the hits that hand back a stored record, at most
/// one window (workers x batch size) ahead of the oldest unreported test.
/// So the report is byte-for-byte deterministic for any worker count, and
/// every hook runs on the calling thread. A result leaves the loop at that
/// in-order frontier: into the report, or into a sink that writes it out,
/// so that a campaign's results never exist whole in memory.
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
  /// The result's cats-sweep-report/2 record on one line
  /// (sweepTestResultToJson(*this).dump(0)), when the sweep writes
  /// records: rendered once, on the worker that judged the test, or a
  /// cache hit's log line. Empty otherwise, and in every result a report
  /// keeps in SweepReport::Tests.
  std::string Record;
};

/// Engine configuration.
struct SweepOptions {
  /// Worker threads; 0 means the hardware's threads, and values above
  /// them are clamped to them (hardwareWorkers): sweep jobs are CPU-bound,
  /// so oversubscription only adds context switching.
  unsigned Jobs = 0;
  /// Judging backend for every job (docs/enumeration.md). Pruned is
  /// byte-identical to Naive, the reference it is checked against.
  JudgeBackend Backend = JudgeBackend::Pruned;
  /// Capture per-(test, model) witnesses (docs/explain.md). Off by
  /// default: the report rendering is then byte-identical to a
  /// witness-unaware build.
  bool Witness = false;
};

/// A completed sweep: its counts, and the per-job results in submission
/// order unless a sink took them (StreamHooks::OnResult).
struct SweepReport {
  /// The results, unless a sink took them; then empty.
  std::vector<SweepTestResult> Tests;
  /// Tests that reached the in-order frontier, and those of them that
  /// carry an error: counted whether or not the report keeps them.
  unsigned long long Reported = 0;
  unsigned long long Errored = 0;
  /// Wall time of the whole sweep, seconds.
  double WallSeconds = 0;
  /// Threads that judged: the pool size, capped at the number of tests
  /// judged; 1 when nothing was judged, even when the pool decoded hits.
  unsigned Jobs = 1;
  /// Result-cache statistics of a streamed run with cache hooks attached
  /// (campaign/ResultCache.h). CacheUsed stays false on plain runs and
  /// the JSON report then omits the "cache" stanza, keeping the
  /// rendering byte-compatible with pre-campaign reports.
  bool CacheUsed = false;
  unsigned long long CacheHits = 0;
  unsigned long long CacheMisses = 0;

  /// True when no reported test carries an error.
  bool allOk() const { return Errored == 0; }
};

/// Optional instrumentation of a streamed campaign (runStreamed). All
/// members default to inert; the campaign layer (src/campaign/) supplies
/// the cache hooks and the CLIs a progress callback, without the engine
/// depending on either. Every hook runs on the thread that called
/// runStreamed, so none needs to be thread-safe.
struct StreamHooks {
  /// Consulted per admitted test, in pull order, before judging; return
  /// true to skip judging it (a cache hit), having set the result's
  /// Record to a stored cats-sweep-report/2 record. The engine decodes
  /// that record (resultFromRecord in sweep/ReportIO.h) where it would
  /// judge the test: on a worker, or on the calling thread at one worker.
  /// A record that does not decode to an answer for the test and the
  /// model list is judged instead, and is a miss. Hit results land in the
  /// report at the test's source position, exactly as if judged.
  std::function<bool(const LitmusTest &, SweepTestResult &)> CacheLookup;
  /// Offered every freshly judged result (cache population), in source
  /// order: the misses, including hits whose record was judged instead.
  std::function<void(const LitmusTest &, const SweepTestResult &)> CacheStore;
  /// The sink: takes each result at the in-order frontier, in source
  /// order, after the cache store, with the item it was made from (its
  /// pulled index and its test, also for a cache hit), and may move from
  /// both. When set, the report keeps no results, only its counts. When
  /// unset, the results land in SweepReport::Tests.
  std::function<void(StagedTest &, SweepTestResult &)> OnResult;
  /// Set when the sink writes each result's record: the worker that
  /// judges a test then renders its SweepTestResult::Record, as it does
  /// when a cache store is attached. Nothing else renders records.
  bool SinkWritesRecords = false;
  /// Called with the cumulative report each time it grows by a batch of
  /// results, and once more for a final partial batch: the reported
  /// tests are a prefix of the source in order, every result final, and
  /// SoFar.Reported is the number of source tests consumed.
  std::function<void(const SweepReport &SoFar)> OnBatch;
};

/// Results per runStreamed batch, unless the caller picks another size.
inline constexpr unsigned StreamBatchSize = 64;

/// Runs litmus sweeps over a worker pool.
class SweepEngine {
public:
  explicit SweepEngine(SweepOptions Opts = {});

  /// Worker threads this engine will use.
  unsigned workerCount() const { return Workers; }

  /// Runs every job and returns the report. Thread-safe for concurrent
  /// calls (the engine holds no mutable state).
  SweepReport run(const std::vector<SweepJob> &Jobs) const;

  /// Streamed campaign: drains \p Source, judging each test under
  /// \p Models. Results keep source order; peak memory is one window of
  /// tests (workers x \p BatchSize) plus the accumulated (test-free)
  /// results, or no results at all when a sink takes them — this is how
  /// the diy enumeration feeds thousands of generated scenarios through
  /// the engine. \p Hooks adds the campaign-scale behaviours: result-cache
  /// lookup/store around each test, a sink at the frontier, and a
  /// callback every \p BatchSize results. A staged source's pulls and
  /// admissions run on the calling thread, in order, its admission before
  /// the cache lookup, and its makes on the pool (inline at one worker);
  /// a plain TestSource converts to a staged source whose pull makes and
  /// numbers each test.
  SweepReport runStreamed(const StagedSource &Source,
                          const std::vector<const Model *> &Models,
                          unsigned BatchSize = StreamBatchSize,
                          const StreamHooks &Hooks = {}) const;

private:
  /// The loop behind run() and runStreamed(): the steps of \p Source,
  /// each test judged under \p ModelsOf(its pulled index).
  SweepReport
  sweep(const StagedSource &Source,
        const std::function<const std::vector<const Model *> &(size_t)>
            &ModelsOf,
        unsigned BatchSize, const StreamHooks &Hooks) const;

  unsigned Workers;
  SimulateOptions Judge;
};

/// Convenience: one job per test, all judged under the same \p Models.
std::vector<SweepJob> makeJobs(const std::vector<LitmusTest> &Tests,
                               const std::vector<const Model *> &Models);

/// Serializes \p Report to the cats-sweep-report/2 JSON schema
/// (docs/report-schemas.md documents every field): the top level
/// pretty-printed, one member per line, and each test record on its own
/// line. The rendering is deterministic: two runs of the same sweep differ
/// only in the wall-time fields.
JsonValue sweepReportToJson(const SweepReport &Report);

} // namespace cats

#endif // CATS_SWEEP_SWEEPENGINE_H
