//===- bench_sweep.cpp - Pruned sweep vs the naive backend ----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The catalogue benchmark behind BENCH_sweep.json and the CI perf gate:
/// run the full figure catalogue against every registry model through the
/// SweepEngine (one shared enumeration per test, all models checked per
/// candidate) —
///
///   pruned: the default backend, at 1 worker and at --jobs;
///   naive:  the reference backend at 1 worker, the in-run yardstick.
///
/// Each measurement repeats --repeats times and keeps the best wall time.
/// Modes:
///
///   bench_sweep                      print the comparison table
///   bench_sweep --out FILE           also write the cats-bench-sweep/1
///                                    snapshot (the committed baseline)
///   bench_sweep --check FILE         re-measure and fail (exit 1) when the
///                                    sweep path regressed: normalized cost
///                                    (sweep/naive, same run) more than
///                                    --tolerance (default 0.25) above the
///                                    committed baseline.
///
//===----------------------------------------------------------------------===//

#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "model/Registry.h"
#include "obs/Metrics.h"
#include "sweep/SweepEngine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cats;

namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

/// One sweep pass at \p Jobs workers under \p Backend.
double runSweep(const std::vector<SweepJob> &JobsIn, unsigned Jobs,
                std::vector<bool> &Verdicts,
                JudgeBackend Backend = JudgeBackend::Pruned) {
  Verdicts.clear();
  SweepOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Backend = Backend;
  SweepEngine Engine(Opts);
  const auto Start = Clock::now();
  SweepReport Report = Engine.run(JobsIn);
  const double Wall = elapsed(Start);
  for (const SweepTestResult &T : Report.Tests)
    for (const SimulationResult &R : T.Result.PerModel)
      Verdicts.push_back(R.ConditionReachable);
  return Wall;
}

struct Measurement {
  double SweepSecondsJ1 = 0;
  double SweepSeconds = 0;
  /// The 1-worker sweep forced onto the naive backend — the reference the
  /// incremental enumerator's speedup is measured against
  /// (docs/enumeration.md) and the normalizer of the perf gate; gated at
  /// --min-backend-speedup in --check.
  double NaiveSecondsJ1 = 0;
  /// The 1-worker sweep with metrics collection enabled — the "cheap
  /// enough to leave on" claim, gated at --obs-tolerance in --check.
  double SweepSecondsJ1Obs = 0;
  bool VerdictsMatch = true;
  /// Headline counters from the metrics-enabled pass (identical every
  /// repeat — the sweep is deterministic).
  unsigned long long CandidatesTotal = 0;
  unsigned long long CandidatesConsistent = 0;
  unsigned long long MemoHits = 0;
  unsigned long long MemoMisses = 0;
  /// Incremental-enumerator counters (judge.pruned.*): the real prune
  /// rate is PrunedCandidates / CandidatesTotal — the fraction of the
  /// candidate space whose rejection was proven on a partial assignment
  /// and never materialized.
  unsigned long long PartialCuts = 0;
  unsigned long long PrunedCandidates = 0;
  unsigned long long CandidatesJudged = 0;
};

Measurement measure(unsigned Jobs, unsigned Repeats) {
  std::vector<LitmusTest> Tests;
  for (const CatalogEntry &Entry : figureCatalog())
    Tests.push_back(Entry.Test);
  const std::vector<const Model *> &Models = allModels();
  const std::vector<SweepJob> JobsIn = makeJobs(Tests, Models);

  Measurement M;
  M.SweepSecondsJ1 = 1e300;
  M.SweepSeconds = 1e300;
  M.SweepSecondsJ1Obs = 1e300;
  M.NaiveSecondsJ1 = 1e300;
  std::vector<bool> Shared, SharedJ1, SharedNaive, SharedObs;
  for (unsigned R = 0; R < Repeats; ++R) {
    M.SweepSecondsJ1 =
        std::min(M.SweepSecondsJ1, runSweep(JobsIn, 1, SharedJ1));
    M.SweepSeconds = std::min(M.SweepSeconds, runSweep(JobsIn, Jobs, Shared));
    M.NaiveSecondsJ1 = std::min(
        M.NaiveSecondsJ1,
        runSweep(JobsIn, 1, SharedNaive, JudgeBackend::Naive));

    // The same 1-worker pass with the metrics registry live: verdicts and
    // counters must not depend on observability being on.
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    M.SweepSecondsJ1Obs =
        std::min(M.SweepSecondsJ1Obs, runSweep(JobsIn, 1, SharedObs));
    obs::setMetricsEnabled(false);
    M.CandidatesTotal = obs::counter("judge.candidates_total").value();
    M.CandidatesConsistent =
        obs::counter("judge.candidates_consistent").value();
    M.MemoHits = obs::counter("memo.model_hits").value();
    M.MemoMisses = obs::counter("memo.model_misses").value();
    M.PartialCuts = obs::counter("judge.pruned.partial").value();
    M.PrunedCandidates = obs::counter("judge.pruned.candidates").value();
    M.CandidatesJudged = obs::counter("judge.candidates_judged").value();

    if (SharedNaive != Shared || SharedNaive != SharedJ1 ||
        SharedNaive != SharedObs)
      M.VerdictsMatch = false;
  }
  return M;
}

JsonValue toJson(const Measurement &M, unsigned Jobs, unsigned Repeats) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-bench-sweep/1");
  Root.set("tests", static_cast<unsigned>(figureCatalog().size()));
  Root.set("models", static_cast<unsigned>(allModels().size()));
  Root.set("jobs", Jobs);
  Root.set("repeats", Repeats);
  Root.set("sweep_seconds_j1", M.SweepSecondsJ1);
  Root.set("sweep_seconds", M.SweepSeconds);
  Root.set("naive_seconds_j1", M.NaiveSecondsJ1);
  Root.set("normalized_sweep_cost", M.SweepSeconds / M.NaiveSecondsJ1);
  Root.set("verdicts_match_naive", M.VerdictsMatch);
  Root.set("backend_speedup", M.NaiveSecondsJ1 / M.SweepSecondsJ1);
  Root.set("sweep_seconds_j1_obs", M.SweepSecondsJ1Obs);
  Root.set("obs_overhead", M.SweepSecondsJ1Obs / M.SweepSecondsJ1 - 1.0);
  JsonValue Counters = JsonValue::object();
  Counters.set("candidates_total", M.CandidatesTotal);
  Counters.set("candidates_consistent", M.CandidatesConsistent);
  // The fraction of the raw candidate space dismissed on a partial
  // assignment (judge.pruned.candidates) — zero would mean the cut never
  // fired. The historical field computed 1 - consistent/total, which is
  // the value-consistency rate, not pruning; that ratio keeps its own
  // name below.
  Counters.set("prune_rate",
               M.CandidatesTotal
                   ? static_cast<double>(M.PrunedCandidates) /
                         static_cast<double>(M.CandidatesTotal)
                   : 0.0);
  Counters.set("inconsistent_rate",
               M.CandidatesTotal
                   ? 1.0 - static_cast<double>(M.CandidatesConsistent) /
                               static_cast<double>(M.CandidatesTotal)
                   : 0.0);
  Counters.set("pruned_partial_cuts", M.PartialCuts);
  Counters.set("pruned_candidates", M.PrunedCandidates);
  Counters.set("candidates_judged", M.CandidatesJudged);
  Counters.set("memo_hits", M.MemoHits);
  Counters.set("memo_misses", M.MemoMisses);
  Root.set("counters", std::move(Counters));
  return Root;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--repeats N] [--out FILE]\n"
               "          [--check FILE] [--tolerance F] [--obs-tolerance F]\n"
               "          [--min-backend-speedup F]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = 4, Repeats = 10;
  double Tolerance = 0.25, ObsTolerance = 0.05;
  double MinBackendSpeedup = 1.0;
  std::string OutPath, CheckPath;

  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--jobs") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      Jobs = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (Arg == "--repeats") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      Repeats = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (Arg == "--out") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      OutPath = V;
    } else if (Arg == "--check") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      CheckPath = V;
    } else if (Arg == "--tolerance") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      Tolerance = std::strtod(V, nullptr);
    } else if (Arg == "--obs-tolerance") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      ObsTolerance = std::strtod(V, nullptr);
    } else if (Arg == "--min-backend-speedup") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      MinBackendSpeedup = std::strtod(V, nullptr);
    } else {
      return usage(argv[0]);
    }
  }
  if (Jobs == 0 || Repeats == 0)
    return usage(argv[0]);

  std::printf("== Pruned shared-enumeration sweep vs the naive backend ==\n");
  std::printf("catalogue: %zu tests x %zu models, best of %u repeats\n\n",
              figureCatalog().size(), allModels().size(), Repeats);

  Measurement M = measure(Jobs, Repeats);

  std::printf("%-38s %10.4fs\n", "sweep, naive backend, 1 worker",
              M.NaiveSecondsJ1);
  std::printf("%-38s %10.4fs  (%.2fx)\n", "sweep, pruned backend, 1 worker",
              M.SweepSecondsJ1, M.NaiveSecondsJ1 / M.SweepSecondsJ1);
  char Label[64];
  std::snprintf(Label, sizeof(Label), "sweep, pruned backend, %u workers",
                Jobs);
  std::printf("%-38s %10.4fs  (%.2fx)\n", Label, M.SweepSeconds,
              M.NaiveSecondsJ1 / M.SweepSeconds);
  std::printf("%-38s %10.4fs  (+%.1f%% vs metrics off)\n",
              "sweep, 1 worker, metrics enabled", M.SweepSecondsJ1Obs,
              (M.SweepSecondsJ1Obs / M.SweepSecondsJ1 - 1.0) * 100);
  std::printf("candidates: %llu enumerated, %llu consistent, "
              "%llu pruned on partial assignments (%.1f%% prune rate, "
              "%llu cuts), %llu judged; memo: %llu hits / %llu misses\n",
              M.CandidatesTotal, M.CandidatesConsistent, M.PrunedCandidates,
              M.CandidatesTotal
                  ? 100.0 * static_cast<double>(M.PrunedCandidates) /
                        static_cast<double>(M.CandidatesTotal)
                  : 0.0,
              M.PartialCuts, M.CandidatesJudged, M.MemoHits, M.MemoMisses);
  std::printf("verdicts identical to naive: %s\n",
              M.VerdictsMatch ? "yes" : "NO");

  if (!M.VerdictsMatch) {
    std::fprintf(stderr,
                 "FAIL: sweep verdicts differ from the naive backend\n");
    return 1;
  }

  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
      return 1;
    }
    Out << toJson(M, Jobs, Repeats).dump();
    std::printf("wrote %s\n", OutPath.c_str());
  }

  if (!CheckPath.empty()) {
    std::ifstream In(CheckPath);
    if (!In) {
      std::fprintf(stderr, "cannot read baseline %s\n", CheckPath.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    auto Baseline = JsonValue::parse(Buf.str());
    if (!Baseline) {
      std::fprintf(stderr, "bad baseline %s: %s\n", CheckPath.c_str(),
                   Baseline.message().c_str());
      return 1;
    }
    const JsonValue *Cost = Baseline->get("normalized_sweep_cost");
    if (!Cost || !Cost->isNumber()) {
      std::fprintf(stderr, "baseline %s lacks normalized_sweep_cost\n",
                   CheckPath.c_str());
      return 1;
    }

    // The gate compares the normalized cost of the sweep path (sweep wall
    // time over the naive backend's 1-worker wall time, both measured in
    // this run) against the committed baseline: an algorithmic or build
    // regression moves this ratio even though absolute wall times differ
    // per runner.
    const double Fresh = M.SweepSeconds / M.NaiveSecondsJ1;
    const double Allowed = Cost->asNumber() * (1.0 + Tolerance);
    std::printf("\nperf gate: normalized sweep cost %.4f (baseline %.4f, "
                "allowed <= %.4f)\n",
                Fresh, Cost->asNumber(), Allowed);
    if (Fresh > Allowed) {
      std::fprintf(stderr,
                   "FAIL: sweep wall time regressed more than %.0f%% vs the "
                   "committed baseline\n",
                   Tolerance * 100);
      return 1;
    }

    // Backend gate, measured in-run: the default pruned enumerator must
    // not lose to the naive reference it replaced. The catalogue tests
    // are small, so the bar is deliberately modest here; the 3x bar on a
    // generated corpus lives in bench_diy.
    const double BackendSpeedup = M.NaiveSecondsJ1 / M.SweepSecondsJ1;
    std::printf("backend gate: pruned %.2fx over naive (required >= %.2f)\n",
                BackendSpeedup, MinBackendSpeedup);
    if (BackendSpeedup < MinBackendSpeedup) {
      std::fprintf(stderr,
                   "FAIL: pruned backend speedup %.2fx is below the "
                   "required %.2fx\n",
                   BackendSpeedup, MinBackendSpeedup);
      return 1;
    }

    // Observability gate, measured in-run (so baselines committed before
    // the metrics fields existed still validate): the metrics-enabled
    // 1-worker sweep must stay within --obs-tolerance of the disabled
    // one. An absolute 2ms slack floor damps timer noise on the ~15ms
    // catalogue runs.
    const double ObsOverhead = M.SweepSecondsJ1Obs - M.SweepSecondsJ1;
    const double ObsAllowed =
        std::max(M.SweepSecondsJ1 * ObsTolerance, 0.002);
    std::printf("obs gate: metrics-enabled sweep +%.4fs over %.4fs "
                "(allowed <= +%.4fs)\n",
                ObsOverhead, M.SweepSecondsJ1, ObsAllowed);
    if (ObsOverhead > ObsAllowed) {
      std::fprintf(stderr,
                   "FAIL: enabling metrics costs more than %.0f%% of the "
                   "sweep wall time\n",
                   ObsTolerance * 100);
      return 1;
    }
    std::printf("perf gate passed\n");
  }

  return 0;
}
