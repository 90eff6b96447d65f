//===- bench_diy.cpp - Enumeration/synthesis cost vs sweep cost -----------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generation benchmark behind BENCH_diy.json and the CI perf gate:
/// enumerate a fixed Power slice (size 5, every mechanism), synthesize
/// its tests, and stream them through the sweep engine. Generation must
/// stay a small fraction of judging — the gated metric is
///
///   normalized_gen_cost = (enumerate + synthesize) / sweep_1_worker
///
/// measured in the same run, so runner speed cancels out. The multi-worker
/// streamed sweep is reported for information. Modes:
///
///   bench_diy                      print the table
///   bench_diy --out FILE           write the cats-bench-diy/1 snapshot
///   bench_diy --check FILE         re-measure and fail (exit 1) when
///                                  normalized_gen_cost regressed more
///                                  than --tolerance (default 0.25) over
///                                  the committed baseline, when the
///                                  enumeration stops being deterministic,
///                                  when the pruned backend is less than
///                                  --min-backend-speedup (default 3x)
///                                  faster than naive on the size-6
///                                  corpus, or when the internal-com
///                                  slice reports a zero prune rate.
///
/// Two extra corpora quantify the incremental enumerator
/// (docs/enumeration.md): a size-6 slice judged under both backends (the
/// speedup measurement), and an internal-communication slice whose
/// same-location po pairs make the partial-assignment cut actually fire
/// (the prune-rate measurement).
///
//===----------------------------------------------------------------------===//

#include "diy/Enumerate.h"
#include "model/Registry.h"
#include "obs/Metrics.h"
#include "support/StringUtils.h"
#include "sweep/SweepEngine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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

EnumerateOptions sliceOptions() {
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MaxEdges = 5;
  return Opts;
}

/// The backend-speedup corpus: every six-event Power cycle, capped so the
/// naive reference pass stays in benchmark territory.
EnumerateOptions size6Options() {
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MinEdges = 6;
  Opts.MaxEdges = 6;
  Opts.Limit = 400;
  return Opts;
}

/// The prune-rate corpus: internal-communication detours put several
/// same-location accesses on one thread, so po-loc is non-empty and the
/// enumerator's partial cut has something to do.
EnumerateOptions internalComOptions() {
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MaxEdges = 5;
  Opts.InternalCom = true;
  Opts.Limit = 300;
  return Opts;
}

struct Measurement {
  uint64_t Cycles = 0;
  unsigned Tests = 0;
  double EnumerateSeconds = 0;
  double SynthesizeSeconds = 0;
  double SweepSecondsJ1 = 0;
  double SweepSeconds = 0;
  /// The 1-worker streamed sweep with metrics collection enabled, gated
  /// at --obs-tolerance in --check.
  double SweepSecondsJ1Obs = 0;
  bool Deterministic = true;
  /// Headline counters from the metrics-enabled pass.
  unsigned long long ClosuresTried = 0;
  unsigned long long TestsSynthesized = 0;
  unsigned long long CandidatesTotal = 0;
  unsigned long long CandidatesConsistent = 0;
  /// Size-6 backend comparison: the same corpus streamed through the
  /// naive and the pruned backend at 1 worker.
  unsigned Size6Tests = 0;
  double Size6NaiveSeconds = 0;
  double Size6PrunedSeconds = 0;
  /// Internal-com slice counters from a metrics-enabled pruned pass; the
  /// prune rate is PrunedCandidates / CandidatesTotal.
  unsigned long long IcCandidatesTotal = 0;
  unsigned long long IcPrunedCandidates = 0;
  unsigned long long IcPartialCuts = 0;
};

/// Materializes a slice's tests up front, so backend passes time judging
/// only (synthesis is backend-independent and would dilute the ratio).
std::vector<SweepJob> materializeJobs(const EnumerateOptions &Opts) {
  auto Source = makeDiyTestSource(Opts);
  if (!Source) {
    std::fprintf(stderr, "bench_diy: %s\n", Source.message().c_str());
    std::exit(1);
  }
  std::vector<LitmusTest> Tests;
  TestSource Drain = inlineSource(Source.take());
  LitmusTest Test;
  while (Drain(Test))
    Tests.push_back(Test);
  return makeJobs(Tests, allModels());
}

/// One 1-worker judging pass over pre-materialized jobs under \p Backend.
double runBackendPass(const std::vector<SweepJob> &Jobs,
                      JudgeBackend Backend) {
  SweepOptions EngineOpts;
  EngineOpts.Jobs = 1;
  EngineOpts.Backend = Backend;
  SweepEngine Engine(EngineOpts);
  const auto Start = Clock::now();
  SweepReport Report = Engine.run(Jobs);
  const double Wall = elapsed(Start);
  if (!Report.allOk()) {
    std::fprintf(stderr, "bench_diy: backend pass failed\n");
    std::exit(1);
  }
  return Wall;
}

Measurement measure(unsigned Jobs, unsigned Repeats) {
  const EnumerateOptions Opts = sliceOptions();
  const std::vector<const Model *> &Models = allModels();

  Measurement M;
  M.EnumerateSeconds = 1e300;
  M.SynthesizeSeconds = 1e300;
  M.SweepSecondsJ1 = 1e300;
  M.SweepSeconds = 1e300;
  M.SweepSecondsJ1Obs = 1e300;

  std::vector<std::string> Reference;
  for (unsigned R = 0; R < Repeats; ++R) {
    // Enumeration alone.
    std::vector<std::string> Names;
    auto Start = Clock::now();
    enumerateCycles(Opts, [&](const EnumeratedCycle &C) {
      Names.push_back(C.Name);
      return true;
    });
    M.EnumerateSeconds = std::min(M.EnumerateSeconds, elapsed(Start));
    M.Cycles = Names.size();
    if (Reference.empty())
      Reference = Names;
    else if (Names != Reference)
      M.Deterministic = false;

    // Synthesis of the whole slice.
    Start = Clock::now();
    unsigned Tests = 0;
    enumerateCycles(Opts, [&](const EnumeratedCycle &C) {
      if (synthesizeTest(C.Cycle, Opts.Target))
        ++Tests;
      return true;
    });
    M.SynthesizeSeconds = std::min(M.SynthesizeSeconds, elapsed(Start));
    M.Tests = Tests;

    // Streamed sweeps: 1 worker always, --jobs workers when distinct
    // (with --jobs 1 the multi-worker case *is* the 1-worker case).
    std::vector<unsigned> WorkerCounts = {1};
    if (Jobs > 1)
      WorkerCounts.push_back(Jobs);
    for (unsigned W : WorkerCounts) {
      auto Source = makeDiyTestSource(Opts);
      if (!Source) {
        std::fprintf(stderr, "bench_diy: %s\n", Source.message().c_str());
        std::exit(1);
      }
      SweepEngine Engine(SweepOptions{W});
      Start = Clock::now();
      SweepReport Report = Engine.runStreamed(*Source, Models, 32);
      const double Wall = elapsed(Start);
      if (Report.Tests.size() != Tests)
        M.Deterministic = false;
      if (W == 1)
        M.SweepSecondsJ1 = std::min(M.SweepSecondsJ1, Wall);
      else
        M.SweepSeconds = std::min(M.SweepSeconds, Wall);
    }
    if (Jobs == 1)
      M.SweepSeconds = M.SweepSecondsJ1;

    // The same 1-worker streamed sweep with the metrics registry live.
    // The source is created inside the enabled window so the enumeration
    // counters (diy.closures_tried, diy.tests_synthesized) register; the
    // clock still covers runStreamed only, like the passes above.
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    auto ObsSource = makeDiyTestSource(Opts);
    if (!ObsSource) {
      std::fprintf(stderr, "bench_diy: %s\n", ObsSource.message().c_str());
      std::exit(1);
    }
    SweepEngine ObsEngine(SweepOptions{1});
    Start = Clock::now();
    SweepReport ObsReport = ObsEngine.runStreamed(*ObsSource, Models, 32);
    M.SweepSecondsJ1Obs = std::min(M.SweepSecondsJ1Obs, elapsed(Start));
    obs::setMetricsEnabled(false);
    if (ObsReport.Tests.size() != Tests)
      M.Deterministic = false;
    M.ClosuresTried = obs::counter("diy.closures_tried").value();
    M.TestsSynthesized = obs::counter("diy.tests_synthesized").value();
    M.CandidatesTotal = obs::counter("judge.candidates_total").value();
    M.CandidatesConsistent =
        obs::counter("judge.candidates_consistent").value();
  }

  // Backend comparison on the size-6 corpus: pre-materialized tests,
  // judging wall time only, best of the same repeats.
  const std::vector<SweepJob> Size6Jobs = materializeJobs(size6Options());
  M.Size6Tests = static_cast<unsigned>(Size6Jobs.size());
  M.Size6NaiveSeconds = 1e300;
  M.Size6PrunedSeconds = 1e300;
  for (unsigned R = 0; R < Repeats; ++R) {
    M.Size6NaiveSeconds =
        std::min(M.Size6NaiveSeconds,
                 runBackendPass(Size6Jobs, JudgeBackend::Naive));
    M.Size6PrunedSeconds =
        std::min(M.Size6PrunedSeconds,
                 runBackendPass(Size6Jobs, JudgeBackend::Pruned));
  }

  // Prune-rate measurement: one metrics-enabled pruned pass over the
  // internal-com slice (the counters are deterministic, one pass is
  // exact).
  obs::resetMetrics();
  obs::setMetricsEnabled(true);
  runBackendPass(materializeJobs(internalComOptions()),
                 JudgeBackend::Pruned);
  obs::setMetricsEnabled(false);
  M.IcCandidatesTotal = obs::counter("judge.candidates_total").value();
  M.IcPrunedCandidates = obs::counter("judge.pruned.candidates").value();
  M.IcPartialCuts = obs::counter("judge.pruned.partial").value();
  return M;
}

JsonValue toJson(const Measurement &M, unsigned Jobs, unsigned Repeats) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-bench-diy/1");
  Root.set("arch", "Power");
  Root.set("max_size", sliceOptions().MaxEdges);
  Root.set("cycles", static_cast<unsigned long long>(M.Cycles));
  Root.set("tests", M.Tests);
  Root.set("jobs", Jobs);
  Root.set("repeats", Repeats);
  Root.set("enumerate_seconds", M.EnumerateSeconds);
  Root.set("synthesize_seconds", M.SynthesizeSeconds);
  Root.set("sweep_seconds_j1", M.SweepSecondsJ1);
  Root.set("sweep_seconds", M.SweepSeconds);
  Root.set("normalized_gen_cost",
           (M.EnumerateSeconds + M.SynthesizeSeconds) / M.SweepSecondsJ1);
  Root.set("deterministic", M.Deterministic);
  Root.set("sweep_seconds_j1_obs", M.SweepSecondsJ1Obs);
  Root.set("obs_overhead", M.SweepSecondsJ1Obs / M.SweepSecondsJ1 - 1.0);
  JsonValue Counters = JsonValue::object();
  Counters.set("closures_tried", M.ClosuresTried);
  Counters.set("tests_synthesized", M.TestsSynthesized);
  Counters.set("candidates_total", M.CandidatesTotal);
  Counters.set("candidates_consistent", M.CandidatesConsistent);
  // The value-consistency rate kept its historical slot under an honest
  // name; prune_rate now reports actual partial-assignment pruning,
  // measured on the internal-com slice where the cut can fire.
  Counters.set("inconsistent_rate",
               M.CandidatesTotal
                   ? 1.0 - static_cast<double>(M.CandidatesConsistent) /
                               static_cast<double>(M.CandidatesTotal)
                   : 0.0);
  Root.set("counters", std::move(Counters));
  JsonValue Size6 = JsonValue::object();
  Size6.set("tests", M.Size6Tests);
  Size6.set("naive_seconds_j1", M.Size6NaiveSeconds);
  Size6.set("pruned_seconds_j1", M.Size6PrunedSeconds);
  Size6.set("backend_speedup", M.Size6NaiveSeconds / M.Size6PrunedSeconds);
  Root.set("size6", std::move(Size6));
  JsonValue Ic = JsonValue::object();
  Ic.set("candidates_total", M.IcCandidatesTotal);
  Ic.set("pruned_candidates", M.IcPrunedCandidates);
  Ic.set("pruned_partial_cuts", M.IcPartialCuts);
  Ic.set("prune_rate",
         M.IcCandidatesTotal
             ? static_cast<double>(M.IcPrunedCandidates) /
                   static_cast<double>(M.IcCandidatesTotal)
             : 0.0);
  Root.set("internal_com", std::move(Ic));
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
  unsigned Jobs = 4, Repeats = 5;
  double Tolerance = 0.25, ObsTolerance = 0.05, MinBackendSpeedup = 3.0;
  std::string OutPath, CheckPath;

  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--jobs") {
      const char *V = Value();
      if (!V || !parseUnsignedArg(V, Jobs))
        return usage(argv[0]);
    } else if (Arg == "--repeats") {
      const char *V = Value();
      if (!V || !parseUnsignedArg(V, Repeats))
        return usage(argv[0]);
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
      char *End = nullptr;
      Tolerance = V ? std::strtod(V, &End) : 0;
      if (!V || !End || *End != '\0' || Tolerance < 0)
        return usage(argv[0]);
    } else if (Arg == "--obs-tolerance") {
      const char *V = Value();
      char *End = nullptr;
      ObsTolerance = V ? std::strtod(V, &End) : 0;
      if (!V || !End || *End != '\0' || ObsTolerance < 0)
        return usage(argv[0]);
    } else if (Arg == "--min-backend-speedup") {
      const char *V = Value();
      char *End = nullptr;
      MinBackendSpeedup = V ? std::strtod(V, &End) : 0;
      if (!V || !End || *End != '\0' || MinBackendSpeedup < 0)
        return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (Jobs == 0 || Repeats == 0)
    return usage(argv[0]);

  std::printf("== diy enumeration + synthesis vs streamed sweep ==\n");
  Measurement M = measure(Jobs, Repeats);
  std::printf("slice: Power size <= %u, %llu canonical cycles, %u tests, "
              "best of %u repeats\n\n",
              sliceOptions().MaxEdges,
              static_cast<unsigned long long>(M.Cycles), M.Tests, Repeats);
  std::printf("%-38s %10.4fs\n", "enumerate (canonical cycles)",
              M.EnumerateSeconds);
  std::printf("%-38s %10.4fs\n", "synthesize (all tests)",
              M.SynthesizeSeconds);
  std::printf("%-38s %10.4fs\n", "streamed sweep, 1 worker",
              M.SweepSecondsJ1);
  char Label[64];
  std::snprintf(Label, sizeof(Label), "streamed sweep, %u workers", Jobs);
  std::printf("%-38s %10.4fs  (%.2fx)\n", Label, M.SweepSeconds,
              M.SweepSecondsJ1 / M.SweepSeconds);
  std::printf("%-38s %10.4fs  (+%.1f%% vs metrics off)\n",
              "streamed sweep, 1 worker, metrics on", M.SweepSecondsJ1Obs,
              (M.SweepSecondsJ1Obs / M.SweepSecondsJ1 - 1.0) * 100);
  std::printf("counters: %llu closures tried, %llu tests synthesized, "
              "%llu candidates (%.1f%% pruned)\n",
              M.ClosuresTried, M.TestsSynthesized, M.CandidatesTotal,
              M.CandidatesTotal
                  ? 100.0 * (1.0 - static_cast<double>(M.CandidatesConsistent) /
                                       static_cast<double>(M.CandidatesTotal))
                  : 0.0);
  const double GenCost =
      (M.EnumerateSeconds + M.SynthesizeSeconds) / M.SweepSecondsJ1;
  std::printf("normalized generation cost: %.4f\n", GenCost);

  const double BackendSpeedup = M.Size6NaiveSeconds / M.Size6PrunedSeconds;
  std::printf("\nsize-6 corpus (%u tests, 1 worker):\n", M.Size6Tests);
  std::printf("%-38s %10.4fs\n", "  naive backend", M.Size6NaiveSeconds);
  std::printf("%-38s %10.4fs  (%.2fx)\n", "  pruned backend",
              M.Size6PrunedSeconds, BackendSpeedup);
  const double PruneRate =
      M.IcCandidatesTotal
          ? static_cast<double>(M.IcPrunedCandidates) /
                static_cast<double>(M.IcCandidatesTotal)
          : 0.0;
  std::printf("internal-com slice: %llu candidates, %llu pruned on "
              "partial assignments (%.1f%% prune rate, %llu cuts)\n",
              M.IcCandidatesTotal, M.IcPrunedCandidates, 100.0 * PruneRate,
              M.IcPartialCuts);
  std::printf("deterministic: %s\n", M.Deterministic ? "yes" : "NO");

  if (!M.Deterministic) {
    std::fprintf(stderr, "FAIL: enumeration is not deterministic\n");
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
    const JsonValue *Cost = Baseline->get("normalized_gen_cost");
    if (!Cost || !Cost->isNumber()) {
      std::fprintf(stderr, "baseline %s lacks normalized_gen_cost\n",
                   CheckPath.c_str());
      return 1;
    }
    const JsonValue *Cycles = Baseline->get("cycles");
    if (Cycles && Cycles->isNumber() &&
        static_cast<uint64_t>(Cycles->asNumber()) != M.Cycles) {
      std::fprintf(stderr,
                   "FAIL: slice changed (%llu cycles vs baseline %.0f); "
                   "refresh BENCH_diy.json with --out\n",
                   static_cast<unsigned long long>(M.Cycles),
                   Cycles->asNumber());
      return 1;
    }
    // Generation is a small fraction of judging, so the ratio is noisy in
    // absolute terms; allow the relative tolerance plus a small absolute
    // floor.
    const double Allowed =
        std::max(Cost->asNumber() * (1.0 + Tolerance),
                 Cost->asNumber() + 0.005);
    std::printf("\nperf gate: normalized generation cost %.4f "
                "(baseline %.4f, allowed <= %.4f)\n",
                GenCost, Cost->asNumber(), Allowed);
    if (GenCost > Allowed) {
      std::fprintf(stderr,
                   "FAIL: generation cost regressed more than %.0f%% vs "
                   "the committed baseline\n",
                   Tolerance * 100);
      return 1;
    }

    // Observability gate, measured in-run (baselines committed before the
    // metrics fields existed still validate): the metrics-enabled sweep
    // must stay within --obs-tolerance of the disabled one, with a 2ms
    // absolute slack floor against timer noise.
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
    // Backend gate, measured in-run: the incremental pruned enumerator
    // must beat the naive reference by --min-backend-speedup on the
    // size-6 corpus.
    std::printf("backend gate: pruned %.2fx over naive on size-6 "
                "(required >= %.2f)\n",
                BackendSpeedup, MinBackendSpeedup);
    if (BackendSpeedup < MinBackendSpeedup) {
      std::fprintf(stderr,
                   "FAIL: pruned backend speedup %.2fx on the size-6 "
                   "corpus is below the required %.2fx\n",
                   BackendSpeedup, MinBackendSpeedup);
      return 1;
    }

    // Prune-rate gate: the internal-com slice must actually exercise the
    // partial-assignment cut; a zero rate means the pruning leg of the
    // enumerator went dead.
    std::printf("prune gate: internal-com prune rate %.4f (required > 0)\n",
                PruneRate);
    if (!(PruneRate > 0.0)) {
      std::fprintf(stderr, "FAIL: internal-com slice reports a zero prune "
                           "rate\n");
      return 1;
    }
    std::printf("perf gate passed\n");
  }

  return 0;
}
