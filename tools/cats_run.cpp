//===- cats_run.cpp - Native litmus runner CLI ----------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware-testing CLI over src/run (docs/running.md): execute
/// litmus tests as real concurrent code — relaxed std::atomic accesses,
/// genuine host fences and dependency chains, a litmus7-style batched
/// harness — and cross-check every observed outcome against a reference
/// model. A nonzero exit means a load failure or a soundness violation
/// (an outcome the model forbids was observed), which is what the CI
/// smoke job gates on.
///
///   cats_run litmus/                      # whole corpus, host model
///   cats_run --filter 'sb|mp|lb' --iterations 200000 litmus/
///   cats_run --catalogue --model TSO --seed 7 --json report.json
///
//===----------------------------------------------------------------------===//

#include "CliCommon.h"
#include "cat/CatAdapter.h"
#include "litmus/Compiler.h"
#include "litmus/TestFilter.h"
#include "model/Registry.h"
#include "obs/FlightRecorder.h"
#include "obs/Witness.h"
#include "run/RunEngine.h"
#include "run/Verdict.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace cats;

namespace {

int usage(const char *Argv0) {
  std::vector<cli::FlagDoc> Flags = {
      {"--iterations N", "executions sampled per test (default: 100000)"},
      {"--jobs N", "cores used for pinning (default: hardware)"},
      {"--seed N", "schedule seed (default: 42); fixed seed =>\n"
                   "identical schedules and histogram bucket order"},
      {"--batch N", "preallocated test instances per round (512)"},
      {"--schedule S", "shuffle | stride | seq (default: shuffle)"},
      {"--no-pin", "do not pin worker threads by affinity"},
      {"--model NAME", "reference model (default: the host's — TSO on\n"
                       "x86, ARM on aarch64, else Power)"},
      {"--cat FILE.cat", "use a .cat file as the reference model instead\n"
                         "of a registry name"},
      {"--filter REGEX", "keep only tests whose name matches"},
      {"--catalogue", "add the built-in figure catalogue to the inputs"},
      {"--histogram", "print each test's outcome histogram"},
      {"--json FILE", "write the cats-run-report/1 JSON report"},
      {"--witness", "arm the flight recorder: a soundness violation dumps\n"
                    "the test, a summary, and witness graphs per offending\n"
                    "outcome into $CATS_FLIGHT_DIR (default:\n"
                    "cats-flight-records/); see docs/explain.md"},
      {"--witness-dir DIR", "arm the flight recorder rooted at DIR"},
      {"--quiet", "suppress the summary table"}};
  for (const cli::FlagDoc &F : cli::obsFlagDocs())
    Flags.push_back(F);
  return cli::printUsage(
      Argv0, "[options] [<file.litmus>|<dir>]...",
      "Executes litmus tests as native concurrent code (relaxed atomics,\n"
      "real host fences, preserved dependency chains) and checks that\n"
      "every outcome observed on this machine is allowed by a reference\n"
      "model. Exit status 1 reports a soundness violation.\n"
      "\n"
      "Inputs: .litmus files, directories (scanned for *.litmus), and/or\n"
      "the built-in figure catalogue. With no input, the catalogue runs.",
      Flags);
}

} // namespace

int main(int argc, char **argv) {
  RunOptions Opts;
  bool UseCatalogue = false, Histogram = false, Quiet = false;
  bool Witness = false;
  std::string Filter, JsonPath, ModelName, CatFile, WitnessDir;
  std::vector<std::string> Paths;
  cli::ObsFlags Obs;

  cli::ArgCursor Args("cats_run", argc, argv);
  while (Args.next()) {
    if (Args.isHelp())
      return usage(argv[0]);
    if (int TookObs = cli::parseObsFlag(Args, "cats_run", Obs)) {
      if (TookObs < 0)
        return 2;
    } else if (Args.is("--iterations")) {
      if (!Args.unsignedValue(Opts.Iterations))
        return 2;
    } else if (Args.is("--jobs")) {
      if (!Args.unsignedValue(Opts.Jobs))
        return 2;
    } else if (Args.is("--seed")) {
      unsigned long long Seed = 0;
      if (!Args.unsignedValue(Seed, /*AllowZero=*/true))
        return 2;
      Opts.Seed = Seed;
    } else if (Args.is("--batch")) {
      if (!Args.unsignedValue(Opts.BatchSize))
        return 2;
    } else if (Args.is("--schedule")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      if (!parseScheduleKind(V, Opts.Schedule)) {
        std::fprintf(stderr,
                     "cats_run: unknown schedule '%s' (shuffle, stride, "
                     "seq)\n",
                     V);
        return 2;
      }
    } else if (Args.is("--no-pin")) {
      Opts.Pin = false;
    } else if (Args.is("--model")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      ModelName = V;
    } else if (Args.is("--cat")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      CatFile = V;
    } else if (Args.is("--filter")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      Filter = V;
    } else if (Args.is("--catalogue") || Args.is("--catalog")) {
      UseCatalogue = true;
    } else if (Args.is("--histogram")) {
      Histogram = true;
    } else if (Args.is("--witness")) {
      Witness = true;
    } else if (Args.is("--witness-dir")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      Witness = true;
      WitnessDir = V;
    } else if (Args.is("--json")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      JsonPath = V;
    } else if (Args.is("--quiet")) {
      Quiet = true;
    } else if (Args.isFlag()) {
      Args.unknownOption();
      return usage(argv[0]);
    } else {
      Paths.push_back(Args.arg());
    }
  }

  // Resolve the reference model: a .cat file wins over a registry name,
  // and the adapter must outlive the run.
  const Model *Reference = nullptr;
  std::unique_ptr<CatAdapterModel> CatReference;
  if (!CatFile.empty()) {
    if (!ModelName.empty()) {
      std::fprintf(stderr, "cats_run: --model and --cat are exclusive\n");
      return 2;
    }
    auto Adapted = CatAdapterModel::fromFile(CatFile);
    if (!Adapted) {
      std::fprintf(stderr, "cats_run: %s\n", Adapted.message().c_str());
      return 2;
    }
    CatReference = std::make_unique<CatAdapterModel>(Adapted.take());
    Reference = CatReference.get();
  } else if (ModelName.empty()) {
    Reference = &hostReferenceModel();
  } else {
    Reference = modelByName(ModelName);
    if (!Reference) {
      std::fprintf(stderr, "cats_run: unknown model '%s'\n",
                   ModelName.c_str());
      return 2;
    }
  }

  // Gather the tests.
  if (Paths.empty() && !UseCatalogue)
    UseCatalogue = true;
  auto Loaded = loadCampaignTests(Paths, UseCatalogue, Filter);
  if (!Loaded) {
    std::fprintf(stderr, "cats_run: %s\n", Loaded.message().c_str());
    return 2;
  }
  for (const std::string &Problem : Loaded->Errors)
    std::fprintf(stderr, "cats_run: %s\n", Problem.c_str());
  const bool LoadFailed = !Loaded->Errors.empty();
  std::vector<LitmusTest> Tests = std::move(Loaded->Tests);
  if (Tests.empty()) {
    std::fprintf(stderr, "cats_run: no tests to run\n");
    return 2;
  }

  // Run.
  cli::applyObsFlags(Obs);
  obs::ProgressReporter Progress("cats_run", Tests.size(), Obs.Progress);
  Opts.OnTest = [&Progress](size_t Done, size_t) { Progress.update(Done); };
  RunEngine Engine(Opts);
  RunReport Report = Engine.run(Tests, *Reference);
  Progress.finish();

  if (!Quiet) {
    std::printf("%-34s %10s %8s %-7s %-9s %8s %8s\n", "test", "iters",
                "distinct", Reference->name().c_str(), "observed",
                "relaxed", "unsound");
    for (const RunTestResult &T : Report.Tests) {
      if (!T.Error.empty()) {
        std::printf("%-34s  ERROR: %s\n", T.TestName.c_str(),
                    T.Error.c_str());
        continue;
      }
      std::printf("%-34s %10llu %8zu %-7s %-9s %8llu %8llu\n",
                  T.TestName.c_str(), T.Iterations, T.Histogram.size(),
                  T.ConditionAllowedByModel ? "Allow" : "Forbid",
                  T.ConditionObserved ? "yes" : "no", T.OutsideSc,
                  T.OutsideModel + T.OutsideEnumeration);
    }
    std::printf("\n%zu test(s) x %llu iteration(s), host %s, model %s, "
                "%u core(s), seed %llu, %s schedule, %.3fs\n",
                Report.Tests.size(), Report.Iterations,
                Report.Host.c_str(), Report.ModelName.c_str(), Report.Jobs,
                static_cast<unsigned long long>(Report.Seed),
                scheduleName(Report.Schedule), Report.WallSeconds);
    std::printf("soundness: %s\n",
                Report.allSound()
                    ? "every observed outcome is model-allowed"
                    : "VIOLATION — outcomes outside the model observed");
  }

  if (Histogram) {
    for (const RunTestResult &T : Report.Tests) {
      if (!T.Error.empty())
        continue;
      std::printf("\n%s (%zu distinct outcome(s)):\n", T.TestName.c_str(),
                  T.Histogram.size());
      for (const RunBucket &B : T.Histogram)
        std::printf("  %10llu  %s%s%s%s\n", B.Count, B.Key.c_str(),
                    B.MatchesFinal ? "  <- exists-clause" : "",
                    !B.AllowedBySc && B.AllowedByModel ? "  (relaxed)" : "",
                    !B.AllowedByModel ? "  (FORBIDDEN by model)" : "");
    }
  }

  // Flight recorder: a soundness violation freezes its evidence on disk —
  // the litmus source, a summary of the offending buckets, and a kill
  // witness (model axiom + cycle) per forbidden-but-observed outcome the
  // enumeration can reproduce. Armed but silent runs leave no trace.
  if (Witness && !Report.allSound()) {
    obs::FlightRecorder Recorder(
        WitnessDir.empty() ? obs::FlightRecorder::defaultDir() : WitnessDir);
    for (const RunTestResult &T : Report.Tests) {
      if (T.sound())
        continue;
      const LitmusTest *Test = nullptr;
      for (const LitmusTest &Candidate : Tests)
        if (Candidate.Name == T.TestName) {
          Test = &Candidate;
          break;
        }
      std::string Summary =
          "soundness violation: test " + T.TestName + " under model " +
          Reference->name() + "\n" + std::to_string(T.OutsideModel) +
          " model-forbidden iteration(s), " +
          std::to_string(T.OutsideEnumeration) +
          " outside the candidate enumeration\noffending outcomes:\n";
      std::vector<obs::Witness> Witnesses;
      for (const RunBucket &B : T.Histogram) {
        if (B.AllowedByModel && B.Consistent)
          continue;
        Summary += "  " + B.Key + " x" + std::to_string(B.Count) +
                   (B.Consistent ? " (forbidden by model)"
                                 : " (outside the enumeration)") +
                   "\n";
        if (!B.Consistent || !Test)
          continue;
        // Re-derive the evidence: the first consistent execution with
        // this outcome, judged by the reference model.
        auto Compiled = CompiledTest::compile(*Test);
        if (!Compiled)
          continue;
        forEachCandidate(*Compiled, [&](const Candidate &Cand) {
          if (!Cand.Consistent || Cand.Out.key() != B.Key)
            return true;
          Cand.Exe.enableDerivedCache();
          const Verdict V = Reference->check(Cand.Exe);
          if (!V.Allowed && !V.Violated.empty())
            Witnesses.push_back(obs::makeKillWitness(
                T.TestName, *Reference, V.Violated.front(), Cand.Exe,
                Cand.Out));
          return false;
        });
      }
      auto Saved = Recorder.record("unsound-" + T.TestName,
                                   Test ? Test->toString() : std::string(),
                                   Summary, Witnesses);
      if (!Saved)
        std::fprintf(stderr, "cats_run: %s\n", Saved.message().c_str());
      else if (!Quiet)
        std::printf("flight recorder: dumped %s\n", Saved->c_str());
    }
  }

  if (!JsonPath.empty()) {
    JsonValue Root = runReportToJson(Report);
    cli::attachMetrics(Root, Obs);
    if (!cli::writeReport("cats_run", JsonPath, Root.dump()))
      return 1;
    if (!Quiet)
      std::printf("wrote %s\n", JsonPath.c_str());
  }

  const int ObsFailed = cli::finishObs("cats_run", Obs, Quiet);
  return (LoadFailed || !Report.allSound() || ObsFailed) ? 1 : 0;
}
