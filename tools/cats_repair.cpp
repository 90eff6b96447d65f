//===- cats_repair.cpp - Search-based fence synthesis CLI -----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repair CLI over src/repair: load litmus tests from files,
/// directories, the built-in figure catalogue and/or a freshly generated
/// diy battery, then compute the minimal fence/dependency insertions that
/// restore the goal (forbid the exists-clause, or full SC equivalence) on
/// the target model. Candidate mutants are judged batch-wise on the sweep
/// engine: one shared candidate enumeration per mutant covers every model,
/// and a whole battery advances through the insertion lattice in lock-step
/// rounds distributed over a worker pool.
///
///   cats_repair --catalogue --filter '^mp$'
///   cats_repair --model Power --all-minimal litmus/mp.litmus
///   cats_repair --battery power --goal sc --jobs 8 --json report.json
///
//===----------------------------------------------------------------------===//

#include "CliCommon.h"
#include "diy/Diy.h"
#include "litmus/TestFilter.h"
#include "model/Registry.h"
#include "repair/RepairEngine.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace cats;

namespace {

int usage(const char *Argv0) {
  std::vector<cli::FlagDoc> Flags = {
      {"--model NAME", "target model for every test (default: each\n"
                       "test's architecture default)"},
      {"--goal G", "forbid: make the exists-clause unobservable\n"
                   "(default); sc: match the native SC outcomes"},
      {"--jobs N", "worker threads (default: hardware concurrency)"},
      {"--filter REGEX", "keep only tests whose name matches"},
      {"--all-minimal", "print every minimal repair (default: cheapest)"},
      {"--catalogue", "add the built-in figure catalogue to the inputs"},
      {"--battery ARCH", "add the diy battery for ARCH (power, arm, tso)"},
      {"--max-per-family N", "cap the battery size per family (default 16,\n"
                             "0 = unlimited)"},
      {"--ww-fences", "include write-write-only fences (eieio, dmb.st)"},
      {"--json FILE", "write the cats-repair-report/1 JSON report"},
      {"--quiet", "suppress the per-test text blocks"}};
  for (const cli::FlagDoc &F : cli::obsFlagDocs())
    Flags.push_back(F);
  return cli::printUsage(
      Argv0, "[options] [<file.litmus>|<dir>]...",
      "Computes minimal fence/dependency insertions restoring a goal on a\n"
      "weak model (Sec. 7 of the paper): every candidate mutant battery is\n"
      "judged in batched shared-enumeration sweeps.\n"
      "\n"
      "Inputs: .litmus files, directories (scanned for *.litmus), the\n"
      "built-in figure catalogue, and/or a generated diy battery. With no\n"
      "input, the catalogue runs.",
      Flags);
}

} // namespace

int main(int argc, char **argv) {
  RepairOptions Opts;
  bool UseCatalogue = false, AllMinimal = false, Quiet = false;
  unsigned MaxPerFamily = 16;
  std::string JsonPath, Filter, ModelName, BatteryArch;
  std::vector<std::string> Paths;
  cli::ObsFlags Obs;

  cli::ArgCursor Args("cats_repair", argc, argv);
  while (Args.next()) {
    if (Args.isHelp())
      return usage(argv[0]);
    if (int TookObs = cli::parseObsFlag(Args, "cats_repair", Obs)) {
      if (TookObs < 0)
        return 2;
    } else if (Args.is("--jobs")) {
      if (!Args.unsignedValue(Opts.Jobs))
        return 2;
    } else if (Args.is("--model")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      ModelName = V;
    } else if (Args.is("--goal")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      if (std::strcmp(V, "forbid") == 0) {
        Opts.Goal = RepairGoal::ForbidFinal;
      } else if (std::strcmp(V, "sc") == 0) {
        Opts.Goal = RepairGoal::ScEquivalence;
      } else {
        std::fprintf(stderr, "cats_repair: unknown goal '%s' "
                             "(forbid or sc)\n", V);
        return 2;
      }
    } else if (Args.is("--filter")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      Filter = V;
    } else if (Args.is("--battery")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      BatteryArch = V;
    } else if (Args.is("--max-per-family")) {
      if (!Args.unsignedValue(MaxPerFamily, /*AllowZero=*/true))
        return 2;
    } else if (Args.is("--all-minimal")) {
      AllMinimal = true;
    } else if (Args.is("--ww-fences")) {
      Opts.IncludeWWOnlyFences = true;
    } else if (Args.is("--catalogue") || Args.is("--catalog")) {
      UseCatalogue = true;
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

  if (!ModelName.empty()) {
    Opts.TargetModel = modelByName(ModelName);
    if (!Opts.TargetModel) {
      std::fprintf(stderr, "cats_repair: unknown model '%s'\n",
                   ModelName.c_str());
      return 2;
    }
  }

  // Gather the tests: files first (sorted per directory), catalogue, then
  // the battery pipeline.
  if (Paths.empty() && !UseCatalogue && BatteryArch.empty())
    UseCatalogue = true;
  std::vector<LitmusTest> Battery;
  if (!BatteryArch.empty()) {
    Arch A;
    if (!parseArch(BatteryArch, A)) {
      std::fprintf(stderr, "cats_repair: unknown architecture '%s'\n",
                   BatteryArch.c_str());
      return 2;
    }
    Battery = generateBattery(A, MaxPerFamily);
  }

  auto Loaded =
      loadCampaignTests(Paths, UseCatalogue, Filter, std::move(Battery));
  if (!Loaded) {
    std::fprintf(stderr, "cats_repair: %s\n", Loaded.message().c_str());
    return 2;
  }
  for (const std::string &Problem : Loaded->Errors)
    std::fprintf(stderr, "cats_repair: %s\n", Problem.c_str());
  const bool LoadFailed = !Loaded->Errors.empty();
  std::vector<LitmusTest> Tests = std::move(Loaded->Tests);
  if (Tests.empty()) {
    std::fprintf(stderr, "cats_repair: no tests to repair\n");
    return 2;
  }

  // Run the campaign. Repair work is mutants judged, not tests, so the
  // progress line counts mutants (the total is the lattice's to know).
  cli::applyObsFlags(Obs);
  obs::ProgressReporter Progress("cats_repair mutants", 0, Obs.Progress);
  Opts.OnRound = [&Progress](unsigned, unsigned long long Mutants, size_t) {
    Progress.update(Mutants);
  };
  RepairEngine Engine(Opts);
  RepairReport Report = Engine.run(Tests);
  Progress.finish();

  if (!Quiet) {
    for (const TestRepairResult &T : Report.Tests) {
      if (AllMinimal) {
        std::printf("%s\n", repairTextReport(T).c_str());
        continue;
      }
      // Compact line: verdict plus the cheapest repair.
      std::printf("%-34s %-14s", T.TestName.c_str(), T.verdict());
      if (!T.Error.empty())
        std::printf(" %s", T.Error.c_str());
      else if (const RepairSet *Best = T.cheapest())
        std::printf(" %s cost %u", Best->name().c_str(), Best->Cost);
      std::printf("\n");
    }
    std::printf("\n%zu tests, %llu mutants judged in %u rounds, "
                "%u worker(s), %.3fs\n",
                Report.Tests.size(), Report.MutantsEvaluated, Report.Rounds,
                Report.Jobs, Report.WallSeconds);
  }

  if (!JsonPath.empty()) {
    JsonValue Root = repairReportToJson(Report);
    cli::attachMetrics(Root, Obs);
    if (!cli::writeReport("cats_repair", JsonPath, Root.dump()))
      return 1;
    if (!Quiet)
      std::printf("wrote %s\n", JsonPath.c_str());
  }

  const int ObsFailed = cli::finishObs("cats_repair", Obs, Quiet);
  return (LoadFailed || !Report.allOk() || ObsFailed) ? 1 : 0;
}
