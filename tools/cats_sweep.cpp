//===- cats_sweep.cpp - Parallel litmus campaign runner -------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign CLI over src/sweep: load litmus tests from files,
/// directories and/or the built-in figure catalogue, run every test against
/// a model set with one shared candidate enumeration per test, distributed
/// over a worker pool, and report as a summary table, classic herd text,
/// and/or a machine-readable JSON report (docs/sweep.md). Every run
/// streams the corpus through the engine in batches; the campaign flags
/// (--shard, --cache; docs/campaigns.md) let corpora far beyond memory
/// run in cooperating shards that a rerun resumes from the cache.
///
///   cats_sweep                          # built-in catalogue, all models
///   cats_sweep --jobs 4 litmus/         # a directory of .litmus files
///   cats_sweep --models SC,TSO mp.litmus --herd
///   cats_sweep --catalogue --json report.json
///   cats_sweep corpus/ --shard 2/4 --cache .cats-cache --json shard-2.json
///
//===----------------------------------------------------------------------===//

#include "CampaignCli.h"
#include "CliCommon.h"
#include "litmus/TestFilter.h"
#include "model/Registry.h"
#include "support/StringUtils.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace cats;

namespace {

int usage(const char *Argv0) {
  std::vector<cli::FlagDoc> Flags = {
      {"--jobs N", "worker threads (default: hardware concurrency)"},
      {"--models A,B,C", "comma-separated model names (default: all).\n"
                         "Known: SC, TSO, PSO, RMO, C++RA, Power, ARM,\n"
                         "Power-ARM, ARM llh"},
      {"--filter REGEX", "keep only tests whose name matches"},
      {"--catalogue", "add the built-in figure catalogue to the inputs"},
      {"--backend B", "judging backend: pruned (default) or naive, the\n"
                      "reference search; both give identical results\n"
                      "(docs/enumeration.md)"},
      {"--json FILE", "write the cats-sweep-report/2 JSON report"},
      {"--witness", "capture per-(test, model) witnesses into the JSON\n"
                    "report's cats-witness/1 section (docs/explain.md)"},
      {"--herd", "print the classic herd block per test x model"},
      {"--quiet", "suppress the summary table"}};
  for (const cli::FlagDoc &F : cli::campaignFlagDocs())
    Flags.push_back(F);
  for (const cli::FlagDoc &F : cli::obsFlagDocs())
    Flags.push_back(F);
  return cli::printUsage(
      Argv0, "[options] [<file.litmus>|<dir>]...",
      "Runs a parallel shared-enumeration sweep: every test is compiled\n"
      "and its candidate space enumerated once, with all selected models\n"
      "checked against each candidate in the same pass.\n"
      "\n"
      "Inputs: .litmus files, directories (scanned for *.litmus), and/or\n"
      "the built-in figure catalogue. With no input, the catalogue runs.\n"
      "\n"
      "Tests stream through the engine in batches; the campaign flags\n"
      "(--shard/--cache) add sharding and a result cache that a killed\n"
      "campaign reruns from: see docs/campaigns.md.",
      Flags);
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = 0;
  JudgeBackend Backend = JudgeBackend::Pruned;
  bool UseCatalogue = false, Herd = false, Quiet = false, Witness = false;
  std::string JsonPath, Filter;
  std::vector<std::string> ModelNames;
  std::vector<std::string> Paths;
  cli::CampaignFlags Campaign;
  cli::ObsFlags Obs;

  cli::ArgCursor Args("cats_sweep", argc, argv);
  while (Args.next()) {
    if (Args.isHelp())
      return usage(argv[0]);
    if (int Took = cli::parseCampaignFlag(Args, "cats_sweep", Campaign)) {
      if (Took < 0)
        return 2;
    } else if (int TookObs = cli::parseObsFlag(Args, "cats_sweep", Obs)) {
      if (TookObs < 0)
        return 2;
    } else if (Args.is("--jobs")) {
      if (!Args.unsignedValue(Jobs))
        return 2;
    } else if (Args.is("--models")) {
      if (!Args.commaList(ModelNames))
        return 2;
    } else if (Args.is("--filter")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      Filter = V;
    } else if (Args.is("--catalogue") || Args.is("--catalog")) {
      UseCatalogue = true;
    } else if (Args.is("--backend")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      if (!parseJudgeBackend(V, Backend)) {
        std::fprintf(stderr,
                     "cats_sweep: unknown backend '%s' (expected "
                     "naive or pruned)\n",
                     V);
        return 2;
      }
    } else if (Args.is("--json")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      JsonPath = V;
    } else if (Args.is("--witness")) {
      Witness = true;
    } else if (Args.is("--herd")) {
      Herd = true;
    } else if (Args.is("--quiet")) {
      Quiet = true;
    } else if (Args.isFlag()) {
      Args.unknownOption();
      return usage(argv[0]);
    } else {
      Paths.push_back(Args.arg());
    }
  }
  if (Witness && !Campaign.CacheDir.empty()) {
    // Cache entries store verdicts, not witnesses: a hit would come back
    // without its evidence.
    std::fprintf(stderr, "cats_sweep: --witness does not combine with "
                         "--cache\n");
    return 2;
  }

  // Resolve the model set.
  auto Resolved = resolveModels(ModelNames);
  if (!Resolved) {
    std::fprintf(stderr, "cats_sweep: %s\n", Resolved.message().c_str());
    return 2;
  }
  std::vector<const Model *> Models = Resolved.take();

  if (Paths.empty() && !UseCatalogue)
    UseCatalogue = true;

  cli::applyObsFlags(Obs);
  obs::ProgressReporter Progress("cats_sweep", 0, Obs.Progress);

  SweepOptions EngineOpts;
  EngineOpts.Jobs = Jobs;
  EngineOpts.Backend = Backend;
  EngineOpts.Witness = Witness;
  SweepEngine Engine(EngineOpts);

  // Each file is read and parsed on the engine's workers, then admitted
  // in file order: load errors, the filter, the shard and the result
  // cache.
  std::vector<std::string> LoadErrors;
  auto Staged = stageCampaignTests(Paths, UseCatalogue, Filter, &LoadErrors);
  if (!Staged) {
    std::fprintf(stderr, "cats_sweep: %s\n", Staged.message().c_str());
    return 2;
  }
  std::optional<SweepReportWriter> Writer;
  if (!JsonPath.empty() &&
      !(Writer = cli::createReportWriter("cats_sweep", JsonPath)))
    return 1;
  // The text output is kept as the results pass the frontier: one
  // summary row per test, one verdict column per model, and under --herd
  // each test's herd blocks, with its final condition.
  std::string Rows, HerdBlocks;
  auto Keep = [&](StagedTest &Item, SweepTestResult &T) {
    if (!Quiet) {
      Rows += strFormat("%-34s", T.TestName.c_str());
      if (!T.Error.empty()) {
        Rows += strFormat("  ERROR: %s\n", T.Error.c_str());
      } else {
        Rows += strFormat(" %10llu %10llu", T.Result.CandidatesTotal,
                          T.Result.CandidatesConsistent);
        for (const SimulationResult &R : T.Result.PerModel)
          Rows += strFormat(" %-10s", R.verdict());
        Rows += '\n';
      }
    }
    if (Herd && T.Error.empty())
      for (const SimulationResult &R : T.Result.PerModel)
        HerdBlocks += "\n" + herdStyleReport(R, T.Result.ConsistentOutcomes,
                                             Item.Test.Final);
  };
  auto Swept =
      cli::runCampaignSweep(Engine, Staged.take(), Models, Campaign,
                            &Progress, Keep, Writer ? &*Writer : nullptr);
  for (const std::string &Problem : LoadErrors)
    std::fprintf(stderr, "cats_sweep: %s\n", Problem.c_str());
  if (!Swept) {
    std::fprintf(stderr, "cats_sweep: %s\n", Swept.message().c_str());
    return 2;
  }
  const SweepReport Report = Swept.take();
  // An empty shard is legitimate; an empty campaign is a mistake.
  if (Report.Reported == 0 && !Campaign.Shard.active()) {
    std::fprintf(stderr, "cats_sweep: no tests to run\n");
    return 2;
  }

  if (!Quiet) {
    std::printf("%-34s %10s %10s", "test", "cands", "consist");
    for (const Model *M : Models)
      std::printf(" %-10s", M->name().c_str());
    std::printf("\n");
    std::fputs(Rows.c_str(), stdout);
    std::printf("\n%llu tests x %zu models, %u worker(s), %.3fs\n",
                Report.Reported, Models.size(), Report.Jobs,
                Report.WallSeconds);
    if (Report.CacheUsed)
      std::printf("cache: %llu hit(s), %llu miss(es)\n", Report.CacheHits,
                  Report.CacheMisses);
  }
  std::fputs(HerdBlocks.c_str(), stdout);

  // JSON report.
  if (Writer) {
    if (!cli::writeSweepReport(
            "cats_sweep", JsonPath, *Writer,
            cli::campaignSweepJson(*Writer, Report, Campaign, Obs)))
      return 1;
    if (!Quiet)
      std::printf("wrote %s\n", JsonPath.c_str());
  }

  const int ObsFailed = cli::finishObs("cats_sweep", Obs, Quiet);
  return (!LoadErrors.empty() || !Report.allOk() || ObsFailed) ? 1 : 0;
}
