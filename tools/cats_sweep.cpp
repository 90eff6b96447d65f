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
/// and/or a machine-readable JSON report (docs/sweep.md). The campaign
/// flags (--shard, --cache, --checkpoint/--resume; docs/campaigns.md)
/// switch to the streamed engine so corpora far beyond memory can run in
/// cooperating resumable shards.
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
#include "sweep/SweepEngine.h"

#include <cstdio>
#include <fstream>
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
      {"--batch N", "streaming batch size for campaign runs (default: 64)"},
      {"--backend B", "judging backend: pruned (default) or naive, the\n"
                      "reference search; both give identical results\n"
                      "(docs/enumeration.md)"},
      {"--json FILE", "write the cats-sweep-report/1 JSON report"},
      {"--witness", "capture per-(test, model) witnesses into the JSON\n"
                    "report's cats-witness/1 section (docs/explain.md)"},
      {"--herd", "print the classic herd block per test x model"},
      {"--quiet", "suppress the summary table"}};
  for (const cli::FlagDoc &F : cli::campaignFlagDocs(/*WithCheckpoint=*/true))
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
      "The campaign flags (--shard/--cache/--checkpoint/--resume) stream\n"
      "the corpus in batches; see docs/campaigns.md for the workflow.",
      Flags);
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = 0, Batch = 64;
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
    if (int Took = cli::parseCampaignFlag(Args, "cats_sweep",
                                          /*WithCheckpoint=*/true, Campaign)) {
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
    } else if (Args.is("--batch")) {
      if (!Args.unsignedValue(Batch))
        return 2;
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
  if (Status S = cli::validateCampaignFlags(Campaign); S.failed()) {
    std::fprintf(stderr, "cats_sweep: %s\n", S.message().c_str());
    return 2;
  }
  if (Campaign.active() && Herd) {
    // The herd blocks need each test's final condition, which the
    // streamed path deliberately does not materialize.
    std::fprintf(stderr, "cats_sweep: --herd does not combine with the "
                         "campaign flags\n");
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
  SweepReport Report;
  std::vector<LitmusTest> Tests; // materialized path only, for --herd
  bool LoadFailed = false;

  // --progress reports per streamed batch, so on its own (no campaign
  // flags) it routes through the streamed engine too — identical report,
  // live pulse. --herd keeps the materialized path.
  if (Campaign.active() || (Obs.Progress && !Herd)) {
    // Streamed campaign: tests parse lazily at pull time, flow through
    // the shard filter and the result cache, and checkpoint per batch.
    std::vector<std::string> LoadErrors;
    auto Source = streamCampaignTests(Paths, UseCatalogue, Filter,
                                      &LoadErrors);
    if (!Source) {
      std::fprintf(stderr, "cats_sweep: %s\n", Source.message().c_str());
      return 2;
    }
    const std::string Spec =
        "tool=cats_sweep;paths=" + joinStrings(Paths, ",") +
        ";catalogue=" + (UseCatalogue ? "1" : "0") + ";filter=" + Filter +
        ";models=" + joinStrings(cli::modelNamesOf(Models), ",") +
        ";shard=" + Campaign.Shard.toString();
    auto Swept = cli::runCampaignSweep("cats_sweep", Engine, Source.take(),
                                       Models, Batch, Campaign, Spec,
                                       &Progress);
    for (const std::string &Problem : LoadErrors)
      std::fprintf(stderr, "cats_sweep: %s\n", Problem.c_str());
    LoadFailed = !LoadErrors.empty();
    if (!Swept) {
      std::fprintf(stderr, "cats_sweep: %s\n", Swept.message().c_str());
      return 2;
    }
    Report = Swept.take();
  } else {
    // Gather the tests: files first (sorted per directory), catalogue
    // after.
    auto Loaded = loadCampaignTests(Paths, UseCatalogue, Filter);
    if (!Loaded) {
      std::fprintf(stderr, "cats_sweep: %s\n", Loaded.message().c_str());
      return 2;
    }
    for (const std::string &Problem : Loaded->Errors)
      std::fprintf(stderr, "cats_sweep: %s\n", Problem.c_str());
    LoadFailed = !Loaded->Errors.empty();
    Tests = std::move(Loaded->Tests);
    if (Tests.empty()) {
      std::fprintf(stderr, "cats_sweep: no tests to run\n");
      return 2;
    }
    Report = Engine.run(makeJobs(Tests, Models));
  }
  Progress.finish();

  // Summary table: one row per test, one verdict column per model.
  if (!Quiet) {
    std::printf("%-34s %10s %10s", "test", "cands", "consist");
    for (const Model *M : Models)
      std::printf(" %-10s", M->name().c_str());
    std::printf("\n");
    for (const SweepTestResult &T : Report.Tests) {
      std::printf("%-34s", T.TestName.c_str());
      if (!T.Error.empty()) {
        std::printf("  ERROR: %s\n", T.Error.c_str());
        continue;
      }
      std::printf(" %10llu %10llu", T.Result.CandidatesTotal,
                  T.Result.CandidatesConsistent);
      for (const SimulationResult &R : T.Result.PerModel)
        std::printf(" %-10s", R.verdict());
      std::printf("\n");
    }
    std::printf("\n%zu tests x %zu models, %u worker(s), %.3fs\n",
                Report.Tests.size(), Models.size(), Report.Jobs,
                Report.WallSeconds);
    if (Report.CacheUsed)
      std::printf("cache: %llu hit(s), %llu miss(es)\n", Report.CacheHits,
                  Report.CacheMisses);
  }

  // Classic herd blocks.
  if (Herd) {
    for (size_t I = 0; I < Report.Tests.size(); ++I) {
      const SweepTestResult &T = Report.Tests[I];
      if (!T.Error.empty())
        continue;
      for (const SimulationResult &R : T.Result.PerModel)
        std::printf("\n%s", herdStyleReport(R, Tests[I].Final).c_str());
    }
  }

  // JSON report.
  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "cats_sweep: cannot write %s\n",
                   JsonPath.c_str());
      return 1;
    }
    JsonValue Root = cli::campaignSweepJson(Report, Campaign);
    cli::attachMetrics(Root, Obs);
    Out << Root.dump();
    if (!Quiet)
      std::printf("wrote %s\n", JsonPath.c_str());
  }

  const int ObsFailed = cli::finishObs("cats_sweep", Obs, Quiet);
  return (LoadFailed || !Report.allOk() || ObsFailed) ? 1 : 0;
}
