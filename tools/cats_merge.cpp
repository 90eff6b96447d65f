//===- cats_merge.cpp - Fold shard reports into one -----------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reduce step of a sharded campaign (docs/campaigns.md): read N
/// per-shard JSON reports and emit one merged document of the same
/// kind. Sweep reports (cats-sweep-report/2, or /1 from older builds,
/// which the merge converts to /2) interleave back into single-process
/// source order via their "shard" stanzas; mine reports
/// (cats-mine-report/1) sum their per-family aggregates. With --zero-wall
/// the wall-clock fields are normalized to 0, which makes a merged report
/// byte-comparable against a single-process reference run — the form CI's
/// campaign job asserts with a plain cmp. Sweep reports are read and
/// merged a record at a time, so the merge's memory does not grow with
/// the reports, and nothing is written unless the merge succeeds.
///
///   cats_merge shard-1.json shard-2.json ... -o merged.json
///   cats_merge report.json --zero-wall -o normalized.json
///
//===----------------------------------------------------------------------===//

#include "CampaignCli.h"
#include "CliCommon.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace cats;

namespace {

int usage(const char *Argv0) {
  std::vector<cli::FlagDoc> Flags = {
      {"-o FILE", "write the merged report to FILE (default: stdout)"},
      {"--zero-wall", "zero every wall_seconds field, so two runs of\n"
                      "the same campaign compare byte-identically"},
      {"--quiet", "do not print the summary line"}};
  for (const cli::FlagDoc &F : cli::obsFlagDocs())
    Flags.push_back(F);
  return cli::printUsage(
      Argv0, "[options] <report.json>...",
      "Folds shard reports into one document of the same schema.\n"
      "Sweep reports carrying \"shard\" stanzas must form a complete\n"
      "1..N set and interleave back into single-process source order;\n"
      "reports without stanzas concatenate in argument order. Mine\n"
      "reports merge by summing per-family aggregates (their merged\n"
      "test_names are sorted; static sections are refused). Input\n"
      "\"metrics\" sections fold too: counters sum, histograms merge.\n"
      "\n"
      "A single input passes through, which with --zero-wall makes this\n"
      "tool the normalizer for byte-comparing reports.",
      Flags);
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath;
  bool ZeroWall = false, Quiet = false;
  std::vector<std::string> Paths;
  cli::ObsFlags Obs;

  cli::ArgCursor Args("cats_merge", argc, argv);
  while (Args.next()) {
    if (Args.isHelp())
      return usage(argv[0]);
    if (int TookObs = cli::parseObsFlag(Args, "cats_merge", Obs)) {
      if (TookObs < 0)
        return 2;
    } else if (Args.is("-o") || Args.is("--output")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      OutPath = V;
    } else if (Args.is("--zero-wall")) {
      ZeroWall = true;
    } else if (Args.is("--quiet")) {
      Quiet = true;
    } else if (Args.isFlag()) {
      Args.unknownOption();
      return usage(argv[0]);
    } else {
      Paths.push_back(Args.arg());
    }
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "cats_merge: no input reports\n");
    return usage(argv[0]);
  }

  cli::applyObsFlags(Obs);
  obs::ProgressReporter Progress("cats_merge", Paths.size(), Obs.Progress);

  if (int Status = cli::mergeReportFiles("cats_merge", Paths, OutPath,
                                         ZeroWall, Quiet, Progress))
    return Status;
  // Note: the merged document's "metrics" section is the fold of the
  // inputs' sections (src/campaign/Merge.cpp), never this process's own
  // registry — finishObs only writes the --trace/--metrics artifacts.
  return cli::finishObs("cats_merge", Obs, Quiet);
}
