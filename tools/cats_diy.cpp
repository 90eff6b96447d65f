//===- cats_diy.cpp - Exhaustive cycle enumeration CLI (diycross) ---------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diycross CLI over src/diy/Enumerate: exhaustively enumerate the
/// canonical critical cycles of an architecture's edge vocabulary, and
/// optionally synthesize the tests, export them as .litmus files, or
/// stream them through the sweep engine in batches.
///
///   cats_diy --arch power --size 6                # enumerate, print names
///   cats_diy --size 4 --filter '^mp' --synthesize # synthesis check
///   cats_diy --size 4 --export out/               # write .litmus files
///   cats_diy --size 5 --sweep --models SC,Power --json report.json
///
//===----------------------------------------------------------------------===//

#include "CampaignCli.h"
#include "CliCommon.h"
#include "diy/Enumerate.h"
#include "model/Registry.h"
#include "support/StringUtils.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

using namespace cats;

namespace {

int usage(const char *Argv0) {
  std::vector<cli::FlagDoc> Flags = {
      {"--arch A", "sc | tso | power | arm | c++ra (default: power)"},
      {"--size N", "maximum cycle length in edges (default: 4)"},
      {"--min-size N", "minimum cycle length (default: 3)"},
      {"--limit N", "stop after N matching cycles (default: all)"},
      {"--filter REGEX", "keep cycles whose canonical name matches"},
      {"--no-deps", "drop dependency mechanisms from the vocabulary"},
      {"--no-fences", "drop fences from the vocabulary"},
      {"--internal", "add the internal rfi/fri/wsi detour edges"},
      {"--synthesize", "synthesize each test and report failures"},
      {"--export DIR", "write each synthesized test to DIR/<name>.litmus"},
      {"--sweep", "sweep the synthesized corpus (implies synthesis)"},
      {"--models A,B,C", "models for --sweep (default: all)"},
      {"--jobs N", "sweep worker threads (default: hardware)"},
      {"--json FILE", "write the cats-diy-report/1 JSON report"},
      {"--sweep-json FILE", "also write the sweep leg as a\n"
                            "cats-sweep-report/2 (mergeable by cats_merge)"},
      {"--quiet", "suppress the per-cycle listing"}};
  for (const cli::FlagDoc &F : cli::campaignFlagDocs())
    Flags.push_back(F);
  for (const cli::FlagDoc &F : cli::obsFlagDocs())
    Flags.push_back(F);
  return cli::printUsage(
      Argv0, "[options]",
      "Exhaustively enumerates the well-formed critical cycles of an\n"
      "architecture's edge vocabulary (po/fence/dependency mechanisms x\n"
      "R/W directions x communications), canonicalized modulo rotation,\n"
      "and synthesizes, exports or sweeps the resulting litmus tests.\n"
      "\n"
      "The campaign flags (--shard/--cache) apply to the --sweep leg;\n"
      "see docs/campaigns.md for the workflow.",
      Flags);
}

/// What became of one enumerated cycle, kept beside it.
struct CycleRecord {
  bool Synthesized = false;
  std::string Error;
  /// Why its --export failed, as the make step found it; reported at its
  /// admission, in cycle order.
  std::string ExportError;
  /// One letter per sweep model, in model order: 'A' for Allow, 'F' for
  /// Forbid. Kept for every cycle, so kept small.
  std::string Verdicts;
};

/// The verdict a CycleRecord letter stands for.
const char *verdictName(char Letter) {
  return Letter == 'A' ? "Allow" : "Forbid";
}

} // namespace

int main(int argc, char **argv) {
  EnumerateOptions Opts;
  Opts.MaxEdges = 4;
  std::string ArchName = "power", Filter, ExportDir, JsonPath, SweepJsonPath;
  std::vector<std::string> ModelNames;
  bool Synthesize = false, Sweep = false, Quiet = false;
  unsigned Jobs = 0;
  cli::CampaignFlags Campaign;
  cli::ObsFlags Obs;

  cli::ArgCursor Args("cats_diy", argc, argv);
  while (Args.next()) {
    if (Args.isHelp())
      return usage(argv[0]);
    if (int Took = cli::parseCampaignFlag(Args, "cats_diy", Campaign)) {
      if (Took < 0)
        return 2;
    } else if (int TookObs = cli::parseObsFlag(Args, "cats_diy", Obs)) {
      if (TookObs < 0)
        return 2;
    } else if (Args.is("--arch")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      ArchName = V;
    } else if (Args.is("--size")) {
      if (!Args.unsignedValue(Opts.MaxEdges))
        return 2;
    } else if (Args.is("--min-size")) {
      if (!Args.unsignedValue(Opts.MinEdges))
        return 2;
    } else if (Args.is("--limit")) {
      unsigned long long Limit = 0; // 0 = unlimited.
      if (!Args.unsignedValue(Limit, /*AllowZero=*/true))
        return 2;
      Opts.Limit = Limit;
    } else if (Args.is("--filter")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      Filter = V;
    } else if (Args.is("--no-deps")) {
      Opts.Dependencies = false;
    } else if (Args.is("--no-fences")) {
      Opts.Fences = false;
    } else if (Args.is("--internal")) {
      Opts.InternalCom = true;
    } else if (Args.is("--synthesize")) {
      Synthesize = true;
    } else if (Args.is("--export")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      ExportDir = V;
    } else if (Args.is("--sweep")) {
      Sweep = true;
    } else if (Args.is("--models")) {
      if (!Args.commaList(ModelNames))
        return 2;
    } else if (Args.is("--jobs")) {
      if (!Args.unsignedValue(Jobs))
        return 2;
    } else if (Args.is("--json")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      JsonPath = V;
    } else if (Args.is("--sweep-json")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      SweepJsonPath = V;
    } else if (Args.is("--quiet")) {
      Quiet = true;
    } else {
      Args.unknownOption();
      return usage(argv[0]);
    }
  }
  if ((Campaign.active() || !SweepJsonPath.empty()) && !Sweep) {
    std::fprintf(stderr, "cats_diy: the campaign flags and --sweep-json "
                         "need --sweep\n");
    return 2;
  }

  if (!parseArch(ArchName, Opts.Target)) {
    std::fprintf(stderr, "cats_diy: unknown architecture '%s'\n",
                 ArchName.c_str());
    return 2;
  }
  if (Opts.MinEdges > Opts.MaxEdges) {
    std::fprintf(stderr,
                 "cats_diy: --min-size %u exceeds --size %u — nothing to "
                 "enumerate\n",
                 Opts.MinEdges, Opts.MaxEdges);
    return 2;
  }
  const bool NeedTests = Synthesize || Sweep || !ExportDir.empty();
  cli::applyObsFlags(Obs);

  // Phase 1: enumerate the matching cycles (a bad --filter fails here).
  auto Matching = enumerateMatching(Opts, Filter);
  if (!Matching) {
    std::fprintf(stderr, "cats_diy: %s\n", Matching.message().c_str());
    return 2;
  }
  const auto Cycles =
      std::make_shared<const std::vector<EnumeratedCycle>>(Matching.take());
  std::vector<CycleRecord> Records(Cycles->size());

  if (!ExportDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(ExportDir, Ec);
    if (Ec) {
      std::fprintf(stderr, "cats_diy: cannot create %s: %s\n",
                   ExportDir.c_str(), Ec.message().c_str());
      return 1;
    }
  }

  // The enumeration is done, so the total is known either way.
  obs::ProgressReporter Progress("cats_diy", Records.size(), Obs.Progress);

  // Phase 2: one staged source synthesizes (and exports) each cycle in
  // its make step, so each cycle is synthesized exactly once, and folds
  // the outcome into its record at admission, in cycle order: --sweep
  // feeds it to the engine, whose workers make the tests; --synthesize or
  // --export alone drain it inline.
  unsigned SynthesisErrors = 0;
  bool ExportFailed = false;
  size_t Admitted = 0;
  StagedSource Source = stageDiyTests(Cycles, Opts.Target);
  if (!ExportDir.empty())
    Source.Make = [Make = std::move(Source.Make), &ExportDir,
                   &Records](StagedTest &Item) {
      Make(Item);
      if (!Item.Error.empty())
        return;
      Status Wrote = writeWholeFile(
          ExportDir + "/" + Item.Test.Name + ".litmus", Item.Test.toString());
      Records[Item.Index].ExportError = Wrote.message();
    };
  Source.Admit = [&](StagedTest &Item) {
    CycleRecord &R = Records[Item.Index];
    Admitted = Item.Index + 1;
    if (!Item.Error.empty()) {
      R.Error = Item.Error;
      ++SynthesisErrors;
      return false;
    }
    R.Synthesized = true;
    if (!R.ExportError.empty()) {
      std::fprintf(stderr, "cats_diy: %s\n", R.ExportError.c_str());
      ExportFailed = true;
    }
    return true;
  };
  if (NeedTests && !Sweep) {
    TestSource Drain = inlineSource(Source);
    LitmusTest Test;
    bool More = true;
    while (More) {
      More = Drain(Test);
      Progress.update(Admitted);
    }
  }

  // Phase 3: the batched sweep.
  std::vector<const Model *> Models;
  SweepReport Report;
  std::optional<SweepReportWriter> Writer;
  std::string SweepErrors;
  if (Sweep) {
    auto Resolved = resolveModels(ModelNames);
    if (!Resolved) {
      std::fprintf(stderr, "cats_diy: %s\n", Resolved.message().c_str());
      return 2;
    }
    Models = Resolved.take();
    if (!SweepJsonPath.empty() &&
        !(Writer = cli::createReportWriter("cats_diy", SweepJsonPath)))
      return 1;
    // Each verdict, or sweep-time validate/compile error, is attached at
    // the frontier to the record of the cycle its item was pulled for.
    auto AttachResult = [&](StagedTest &Item, SweepTestResult &T) {
      CycleRecord &R = Records[Item.Index];
      if (!T.Error.empty()) {
        SweepErrors += strFormat("cats_diy: %s: %s\n", T.TestName.c_str(),
                                 T.Error.c_str());
        R.Error = T.Error;
        return;
      }
      for (const SimulationResult &M : T.Result.PerModel)
        R.Verdicts += M.verdict()[0];
    };
    auto Swept = cli::runCampaignSweep(SweepEngine(SweepOptions{Jobs}),
                                       Source, Models, Campaign, &Progress,
                                       AttachResult,
                                       Writer ? &*Writer : nullptr);
    if (!Swept) {
      std::fprintf(stderr, "cats_diy: %s\n", Swept.message().c_str());
      return 2;
    }
    Report = Swept.take();
    std::fputs(SweepErrors.c_str(), stderr);
  }

  Progress.finish();

  // Listing.
  if (!Quiet) {
    std::printf("%-40s %5s %8s", "cycle", "size", "threads");
    if (Sweep)
      for (const Model *M : Models)
        std::printf(" %-10s", M->name().c_str());
    std::printf("\n");
    for (size_t I = 0; I < Records.size(); ++I) {
      const EnumeratedCycle &C = (*Cycles)[I];
      const CycleRecord &R = Records[I];
      std::printf("%-40s %5zu %8u", C.Name.c_str(), C.Cycle.size(), [&] {
        unsigned External = 0;
        for (const DiyEdge &E : C.Cycle)
          if (isExternalEdge(E.Kind))
            ++External;
        return External;
      }());
      if (!R.Error.empty())
        std::printf("  SYNTHESIS ERROR: %s", R.Error.c_str());
      for (char Verdict : R.Verdicts)
        std::printf(" %-10s", verdictName(Verdict));
      std::printf("\n");
    }
  }
  std::printf("%zu canonical cycle(s), arch %s, size %u-%u%s\n",
              Records.size(), archName(Opts.Target).c_str(), Opts.MinEdges,
              Opts.MaxEdges,
              SynthesisErrors
                  ? strFormat(", %u synthesis error(s)", SynthesisErrors)
                        .c_str()
                  : "");
  if (Sweep) {
    std::printf("swept %llu test(s) x %zu model(s), %u worker(s), %.3fs\n",
                Report.Reported, Models.size(), Report.Jobs,
                Report.WallSeconds);
    if (Report.CacheUsed)
      std::printf("cache: %llu hit(s), %llu miss(es)\n", Report.CacheHits,
                  Report.CacheMisses);
  }

  // JSON report.
  if (!JsonPath.empty()) {
    JsonValue Root = JsonValue::object();
    Root.set("schema", "cats-diy-report/1");
    Root.set("arch", archName(Opts.Target));
    Root.set("min_size", Opts.MinEdges);
    Root.set("max_size", Opts.MaxEdges);
    Root.set("limit", static_cast<unsigned long long>(Opts.Limit));
    Root.set("filter", Filter);
    Root.set("internal_com", Opts.InternalCom);
    Root.set("enumerated", static_cast<unsigned>(Records.size()));
    Root.set("synthesis_errors", SynthesisErrors);
    JsonValue Entries = JsonValue::array();
    for (size_t At = 0; At < Records.size(); ++At) {
      const EnumeratedCycle &C = (*Cycles)[At];
      const CycleRecord &R = Records[At];
      JsonValue Entry = JsonValue::object();
      Entry.set("name", C.Name);
      JsonValue Edges = JsonValue::array();
      for (const DiyEdge &E : C.Cycle)
        Edges.push(E.toString());
      Entry.set("edges", std::move(Edges));
      Entry.set("size", static_cast<unsigned>(C.Cycle.size()));
      if (NeedTests)
        Entry.set("synthesized", R.Synthesized);
      if (!R.Error.empty())
        Entry.set("error", R.Error);
      if (!R.Verdicts.empty()) {
        JsonValue Verdicts = JsonValue::object();
        for (size_t I = 0; I < R.Verdicts.size(); ++I)
          Verdicts.set(Models[I]->name(), verdictName(R.Verdicts[I]));
        Entry.set("verdicts", std::move(Verdicts));
      }
      Entries.push(std::move(Entry));
    }
    Root.set("cycles", std::move(Entries));
    cli::attachMetrics(Root, Obs);
    if (!cli::writeReport("cats_diy", JsonPath, Root.dump()))
      return 1;
    if (!Quiet)
      std::printf("wrote %s\n", JsonPath.c_str());
  }

  // The sweep leg as a mergeable cats-sweep-report/2: what a sharded
  // campaign feeds cats_merge (the per-cycle diy report above is keyed by
  // cycle, not stream position, and does not merge).
  if (Writer) {
    if (!cli::writeSweepReport(
            "cats_diy", SweepJsonPath, *Writer,
            cli::campaignSweepJson(*Writer, Report, Campaign, Obs)))
      return 1;
    if (!Quiet)
      std::printf("wrote %s\n", SweepJsonPath.c_str());
  }

  const int ObsFailed = cli::finishObs("cats_diy", Obs, Quiet);
  return (SynthesisErrors || !Report.allOk() || ExportFailed || ObsFailed)
             ? 1
             : 0;
}
