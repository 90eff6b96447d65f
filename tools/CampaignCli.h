//===- CampaignCli.h - Shared campaign flags for the sweep CLIs -*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign-scale flag vocabulary shared by cats_sweep, cats_diy and
/// cats_mine (docs/campaigns.md): --shard K/N partitioning and a --cache
/// result directory, which is also what a killed campaign reruns from.
/// Each tool parses its own vocabulary; the campaign flags parse and run
/// identically everywhere, so they live here — a thin layer gluing
/// src/campaign/ onto cli::ArgCursor and SweepEngine::runStreamed.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_TOOLS_CAMPAIGNCLI_H
#define CATS_TOOLS_CAMPAIGNCLI_H

#include "CliCommon.h"
#include "campaign/Merge.h"
#include "campaign/ResultCache.h"
#include "campaign/Shard.h"
#include "obs/Progress.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace cats {
namespace cli {

/// The campaign flags a sweep-capable tool accepted.
struct CampaignFlags {
  ShardSpec Shard;
  std::string CacheDir;

  /// True when any campaign behaviour is requested.
  bool active() const { return Shard.active() || !CacheDir.empty(); }
};

/// The FlagDoc rows of the campaign vocabulary, for the tools' usage
/// tables.
inline std::vector<FlagDoc> campaignFlagDocs() {
  return {{"--shard K/N", "run shard K of an N-way campaign: round-robin by\n"
                          "stream position, merged back with cats_merge"},
          {"--cache DIR", "content-addressed result cache; verdicts already\n"
                          "in DIR are reused instead of re-judged, so a\n"
                          "killed campaign reruns from it"}};
}

/// Parses the campaign flag under the cursor, if it is one. Returns 1
/// when consumed, 0 when the argument is not a campaign flag, -1 on a
/// diagnosed bad value.
inline int parseCampaignFlag(ArgCursor &Args, const char *Tool,
                             CampaignFlags &Out) {
  if (Args.is("--shard")) {
    const char *V = Args.value();
    if (!V)
      return -1;
    auto Spec = parseShardSpec(V);
    if (!Spec) {
      std::fprintf(stderr, "%s: %s\n", Tool, Spec.message().c_str());
      return -1;
    }
    Out.Shard = Spec.take();
    return 1;
  }
  if (Args.is("--cache")) {
    const char *V = Args.value();
    if (!V)
      return -1;
    Out.CacheDir = V;
    return 1;
  }
  return 0;
}

/// Runs \p Source through the engine in batches of StreamBatchSize with
/// the campaign behaviours attached: the shard joins the source's
/// admission and cache hooks wrap every admitted test. Each result leaves
/// at the in-order frontier: its record to \p Writer when one is given,
/// and then the result, without its witnesses, to \p Sink, with the item
/// it was made from. With neither, the report keeps the results. An
/// enabled \p Progress reporter is fed from the per-batch hook and
/// finished before returning.
inline Expected<SweepReport>
runCampaignSweep(const SweepEngine &Engine, StagedSource Source,
                 const std::vector<const Model *> &Models,
                 const CampaignFlags &Flags,
                 obs::ProgressReporter *Progress = nullptr,
                 std::function<void(StagedTest &, SweepTestResult &)> Sink = {},
                 SweepReportWriter *Writer = nullptr) {
  Source = shardSource(std::move(Source), Flags.Shard);

  std::optional<ResultCache> Cache;
  StreamHooks Hooks;
  if (!Flags.CacheDir.empty()) {
    auto Opened = ResultCache::open(Flags.CacheDir);
    if (!Opened)
      return Expected<SweepReport>::error(Opened.message());
    Cache.emplace(Opened.take());
    Hooks = Cache->hooks(Models);
  }
  if (Writer) {
    Hooks.SinkWritesRecords = true;
    Hooks.OnResult = [Writer, Sink](StagedTest &Item,
                                    SweepTestResult &Result) {
      Writer->add(Result);
      if (Sink)
        Sink(Item, Result);
    };
  } else {
    Hooks.OnResult = std::move(Sink);
  }
  if (Progress)
    Hooks.OnBatch = [Progress](const SweepReport &SoFar) {
      Progress->update(SoFar.Reported, SoFar.CacheHits, SoFar.CacheMisses);
    };

  SweepReport Report =
      Engine.runStreamed(Source, Models, StreamBatchSize, Hooks);
  if (Progress)
    Progress->finish();
  return Report;
}

/// Creates the writer of a campaign report for file \p Path (stdout when
/// empty), or says why it cannot and returns nothing: the tool exits 1.
inline std::optional<SweepReportWriter>
createReportWriter(const char *Tool, const std::string &Path) {
  auto Writer = SweepReportWriter::create(Path);
  if (Writer)
    return Writer.take();
  std::fprintf(stderr, "%s: %s\n", Tool, Writer.message().c_str());
  return std::nullopt;
}

/// The top level of a campaign sweep's report, whose records went to
/// \p Writer: cats-sweep-report/2 plus, on a real shard, the "shard"
/// stanza cats_merge interleaves on, and the metrics section under
/// --metrics.
inline JsonValue campaignSweepJson(const SweepReportWriter &Writer,
                                   const SweepReport &Report,
                                   const CampaignFlags &Flags,
                                   const ObsFlags &Obs) {
  JsonValue Root = Writer.document(Report);
  if (Flags.Shard.active())
    Root.set("shard", shardToJson(Flags.Shard));
  attachMetrics(Root, Obs);
  return Root;
}

/// Writes \p Root with \p Writer's records spliced in to file \p Path,
/// or, when \p Path is empty, to stdout followed by a newline. On failure
/// prints "TOOL: cannot write PATH" (or "stdout"), or the spill's error
/// when the records never reached it, in which case the target is left
/// alone, and returns false: the tool exits 1.
inline bool writeSweepReport(const char *Tool, const std::string &Path,
                             SweepReportWriter &Writer,
                             const JsonValue &Root) {
  if (Status S = Writer.finishSpill(); S.failed()) {
    std::fprintf(stderr, "%s: %s\n", Tool, S.message().c_str());
    return false;
  }
  if (Path.empty()) {
    if (Writer.write(Root, stdout) && std::fputc('\n', stdout) != EOF &&
        std::fflush(stdout) == 0)
      return true;
    std::fprintf(stderr, "%s: cannot write stdout\n", Tool);
    return false;
  }
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  bool Ok = File && Writer.write(Root, File);
  // The close flushes what the stream still buffers, so it can fail too.
  if (File && std::fclose(File) != 0)
    Ok = false;
  if (!Ok)
    std::fprintf(stderr, "%s: cannot write %s\n", Tool, Path.c_str());
  return Ok;
}

/// Parses the records of \p Files. False, after saying why, when one of
/// them does not parse: the tool exits 2.
inline bool readRestOfFiles(const char *Tool,
                            std::vector<ReportFile> &Files) {
  for (ReportFile &File : Files)
    if (Status S = File.readRest(); S.failed()) {
      std::fprintf(stderr, "%s: %s\n", Tool, S.message().c_str());
      return false;
    }
  return true;
}

/// Says why the merge of \p Files was refused and returns the exit
/// status: 1, or 2 when one of the files does not parse to its end. A
/// merge stops at its first refusal, before the records after it, so
/// every record of every file is parsed again here: that a document does
/// not parse is still what gets reported, as when every input is parsed
/// before the merge.
inline int refuseMerge(const char *Tool, std::vector<ReportFile> &Files,
                       const std::string &Why) {
  if (!readRestOfFiles(Tool, Files))
    return 2;
  std::fprintf(stderr, "%s: %s\n", Tool, Why.c_str());
  return 1;
}

/// Merges the mine reports \p Files whole from their top levels: they
/// are aggregates of a few KB.
inline int mergeMineFiles(const char *Tool, std::vector<ReportFile> &Files,
                          const std::string &OutPath, bool ZeroWall) {
  if (!readRestOfFiles(Tool, Files))
    return 2;
  std::vector<JsonValue> Docs;
  for (ReportFile &File : Files)
    Docs.push_back(std::move(File.top()));
  auto Merged = mergeMineReports(std::move(Docs));
  if (!Merged) {
    std::fprintf(stderr, "%s: %s\n", Tool, Merged.message().c_str());
    return 1;
  }
  std::string Text =
      (ZeroWall ? zeroWallTimes(Merged.take()) : Merged.take()).dump();
  const bool Wrote = OutPath.empty() ? writeStdout(Tool, Text += '\n')
                                     : writeReport(Tool, OutPath, Text);
  return Wrote ? 0 : 1;
}

/// Merges the sweep reports \p Files a record at a time, through a
/// spill, so that nothing is written unless the merge succeeds. The
/// calling thread copies each record's bytes out of its file and appends
/// the rendered records to the spill; a worker parses and checks each
/// record, zeroes it under \p ZeroWall, and renders it.
inline int mergeSweepFiles(const char *Tool, std::vector<ReportFile> &Files,
                           const std::string &OutPath, bool ZeroWall) {
  std::optional<SweepReportWriter> Writer = createReportWriter(Tool, OutPath);
  if (!Writer)
    return 1;
  std::vector<SweepMergeInput> Inputs;
  for (ReportFile &File : Files)
    Inputs.push_back(File.input());
  auto Top = mergeSweepInputs(
      std::move(Inputs),
      [ZeroWall](MergeRecord &Record) {
        if (ZeroWall)
          Record.Value = zeroWallTimes(std::move(Record.Value));
        Record.Text = Record.Value.dump(0);
        Record.Value = JsonValue();
      },
      [&Writer](MergeRecord &Record) { Writer->addRecord(Record.Text); });
  if (!Top)
    return refuseMerge(Tool, Files, Top.message());
  const JsonValue Root = ZeroWall ? zeroWallTimes(Top.take()) : Top.take();
  return writeSweepReport(Tool, OutPath, *Writer, Root) ? 0 : 1;
}

/// cats_merge's work (docs/campaigns.md): merges the report files
/// \p Paths into file \p OutPath, or stdout when it is empty. Each file
/// is scanned first (ReportFile). Sweep reports then merge a record at a
/// time, with --zero-wall (\p ZeroWall) applied per record, and mine
/// reports whole, from what the scan parsed. Returns the exit status: 2
/// for an input that cannot be read or parsed, 1 for a refused merge or
/// a failed write.
inline int mergeReportFiles(const char *Tool,
                            const std::vector<std::string> &Paths,
                            const std::string &OutPath, bool ZeroWall,
                            bool Quiet, obs::ProgressReporter &Progress) {
  std::vector<ReportFile> Files;
  Files.reserve(Paths.size());
  for (const std::string &Path : Paths) {
    auto File = ReportFile::open(Path);
    if (!File) {
      std::fprintf(stderr, "%s: %s\n", Tool, File.message().c_str());
      return 2;
    }
    Files.push_back(File.take());
    obs::tick("merge.reports");
    Progress.update(Files.size());
  }
  Progress.finish();
  std::vector<const JsonValue *> Tops;
  for (const ReportFile &File : Files)
    Tops.push_back(&File.top());
  auto Kind = mergeKindOf(Tops);
  if (!Kind)
    return refuseMerge(Tool, Files, Kind.message());
  const int Status = *Kind == SweepReportSchema
                         ? mergeSweepFiles(Tool, Files, OutPath, ZeroWall)
                         : mergeMineFiles(Tool, Files, OutPath, ZeroWall);
  if (Status == 0 && !Quiet && !OutPath.empty())
    std::fprintf(stderr, "%s: merged %zu report(s) into %s\n", Tool,
                 Paths.size(), OutPath.c_str());
  return Status;
}

} // namespace cli
} // namespace cats

#endif // CATS_TOOLS_CAMPAIGNCLI_H
