//===- CampaignCli.h - Shared campaign flags for the sweep CLIs -*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign-scale flag vocabulary shared by cats_sweep, cats_diy and
/// cats_mine (docs/campaigns.md): --shard K/N partitioning, a --cache
/// result directory, and --checkpoint/--resume progress files. Each tool
/// parses its own vocabulary; the campaign flags parse, validate and run
/// identically everywhere, so they live here — a thin layer gluing
/// src/campaign/ onto cli::ArgCursor and SweepEngine::runStreamed.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_TOOLS_CAMPAIGNCLI_H
#define CATS_TOOLS_CAMPAIGNCLI_H

#include "CliCommon.h"
#include "campaign/Checkpoint.h"
#include "campaign/Merge.h"
#include "campaign/ResultCache.h"
#include "campaign/Shard.h"
#include "obs/Progress.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace cats {
namespace cli {

/// The campaign flags a sweep-capable tool accepted.
struct CampaignFlags {
  ShardSpec Shard;
  std::string CacheDir;
  std::string CheckpointPath;
  bool Resume = false;

  /// True when any campaign behaviour is requested.
  bool active() const {
    return Shard.active() || !CacheDir.empty() || !CheckpointPath.empty();
  }
};

/// The FlagDoc rows of the campaign vocabulary, for the tools' usage
/// tables. \p WithCheckpoint drops the --checkpoint/--resume rows for
/// tools (cats_mine) that only take --shard/--cache.
inline std::vector<FlagDoc> campaignFlagDocs(bool WithCheckpoint) {
  std::vector<FlagDoc> Docs = {
      {"--shard K/N", "run shard K of an N-way campaign: round-robin by\n"
                      "stream position, merged back with cats_merge"},
      {"--cache DIR", "content-addressed result cache; verdicts already\n"
                      "in DIR are reused instead of re-judged"}};
  if (WithCheckpoint) {
    Docs.push_back({"--checkpoint FILE",
                    "append per-batch progress to FILE (JSONL)"});
    Docs.push_back({"--resume", "skip the tests FILE already covers\n"
                                "(requires --checkpoint)"});
  }
  return Docs;
}

/// Parses the campaign flag under the cursor, if it is one. Returns 1
/// when consumed, 0 when the argument is not a campaign flag, -1 on a
/// diagnosed bad value. \p WithCheckpoint must match the docs call.
inline int parseCampaignFlag(ArgCursor &Args, const char *Tool,
                             bool WithCheckpoint, CampaignFlags &Out) {
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
  if (WithCheckpoint && Args.is("--checkpoint")) {
    const char *V = Args.value();
    if (!V)
      return -1;
    Out.CheckpointPath = V;
    return 1;
  }
  if (WithCheckpoint && Args.is("--resume")) {
    Out.Resume = true;
    return 1;
  }
  return 0;
}

/// The display names of \p Models, for campaign-identity strings and
/// diagnostics.
inline std::vector<std::string>
modelNamesOf(const std::vector<const Model *> &Models) {
  std::vector<std::string> Names;
  Names.reserve(Models.size());
  for (const Model *M : Models)
    Names.push_back(M->name());
  return Names;
}

/// The flag combinations that cannot work, diagnosed before any sweeping.
inline Status validateCampaignFlags(const CampaignFlags &Flags) {
  if (Flags.Resume && Flags.CheckpointPath.empty())
    return Status::error("--resume needs --checkpoint FILE");
  return Status::success();
}

/// Runs \p Source through the engine in batches of StreamBatchSize with
/// the campaign behaviours attached: the source is shard-filtered, cache
/// hooks wrap every test, and each completed batch is appended to the
/// checkpoint. With --resume the checkpoint's completed prefix is skipped
/// at the source and spliced back into the returned report, so the result
/// equals an uninterrupted run. \p Spec is the campaign-identity string
/// (every flag that shapes the stream) the checkpoint is keyed on. An
/// enabled \p Progress reporter is fed from the same per-batch hook
/// (cumulative over a resumed prefix) and finished before returning.
inline Expected<SweepReport>
runCampaignSweep(const char *Tool, const SweepEngine &Engine,
                 TestSource Source, const std::vector<const Model *> &Models,
                 const CampaignFlags &Flags, const std::string &Spec,
                 obs::ProgressReporter *Progress = nullptr) {
  using Ret = Expected<SweepReport>;

  Source = shardTestSource(std::move(Source), Flags.Shard);

  std::optional<ResultCache> Cache;
  StreamHooks Hooks;
  if (!Flags.CacheDir.empty()) {
    auto Opened = ResultCache::open(Flags.CacheDir);
    if (!Opened)
      return Ret::error(Opened.message());
    Cache.emplace(Opened.take());
    Hooks = Cache->hooks(Models);
  }

  CheckpointState Prefix;
  std::optional<CheckpointWriter> Writer;
  size_t LastWritten = 0;
  if (!Flags.CheckpointPath.empty()) {
    const std::string Id = campaignId(Spec);
    if (Flags.Resume && std::filesystem::exists(Flags.CheckpointPath)) {
      auto State = loadCheckpoint(Flags.CheckpointPath, Id);
      if (!State)
        return Ret::error(State.message());
      Prefix = State.take();
      Hooks.SkipTests = Prefix.Consumed;
      auto Reopened = CheckpointWriter::append(Flags.CheckpointPath);
      if (!Reopened)
        return Ret::error(Reopened.message());
      Writer.emplace(Reopened.take());
    } else {
      auto Created = CheckpointWriter::create(Flags.CheckpointPath, Id);
      if (!Created)
        return Ret::error(Created.message());
      Writer.emplace(Created.take());
    }
  }

  Hooks.OnBatch = [&, Tool](const SweepReport &SoFar) {
    const unsigned long long Done = Prefix.Consumed + SoFar.Tests.size();
    const unsigned long long Hits = Prefix.CacheHits + SoFar.CacheHits;
    const unsigned long long Misses = Prefix.CacheMisses + SoFar.CacheMisses;
    if (Writer) {
      Status S = Writer->appendBatch(SoFar.Tests.begin() + LastWritten,
                                     SoFar.Tests.end(), Done, Hits, Misses);
      LastWritten = SoFar.Tests.size();
      if (S.failed())
        std::fprintf(stderr, "%s: %s\n", Tool, S.message().c_str());
    }
    // The checkpoint keeps the campaign's running counts; the progress
    // line, like the report, speaks of a cache only when this run caches.
    if (Progress)
      Progress->update(Done, Cache ? Hits : 0, Cache ? Misses : 0);
  };

  SweepReport Report =
      Engine.runStreamed(Source, Models, StreamBatchSize, Hooks);
  if (Progress)
    Progress->finish();

  // Splice the resumed prefix back in front: the report reads exactly as
  // an uninterrupted campaign's would.
  if (!Prefix.Tests.empty())
    Report.Tests.insert(Report.Tests.begin(),
                        std::make_move_iterator(Prefix.Tests.begin()),
                        std::make_move_iterator(Prefix.Tests.end()));
  // So does the report: the prefix's counters join this run's only when
  // it caches too (the engine then set CacheUsed).
  if (Cache) {
    Report.CacheHits += Prefix.CacheHits;
    Report.CacheMisses += Prefix.CacheMisses;
  }
  return Report;
}

/// The JSON document of a campaign sweep: cats-sweep-report/1 plus, on a
/// real shard, the "shard" stanza cats_merge interleaves on.
inline JsonValue campaignSweepJson(const SweepReport &Report,
                                   const CampaignFlags &Flags) {
  JsonValue Root = sweepReportToJson(Report);
  if (Flags.Shard.active())
    Root.set("shard", shardToJson(Flags.Shard));
  return Root;
}

} // namespace cli
} // namespace cats

#endif // CATS_TOOLS_CAMPAIGNCLI_H
