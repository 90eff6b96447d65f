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
/// the campaign behaviours attached: the source is shard-filtered and
/// cache hooks wrap every test. An enabled \p Progress reporter is fed
/// from the per-batch hook and finished before returning.
inline Expected<SweepReport>
runCampaignSweep(const SweepEngine &Engine, TestSource Source,
                 const std::vector<const Model *> &Models,
                 const CampaignFlags &Flags,
                 obs::ProgressReporter *Progress = nullptr) {
  Source = shardTestSource(std::move(Source), Flags.Shard);

  std::optional<ResultCache> Cache;
  StreamHooks Hooks;
  if (!Flags.CacheDir.empty()) {
    auto Opened = ResultCache::open(Flags.CacheDir);
    if (!Opened)
      return Expected<SweepReport>::error(Opened.message());
    Cache.emplace(Opened.take());
    Hooks = Cache->hooks(Models);
  }
  if (Progress)
    Hooks.OnBatch = [Progress](const SweepReport &SoFar) {
      Progress->update(SoFar.Tests.size(), SoFar.CacheHits,
                       SoFar.CacheMisses);
    };

  SweepReport Report =
      Engine.runStreamed(Source, Models, StreamBatchSize, Hooks);
  if (Progress)
    Progress->finish();
  return Report;
}

/// The JSON document of a campaign sweep: cats-sweep-report/2 plus, on a
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
