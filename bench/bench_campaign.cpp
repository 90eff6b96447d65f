//===- bench_campaign.cpp - Cold vs warm result-cache sweeps --------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the campaign layer (docs/campaigns.md) buys a repeated
/// sweep: the same diy corpus is judged three times —
///
///   plain:  runStreamed without hooks, the pre-campaign baseline;
///   cold:   cache hooks over an empty directory (all misses, so the
///           measured overhead is hashing + serializing every entry);
///   warm:   the same directory again (all hits, no judging at all).
///
/// It prints the three wall times, the warm speedup, and the cache
/// hit/miss counters, and exits 1 when the campaign invariants do not
/// hold: the warm run must be pure hits and both cached runs must render
/// byte-identically to the plain baseline modulo wall times — the same
/// property CI's warm-cache job asserts end to end with the binaries.
///
///   bench_campaign [--jobs N] [--arch power|arm|tso] [--size N]
///
//===----------------------------------------------------------------------===//

#include "campaign/Merge.h"
#include "campaign/ResultCache.h"
#include "diy/Enumerate.h"
#include "model/Registry.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

using namespace cats;

namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

TestSource vectorSource(std::shared_ptr<std::vector<LitmusTest>> Vec) {
  auto Idx = std::make_shared<size_t>(0);
  return [Vec, Idx](LitmusTest &Out) -> bool {
    if (*Idx >= Vec->size())
      return false;
    Out = (*Vec)[(*Idx)++];
    return true;
  };
}

std::string scrubbed(const SweepReport &Report) {
  JsonValue Doc = zeroWallTimes(sweepReportToJson(Report));
  // The cache stanza legitimately differs between the three runs, and so
  // does "jobs": a warm run judges nothing, so one thread counts.
  JsonValue Out = JsonValue::object();
  for (const auto &Member : Doc.members())
    if (Member.first != "cache" && Member.first != "jobs")
      Out.set(Member.first, Member.second);
  return Out.dump();
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = 0, Size = 6;
  const char *ArchName = "power";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--jobs") == 0 && I + 1 < argc)
      Jobs = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    else if (std::strcmp(argv[I], "--size") == 0 && I + 1 < argc)
      Size = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    else if (std::strcmp(argv[I], "--arch") == 0 && I + 1 < argc)
      ArchName = argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--arch power|arm|tso] [--size N]\n",
                   argv[0]);
      return 2;
    }
  }

  Arch A;
  if (!parseArch(ArchName, A)) {
    std::fprintf(stderr, "unknown architecture '%s'\n", ArchName);
    return 2;
  }

  // The corpus: every canonical critical cycle up to --size edges, like
  // a `cats_diy --sweep` campaign would judge — materialized up front so
  // all three measured runs pay judging, not synthesis.
  EnumerateOptions Opts;
  Opts.Target = A;
  Opts.MaxEdges = Size;
  auto Source = makeDiyTestSource(Opts);
  if (!Source) {
    std::fprintf(stderr, "enumeration failed: %s\n",
                 Source.message().c_str());
    return 2;
  }
  auto Tests = std::make_shared<std::vector<LitmusTest>>();
  TestSource Drain = inlineSource(Source.take());
  for (LitmusTest T; Drain(T);)
    Tests->push_back(std::move(T));
  std::vector<const Model *> Models = resolveModels({}).take();

  const std::string CacheDir =
      (std::filesystem::temp_directory_path() / "cats_bench_campaign_cache")
          .string();
  std::filesystem::remove_all(CacheDir);

  SweepEngine Engine({Jobs});
  auto T0 = Clock::now();
  SweepReport Plain = Engine.runStreamed(vectorSource(Tests), Models, 64);
  const double PlainSec = elapsed(T0);

  auto Cache = ResultCache::open(CacheDir);
  if (!Cache) {
    std::fprintf(stderr, "cannot open cache: %s\n", Cache.message().c_str());
    return 2;
  }
  T0 = Clock::now();
  SweepReport Cold = Engine.runStreamed(vectorSource(Tests), Models, 64,
                                        Cache->hooks(Models));
  const double ColdSec = elapsed(T0);
  T0 = Clock::now();
  SweepReport Warm = Engine.runStreamed(vectorSource(Tests), Models, 64,
                                        Cache->hooks(Models));
  const double WarmSec = elapsed(T0);

  std::printf("campaign cache: %s size<=%u, %zu test(s), %zu model(s), "
              "%u worker(s)\n\n",
              ArchName, Size, Tests->size(), Models.size(),
              Engine.workerCount());
  std::printf("  %-28s %10.3fs\n", "plain (no hooks)", PlainSec);
  std::printf("  %-28s %10.3fs  (%llu miss(es), overhead %+.1f%%)\n",
              "cold cache", ColdSec, Cold.CacheMisses,
              PlainSec > 0 ? (ColdSec / PlainSec - 1.0) * 100.0 : 0.0);
  std::printf("  %-28s %10.3fs  (%llu hit(s), %.1fx faster than plain)\n",
              "warm cache", WarmSec, Warm.CacheHits,
              WarmSec > 0 ? PlainSec / WarmSec : 0.0);

  // The invariants the campaign docs promise.
  bool Ok = true;
  if (Warm.CacheHits != Tests->size() || Warm.CacheMisses != 0) {
    std::fprintf(stderr, "FAIL: warm run was not pure hits (%llu/%llu)\n",
                 Warm.CacheHits, Warm.CacheMisses);
    Ok = false;
  }
  const std::string Baseline = scrubbed(Plain);
  if (scrubbed(Cold) != Baseline || scrubbed(Warm) != Baseline) {
    std::fprintf(stderr,
                 "FAIL: cached reports differ from the plain baseline\n");
    Ok = false;
  }
  std::filesystem::remove_all(CacheDir);
  return Ok ? 0 : 1;
}
