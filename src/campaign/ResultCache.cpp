//===- ResultCache.cpp - Content-addressed verdict cache ------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "campaign/ResultCache.h"

#include "support/StringUtils.h"
#include "sweep/ReportIO.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

using namespace cats;

namespace {

/// Bumped whenever the entry format or the key recipe changes; part of
/// the hashed content, so old directories simply miss.
constexpr const char *CacheFormatVersion = "cats-cache/2";

/// 64-bit FNV-1a over \p Text, from \p Seed.
uint64_t fnv1a64(const std::string &Text, uint64_t Seed) {
  uint64_t H = Seed;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

std::string cats::resultCacheKey(const LitmusTest &Test,
                                 const std::vector<const Model *> &Models) {
  // The judging backend is deliberately not hashed: every backend
  // produces byte-identical results (tests/differential.cpp), so an entry
  // stored by one is a valid answer for any other
  // (ResultCache.EntriesAreBackendIndependent in tests/campaign.cpp).
  std::string Content = std::string(CacheFormatVersion) + "\n";
  Content += Test.toString();
  Content += "\nmodels:";
  for (const Model *M : Models)
    Content += M->name() + "=" + M->definitionFingerprint() + ";";
  // Two independently seeded 64-bit FNV-1a halves make a 128-bit key;
  // collisions at any realistic campaign scale are then negligible.
  const uint64_t Lo = fnv1a64(Content, 14695981039346656037ull);
  const uint64_t Hi = fnv1a64(Content, 0x9e3779b97f4a7c15ull);
  return strFormat("%016llx%016llx", static_cast<unsigned long long>(Hi),
                   static_cast<unsigned long long>(Lo));
}

Expected<ResultCache> cats::ResultCache::open(const std::string &Dir) {
  using Ret = Expected<ResultCache>;
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return Ret::error(strFormat("cannot create cache directory %s: %s",
                                Dir.c_str(), Ec.message().c_str()));
  return ResultCache(Dir);
}

std::string ResultCache::entryPath(const std::string &Key) const {
  return Root + "/" + Key.substr(0, 2) + "/" + Key + ".json";
}

bool ResultCache::lookup(const LitmusTest &Test,
                         const std::vector<const Model *> &Models,
                         SweepTestResult &Out) const {
  std::ifstream In(entryPath(resultCacheKey(Test, Models)));
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  auto Doc = JsonValue::parse(Buf.str());
  if (!Doc)
    return false;
  const JsonValue *Entry = Doc->get("result");
  if (!Entry)
    return false;
  auto Parsed = sweepTestResultFromJson(*Entry);
  if (!Parsed)
    return false;
  // Guard against key collisions and hand-edited entries: the stored
  // result must belong to this very test.
  if (Parsed->TestName != Test.Name)
    return false;
  Out = Parsed.take();
  return true;
}

Status ResultCache::store(const LitmusTest &Test,
                          const std::vector<const Model *> &Models,
                          const SweepTestResult &Result) const {
  if (!Result.Error.empty())
    return Status::success();
  const std::string Key = resultCacheKey(Test, Models);
  const std::string Path = entryPath(Key);
  std::error_code Ec;
  std::filesystem::create_directories(Root + "/" + Key.substr(0, 2), Ec);
  if (Ec)
    return Status::error(strFormat("cannot create cache fan-out dir: %s",
                                   Ec.message().c_str()));
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", "cats-cache-entry/1");
  Doc.set("key", Key);
  Doc.set("result", sweepTestResultToJson(Result));

  // Write-then-rename so concurrent shards sharing the directory never
  // observe a torn entry. The temp name carries a thread-id hash to keep
  // two same-key writers apart.
  const std::string Tmp =
      Path + strFormat(".tmp.%llu",
                       static_cast<unsigned long long>(
                           std::hash<std::thread::id>{}(
                               std::this_thread::get_id())));
  {
    std::ofstream OutFile(Tmp);
    if (!OutFile)
      return Status::error(strFormat("cannot write %s", Tmp.c_str()));
    OutFile << Doc.dump();
  }
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    std::filesystem::remove(Tmp, Ec);
    return Status::error(strFormat("cannot publish cache entry %s",
                                   Path.c_str()));
  }
  return Status::success();
}

StreamHooks
ResultCache::hooks(const std::vector<const Model *> &Models) const {
  StreamHooks Hooks;
  Hooks.CacheLookup = [this, Models](const LitmusTest &Test,
                                     SweepTestResult &Out) {
    return lookup(Test, Models, Out);
  };
  Hooks.CacheStore = [this, Models](const LitmusTest &Test,
                                    const SweepTestResult &Result) {
    Status S = store(Test, Models, Result);
    if (S.failed())
      std::fprintf(stderr, "result-cache: %s\n", S.message().c_str());
  };
  return Hooks;
}
