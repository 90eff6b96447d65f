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
#include <functional>
#include <memory>
#include <string_view>
#include <thread>

using namespace cats;

namespace {

/// Bumped whenever the entry format or the key recipe changes; part of
/// the hashed content, so old directories simply miss.
constexpr const char *CacheFormatVersion = "cats-cache/3";

/// The schema tag of an entry file.
constexpr const char *CacheEntrySchema = "cats-cache-entry/2";

/// Continues 64-bit FNV-1a state \p H over \p Text.
uint64_t fnv1a64(std::string_view Text, uint64_t H) {
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

CacheModelSet::CacheModelSet(const std::vector<const Model *> &Models) {
  // The judging backend is deliberately not hashed: every backend
  // produces byte-identical results (tests/differential.cpp), so an entry
  // stored by one is a valid answer for any other
  // (ResultCache.EntriesAreBackendIndependent in tests/campaign.cpp).
  std::string Content = std::string(CacheFormatVersion) + "\nmodels:";
  Names.reserve(Models.size());
  for (const Model *M : Models) {
    Names.push_back(M->name());
    Content += Names.back() + "=" + M->definitionFingerprint() + ";";
  }
  Content += "\n";
  // Two independently seeded 64-bit FNV-1a halves make a 128-bit key;
  // collisions at any realistic campaign scale are then negligible.
  Lo = fnv1a64(Content, 14695981039346656037ull);
  Hi = fnv1a64(Content, 0x9e3779b97f4a7c15ull);
}

std::string cats::resultCacheKey(const LitmusTest &Test,
                                 const CacheModelSet &Set) {
  const std::string Text = Test.toString();
  return strFormat("%016llx%016llx",
                   static_cast<unsigned long long>(fnv1a64(Text, Set.Hi)),
                   static_cast<unsigned long long>(fnv1a64(Text, Set.Lo)));
}

std::string cats::resultCacheKey(const LitmusTest &Test,
                                 const std::vector<const Model *> &Models) {
  return resultCacheKey(Test, CacheModelSet(Models));
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

bool ResultCache::lookup(const LitmusTest &Test, const CacheModelSet &Set,
                         SweepTestResult &Out) const {
  std::string Text;
  if (!readWholeFile(entryPath(resultCacheKey(Test, Set)), Text))
    return false;
  auto Doc = JsonValue::parse(Text);
  if (!Doc)
    return false;
  const JsonValue *Schema = Doc->get("schema");
  const JsonValue *Entry = Doc->get("result");
  if (!Schema || !Schema->isString() ||
      Schema->asString() != CacheEntrySchema || !Entry)
    return false;
  auto Parsed = sweepTestResultFromJson(*Entry);
  if (!Parsed)
    return false;
  // Guard against key collisions and hand-edited entries: the stored
  // result must belong to this very test, answer for exactly the
  // requested models in order, and every verdict must follow from its
  // allowed states and the test's condition. The reader already checked
  // the entry's own invariants; a corrupt entry is a miss, never a
  // served verdict.
  const MultiSimulationResult &R = Parsed->Result;
  if (Parsed->TestName != Test.Name || R.PerModel.size() != Set.Names.size())
    return false;
  // Only allowed states bear on a verdict, so only their keys are parsed,
  // each at most once (-1: not parsed yet).
  std::vector<signed char> Satisfies(R.ConsistentOutcomes.size(), -1);
  auto SatisfiesAt = [&](uint32_t Idx) {
    if (Satisfies[Idx] < 0) {
      Expected<Outcome> O = outcomeFromKey(R.ConsistentOutcomes.key(Idx));
      Satisfies[Idx] = O && O->satisfies(Test.Final);
    }
    return Satisfies[Idx] != 0;
  };
  for (size_t I = 0; I < Set.Names.size(); ++I) {
    const SimulationResult &M = R.PerModel[I];
    if (M.ModelName != Set.Names[I])
      return false;
    bool Reachable = false;
    for (size_t J = 0; J < M.AllowedOutcomes.size() && !Reachable; ++J)
      Reachable = SatisfiesAt(M.AllowedOutcomes[J]);
    if (Reachable != M.ConditionReachable)
      return false;
  }
  Out = Parsed.take();
  return true;
}

bool ResultCache::lookup(const LitmusTest &Test,
                         const std::vector<const Model *> &Models,
                         SweepTestResult &Out) const {
  return lookup(Test, CacheModelSet(Models), Out);
}

Status ResultCache::store(const LitmusTest &Test, const CacheModelSet &Set,
                          const SweepTestResult &Result) const {
  if (!Result.Error.empty())
    return Status::success();
  const std::string Key = resultCacheKey(Test, Set);
  const std::string Path = entryPath(Key);
  std::error_code Ec;
  std::filesystem::create_directories(Root + "/" + Key.substr(0, 2), Ec);
  if (Ec)
    return Status::error(strFormat("cannot create cache fan-out dir: %s",
                                   Ec.message().c_str()));
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", CacheEntrySchema);
  Doc.set("key", Key);
  Doc.set("result", sweepTestResultToJson(Result));

  // Write-then-rename so concurrent shards sharing the directory never
  // observe a torn entry, and a failed write publishes nothing. The temp
  // name carries a thread-id hash to keep two same-key writers apart.
  const std::string Tmp =
      Path + strFormat(".tmp.%llu",
                       static_cast<unsigned long long>(
                           std::hash<std::thread::id>{}(
                               std::this_thread::get_id())));
  if (Status S = writeWholeFile(Tmp, Doc.dump(0) + "\n"); S.failed()) {
    std::filesystem::remove(Tmp, Ec);
    return S;
  }
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    std::filesystem::remove(Tmp, Ec);
    return Status::error(strFormat("cannot publish cache entry %s",
                                   Path.c_str()));
  }
  return Status::success();
}

Status ResultCache::store(const LitmusTest &Test,
                          const std::vector<const Model *> &Models,
                          const SweepTestResult &Result) const {
  return store(Test, CacheModelSet(Models), Result);
}

StreamHooks
ResultCache::hooks(const std::vector<const Model *> &Models) const {
  auto Set = std::make_shared<const CacheModelSet>(Models);
  StreamHooks Hooks;
  Hooks.CacheLookup = [this, Set](const LitmusTest &Test,
                                  SweepTestResult &Out) {
    return lookup(Test, *Set, Out);
  };
  Hooks.CacheStore = [this, Set](const LitmusTest &Test,
                                 const SweepTestResult &Result) {
    Status S = store(Test, *Set, Result);
    if (S.failed())
      std::fprintf(stderr, "result-cache: %s\n", S.message().c_str());
  };
  return Hooks;
}
