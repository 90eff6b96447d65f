//===- ResultCache.h - Content-addressed verdict cache --------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence half of the campaign layer: a content-addressed on-disk
/// cache of per-(test, model-set) sweep verdicts, so repeated campaigns —
/// the common case for CI and for any service front end — only pay for
/// what changed.
///
/// The key (recipe cats-cache/3) is a 128-bit FNV-1a hash over the cache
/// format version, the ordered model display names with their definition
/// fingerprints (Model::definitionFingerprint(): the .cat source hash for
/// cat-backed models, the architecture-config identity for native ones),
/// and then the *concretized* test text (LitmusTest::toString(), which
/// includes the name, code, initial state and final condition). The model
/// part comes first so that it is hashed once per model list
/// (CacheModelSet) and each key continues from there over its test. Any
/// edit to the test, the model list, its order, or a model's *definition*
/// therefore misses naturally — editing a .cat file or changing a native
/// model's configuration invalidates exactly the entries that depended on
/// it, with no epoch bookkeeping.
///
/// An entry (cats-cache-entry/2) is one line holding the test's
/// cats-sweep-report/2 record (sweep/ReportIO.h):
///   {"schema":"cats-cache-entry/2","key":"<32 hex>","result":{...}}
///
/// Layout: <dir>/<kk>/<key>.json, fanned out on the first two key hex
/// digits. Entries are written to a temp file and renamed into place only
/// once the write succeeded, so concurrent shards sharing one directory
/// race benignly (last writer wins with identical content) and a failed
/// write publishes nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAMPAIGN_RESULTCACHE_H
#define CATS_CAMPAIGN_RESULTCACHE_H

#include "model/Model.h"
#include "support/Error.h"
#include "sweep/SweepEngine.h"

#include <string>
#include <vector>

namespace cats {

/// A model list as the cache keys and checks it: the display names in
/// order, and the two FNV-1a states after hashing the key's model part.
/// Built once per list; every key continues from it over a test's text.
struct CacheModelSet {
  explicit CacheModelSet(const std::vector<const Model *> &Models);
  std::vector<std::string> Names;
  uint64_t Lo = 0;
  uint64_t Hi = 0;
};

/// The cache key of one (test, model-set) pair: 32 hex digits.
std::string resultCacheKey(const LitmusTest &Test, const CacheModelSet &Set);
std::string resultCacheKey(const LitmusTest &Test,
                           const std::vector<const Model *> &Models);

/// A handle on one cache directory.
class ResultCache {
public:
  /// Opens (creating if needed) the cache rooted at \p Dir.
  static Expected<ResultCache> open(const std::string &Dir);

  /// Looks up the entry for (\p Test, \p Set). On a hit, fills \p Out
  /// with the stored result and returns true. Unreadable, corrupt or
  /// foreign entries (another schema, test or model list, or a verdict
  /// its allowed states do not back) behave as misses.
  bool lookup(const LitmusTest &Test, const CacheModelSet &Set,
              SweepTestResult &Out) const;
  bool lookup(const LitmusTest &Test,
              const std::vector<const Model *> &Models,
              SweepTestResult &Out) const;

  /// Stores \p Result for (\p Test, \p Set). Errored results are not
  /// cached (they are cheap to reproduce and their messages may change);
  /// write failures are reported but never fail a campaign.
  Status store(const LitmusTest &Test, const CacheModelSet &Set,
               const SweepTestResult &Result) const;
  Status store(const LitmusTest &Test,
               const std::vector<const Model *> &Models,
               const SweepTestResult &Result) const;

  /// The cache root.
  const std::string &dir() const { return Root; }

  /// The lookup/store members packaged as engine hooks
  /// (SweepEngine::runStreamed), sharing one CacheModelSet of \p Models.
  /// The cache must outlive the hooks.
  StreamHooks hooks(const std::vector<const Model *> &Models) const;

private:
  explicit ResultCache(std::string Dir) : Root(std::move(Dir)) {}
  std::string entryPath(const std::string &Key) const;
  std::string Root;
};

} // namespace cats

#endif // CATS_CAMPAIGN_RESULTCACHE_H
