//===- ResultCache.h - Content-addressed verdict cache --------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence half of the campaign layer: a content-addressed on-disk
/// cache of per-(test, model-set) sweep verdicts, so repeated campaigns —
/// and a campaign rerun after a kill — only pay for what changed.
///
/// The key (recipe cats-cache/4) is a 128-bit FNV-1a hash over the cache
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
/// Layout: the directory holds append-only logs, <dir>/<name>.log, one
/// per writing ResultCache, created at its first store under a name that
/// no other writer holds and that sorts by creation. A log's first line
/// is the recipe tag; every later line is one entry:
///
///   cats-cache/4
///   <key: 32 hex> <sum: 16 hex> <cats-sweep-report/2 record>
///
/// where the sum is a 64-bit FNV-1a over the record's bytes. Opening the
/// cache indexes the keys of every whole line of every log, in name order
/// and then file order, so the newest line of a key wins. A line without
/// its newline (a kill mid-write) is never indexed, and a file without the
/// header is skipped. A lookup reads its one line back and re-checks its
/// key and sum. The record is then decoded and checked against the test
/// and the model list (resultFromRecord in sweep/ReportIO.h): by lookup()
/// itself, or, behind hooks(), by the sweep engine on a worker.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAMPAIGN_RESULTCACHE_H
#define CATS_CAMPAIGN_RESULTCACHE_H

#include "model/Model.h"
#include "support/Error.h"
#include "sweep/SweepEngine.h"

#include <memory>
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

/// A handle on one cache directory: the index of its logs, and this
/// handle's own log. Move-only; one handle is used from one thread at a
/// time (the engine's hooks all run on the sweeping thread).
class ResultCache {
public:
  /// Opens (creating if needed) the cache rooted at \p Dir and indexes
  /// its logs. The handle keeps the index, no log text.
  static Expected<ResultCache> open(const std::string &Dir);

  /// Looks up the entry for (\p Test, \p Set). On a hit, fills \p Out
  /// with the stored result, decoded and checked, its Record the line's
  /// record bytes, and returns true. An unreadable line, one whose key or
  /// sum does not match, or a foreign or unsound record (another test or
  /// model list, or a verdict its allowed states do not back) is a miss.
  bool lookup(const LitmusTest &Test, const CacheModelSet &Set,
              SweepTestResult &Out) const;
  bool lookup(const LitmusTest &Test,
              const std::vector<const Model *> &Models,
              SweepTestResult &Out) const;

  /// Stores \p Result for (\p Test, \p Set): appends one line to this
  /// handle's log with one write, and serves it from then on. The line
  /// holds the result's Record, rendered here only when it has none.
  /// Errored results are not cached (they are cheap to reproduce and
  /// their messages may change). A failed write is reported once, and the
  /// handle then stores nothing more, so no line is ever glued onto a cut
  /// one; it never fails a campaign.
  Status store(const LitmusTest &Test, const CacheModelSet &Set,
               const SweepTestResult &Result) const;
  Status store(const LitmusTest &Test,
               const std::vector<const Model *> &Models,
               const SweepTestResult &Result) const;

  /// The lookup/store members packaged as engine hooks
  /// (SweepEngine::runStreamed), sharing one CacheModelSet of \p Models.
  /// The lookup hook only reads: on a hit it sets the result's Record to
  /// the line's record and leaves the decode and its checks to the engine,
  /// which runs them on a worker and touches no cache state there. It
  /// serves only the lines stored before the hooks were made, so a test
  /// that a sweep holds twice misses twice at any worker count. The
  /// cache must outlive the hooks and stay where it is.
  StreamHooks hooks(const std::vector<const Model *> &Models) const;

  ResultCache(ResultCache &&) noexcept;
  ResultCache &operator=(ResultCache &&) noexcept;
  ~ResultCache();

private:
  struct State;
  explicit ResultCache(std::unique_ptr<State> S);
  std::unique_ptr<State> S;
};

} // namespace cats

#endif // CATS_CAMPAIGN_RESULTCACHE_H
