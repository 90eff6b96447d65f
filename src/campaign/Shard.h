//===- Shard.h - Deterministic campaign partitioning ----------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharding half of the campaign layer (docs/campaigns.md): split one
/// enumeration range or corpus stream across N cooperating processes so
/// that the union of the shards is exactly the single-process run. A
/// shard spec is "K/N" (1-based shard K of N); assignment is round-robin
/// on the item's position in the stream — position Seq belongs to shard
/// ((Seq mod N) + 1) — which is deterministic, independent of timing and
/// worker counts, balanced to within one item, and trivially invertible:
/// cats_merge interleaves N shard reports back into source order by
/// taking one entry per shard per round.
///
/// The same spec shards anything positional: the admission of a staged
/// source (shardSource), or a materialized corpus vector.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAMPAIGN_SHARD_H
#define CATS_CAMPAIGN_SHARD_H

#include "litmus/TestFilter.h"
#include "support/Error.h"
#include "sweep/Json.h"

#include <string>

namespace cats {

/// One shard of an N-way campaign. The default spec (1/1) is the whole
/// campaign; active() distinguishes real splits.
struct ShardSpec {
  /// 1-based shard index, 1 <= Index <= Count.
  unsigned Index = 1;
  /// Total number of shards.
  unsigned Count = 1;

  /// True when the spec actually splits the campaign.
  bool active() const { return Count > 1; }

  /// True when the item at 0-based stream position \p Seq belongs to
  /// this shard.
  bool owns(unsigned long long Seq) const {
    return Seq % Count == Index - 1;
  }

  /// "K/N" display form.
  std::string toString() const;
};

/// Parses a --shard value "K/N" with 1 <= K <= N. Fails with a
/// diagnostic on anything else.
Expected<ShardSpec> parseShardSpec(const std::string &Text);

/// Wraps \p Inner's admission so only the positions \p Spec owns are
/// admitted, in their original relative order. Positions count the items
/// \p Inner itself admits, so a test that fails to load or that the
/// filter drops takes none. The wrapper holds its own position counter;
/// like every source it is single-pass.
StagedSource shardSource(StagedSource Inner, ShardSpec Spec);

/// The "shard" stanza the campaign CLIs append to their JSON reports —
/// {"index": K, "count": N} — which cats_merge reads to interleave shard
/// reports back into source order.
JsonValue shardToJson(const ShardSpec &Spec);

/// Parses a "shard" stanza back. Fails on malformed stanzas.
Expected<ShardSpec> shardFromJson(const JsonValue &Stanza);

} // namespace cats

#endif // CATS_CAMPAIGN_SHARD_H
