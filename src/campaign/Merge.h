//===- Merge.h - Folding shard reports back together ----------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reduce step of a sharded campaign (docs/campaigns.md): cats_merge
/// reads the per-shard JSON reports and folds them into one document of
/// the same kind, as if a single process had swept the whole stream (a
/// sweep merge writes cats-sweep-report/2 from /1 and /2 inputs alike).
///
/// Sweep reports merge losslessly. Each shard report carries a "shard"
/// stanza ({"index":K,"count":N}); given the complete set 1..N the merge
/// round-robin-interleaves the per-shard tests arrays, exactly inverting
/// the `Seq % N == K-1` partition of campaign/Shard.h, so the merged
/// tests array reproduces single-process source order byte-for-byte.
/// Unsharded reports (no stanza) concatenate in argument order instead.
///
/// Mine reports merge by summing per-family aggregates (src/mole's
/// mergeMineReports); order inside a family is not recoverable from
/// aggregates, so merged test_names are sorted.
///
/// Wall-clock fields are the one part of a report that legitimately
/// differs between a sharded and a single-process run; zeroWallTimes
/// normalizes them away so CI can compare merged output to a reference
/// run with a plain byte cmp (docs/sweep.md's determinism contract).
///
/// The merges and zeroWallTimes take their documents by value: a caller
/// that moves its inputs in (as cats_merge does) hands every test entry
/// to the output without a copy, while an lvalue argument is copied first
/// and left untouched.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAMPAIGN_MERGE_H
#define CATS_CAMPAIGN_MERGE_H

#include "support/Error.h"
#include "sweep/Json.h"

#include <vector>

namespace cats {

/// \p V with every numeric "wall_seconds" member, at any nesting depth,
/// replaced by 0 (in place, on the argument's own tree).
JsonValue zeroWallTimes(JsonValue V);

/// Merges cats-sweep-report/1 and /2 documents, in any mix, into one /2
/// document. All inputs sharded (a complete 1..N set, N == inputs)
/// interleave back to source order; all inputs unsharded concatenate in
/// argument order; a mix of sharded and unsharded is an error. jobs is
/// the max, wall_seconds the sum, cache hits/misses the sums (the stanza
/// appears iff any input carries one), and the "shard" stanza is dropped
/// from the merged document. Every test record must pass the record
/// reader and every count countFromJson. The merged document keeps each
/// record's own JSON, unknown members included, rewritten as /2 by
/// upgradeTestEntry: a /1 record's allowed states become indices, and
/// every record renders on one line, as a single-process run writes it.
Expected<JsonValue> mergeSweepReports(std::vector<JsonValue> Inputs);

/// Merges cats-mine-report/1 documents (delegates to src/mole). Inputs
/// carrying static analyses are refused.
Expected<JsonValue> mergeMineReports(std::vector<JsonValue> Inputs);

/// Dispatches on the inputs' "schema" member (all inputs must share it;
/// sweep reports /1 and /2 count as one).
Expected<JsonValue> mergeReports(std::vector<JsonValue> Inputs);

} // namespace cats

#endif // CATS_CAMPAIGN_MERGE_H
