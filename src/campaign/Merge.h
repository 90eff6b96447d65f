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
/// The sweep merge reads its inputs a record at a time (mergeSweepInputs):
/// from each report's top-level members it checks the inputs and writes
/// the merged top level, and each record passes through it on its own,
/// checked on a worker of an ordered window. cats_merge feeds it record
/// bytes from files in bounded memory (ReportFile), so a merge never
/// holds a whole report; mergeSweepReports feeds it parsed documents.
///
/// The merges and zeroWallTimes take their documents by value: a caller
/// that moves its inputs in hands every test entry to the output without
/// a copy, while an lvalue argument is copied first and left untouched.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAMPAIGN_MERGE_H
#define CATS_CAMPAIGN_MERGE_H

#include "support/Error.h"
#include "sweep/Json.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cats {

/// \p V with every numeric "wall_seconds" member, at any nesting depth,
/// replaced by 0 (in place, on the argument's own tree).
JsonValue zeroWallTimes(JsonValue V);

/// One record of the sweep merge on its way through.
struct MergeRecord {
  /// The record's bytes as its input read them, and their offset in the
  /// input's file; a worker parses them. Empty when the input hands out
  /// parsed records. Once the record is checked, the merge's Finish may
  /// leave its rendering here.
  std::string Text;
  uint64_t At = 0;
  /// The record: parsed from Text, or as the input handed it out.
  JsonValue Value;
};

/// One input of the record-at-a-time sweep merge: a report's top-level
/// members, and a forward reader over its records.
struct SweepMergeInput {
  /// The report's top level. Its "tests" member, when an array, is
  /// empty: the records come from Next.
  JsonValue Top;
  /// How many records Next reads.
  size_t Records = 0;
  /// Reads the next record, in report order: its bytes or its value.
  std::function<Status(MergeRecord &)> Next;
  /// The file the bytes come from, named in their parse errors.
  std::string Path;
};

/// The sweep merge of mergeSweepReports, a record at a time, on a pool
/// of the hardware's threads (support/OrderedWindow.h; inline at one).
/// It checks every input's top level first: header, "tests" array,
/// shard stanza, a complete shard set, and record counts that one
/// campaign's shards have. Then the calling thread reads the records in
/// merged order; a worker parses each one that comes as bytes, checks
/// and upgrades it (upgradeTestEntry) and hands it to \p Finish, when
/// set; and the calling thread hands the records to \p Emit in merged
/// order. The first record in merged order that cannot be read, does
/// not parse or is refused stops the merge, whichever worker gets to it
/// first; the merge then emits nothing after it. It returns the merged
/// top level with an empty "tests" array, the records' place, and the
/// folded metrics and witness sections after it. Errors name the input,
/// and the test for a record.
Expected<JsonValue>
mergeSweepInputs(std::vector<SweepMergeInput> Inputs,
                 const std::function<void(MergeRecord &)> &Finish,
                 const std::function<void(MergeRecord &)> &Emit);

/// Merges cats-sweep-report/1 and /2 documents, in any mix, into one /2
/// document. All inputs sharded (a complete 1..N set, N == inputs, each
/// shard holding what one campaign's would) interleave back to source
/// order; all inputs unsharded concatenate in
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

/// The kind of report a merge of documents with the top levels \p Tops
/// makes: SweepReportSchema for sweep reports of either version, or
/// "cats-mine-report/1". Fails when the schemas differ or do not merge.
Expected<std::string> mergeKindOf(const std::vector<const JsonValue *> &Tops);

/// Dispatches on the inputs' "schema" member (all inputs must share it;
/// sweep reports /1 and /2 count as one).
Expected<JsonValue> mergeReports(std::vector<JsonValue> Inputs);

/// A report file read for the merge in two passes, in bounded memory.
/// open() is the first: it parses every top-level member except the
/// records of its "tests" array, which it only counts, finding where
/// each ends (JsonFileReader), and notes where they start. ("shard"
/// follows "tests" in every report, so the interleave needs this pass.)
/// The records come in the second pass, through input(), one at a time,
/// as bytes that the merge parses: a record that does not parse fails
/// there. Neither pass builds a node for a record it skips, nor recurses.
class ReportFile {
public:
  /// Fails with "cannot read PATH", or "PATH: " and the JSON error.
  static Expected<ReportFile> open(const std::string &Path);

  /// The top-level members; null when the document is not an object.
  const JsonValue &top() const { return Top; }
  JsonValue &top() { return Top; }
  /// The merge input over this file: the top level, moved out, and the
  /// records' bytes read one at a time. The file must outlive the input,
  /// and stay where it is.
  SweepMergeInput input();
  /// Parses every record again, from the first, so a document that does
  /// not parse fails here even when the merge stopped before its broken
  /// record. Fails as open() does.
  Status readRest();

  ReportFile(ReportFile &&) noexcept;
  ReportFile &operator=(ReportFile &&) noexcept;
  ~ReportFile();

private:
  explicit ReportFile(const std::string &Path);
  Status scan();
  /// Passes the separator before the next record.
  bool toRecord();
  /// Counts a record read, and says why it failed when not \p Ok.
  Status passed(bool Ok);
  Status readRecord(MergeRecord &Out);
  /// The reader's error, as open() reports it.
  Status readError() const;

  std::string Path;
  std::unique_ptr<JsonFileReader> Reader;
  JsonValue Top;
  uint64_t RecordsAt = 0;
  size_t Records = 0;
  /// Records read so far in the second pass.
  size_t Read = 0;
  bool Failed = false;
};

} // namespace cats

#endif // CATS_CAMPAIGN_MERGE_H
