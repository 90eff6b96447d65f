//===- Checkpoint.h - Campaign checkpoint/resume files --------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-tolerant progress files for long campaigns (docs/campaigns.md).
/// A checkpoint is an append-only JSONL file:
///
///   {"schema":"cats-checkpoint/2","campaign":"<id>"}     header, line 1
///   {"entry":{...cats-sweep-report/2 test record...}}     one per test
///   {"progress":{"consumed":N,"hits":H,"misses":M}}       one per batch
///
/// The writer emits /2; loadCheckpoint also reads a cats-checkpoint/1
/// file, whose entries are /1 records, so a campaign checkpointed by an
/// older build resumes. Resuming appends /2 entry lines to it, and the
/// record reader takes either kind line by line.
///
/// The engine's OnBatch hook appends each batch's entries followed by one
/// progress line and flushes. The engine fires it at the in-order
/// frontier, so every entry written is final and the file is a prefix of
/// the source: a kill at any moment loses at most the unreported tail,
/// and loading trims to the last progress line (entries past it were
/// appended by an interrupted batch write and are re-judged on resume).
/// A progress line counts exactly the entries before it, and a line
/// without its newline is torn, so a duplicated or cut span ends the
/// trusted prefix. Resuming cuts the file back to that prefix before it
/// appends, so every batch on disk follows a complete one.
/// Appending keeps the per-batch cost O(batch), not O(campaign)
/// — rewriting a whole-report snapshot every batch would be quadratic
/// over a million-test campaign.
///
/// The campaign id ties a checkpoint to the exact work it describes: a
/// hash of every flag that shapes the stream (inputs, filter, models,
/// shard, batch size, ...). --resume refuses a checkpoint whose id does
/// not match the current command line, so a resumed campaign can never
/// silently mix two different corpora.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAMPAIGN_CHECKPOINT_H
#define CATS_CAMPAIGN_CHECKPOINT_H

#include "support/Error.h"
#include "sweep/SweepEngine.h"

#include <cstdio>
#include <string>
#include <vector>

namespace cats {

/// Derives the campaign id from the determinism-relevant flag spec
/// \p Spec (a "key=value;..." string the CLI assembles).
std::string campaignId(const std::string &Spec);

/// What a checkpoint file holds after trimming to the last completed
/// batch.
struct CheckpointState {
  /// Source tests consumed (== Tests.size(); every consumed test yields
  /// exactly one report entry — judged, cache hit, or error).
  unsigned long long Consumed = 0;
  /// Cache counters at the last completed batch.
  unsigned long long CacheHits = 0;
  unsigned long long CacheMisses = 0;
  /// The file's length up to the end of the last completed batch (the
  /// header alone when there is none): where a resume appends.
  unsigned long long Bytes = 0;
  /// The completed entries, in source order.
  std::vector<SweepTestResult> Tests;
};

/// Loads and validates \p Path, a cats-checkpoint/1 or /2 file. Fails on
/// a missing/garbled header or a campaign-id mismatch; tolerates (and
/// trims) a torn tail.
Expected<CheckpointState> loadCheckpoint(const std::string &Path,
                                         const std::string &CampaignId);

/// Appends batches to a checkpoint file.
class CheckpointWriter {
public:
  /// Starts a fresh checkpoint at \p Path (truncating any previous one).
  static Expected<CheckpointWriter> create(const std::string &Path,
                                           const std::string &CampaignId);

  /// Reopens \p Path for appending after a resume, first cutting it to
  /// \p Bytes (CheckpointState::Bytes of its loadCheckpoint), so a torn
  /// tail never sits between two batches.
  static Expected<CheckpointWriter> append(const std::string &Path,
                                           unsigned long long Bytes);

  /// Appends the report entries [\p First, \p Last) (those the last
  /// batch added) and a progress line with the cumulative totals, then
  /// flushes.
  Status appendBatch(std::vector<SweepTestResult>::const_iterator First,
                     std::vector<SweepTestResult>::const_iterator Last,
                     unsigned long long Consumed, unsigned long long Hits,
                     unsigned long long Misses);

  /// Removes the checkpoint file (campaign completed).
  static void remove(const std::string &Path);

  CheckpointWriter(CheckpointWriter &&Other) noexcept
      : File(Other.File), Path(std::move(Other.Path)) {
    Other.File = nullptr;
  }
  CheckpointWriter &operator=(CheckpointWriter &&Other) noexcept {
    if (this != &Other) {
      close();
      File = Other.File;
      Path = std::move(Other.Path);
      Other.File = nullptr;
    }
    return *this;
  }
  ~CheckpointWriter() { close(); }

private:
  explicit CheckpointWriter(std::FILE *File, std::string Path)
      : File(File), Path(std::move(Path)) {}
  void close();
  std::FILE *File = nullptr;
  std::string Path;
};

} // namespace cats

#endif // CATS_CAMPAIGN_CHECKPOINT_H
