//===- Progress.h - Campaign progress reporting to stderr -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The --progress reporter: a rate-limited stderr line with tests/s,
/// completion percentage, ETA (when the total is known) and the cache hit
/// rate (when a result cache is attached). Tools hook update() into
/// SweepEngine::runStreamed's StreamHooks::OnBatch (or their own per-test
/// loops), so week-long sharded campaigns finally show their pulse. The
/// engine calls OnBatch on the sweeping thread, so the reporter holds no
/// lock.
///
/// Everything goes to stderr — stdout stays reserved for --json reports
/// and the summary tables — and a disabled reporter (the default, or under
/// --quiet) is a no-op. On a TTY the line redraws in place via '\r'; when
/// stderr is redirected it degrades to one full line every few seconds so
/// logs stay readable.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_OBS_PROGRESS_H
#define CATS_OBS_PROGRESS_H

#include <string>

namespace cats {
namespace obs {

class ProgressReporter {
public:
  /// \p Label prefixes every line (conventionally the tool name);
  /// \p Total is the expected number of items, 0 when unknown (streamed
  /// sources); a disabled reporter never prints.
  ProgressReporter(std::string Label, unsigned long long Total,
                   bool Enabled);
  ~ProgressReporter();

  /// Reports \p Done items processed so far; prints at most every
  /// interval. Cache counts feed the hit-rate column; pass zeros when no
  /// cache is attached.
  void update(unsigned long long Done, unsigned long long CacheHits = 0,
              unsigned long long CacheMisses = 0);

  /// Prints the final summary line (idempotent; also run by the
  /// destructor so early returns still close the display).
  void finish();

  bool enabled() const { return Enabled; }

private:
  void print(unsigned long long Done, unsigned long long CacheHits,
             unsigned long long CacheMisses, bool Final);

  std::string Label;
  unsigned long long Total;
  bool Enabled;
  bool Tty = false;
  bool Printed = false;
  bool Finished = false;
  double StartSeconds = 0;
  double LastSeconds = 0;
  unsigned long long LastDone = 0;
  unsigned long long LastHits = 0;
  unsigned long long LastMisses = 0;
};

} // namespace obs
} // namespace cats

#endif // CATS_OBS_PROGRESS_H
