//===- Metrics.h - Sharded counters and histograms ------------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability subsystem (docs/observability.md):
/// a process-global registry of named counters and power-of-two histograms,
/// cheap enough to leave on inside the MultiModelChecker inner loop and
/// near-zero-cost when disabled.
///
/// Two usage patterns keep the hot paths fast:
///
///  - Sharded atomics. Counter::add spreads increments over cache-line-
///    padded per-thread shards, so concurrent sweep workers never contend
///    on one line. Engines that tick a counter per candidate instead
///    accumulate in plain locals and flush once per test (see
///    MultiModelChecker::take), which costs nothing at all per candidate.
///
///  - One global switch. Everything gates on metricsEnabled(), a relaxed
///    atomic bool; when it is off (the default) the instrumented code does
///    a single predictable-branch load and nothing else.
///
/// Snapshots serialize as the additive cats-metrics/1 JSON object that the
/// CLIs embed in their reports and dump via --metrics[=FILE]; shard reports
/// merge by summing counters and bucket-wise adding histograms.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_OBS_METRICS_H
#define CATS_OBS_METRICS_H

#include "sweep/Json.h"

#include <atomic>
#include <string>

namespace cats {
namespace obs {

/// Global metrics switch; relaxed load, false by default.
bool metricsEnabled();
void setMetricsEnabled(bool Enabled);

/// A monotonically increasing counter sharded over cache-line-padded
/// atomics. add() is wait-free and contention-free across threads; value()
/// sums the shards (reads are for reporting, not coordination).
class Counter {
public:
  static constexpr unsigned NumShards = 16;

  void add(unsigned long long N = 1) {
    Shards[shardIndex()].N.fetch_add(N, std::memory_order_relaxed);
  }

  unsigned long long value() const {
    unsigned long long Total = 0;
    for (const Shard &S : Shards)
      Total += S.N.load(std::memory_order_relaxed);
    return Total;
  }

  void reset() {
    for (Shard &S : Shards)
      S.N.store(0, std::memory_order_relaxed);
  }

private:
  struct alignas(64) Shard {
    std::atomic<unsigned long long> N{0};
  };
  Shard Shards[NumShards];

  /// Stable per-thread shard assignment (round-robin over thread starts).
  static unsigned shardIndex();
};

/// A histogram over power-of-two buckets: record(V) lands in bucket
/// bit_width(V), i.e. bucket B counts values in [2^(B-1), 2^B) with bucket
/// 0 reserved for zero. Good enough for latency (microseconds) and size
/// distributions without any configuration, and mergeable bucket-wise.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 64;

  void record(unsigned long long V) {
    unsigned B = 0;
    for (unsigned long long X = V; X; X >>= 1)
      ++B;
    Buckets[B].fetch_add(1, std::memory_order_relaxed);
    Total.fetch_add(V, std::memory_order_relaxed);
  }

  unsigned long long count() const {
    unsigned long long N = 0;
    for (const auto &B : Buckets)
      N += B.load(std::memory_order_relaxed);
    return N;
  }

  unsigned long long sum() const {
    return Total.load(std::memory_order_relaxed);
  }

  unsigned long long bucket(unsigned I) const {
    return I < NumBuckets ? Buckets[I].load(std::memory_order_relaxed) : 0;
  }

  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Total.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<unsigned long long> Buckets[NumBuckets]{};
  std::atomic<unsigned long long> Total{0};
};

/// Looks up (creating on first use) the named counter/histogram in the
/// process-global registry. The returned reference is stable for the
/// process lifetime, so hot paths resolve their instruments once and keep
/// the pointer. Names are dotted paths, e.g. "judge.candidates_total" or
/// "judge.kill.Power.observation" (docs/observability.md catalogues them).
Counter &counter(const std::string &Name);
Histogram &histogram(const std::string &Name);

/// Convenience: bump a named counter only when metrics are on. For code
/// that runs at most a few thousand times per second; hot loops should
/// cache the Counter reference or accumulate locally instead.
inline void tick(const char *Name, unsigned long long N = 1) {
  if (metricsEnabled())
    counter(Name).add(N);
}

/// Records \p Seconds into \p Name as integer microseconds when metrics
/// are on.
inline void recordSeconds(const char *Name, double Seconds) {
  if (metricsEnabled())
    histogram(Name).record(
        static_cast<unsigned long long>(Seconds * 1e6));
}

/// Zeroes every registered counter and histogram (tests and benches; the
/// instruments stay registered).
void resetMetrics();

/// Snapshot of the registry as a cats-metrics/1 JSON object:
///
///   {"schema": "cats-metrics/1",
///    "counters": {"name": N, ...},                  // nonzero only
///    "histograms": {"name": {"count": N, "sum": S,  // nonempty only
///                            "buckets": [[bucket, count], ...]}, ...}}
///
/// Keys are sorted. Each snapshot (and metricsToText) first replaces the
/// one sample of the "process.peak_rss_kb" histogram with the process's
/// own peak resident set (VmHWM of /proc/self/status; nothing where that
/// cannot be read), so a merge of shard reports holds one sample per
/// shard.
JsonValue metricsToJson();

/// Folds \p From into \p Into (both cats-metrics/1 objects): counters sum,
/// histograms add count/sum and merge buckets by index. Returns false and
/// fills \p Error when either document is malformed.
bool mergeMetricsJson(JsonValue &Into, const JsonValue &From,
                      std::string &Error);

/// Renders a snapshot as aligned "name value" lines for the --metrics
/// stderr dump (counters, then histogram count/sum/mean lines).
std::string metricsToText();

} // namespace obs
} // namespace cats

#endif // CATS_OBS_METRICS_H
