//===- Enumerate.h - Exhaustive critical-cycle enumeration ----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diycross layer (Sec. 8.1): instead of hand-picking the dozen
/// classic families, exhaustively enumerate every well-formed critical
/// cycle up to a configurable length over a per-architecture edge
/// vocabulary — program-order edges carrying each ordering mechanism
/// (plain po, dependencies, fences) in every direction pair, crossed with
/// the communication edges (Rfe/Fre/Wse, optionally the internal
/// rfi/fri/wsi detours of Figs. 32/33).
///
/// The search meets each cycle exactly once, at its least rotation by
/// vocabulary index, and emits it in its canonical rotation
/// (diy::canonicalizeCycle) under the name its synthesized test carries.
/// Enumeration is streaming: the callback sees one canonical cycle at a
/// time, tests are synthesized on demand (stageDiyTests, on the sweep's
/// workers), and the sweep engine consumes the corpus in batches
/// (SweepEngine::runStreamed) — thousands of scenarios without thousands
/// of LitmusTests in memory.
///
/// Well-formedness mirrors synthesizeTest plus the paper's criticality
/// conditions (Sec. 8.1): directions chain around the cycle, at least two
/// threads (external edges), no two consecutive po edges, at least two po
/// edges (so the cycle spans two locations), per-thread and per-location
/// access caps.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_DIY_ENUMERATE_H
#define CATS_DIY_ENUMERATE_H

#include "diy/Diy.h"
#include "litmus/TestFilter.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cats {

/// Configuration of one enumeration.
struct EnumerateOptions {
  Arch Target = Arch::Power;
  /// Cycle length bounds, in edges (== events). Critical cycles need at
  /// least four edges (two po, two communications), so smaller minima are
  /// simply never reached.
  unsigned MinEdges = 3;
  unsigned MaxEdges = 4;
  /// Include dependency mechanisms (addr/ctrl/ctrl+cfence/data) on the
  /// architectures that have them (Power, ARM).
  bool Dependencies = true;
  /// Include the architecture's ordering fences (sync/lwsync/eieio on
  /// Power, dmb/dmb.st on ARM, mfence on TSO).
  bool Fences = true;
  /// Include the internal communication edges rfi/fri/wsi, enabling the
  /// extended detour shapes of Figs. 32/33 (threads up to four accesses).
  bool InternalCom = false;
  /// Stop after this many canonical cycles (0 = exhaustive).
  uint64_t Limit = 0;
};

/// One enumerated cycle, in canonical rotation, with its canonical name.
struct EnumeratedCycle {
  DiyCycle Cycle;
  std::string Name;
};

/// The edge vocabulary the enumeration draws from, in the deterministic
/// order the search explores: po edges (every direction pair x every
/// mechanism the options admit), then the communication edges.
std::vector<DiyEdge> edgeVocabulary(const EnumerateOptions &Opts);

/// Exhaustively enumerates the canonical critical cycles of at most
/// Opts.MaxEdges edges, invoking \p Fn once per canonical cycle in a
/// deterministic order. \p Fn returns false to stop early; Opts.Limit
/// caps the emission count. Returns the number of cycles emitted.
uint64_t
enumerateCycles(const EnumerateOptions &Opts,
                const std::function<bool(const EnumeratedCycle &)> &Fn);

/// Materializes the enumeration (cycles are a few dozen bytes each; this
/// is fine for bounded sizes — tests stay lazy either way).
std::vector<EnumeratedCycle> enumerateAll(const EnumerateOptions &Opts);

/// Materializes the cycles whose canonical name matches \p FilterRegex
/// (empty = all); Opts.Limit counts *matching* cycles, so a filter
/// composed with a limit yields the first N matches. The shared front
/// half of makeDiyTestSource and the cats_diy CLI. Fails on a malformed
/// regex.
Expected<std::vector<EnumeratedCycle>>
enumerateMatching(const EnumerateOptions &Opts,
                  const std::string &FilterRegex = "");

/// \p Cycles as a staged test source (litmus/TestFilter.h): the pull
/// takes the next cycle, the make synthesizes its test for \p Target
/// under its enumerated name, and the admission drops a cycle that fails
/// synthesis, appending "NAME: why" to \p SynthesisErrors when non-null.
StagedSource
stageDiyTests(std::shared_ptr<const std::vector<EnumeratedCycle>> Cycles,
              Arch Target, std::vector<std::string> *SynthesisErrors = nullptr);

/// The staged source over the enumeration: stageDiyTests over the cycles
/// whose canonical name matches \p FilterRegex (empty = all;
/// enumerateMatching), each synthesized in its make step. Cycles that
/// fail synthesis are dropped; when \p SynthesisErrors is non-null each
/// failure appends one diagnostic. Fails on a malformed regex.
Expected<StagedSource>
makeDiyTestSource(const EnumerateOptions &Opts,
                  const std::string &FilterRegex = "",
                  std::vector<std::string> *SynthesisErrors = nullptr);

} // namespace cats

#endif // CATS_DIY_ENUMERATE_H
