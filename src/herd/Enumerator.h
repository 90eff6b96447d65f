//===- Enumerator.h - Incremental pruned candidate search -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental backtracking enumerator behind the Pruned judging
/// backend (docs/enumeration.md). Instead of materialising every rf x co
/// candidate and judging it afterwards (forEachCandidate), the search
/// commits the rf map first, then one per-location coherence permutation
/// at a time, maintaining the partial po-loc | com graph and abandoning a
/// partial assignment the moment it acquires a cycle — a violation of SC
/// PER LOCATION that no completion and no model of the framework can
/// undo. Every count and outcome set stays byte-identical to the naive
/// backend.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_HERD_ENUMERATOR_H
#define CATS_HERD_ENUMERATOR_H

#include "herd/Simulator.h"

namespace cats {

/// Runs the incremental search over \p Compiled, feeding \p Checker
/// through its bulk-accounting interface. Returns the pass's counters;
/// the caller hands them to MultiModelChecker::setEnumerationStats before
/// take().
EnumerationStats enumerateIncremental(const CompiledTest &Compiled,
                                      MultiModelChecker &Checker);

} // namespace cats

#endif // CATS_HERD_ENUMERATOR_H
