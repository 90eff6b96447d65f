//===- Diy.h - Cycle-based litmus test generation -------------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diy test generator (Sec. 8.1): synthesises a litmus test from a
/// cycle of relaxations. A cycle alternates:
///
///  * communication edges, which cross threads on the same location:
///      Rfe (write -> read), Fre (read -> write), Wse (write -> write,
///      i.e. external coherence);
///  * program-order edges, which stay on the thread and move to the next
///    location, carrying an ordering mechanism: plain po, a dependency
///    (addr, data, ctrl, ctrl+cfence) or a fence (sync, lwsync, dmb, ...).
///
/// From a cycle, the generator lays out threads and locations, emits the
/// pseudo-assembly with the requested dependency/fence machinery, assigns
/// write values, and derives the exists-condition that pins exactly the
/// cycle's communications (reads observe their rf source; final memory
/// values pin external coherence). Test names follow the paper's
/// conventions (Tab. III): classic family names where they exist, else the
/// systematic directions-based name, plus the mechanism suffixes.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_DIY_DIY_H
#define CATS_DIY_DIY_H

#include "litmus/LitmusTest.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace cats {

/// Kind of a cycle edge.
enum class EdgeKind : uint8_t {
  Rfe, ///< External read-from: crosses threads, same location.
  Fre, ///< External from-read: crosses threads, same location.
  Wse, ///< External coherence: crosses threads, same location.
  Rfi, ///< Internal read-from: same thread, same location.
  Fri, ///< Internal from-read: same thread, same location.
  Wsi, ///< Internal coherence: same thread, same location.
  Po   ///< Program order: same thread, next location.
};

/// True for the edges that cross threads.
bool isExternalEdge(EdgeKind Kind);

/// True for the same-thread, same-location communication edges; together
/// with Po they extend a thread beyond two accesses, enabling the fri-rfi
/// and wsi-rfi shapes of Figs. 32/33.
bool isInternalComEdge(EdgeKind Kind);

/// Ordering mechanism carried by a Po edge.
enum class PoMech : uint8_t {
  None,       ///< Plain program order.
  Addr,       ///< Address dependency (false dep via xor).
  Data,       ///< Data dependency (only when the target is a write).
  Ctrl,       ///< Control dependency (compare + branch).
  CtrlCfence, ///< Control dependency followed by isync/isb.
  Fence       ///< A named fence between the accesses.
};

/// Access direction.
enum class Dir : uint8_t { R, W };

/// One cycle edge.
struct DiyEdge {
  EdgeKind Kind = EdgeKind::Po;
  /// For Po edges: source and target directions. Communication edges have
  /// fixed directions (Rfe: W->R, Fre: R->W, Wse: W->W).
  Dir Src = Dir::R;
  Dir Dst = Dir::R;
  PoMech Mech = PoMech::None;
  std::string FenceName; ///< For Mech == Fence.

  static DiyEdge rfe() { return {EdgeKind::Rfe, Dir::W, Dir::R, PoMech::None, ""}; }
  static DiyEdge fre() { return {EdgeKind::Fre, Dir::R, Dir::W, PoMech::None, ""}; }
  static DiyEdge wse() { return {EdgeKind::Wse, Dir::W, Dir::W, PoMech::None, ""}; }
  static DiyEdge rfi() { return {EdgeKind::Rfi, Dir::W, Dir::R, PoMech::None, ""}; }
  static DiyEdge fri() { return {EdgeKind::Fri, Dir::R, Dir::W, PoMech::None, ""}; }
  static DiyEdge wsi() { return {EdgeKind::Wsi, Dir::W, Dir::W, PoMech::None, ""}; }
  static DiyEdge po(Dir Src, Dir Dst, PoMech Mech = PoMech::None,
                    std::string Fence = "") {
    return {EdgeKind::Po, Src, Dst, Mech, std::move(Fence)};
  }

  /// diy-style edge name, e.g. "Rfe", "PodRR", "DpAddrdR", "FencedWW:sync".
  std::string toString() const;
};

/// A cycle of edges.
using DiyCycle = std::vector<DiyEdge>;

/// Synthesises the litmus test realising \p Cycle for \p Target. Fails if
/// the cycle is malformed: direction mismatches between consecutive edges,
/// no communication edge, or mechanisms unavailable on the architecture.
Expected<LitmusTest> synthesizeTest(const DiyCycle &Cycle, Arch Target,
                                    const std::string &NameOverride = "");

/// The canonical rotation of a cycle: classic families rotate to their
/// Tab. III convention (writer side first for mp); rotation-symmetric
/// cycles and systematic shapes pick the lexicographically-least rotation
/// that starts on a thread boundary. canonicalCycle(rotate(C)) ==
/// canonicalCycle(C) for every rotation; enumeration emits cycles in this
/// rotation.
DiyCycle canonicalCycle(const DiyCycle &Cycle);

/// The name of a cycle (Tab. III style): the classic family name where one
/// matches, else the per-thread directions name, e.g. "ww+rr", with
/// mechanism suffixes appended, e.g. "mp+lwsync+addr". Computed on the
/// canonical rotation, so every rotation of a cycle gets the same name.
/// \p NameArch picks the architecture-specific suffix spellings
/// (ctrl+cfence is "ctrlisb" on ARM, "ctrlisync" elsewhere).
std::string cycleName(const DiyCycle &Cycle, Arch NameArch = Arch::Power);

/// Canonicalizes \p Cycle in place and returns its name — one
/// canonicalization scan where canonicalCycle + cycleName would do two.
/// The enumeration hot path uses this.
std::string canonicalizeCycle(DiyCycle &Cycle, Arch NameArch = Arch::Power);

/// The classic base cycles of Tab. III by family name: mp, sb (wr+wr),
/// lb (rw+rw), wrc, isa2, 2+2w, w+rw+2w, rwc, r, s, iriw.
/// Po edges carry no mechanism; callers substitute mechanisms.
std::vector<std::pair<std::string, DiyCycle>> classicFamilies();

/// Generates a battery of tests for \p Target: every classic family with
/// every combination of per-edge mechanisms drawn from the architecture's
/// vocabulary (plain po, dependencies where directions permit, and each
/// fence). \p MaxPerFamily caps the combinatorial blow-up per family
/// (0 = unlimited).
std::vector<LitmusTest> generateBattery(Arch Target,
                                        unsigned MaxPerFamily = 0);

} // namespace cats

#endif // CATS_DIY_DIY_H
