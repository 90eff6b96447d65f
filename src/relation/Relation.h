//===- Relation.h - Dense relation algebra over event ids -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Finite binary relations over event identifiers 0..N-1, stored as dense
/// bitsets. Everything in the axiomatic framework — the four axioms of the
/// model, the ppo fixpoint of Power, the cat interpreter — is computed with
/// this algebra: union, intersection, difference, sequence (relational
/// composition), inverse, transitive closures, restrictions, and the
/// acyclicity / irreflexivity checks of Fig. 5.
///
/// Litmus executions are tiny (tens of events), so the O(N^2) bitset
/// representation is both the simplest and the fastest choice; closures are
/// Warshall-style with word-parallel row unions.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_RELATION_RELATION_H
#define CATS_RELATION_RELATION_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cats {

/// Index of an event inside one Execution. Dense, starting at 0.
using EventId = uint32_t;

/// Inline-first storage for the bitset words of EventSet and Relation.
/// Litmus-sized universes — the overwhelmingly common case — fit in the
/// inline buffer, so the temporaries churned out by the relation algebra
/// (every |, ;, closure, restrict creates one) never touch the heap.
/// Larger universes (e.g. multi-event blow-ups) fall back to a heap
/// buffer transparently.
class WordStorage {
public:
  /// Words stored inline: 32 x 8 = 256 bytes, covering relations over up
  /// to 32 events at one word per row.
  static constexpr size_t InlineCapacity = 32;

  WordStorage() = default;
  /// Creates \p CountIn zeroed words.
  explicit WordStorage(size_t CountIn) { resizeZero(CountIn); }
  WordStorage(const WordStorage &Other) { copyFrom(Other); }
  WordStorage(WordStorage &&Other) noexcept { moveFrom(std::move(Other)); }
  WordStorage &operator=(const WordStorage &Other) {
    if (this == &Other)
      return *this;
    // Same-sized heap buffers are reused: the enumerator re-copies its
    // partial graphs per coherence permutation.
    if (Heap && Count == Other.Count) {
      std::memcpy(Heap.get(), Other.data(), Count * sizeof(uint64_t));
      return *this;
    }
    Heap.reset();
    copyFrom(Other);
    return *this;
  }
  WordStorage &operator=(WordStorage &&Other) noexcept {
    if (this != &Other) {
      Heap.reset();
      moveFrom(std::move(Other));
    }
    return *this;
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  uint64_t *data() { return Heap ? Heap.get() : Inline; }
  const uint64_t *data() const { return Heap ? Heap.get() : Inline; }
  uint64_t &operator[](size_t I) { return data()[I]; }
  uint64_t operator[](size_t I) const { return data()[I]; }
  uint64_t &back() { return data()[Count - 1]; }
  const uint64_t *begin() const { return data(); }
  const uint64_t *end() const { return data() + Count; }

  bool operator==(const WordStorage &Other) const {
    return Count == Other.Count &&
           std::memcmp(data(), Other.data(), Count * sizeof(uint64_t)) == 0;
  }
  bool operator!=(const WordStorage &Other) const {
    return !(*this == Other);
  }

private:
  void resizeZero(size_t N) {
    Count = N;
    if (N > InlineCapacity)
      Heap.reset(new uint64_t[N]);
    std::fill_n(data(), N, uint64_t{0});
  }
  void copyFrom(const WordStorage &Other) {
    Count = Other.Count;
    if (Count > InlineCapacity)
      Heap.reset(new uint64_t[Count]);
    std::memcpy(data(), Other.data(), Count * sizeof(uint64_t));
  }
  void moveFrom(WordStorage &&Other) {
    Count = Other.Count;
    if (Other.Heap)
      Heap = std::move(Other.Heap);
    else
      std::memcpy(Inline, Other.Inline, Count * sizeof(uint64_t));
    Other.Count = 0;
  }

  size_t Count = 0;
  uint64_t Inline[InlineCapacity];
  std::unique_ptr<uint64_t[]> Heap;
};

/// A set of event ids, as a bitset of fixed universe size.
class EventSet {
public:
  EventSet() : Universe(0) {}

  /// Creates an empty set over a universe of \p UniverseSize ids.
  explicit EventSet(unsigned UniverseSize)
      : Universe(UniverseSize), Words((UniverseSize + 63) / 64) {}

  /// Number of ids in the universe (not the cardinality).
  unsigned universeSize() const { return Universe; }

  /// Inserts \p Id.
  void insert(EventId Id) {
    assert(Id < Universe && "event id out of range");
    Words[Id >> 6] |= (uint64_t{1} << (Id & 63));
  }

  /// Removes \p Id.
  void erase(EventId Id) {
    assert(Id < Universe && "event id out of range");
    Words[Id >> 6] &= ~(uint64_t{1} << (Id & 63));
  }

  /// True if \p Id is a member.
  bool contains(EventId Id) const {
    assert(Id < Universe && "event id out of range");
    return (Words[Id >> 6] >> (Id & 63)) & 1;
  }

  /// Cardinality of the set.
  unsigned count() const;

  /// True if no id is a member.
  bool empty() const;

  EventSet &operator|=(const EventSet &Other);
  EventSet &operator&=(const EventSet &Other);
  EventSet &operator-=(const EventSet &Other);

  friend EventSet operator|(EventSet A, const EventSet &B) { return A |= B; }
  friend EventSet operator&(EventSet A, const EventSet &B) { return A &= B; }
  friend EventSet operator-(EventSet A, const EventSet &B) { return A -= B; }

  /// The complement within the universe.
  EventSet complement() const;

  bool operator==(const EventSet &Other) const {
    return Universe == Other.Universe && Words == Other.Words;
  }
  bool operator!=(const EventSet &Other) const { return !(*this == Other); }

  /// Calls \p Fn for each member in increasing id order.
  void forEach(const std::function<void(EventId)> &Fn) const;

  /// Members in increasing id order.
  std::vector<EventId> toVector() const;

  /// Full universe set.
  static EventSet all(unsigned UniverseSize);

private:
  friend class Relation;
  unsigned Universe;
  WordStorage Words;
};

/// A binary relation over event ids 0..N-1 as an adjacency bitset.
/// Row A holds the successors of A: test(A, B) means (A, B) is in the
/// relation.
class Relation {
public:
  Relation() : Size(0), WordsPerRow(0) {}

  /// Creates the empty relation over \p NumEvents ids.
  explicit Relation(unsigned NumEvents)
      : Size(NumEvents), WordsPerRow((NumEvents + 63) / 64),
        Bits(static_cast<size_t>(Size) * WordsPerRow) {}

  /// Universe size.
  unsigned size() const { return Size; }

  /// Adds the pair (\p From, \p To).
  void set(EventId From, EventId To) {
    assert(From < Size && To < Size && "event id out of range");
    row(From)[To >> 6] |= (uint64_t{1} << (To & 63));
  }

  /// Removes the pair (\p From, \p To).
  void clear(EventId From, EventId To) {
    assert(From < Size && To < Size && "event id out of range");
    row(From)[To >> 6] &= ~(uint64_t{1} << (To & 63));
  }

  /// True if (\p From, \p To) is in the relation.
  bool test(EventId From, EventId To) const {
    assert(From < Size && To < Size && "event id out of range");
    return (row(From)[To >> 6] >> (To & 63)) & 1;
  }

  /// Number of pairs.
  unsigned countPairs() const;

  /// True if the relation has no pair.
  bool empty() const;

  Relation &operator|=(const Relation &Other);
  Relation &operator&=(const Relation &Other);
  Relation &operator-=(const Relation &Other);

  friend Relation operator|(Relation A, const Relation &B) { return A |= B; }
  friend Relation operator&(Relation A, const Relation &B) { return A &= B; }
  friend Relation operator-(Relation A, const Relation &B) { return A -= B; }

  bool operator==(const Relation &Other) const {
    return Size == Other.Size && Bits == Other.Bits;
  }
  bool operator!=(const Relation &Other) const { return !(*this == Other); }

  /// Relational composition: (A, C) iff exists B with (A, B) here and
  /// (B, C) in \p Other. Written r1;r2 in the paper.
  Relation compose(const Relation &Other) const;

  /// The inverse relation r^-1.
  Relation inverse() const;

  /// Transitive closure r+.
  Relation transitiveClosure() const;

  /// Reflexive-transitive closure r*.
  Relation reflexiveTransitiveClosure() const;

  /// Keeps only pairs whose source is in \p Domain.
  Relation restrictDomain(const EventSet &Domain) const;

  /// Keeps only pairs whose target is in \p Range.
  Relation restrictRange(const EventSet &Range) const;

  /// Keeps pairs with source in \p Domain and target in \p Range
  /// (the paper's r ∩ XY direction filters, e.g. ppo ∩ RR).
  Relation restrict(const EventSet &Domain, const EventSet &Range) const;

  /// Set of ids with at least one outgoing pair.
  EventSet domain() const;

  /// Set of ids with at least one incoming pair.
  EventSet range() const;

  /// True if no (X, X) pair is present.
  bool isIrreflexive() const;

  /// True if the relation, viewed as a digraph, has no cycle
  /// (i.e. its transitive closure is irreflexive). Bit-parallel sink
  /// peeling; allocation-free up to 64 events.
  bool isAcyclic() const;

  /// All pairs in lexicographic order.
  std::vector<std::pair<EventId, EventId>> pairs() const;

  /// The successors of \p From.
  EventSet successors(EventId From) const;

  /// The identity relation over \p NumEvents ids.
  static Relation identity(unsigned NumEvents);

  /// The full cross product \p Domain x \p Range.
  static Relation cross(const EventSet &Domain, const EventSet &Range);

  /// Relation built from an explicit pair list.
  static Relation fromPairs(unsigned NumEvents,
                            const std::vector<std::pair<EventId, EventId>> &P);

  /// One cycle witness (sequence of ids, first == last) if the relation has
  /// a cycle; empty vector otherwise. Used for diagnostics.
  std::vector<EventId> findCycle() const;

  /// A shortest cycle (sequence of ids, first == last, minimal number of
  /// edges over all cycles) if the relation has one; empty otherwise.
  /// findCycle returns whatever the DFS stumbles on first; witnesses shown
  /// to humans want the minimal loop instead.
  std::vector<EventId> minimalCycle() const;

  /// A shortest edge path From -> ... -> To (BFS), or an empty vector if
  /// To is unreachable. From == To asks for a shortest nonempty loop
  /// through From. The result includes both endpoints.
  std::vector<EventId> shortestPath(EventId From, EventId To) const;

  /// Debug rendering as "{(0,1),(2,3)}".
  std::string toString() const;

private:
  uint64_t *row(EventId Id) {
    return Bits.data() + static_cast<size_t>(Id) * WordsPerRow;
  }
  const uint64_t *row(EventId Id) const {
    return Bits.data() + static_cast<size_t>(Id) * WordsPerRow;
  }

  unsigned Size;
  unsigned WordsPerRow;
  WordStorage Bits;
};

} // namespace cats

#endif // CATS_RELATION_RELATION_H
