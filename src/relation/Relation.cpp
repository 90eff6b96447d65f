//===- Relation.cpp - Dense relation algebra over event ids ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "relation/Relation.h"

#include "support/StringUtils.h"

#include "support/Bits.h"

using namespace cats;

//===----------------------------------------------------------------------===//
// EventSet
//===----------------------------------------------------------------------===//

unsigned EventSet::count() const {
  unsigned Total = 0;
  for (uint64_t Word : Words)
    Total += popcount(Word);
  return Total;
}

bool EventSet::empty() const {
  for (uint64_t Word : Words)
    if (Word)
      return false;
  return true;
}

EventSet &EventSet::operator|=(const EventSet &Other) {
  assert(Universe == Other.Universe && "universe mismatch");
  for (size_t I = 0; I < Words.size(); ++I)
    Words[I] |= Other.Words[I];
  return *this;
}

EventSet &EventSet::operator&=(const EventSet &Other) {
  assert(Universe == Other.Universe && "universe mismatch");
  for (size_t I = 0; I < Words.size(); ++I)
    Words[I] &= Other.Words[I];
  return *this;
}

EventSet &EventSet::operator-=(const EventSet &Other) {
  assert(Universe == Other.Universe && "universe mismatch");
  for (size_t I = 0; I < Words.size(); ++I)
    Words[I] &= ~Other.Words[I];
  return *this;
}

EventSet EventSet::complement() const {
  EventSet Out(Universe);
  for (size_t I = 0; I < Words.size(); ++I)
    Out.Words[I] = ~Words[I];
  // Mask out the bits beyond the universe in the last word.
  if (Universe % 64 != 0 && !Out.Words.empty())
    Out.Words.back() &= (uint64_t{1} << (Universe % 64)) - 1;
  return Out;
}

void EventSet::forEach(const std::function<void(EventId)> &Fn) const {
  for (size_t WordIdx = 0; WordIdx < Words.size(); ++WordIdx) {
    uint64_t Word = Words[WordIdx];
    while (Word) {
      unsigned Bit = countrZero(Word);
      Fn(static_cast<EventId>(WordIdx * 64 + Bit));
      Word &= Word - 1;
    }
  }
}

std::vector<EventId> EventSet::toVector() const {
  std::vector<EventId> Out;
  forEach([&Out](EventId Id) { Out.push_back(Id); });
  return Out;
}

EventSet EventSet::all(unsigned UniverseSize) {
  EventSet Out(UniverseSize);
  for (EventId Id = 0; Id < UniverseSize; ++Id)
    Out.insert(Id);
  return Out;
}

//===----------------------------------------------------------------------===//
// Relation
//===----------------------------------------------------------------------===//

unsigned Relation::countPairs() const {
  unsigned Total = 0;
  for (uint64_t Word : Bits)
    Total += popcount(Word);
  return Total;
}

bool Relation::empty() const {
  for (uint64_t Word : Bits)
    if (Word)
      return false;
  return true;
}

Relation &Relation::operator|=(const Relation &Other) {
  assert(Size == Other.Size && "universe mismatch");
  for (size_t I = 0; I < Bits.size(); ++I)
    Bits[I] |= Other.Bits[I];
  return *this;
}

Relation &Relation::operator&=(const Relation &Other) {
  assert(Size == Other.Size && "universe mismatch");
  for (size_t I = 0; I < Bits.size(); ++I)
    Bits[I] &= Other.Bits[I];
  return *this;
}

Relation &Relation::operator-=(const Relation &Other) {
  assert(Size == Other.Size && "universe mismatch");
  for (size_t I = 0; I < Bits.size(); ++I)
    Bits[I] &= ~Other.Bits[I];
  return *this;
}

Relation Relation::compose(const Relation &Other) const {
  assert(Size == Other.Size && "universe mismatch");
  Relation Out(Size);
  for (EventId From = 0; From < Size; ++From) {
    uint64_t *OutRow = Out.row(From);
    const uint64_t *MidRow = row(From);
    for (unsigned WordIdx = 0; WordIdx < WordsPerRow; ++WordIdx) {
      uint64_t Word = MidRow[WordIdx];
      while (Word) {
        unsigned Bit = countrZero(Word);
        EventId Mid = static_cast<EventId>(WordIdx * 64 + Bit);
        const uint64_t *SrcRow = Other.row(Mid);
        for (unsigned K = 0; K < WordsPerRow; ++K)
          OutRow[K] |= SrcRow[K];
        Word &= Word - 1;
      }
    }
  }
  return Out;
}

Relation Relation::inverse() const {
  Relation Out(Size);
  for (EventId From = 0; From < Size; ++From) {
    const uint64_t *SrcRow = row(From);
    for (unsigned WordIdx = 0; WordIdx < WordsPerRow; ++WordIdx) {
      uint64_t Word = SrcRow[WordIdx];
      while (Word) {
        unsigned Bit = countrZero(Word);
        Out.set(static_cast<EventId>(WordIdx * 64 + Bit), From);
        Word &= Word - 1;
      }
    }
  }
  return Out;
}

Relation Relation::transitiveClosure() const {
  // Warshall with word-parallel row unions: if (I, K) then row(I) |= row(K).
  Relation Out = *this;
  // Buffer for the via row, hoisted out of the loop (heap only for
  // universes too wide for the inline capacity).
  WordStorage ViaCopy(WordsPerRow);
  for (EventId Via = 0; Via < Size; ++Via) {
    // Copy the via row since row(I) may alias it when I == Via.
    std::memcpy(ViaCopy.data(), Out.row(Via),
                WordsPerRow * sizeof(uint64_t));
    for (EventId From = 0; From < Size; ++From) {
      if (!Out.test(From, Via))
        continue;
      uint64_t *FromRow = Out.row(From);
      for (unsigned K = 0; K < WordsPerRow; ++K)
        FromRow[K] |= ViaCopy[K];
    }
  }
  return Out;
}

Relation Relation::reflexiveTransitiveClosure() const {
  return transitiveClosure() | identity(Size);
}

Relation Relation::restrictDomain(const EventSet &Domain) const {
  assert(Domain.universeSize() == Size && "universe mismatch");
  Relation Out(Size);
  for (EventId From = 0; From < Size; ++From) {
    if (!Domain.contains(From))
      continue;
    const uint64_t *SrcRow = row(From);
    uint64_t *DstRow = Out.row(From);
    for (unsigned K = 0; K < WordsPerRow; ++K)
      DstRow[K] = SrcRow[K];
  }
  return Out;
}

Relation Relation::restrictRange(const EventSet &Range) const {
  assert(Range.universeSize() == Size && "universe mismatch");
  Relation Out = *this;
  for (EventId From = 0; From < Size; ++From) {
    uint64_t *DstRow = Out.row(From);
    for (unsigned K = 0; K < WordsPerRow; ++K)
      DstRow[K] &= Range.Words[K];
  }
  return Out;
}

Relation Relation::restrict(const EventSet &Domain,
                            const EventSet &Range) const {
  return restrictDomain(Domain).restrictRange(Range);
}

EventSet Relation::domain() const {
  EventSet Out(Size);
  for (EventId From = 0; From < Size; ++From) {
    const uint64_t *SrcRow = row(From);
    for (unsigned K = 0; K < WordsPerRow; ++K)
      if (SrcRow[K]) {
        Out.insert(From);
        break;
      }
  }
  return Out;
}

EventSet Relation::range() const {
  EventSet Out(Size);
  for (EventId From = 0; From < Size; ++From) {
    const uint64_t *SrcRow = row(From);
    for (unsigned K = 0; K < WordsPerRow; ++K)
      Out.Words[K] |= SrcRow[K];
  }
  return Out;
}

bool Relation::isIrreflexive() const {
  for (EventId Id = 0; Id < Size; ++Id)
    if (test(Id, Id))
      return false;
  return true;
}

bool Relation::isAcyclic() const {
  // Sink peeling: a node with no successor left alive lies on no cycle and
  // is removed; the relation is acyclic iff peeling removes every node. A
  // node is a sink when its row shares no bit with the alive mask, one AND
  // per row word. Each pass visits the alive nodes in descending id order
  // and removes sinks on the spot, so a chain of edges towards higher ids
  // (po, and most of com in enumeration order) drains in a single pass. A
  // pass that removes nothing leaves only nodes with an alive successor:
  // a cycle.
  if (WordsPerRow == 1) {
    // Up to 64 events: the whole alive set is one word; no allocation.
    const uint64_t *Rows = Bits.data();
    uint64_t Alive = Size == 64 ? ~uint64_t{0} : (uint64_t{1} << Size) - 1;
    while (Alive) {
      const uint64_t Before = Alive;
      for (uint64_t Scan = Alive; Scan;) {
        const unsigned Node = 63 - countlZero(Scan);
        Scan &= ~(uint64_t{1} << Node);
        if (!(Rows[Node] & Alive))
          Alive &= ~(uint64_t{1} << Node);
      }
      if (Alive == Before)
        return false;
    }
    return true;
  }
  // Wider universes (the multi-event expansion): the same peeling over a
  // multi-word alive set, inline up to WordStorage's capacity.
  WordStorage Alive(WordsPerRow);
  for (EventId Id = 0; Id < Size; ++Id)
    Alive[Id >> 6] |= uint64_t{1} << (Id & 63);
  bool Remaining = Size != 0;
  while (Remaining) {
    bool Removed = false;
    Remaining = false;
    for (unsigned W = WordsPerRow; W-- > 0;) {
      for (uint64_t Scan = Alive[W]; Scan;) {
        const unsigned Bit = 63 - countlZero(Scan);
        Scan &= ~(uint64_t{1} << Bit);
        const uint64_t *R = row(static_cast<EventId>(W * 64 + Bit));
        bool Sink = true;
        for (unsigned K = 0; K < WordsPerRow && Sink; ++K)
          Sink = !(R[K] & Alive[K]);
        if (Sink) {
          Alive[W] &= ~(uint64_t{1} << Bit);
          Removed = true;
        }
      }
      Remaining |= Alive[W] != 0;
    }
    if (Remaining && !Removed)
      return false;
  }
  return true;
}

std::vector<std::pair<EventId, EventId>> Relation::pairs() const {
  std::vector<std::pair<EventId, EventId>> Out;
  for (EventId From = 0; From < Size; ++From) {
    const uint64_t *SrcRow = row(From);
    for (unsigned WordIdx = 0; WordIdx < WordsPerRow; ++WordIdx) {
      uint64_t Word = SrcRow[WordIdx];
      while (Word) {
        unsigned Bit = countrZero(Word);
        Out.push_back({From, static_cast<EventId>(WordIdx * 64 + Bit)});
        Word &= Word - 1;
      }
    }
  }
  return Out;
}

EventSet Relation::successors(EventId From) const {
  EventSet Out(Size);
  const uint64_t *SrcRow = row(From);
  for (unsigned K = 0; K < WordsPerRow; ++K)
    Out.Words[K] = SrcRow[K];
  return Out;
}

Relation Relation::identity(unsigned NumEvents) {
  Relation Out(NumEvents);
  for (EventId Id = 0; Id < NumEvents; ++Id)
    Out.set(Id, Id);
  return Out;
}

Relation Relation::cross(const EventSet &Domain, const EventSet &Range) {
  assert(Domain.universeSize() == Range.universeSize() &&
         "universe mismatch");
  Relation Out(Domain.universeSize());
  Domain.forEach([&](EventId From) {
    uint64_t *DstRow = Out.row(From);
    for (size_t K = 0; K < Range.Words.size(); ++K)
      DstRow[K] = Range.Words[K];
  });
  return Out;
}

Relation
Relation::fromPairs(unsigned NumEvents,
                    const std::vector<std::pair<EventId, EventId>> &P) {
  Relation Out(NumEvents);
  for (auto [From, To] : P)
    Out.set(From, To);
  return Out;
}

std::vector<EventId> Relation::findCycle() const {
  // DFS; when a grey node is re-entered, unwind the stack to produce the
  // cycle witness.
  enum Colour : uint8_t { White, Grey, Black };
  std::vector<uint8_t> Colours(Size, White);
  std::vector<EventId> Path;

  std::function<std::vector<EventId>(EventId)> Visit =
      [&](EventId Node) -> std::vector<EventId> {
    Colours[Node] = Grey;
    Path.push_back(Node);
    for (EventId To = 0; To < Size; ++To) {
      if (!test(Node, To))
        continue;
      if (Colours[To] == Grey) {
        // Found a back edge: slice the path from To onwards.
        std::vector<EventId> Cycle;
        size_t Start = 0;
        while (Path[Start] != To)
          ++Start;
        for (size_t I = Start; I < Path.size(); ++I)
          Cycle.push_back(Path[I]);
        Cycle.push_back(To);
        return Cycle;
      }
      if (Colours[To] == White) {
        auto Cycle = Visit(To);
        if (!Cycle.empty())
          return Cycle;
      }
    }
    Colours[Node] = Black;
    Path.pop_back();
    return {};
  };

  for (EventId Root = 0; Root < Size; ++Root) {
    if (Colours[Root] != White)
      continue;
    auto Cycle = Visit(Root);
    if (!Cycle.empty())
      return Cycle;
  }
  return {};
}

std::vector<EventId> Relation::shortestPath(EventId From, EventId To) const {
  assert(From < Size && To < Size && "event id out of range");
  // Plain BFS over the adjacency bitset. To support From == To (shortest
  // nonempty loop) the start node is *not* marked visited up front; it is
  // only closed once expanded, so the search may come back around to it.
  constexpr EventId NoParent = ~EventId{0};
  std::vector<EventId> Parent(Size, NoParent);
  std::vector<uint8_t> Seen(Size, 0);
  std::vector<EventId> Queue;
  Queue.push_back(From);
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    const EventId Node = Queue[Head];
    for (EventId Succ = 0; Succ < Size; ++Succ) {
      if (!test(Node, Succ))
        continue;
      if (Succ == To) {
        std::vector<EventId> Path;
        Path.push_back(To);
        for (EventId Walk = Node;; Walk = Parent[Walk]) {
          Path.push_back(Walk);
          if (Walk == From)
            break;
        }
        std::reverse(Path.begin(), Path.end());
        return Path;
      }
      if (!Seen[Succ]) {
        Seen[Succ] = 1;
        Parent[Succ] = Node;
        Queue.push_back(Succ);
      }
    }
  }
  return {};
}

std::vector<EventId> Relation::minimalCycle() const {
  // A shortest cycle is a shortest nonempty loop through one of its nodes,
  // so one BFS per node suffices. Litmus universes are tiny; O(N * N^2)
  // is nothing next to the enumeration that produced the relation.
  std::vector<EventId> Best;
  for (EventId Node = 0; Node < Size; ++Node) {
    std::vector<EventId> Loop = shortestPath(Node, Node);
    if (Loop.empty())
      continue;
    if (Best.empty() || Loop.size() < Best.size())
      Best = std::move(Loop);
    if (Best.size() == 2) // self-loop; cannot do better
      break;
  }
  return Best;
}

std::string Relation::toString() const {
  std::string Out = "{";
  bool First = true;
  for (auto [From, To] : pairs()) {
    if (!First)
      Out += ",";
    First = false;
    Out += strFormat("(%u,%u)", From, To);
  }
  Out += "}";
  return Out;
}
