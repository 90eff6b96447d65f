//===- Execution.cpp - Candidate executions (E, po, rf, co) ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "event/Execution.h"

#include "obs/Metrics.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace cats;

std::string Event::toString(const std::vector<std::string> &LocNames) const {
  std::string LocName = Loc >= 0 && Loc < static_cast<int>(LocNames.size())
                            ? LocNames[Loc]
                            : strFormat("loc%d", Loc);
  char KindChar = isRead() ? 'R' : 'W';
  std::string Who = Thread == InitThread
                        ? std::string("init")
                        : strFormat("T%d", Thread);
  return strFormat("e%u[%s]: %c%s=%lld", Id, Who.c_str(), KindChar,
                   LocName.c_str(), static_cast<long long>(Val));
}

EventId Execution::addEvent(Event E) {
  E.Id = static_cast<EventId>(Events.size());
  Events.push_back(E);
  return E.Id;
}

Location Execution::internLocation(const std::string &Name) {
  auto It = LocationIds.find(Name);
  if (It != LocationIds.end())
    return It->second;
  Location Id = static_cast<Location>(LocationNames.size());
  LocationNames.push_back(Name);
  LocationIds.emplace(Name, Id);
  return Id;
}

void Execution::finalizeStructure(unsigned NumThreadsIn) {
  NumThreads = NumThreadsIn;
  unsigned N = numEvents();
  Po = Relation(N);
  Addr = Relation(N);
  Data = Relation(N);
  Ctrl = Relation(N);
  CtrlCfence = Relation(N);
  Rf = Relation(N);
  Co = Relation(N);

  // po: per-thread total order following insertion order.
  for (ThreadId T = 0; T < static_cast<ThreadId>(NumThreads); ++T) {
    std::vector<EventId> Thread = threadEvents(T);
    for (size_t I = 0; I < Thread.size(); ++I)
      for (size_t J = I + 1; J < Thread.size(); ++J)
        Po.set(Thread[I], Thread[J]);
  }

  // The masks behind the internal/external splits and po-loc, built once
  // so those derived relations are one word operation per row.
  SameThread = Relation(N);
  SameLocation = Relation(N);
  for (EventId A = 0; A < N; ++A)
    for (EventId B = 0; B < N; ++B) {
      if (Events[A].Thread != InitThread &&
          Events[A].Thread == Events[B].Thread)
        SameThread.set(A, B);
      if (Events[A].Loc == Events[B].Loc)
        SameLocation.set(A, B);
    }
}

Relation Execution::fenceRelation(const std::string &Name) const {
  auto It = Fences.find(Name);
  if (It != Fences.end())
    return It->second;
  return Relation(numEvents());
}

EventSet Execution::reads() const {
  EventSet Out(numEvents());
  for (const Event &E : Events)
    if (E.isRead())
      Out.insert(E.Id);
  return Out;
}

EventSet Execution::writes() const {
  EventSet Out(numEvents());
  for (const Event &E : Events)
    if (E.isWrite())
      Out.insert(E.Id);
  return Out;
}

EventSet Execution::initWrites() const {
  EventSet Out(numEvents());
  for (const Event &E : Events)
    if (E.IsInit)
      Out.insert(E.Id);
  return Out;
}

EventSet Execution::memoryEvents() const { return EventSet::all(numEvents()); }

std::vector<EventId> Execution::threadEvents(ThreadId Thread) const {
  std::vector<EventId> Out;
  for (const Event &E : Events)
    if (E.Thread == Thread)
      Out.push_back(E.Id);
  return Out;
}

std::vector<EventId> Execution::writesTo(Location Loc) const {
  std::vector<EventId> Out;
  for (const Event &E : Events)
    if (E.isWrite() && E.Loc == Loc)
      Out.push_back(E.Id);
  return Out;
}

int Execution::initWriteOf(Location Loc) const {
  for (const Event &E : Events)
    if (E.IsInit && E.Loc == Loc)
      return static_cast<int>(E.Id);
  return -1;
}

namespace {

/// Memoizes \p Compute into \p Slot when \p Enabled; transparent otherwise.
template <typename ComputeFn>
Relation memoized(bool Enabled, std::optional<Relation> &Slot,
                  const ComputeFn &Compute) {
  if (Enabled && Slot)
    return *Slot;
  Relation R = Compute();
  if (Enabled)
    Slot = R;
  return R;
}

} // namespace

Relation Execution::poLoc() const {
  return memoized(DerivedCacheEnabled, Cache.PoLoc,
                  [&] { return Po & SameLocation; });
}

Relation Execution::fr() const {
  // fr = rf^-1 ; co : a read r is fr-before any write co-after the write it
  // reads from.
  return memoized(DerivedCacheEnabled, Cache.Fr,
                  [&] { return Rf.inverse().compose(Co); });
}

Relation Execution::com() const {
  return memoized(DerivedCacheEnabled, Cache.Com,
                  [&] { return Co | Rf | fr(); });
}

Relation Execution::internal(const Relation &R) const {
  return R & SameThread;
}

Relation Execution::external(const Relation &R) const {
  return R - SameThread;
}

Relation Execution::rfe() const {
  return memoized(DerivedCacheEnabled, Cache.Rfe,
                  [&] { return external(Rf); });
}

Relation Execution::coe() const {
  return memoized(DerivedCacheEnabled, Cache.Coe,
                  [&] { return external(Co); });
}

Relation Execution::fre() const {
  return memoized(DerivedCacheEnabled, Cache.Fre,
                  [&] { return external(fr()); });
}

Relation Execution::rdw() const {
  return memoized(DerivedCacheEnabled, Cache.Rdw,
                  [&] { return poLoc() & fre().compose(rfe()); });
}

Relation Execution::detour() const {
  return memoized(DerivedCacheEnabled, Cache.Detour,
                  [&] { return poLoc() & coe().compose(rfe()); });
}

Relation Execution::comStar() const {
  return memoized(DerivedCacheEnabled, Cache.ComStar,
                  [&] { return com().reflexiveTransitiveClosure(); });
}

Relation Execution::modelMemo(
    const void *Tag, unsigned Slot, MemoTier Tier,
    const std::function<Relation()> &Compute) const {
  if (!DerivedCacheEnabled)
    return Compute();
  // Static instrument handles: resolved once, then each tick is a sharded
  // relaxed add — cheap enough for this per-candidate path.
  static obs::Counter &Hits = obs::counter("memo.model_hits");
  static obs::Counter &Misses = obs::counter("memo.model_misses");
  for (const ModelCacheEntry &E : ModelCache)
    if (E.Tag == Tag && E.Slot == Slot) {
      if (obs::metricsEnabled())
        Hits.add(1);
      return E.Rel;
    }
  if (obs::metricsEnabled())
    Misses.add(1);
  Relation R = Compute();
  if (ModelCache.empty())
    ModelCache.reserve(48);
  ModelCache.push_back(ModelCacheEntry{Tag, Slot, Tier, R});
  return R;
}

void Execution::invalidateDerived(MemoTier Floor) const {
  if (Floor == MemoTier::Static) {
    Cache = DerivedCache();
    ModelCache.clear();
    return;
  }
  if (Floor == MemoTier::PerRf)
    Cache.Rfe.reset();
  // Co-dependent named slots go at either floor (a new rf also starts a
  // fresh co walk). rdw and detour are formally co-dependent, but both are
  // intersections with po-loc: when the memoized po-loc is empty they are
  // empty under every rf/co and can survive — the common case for the diy
  // critical-cycle corpora, where it keeps the hardware-model ppo fixpoint
  // per-rf instead of per-candidate.
  Cache.Fr.reset();
  Cache.Com.reset();
  Cache.Coe.reset();
  Cache.Fre.reset();
  Cache.ComStar.reset();
  if (!(Cache.PoLoc && Cache.PoLoc->empty())) {
    Cache.Rdw.reset();
    Cache.Detour.reset();
  }
  ModelCache.erase(std::remove_if(ModelCache.begin(), ModelCache.end(),
                                  [Floor](const ModelCacheEntry &E) {
                                    return E.Tier >= Floor;
                                  }),
                   ModelCache.end());
}

std::string Execution::toString() const {
  std::string Out;
  for (const Event &E : Events) {
    Out += E.toString(LocationNames);
    Out += "\n";
  }
  auto Dump = [&](const char *Name, const Relation &R) {
    if (R.empty())
      return;
    Out += Name;
    Out += ": ";
    Out += R.toString();
    Out += "\n";
  };
  Dump("po", Po);
  Dump("rf", Rf);
  Dump("co", Co);
  Dump("fr", fr());
  Dump("addr", Addr);
  Dump("data", Data);
  Dump("ctrl", Ctrl);
  Dump("ctrl+cfence", CtrlCfence);
  for (const auto &[Name, R] : Fences)
    Dump(Name.c_str(), R);
  return Out;
}
