//===- Execution.cpp - Candidate executions (E, po, rf, co) ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "event/Execution.h"

#include "obs/Metrics.h"
#include "support/StringUtils.h"

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

Relation Execution::poLoc() const {
  return memo(this, MemoPoLoc, MemoTier::Static,
              [&] { return Po & SameLocation; });
}

Relation Execution::fr() const {
  // fr = rf^-1 ; co : a read r is fr-before any write co-after the write it
  // reads from.
  return memo(this, MemoFr, MemoTier::PerCo,
              [&] { return Rf.inverse().compose(Co); });
}

Relation Execution::com() const {
  return memo(this, MemoCom, MemoTier::PerCo,
              [&] { return Co | Rf | fr(); });
}

Relation Execution::internal(const Relation &R) const {
  return R & SameThread;
}

Relation Execution::external(const Relation &R) const {
  return R - SameThread;
}

Relation Execution::rfe() const {
  return memo(this, MemoRfe, MemoTier::PerRf, [&] { return external(Rf); });
}

Relation Execution::coe() const {
  return memo(this, MemoCoe, MemoTier::PerCo, [&] { return external(Co); });
}

Relation Execution::fre() const {
  return memo(this, MemoFre, MemoTier::PerCo,
              [&] { return external(fr()); });
}

// rdw and detour read co, but both are intersections with po-loc: when
// po-loc is empty they are empty under every rf and co, so they live as
// long as po-loc does. That is the common case for the diy critical-cycle
// corpora, where it keeps the hardware-model ppo fixpoint per-rf instead
// of per-candidate.

Relation Execution::rdw() const {
  return memo(this, MemoRdw,
              poLoc().empty() ? MemoTier::Static : MemoTier::PerCo,
              [&] { return poLoc() & fre().compose(rfe()); });
}

Relation Execution::detour() const {
  return memo(this, MemoDetour,
              poLoc().empty() ? MemoTier::Static : MemoTier::PerCo,
              [&] { return poLoc() & coe().compose(rfe()); });
}

Relation Execution::comStar() const {
  return memo(this, MemoComStar, MemoTier::PerCo,
              [&] { return com().reflexiveTransitiveClosure(); });
}

void Execution::enableDerivedCache() const {
  if (MemoEnabled)
    return;
  MemoEnabled = true;
  // Room for the own entries plus the model-tagged ones of a full model
  // set, so judging a candidate does not regrow the table.
  MemoKeys.reserve(NumOwnSlots + 48);
  MemoRels.reserve(NumOwnSlots + 48);
  MemoKeys.resize(NumOwnSlots);
  MemoRels.resize(NumOwnSlots);
}

size_t Execution::modelEntry(const void *Tag, unsigned Slot) const {
  // Static instrument handles: resolved once, then each tick is a sharded
  // relaxed add — cheap enough for this per-candidate path.
  static obs::Counter &Hits = obs::counter("memo.model_hits");
  static obs::Counter &Misses = obs::counter("memo.model_misses");
  size_t I = NumOwnSlots;
  while (I < MemoKeys.size() &&
         (MemoKeys[I].Tag != Tag || MemoKeys[I].Slot != Slot))
    ++I;
  if (I == MemoKeys.size()) {
    MemoKeys.push_back({Tag, Slot, MemoTier::Static, false});
    MemoRels.emplace_back();
  }
  if (obs::metricsEnabled())
    (MemoKeys[I].Valid ? Hits : Misses).add(1);
  return I;
}

void Execution::invalidateDerived(MemoTier Floor) const {
  for (MemoKey &K : MemoKeys)
    if (K.Tier >= Floor)
      K.Valid = false;
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
