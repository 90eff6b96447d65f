//===- event.cpp - Tests for executions and derived relations --------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "event/Execution.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cats;

namespace {

/// Builds the canonical message-passing execution of Fig. 4:
///   T0: a: Wx=1 ; b: Wy=1        T1: c: Ry=1 ; d: Rx=0
/// with rf = {(b,c), (ix,d)} and co per location init-before-update.
struct MpFixture {
  Execution Exe;
  EventId Ix, Iy, A, B, C, D;

  MpFixture() {
    Location X = Exe.internLocation("x");
    Location Y = Exe.internLocation("y");
    Ix = Exe.addEvent({.Thread = InitThread,
                       .Kind = EventKind::Write,
                       .Loc = X,
                       .Val = 0,
                       .IsInit = true});
    Iy = Exe.addEvent({.Thread = InitThread,
                       .Kind = EventKind::Write,
                       .Loc = Y,
                       .Val = 0,
                       .IsInit = true});
    A = Exe.addEvent(
        {.Thread = 0, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
         .Val = 1});
    B = Exe.addEvent(
        {.Thread = 0, .InstrIndex = 1, .Kind = EventKind::Write, .Loc = Y,
         .Val = 1});
    C = Exe.addEvent(
        {.Thread = 1, .InstrIndex = 0, .Kind = EventKind::Read, .Loc = Y,
         .Val = 1});
    D = Exe.addEvent(
        {.Thread = 1, .InstrIndex = 1, .Kind = EventKind::Read, .Loc = X,
         .Val = 0});
    Exe.finalizeStructure(2);
    Exe.Rf.set(B, C);
    Exe.Rf.set(Ix, D);
    Exe.Co.set(Ix, A);
    Exe.Co.set(Iy, B);
  }
};

} // namespace

TEST(Execution, ProgramOrderPerThread) {
  MpFixture F;
  EXPECT_TRUE(F.Exe.Po.test(F.A, F.B));
  EXPECT_TRUE(F.Exe.Po.test(F.C, F.D));
  EXPECT_FALSE(F.Exe.Po.test(F.B, F.A));
  // No po across threads, none involving init writes.
  EXPECT_FALSE(F.Exe.Po.test(F.A, F.C));
  EXPECT_FALSE(F.Exe.Po.test(F.Ix, F.A));
}

TEST(Execution, EventSets) {
  MpFixture F;
  EXPECT_EQ(F.Exe.reads().count(), 2u);
  EXPECT_EQ(F.Exe.writes().count(), 4u);
  EXPECT_EQ(F.Exe.initWrites().count(), 2u);
  EXPECT_TRUE(F.Exe.reads().contains(F.C));
  EXPECT_TRUE(F.Exe.writes().contains(F.Ix));
}

TEST(Execution, FromReadDerivation) {
  MpFixture F;
  // d reads from init x, which is co-before a => (d, a) in fr.
  Relation Fr = F.Exe.fr();
  EXPECT_TRUE(Fr.test(F.D, F.A));
  EXPECT_EQ(Fr.countPairs(), 1u);
}

TEST(Execution, CommunicationsUnion) {
  MpFixture F;
  Relation Com = F.Exe.com();
  EXPECT_TRUE(Com.test(F.B, F.C));  // rf
  EXPECT_TRUE(Com.test(F.Ix, F.A)); // co
  EXPECT_TRUE(Com.test(F.D, F.A));  // fr
}

TEST(Execution, InternalExternalSplit) {
  MpFixture F;
  // rf(b, c) crosses threads => external.
  EXPECT_TRUE(F.Exe.rfe().test(F.B, F.C));
  EXPECT_TRUE(F.Exe.rfi().empty());
  // Init writes count as external sources.
  EXPECT_TRUE(F.Exe.rfe().test(F.Ix, F.D));
  EXPECT_TRUE(F.Exe.fre().test(F.D, F.A));
}

TEST(Execution, PoLocOnlySameLocation) {
  MpFixture F;
  // a:Wx, b:Wy touch different locations: po-loc empty on T0.
  EXPECT_TRUE(F.Exe.poLoc().empty());
}

TEST(Execution, PoLocDetectsSameLocation) {
  Execution Exe;
  Location X = Exe.internLocation("x");
  EventId E0 = Exe.addEvent(
      {.Thread = 0, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
       .Val = 1});
  EventId E1 = Exe.addEvent(
      {.Thread = 0, .InstrIndex = 1, .Kind = EventKind::Read, .Loc = X,
       .Val = 1});
  Exe.finalizeStructure(1);
  EXPECT_TRUE(Exe.poLoc().test(E0, E1));
}

TEST(Execution, InternLocationIsIdempotent) {
  Execution Exe;
  Location X1 = Exe.internLocation("x");
  Location X2 = Exe.internLocation("x");
  Location Y = Exe.internLocation("y");
  EXPECT_EQ(X1, X2);
  EXPECT_NE(X1, Y);
  EXPECT_EQ(Exe.LocationNames.size(), 2u);
}

TEST(Execution, WritesToAndInitLookup) {
  MpFixture F;
  auto WritesX = F.Exe.writesTo(0);
  ASSERT_EQ(WritesX.size(), 2u);
  EXPECT_EQ(F.Exe.initWriteOf(0), static_cast<int>(F.Ix));
  EXPECT_EQ(F.Exe.initWriteOf(1), static_cast<int>(F.Iy));
}

namespace {

/// Fig. 27: T0: a: Wx=2. T1: b: Rx=0 (from the initial write), then c:
/// Rx=2 (from a). b and c form a po-loc pair.
struct RdwFixture {
  Execution Exe;
  EventId Init, A, B, C;

  RdwFixture() {
    Location X = Exe.internLocation("x");
    Init = Exe.addEvent({.Thread = InitThread,
                         .Kind = EventKind::Write,
                         .Loc = X,
                         .Val = 0,
                         .IsInit = true});
    A = Exe.addEvent(
        {.Thread = 0, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
         .Val = 2});
    B = Exe.addEvent(
        {.Thread = 1, .InstrIndex = 0, .Kind = EventKind::Read, .Loc = X,
         .Val = 0});
    C = Exe.addEvent(
        {.Thread = 1, .InstrIndex = 1, .Kind = EventKind::Read, .Loc = X,
         .Val = 2});
    Exe.finalizeStructure(2);
    Exe.Rf.set(Init, B);
    Exe.Rf.set(A, C);
    Exe.Co.set(Init, A);
  }
};

/// Fig. 28: T0: b: Wx=1 then c: Rx=2; T1: a: Wx=2, with b co-before a.
/// b and c form a po-loc pair.
struct DetourFixture {
  Execution Exe;
  EventId Init, A, B, C;

  DetourFixture() {
    Location X = Exe.internLocation("x");
    Init = Exe.addEvent({.Thread = InitThread,
                         .Kind = EventKind::Write,
                         .Loc = X,
                         .Val = 0,
                         .IsInit = true});
    B = Exe.addEvent(
        {.Thread = 0, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
         .Val = 1});
    C = Exe.addEvent(
        {.Thread = 0, .InstrIndex = 1, .Kind = EventKind::Read, .Loc = X,
         .Val = 2});
    A = Exe.addEvent(
        {.Thread = 1, .InstrIndex = 0, .Kind = EventKind::Write, .Loc = X,
         .Val = 2});
    Exe.finalizeStructure(2);
    Exe.Rf.set(A, C);
    Exe.Co.set(Init, B);
    Exe.Co.set(B, A);
    Exe.Co.set(Init, A);
  }
};

} // namespace

TEST(Execution, RdwRelation) {
  // b fr-before a (external), c reads a externally, b po-loc-before c.
  RdwFixture F;
  EXPECT_TRUE(F.Exe.rdw().test(F.B, F.C));
}

TEST(Execution, DetourRelation) {
  // b coe-before a, a rfe-before c, b po-loc-before c.
  DetourFixture F;
  EXPECT_TRUE(F.Exe.detour().test(F.B, F.C));
}

TEST(Execution, FenceRelationLookupMissing) {
  MpFixture F;
  EXPECT_TRUE(F.Exe.fenceRelation("sync").empty());
}

TEST(Event, ToStringRendersPaperStyle) {
  MpFixture F;
  std::string S = F.Exe.event(F.A).toString(F.Exe.LocationNames);
  EXPECT_NE(S.find("Wx=1"), std::string::npos);
  EXPECT_NE(S.find("T0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The memo
//===----------------------------------------------------------------------===//

namespace {

/// A relation over \p N events holding the one pair (From, To).
Relation pairRelation(unsigned N, EventId From, EventId To) {
  Relation R(N);
  R.set(From, To);
  return R;
}

} // namespace

TEST(ExecutionMemo, ComputesOnce) {
  MpFixture F;
  F.Exe.enableDerivedCache();
  static const char Tag = 0;
  unsigned Calls = 0;
  auto Compute = [&] {
    ++Calls;
    return F.Exe.Po;
  };
  EXPECT_EQ(F.Exe.memo(&Tag, 0, MemoTier::PerCo, Compute).toString(),
            F.Exe.Po.toString());
  EXPECT_EQ(F.Exe.memo(&Tag, 0, MemoTier::PerCo, Compute).toString(),
            F.Exe.Po.toString());
  EXPECT_EQ(Calls, 1u);
}

TEST(ExecutionMemo, EachFloorDropsItsTierAndTheMoreVolatileOnes) {
  MpFixture F;
  F.Exe.enableDerivedCache();
  static const char Tag = 0;
  const MemoTier Tiers[] = {MemoTier::Static, MemoTier::PerRf,
                            MemoTier::PerCo};
  unsigned Calls[3] = {0, 0, 0};
  auto FillAll = [&] {
    for (MemoTier T : Tiers) {
      const unsigned Slot = static_cast<unsigned>(T);
      F.Exe.memo(&Tag, Slot, T, [&] {
        ++Calls[Slot];
        return F.Exe.Po;
      });
    }
    return std::vector<unsigned>(Calls, Calls + 3);
  };
  using V = std::vector<unsigned>;
  EXPECT_EQ(FillAll(), (V{1, 1, 1}));
  EXPECT_EQ(FillAll(), (V{1, 1, 1}));
  // The PerCo floor keeps Static and PerRf entries.
  F.Exe.invalidateDerived(MemoTier::PerCo);
  EXPECT_EQ(FillAll(), (V{1, 1, 2}));
  // The PerRf floor keeps Static entries only.
  F.Exe.invalidateDerived(MemoTier::PerRf);
  EXPECT_EQ(FillAll(), (V{1, 2, 3}));
  // The Static floor drops every entry.
  F.Exe.invalidateDerived(MemoTier::Static);
  EXPECT_EQ(FillAll(), (V{2, 3, 4}));
}

TEST(ExecutionMemo, TagsWithOneSlotDoNotCollide) {
  MpFixture F;
  F.Exe.enableDerivedCache();
  static const char TagA = 0, TagB = 0;
  const unsigned N = F.Exe.numEvents();
  const Relation RA = pairRelation(N, F.A, F.B);
  const Relation RB = pairRelation(N, F.C, F.D);
  EXPECT_EQ(F.Exe.memo(&TagA, 0, MemoTier::PerCo, [&] { return RA; })
                .toString(),
            RA.toString());
  EXPECT_EQ(F.Exe.memo(&TagB, 0, MemoTier::PerCo, [&] { return RB; })
                .toString(),
            RB.toString());
  // Hits: each tag keeps its own entry.
  EXPECT_EQ(F.Exe.memo(&TagA, 0, MemoTier::PerCo, [&] { return RB; })
                .toString(),
            RA.toString());
  EXPECT_EQ(F.Exe.memo(&TagB, 0, MemoTier::PerCo, [&] { return RA; })
                .toString(),
            RB.toString());
  // Nor do they collide with the execution's own slot 0, po-loc.
  EXPECT_TRUE(F.Exe.poLoc().empty());
}

TEST(ExecutionMemo, NestedCallsAppendWhileTheOuterEntryIsPending) {
  MpFixture F;
  F.Exe.enableDerivedCache();
  static const char Outer = 0, Inner = 0;
  const unsigned N = F.Exe.numEvents();
  // More inner entries than the table reserves, so it moves while the
  // outer compute runs.
  const unsigned NumInner = 100;
  auto InnerRel = [&](unsigned Slot) {
    return pairRelation(N, Slot % N, (Slot / N) % N);
  };
  const Relation OuterRel = pairRelation(N, F.A, F.D);
  unsigned OuterCalls = 0, InnerCalls = 0;
  auto Judge = [&] {
    return F.Exe.memo(&Outer, 0, MemoTier::PerCo, [&] {
      ++OuterCalls;
      for (unsigned S = 0; S < NumInner; ++S) {
        Relation Got = F.Exe.memo(&Inner, S, MemoTier::PerCo, [&] {
          ++InnerCalls;
          return InnerRel(S);
        });
        EXPECT_EQ(Got.toString(), InnerRel(S).toString()) << "slot " << S;
      }
      return OuterRel;
    });
  };
  EXPECT_EQ(Judge().toString(), OuterRel.toString());
  EXPECT_EQ(Judge().toString(), OuterRel.toString());
  EXPECT_EQ(OuterCalls, 1u);
  EXPECT_EQ(InnerCalls, NumInner);
  for (unsigned S = 0; S < NumInner; ++S)
    EXPECT_EQ(F.Exe.memo(&Inner, S, MemoTier::PerCo,
                         [&] { return Relation(N); })
                  .toString(),
              InnerRel(S).toString())
        << "slot " << S;
}

TEST(ExecutionMemo, RdwFollowsANewRfOnlyPastThePerRfFloor) {
  RdwFixture F;
  F.Exe.enableDerivedCache();
  const unsigned N = F.Exe.numEvents();
  const std::string Fr0 = F.Exe.fr().toString();
  const std::string Rfe0 = F.Exe.rfe().toString();
  const std::string Rdw0 = F.Exe.rdw().toString();
  ASSERT_TRUE(F.Exe.rdw().test(F.B, F.C));
  ASSERT_TRUE(F.Exe.detour().empty());

  // c now reads the initial write too: b and c read the same write, so
  // rdw is empty and both reads are fr-before a.
  F.Exe.Rf = Relation(N);
  F.Exe.Rf.set(F.Init, F.B);
  F.Exe.Rf.set(F.Init, F.C);
  EXPECT_EQ(F.Exe.fr().toString(), Fr0);
  EXPECT_EQ(F.Exe.rdw().toString(), Rdw0);

  // po-loc is non-empty, so rdw is per-candidate; rfe is per-rf and
  // outlives the PerCo floor.
  F.Exe.invalidateDerived(MemoTier::PerCo);
  EXPECT_EQ(F.Exe.rfe().toString(), Rfe0);

  F.Exe.invalidateDerived(MemoTier::PerRf);
  EXPECT_TRUE(F.Exe.fr().test(F.B, F.A));
  EXPECT_TRUE(F.Exe.fr().test(F.C, F.A));
  EXPECT_EQ(F.Exe.fr().countPairs(), 2u);
  EXPECT_FALSE(F.Exe.rfe().test(F.A, F.C));
  EXPECT_TRUE(F.Exe.rdw().empty());
  EXPECT_TRUE(F.Exe.detour().empty());
}

TEST(ExecutionMemo, DetourFollowsANewCoOnlyPastThePerCoFloor) {
  DetourFixture F;
  F.Exe.enableDerivedCache();
  const unsigned N = F.Exe.numEvents();
  const std::string Fr0 = F.Exe.fr().toString();
  const std::string Detour0 = F.Exe.detour().toString();
  ASSERT_TRUE(F.Exe.detour().test(F.B, F.C));
  ASSERT_TRUE(F.Exe.fr().empty());

  // a now co-precedes b: c, reading a, is fr-before b, and there is no
  // detour left.
  F.Exe.Co = Relation(N);
  F.Exe.Co.set(F.Init, F.A);
  F.Exe.Co.set(F.A, F.B);
  F.Exe.Co.set(F.Init, F.B);
  EXPECT_EQ(F.Exe.fr().toString(), Fr0);
  EXPECT_EQ(F.Exe.detour().toString(), Detour0);

  F.Exe.invalidateDerived(MemoTier::PerCo);
  EXPECT_TRUE(F.Exe.fr().test(F.C, F.B));
  EXPECT_EQ(F.Exe.fr().countPairs(), 1u);
  EXPECT_TRUE(F.Exe.detour().empty());
}

TEST(ExecutionMemo, OffUntilEnabled) {
  RdwFixture F;
  const unsigned N = F.Exe.numEvents();
  ASSERT_TRUE(F.Exe.fr().test(F.B, F.A));
  F.Exe.Rf = Relation(N);
  F.Exe.Rf.set(F.A, F.B);
  F.Exe.Rf.set(F.A, F.C);
  EXPECT_TRUE(F.Exe.fr().empty());
  EXPECT_TRUE(F.Exe.rdw().empty());

  static const char Tag = 0;
  unsigned Calls = 0;
  for (int I = 0; I < 2; ++I)
    F.Exe.memo(&Tag, 0, MemoTier::Static, [&] {
      ++Calls;
      return F.Exe.Po;
    });
  EXPECT_EQ(Calls, 2u);
}
