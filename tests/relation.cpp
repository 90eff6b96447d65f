//===- relation.cpp - Tests for the relation algebra ------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "relation/Relation.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace cats;

namespace {

Relation chain(unsigned N) {
  Relation R(N);
  for (EventId I = 0; I + 1 < N; ++I)
    R.set(I, I + 1);
  return R;
}

} // namespace

TEST(EventSet, InsertContainsErase) {
  EventSet S(70);
  EXPECT_TRUE(S.empty());
  S.insert(0);
  S.insert(63);
  S.insert(64);
  S.insert(69);
  EXPECT_EQ(S.count(), 4u);
  EXPECT_TRUE(S.contains(63));
  EXPECT_TRUE(S.contains(64));
  EXPECT_FALSE(S.contains(1));
  S.erase(63);
  EXPECT_FALSE(S.contains(63));
  EXPECT_EQ(S.count(), 3u);
}

TEST(EventSet, SetAlgebra) {
  EventSet A(10), B(10);
  A.insert(1);
  A.insert(2);
  B.insert(2);
  B.insert(3);
  EXPECT_EQ((A | B).count(), 3u);
  EXPECT_EQ((A & B).count(), 1u);
  EXPECT_TRUE((A & B).contains(2));
  EXPECT_EQ((A - B).count(), 1u);
  EXPECT_TRUE((A - B).contains(1));
}

TEST(EventSet, ComplementMasksUniverse) {
  EventSet A(67);
  A.insert(5);
  EventSet C = A.complement();
  EXPECT_EQ(C.count(), 66u);
  EXPECT_FALSE(C.contains(5));
  EXPECT_TRUE(C.contains(66));
}

TEST(EventSet, ToVectorOrdered) {
  EventSet S(100);
  S.insert(99);
  S.insert(0);
  S.insert(64);
  auto V = S.toVector();
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[0], 0u);
  EXPECT_EQ(V[1], 64u);
  EXPECT_EQ(V[2], 99u);
}

TEST(Relation, SetTestClear) {
  Relation R(80);
  R.set(3, 70);
  EXPECT_TRUE(R.test(3, 70));
  EXPECT_FALSE(R.test(70, 3));
  EXPECT_EQ(R.countPairs(), 1u);
  R.clear(3, 70);
  EXPECT_TRUE(R.empty());
}

TEST(Relation, Compose) {
  Relation A(5), B(5);
  A.set(0, 1);
  A.set(0, 2);
  B.set(1, 3);
  B.set(2, 4);
  Relation C = A.compose(B);
  EXPECT_TRUE(C.test(0, 3));
  EXPECT_TRUE(C.test(0, 4));
  EXPECT_EQ(C.countPairs(), 2u);
}

TEST(Relation, ComposeEmptyIsEmpty) {
  Relation A(4), B(4);
  A.set(1, 2);
  EXPECT_TRUE(A.compose(B).empty());
  EXPECT_TRUE(B.compose(A).empty());
}

TEST(Relation, Inverse) {
  Relation A(5);
  A.set(0, 4);
  A.set(2, 3);
  Relation Inv = A.inverse();
  EXPECT_TRUE(Inv.test(4, 0));
  EXPECT_TRUE(Inv.test(3, 2));
  EXPECT_EQ(Inv.countPairs(), 2u);
  EXPECT_EQ(Inv.inverse(), A);
}

TEST(Relation, TransitiveClosureChain) {
  Relation R = chain(6);
  Relation Plus = R.transitiveClosure();
  EXPECT_TRUE(Plus.test(0, 5));
  EXPECT_TRUE(Plus.test(2, 4));
  EXPECT_FALSE(Plus.test(4, 2));
  EXPECT_FALSE(Plus.test(0, 0));
  EXPECT_EQ(Plus.countPairs(), 15u); // 5+4+3+2+1
}

TEST(Relation, ReflexiveTransitiveClosure) {
  Relation R = chain(4);
  Relation Star = R.reflexiveTransitiveClosure();
  EXPECT_TRUE(Star.test(0, 0));
  EXPECT_TRUE(Star.test(3, 3));
  EXPECT_TRUE(Star.test(0, 3));
  EXPECT_EQ(Star.countPairs(), 6u + 4u);
}

TEST(Relation, ClosureOfCycleIsReflexive) {
  Relation R(3);
  R.set(0, 1);
  R.set(1, 2);
  R.set(2, 0);
  Relation Plus = R.transitiveClosure();
  EXPECT_TRUE(Plus.test(0, 0));
  EXPECT_TRUE(Plus.test(1, 1));
  EXPECT_EQ(Plus.countPairs(), 9u);
}

TEST(Relation, AcyclicityChainVsCycle) {
  EXPECT_TRUE(chain(10).isAcyclic());
  Relation R = chain(10);
  R.set(9, 0);
  EXPECT_FALSE(R.isAcyclic());
}

TEST(Relation, SelfLoopIsCycle) {
  Relation R(4);
  R.set(2, 2);
  EXPECT_FALSE(R.isAcyclic());
  EXPECT_FALSE(R.isIrreflexive());
  R.clear(2, 2);
  EXPECT_TRUE(R.isIrreflexive());
}

TEST(Relation, EmptyRelationIsAcyclic) {
  EXPECT_TRUE(Relation(0).isAcyclic());
  EXPECT_TRUE(Relation(5).isAcyclic());
}

TEST(Relation, Restrict) {
  Relation R(6);
  R.set(0, 1);
  R.set(1, 2);
  R.set(2, 3);
  EventSet Dom(6), Rng(6);
  Dom.insert(0);
  Dom.insert(2);
  Rng.insert(1);
  Rng.insert(3);
  Relation Cut = R.restrict(Dom, Rng);
  EXPECT_TRUE(Cut.test(0, 1));
  EXPECT_TRUE(Cut.test(2, 3));
  EXPECT_EQ(Cut.countPairs(), 2u);
}

TEST(Relation, DomainRange) {
  Relation R(5);
  R.set(1, 3);
  R.set(1, 4);
  R.set(2, 3);
  EventSet Dom = R.domain();
  EventSet Rng = R.range();
  EXPECT_EQ(Dom.count(), 2u);
  EXPECT_TRUE(Dom.contains(1));
  EXPECT_TRUE(Dom.contains(2));
  EXPECT_EQ(Rng.count(), 2u);
  EXPECT_TRUE(Rng.contains(3));
  EXPECT_TRUE(Rng.contains(4));
}

TEST(Relation, CrossProduct) {
  EventSet A(4), B(4);
  A.insert(0);
  A.insert(1);
  B.insert(2);
  B.insert(3);
  Relation X = Relation::cross(A, B);
  EXPECT_EQ(X.countPairs(), 4u);
  EXPECT_TRUE(X.test(0, 2));
  EXPECT_TRUE(X.test(1, 3));
  EXPECT_FALSE(X.test(2, 0));
}

TEST(Relation, IdentityAndFromPairs) {
  Relation Id = Relation::identity(3);
  EXPECT_EQ(Id.countPairs(), 3u);
  EXPECT_FALSE(Id.isIrreflexive());

  Relation R = Relation::fromPairs(4, {{0, 1}, {1, 0}});
  EXPECT_FALSE(R.isAcyclic());
}

TEST(Relation, FindCycleWitness) {
  Relation R(5);
  R.set(0, 1);
  R.set(1, 2);
  R.set(2, 1);
  auto Cycle = R.findCycle();
  ASSERT_GE(Cycle.size(), 3u);
  EXPECT_EQ(Cycle.front(), Cycle.back());
  // Each consecutive pair must be an edge.
  for (size_t I = 0; I + 1 < Cycle.size(); ++I)
    EXPECT_TRUE(R.test(Cycle[I], Cycle[I + 1]));
}

TEST(Relation, FindCycleEmptyWhenAcyclic) {
  EXPECT_TRUE(chain(8).findCycle().empty());
}

TEST(Relation, SuccessorsView) {
  Relation R(5);
  R.set(2, 0);
  R.set(2, 4);
  EventSet Succ = R.successors(2);
  EXPECT_EQ(Succ.count(), 2u);
  EXPECT_TRUE(Succ.contains(0));
  EXPECT_TRUE(Succ.contains(4));
}

// isAcyclic peels sinks with one word per row up to 64 events and over
// multi-word rows beyond; both paths must agree with the closure definition
// of acyclicity, right at the word boundaries too.
TEST(Relation, AcyclicMatchesClosureAcrossWordBoundaries) {
  Rng R(20261017);
  unsigned Acyclic[2] = {0, 0}, Cyclic[2] = {0, 0};
  for (unsigned N = 1; N <= 130; ++N) {
    const unsigned Wide = N > 64;
    auto Check = [&](const Relation &Rel, const char *What) {
      const bool Want = Rel.transitiveClosure().isIrreflexive();
      EXPECT_EQ(Rel.isAcyclic(), Want) << What << " over " << N << " events";
      ++(Want ? Acyclic : Cyclic)[Wide];
    };
    // Random relations around the density where both answers occur.
    for (int Trial = 0; Trial < 4; ++Trial) {
      Relation Rel(N);
      const unsigned Pairs = static_cast<unsigned>(R.nextBelow(N + 1));
      for (unsigned I = 0; I < Pairs; ++I)
        Rel.set(static_cast<EventId>(R.nextBelow(N)),
                static_cast<EventId>(R.nextBelow(N)));
      Check(Rel, "random");
    }
    // A DAG over a shuffled order: a Hamiltonian path plus random forward
    // edges. Closing the path, or any one back edge, makes a cycle.
    std::vector<EventId> Order(N);
    for (EventId I = 0; I < N; ++I)
      Order[I] = I;
    for (unsigned I = N; I > 1; --I)
      std::swap(Order[I - 1], Order[R.nextBelow(I)]);
    Relation Dag(N);
    for (unsigned I = 0; I + 1 < N; ++I)
      Dag.set(Order[I], Order[I + 1]);
    for (unsigned E = 0; E < 2 * N; ++E) {
      unsigned A = static_cast<unsigned>(R.nextBelow(N));
      unsigned B = static_cast<unsigned>(R.nextBelow(N));
      if (A != B)
        Dag.set(Order[std::min(A, B)], Order[std::max(A, B)]);
    }
    Check(Dag, "dag");
    Relation Closed = Dag;
    Closed.set(Order[N - 1], Order[0]);
    Check(Closed, "dag plus closing edge");
    if (N >= 2) {
      const unsigned A = static_cast<unsigned>(R.nextBelow(N - 1));
      const unsigned B = A + 1 + static_cast<unsigned>(R.nextBelow(N - 1 - A));
      Relation Back = Dag;
      Back.set(Order[B], Order[A]);
      Check(Back, "dag plus back edge");
    }
  }
  // Both answers on both paths.
  EXPECT_GT(Acyclic[0], 0u);
  EXPECT_GT(Cyclic[0], 0u);
  EXPECT_GT(Acyclic[1], 0u);
  EXPECT_GT(Cyclic[1], 0u);
}

// Property-style sweep: on random relations, check algebraic identities that
// the model code relies on.
class RelationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelationPropertyTest, AlgebraicIdentities) {
  Rng R(GetParam());
  unsigned N = 2 + static_cast<unsigned>(R.nextBelow(30));
  auto Random = [&]() {
    Relation Rel(N);
    unsigned Pairs = static_cast<unsigned>(R.nextBelow(N * 2));
    for (unsigned I = 0; I < Pairs; ++I)
      Rel.set(static_cast<EventId>(R.nextBelow(N)),
              static_cast<EventId>(R.nextBelow(N)));
    return Rel;
  };

  Relation A = Random(), B = Random(), C = Random();

  // Composition distributes over union.
  EXPECT_EQ(A.compose(B | C), A.compose(B) | A.compose(C));
  // (A;B)^-1 == B^-1;A^-1.
  EXPECT_EQ(A.compose(B).inverse(), B.inverse().compose(A.inverse()));
  // Closure is idempotent.
  Relation Plus = A.transitiveClosure();
  EXPECT_EQ(Plus.transitiveClosure(), Plus);
  // r+ acyclic iff r acyclic.
  EXPECT_EQ(Plus.isIrreflexive(), A.isAcyclic());
  // r* contains identity and r.
  Relation Star = A.reflexiveTransitiveClosure();
  EXPECT_EQ(Star & Relation::identity(N), Relation::identity(N));
  EXPECT_EQ(Star & A, A);
  // Inverse is an involution.
  EXPECT_EQ(A.inverse().inverse(), A);
  // Domain/range swap under inversion.
  EXPECT_EQ(A.inverse().domain(), A.range());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, RelationPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));
