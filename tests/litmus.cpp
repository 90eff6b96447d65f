//===- litmus.cpp - Tests for the litmus library ----------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "litmus/Compiler.h"
#include "litmus/LitmusTest.h"
#include "litmus/Parser.h"

#include <gtest/gtest.h>

using namespace cats;

namespace {

const char *MpLwsyncAddr = R"(
Power mp+lwsync+addr
{ x=0; y=0 }
P0:
  st x, #1
  lwsync
  st y, #1
P1:
  ld r1, y
  xor r2, r1, r1
  ld r3, x[r2]
exists (1:r1=1 /\ 1:r3=0)
)";

const char *SbFfences = R"(
TSO sb+mfences
{ x=0; y=0 }
P0:
  st x, #1
  mfence
  ld r1, y
P1:
  st y, #1
  mfence
  ld r1, x
exists (0:r1=0 /\ 1:r1=0)
)";

LitmusTest parseOrDie(const char *Text) {
  auto Test = parseLitmus(Text);
  EXPECT_TRUE(static_cast<bool>(Test)) << Test.message();
  return Test.take();
}

/// Finds the memory event of thread \p T, program position \p Nth among
/// memory events of that thread.
EventId nthMemEvent(const Execution &Exe, ThreadId T, unsigned Nth) {
  auto Events = Exe.threadEvents(T);
  EXPECT_LT(Nth, Events.size());
  return Events[Nth];
}

} // namespace

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(Parser, HeaderAndInit) {
  LitmusTest Test = parseOrDie(MpLwsyncAddr);
  EXPECT_EQ(Test.Name, "mp+lwsync+addr");
  EXPECT_EQ(Test.TargetArch, Arch::Power);
  EXPECT_EQ(Test.Init.at("x"), 0);
  EXPECT_EQ(Test.Init.at("y"), 0);
  ASSERT_EQ(Test.numThreads(), 2u);
  EXPECT_EQ(Test.Threads[0].size(), 3u);
  EXPECT_EQ(Test.Threads[1].size(), 3u);
}

TEST(Parser, FinalCondition) {
  LitmusTest Test = parseOrDie(MpLwsyncAddr);
  ASSERT_EQ(Test.Final.Disjuncts.size(), 1u);
  ASSERT_EQ(Test.Final.Disjuncts[0].size(), 2u);
  const ConditionAtom &A = Test.Final.Disjuncts[0][0];
  EXPECT_EQ(A.AtomKind, ConditionAtom::Kind::RegEquals);
  EXPECT_EQ(A.Thread, 1);
  EXPECT_EQ(A.Reg, 1);
  EXPECT_EQ(A.Val, 1);
}

TEST(Parser, Disjunction) {
  LitmusTest Test = parseOrDie(R"(
SC two
P0:
  st x, #1
exists (x=1 \/ x=0)
)");
  EXPECT_EQ(Test.Final.Disjuncts.size(), 2u);
}

TEST(Parser, MemoryAtom) {
  LitmusTest Test = parseOrDie(R"(
SC memcond
P0:
  st x, #2
exists (x=2)
)");
  const ConditionAtom &A = Test.Final.Disjuncts[0][0];
  EXPECT_EQ(A.AtomKind, ConditionAtom::Kind::MemEquals);
  EXPECT_EQ(A.Loc, "x");
  EXPECT_EQ(A.Val, 2);
}

TEST(Parser, RejectsUnknownArch) {
  auto Test = parseLitmus("Alpha t\nP0:\n st x, #1\n");
  EXPECT_FALSE(static_cast<bool>(Test));
  EXPECT_NE(Test.message().find("architecture"), std::string::npos);
}

TEST(Parser, RejectsWrongFenceForArch) {
  auto Test = parseLitmus(R"(
TSO bad
P0:
  st x, #1
  lwsync
  st y, #1
)");
  EXPECT_FALSE(static_cast<bool>(Test));
}

TEST(Parser, RejectsMalformedInstruction) {
  auto Test = parseLitmus(R"(
SC bad
P0:
  ld x
)");
  EXPECT_FALSE(static_cast<bool>(Test));
  EXPECT_NE(Test.message().find("line"), std::string::npos);
}

TEST(Parser, CommentsIgnored) {
  LitmusTest Test = parseOrDie(R"(
SC c // trailing
// whole line
P0:
  st x, #1 // after instruction
exists (x=1)
)");
  EXPECT_EQ(Test.Threads[0].size(), 1u);
}

TEST(Parser, RoundTripThroughToString) {
  LitmusTest Test = parseOrDie(MpLwsyncAddr);
  auto Again = parseLitmus(Test.toString());
  ASSERT_TRUE(static_cast<bool>(Again)) << Again.message();
  EXPECT_EQ(Again->Name, Test.Name);
  EXPECT_EQ(Again->Threads.size(), Test.Threads.size());
  EXPECT_EQ(Again->Threads[1][2].toString(), Test.Threads[1][2].toString());
  EXPECT_EQ(Again->Final.toString(), Test.Final.toString());
}

TEST(Parser, InitSectionValueForms) {
  // Signs, interior whitespace, a multi-line section, and immediates the
  // native codegen replays into cells verbatim.
  LitmusTest Test = parseOrDie(R"(
SC inits
{ x = -1 ; y=+2;
  z = 0 }
P0:
  ld r1, x
exists (0:r1=-1)
)");
  EXPECT_EQ(Test.Init.at("x"), -1);
  EXPECT_EQ(Test.Init.at("y"), 2);
  EXPECT_EQ(Test.Init.at("z"), 0);
  EXPECT_EQ(Test.Final.Disjuncts[0][0].Val, -1);
}

TEST(Parser, EmptyInitSection) {
  LitmusTest Test = parseOrDie("SC empty\n{ }\nP0:\n  st x, #1\n");
  EXPECT_TRUE(Test.Init.empty());
}

TEST(Parser, RejectsMalformedInitValues) {
  // The stdlib conversions used to throw (crashing the CLI) instead of
  // reporting a parse error on these.
  for (const char *Init :
       {"{ x=banana }", "{ x=1abc }", "{ =1 }", "{ x=--2 }",
        "{ x=99999999999999999999 }", "{ x=1=2 }"}) {
    std::string Text = std::string("SC bad\n") + Init + "\nP0:\n st x, #1\n";
    auto Test = parseLitmus(Text);
    EXPECT_FALSE(static_cast<bool>(Test)) << Init;
    EXPECT_NE(Test.message().find("line"), std::string::npos) << Init;
  }
}

TEST(Parser, SharedLocationDeclarations) {
  // Locations appear by use, by init-only declaration, and by
  // condition-only mention; all take part in outcomes, in first-use
  // order (code, then init, then condition).
  LitmusTest Test = parseOrDie(R"(
SC locs
{ b=5; a=1 }
P0:
  ld r1, a
  st c, r1
exists (c=1 /\ b=5 /\ d=0)
)");
  std::vector<std::string> Locs = Test.locations();
  ASSERT_EQ(Locs.size(), 4u);
  EXPECT_EQ(Locs[0], "a");
  EXPECT_EQ(Locs[1], "c");
  EXPECT_EQ(Locs[2], "b");
  EXPECT_EQ(Locs[3], "d");
  // The compiler interns the same set, so init-only/condition-only
  // locations get initial writes and final-memory entries.
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.message();
  EXPECT_EQ(Compiled->skeleton().LocationNames.size(), 4u);
}

TEST(Parser, RegisterNaming) {
  // Multi-digit registers parse; junk and overflowing names are errors,
  // not crashes.
  LitmusTest Test = parseOrDie("SC regs\nP0:\n  ld r12, x\n  mov r0, r12\n"
                               "exists (0:r12=0)");
  EXPECT_EQ(Test.Threads[0][0].Dst, 12);
  for (const char *Line :
       {"ld r, x", "ld rx, x", "ld r1x, x", "ld r99999999999999, x",
        "ld x, x"}) {
    std::string Text = std::string("SC bad\nP0:\n  ") + Line + "\n";
    auto Bad = parseLitmus(Text);
    EXPECT_FALSE(static_cast<bool>(Bad)) << Line;
    EXPECT_NE(Bad.message().find("line"), std::string::npos) << Line;
  }
}

TEST(Parser, RejectsMalformedImmediates) {
  for (const char *Line : {"st x, #beef", "st x, #", "st x, #1x",
                           "mov r1, #12345678901234567890"}) {
    std::string Text = std::string("SC bad\nP0:\n  ") + Line + "\n";
    auto Bad = parseLitmus(Text);
    EXPECT_FALSE(static_cast<bool>(Bad)) << Line;
  }
}

TEST(Parser, RejectsMalformedConditionAtoms) {
  for (const char *Cond :
       {"exists (0:r1=x)", "exists (abc:r1=0)", "exists (0:rx=0)",
        "exists (=3)", "exists (99999999999:r1=0)"}) {
    std::string Text = std::string("SC bad\nP0:\n  st x, #1\n") + Cond +
                       "\n";
    auto Bad = parseLitmus(Text);
    EXPECT_FALSE(static_cast<bool>(Bad)) << Cond;
  }
}

// Outcome keys separate fields with ';' and tell register fields by their
// ':', so a location name holding either cannot round-trip through a
// report or a cache entry: validation refuses it, naming the location.
TEST(Parser, RejectsLocationNamesWithKeyDelimiters) {
  for (const char *Loc : {"a:b", "a;b"}) {
    std::string Text = std::string("Power mp-odd\n{ }\nP0:\n  st ") + Loc +
                       ", #1\n  st y, #1\nP1:\n  ld r1, y\n  ld r2, " + Loc +
                       "\nexists (1:r1=1 /\\ 1:r2=0)\n";
    auto Test = parseLitmus(Text);
    ASSERT_FALSE(static_cast<bool>(Test)) << Loc;
    EXPECT_NE(Test.message().find(std::string("'") + Loc + "'"),
              std::string::npos)
        << Test.message();
  }
}

TEST(LitmusTest, ValidateRejectsLocationNamesWithKeyDelimiters) {
  for (const char *Loc : {"x:1", "x;1"}) {
    LitmusTest Test = parseOrDie(MpLwsyncAddr);
    ASSERT_EQ(Test.validate(), "");
    Test.Init[Loc] = 0;
    const std::string Problem = Test.validate();
    EXPECT_NE(Problem.find(std::string("'") + Loc + "'"), std::string::npos)
        << Problem;
    EXPECT_FALSE(static_cast<bool>(CompiledTest::compile(Test))) << Loc;
  }
  // '=' stays legal: keys split a field at its last '='.
  LitmusTest Eq = parseOrDie(MpLwsyncAddr);
  Eq.Init["a=b"] = 0;
  EXPECT_EQ(Eq.validate(), "");
}

TEST(Parser, RejectsMalformedThreadHeader) {
  auto Bad = parseLitmus("SC bad\nP1x:\n  st x, #1\n");
  EXPECT_FALSE(static_cast<bool>(Bad));
  EXPECT_NE(Bad.message().find("thread"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Compiler: events, po, fences
//===----------------------------------------------------------------------===//

TEST(Compiler, EventLayout) {
  auto Compiled = CompiledTest::compile(parseOrDie(MpLwsyncAddr));
  ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.message();
  const Execution &Exe = Compiled->skeleton();
  // 2 init writes + 2 stores + 2 loads.
  EXPECT_EQ(Exe.numEvents(), 6u);
  EXPECT_EQ(Exe.initWrites().count(), 2u);
  EXPECT_EQ(Exe.reads().count(), 2u);
  EXPECT_EQ(Exe.writes().count(), 4u);
}

TEST(Compiler, FenceRelation) {
  auto Compiled = CompiledTest::compile(parseOrDie(MpLwsyncAddr));
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Exe = Compiled->skeleton();
  Relation Lwsync = Exe.fenceRelation("lwsync");
  EventId Wx = nthMemEvent(Exe, 0, 0);
  EventId Wy = nthMemEvent(Exe, 0, 1);
  EXPECT_TRUE(Lwsync.test(Wx, Wy));
  EXPECT_EQ(Lwsync.countPairs(), 1u);
  EXPECT_TRUE(Exe.fenceRelation("sync").empty());
}

TEST(Compiler, AddressDependencyViaXor) {
  auto Compiled = CompiledTest::compile(parseOrDie(MpLwsyncAddr));
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Exe = Compiled->skeleton();
  EventId Ry = nthMemEvent(Exe, 1, 0);
  EventId Rx = nthMemEvent(Exe, 1, 1);
  EXPECT_TRUE(Exe.Addr.test(Ry, Rx)) << "false dep through xor must count";
  EXPECT_TRUE(Exe.Data.empty());
  EXPECT_TRUE(Exe.Ctrl.empty());
}

TEST(Compiler, DataDependency) {
  LitmusTest Test = parseOrDie(R"(
Power lb+datas
P0:
  ld r1, x
  st y, r1
P1:
  ld r1, y
  st x, r1
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Exe = Compiled->skeleton();
  EXPECT_TRUE(Exe.Data.test(nthMemEvent(Exe, 0, 0), nthMemEvent(Exe, 0, 1)));
  EXPECT_TRUE(Exe.Data.test(nthMemEvent(Exe, 1, 0), nthMemEvent(Exe, 1, 1)));
  EXPECT_TRUE(Exe.Addr.empty());
}

TEST(Compiler, ControlDependency) {
  LitmusTest Test = parseOrDie(R"(
Power mp+lwsync+ctrl
P0:
  st x, #1
  lwsync
  st y, #1
P1:
  ld r1, y
  beq r1
  ld r2, x
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Exe = Compiled->skeleton();
  EventId Ry = nthMemEvent(Exe, 1, 0);
  EventId Rx = nthMemEvent(Exe, 1, 1);
  EXPECT_TRUE(Exe.Ctrl.test(Ry, Rx));
  EXPECT_FALSE(Exe.CtrlCfence.test(Ry, Rx)) << "no isync after branch";
}

TEST(Compiler, ControlCfenceDependency) {
  LitmusTest Test = parseOrDie(R"(
Power mp+lwsync+ctrlisync
P0:
  st x, #1
  lwsync
  st y, #1
P1:
  ld r1, y
  beq r1
  isync
  ld r2, x
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Exe = Compiled->skeleton();
  EventId Ry = nthMemEvent(Exe, 1, 0);
  EventId Rx = nthMemEvent(Exe, 1, 1);
  EXPECT_TRUE(Exe.Ctrl.test(Ry, Rx));
  EXPECT_TRUE(Exe.CtrlCfence.test(Ry, Rx));
}

TEST(Compiler, CfenceBeforeBranchDoesNotCount) {
  LitmusTest Test = parseOrDie(R"(
Power wrongorder
P0:
  ld r1, y
  isync
  beq r1
  ld r2, x
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Exe = Compiled->skeleton();
  EXPECT_TRUE(Exe.CtrlCfence.empty())
      << "isync must be po-after the branch to form ctrl+cfence";
  EXPECT_FALSE(Exe.Ctrl.empty());
}

TEST(Compiler, DependencyChainsThroughMoves) {
  LitmusTest Test = parseOrDie(R"(
Power chain
P0:
  ld r1, x
  mov r2, r1
  add r3, r2, r2
  st y, r3
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Exe = Compiled->skeleton();
  EXPECT_TRUE(Exe.Data.test(nthMemEvent(Exe, 0, 0), nthMemEvent(Exe, 0, 1)));
}

TEST(Compiler, LoadBreaksDependencyChain) {
  // dd-reg does not pass through memory: r2's taint is the second load,
  // not the first.
  LitmusTest Test = parseOrDie(R"(
Power cutchain
P0:
  ld r1, x
  ld r2, y
  st z, r2
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Exe = Compiled->skeleton();
  EventId Rx = nthMemEvent(Exe, 0, 0);
  EventId Ry = nthMemEvent(Exe, 0, 1);
  EventId Wz = nthMemEvent(Exe, 0, 2);
  EXPECT_TRUE(Exe.Data.test(Ry, Wz));
  EXPECT_FALSE(Exe.Data.test(Rx, Wz));
}

//===----------------------------------------------------------------------===//
// Compiler: candidates and concretisation
//===----------------------------------------------------------------------===//

TEST(Compiler, CandidateCountsMp) {
  auto Compiled = CompiledTest::compile(parseOrDie(MpLwsyncAddr));
  ASSERT_TRUE(static_cast<bool>(Compiled));
  // Each of the two reads has 2 candidate writes; one co order per
  // location (single program write each).
  EXPECT_EQ(Compiled->reads().size(), 2u);
  EXPECT_EQ(Compiled->candidateCount(), 4ull);
  EXPECT_EQ(Compiled->allCoherenceOrders().size(), 1u);
}

TEST(Compiler, CoherenceEnumerationCounts2p2w) {
  LitmusTest Test = parseOrDie(R"(
Power 2+2w
P0:
  st x, #2
  st y, #1
P1:
  st y, #2
  st x, #1
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  // Two writes per location -> 2 permutations each -> 4 coherence orders.
  EXPECT_EQ(Compiled->allCoherenceOrders().size(), 4u);
}

TEST(Compiler, CoherenceKeepsInitFirst) {
  LitmusTest Test = parseOrDie(R"(
SC co
P0:
  st x, #1
  st x, #2
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  for (const Relation &Co : Compiled->allCoherenceOrders()) {
    const Execution &Exe = Compiled->skeleton();
    int Init = Exe.initWriteOf(0);
    ASSERT_GE(Init, 0);
    for (EventId W : Exe.writesTo(0))
      if (!Exe.event(W).IsInit) {
        EXPECT_TRUE(Co.test(static_cast<EventId>(Init), W));
      }
  }
}

TEST(Compiler, ConcretizeComputesValues) {
  auto Compiled = CompiledTest::compile(parseOrDie(MpLwsyncAddr));
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Skel = Compiled->skeleton();
  EventId Wy = nthMemEvent(Skel, 0, 1);
  EventId InitX = static_cast<EventId>(Skel.initWriteOf(
      0 /* x interned first */));
  // Read y from T0's write (value 1); read x from init (value 0).
  std::vector<EventId> Rf;
  for (size_t I = 0; I < Compiled->reads().size(); ++I) {
    const Event &Read = Skel.event(Compiled->reads()[I]);
    Rf.push_back(Read.Loc == Skel.event(Wy).Loc ? Wy : InitX);
  }
  Candidate Cand =
      Compiled->concretize(Rf, Compiled->allCoherenceOrders()[0]);
  EXPECT_TRUE(Cand.Consistent);
  EXPECT_EQ(Cand.Out.reg(1, 1), 1); // r1 = y = 1
  EXPECT_EQ(Cand.Out.reg(1, 3), 0); // r3 = x = 0
  EXPECT_TRUE(Cand.Out.satisfies(Compiled->test().Final));
}

TEST(Compiler, ConcretizeFinalMemory) {
  LitmusTest Test = parseOrDie(R"(
SC wseq
P0:
  st x, #1
  st x, #2
exists (x=2)
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  auto Cos = Compiled->allCoherenceOrders();
  ASSERT_EQ(Cos.size(), 2u);
  std::vector<Value> Finals;
  for (const Relation &Co : Cos) {
    Candidate Cand = Compiled->concretize({}, Co);
    Finals.push_back(Cand.Out.mem("x"));
  }
  std::sort(Finals.begin(), Finals.end());
  EXPECT_EQ(Finals, (std::vector<Value>{1, 2}));
}

TEST(Compiler, ValueFlowsThroughDataDependency) {
  LitmusTest Test = parseOrDie(R"(
Power passval
{ x=7 }
P0:
  ld r1, x
  st y, r1
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Skel = Compiled->skeleton();
  EventId InitX = static_cast<EventId>(
      Skel.initWriteOf(Skel.event(Compiled->reads()[0]).Loc));
  Candidate Cand = Compiled->concretize({InitX},
                                        Compiled->allCoherenceOrders()[0]);
  EXPECT_TRUE(Cand.Consistent);
  EXPECT_EQ(Cand.Out.mem("y"), 7);
}

TEST(Compiler, LbSatisfactionCycleStabilisesAtZero) {
  // lb+datas with each read feeding the other thread's write: reading the
  // other write is a consistent candidate only with value 0 (no thin air).
  LitmusTest Test = parseOrDie(R"(
Power lb+datas
P0:
  ld r1, x
  st y, r1
P1:
  ld r1, y
  st x, r1
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Skel = Compiled->skeleton();
  EventId Wy = nthMemEvent(Skel, 0, 1);
  EventId Wx = nthMemEvent(Skel, 1, 1);
  // Read of x (T0) from Wx; read of y (T1) from Wy.
  std::vector<EventId> Rf(2);
  for (size_t I = 0; I < Compiled->reads().size(); ++I) {
    const Event &Read = Skel.event(Compiled->reads()[I]);
    Rf[I] = Read.Thread == 0 ? Wx : Wy;
  }
  Candidate Cand =
      Compiled->concretize(Rf, Compiled->allCoherenceOrders()[0]);
  EXPECT_TRUE(Cand.Consistent);
  EXPECT_EQ(Cand.Out.reg(0, 1), 0);
  EXPECT_EQ(Cand.Out.reg(1, 1), 0);
}

TEST(Compiler, XorFalseDependencyValueIsZeroOffset) {
  // The xor'ed index register must not change the loaded location/value.
  auto Compiled = CompiledTest::compile(parseOrDie(MpLwsyncAddr));
  ASSERT_TRUE(static_cast<bool>(Compiled));
  const Execution &Skel = Compiled->skeleton();
  EventId Wy = nthMemEvent(Skel, 0, 1);
  EventId Wx = nthMemEvent(Skel, 0, 0);
  std::vector<EventId> Rf;
  for (size_t I = 0; I < Compiled->reads().size(); ++I) {
    const Event &Read = Skel.event(Compiled->reads()[I]);
    Rf.push_back(Read.Loc == Skel.event(Wy).Loc ? Wy : Wx);
  }
  Candidate Cand =
      Compiled->concretize(Rf, Compiled->allCoherenceOrders()[0]);
  EXPECT_EQ(Cand.Out.reg(1, 3), 1) << "r3 must read x's value";
}

// Every round of the value fixpoint replays a thread from an all-zero
// register file: a register read before its first write in program order
// reads 0, never the value an earlier round left in it.
TEST(Compiler, RegisterReadBeforeItsWriteReadsZeroEveryRound) {
  LitmusTest Test = parseOrDie(R"(
Power read-before-write
{ x=0; y=0 }
P0:
  st x, r1
  ld r1, y
P1:
  st y, #1
exists (x=1)
)");
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.message();
  const Execution &Skel = Compiled->skeleton();
  // The read of y takes P1's store.
  std::vector<EventId> Rf;
  for (EventId R : Compiled->reads())
    for (EventId W : Skel.writesTo(Skel.event(R).Loc))
      if (!Skel.event(W).IsInit)
        Rf.push_back(W);
  ASSERT_EQ(Rf.size(), Compiled->reads().size());
  Candidate Cand = Compiled->concretize(Rf, Compiled->allCoherenceOrders()[0]);
  EXPECT_TRUE(Cand.Consistent);
  EXPECT_EQ(Cand.Out.reg(0, 1), 1);
  EXPECT_EQ(Cand.Out.mem("x"), 0);
}

TEST(Compiler, OutcomeKeysDistinguishStates) {
  LitmusTest Test = parseOrDie(SbFfences);
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  EXPECT_EQ(Compiled->candidateCount(), 4ull);
}
