//===- litmus.cpp - Tests for the litmus library ----------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "diy/Enumerate.h"
#include "litmus/Compiler.h"
#include "litmus/LitmusTest.h"
#include "litmus/Parser.h"
#include "litmus/TestFilter.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

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

TEST(Parser, EveryErrorBranchKeepsItsMessageAndLine) {
  // One input per error branch of the parser, with the exact diagnostic.
  // The line numbers are the parser's own: an error found after a
  // section was consumed (the initial state, the end of the text) names
  // the line after it.
  struct Case {
    const char *Text;
    const char *Message;
  };
  const Case Cases[] = {
      {"", "litmus parse error at line 2: expected '<arch> <name>' header"},
      {"\n\nSC\n", "litmus parse error at line 3: expected '<arch> <name>' "
                   "header"},
      {"SC a b\n", "litmus parse error at line 1: expected '<arch> <name>' "
                   "header"},
      {"Alpha t\n", "litmus parse error at line 1: unknown architecture "
                    "'Alpha'"},
      {"SC t\n{ x=1\nP0:\n",
       "litmus parse error at line 5: malformed initial state section"},
      {"SC t\n{ x }\n", "litmus parse error at line 3: malformed initialiser "
                        "'x'"},
      {"SC t\n{ x=1=2 }\n", "litmus parse error at line 3: malformed "
                            "initialiser 'x=1=2'"},
      {"SC t\n{ =1 }\n", "litmus parse error at line 3: malformed "
                         "initialiser '=1'"},
      {"SC t\n{ x=banana }\n", "litmus parse error at line 3: malformed "
                               "initialiser 'x=banana'"},
      {"SC t\n{ x=1\n y=2 }\nP0:\n",
       "litmus parse error at line 4: malformed initialiser 'x=1y=2'"},
      {"SC t\nP0 st\n", "litmus parse error at line 2: thread header must "
                        "end with ':'"},
      {"SC t\nP1x:\n", "litmus parse error at line 2: malformed thread "
                       "header 'P1x:'"},
      {"SC t\nP1:\n", "litmus parse error at line 2: thread P1 out of order "
                      "(expected P0)"},
      {"SC t\nP0:\n  ,\n", "litmus parse error at line 3: empty instruction"},
      {"SC t\nP0:\n  ld r1\n", "litmus parse error at line 3: ld needs "
                               "'ld rD, loc'"},
      {"SC t\nP0:\n  st x\n", "litmus parse error at line 3: st needs "
                              "'st loc, src'"},
      {"SC t\nP0:\n  mov r1\n", "litmus parse error at line 3: mov needs "
                                "'mov rD, src'"},
      {"SC t\nP0:\n  xor r1, r2\n", "litmus parse error at line 3: xor "
                                    "needs 'xor rD, rA, rB'"},
      {"SC t\nP0:\n  add r1, r2, r3, r4\n", "litmus parse error at line 3: "
                                            "add needs 'add rD, rA, rB'"},
      {"SC t\nP0:\n  beq\n", "litmus parse error at line 3: beq needs "
                             "'beq rS'"},
      {"SC t\nP0:\n  frob r1,  r2\n", "litmus parse error at line 3: "
                                      "unknown instruction 'frob r1,  r2'"},
      {"SC t\nP0:\n  ld x, y\n", "litmus parse error at line 3: expected "
                                 "register, got 'x'"},
      {"SC t\nP0:\n  st x, #beef\n", "litmus parse error at line 3: "
                                     "malformed immediate '#beef'"},
      {"SC t\nP0:\n  ld r1, x[r2\n", "litmus parse error at line 3: "
                                     "malformed address 'x[r2'"},
      {"SC t\nP0:\n  ld r1, x[q]\n", "litmus parse error at line 3: "
                                     "expected register, got 'q'"},
      {"SC t\nst x, #1\n", "litmus parse error at line 2: expected "
                           "'exists (...)' or end of file"},
      {"SC t\nP0:\n  st x, #1\nexists x=1\n",
       "litmus parse error at line 4: malformed exists clause"},
      {"SC t\nP0:\n  st x, #1\nexists (x)\n",
       "litmus parse error at line 4: malformed condition atom 'x'"},
      {"SC t\nP0:\n  st x, #1\nexists (x=1 /\\ y=z)\n",
       "litmus parse error at line 4: malformed condition atom 'y=z'"},
      {"SC t\nP0:\n  st x, #1\nexists (x=1 \\/ =3)\n",
       "litmus parse error at line 4: malformed condition atom '=3'"},
      {"SC t\nP0:\n  st x, #1\nexists ()\n",
       "litmus parse error at line 4: malformed condition atom ''"},
      {"SC t\nP0:\n  st x, #1\nexists (a:r1=0)\n",
       "litmus parse error at line 4: malformed thread id in 'a:r1=0'"},
      {"SC t\nP0:\n  st x, #1\nexists (0: r1=0)\n",
       "litmus parse error at line 4: expected register, got ' r1'"},
      // Comments go before trimming, and a carriage return is whitespace.
      {"SC t // note\r\nP0:\r\n  ld r1, x[r2 // open\r\n",
       "litmus parse error at line 3: malformed address 'x[r2'"},
      {"SC t\nP0:\n  mfence\n",
       "litmus validation: P0 instruction 0 (mfence): fence 'mfence' is not "
       "available on SC"},
  };
  for (const Case &C : Cases) {
    auto Test = parseLitmus(C.Text);
    ASSERT_FALSE(static_cast<bool>(Test)) << C.Text;
    EXPECT_EQ(Test.message(), C.Message) << C.Text;
  }
}

TEST(Parser, LenientFormsKeepTheirMeaning) {
  // What the grammar tolerates, rendered back: text after the initial
  // state's '}' and lines after the condition are ignored, a condition
  // keyword only has to start with "exists", blank lines and comments
  // go anywhere, and values take a sign.
  struct Case {
    const char *Text;
    const char *Rendered;
  };
  const Case Cases[] = {
      {"Power t\n{ x=1; y=-2 } junk\nP0:\n  ld r1, x\nexists (0:r1=1)\n"
       "trailing lines\n",
       "Power t\n{ x=1; y=-2 }\nP0:\n  ld r1, x\nexists (0:r1=1)\n"},
      {"\n// lead\nPPC   t  \n\t{\tx = +3 ;\n\n ; }\n\nP0:\n\n  st x,r1 \n"
       "  beq r1\n  isync\nP1:\n  ld r2,x[r1]\nexistsential (x=3\\/1:r2=0 /\\ "
       "x=-0)\n",
       "Power t\n{ x=3 }\nP0:\n  st x, r1\n  beq r1\n  isync\nP1:\n"
       "  ld r2, x[r1]\nexists (x=3 \\/ 1:r2=0 /\\ x=0)\n"},
      {"ARM t\nP0:\n  st y, #1\n  dmb.st\n  st x, #1\n",
       "ARM t\n{  }\nP0:\n  st y, #1\n  dmb.st\n  st x, #1\nexists (true)\n"},
  };
  for (const Case &C : Cases) {
    auto Test = parseLitmus(C.Text);
    ASSERT_TRUE(static_cast<bool>(Test)) << C.Text << Test.message();
    EXPECT_EQ(Test->toString(), C.Rendered) << C.Text;
  }
}

namespace {

/// The first field in which \p A and \p B differ, or empty when they are
/// the same test. Compares the parsed structure, not a rendering.
std::string firstDifference(const LitmusTest &A, const LitmusTest &B) {
  if (A.Name != B.Name)
    return "name";
  if (A.TargetArch != B.TargetArch)
    return "arch";
  if (A.Init != B.Init)
    return "init";
  if (A.Threads.size() != B.Threads.size())
    return "thread count";
  for (size_t T = 0; T < A.Threads.size(); ++T) {
    if (A.Threads[T].size() != B.Threads[T].size())
      return "length of P" + std::to_string(T);
    for (size_t I = 0; I < A.Threads[T].size(); ++I) {
      const Instruction &X = A.Threads[T][I], &Y = B.Threads[T][I];
      if (X.Op != Y.Op || X.Dst != Y.Dst || X.Src1.OpKind != Y.Src1.OpKind ||
          X.Src1.Payload != Y.Src1.Payload ||
          X.Src2.OpKind != Y.Src2.OpKind ||
          X.Src2.Payload != Y.Src2.Payload || X.Loc != Y.Loc ||
          X.AddrDep != Y.AddrDep || X.FenceName != Y.FenceName)
        return "P" + std::to_string(T) + " instruction " + std::to_string(I);
    }
  }
  const auto &DA = A.Final.Disjuncts, &DB = B.Final.Disjuncts;
  if (DA.size() != DB.size())
    return "disjunct count";
  for (size_t D = 0; D < DA.size(); ++D) {
    if (DA[D].size() != DB[D].size())
      return "length of disjunct " + std::to_string(D);
    for (size_t I = 0; I < DA[D].size(); ++I) {
      const ConditionAtom &X = DA[D][I], &Y = DB[D][I];
      if (X.AtomKind != Y.AtomKind || X.Thread != Y.Thread ||
          X.Reg != Y.Reg || X.Loc != Y.Loc || X.Val != Y.Val)
        return "atom " + std::to_string(I) + " of disjunct " +
               std::to_string(D);
    }
  }
  return "";
}

} // namespace

TEST(LitmusTest, RendersOddTestsAsBefore) {
  // Tests no parser makes still render to the bytes they always did: a
  // location name is cut at a NUL byte, an empty conjunction keeps its
  // separators, and an unknown opcode is named as such.
  Condition Final;
  Final.addConjunction({ConditionAtom::memEquals(std::string("x\0y", 3), 1)});
  Final.addConjunction({});
  Final.addConjunction({ConditionAtom::regEquals(1, 2, -3),
                        ConditionAtom::memEquals("z", 0)});
  EXPECT_EQ(Final.toString(), "exists (x=1 \\/  \\/ 1:r2=-3 /\\ z=0)");
  LitmusTest Test;
  Test.Name = "odd";
  Test.TargetArch = Arch::Power;
  Test.Init[std::string("a\0b", 3)] = -7;
  Test.Init["c"] = 0;
  Test.Threads = {{Instruction::store(std::string("q\0r", 3), Operand::imm(4),
                                      2),
                   Instruction::move(3, Operand::reg(1))},
                  {}};
  Test.Final = Final;
  EXPECT_EQ(Test.toString(), "Power odd\n{ a=-7; c=0 }\nP0:\n  st q[r2], #4\n"
                             "  mov r3, r1\nP1:\n"
                             "exists (x=1 \\/  \\/ 1:r2=-3 /\\ z=0)\n");
  Instruction Unknown;
  Unknown.Op = static_cast<Opcode>(42);
  EXPECT_EQ(Unknown.toString(), "<bad instruction>");
}

TEST(Parser, RendersAndReadsBackEverySizeSixInternalPowerTest) {
  // The 10,417 tests of the size-6 --internal Power corpus: each renders
  // to text that parses back to the same test, and the rendered bytes
  // are pinned as one 64-bit FNV-1a over their concatenation. Cache keys
  // hash these bytes, so a rendering change would turn every stored
  // entry into a miss.
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MaxEdges = 6;
  Opts.InternalCom = true;
  auto Source = makeDiyTestSource(Opts);
  ASSERT_TRUE(static_cast<bool>(Source)) << Source.message();
  TestSource Drain = inlineSource(Source.take());
  uint64_t Hash = 14695981039346656037ull;
  size_t Count = 0;
  for (LitmusTest Test; Drain(Test); ++Count) {
    const std::string Text = Test.toString();
    for (unsigned char C : Text) {
      Hash ^= C;
      Hash *= 1099511628211ull;
    }
    auto Again = parseLitmus(Text);
    ASSERT_TRUE(static_cast<bool>(Again)) << Test.Name << Again.message();
    ASSERT_EQ(firstDifference(*Again, Test), "") << Test.Name;
  }
  EXPECT_EQ(Count, 10417u);
  EXPECT_EQ(Hash, 0x1d59eb46166ed7a3ull);
}

TEST(TestFilter, DirectoriesContributeTheirLitmusEntriesButNotSubdirectories) {
  // A subdirectory named like a test is not a test: it is skipped, and
  // a sweep over the directory runs the files beside it. Any other entry
  // is listed, so a dangling link is an error line of the sweep.
  namespace fs = std::filesystem;
  const std::string Dir = ::testing::TempDir() + "cats_collect_litmus";
  fs::remove_all(Dir);
  ASSERT_TRUE(fs::create_directories(Dir + "/sub.litmus"));
  for (const char *Name : {"b.litmus", "a.litmus", "notes.txt"})
    std::ofstream(Dir + "/" + Name) << "SC t\nP0:\n  st x, #1\n";
  fs::create_symlink(Dir + "/gone.litmus", Dir + "/c.litmus");
  std::vector<std::string> Files;
  ASSERT_FALSE(collectLitmusFiles(Dir, Files).failed());
  EXPECT_EQ(Files, (std::vector<std::string>{Dir + "/a.litmus",
                                             Dir + "/b.litmus",
                                             Dir + "/c.litmus"}));

  std::vector<std::string> Errors;
  auto Source = stageCampaignTests({Dir}, false, "", &Errors);
  ASSERT_TRUE(static_cast<bool>(Source)) << Source.message();
  TestSource Drain = inlineSource(Source.take());
  size_t Pulled = 0;
  for (LitmusTest Test; Drain(Test);)
    ++Pulled;
  EXPECT_EQ(Pulled, 2u);
  EXPECT_EQ(Errors, (std::vector<std::string>{
                        Dir + "/c.litmus: cannot open litmus file " + Dir +
                        "/c.litmus"}));

  // Named directly, a directory that is not a corpus is still an error,
  // and so is a missing path.
  EXPECT_FALSE(parseLitmusFile(Dir + "/sub.litmus"));
  EXPECT_EQ(parseLitmusFile(Dir + "/sub.litmus").message(),
            "cannot open litmus file " + Dir + "/sub.litmus");
  EXPECT_EQ(collectLitmusFiles(Dir + "/missing", Files).message(),
            "no such file or directory: " + Dir + "/missing");
  // A file named directly is taken as it is, also through a link; a
  // dangling link is missing.
  Files.clear();
  fs::create_symlink(Dir + "/a.litmus", Dir + "/link");
  ASSERT_FALSE(collectLitmusFiles(Dir + "/notes.txt", Files).failed());
  ASSERT_FALSE(collectLitmusFiles(Dir + "/link", Files).failed());
  EXPECT_EQ(Files, (std::vector<std::string>{Dir + "/notes.txt",
                                             Dir + "/link"}));
  EXPECT_EQ(collectLitmusFiles(Dir + "/c.litmus", Files).message(),
            "no such file or directory: " + Dir + "/c.litmus");
  fs::remove_all(Dir);
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
