//===- cat.cpp - Tests for the cat DSL interpreter ---------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser/evaluator unit tests, plus the headline cross-validation: the
/// shipped .cat files must agree with the native C++ models on every
/// candidate execution of the figure catalogue (Fig. 38 is exactly our
/// Power model).
///
//===----------------------------------------------------------------------===//

#include "cat/CatModel.h"
#include "cat/CatParser.h"
#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "model/HwModel.h"
#include "model/Registry.h"

#include <gtest/gtest.h>

using namespace cats;
using namespace cats::cat;

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(CatParser, ParsesFig38Skeleton) {
  auto File = parseCat(R"(
(* sc per location *) acyclic po-loc|rf|fr|co
let dp = addr|data
let rdw = po-loc & (fre;rfe)
let rec ii = ii0|ci|(ic;ci)|(ii;ii)
and ic = ic0|ii|cc|(ic;cc)|(ii;ic)
and ci = ci0|(ci;ii)|(cc;ci)
and cc = cc0|ci|(ci;ic)|(cc;cc)
let ii0 = dp
let ic0 = 0
let ci0 = ctrlisync
let cc0 = dp|po-loc|ctrl|(addr;po)
)",
                       "fig38");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  ASSERT_EQ(File->Statements.size(), 8u);
  EXPECT_EQ(File->Statements[0].Kind, StmtKind::Acyclic);
  EXPECT_EQ(File->Statements[3].Kind, StmtKind::LetRec);
  EXPECT_EQ(File->Statements[3].Bindings.size(), 4u);
}

TEST(CatParser, NestedComments) {
  auto File = parseCat("(* a (* nested *) comment *)\nlet x = po\n", "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  EXPECT_EQ(File->Statements.size(), 1u);
}

TEST(CatParser, UnterminatedCommentFails) {
  auto File = parseCat("(* oops\nlet x = po\n", "m");
  EXPECT_FALSE(static_cast<bool>(File));
}

TEST(CatParser, PostfixBindsTighterThanSeq) {
  auto File = parseCat("irreflexive fre;prop;hb* as obs\nlet prop = po\n"
                       "let hb = po\n",
                       "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  // fre;(prop;(hb*)): the check must be a Seq whose rightmost child is a
  // Star.
  const Expr &Check = *File->Statements[0].Check;
  EXPECT_EQ(Check.Kind, ExprKind::Seq);
  EXPECT_EQ(Check.Rhs->Kind, ExprKind::Star);
}

TEST(CatParser, PrecedenceUnionLoosest) {
  auto File = parseCat("let x = po-loc & fre;rfe | addr\n", "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  const Expr &Body = *File->Statements[0].Bindings[0].Body;
  // (po-loc & (fre;rfe)) | addr
  EXPECT_EQ(Body.Kind, ExprKind::Union);
  EXPECT_EQ(Body.Lhs->Kind, ExprKind::Inter);
  EXPECT_EQ(Body.Lhs->Rhs->Kind, ExprKind::Seq);
}

TEST(CatParser, AsLabels) {
  auto File = parseCat("acyclic po as my-check\n", "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  EXPECT_EQ(File->Statements[0].CheckName, "my-check");
}

TEST(CatParser, DirFilterParses) {
  auto File = parseCat("let ppo = RR(po)|RW(po)\n", "m");
  ASSERT_TRUE(static_cast<bool>(File)) << File.message();
  EXPECT_EQ(File->Statements[0].Bindings[0].Body->Kind, ExprKind::Union);
  EXPECT_EQ(File->Statements[0].Bindings[0].Body->Lhs->Kind,
            ExprKind::DirFilter);
}

TEST(CatParser, RejectsGarbage) {
  EXPECT_FALSE(static_cast<bool>(parseCat("let = po\n", "m")));
  EXPECT_FALSE(static_cast<bool>(parseCat("let x po\n", "m")));
  EXPECT_FALSE(static_cast<bool>(parseCat("acyclic (po\n", "m")));
  EXPECT_FALSE(static_cast<bool>(parseCat("frob po\n", "m")));
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

TEST(CatValidate, UnknownNameRejected) {
  auto M = CatModel::fromSource("let x = nonsense\n", "m");
  EXPECT_FALSE(static_cast<bool>(M));
  EXPECT_NE(M.message().find("nonsense"), std::string::npos);
}

TEST(CatValidate, RecGroupMembersVisible) {
  auto M = CatModel::fromSource(
      "let rec a = b|po\nand b = a|rf\nacyclic a\n", "m");
  EXPECT_TRUE(static_cast<bool>(M)) << M.message();
}

TEST(CatValidate, ForwardReferenceOutsideRecRejected) {
  auto M = CatModel::fromSource("let a = b\nlet b = po\n", "m");
  EXPECT_FALSE(static_cast<bool>(M));
}

//===----------------------------------------------------------------------===//
// Evaluation on a known execution
//===----------------------------------------------------------------------===//

namespace {

/// First consistent candidate of a catalogue test that satisfies its
/// final condition.
Candidate witnessOf(const char *TestName) {
  const CatalogEntry *Entry = catalogEntry(TestName);
  EXPECT_NE(Entry, nullptr) << TestName;
  auto Compiled = CompiledTest::compile(Entry->Test);
  EXPECT_TRUE(static_cast<bool>(Compiled));
  Candidate Witness;
  bool Found = false;
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (!Found && Cand.Consistent &&
        Cand.Out.satisfies(Entry->Test.Final)) {
      Witness = Cand;
      Found = true;
    }
    return true;
  });
  EXPECT_TRUE(Found);
  return Witness;
}

} // namespace

TEST(CatEval, FixpointMatchesClosure) {
  // let rec r = po | (r;r) computes po+.
  auto M = CatModel::fromSource("let rec r = po|(r;r)\nacyclic r\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto R = M->evaluate("r", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(R)) << R.message();
  EXPECT_EQ(*R, Witness.Exe.Po.transitiveClosure());
}

TEST(CatEval, DirFilterSemantics) {
  auto M = CatModel::fromSource("let wr = WR(po)\nlet rr = RR(po)\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("sb");
  auto Wr = M->evaluate("wr", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Wr));
  EXPECT_EQ(*Wr, Witness.Exe.Po.restrict(Witness.Exe.writes(),
                                         Witness.Exe.reads()));
  auto Rr = M->evaluate("rr", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Rr));
  EXPECT_TRUE(Rr->empty()) << "sb has no read-read po pairs";
}

TEST(CatEval, InverseAndDifference) {
  auto M = CatModel::fromSource(
      "let back = rf~\nlet fr2 = rf~;co\nlet nothing = po \\ po\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto Back = M->evaluate("back", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Witness.Exe.Rf.inverse());
  auto Fr2 = M->evaluate("fr2", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Fr2));
  EXPECT_EQ(*Fr2, Witness.Exe.fr());
  auto Nothing = M->evaluate("nothing", Witness.Exe);
  ASSERT_TRUE(static_cast<bool>(Nothing));
  EXPECT_TRUE(Nothing->empty());
}

TEST(CatEval, ChecksReportNames) {
  auto M = CatModel::fromSource(
      "acyclic po as order\nirreflexive po;rf as silly\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto Results = M->check(Witness.Exe);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Name, "order");
  EXPECT_TRUE(Results[0].Holds);
  EXPECT_EQ(Results[1].Name, "silly");
}

TEST(CatEval, EmptyCheck) {
  auto M = CatModel::fromSource("empty po \\ po as nothing\n", "m");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  Candidate Witness = witnessOf("mp");
  auto Results = M->check(Witness.Exe);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_TRUE(Results[0].Holds);
}

//===----------------------------------------------------------------------===//
// The shipped models agree with the native models on the whole catalogue.
//===----------------------------------------------------------------------===//

struct CrossCase {
  const char *Stem;       ///< models/<stem>.cat
  const char *NativeName; ///< registry name
};

/// Without a printer gtest lists a case as the raw bytes of its two
/// pointers, which move with address-space layout randomisation, so the
/// test's listed name would differ from one build to the next. The stem
/// already names the case; the native model completes it.
static void PrintTo(const CrossCase &Case, std::ostream *OS) {
  *OS << Case.NativeName;
}

class CatCrossValidation : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CatCrossValidation, AgreesWithNativeModelOnCatalog) {
  auto Cat = CatModel::builtin(GetParam().Stem);
  ASSERT_TRUE(static_cast<bool>(Cat)) << Cat.message();
  const Model *Native = modelByName(GetParam().NativeName);
  ASSERT_NE(Native, nullptr);
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (!Cand.Consistent)
        return true;
      EXPECT_EQ(Cat->allows(Cand.Exe), Native->allows(Cand.Exe))
          << GetParam().Stem << " vs " << GetParam().NativeName << " on "
          << Entry.Test.Name << "\n"
          << Cand.Exe.toString();
      return true;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, CatCrossValidation,
    ::testing::Values(CrossCase{"sc", "SC"}, CrossCase{"tso", "TSO"},
                      CrossCase{"cxx-ra", "C++RA"},
                      CrossCase{"power", "Power"}, CrossCase{"arm", "ARM"},
                      CrossCase{"arm-llh", "ARM llh"}),
    [](const ::testing::TestParamInfo<CrossCase> &Info) {
      std::string Name = Info.param.Stem;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(CatBuiltin, MissingModelFileFails) {
  auto M = CatModel::builtin("no-such-model");
  EXPECT_FALSE(static_cast<bool>(M));
}

TEST(CatVariants, NoDetourMatchesStaticConfig) {
  // models/power-nodetour.cat is the Sec. 8.2 static-ppo variant; it must
  // agree with the native HwModel configured without rdw/detour.
  auto Cat = CatModel::builtin("power-nodetour");
  ASSERT_TRUE(static_cast<bool>(Cat)) << Cat.message();
  HwConfig Config = HwConfig::power();
  Config.PpoUsesRdwDetour = false;
  HwModel Native(Config);
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (!Cand.Consistent)
        return true;
      EXPECT_EQ(Cat->allows(Cand.Exe), Native.allows(Cand.Exe))
          << Entry.Test.Name << "\n" << Cand.Exe.toString();
      return true;
    });
  }
}

TEST(CatVariants, NoDetourWeakerThanPower) {
  auto Cat = CatModel::builtin("power-nodetour");
  ASSERT_TRUE(static_cast<bool>(Cat));
  const Model &Power = *modelByName("Power");
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled));
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (!Cand.Consistent)
        return true;
      // Removing ppo edges only weakens: Power-allowed => variant-allowed.
      // (Braces: EXPECT_TRUE expands to an if/else and would otherwise
      // bind to the outer if under -Wdangling-else.)
      if (Power.allows(Cand.Exe)) {
        EXPECT_TRUE(Cat->allows(Cand.Exe)) << Entry.Test.Name;
      }
      return true;
    });
  }
}

TEST(Herd, HerdStyleReportFormat) {
  const CatalogEntry *Entry = catalogEntry("mp");
  ASSERT_NE(Entry, nullptr);
  SimulationResult R = simulate(Entry->Test, *modelByName("Power"));
  std::string Report =
      herdStyleReport(R, R.ConsistentOutcomes, Entry->Test.Final);
  EXPECT_NE(Report.find("Test mp Allowed"), std::string::npos) << Report;
  EXPECT_NE(Report.find("States 4"), std::string::npos) << Report;
  EXPECT_NE(Report.find("Ok"), std::string::npos);
  EXPECT_NE(Report.find("Condition exists"), std::string::npos);
  SimulationResult RSc = simulate(Entry->Test, *modelByName("SC"));
  std::string ReportSc =
      herdStyleReport(RSc, RSc.ConsistentOutcomes, Entry->Test.Final);
  EXPECT_NE(ReportSc.find("Test mp Forbidden"), std::string::npos);
  EXPECT_NE(ReportSc.find("No"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sec. 4.9: the axioms are bricks — disable or weaken them in cat text.
//===----------------------------------------------------------------------===//

TEST(CatAdaptability, DroppingNoThinAirAllowsLb) {
  // A Power model whose NO THIN AIR check is simply deleted (the Sec. 4.9
  // "one can very simply disable the NO THIN AIR check" claim) must allow
  // lb+addrs while keeping mp+lwsync+addr forbidden.
  auto M = CatModel::fromSource(R"(
acyclic po-loc|rf|fr|co as sc-per-location
let dp = addr|data
let rdw = po-loc & (fre;rfe)
let detour = po-loc & (coe;rfe)
let ii0 = dp|rdw|rfi
let ic0 = 0
let ci0 = ctrlisync|detour
let cc0 = dp|po-loc|ctrl|(addr;po)
let rec ii = ii0|ci|(ic;ci)|(ii;ii)
and ic = ic0|ii|cc|(ic;cc)|(ii;ic)
and ci = ci0|(ci;ii)|(cc;ci)
and cc = cc0|ci|(ci;ic)|(cc;cc)
let ppo = RR(ii)|RW(ic)
let fence = RM(lwsync)|WW(lwsync)|sync
let hb = ppo|fence|rfe
let prop-base = (fence|(rfe;fence));hb*
let prop = WW(prop-base)|(com*;prop-base*;sync;hb*)
irreflexive fre;prop;hb* as observation
acyclic co|prop as propagation
)",
                                "power-no-thin-air");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();

  auto CheckReachable = [&](const char *TestName) {
    const CatalogEntry *Entry = catalogEntry(TestName);
    EXPECT_NE(Entry, nullptr);
    auto Compiled = CompiledTest::compile(Entry->Test);
    EXPECT_TRUE(static_cast<bool>(Compiled));
    bool Reachable = false;
    forEachCandidate(*Compiled, [&](const Candidate &Cand) {
      if (Cand.Consistent && Cand.Out.satisfies(Entry->Test.Final) &&
          M->allows(Cand.Exe))
        Reachable = true;
      return true;
    });
    return Reachable;
  };

  EXPECT_TRUE(CheckReachable("lb+addrs"))
      << "without NO THIN AIR, lb becomes allowed (the Java/C++ stance)";
  EXPECT_FALSE(CheckReachable("mp+lwsync+addr"))
      << "OBSERVATION still forbids mp";
}

TEST(CatAdaptability, RestrictingScPerLocationAllowsCoRR) {
  // The Sec. 4.9 load-load-hazard weakening, as one line of cat.
  auto M = CatModel::fromSource(R"(
let po-loc-llh = po-loc \ RR(po-loc)
acyclic po-loc-llh|rf|fr|co as sc-per-location
)",
                                "llh-only");
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  const CatalogEntry *CoRR = catalogEntry("coRR");
  ASSERT_NE(CoRR, nullptr);
  bool Reachable = false;
  auto Compiled = CompiledTest::compile(CoRR->Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (Cand.Consistent && Cand.Out.satisfies(CoRR->Test.Final) &&
        M->allows(Cand.Exe))
      Reachable = true;
    return true;
  });
  EXPECT_TRUE(Reachable);
}
