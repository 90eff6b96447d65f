//===- bmc.cpp - Tests for the verification substrate -------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "bmc/Verify.h"
#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "model/Registry.h"

#include <gtest/gtest.h>

using namespace cats;

namespace {

const LitmusTest &catalogTest(const char *Name) {
  const CatalogEntry *Entry = catalogEntry(Name);
  EXPECT_NE(Entry, nullptr) << Name;
  return Entry->Test;
}

} // namespace

TEST(Verify, MethodsAgreeOnReachability) {
  const Model &Power = *modelByName("Power");
  for (const char *Name : {"mp", "mp+lwsync+addr", "sb+syncs", "sb",
                           "2+2w", "iriw+lwsyncs", "r+lwsync+sync"}) {
    const LitmusTest &Test = catalogTest(Name);
    VerifyResult Ax = verifyAxiomatic(Test, Power);
    VerifyResult Multi = verifyMultiEvent(Test, Power);
    VerifyResult Op = verifyOperational(Test, Power);
    EXPECT_EQ(Ax.Reachable, Multi.Reachable) << Name;
    EXPECT_EQ(Ax.Reachable, Op.Reachable) << Name;
    EXPECT_FALSE(Op.Incomplete) << Name;
  }
}

TEST(Verify, ReachabilityMatchesCatalogue) {
  const Model &Power = *modelByName("Power");
  EXPECT_TRUE(verifyAxiomatic(catalogTest("mp"), Power).Reachable);
  EXPECT_FALSE(
      verifyAxiomatic(catalogTest("mp+lwsync+addr"), Power).Reachable);
}

TEST(Verify, OperationalCostsMore) {
  // The Table X/XI story: operational work (machine states) dwarfs the
  // axiomatic work (candidates) on forbidden tests.
  const Model &Power = *modelByName("Power");
  const LitmusTest &Test = catalogTest("iriw+syncs");
  VerifyResult Ax = verifyAxiomatic(Test, Power);
  VerifyResult Op = verifyOperational(Test, Power);
  EXPECT_FALSE(Ax.Reachable);
  EXPECT_GT(Op.Work, Ax.Work);
}

TEST(Verify, StateLimitMarksIncomplete) {
  const Model &Power = *modelByName("Power");
  VerifyResult Op =
      verifyOperational(catalogTest("iriw+syncs"), Power, 3);
  EXPECT_TRUE(Op.Incomplete);
}

TEST(Verify, WorkCountsCandidates) {
  const Model &Sc = *modelByName("SC");
  VerifyResult Ax = verifyAxiomatic(catalogTest("mp"), Sc);
  // mp has 4 candidates; an early witness may cut the walk short.
  EXPECT_GE(Ax.Work, 1u);
  EXPECT_LE(Ax.Work, 4u);
}

TEST(Verify, TimingsAreRecorded) {
  const Model &Power = *modelByName("Power");
  VerifyResult Ax = verifyAxiomatic(catalogTest("iriw+syncs"), Power);
  EXPECT_GE(Ax.Seconds, 0.0);
}

//===--------------------------------------------------------------------===//
// Catalogue-scope agreement of the verification facade: every figure of
// the paper, under SC, TSO and Power. Both axiomatic methods must
// reproduce the judge's reachability verdict, and their work counters
// (candidates walked before the first witness) never exceed the
// exhaustive candidate count.
//===--------------------------------------------------------------------===//

class BmcCatalog : public ::testing::TestWithParam<size_t> {};

TEST_P(BmcCatalog, AgreesWithEnumerator) {
  const CatalogEntry &Entry = figureCatalog()[GetParam()];
  std::vector<const Model *> Models = {
      modelByName("SC"), modelByName("TSO"), modelByName("Power")};
  MultiSimulationResult Judged = simulateAll(Entry.Test, Models);

  for (const Model *M : Models) {
    const bool Reachable = Judged.forModel(M->name())->ConditionReachable;
    for (const VerifyResult &V : {verifyAxiomatic(Entry.Test, *M),
                                  verifyMultiEvent(Entry.Test, *M)}) {
      EXPECT_EQ(V.Reachable, Reachable) << V.Method;
      EXPECT_LE(V.Work, Judged.CandidatesTotal) << V.Method;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFigures, BmcCatalog,
    ::testing::Range<size_t>(0, figureCatalog().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = figureCatalog()[Info.param].Test.Name;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
