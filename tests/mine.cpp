//===- mine.cpp - Tests for corpus data-mining ----------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "diy/Enumerate.h"
#include "litmus/TestFilter.h"
#include "model/Registry.h"
#include "mole/Mine.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

using namespace cats;

TEST(Mine, CycleFamilyOfStripsMechanismSuffixes) {
  EXPECT_EQ(cycleFamilyOf("mp"), "mp");
  EXPECT_EQ(cycleFamilyOf("mp+lwsync+addr"), "mp");
  EXPECT_EQ(cycleFamilyOf("sb+syncs"), "sb");
  EXPECT_EQ(cycleFamilyOf("iriw+dmbs"), "iriw");
  EXPECT_EQ(cycleFamilyOf("2+2w"), "2+2w");
  EXPECT_EQ(cycleFamilyOf("2+2w+lwsyncs"), "2+2w");
  EXPECT_EQ(cycleFamilyOf("w+rw+2w+lwsyncs"), "w+rw+2w");
  EXPECT_EQ(cycleFamilyOf("mp+dmb+fri-rfi-ctrlisb"), "mp");
  EXPECT_EQ(cycleFamilyOf("mp+lwsync+addr-po-detour"), "mp");
  EXPECT_EQ(cycleFamilyOf("mp+dmb+pos-ctrlisb+bis"), "mp");
  EXPECT_EQ(cycleFamilyOf("lb+data+data-wsi-rfi-addr"), "lb");
  EXPECT_EQ(cycleFamilyOf("w+rwc+eieio+addr+sync"), "w+rwc");
  // Direction strings and family fragments are not mechanisms.
  EXPECT_EQ(cycleFamilyOf("ww+rw+r"), "ww+rw+r");
  EXPECT_EQ(cycleFamilyOf("w+rr+wr"), "w+rr+wr");
  EXPECT_EQ(cycleFamilyOf("moredetour0052"), "moredetour0052");
  // Names never fold to nothing.
  EXPECT_EQ(cycleFamilyOf("sync"), "sync");
}

namespace {

/// Sweeps the plain-po Power enumeration at \p MaxEdges under SC + Power.
SweepReport sweepPlainSlice(unsigned MaxEdges) {
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MaxEdges = MaxEdges;
  Opts.Dependencies = false;
  Opts.Fences = false;
  auto Source = makeDiyTestSource(Opts);
  EXPECT_TRUE(static_cast<bool>(Source)) << Source.message();
  SweepEngine Engine(SweepOptions{2});
  return Engine.runStreamed(
      *Source, {modelByName("SC"), modelByName("Power")}, 16);
}

} // namespace

TEST(Mine, ClassicFamiliesObservedOnPowerForbiddenUnderSc) {
  // The acceptance criterion: mining a generated slice reproduces the
  // classic-family verdicts — mp/sb/lb/wrc/iriw observable on Power,
  // forbidden under SC.
  MineReport Mined = mineSweepReport(sweepPlainSlice(6));
  EXPECT_EQ(Mined.CorpusTests, 47u);
  EXPECT_EQ(Mined.CorpusErrors, 0u);
  ASSERT_EQ(Mined.Models,
            (std::vector<std::string>{"SC", "Power"}));
  for (const char *Family : {"mp", "sb", "lb", "wrc", "iriw"}) {
    const FamilyVerdicts *F = Mined.family(Family);
    ASSERT_NE(F, nullptr) << Family;
    EXPECT_EQ(F->Tests, 1u) << Family;
    EXPECT_TRUE(F->observedOn("Power")) << Family;
    EXPECT_TRUE(F->forbiddenUnder("SC")) << Family;
  }
  // Every plain critical cycle is an SC violation by construction.
  for (const FamilyVerdicts &F : Mined.Families)
    EXPECT_TRUE(F.forbiddenUnder("SC")) << F.Family;
}

TEST(Mine, FamiliesAggregateMechanismVariants) {
  // A fenced slice folds onto its family: mp variants split between
  // observed (bare, weak fences) and forbidden (sync/lwsync+addr) but
  // all land under "mp".
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MaxEdges = 4;
  auto Source = makeDiyTestSource(Opts, "^mp");
  ASSERT_TRUE(static_cast<bool>(Source));
  SweepEngine Engine(SweepOptions{2});
  SweepReport Report = Engine.runStreamed(
      *Source, {modelByName("Power")}, 16);
  MineReport Mined = mineSweepReport(Report);
  ASSERT_EQ(Mined.Families.size(), 1u);
  const FamilyVerdicts &Mp = Mined.Families[0];
  EXPECT_EQ(Mp.Family, "mp");
  EXPECT_GT(Mp.Tests, 10u);
  const FamilyModelStats *Power = Mp.forModel("Power");
  ASSERT_NE(Power, nullptr);
  EXPECT_GT(Power->Allowed, 0u);
  EXPECT_GT(Power->Forbidden, 0u);
  EXPECT_EQ(Power->Allowed + Power->Forbidden, Mp.Tests);
}

TEST(Mine, JsonReportRoundTripsAndCrossReferences) {
  MineReport Mined = mineSweepReport(sweepPlainSlice(4));
  // A static program that relies on message passing: the writer writes
  // the payload then the flag, the reader reads the flag then the
  // payload — mole names the mp idiom.
  MoleProgram Program;
  Program.Name = "mp-idiom";
  Program.Functions.push_back(
      {"writer", {MoleAccess::write("data"), MoleAccess::write("flag")}});
  Program.Functions.push_back(
      {"reader", {MoleAccess::read("flag"), MoleAccess::read("data")}});
  MoleReport Static = analyzeProgram(Program);
  EXPECT_GT(Static.patternCounts().count("mp"), 0u);
  Mined.StaticReports.push_back(Static);

  JsonValue Json = mineReportToJson(Mined);
  EXPECT_EQ(Json.get("schema")->asString(), "cats-mine-report/1");
  auto Parsed = JsonValue::parse(Json.dump());
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(*Parsed, Json);

  const JsonValue *Corpus = Json.get("corpus");
  ASSERT_NE(Corpus, nullptr);
  EXPECT_EQ(Corpus->get("tests")->asNumber(), 6);
  ASSERT_NE(Corpus->get("families"), nullptr);
  EXPECT_EQ(Corpus->get("families")->elements().size(), 6u);

  // The static mp pattern cross-references the corpus verdicts.
  const JsonValue *Static2 = Json.get("static");
  ASSERT_NE(Static2, nullptr);
  ASSERT_EQ(Static2->elements().size(), 1u);
  const JsonValue *Patterns = Static2->elements()[0].get("patterns");
  ASSERT_NE(Patterns, nullptr);
  bool FoundMp = false;
  for (const JsonValue &P : Patterns->elements()) {
    if (P.get("pattern")->asString() != "mp")
      continue;
    FoundMp = true;
    ASSERT_NE(P.get("observed_on"), nullptr);
    bool PowerObserved = false;
    for (const JsonValue &M : P.get("observed_on")->elements())
      if (M.asString() == "Power")
        PowerObserved = true;
    EXPECT_TRUE(PowerObserved);
  }
  EXPECT_TRUE(FoundMp);
}

TEST(Mine, StreamedFileCorpusMines) {
  // stageCampaignTests over the on-disk corpus feeds the miner the same
  // way the generated corpus does.
  std::vector<std::string> Errors;
  auto Source =
      stageCampaignTests({CATS_LITMUS_DIR}, false, "^(mp|sb)", &Errors);
  ASSERT_TRUE(static_cast<bool>(Source)) << Source.message();
  SweepEngine Engine(SweepOptions{2});
  SweepReport Report = Engine.runStreamed(
      *Source, {modelByName("SC"), modelByName("Power")}, 8);
  EXPECT_TRUE(Errors.empty());
  MineReport Mined = mineSweepReport(Report);
  const FamilyVerdicts *Mp = Mined.family("mp");
  ASSERT_NE(Mp, nullptr);
  EXPECT_GT(Mp->Tests, 5u);
  EXPECT_TRUE(Mp->observedOn("Power"));
  EXPECT_TRUE(Mp->forbiddenUnder("SC"));
  const FamilyVerdicts *Sb = Mined.family("sb");
  ASSERT_NE(Sb, nullptr);
  EXPECT_TRUE(Sb->forbiddenUnder("SC"));
}
