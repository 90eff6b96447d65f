//===- diy.cpp - Tests for the diy test generator ----------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "diy/Diy.h"
#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "model/Registry.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace cats;

namespace {

DiyCycle familyCycle(const std::string &Name) {
  for (const auto &[Family, Cycle] : classicFamilies())
    if (Family == Name)
      return Cycle;
  ADD_FAILURE() << "unknown family " << Name;
  return {};
}

} // namespace

/// Substitutes mechanisms on the po edges, in order.
#define WITH_MECHS(Cycle, ...)                                              \
  [&] {                                                                     \
    DiyCycle C = Cycle;                                                     \
    std::vector<std::pair<PoMech, std::string>> M = __VA_ARGS__;            \
    size_t K = 0;                                                           \
    for (DiyEdge &E : C)                                                    \
      if (E.Kind == EdgeKind::Po && K < M.size()) {                         \
        E.Mech = M[K].first;                                                \
        E.FenceName = M[K].second;                                          \
        ++K;                                                                \
      }                                                                     \
    return C;                                                               \
  }()

TEST(Diy, EdgeNames) {
  EXPECT_EQ(DiyEdge::rfe().toString(), "Rfe");
  EXPECT_EQ(DiyEdge::fre().toString(), "Fre");
  EXPECT_EQ(DiyEdge::wse().toString(), "Wse");
  EXPECT_EQ(DiyEdge::po(Dir::R, Dir::W).toString(), "PodRW");
  EXPECT_EQ(DiyEdge::po(Dir::R, Dir::R, PoMech::Addr).toString(),
            "DpAddrdR");
  EXPECT_EQ(
      DiyEdge::po(Dir::W, Dir::W, PoMech::Fence, "sync").toString(),
      "FencedWW:sync");
}

TEST(Diy, ClassicFamilyNames) {
  for (const auto &[Family, Cycle] : classicFamilies())
    EXPECT_EQ(cycleName(Cycle), Family);
}

TEST(Diy, MpSynthesis) {
  auto Test = synthesizeTest(familyCycle("mp"), Arch::Power);
  ASSERT_TRUE(static_cast<bool>(Test)) << Test.message();
  EXPECT_EQ(Test->Name, "mp");
  EXPECT_EQ(Test->numThreads(), 2u);
  // Same verdicts as the hand-written catalogue mp.
  EXPECT_TRUE(allowedBy(*Test, *modelByName("Power")));
  EXPECT_FALSE(allowedBy(*Test, *modelByName("TSO")));
  EXPECT_FALSE(allowedBy(*Test, *modelByName("SC")));
}

TEST(Diy, MpLwsyncAddrSynthesis) {
  DiyCycle Cycle = WITH_MECHS(
      familyCycle("mp"),
      {{PoMech::Fence, "lwsync"}, {PoMech::Addr, ""}});
  auto Test = synthesizeTest(Cycle, Arch::Power);
  ASSERT_TRUE(static_cast<bool>(Test)) << Test.message();
  EXPECT_EQ(Test->Name, "mp+lwsync+addr");
  EXPECT_FALSE(allowedBy(*Test, *modelByName("Power")));
}

TEST(Diy, EveryFamilyMatchesCatalogueVerdicts) {
  // Bare families must agree with the catalogue's bare entries on Power.
  struct Pair {
    const char *Family;
    const char *CatalogName;
  };
  for (const Pair &P :
       {Pair{"mp", "mp"}, Pair{"sb", "sb"}, Pair{"lb", "lb"},
        Pair{"s", "s"}, Pair{"2+2w", "2+2w"}, Pair{"isa2", "isa2"},
        Pair{"w+rw+2w", "w+rw+2w"}, Pair{"wrc", "wrc+addrs"}}) {
    auto Test = synthesizeTest(familyCycle(P.Family), Arch::Power);
    ASSERT_TRUE(static_cast<bool>(Test)) << P.Family;
    const CatalogEntry *Entry = catalogEntry(P.CatalogName);
    ASSERT_NE(Entry, nullptr) << P.CatalogName;
    auto It = Entry->Expected.find("Power");
    if (It == Entry->Expected.end())
      continue;
    // A bare diy test is at least as weak as any fenced catalogue variant:
    // when the catalogue bare test is allowed, so is ours.
    EXPECT_EQ(allowedBy(*Test, *modelByName("Power")), It->second)
        << P.Family;
  }
}

TEST(Diy, SyncedFamiliesForbiddenOnPower) {
  // Full fences everywhere forbid every classic family.
  for (const auto &[Family, Base] : classicFamilies()) {
    DiyCycle Cycle = Base;
    for (DiyEdge &E : Cycle)
      if (E.Kind == EdgeKind::Po) {
        E.Mech = PoMech::Fence;
        E.FenceName = "sync";
      }
    auto Test = synthesizeTest(Cycle, Arch::Power);
    ASSERT_TRUE(static_cast<bool>(Test)) << Family;
    EXPECT_FALSE(allowedBy(*Test, *modelByName("Power")))
        << Family << " with syncs must be forbidden";
  }
}

TEST(Diy, LwsyncClassifiesFamilies) {
  // lwsync everywhere forbids mp/wrc/isa2/2+2w/w+rw+2w/s/lb but not
  // sb/rwc/r/iriw (Sec. 4.7 fence-placement rules).
  std::map<std::string, bool> LwsyncForbids = {
      {"mp", true},      {"wrc", true},  {"isa2", true},
      {"2+2w", true},    {"w+rw+2w", true}, {"s", true},
      {"lb", true},      {"sb", false},  {"rwc", false},
      {"r", false},      {"iriw", false}};
  for (const auto &[Family, Base] : classicFamilies()) {
    DiyCycle Cycle = Base;
    for (DiyEdge &E : Cycle)
      if (E.Kind == EdgeKind::Po) {
        E.Mech = PoMech::Fence;
        E.FenceName = "lwsync";
      }
    auto Test = synthesizeTest(Cycle, Arch::Power);
    ASSERT_TRUE(static_cast<bool>(Test)) << Family;
    bool Allowed = allowedBy(*Test, *modelByName("Power"));
    EXPECT_EQ(!Allowed, LwsyncForbids[Family]) << Family << "+lwsyncs";
  }
}

TEST(Diy, RejectsMalformedCycles) {
  // Direction mismatch.
  DiyCycle Bad = {DiyEdge::rfe(), DiyEdge::rfe()};
  EXPECT_FALSE(static_cast<bool>(synthesizeTest(Bad, Arch::Power)));
  // Data dependency to a read.
  DiyCycle BadData = {DiyEdge::po(Dir::R, Dir::R, PoMech::Data),
                      DiyEdge::rfe(), DiyEdge::po(Dir::R, Dir::W),
                      DiyEdge::rfe()};
  EXPECT_FALSE(static_cast<bool>(synthesizeTest(BadData, Arch::Power)));
  // Single-thread cycle.
  DiyCycle OneThread = {DiyEdge::po(Dir::W, Dir::W)};
  EXPECT_FALSE(static_cast<bool>(synthesizeTest(OneThread, Arch::Power)));
  // Wrong fence for the architecture.
  DiyCycle BadFence = WITH_MECHS(
      familyCycle("mp"),
      {{PoMech::Fence, "dmb"}, {PoMech::None, ""}});
  EXPECT_FALSE(static_cast<bool>(synthesizeTest(BadFence, Arch::Power)));
  // One location per po edge, and eight location names: sb widened to
  // eight threads synthesizes, to nine is refused with a diagnostic.
  DiyCycle Wide;
  for (int Thread = 0; Thread < 8; ++Thread) {
    Wide.push_back(DiyEdge::po(Dir::W, Dir::R));
    Wide.push_back(DiyEdge::fre());
  }
  EXPECT_TRUE(static_cast<bool>(synthesizeTest(Wide, Arch::SC)));
  Wide.push_back(DiyEdge::po(Dir::W, Dir::R));
  Wide.push_back(DiyEdge::fre());
  auto TooWide = synthesizeTest(Wide, Arch::SC);
  ASSERT_FALSE(static_cast<bool>(TooWide));
  EXPECT_NE(TooWide.message().find("9 locations"), std::string::npos)
      << TooWide.message();
}

TEST(Diy, ValidatesFenceVocabularyUpFront) {
  // A fence mechanism with no name is a malformed cycle, not a silently
  // emitted unknown fence.
  DiyCycle NoName = WITH_MECHS(
      familyCycle("mp"), {{PoMech::Fence, ""}, {PoMech::None, ""}});
  auto Unnamed = synthesizeTest(NoName, Arch::Power);
  ASSERT_FALSE(static_cast<bool>(Unnamed));
  EXPECT_NE(Unnamed.message().find("no fence name"), std::string::npos)
      << Unnamed.message();
  // A fence from another architecture names the vocabulary in the error.
  DiyCycle Wrong = WITH_MECHS(
      familyCycle("mp"), {{PoMech::Fence, "mfence"}, {PoMech::None, ""}});
  auto Foreign = synthesizeTest(Wrong, Arch::Power);
  ASSERT_FALSE(static_cast<bool>(Foreign));
  EXPECT_NE(Foreign.message().find("fence vocabulary"), std::string::npos)
      << Foreign.message();
  // ctrl+cfence needs the architecture to have a control fence at all.
  DiyCycle Cfence = WITH_MECHS(
      familyCycle("mp"), {{PoMech::None, ""}, {PoMech::CtrlCfence, ""}});
  auto NoCfence = synthesizeTest(Cfence, Arch::TSO);
  ASSERT_FALSE(static_cast<bool>(NoCfence));
  EXPECT_NE(NoCfence.message().find("ctrl+cfence"), std::string::npos)
      << NoCfence.message();
  // The same cycle is fine where the control fence exists.
  EXPECT_TRUE(static_cast<bool>(synthesizeTest(Cfence, Arch::Power)));
  EXPECT_TRUE(static_cast<bool>(synthesizeTest(Cfence, Arch::ARM)));
}

TEST(Diy, BatteryIsDeterministic) {
  for (Arch A : {Arch::Power, Arch::ARM, Arch::TSO}) {
    auto First = generateBattery(A, 6);
    auto Second = generateBattery(A, 6);
    ASSERT_EQ(First.size(), Second.size()) << archName(A);
    for (size_t I = 0; I < First.size(); ++I) {
      EXPECT_EQ(First[I].Name, Second[I].Name);
      EXPECT_EQ(First[I].toString(), Second[I].toString());
    }
  }
}

TEST(Diy, CycleNameRoundTripsOnClassicFamilies) {
  // The family name is rotation-invariant, and the synthesized test's
  // name round-trips through cycleName for every classic family.
  for (const auto &[Family, Cycle] : classicFamilies()) {
    DiyCycle Rotated = Cycle;
    for (size_t R = 0; R < Cycle.size(); ++R) {
      EXPECT_EQ(cycleName(Rotated), Family) << "rotation " << R;
      std::rotate(Rotated.begin(), Rotated.begin() + 1, Rotated.end());
    }
    auto Test = synthesizeTest(Cycle, Arch::Power);
    ASSERT_TRUE(static_cast<bool>(Test)) << Family;
    EXPECT_EQ(Test->Name, cycleName(Cycle)) << Family;
  }
}

TEST(Diy, CycleNameCanonicalSuffixOrder) {
  // Mechanism suffixes follow the family's conventional rotation. For
  // rotation-asymmetric families the first po edge of the hand-coded
  // cycle keeps its leading position; rotation-symmetric families (sb,
  // lb, 2+2w, iriw) canonicalize to the lexicographically-least rotation,
  // so "lwsync" sorts ahead of "sync" regardless of assignment order.
  std::map<std::string, std::string> Expected = {
      {"mp", "mp+sync+lwsync"},       {"wrc", "wrc+sync+lwsync"},
      {"rwc", "rwc+sync+lwsync"},     {"r", "r+sync+lwsync"},
      {"s", "s+sync+lwsync"},         {"sb", "sb+lwsync+sync"},
      {"lb", "lb+lwsync+sync"},       {"2+2w", "2+2w+lwsync+sync"},
      {"iriw", "iriw+lwsync+sync"}};
  for (const auto &[Family, Name] : Expected) {
    DiyCycle Cycle = familyCycle(Family);
    unsigned PoEdges = 0;
    for (DiyEdge &E : Cycle)
      if (E.Kind == EdgeKind::Po) {
        E.Mech = PoMech::Fence;
        E.FenceName = PoEdges++ ? "lwsync" : "sync";
      }
    EXPECT_EQ(cycleName(Cycle), Name) << Family;
  }
}

TEST(Diy, CycleNameIsRotationInvariantWithMechanisms) {
  // The canonicalization contract: every rotation of a cycle — including
  // mechanism-carrying ones — maps to the same canonical cycle and name.
  for (const auto &[Family, Base] : classicFamilies()) {
    DiyCycle Cycle = Base;
    unsigned PoEdges = 0;
    for (DiyEdge &E : Cycle)
      if (E.Kind == EdgeKind::Po) {
        E.Mech = PoEdges % 2 ? PoMech::Fence : PoMech::None;
        E.FenceName = PoEdges % 2 ? "lwsync" : "";
        ++PoEdges;
      }
    const std::string Name = cycleName(Cycle);
    const DiyCycle Canonical = canonicalCycle(Cycle);
    DiyCycle Rotated = Cycle;
    for (size_t R = 0; R < Cycle.size(); ++R) {
      EXPECT_EQ(cycleName(Rotated), Name) << Family << " rotation " << R;
      const DiyCycle RotCanonical = canonicalCycle(Rotated);
      ASSERT_EQ(RotCanonical.size(), Canonical.size());
      for (size_t I = 0; I < Canonical.size(); ++I)
        EXPECT_EQ(RotCanonical[I].toString(), Canonical[I].toString())
            << Family << " rotation " << R << " edge " << I;
      std::rotate(Rotated.begin(), Rotated.begin() + 1, Rotated.end());
    }
  }
}

TEST(Diy, DataDependencyKeepsValues) {
  DiyCycle Cycle = WITH_MECHS(
      familyCycle("lb"), {{PoMech::Data, ""}, {PoMech::Data, ""}});
  auto Test = synthesizeTest(Cycle, Arch::Power);
  ASSERT_TRUE(static_cast<bool>(Test)) << Test.message();
  // The stored values must still be the assigned constants: the witness
  // candidate (both reads see 1) must exist and be forbidden by NO THIN
  // AIR on Power.
  SimulationResult R = simulate(*Test, *modelByName("Power"));
  EXPECT_FALSE(R.ConditionReachable) << "lb+datas is forbidden";
  bool WitnessExists = false;
  for (size_t I = 0; I < R.ConsistentOutcomes.size(); ++I)
    if (outcomeFromKey(R.ConsistentOutcomes.key(I))->satisfies(Test->Final))
      WitnessExists = true;
  EXPECT_TRUE(WitnessExists)
      << "the data-dependency synthesis must preserve written values";
}

TEST(Diy, BatterySizesAndValidity) {
  auto Battery = generateBattery(Arch::Power);
  EXPECT_GT(Battery.size(), 300u);
  std::set<std::string> Names;
  for (const LitmusTest &Test : Battery) {
    EXPECT_EQ(Test.validate(), "") << Test.Name;
    Names.insert(Test.Name);
  }
  // Names are unique across the battery.
  EXPECT_EQ(Names.size(), Battery.size());
}

TEST(Diy, TsoBatteryUsesMfenceOnly) {
  auto Battery = generateBattery(Arch::TSO);
  EXPECT_GT(Battery.size(), 10u);
  for (const LitmusTest &Test : Battery)
    for (const ThreadCode &Thread : Test.Threads)
      for (const Instruction &Instr : Thread)
        if (Instr.Op == Opcode::Fence) {
          EXPECT_EQ(Instr.FenceName, "mfence") << Test.Name;
        }
}

TEST(Diy, BatteryCapRespected) {
  auto Battery = generateBattery(Arch::Power, 3);
  EXPECT_EQ(Battery.size(), 3u * classicFamilies().size());
}

TEST(Diy, ArmBatteryCompiles) {
  auto Battery = generateBattery(Arch::ARM, 8);
  for (const LitmusTest &Test : Battery) {
    auto Compiled = CompiledTest::compile(Test);
    EXPECT_TRUE(static_cast<bool>(Compiled)) << Test.Name;
  }
}

//===----------------------------------------------------------------------===//
// Internal communication edges (fri-rfi and friends, Figs. 32/33).
//===----------------------------------------------------------------------===//

TEST(DiyInternal, EdgeNames) {
  EXPECT_EQ(DiyEdge::rfi().toString(), "Rfi");
  EXPECT_EQ(DiyEdge::fri().toString(), "Fri");
  EXPECT_EQ(DiyEdge::wsi().toString(), "Wsi");
  EXPECT_TRUE(isInternalComEdge(EdgeKind::Rfi));
  EXPECT_FALSE(isInternalComEdge(EdgeKind::Rfe));
  EXPECT_TRUE(isExternalEdge(EdgeKind::Wse));
  EXPECT_FALSE(isExternalEdge(EdgeKind::Wsi));
}

TEST(DiyInternal, FriRfiSynthesisMatchesFig32) {
  // mp+dmb+fri-rfi-ctrlisb as a cycle: W -dmb- W -rfe- R -fri- W -rfi- R
  // -ctrlisb- R -fre- back.
  DiyCycle Cycle = {
      DiyEdge::po(Dir::W, Dir::W, PoMech::Fence, "dmb"),
      DiyEdge::rfe(),
      DiyEdge::fri(),
      DiyEdge::rfi(),
      DiyEdge::po(Dir::R, Dir::R, PoMech::CtrlCfence),
      DiyEdge::fre(),
  };
  auto Test = synthesizeTest(Cycle, Arch::ARM, "mp+dmb+fri-rfi-ctrlisb");
  ASSERT_TRUE(static_cast<bool>(Test)) << Test.message();
  EXPECT_EQ(Test->numThreads(), 2u);
  // Same split as the catalogue entry: the proposed ARM model allows the
  // early-commit behaviour, Power-ARM forbids it.
  EXPECT_TRUE(allowedBy(*Test, *modelByName("ARM")))
      << "proposed ARM allows fri-rfi early commit";
  EXPECT_FALSE(allowedBy(*Test, *modelByName("Power-ARM")))
      << "the Power shape of cc0 forbids it";
}

TEST(DiyInternal, SDmbFriRfiData) {
  // s+dmb+fri-rfi-data (Fig. 33) via the generator.
  DiyCycle Cycle = {
      DiyEdge::po(Dir::W, Dir::W, PoMech::Fence, "dmb"),
      DiyEdge::rfe(),
      DiyEdge::fri(),
      DiyEdge::rfi(),
      DiyEdge::po(Dir::R, Dir::W, PoMech::Data),
      DiyEdge::wse(),
  };
  auto Test = synthesizeTest(Cycle, Arch::ARM);
  ASSERT_TRUE(static_cast<bool>(Test)) << Test.message();
  EXPECT_TRUE(allowedBy(*Test, *modelByName("ARM")));
  EXPECT_FALSE(allowedBy(*Test, *modelByName("Power-ARM")));
}

TEST(DiyInternal, WsiRfiShape) {
  // lb+data+data-wsi-rfi-addr-like: a wsi-rfi detour inside a thread.
  DiyCycle Cycle = {
      DiyEdge::po(Dir::R, Dir::W, PoMech::Data),
      DiyEdge::rfe(),
      DiyEdge::po(Dir::R, Dir::W, PoMech::Data),
      DiyEdge::wsi(),
      DiyEdge::rfi(),
      DiyEdge::po(Dir::R, Dir::W, PoMech::Addr),
      DiyEdge::rfe(),
  };
  auto Test = synthesizeTest(Cycle, Arch::ARM);
  ASSERT_TRUE(static_cast<bool>(Test)) << Test.message();
  EXPECT_TRUE(allowedBy(*Test, *modelByName("ARM")));
  EXPECT_FALSE(allowedBy(*Test, *modelByName("Power-ARM")));
}

TEST(DiyInternal, CoherenceRespectsRfThenFr) {
  // In fri-rfi shapes the rfe source must be co-before the fri target;
  // the generated condition pins that (final y = value of the fri
  // target).
  DiyCycle Cycle = {
      DiyEdge::po(Dir::W, Dir::W, PoMech::Fence, "dmb"),
      DiyEdge::rfe(),
      DiyEdge::fri(),
      DiyEdge::rfi(),
      DiyEdge::po(Dir::R, Dir::R, PoMech::CtrlCfence),
      DiyEdge::fre(),
  };
  auto Test = synthesizeTest(Cycle, Arch::ARM);
  ASSERT_TRUE(static_cast<bool>(Test)) << Test.message();
  // The condition must be satisfiable by some consistent candidate.
  auto Compiled = CompiledTest::compile(*Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  bool Witness = false;
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (Cand.Consistent && Cand.Out.satisfies(Test->Final))
      Witness = true;
    return true;
  });
  EXPECT_TRUE(Witness) << Test->toString();
}

TEST(DiyInternal, DetourChainsKeepNamesInjective) {
  // An rfi detour and a fri detour share per-thread direction strings
  // ("wrw" threads both ways) but are different cycles; the suffix
  // chains spell the internal edges, so the names differ.
  DiyCycle RfiDetour = {DiyEdge::rfi(), DiyEdge::po(Dir::R, Dir::W),
                        DiyEdge::wse(), DiyEdge::po(Dir::W, Dir::W),
                        DiyEdge::wse()};
  DiyCycle FriDetour = {DiyEdge::po(Dir::W, Dir::R), DiyEdge::fri(),
                        DiyEdge::wse(), DiyEdge::po(Dir::W, Dir::W),
                        DiyEdge::wse()};
  const std::string RfiName = cycleName(RfiDetour);
  const std::string FriName = cycleName(FriDetour);
  EXPECT_NE(RfiName, FriName);
  EXPECT_NE(RfiName.find("rfi"), std::string::npos) << RfiName;
  EXPECT_NE(FriName.find("fri"), std::string::npos) << FriName;
  // The paper's chain notation: a thread's internal edges and its po
  // mechanism hyphen-join into one suffix.
  DiyCycle Fig32 = {
      DiyEdge::po(Dir::W, Dir::W, PoMech::Fence, "dmb"),
      DiyEdge::rfe(),
      DiyEdge::fri(),
      DiyEdge::rfi(),
      DiyEdge::po(Dir::R, Dir::R, PoMech::CtrlCfence),
      DiyEdge::fre(),
  };
  EXPECT_NE(cycleName(Fig32, Arch::ARM).find("fri-rfi-ctrlisb"),
            std::string::npos)
      << cycleName(Fig32, Arch::ARM);
}

TEST(DiyInternal, SystematicNamesCountInternalAccesses) {
  DiyCycle Cycle = {
      DiyEdge::po(Dir::W, Dir::W, PoMech::Fence, "dmb"),
      DiyEdge::rfe(),
      DiyEdge::fri(),
      DiyEdge::rfi(),
      DiyEdge::po(Dir::R, Dir::R, PoMech::CtrlCfence),
      DiyEdge::fre(),
  };
  std::string Name = cycleName(Cycle);
  // T0 contributes "ww", T1 "rwrr" (read, fri write, rfi read, read).
  EXPECT_NE(Name.find("ww"), std::string::npos) << Name;
  EXPECT_NE(Name.find("rwrr"), std::string::npos) << Name;
}
