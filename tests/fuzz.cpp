//===- fuzz.cpp - Randomised cross-validation of all engines -----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based sweeps over randomly generated litmus tests. Every
/// engine the repository ships must agree where theory says it must:
///
///  * the cat-interpreted models == the native models (Fig. 38 is the
///    model);
///  * the intermediate machine == the axiomatic model (Thm. 7.1);
///  * multi-event == single-event (the blow-up is verdict-preserving);
///  * the micro-event dependency derivation == the compiler's taints;
///  * SC ⊆ TSO ⊆ Power on fence-free programs (model weakening).
///
//===----------------------------------------------------------------------===//

#include "cat/CatModel.h"
#include "herd/MultiEvent.h"
#include "herd/Simulator.h"
#include "litmus/MicroSemantics.h"
#include "machine/IntermediateMachine.h"
#include "model/Registry.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace cats;

namespace {

/// Generates a random well-formed litmus test: 2-3 threads, 2-4
/// instructions each, over 2-3 locations, with random fences and
/// dependency idioms.
LitmusTest randomTest(uint64_t Seed, Arch Target) {
  Rng R(Seed);
  LitmusTest Test;
  Test.TargetArch = Target;
  Test.Name = "fuzz" + std::to_string(Seed);
  const char *Locs[] = {"x", "y", "z"};
  unsigned NumLocs = 2 + static_cast<unsigned>(R.nextBelow(2));
  unsigned NumThreads = 2 + static_cast<unsigned>(R.nextBelow(2));

  std::vector<std::string> Fences;
  if (Target == Arch::Power)
    Fences = {"sync", "lwsync", "eieio"};
  else if (Target == Arch::ARM)
    Fences = {"dmb", "dmb.st"};
  else if (Target == Arch::TSO)
    Fences = {"mfence"};

  for (unsigned T = 0; T < NumThreads; ++T) {
    ThreadCode Code;
    Register NextReg = 1;
    int LastLoad = -1;
    unsigned Len = 2 + static_cast<unsigned>(R.nextBelow(3));
    for (unsigned I = 0; I < Len; ++I) {
      unsigned Kind = static_cast<unsigned>(R.nextBelow(6));
      const char *Loc = Locs[R.nextBelow(NumLocs)];
      switch (Kind) {
      case 0:
      case 1: { // Load, possibly with a false address dependency.
        Register Dst = NextReg++;
        Register AddrDep = -1;
        if (LastLoad >= 0 && R.chance(1, 2)) {
          AddrDep = NextReg++;
          Code.push_back(Instruction::xorOp(
              AddrDep, static_cast<Register>(LastLoad),
              static_cast<Register>(LastLoad)));
        }
        Code.push_back(Instruction::load(Dst, Loc, AddrDep));
        LastLoad = Dst;
        break;
      }
      case 2:
      case 3: { // Store of a constant or of a loaded value.
        if (LastLoad >= 0 && R.chance(1, 3)) {
          Code.push_back(Instruction::store(
              Loc, Operand::reg(static_cast<Register>(LastLoad))));
        } else {
          Code.push_back(Instruction::store(
              Loc, Operand::imm(1 + static_cast<int>(R.nextBelow(2)))));
        }
        break;
      }
      case 4: // Fence, when the architecture has one.
        if (!Fences.empty()) {
          Code.push_back(Instruction::fenceNamed(
              Fences[R.nextBelow(Fences.size())]));
        }
        break;
      case 5: // Control dependency on the last load.
        if (LastLoad >= 0) {
          Code.push_back(
              Instruction::cmpBranch(static_cast<Register>(LastLoad)));
          // Control fences exist on Power (isync) and ARM (isb) only.
          bool HasCfence =
              Target == Arch::Power || Target == Arch::ARM;
          if (HasCfence && R.chance(1, 2))
            Code.push_back(Instruction::fenceNamed(
                Target == Arch::ARM ? "isb" : "isync"));
        }
        break;
      }
    }
    // Ensure the thread touches memory at all.
    if (Code.empty())
      Code.push_back(Instruction::store(Locs[0], Operand::imm(1)));
    Test.Threads.push_back(std::move(Code));
  }
  return Test;
}

/// Applies \p Fn to every consistent candidate of \p Test.
void forEachConsistent(const LitmusTest &Test,
                       const std::function<void(const Candidate &)> &Fn) {
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.message();
  // Cap the candidate count so pathological fuzz programs stay fast.
  if (Compiled->candidateCount() > 3000)
    return;
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (Cand.Consistent)
      Fn(Cand);
    return true;
  });
}

} // namespace

class FuzzPower : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPower, CatAgreesWithNative) {
  static auto Cat = cats::cat::CatModel::builtin("power");
  ASSERT_TRUE(static_cast<bool>(Cat)) << Cat.message();
  const Model &Native = *modelByName("Power");
  LitmusTest Test = randomTest(GetParam(), Arch::Power);
  forEachConsistent(Test, [&](const Candidate &Cand) {
    EXPECT_EQ(Cat->allows(Cand.Exe), Native.allows(Cand.Exe))
        << Test.toString() << Cand.Exe.toString();
  });
}

TEST_P(FuzzPower, MachineAgreesWithAxioms) {
  const Model &Power = *modelByName("Power");
  LitmusTest Test = randomTest(GetParam(), Arch::Power);
  forEachConsistent(Test, [&](const Candidate &Cand) {
    MachineResult R = machineAccepts(Cand.Exe, Power, 500000);
    if (R.HitLimit)
      return;
    EXPECT_EQ(R.Accepted, Power.allows(Cand.Exe))
        << Test.toString() << Cand.Exe.toString();
  });
}

TEST_P(FuzzPower, MultiEventAgreesWithSingle) {
  const Model &Power = *modelByName("Power");
  LitmusTest Test = randomTest(GetParam(), Arch::Power);
  forEachConsistent(Test, [&](const Candidate &Cand) {
    EXPECT_EQ(multiEventCheck(Cand.Exe, Power).Allowed,
              Power.allows(Cand.Exe))
        << Test.toString();
  });
}

TEST_P(FuzzPower, MicroDepsAgreeWithTaints) {
  LitmusTest Test = randomTest(GetParam(), Arch::Power);
  auto Compiled = CompiledTest::compile(Test);
  ASSERT_TRUE(static_cast<bool>(Compiled));
  MicroDeps Deps = deriveDependencies(*Compiled);
  EXPECT_EQ(Deps.Addr, Compiled->skeleton().Addr) << Test.toString();
  EXPECT_EQ(Deps.Data, Compiled->skeleton().Data) << Test.toString();
  EXPECT_EQ(Deps.Ctrl, Compiled->skeleton().Ctrl) << Test.toString();
  EXPECT_EQ(Deps.CtrlCfence, Compiled->skeleton().CtrlCfence)
      << Test.toString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPower,
                         ::testing::Range<uint64_t>(0, 60));

class FuzzHierarchy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzHierarchy, WeakeningIsMonotoneWithoutFences) {
  // On SC-architecture programs (no fences at all), SC-allowed implies
  // TSO-allowed implies Power-allowed, per candidate.
  LitmusTest Test = randomTest(GetParam(), Arch::SC);
  const Model &Sc = *modelByName("SC");
  const Model &Tso = *modelByName("TSO");
  const Model &Power = *modelByName("Power");
  const Model &Arm = *modelByName("ARM");
  const Model &ArmLlh = *modelByName("ARM llh");
  forEachConsistent(Test, [&](const Candidate &Cand) {
    if (Sc.allows(Cand.Exe)) {
      EXPECT_TRUE(Tso.allows(Cand.Exe)) << Test.toString();
    }
    if (Tso.allows(Cand.Exe)) {
      EXPECT_TRUE(Power.allows(Cand.Exe)) << Test.toString();
    }
    if (Arm.allows(Cand.Exe)) {
      EXPECT_TRUE(ArmLlh.allows(Cand.Exe)) << Test.toString();
    }
  });
}

TEST_P(FuzzHierarchy, VerdictLettersConsistent) {
  LitmusTest Test = randomTest(GetParam(), Arch::SC);
  const Model &Power = *modelByName("Power");
  forEachConsistent(Test, [&](const Candidate &Cand) {
    Verdict V = Power.check(Cand.Exe);
    EXPECT_EQ(V.Allowed, V.Violated.empty());
    EXPECT_EQ(V.letters().size(), V.Violated.size());
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzHierarchy,
                         ::testing::Range<uint64_t>(100, 140));

class FuzzArm : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzArm, CatAgreesWithNative) {
  static auto Cat = cats::cat::CatModel::builtin("arm");
  ASSERT_TRUE(static_cast<bool>(Cat)) << Cat.message();
  const Model &Native = *modelByName("ARM");
  LitmusTest Test = randomTest(GetParam(), Arch::ARM);
  forEachConsistent(Test, [&](const Candidate &Cand) {
    EXPECT_EQ(Cat->allows(Cand.Exe), Native.allows(Cand.Exe))
        << Test.toString() << Cand.Exe.toString();
  });
}

TEST_P(FuzzArm, ArmWeakerThanPowerArm) {
  // Power-ARM (cc0 with po-loc) is stronger than the proposed ARM model.
  LitmusTest Test = randomTest(GetParam(), Arch::ARM);
  const Model &Arm = *modelByName("ARM");
  const Model &PowerArm = *modelByName("Power-ARM");
  forEachConsistent(Test, [&](const Candidate &Cand) {
    if (PowerArm.allows(Cand.Exe)) {
      EXPECT_TRUE(Arm.allows(Cand.Exe)) << Test.toString();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzArm,
                         ::testing::Range<uint64_t>(200, 240));

//===--------------------------------------------------------------------===//
// Differential fuzzing of the judging backends (docs/enumeration.md): the
// incremental pruned enumerator must be byte-identical to the naive
// reference on arbitrary well-formed programs, not just the curated
// corpora of tests/differential.cpp. A mismatch is shrunk to a minimal
// reproducing program before failing, so the report is actionable.
//===--------------------------------------------------------------------===//

namespace {

/// Full equality of the two backends' results (shared counts, outcome
/// sets, every per-model tally and verdict).
bool sameResults(const MultiSimulationResult &A,
                 const MultiSimulationResult &B) {
  if (A.CandidatesTotal != B.CandidatesTotal ||
      A.CandidatesConsistent != B.CandidatesConsistent ||
      A.ConsistentOutcomes != B.ConsistentOutcomes ||
      A.PerModel.size() != B.PerModel.size())
    return false;
  for (size_t I = 0; I < A.PerModel.size(); ++I) {
    if (A.PerModel[I].CandidatesAllowed != B.PerModel[I].CandidatesAllowed ||
        A.PerModel[I].AllowedOutcomes != B.PerModel[I].AllowedOutcomes ||
        A.PerModel[I].ConditionReachable !=
            B.PerModel[I].ConditionReachable)
      return false;
  }
  return true;
}

/// True when naive and pruned disagree on \p Test under every registry
/// model. Uncompilable or oversized programs count as agreement (they
/// are outside the property's domain, and the shrinker must not wander
/// into them).
bool backendsDisagree(const LitmusTest &Test) {
  if (!Test.validate().empty())
    return false;
  auto Compiled = CompiledTest::compile(Test);
  if (!Compiled || Compiled->candidateCount() > 3000)
    return false;
  return !sameResults(simulateAll(*Compiled, allModels(), JudgeBackend::Naive),
                      simulateAll(*Compiled, allModels(),
                                  JudgeBackend::Pruned));
}

/// Greedily shrinks a disagreeing test: drop whole threads, then single
/// instructions, keeping every mutation that still disagrees, until a
/// fixpoint. The result is the minimal program to debug.
LitmusTest shrinkMismatch(LitmusTest Test) {
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (size_t T = 0; T < Test.Threads.size() && Test.Threads.size() > 1;
         ++T) {
      LitmusTest Smaller = Test;
      Smaller.Threads.erase(Smaller.Threads.begin() + T);
      Smaller.Final = Condition(); // Thread indices shifted; drop the query.
      if (backendsDisagree(Smaller)) {
        Test = std::move(Smaller);
        Progress = true;
        break;
      }
    }
    if (Progress)
      continue;
    for (size_t T = 0; T < Test.Threads.size(); ++T) {
      for (size_t I = 0; I < Test.Threads[T].size(); ++I) {
        LitmusTest Smaller = Test;
        Smaller.Threads[T].erase(Smaller.Threads[T].begin() + I);
        if (backendsDisagree(Smaller)) {
          Test = std::move(Smaller);
          Progress = true;
          break;
        }
      }
      if (Progress)
        break;
    }
  }
  return Test;
}

/// The property: if the backends disagree, shrink and fail with the
/// minimal reproducer.
void expectBackendsAgree(const LitmusTest &Test) {
  if (!backendsDisagree(Test))
    return;
  LitmusTest Minimal = shrinkMismatch(Test);
  ADD_FAILURE() << "naive and pruned backends disagree; minimal "
                   "reproducer:\n"
                << Minimal.toString();
}

} // namespace

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferential, PrunedMatchesNaive) {
  for (Arch Target : {Arch::Power, Arch::ARM, Arch::TSO})
    expectBackendsAgree(randomTest(GetParam(), Target));
}

TEST_P(FuzzDifferential, PrunedMatchesNaiveWithDuplicatedThread) {
  // Duplicating a thread yields two threads with identical code, a shape
  // the random generator alone rarely produces; the pruned search must
  // account it exactly like any other program.
  for (Arch Target : {Arch::Power, Arch::ARM}) {
    LitmusTest Test = randomTest(GetParam(), Target);
    Test.Threads.push_back(Test.Threads[0]);
    Test.Name += "+dup";
    expectBackendsAgree(Test);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(300, 340));
