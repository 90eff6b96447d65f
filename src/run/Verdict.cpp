//===- Verdict.cpp - Hardware-vs-model soundness checking -----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "run/Verdict.h"

#include "herd/Simulator.h"
#include "litmus/Compiler.h"
#include "model/Registry.h"

#include <algorithm>
#include <cassert>

using namespace cats;

const char *cats::hostArchName() {
#if defined(__x86_64__)
  return "x86_64";
#elif defined(__i386__)
  return "x86";
#elif defined(__aarch64__)
  return "aarch64";
#elif defined(__arm__)
  return "arm";
#elif defined(__powerpc64__)
  return "ppc64";
#elif defined(__powerpc__)
  return "ppc";
#else
  return "unknown";
#endif
}

const Model &cats::hostReferenceModel() {
#if defined(__x86_64__) || defined(__i386__)
  const Model *M = modelByName("TSO");
#elif defined(__aarch64__) || defined(__arm__)
  const Model *M = modelByName("ARM");
#else
  // Power is the weakest shipped hardware model: on hosts we cannot
  // classify, judging against it keeps the soundness check conservative.
  const Model *M = modelByName("Power");
#endif
  assert(M && "registry lost a built-in model");
  return *M;
}

namespace {

/// The shared judging core over precomputed simulation results. The
/// aggregate counters are disjoint: a bucket outside the enumeration is
/// counted only there (it is necessarily also outside every model's
/// allowed set — the allowed states index into the outcome table — and
/// counting it twice would misreport the violation magnitude).
void judgeWith(const LitmusTest &Test, const SimulationResult &Ref,
               const SimulationResult &Sc, const OutcomeTable &Table,
               RunTestResult &Result) {
  // The table is in key order, so a bucket's key resolves to its table
  // index by binary search, and the allowed lists are ascending indices.
  auto Allows = [](const SimulationResult &R, size_t Idx) {
    return std::binary_search(R.AllowedOutcomes.begin(),
                              R.AllowedOutcomes.end(), Idx);
  };

  Result.ModelName = Ref.ModelName;
  Result.ConditionAllowedByModel = Ref.ConditionReachable;
  Result.ConditionAllowedBySc = Sc.ConditionReachable;
  Result.ConditionObserved = false;
  Result.OutsideModel = Result.OutsideSc = Result.OutsideEnumeration = 0;
  for (RunBucket &B : Result.Histogram) {
    size_t Idx = 0, End = Table.size();
    while (Idx < End) {
      const size_t Mid = Idx + (End - Idx) / 2;
      if (Table.key(Mid) < B.Key)
        Idx = Mid + 1;
      else
        End = Mid;
    }
    B.Consistent = Idx < Table.size() && Table.key(Idx) == B.Key;
    B.AllowedByModel = B.Consistent && Allows(Ref, Idx);
    B.AllowedBySc = B.Consistent && Allows(Sc, Idx);
    B.MatchesFinal = B.Out.satisfies(Test.Final);
    if (B.MatchesFinal)
      Result.ConditionObserved = true;
    if (!B.Consistent) {
      Result.OutsideEnumeration += B.Count;
      continue;
    }
    if (!B.AllowedByModel)
      Result.OutsideModel += B.Count;
    if (!B.AllowedBySc)
      Result.OutsideSc += B.Count;
  }
}

} // namespace

void cats::judgeHistogram(const LitmusTest &Test, const Model &Reference,
                          RunTestResult &Result) {
  auto Compiled = CompiledTest::compile(Test);
  if (!Compiled) {
    Result.Error = Compiled.message();
    return;
  }
  const Model *Sc = modelByName("SC");
  assert(Sc && "registry lost the SC model");
  std::vector<const Model *> Models{&Reference};
  if (Sc != &Reference)
    Models.push_back(Sc);
  MultiSimulationResult Sim = simulateAll(*Compiled, Models);
  const SimulationResult *Ref = Sim.forModel(Reference.name());
  const SimulationResult *ScRes = Sim.forModel(Sc->name());
  if (!ScRes)
    ScRes = Ref; // Reference is SC itself.
  judgeWith(Test, *Ref, *ScRes, Sim.ConsistentOutcomes, Result);
}

bool cats::judgeHistogramFromSimulation(const LitmusTest &Test,
                                        const Model &Reference,
                                        const MultiSimulationResult &Sim,
                                        RunTestResult &Result) {
  const SimulationResult *Ref = Sim.forModel(Reference.name());
  const SimulationResult *ScRes = Sim.forModel("SC");
  if (Reference.name() == "SC")
    ScRes = Ref;
  if (!Ref || !ScRes)
    return false;
  judgeWith(Test, *Ref, *ScRes, Sim.ConsistentOutcomes, Result);
  return true;
}

void cats::attachEmpirical(MineReport &Report, const RunReport &Run) {
  Report.HasEmpirical = true;
  Report.EmpiricalModel = Run.ModelName;
  Report.EmpiricalHost = Run.Host;
  for (const RunTestResult &T : Run.Tests) {
    if (!T.Error.empty())
      continue;
    const std::string Family = cycleFamilyOf(T.TestName);
    for (FamilyVerdicts &F : Report.Families) {
      if (F.Family != Family)
        continue;
      F.HasEmpirical = true;
      ++F.Empirical.Tests;
      F.Empirical.Iterations += T.Iterations;
      if (T.ConditionObserved)
        ++F.Empirical.Observed;
      F.Empirical.OutsideModel += T.OutsideModel + T.OutsideEnumeration;
      break;
    }
  }
}
