//===- litmus_run.cpp - Run a litmus test on the simulated fleet ------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The litmus workflow of Sec. 8.1: run one test on every chip of the
/// architecture's simulated fleet, print the observation histogram, and
/// compare with the model's verdict — the raw ingredient of Table V.
///
///   litmus_run [test.litmus [samples]]
///
/// Without arguments it runs the coRR hazard test on the ARM fleet,
/// showing the acknowledged Cortex-A9 bug.
///
//===----------------------------------------------------------------------===//

#include "hardware/Hardware.h"
#include "herd/Simulator.h"
#include "litmus/Parser.h"
#include "model/Registry.h"

#include <cstdio>

using namespace cats;

namespace {

const char *DefaultTest = R"(
ARM coRR
P0:
  ld r1, x
  ld r2, x
P1:
  st x, #1
exists (0:r1=1 /\ 0:r2=0)
)";

} // namespace

int main(int Argc, char **Argv) {
  auto Test =
      Argc > 1 ? parseLitmusFile(Argv[1]) : parseLitmus(DefaultTest);
  if (!Test) {
    std::fprintf(stderr, "litmus error: %s\n", Test.message().c_str());
    return 1;
  }
  uint64_t Samples = Argc > 2 ? std::stoull(Argv[2]) : 20000;

  const Model &M = modelFor(Test->TargetArch);
  SimulationResult Sim = simulate(*Test, M);
  std::printf("%s",
              herdStyleReport(Sim, Sim.ConsistentOutcomes, Test->Final)
                  .c_str());

  std::vector<HardwareProfile> Fleet =
      Test->TargetArch == Arch::Power ? HardwareProfile::powerFleet()
                                      : HardwareProfile::armFleet();
  std::printf("\nHardware (%llu samples per chip):\n",
              static_cast<unsigned long long>(Samples));
  bool AnyObserved = false;
  for (const HardwareProfile &Chip : Fleet) {
    HardwareRun Run = runOnHardware(*Test, Chip, Samples);
    uint64_t Hits = 0;
    for (const auto &[Out, Count] : Run.Observed)
      if (Out.satisfies(Test->Final))
        Hits += Count;
    std::printf("  %-12s %s (%llu/%llu)\n", Chip.ChipName.c_str(),
                Run.ConditionObserved ? "Ok " : "No ",
                static_cast<unsigned long long>(Hits),
                static_cast<unsigned long long>(Run.Samples));
    AnyObserved |= Run.ConditionObserved;
  }

  if (AnyObserved && !Sim.ConditionReachable)
    std::printf("\nINVALID: observed on hardware but forbidden by %s — "
                "a chip anomaly or a model bug.\n",
                M.name().c_str());
  else if (!AnyObserved && Sim.ConditionReachable)
    std::printf("\nUNSEEN: allowed by %s but not exhibited by this "
                "fleet.\n",
                M.name().c_str());
  else
    std::printf("\nModel and fleet agree.\n");
  return 0;
}
