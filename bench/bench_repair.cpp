//===- bench_repair.cpp - Batched repair campaign benchmark ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repair benchmark behind BENCH_repair.json and the CI perf gate:
/// repair the classic families (Power and ARM, SC-equivalence goal, so
/// every mutant is judged under two models) through the RepairEngine's
/// sweep-backed judging, each mutant's models sharing one candidate
/// enumeration, at 1 worker and at --jobs. The yardstick is a 1-worker
/// naive-backend sweep of the figure catalogue under every registry
/// model, timed in the same run.
///
/// Each measurement repeats --repeats times and keeps the best wall time.
/// Modes:
///
///   bench_repair                     print the comparison table
///   bench_repair --out FILE          also write the cats-bench-repair/1
///                                    snapshot (the committed baseline)
///   bench_repair --check FILE        re-measure and fail (exit 1) when
///                                    the batched path regressed: its
///                                    1-worker normalized cost
///                                    (batched_j1/naive, same run, so
///                                    both runner speed and core count
///                                    cancel out) more than --tolerance
///                                    (default 0.25) above the committed
///                                    baseline.
///
//===----------------------------------------------------------------------===//

#include "diy/Diy.h"
#include "litmus/Catalog.h"
#include "model/Registry.h"
#include "repair/RepairEngine.h"
#include "sweep/Json.h"
#include "sweep/SweepEngine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cats;

namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

std::vector<LitmusTest> corpus() {
  std::vector<LitmusTest> Tests;
  for (Arch A : {Arch::Power, Arch::ARM})
    for (const auto &[Family, Cycle] : classicFamilies()) {
      auto Test = synthesizeTest(Cycle, A, Family + "-" + archName(A));
      if (Test)
        Tests.push_back(Test.take());
    }
  return Tests;
}

/// The minimal-repair names of a report, for the equivalence check.
std::vector<std::string> repairNames(const RepairReport &Report) {
  std::vector<std::string> Names;
  for (const TestRepairResult &T : Report.Tests) {
    Names.push_back(T.TestName + ":" + T.verdict());
    for (const RepairSet &Set : T.MinimalRepairs)
      Names.push_back(Set.name());
  }
  return Names;
}

double runCampaign(const std::vector<LitmusTest> &Tests, unsigned Jobs,
                   std::vector<std::string> &Names,
                   unsigned long long &Mutants) {
  RepairOptions Opts;
  Opts.Goal = RepairGoal::ScEquivalence;
  Opts.Jobs = Jobs;
  RepairEngine Engine(Opts);
  const auto Start = Clock::now();
  RepairReport Report = Engine.run(Tests);
  const double Wall = elapsed(Start);
  Names = repairNames(Report);
  Mutants = Report.MutantsEvaluated;
  return Wall;
}

/// The normalizer: one 1-worker naive-backend sweep of the figure
/// catalogue under every registry model. It runs the same judge code as
/// the campaign but no lattice search, so runner speed cancels while a
/// regression in the repair path still moves the ratio.
double runNaiveCatalogue(const std::vector<SweepJob> &Jobs) {
  SweepOptions Opts;
  Opts.Jobs = 1;
  Opts.Backend = JudgeBackend::Naive;
  SweepEngine Engine(Opts);
  const auto Start = Clock::now();
  Engine.run(Jobs);
  return elapsed(Start);
}

struct Measurement {
  double NaiveSecondsJ1 = 1e300;
  double BatchedSecondsJ1 = 1e300;
  double BatchedSeconds = 1e300;
  unsigned Tests = 0;
  unsigned long long Mutants = 0;
  bool RepairsMatch = true;
};

Measurement measure(unsigned Jobs, unsigned Repeats) {
  const std::vector<LitmusTest> Tests = corpus();
  Measurement M;
  M.Tests = static_cast<unsigned>(Tests.size());
  std::vector<LitmusTest> Catalogue;
  for (const CatalogEntry &Entry : figureCatalog())
    Catalogue.push_back(Entry.Test);
  const std::vector<SweepJob> CatalogueJobs = makeJobs(Catalogue, allModels());
  std::vector<std::string> BatchedJ1, Batched;
  for (unsigned R = 0; R < Repeats; ++R) {
    unsigned long long Mutants = 0;
    M.NaiveSecondsJ1 =
        std::min(M.NaiveSecondsJ1, runNaiveCatalogue(CatalogueJobs));
    M.BatchedSecondsJ1 = std::min(M.BatchedSecondsJ1,
                                  runCampaign(Tests, 1, BatchedJ1, Mutants));
    M.BatchedSeconds =
        std::min(M.BatchedSeconds, runCampaign(Tests, Jobs, Batched, Mutants));
    M.Mutants = Mutants;
    if (Batched != BatchedJ1)
      M.RepairsMatch = false;
  }
  return M;
}

JsonValue toJson(const Measurement &M, unsigned Jobs, unsigned Repeats) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-bench-repair/1");
  Root.set("tests", M.Tests);
  Root.set("mutants", M.Mutants);
  Root.set("jobs", Jobs);
  Root.set("repeats", Repeats);
  Root.set("naive_seconds_j1", M.NaiveSecondsJ1);
  Root.set("batched_seconds_j1", M.BatchedSecondsJ1);
  Root.set("batched_seconds", M.BatchedSeconds);
  // The gated ratio: 1 batched worker over the 1-worker naive catalogue
  // sweep, so it is invariant to the runner's core count and a
  // regression cannot hide behind parallelism.
  Root.set("normalized_repair_cost_j1",
           M.BatchedSecondsJ1 / M.NaiveSecondsJ1);
  Root.set("normalized_repair_cost", M.BatchedSeconds / M.NaiveSecondsJ1);
  Root.set("repairs_match_j1", M.RepairsMatch);
  return Root;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--repeats N] [--out FILE]\n"
               "          [--check FILE] [--tolerance F]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = 4, Repeats = 5;
  double Tolerance = 0.25;
  std::string OutPath, CheckPath;

  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--jobs") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      Jobs = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (Arg == "--repeats") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      Repeats = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (Arg == "--out") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      OutPath = V;
    } else if (Arg == "--check") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      CheckPath = V;
    } else if (Arg == "--tolerance") {
      const char *V = Value();
      if (!V)
        return usage(argv[0]);
      Tolerance = std::strtod(V, nullptr);
    } else {
      return usage(argv[0]);
    }
  }
  if (Jobs == 0 || Repeats == 0)
    return usage(argv[0]);

  std::printf("== Batched repair campaign vs a naive catalogue sweep ==\n");
  std::printf("classic families, Power + ARM, SC-equivalence goal, "
              "best of %u repeats\n\n", Repeats);

  Measurement M = measure(Jobs, Repeats);

  std::printf("mutants judged per campaign: %llu\n\n", M.Mutants);
  std::printf("%-42s %10.4fs\n", "naive catalogue sweep, 1 worker",
              M.NaiveSecondsJ1);
  std::printf("%-42s %10.4fs  (%.2fx naive)\n",
              "batched, shared enumeration, 1 worker", M.BatchedSecondsJ1,
              M.BatchedSecondsJ1 / M.NaiveSecondsJ1);
  char Label[64];
  std::snprintf(Label, sizeof(Label),
                "batched, shared enumeration, %u workers", Jobs);
  std::printf("%-42s %10.4fs  (%.2fx naive)\n", Label, M.BatchedSeconds,
              M.BatchedSeconds / M.NaiveSecondsJ1);
  std::printf("repairs identical at 1 and %u workers: %s\n", Jobs,
              M.RepairsMatch ? "yes" : "NO");

  if (!M.RepairsMatch) {
    std::fprintf(stderr,
                 "FAIL: batched repairs depend on the worker count\n");
    return 1;
  }

  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
      return 1;
    }
    Out << toJson(M, Jobs, Repeats).dump();
    std::printf("wrote %s\n", OutPath.c_str());
  }

  if (!CheckPath.empty()) {
    std::ifstream In(CheckPath);
    if (!In) {
      std::fprintf(stderr, "cannot read baseline %s\n", CheckPath.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    auto Baseline = JsonValue::parse(Buf.str());
    if (!Baseline) {
      std::fprintf(stderr, "bad baseline %s: %s\n", CheckPath.c_str(),
                   Baseline.message().c_str());
      return 1;
    }
    const JsonValue *Cost = Baseline->get("normalized_repair_cost_j1");
    if (!Cost || !Cost->isNumber()) {
      std::fprintf(stderr, "baseline %s lacks normalized_repair_cost_j1\n",
                   CheckPath.c_str());
      return 1;
    }

    // As in bench_sweep the gate normalizes by a naive-backend pass
    // measured in the same run, so runner speed cancels out — and both
    // sides run on 1 worker, so the runner's core count cancels too (a
    // regression cannot hide behind multi-worker parallelism).
    const double Fresh = M.BatchedSecondsJ1 / M.NaiveSecondsJ1;
    const double Allowed = Cost->asNumber() * (1.0 + Tolerance);
    std::printf("\nperf gate: normalized 1-worker repair cost %.4f "
                "(baseline %.4f, allowed <= %.4f)\n",
                Fresh, Cost->asNumber(), Allowed);
    if (Fresh > Allowed) {
      std::fprintf(stderr,
                   "FAIL: batched repair wall time regressed more than "
                   "%.0f%% vs the committed baseline\n",
                   Tolerance * 100);
      return 1;
    }
    std::printf("perf gate passed\n");
  }

  return 0;
}
