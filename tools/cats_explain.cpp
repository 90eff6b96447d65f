//===- cats_explain.cpp - Why did the judge say that? ---------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The witness CLI over the provenance layer (docs/explain.md): judge
/// litmus tests — from files, directories, the built-in figure catalogue,
/// or the diy cycle enumeration — under a model set with witness capture
/// on, and render the evidence behind each verdict. For a forbidden
/// (test, model) pair that is the first failing axiom with its minimal
/// violating cycle, every edge labeled by the relation it came from; for
/// an allowed pair, one consistent execution realizing the final
/// condition.
///
///   cats_explain --test mp                      # catalogue, all models
///   cats_explain --models Power mp.litmus --dot graphs/
///   cats_explain --catalogue --json witnesses.json
///   cats_explain --diy 'PodWW.*' --models TSO
///   cats_explain --backend pruned --test sb     # shows the prune cut
///
//===----------------------------------------------------------------------===//

#include "CliCommon.h"
#include "cat/CatAdapter.h"
#include "diy/Enumerate.h"
#include "herd/Simulator.h"
#include "litmus/Compiler.h"
#include "litmus/TestFilter.h"
#include "model/Registry.h"
#include "obs/Witness.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace cats;

namespace {

int usage(const char *Argv0) {
  std::vector<cli::FlagDoc> Flags = {
      {"--test REGEX", "keep only tests whose name matches"},
      {"--models A,B,C", "comma-separated registry model names\n"
                         "(default: all). Known: SC, TSO, PSO, RMO,\n"
                         "C++RA, Power, ARM, Power-ARM, ARM llh"},
      {"--cat FILE.cat", "add a .cat model file to the set (repeatable)"},
      {"--catalogue", "add the built-in figure catalogue to the inputs"},
      {"--diy REGEX", "add diy-synthesized tests whose canonical cycle\n"
                      "name matches (see cats_diy)"},
      {"--backend B", "judging backend: pruned (default) or naive.\n"
                      "pruned also records its first subtree cut as a\n"
                      "model-independent prune-cut witness"},
      {"--dot DIR", "write one DOT execution graph per witness into DIR"},
      {"--json FILE", "write the cats-witness/1 section ('-' = stdout)"},
      {"--quiet", "suppress the human-readable explanations"}};
  return cli::printUsage(
      Argv0, "[options] [<file.litmus>|<dir>]...",
      "Judges every (test, model) pair with witness capture on and\n"
      "renders the evidence behind each verdict: the first failing axiom\n"
      "and its minimal violating cycle for forbidden pairs, a concrete\n"
      "consistent execution for allowed ones (docs/explain.md).\n"
      "\n"
      "Inputs: .litmus files, directories (scanned for *.litmus), the\n"
      "built-in figure catalogue, and/or --diy synthesized tests. With\n"
      "no input, the catalogue runs.",
      Flags);
}

/// Event id -> rendered description, for cycle pretty-printing.
std::map<EventId, std::string> descIndex(const obs::Witness &W) {
  std::map<EventId, std::string> Index;
  for (const obs::WitnessEvent &E : W.Events)
    Index[E.Id] = E.Desc;
  return Index;
}

std::string renderCycle(const obs::Witness &W) {
  const std::map<EventId, std::string> Desc = descIndex(W);
  std::string Out;
  for (size_t I = 0; I < W.Cycle.size(); ++I) {
    const LabeledEdge &E = W.Cycle[I];
    auto Name = [&](EventId Id) {
      auto It = Desc.find(Id);
      return It == Desc.end() ? "#" + std::to_string(Id) : It->second;
    };
    if (I == 0)
      Out += "[" + Name(E.From) + "]";
    Out += " -" + E.Label + "-> [" + Name(E.To) + "]";
  }
  return Out;
}

void printWitness(const obs::Witness &W) {
  std::printf("%s @ %s: %s", W.Test.c_str(), W.Model.c_str(),
              W.Verdict.c_str());
  switch (W.Kind) {
  case obs::WitnessKind::AllowedExecution:
    std::printf(" — consistent execution reaches %s\n", W.Outcome.c_str());
    break;
  case obs::WitnessKind::AxiomCycle:
    std::printf(" — %s kills %s\n    %s\n", W.Axiom.c_str(),
                W.Outcome.c_str(), renderCycle(W).c_str());
    break;
  case obs::WitnessKind::PruneCut:
    std::printf(" — first enumerator subtree cut (%s) on the partial "
                "graph\n    %s\n",
                W.Axiom.c_str(), renderCycle(W).c_str());
    break;
  case obs::WitnessKind::UnreachableOutcome:
    std::printf(" — no consistent execution satisfies the final "
                "condition\n");
    break;
  }
}

} // namespace

int main(int argc, char **argv) {
  JudgeBackend Backend = JudgeBackend::Pruned;
  bool UseCatalogue = false, Quiet = false, UseDiy = false;
  std::string Filter, DotDir, JsonPath, DiyFilter;
  std::vector<std::string> ModelNames, CatFiles, Paths;

  cli::ArgCursor Args("cats_explain", argc, argv);
  while (Args.next()) {
    if (Args.isHelp())
      return usage(argv[0]);
    if (Args.is("--test") || Args.is("--filter")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      Filter = V;
    } else if (Args.is("--models")) {
      if (!Args.commaList(ModelNames))
        return 2;
    } else if (Args.is("--cat")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      CatFiles.push_back(V);
    } else if (Args.is("--catalogue") || Args.is("--catalog")) {
      UseCatalogue = true;
    } else if (Args.is("--diy")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      UseDiy = true;
      DiyFilter = V;
    } else if (Args.is("--backend")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      if (!parseJudgeBackend(V, Backend)) {
        std::fprintf(stderr,
                     "cats_explain: unknown backend '%s' (expected "
                     "naive or pruned)\n",
                     V);
        return 2;
      }
    } else if (Args.is("--dot")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      DotDir = V;
    } else if (Args.is("--json")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      JsonPath = V;
    } else if (Args.is("--quiet")) {
      Quiet = true;
    } else if (Args.isFlag()) {
      Args.unknownOption();
      return usage(argv[0]);
    } else {
      Paths.push_back(Args.arg());
    }
  }

  // Resolve the model set: registry names plus any --cat files, which
  // must outlive the sweep.
  auto Resolved = resolveModels(ModelNames);
  if (!Resolved) {
    std::fprintf(stderr, "cats_explain: %s\n", Resolved.message().c_str());
    return 2;
  }
  std::vector<const Model *> Models = Resolved.take();
  std::vector<std::unique_ptr<CatAdapterModel>> CatModels;
  for (const std::string &File : CatFiles) {
    auto Adapted = CatAdapterModel::fromFile(File);
    if (!Adapted) {
      std::fprintf(stderr, "cats_explain: %s\n", Adapted.message().c_str());
      return 2;
    }
    CatModels.push_back(
        std::make_unique<CatAdapterModel>(std::move(Adapted.take())));
    Models.push_back(CatModels.back().get());
  }

  if (Paths.empty() && !UseCatalogue && !UseDiy)
    UseCatalogue = true;

  // Gather the tests: files and the catalogue first, diy synthesis after.
  std::vector<LitmusTest> Tests;
  bool LoadFailed = false;
  if (!Paths.empty() || UseCatalogue) {
    auto Loaded = loadCampaignTests(Paths, UseCatalogue, Filter);
    if (!Loaded) {
      std::fprintf(stderr, "cats_explain: %s\n", Loaded.message().c_str());
      return 2;
    }
    for (const std::string &Problem : Loaded->Errors)
      std::fprintf(stderr, "cats_explain: %s\n", Problem.c_str());
    LoadFailed = !Loaded->Errors.empty();
    Tests = std::move(Loaded->Tests);
  }
  if (UseDiy) {
    std::vector<std::string> SynthesisErrors;
    auto Source = makeDiyTestSource(EnumerateOptions(), DiyFilter,
                                    &SynthesisErrors);
    if (!Source) {
      std::fprintf(stderr, "cats_explain: %s\n", Source.message().c_str());
      return 2;
    }
    auto Compiled = compileFilterRegex(Filter);
    if (!Compiled) {
      std::fprintf(stderr, "cats_explain: %s\n", Compiled.message().c_str());
      return 2;
    }
    LitmusTest Synth;
    while ((*Source)(Synth))
      if (Filter.empty() || std::regex_search(Synth.Name, *Compiled))
        Tests.push_back(std::move(Synth));
    for (const std::string &Problem : SynthesisErrors)
      std::fprintf(stderr, "cats_explain: %s\n", Problem.c_str());
    LoadFailed = LoadFailed || !SynthesisErrors.empty();
  }
  if (Tests.empty()) {
    std::fprintf(stderr, "cats_explain: no tests to explain\n");
    return 2;
  }

  if (!DotDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(DotDir, EC);
    if (EC) {
      std::fprintf(stderr, "cats_explain: cannot create %s: %s\n",
                   DotDir.c_str(), EC.message().c_str());
      return 1;
    }
  }

  // Judge each test with capture on and collect every witness.
  SimulateOptions Opts;
  Opts.Backend = Backend;
  Opts.Witness = true;
  std::vector<obs::Witness> All;
  bool JudgeFailed = false;
  for (const LitmusTest &Test : Tests) {
    std::string Invalid = Test.validate();
    if (!Invalid.empty()) {
      std::fprintf(stderr, "cats_explain: %s: %s\n", Test.Name.c_str(),
                   Invalid.c_str());
      JudgeFailed = true;
      continue;
    }
    auto Compiled = CompiledTest::compile(Test);
    if (!Compiled) {
      std::fprintf(stderr, "cats_explain: %s: %s\n", Test.Name.c_str(),
                   Compiled.message().c_str());
      JudgeFailed = true;
      continue;
    }
    MultiSimulationResult Result = simulateAll(*Compiled, Models, Opts);
    for (obs::Witness &W : Result.Witnesses) {
      if (!Quiet)
        printWitness(W);
      if (!DotDir.empty()) {
        const std::string Path =
            DotDir + "/" + obs::witnessFileStem(W) + ".dot";
        std::ofstream Out(Path);
        if (Out)
          Out << obs::witnessToDot(W);
        if (!Out) {
          std::fprintf(stderr, "cats_explain: cannot write %s\n",
                       Path.c_str());
          return 1;
        }
      }
      All.push_back(std::move(W));
    }
  }

  if (!JsonPath.empty()) {
    const std::string Doc = obs::witnessSectionToJson(All).dump() + "\n";
    if (JsonPath == "-") {
      std::fwrite(Doc.data(), 1, Doc.size(), stdout);
    } else {
      std::ofstream Out(JsonPath);
      if (Out)
        Out << Doc;
      if (!Out) {
        std::fprintf(stderr, "cats_explain: cannot write %s\n",
                     JsonPath.c_str());
        return 1;
      }
      if (!Quiet)
        std::printf("wrote %s\n", JsonPath.c_str());
    }
  }
  if (!Quiet)
    std::printf("%zu witness(es) over %zu test(s) x %zu model(s)\n",
                All.size(), Tests.size(), Models.size());
  return (LoadFailed || JudgeFailed) ? 1 : 0;
}
