//===- export_corpus.cpp - Regenerate or verify the .litmus corpus ------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writes every figure-catalogue entry to <dir>/<name>.litmus in the
/// textual format understood by parseLitmusFile. tests/corpus.cpp asserts the
/// committed litmus/ directory stays in sync with the catalogue; rerun
///
///   build/export_corpus litmus
///
/// from the repository root after changing src/litmus/Catalog.cpp.
///
/// With --check, nothing is written: the tool diffs the directory against
/// the catalogue (missing, stale and orphaned .litmus files) and exits
/// non-zero on any mismatch. CI uses this for its corpus-sync gate so the
/// checkout is never mutated.
///
//===----------------------------------------------------------------------===//

#include "CliCommon.h"
#include "litmus/Catalog.h"
#include "litmus/Parser.h"

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

using namespace cats;

namespace {

int checkCorpus(const std::string &Dir, bool Quiet) {
  unsigned Problems = 0;
  std::set<std::string> Expected;
  for (const CatalogEntry &Entry : figureCatalog()) {
    const std::string Path = Dir + "/" + Entry.Test.Name + ".litmus";
    Expected.insert(Entry.Test.Name + ".litmus");
    std::string OnDisk;
    if (!readWholeFile(Path, OnDisk)) {
      std::fprintf(stderr, "MISSING %s\n", Path.c_str());
      ++Problems;
      continue;
    }
    if (OnDisk != Entry.Test.toString()) {
      std::fprintf(stderr, "STALE   %s (differs from the catalogue)\n",
                   Path.c_str());
      ++Problems;
    }
  }
  // Files with no catalogue twin.
  std::error_code Ec;
  for (const auto &DirEntry : std::filesystem::directory_iterator(Dir, Ec)) {
    if (DirEntry.path().extension() != ".litmus")
      continue;
    if (!Expected.count(DirEntry.path().filename().string())) {
      std::fprintf(stderr, "ORPHAN  %s (no catalogue entry)\n",
                   DirEntry.path().string().c_str());
      ++Problems;
    }
  }
  if (Problems) {
    std::fprintf(stderr,
                 "%u problem(s); rerun `export_corpus %s` to resync\n",
                 Problems, Dir.c_str());
    return 1;
  }
  if (!Quiet)
    std::printf("corpus in sync: %zu files match the catalogue\n",
                figureCatalog().size());
  return 0;
}

} // namespace

int usage(const char *Argv0) {
  std::vector<cats::cli::FlagDoc> Flags = {
      {"--check", "diff <dir> against the catalogue (missing, stale,\n"
                  "orphaned files) without writing; exit 1 on mismatch"},
      {"--quiet", "suppress the summary line"}};
  for (const cats::cli::FlagDoc &F : cats::cli::obsFlagDocs())
    Flags.push_back(F);
  return cats::cli::printUsage(
      Argv0, "[options] <dir>",
      "Writes every figure-catalogue entry to <dir>/<name>.litmus.\n"
      "tests/corpus.cpp asserts the committed litmus/ directory stays in\n"
      "sync with the catalogue; rerun after changing Catalog.cpp.",
      Flags);
}

int main(int argc, char **argv) {
  bool Check = false, Quiet = false;
  std::vector<std::string> Dirs;
  cli::ObsFlags Obs;

  cli::ArgCursor Args("export_corpus", argc, argv);
  while (Args.next()) {
    if (Args.isHelp())
      return usage(argv[0]);
    if (int TookObs = cli::parseObsFlag(Args, "export_corpus", Obs)) {
      if (TookObs < 0)
        return 2;
    } else if (Args.is("--check")) {
      Check = true;
    } else if (Args.is("--quiet")) {
      Quiet = true;
    } else if (Args.isFlag()) {
      Args.unknownOption();
      return usage(argv[0]);
    } else {
      Dirs.push_back(Args.arg());
    }
  }
  if (Dirs.size() != 1)
    return usage(argv[0]);
  const std::string &Dir = Dirs.front();

  cli::applyObsFlags(Obs);
  if (Check) {
    const int Rc = checkCorpus(Dir, Quiet);
    const int ObsFailed = cli::finishObs("export_corpus", Obs, Quiet);
    return Rc ? Rc : ObsFailed;
  }

  obs::ProgressReporter Progress("export_corpus", figureCatalog().size(),
                                 Obs.Progress);
  unsigned Written = 0;
  for (const CatalogEntry &Entry : figureCatalog()) {
    std::string Text = Entry.Test.toString();
    // Refuse to write anything the parser cannot read back.
    auto Reparsed = parseLitmus(Text);
    if (!Reparsed) {
      std::fprintf(stderr, "%s does not round-trip: %s\n",
                   Entry.Test.Name.c_str(), Reparsed.message().c_str());
      return 1;
    }
    if (!cli::writeReport("export_corpus",
                          Dir + "/" + Entry.Test.Name + ".litmus", Text))
      return 1;
    obs::tick("export.files_written");
    Progress.update(++Written);
  }
  Progress.finish();
  if (!Quiet)
    std::printf("wrote %u litmus files to %s\n", Written, Dir.c_str());
  return cli::finishObs("export_corpus", Obs, Quiet);
}
