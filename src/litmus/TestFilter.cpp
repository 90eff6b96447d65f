//===- TestFilter.cpp - Regex test selection for campaigns ----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "litmus/TestFilter.h"

#include "litmus/Catalog.h"
#include "litmus/Parser.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <regex>

#include <sys/stat.h>

using namespace cats;

Expected<std::regex> cats::compileFilterRegex(const std::string &Pattern) {
  using Fail = Expected<std::regex>;
  try {
    return std::regex(Pattern, std::regex::ECMAScript);
  } catch (const std::regex_error &E) {
    return Fail::error("bad filter regex '" + Pattern + "': " + E.what());
  }
}

Expected<std::vector<LitmusTest>>
cats::filterTestsByName(const std::vector<LitmusTest> &Tests,
                        const std::string &Pattern) {
  using Fail = Expected<std::vector<LitmusTest>>;
  if (Pattern.empty())
    return Tests;
  auto Re = compileFilterRegex(Pattern);
  if (!Re)
    return Fail::error(Re.message());
  std::vector<LitmusTest> Out;
  for (const LitmusTest &Test : Tests)
    if (std::regex_search(Test.Name, *Re))
      Out.push_back(Test);
  return Out;
}

Status cats::collectLitmusFiles(const std::string &Path,
                                std::vector<std::string> &Files) {
  namespace fs = std::filesystem;
  // One stat decides: a directory, a regular file, or neither.
  struct stat Info;
  const bool Exists = ::stat(Path.c_str(), &Info) == 0;
  if (Exists && S_ISDIR(Info.st_mode)) {
    std::vector<std::string> Found;
    std::error_code Ec, Ignored;
    for (const auto &Entry : fs::directory_iterator(Path, Ec))
      if (Entry.path().extension() == ".litmus" &&
          !Entry.is_directory(Ignored))
        Found.push_back(Entry.path().string());
    std::sort(Found.begin(), Found.end());
    Files.insert(Files.end(), Found.begin(), Found.end());
    return Status::success();
  }
  if (!Exists || !S_ISREG(Info.st_mode))
    return Status::error("no such file or directory: " + Path);
  Files.push_back(Path);
  return Status::success();
}

Expected<CampaignTests>
cats::loadCampaignTests(const std::vector<std::string> &Paths,
                        bool UseCatalogue, const std::string &Filter,
                        std::vector<LitmusTest> Extra) {
  using Fail = Expected<CampaignTests>;
  CampaignTests Out;
  auto Source = streamCampaignTests(Paths, UseCatalogue, Filter, &Out.Errors);
  if (!Source)
    return Fail::error(Source.message());
  for (LitmusTest Test; (*Source)(Test);)
    Out.Tests.push_back(std::move(Test));
  auto Kept = filterTestsByName(Extra, Filter);
  if (!Kept)
    return Fail::error(Kept.message());
  for (LitmusTest &Test : *Kept)
    Out.Tests.push_back(std::move(Test));
  return Out;
}

StagedSource::StagedSource(TestSource Plain)
    : Pull([Plain = std::move(Plain)](StagedTest &Item) {
        return Plain(Item.Test);
      }) {}

TestSource cats::inlineSource(StagedSource Staged) {
  auto Item = std::make_shared<StagedTest>();
  return [Staged = std::move(Staged), Item](LitmusTest &Out) {
    while (Staged.Pull(*Item)) {
      if (Staged.Make)
        Staged.Make(*Item);
      if (!Staged.Admit || Staged.Admit(*Item)) {
        Out = std::move(Item->Test);
        return true;
      }
    }
    return false;
  };
}

Expected<StagedSource>
cats::stageCampaignTests(const std::vector<std::string> &Paths,
                         bool UseCatalogue, const std::string &Filter,
                         std::vector<std::string> *Errors) {
  using Fail = Expected<StagedSource>;
  auto Files = std::make_shared<std::vector<std::string>>();
  for (const std::string &Path : Paths) {
    Status Collected = collectLitmusFiles(Path, *Files);
    if (Collected.failed())
      return Fail::error(Collected.message());
  }
  auto Re = std::make_shared<std::regex>();
  const bool HasFilter = !Filter.empty();
  if (HasFilter) {
    auto Compiled = compileFilterRegex(Filter);
    if (!Compiled)
      return Fail::error(Compiled.message());
    *Re = Compiled.take();
  }

  // Inputs are numbered files first, then catalogue entries.
  const std::vector<CatalogEntry> *Catalog =
      UseCatalogue ? &figureCatalog() : nullptr;
  const size_t Inputs = Files->size() + (Catalog ? Catalog->size() : 0);
  auto Next = std::make_shared<size_t>(0);
  StagedSource Source;
  Source.Pull = [Next, Inputs](StagedTest &Item) {
    if (*Next == Inputs)
      return false;
    Item.Index = (*Next)++;
    return true;
  };
  Source.Make = [Files, Catalog](StagedTest &Item) {
    Item.Error.clear();
    if (Item.Index >= Files->size()) {
      Item.Test = (*Catalog)[Item.Index - Files->size()].Test;
      return;
    }
    auto Test = parseLitmusFile((*Files)[Item.Index]);
    if (Test)
      Item.Test = Test.take();
    else
      Item.Error = Test.message();
  };
  Source.Admit = [Files, Re, HasFilter, Errors](StagedTest &Item) {
    if (!Item.Error.empty()) {
      if (Errors)
        Errors->push_back((*Files)[Item.Index] + ": " + Item.Error);
      return false;
    }
    return !HasFilter || std::regex_search(Item.Test.Name, *Re);
  };
  return Source;
}

Expected<TestSource>
cats::streamCampaignTests(const std::vector<std::string> &Paths,
                          bool UseCatalogue, const std::string &Filter,
                          std::vector<std::string> *Errors) {
  auto Staged = stageCampaignTests(Paths, UseCatalogue, Filter, Errors);
  if (!Staged)
    return Expected<TestSource>::error(Staged.message());
  return inlineSource(Staged.take());
}
