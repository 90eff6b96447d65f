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
  auto Staged = stageCampaignTests(Paths, UseCatalogue, Filter, &Out.Errors);
  if (!Staged)
    return Fail::error(Staged.message());
  TestSource Source = inlineSource(Staged.take());
  for (LitmusTest Test; Source(Test);)
    Out.Tests.push_back(std::move(Test));
  auto Kept = filterTestsByName(Extra, Filter);
  if (!Kept)
    return Fail::error(Kept.message());
  for (LitmusTest &Test : *Kept)
    Out.Tests.push_back(std::move(Test));
  return Out;
}

StagedSource::StagedSource(TestSource Plain)
    : Pull([Plain = std::move(Plain),
            Next = std::make_shared<size_t>(0)](StagedTest &Item) {
        if (!Plain(Item.Test))
          return false;
        Item.Index = (*Next)++;
        return true;
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

StagedSource cats::concatSources(StagedSource First, StagedSource Then) {
  // Set once the first part runs dry, and shared by every copy.
  auto InThen = std::make_shared<bool>(false);
  StagedSource Both;
  Both.Pull = [First = std::move(First.Pull), Then = std::move(Then.Pull),
               InThen](StagedTest &Item) {
    if (!*InThen && First(Item)) {
      Item.Part = 0;
      return true;
    }
    *InThen = true;
    Item.Part = 1;
    return Then(Item);
  };
  if (First.Make || Then.Make)
    Both.Make = [First = std::move(First.Make),
                 Then = std::move(Then.Make)](StagedTest &Item) {
      if (const auto &Make = Item.Part ? Then : First)
        Make(Item);
    };
  if (First.Admit || Then.Admit)
    Both.Admit = [First = std::move(First.Admit),
                  Then = std::move(Then.Admit)](StagedTest &Item) {
      const auto &Admit = Item.Part ? Then : First;
      return !Admit || Admit(Item);
    };
  return Both;
}
