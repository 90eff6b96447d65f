//===- corpus.cpp - The committed .litmus corpus ------------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The litmus/ directory ships every catalogue test as a standalone
/// .litmus file (the form herd/diy users exchange tests in). Each file
/// must parse, match its catalogue twin, and reproduce the documented
/// verdicts when loaded from disk.
///
//===----------------------------------------------------------------------===//

#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "litmus/Parser.h"
#include "model/Registry.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace cats;

namespace {

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CATS_LITMUS_DIR))
    if (Entry.path().extension() == ".litmus")
      Out.push_back(Entry.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

} // namespace

TEST(Corpus, OneFilePerCatalogueEntry) {
  EXPECT_EQ(corpusFiles().size(), figureCatalog().size());
}

// Every location name of the shipped tests survives the outcome-key
// grammar: a state holding all of a test's locations renders to a key
// that parses back to the same names and values.
TEST(Corpus, LocationNamesRoundTripThroughKeys) {
  std::vector<LitmusTest> Tests;
  for (const CatalogEntry &Entry : figureCatalog())
    Tests.push_back(Entry.Test);
  for (const std::string &File : corpusFiles()) {
    auto Test = parseLitmusFile(File);
    ASSERT_TRUE(static_cast<bool>(Test)) << Test.message();
    Tests.push_back(Test.take());
  }
  for (const LitmusTest &Test : Tests) {
    Outcome State;
    State.Regs.resize(1);
    State.Regs[0][1] = 1;
    Value V = 0;
    for (const std::string &Loc : Test.locations())
      State.Memory[Loc] = --V;
    const std::string Key = State.key();
    auto Back = outcomeFromKey(Key);
    ASSERT_TRUE(static_cast<bool>(Back)) << Test.Name << ": " << Back.message();
    EXPECT_EQ(Back->Memory, State.Memory) << Test.Name << ": " << Key;
    EXPECT_EQ(Back->key(), Key) << Test.Name;
  }
}

class CorpusFileTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusFileTest, ParsesAndMatchesCatalogue) {
  auto Test = parseLitmusFile(GetParam());
  ASSERT_TRUE(static_cast<bool>(Test)) << Test.message();
  const CatalogEntry *Entry = catalogEntry(Test->Name);
  ASSERT_NE(Entry, nullptr) << "no catalogue twin for " << Test->Name;
  EXPECT_EQ(Test->TargetArch, Entry->Test.TargetArch);
  EXPECT_EQ(Test->Threads.size(), Entry->Test.Threads.size());
  EXPECT_EQ(Test->Final.toString(), Entry->Test.Final.toString());
  // Verdicts from disk match the documented ones.
  for (const auto &[ModelName, Expected] : Entry->Expected) {
    const Model *M = modelByName(ModelName);
    ASSERT_NE(M, nullptr);
    EXPECT_EQ(allowedBy(*Test, *M), Expected)
        << Test->Name << " under " << ModelName;
  }
}

INSTANTIATE_TEST_SUITE_P(Files, CorpusFileTest,
                         ::testing::ValuesIn(corpusFiles()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           std::string Name =
                               std::filesystem::path(I.param).stem();
                           for (char &C : Name)
                             if (!std::isalnum(
                                     static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });
