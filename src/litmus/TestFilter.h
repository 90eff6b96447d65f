//===- TestFilter.h - Regex test selection for campaigns ------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name-based test selection shared by the campaign CLIs (cats_sweep
/// --filter, cats_repair --filter): keep the tests whose name matches an
/// ECMAScript regular expression (partial match, so "mp" selects every mp
/// variant and "^mp$" exactly one).
///
//===----------------------------------------------------------------------===//

#ifndef CATS_LITMUS_TESTFILTER_H
#define CATS_LITMUS_TESTFILTER_H

#include "litmus/LitmusTest.h"
#include "support/Error.h"

#include <functional>
#include <regex>
#include <string>
#include <vector>

namespace cats {

/// Compiles a campaign --filter pattern (ECMAScript; callers match
/// partially via std::regex_search). Fails with the regex diagnostic on a
/// malformed pattern. An empty pattern compiles to a match-everything
/// regex, but callers usually special-case it to skip matching entirely.
Expected<std::regex> compileFilterRegex(const std::string &Pattern);

/// Returns the subset of \p Tests whose name matches \p Pattern, in the
/// original order. Fails with the regex diagnostic on a malformed pattern;
/// an empty pattern keeps everything.
Expected<std::vector<LitmusTest>>
filterTestsByName(const std::vector<LitmusTest> &Tests,
                  const std::string &Pattern);

/// Expands \p Path into litmus files: a regular file is taken as-is, a
/// directory contributes its *.litmus entries in sorted order, except
/// the subdirectories named like a test. Appends to \p Files; fails when
/// the path is neither.
Status collectLitmusFiles(const std::string &Path,
                          std::vector<std::string> &Files);

/// The tests a campaign CLI gathered, plus the per-file diagnostics for
/// inputs that failed to parse (the campaign still runs on the rest, but
/// the tool should exit nonzero when Errors is non-empty).
struct CampaignTests {
  std::vector<LitmusTest> Tests;
  std::vector<std::string> Errors;
};

/// The materialized input of cats_repair and cats_run: a
/// drain of stageCampaignTests through inlineSource (\p Paths expanded
/// to sorted .litmus files, then the built-in figure catalogue when
/// \p UseCatalogue), then the \p Extra tests (e.g. a diy battery), all
/// kept by \p Filter. A bad path or a malformed regex fails the whole
/// call; per-file parse failures only land in CampaignTests::Errors.
Expected<CampaignTests> loadCampaignTests(
    const std::vector<std::string> &Paths, bool UseCatalogue,
    const std::string &Filter, std::vector<LitmusTest> Extra = {});

/// A pull-based litmus test source for batched campaigns: fills \p Out
/// and returns true, or returns false at end of stream. Sources are
/// stateful single-pass generators; SweepEngine::runStreamed drains one
/// in batches so a corpus of thousands never materializes at once.
using TestSource = std::function<bool(LitmusTest &Out)>;

/// One test of a StagedSource on its way through the steps.
struct StagedTest {
  /// What the pull took: the item's position in its source's inputs.
  size_t Index = 0;
  /// The part of a concatenation the item came from: 0 for the first,
  /// 1 for the second (concatSources).
  unsigned Part = 0;
  /// The test, once made.
  LitmusTest Test;
  /// Why the make step could not make the test (a load or synthesis
  /// failure); empty when it could.
  std::string Error;
};

/// A test source in three steps, so that a sweep can make its tests on
/// its worker pool (SweepEngine::runStreamed):
/// - Pull takes the next input in order, on the calling thread: it sets
///   the item's Index, or returns false at the end;
/// - Make reads and parses, or synthesizes, the item's test, or sets its
///   Error. It runs on any thread, concurrently with other makes, and
///   touches nothing but its item and what is safe to share. Empty when
///   Pull makes the test itself, as a plain TestSource does;
/// - Admit takes each made item in pull order, on the calling thread, and
///   returns false to drop it. It must drop an item whose make failed.
///   Empty admits every item.
/// A plain TestSource is a staged source whose pull makes each test.
/// Like a TestSource, a staged source is single-pass.
struct StagedSource {
  StagedSource() = default;
  /// \p Plain as a staged source: each pull makes its test and numbers
  /// it from 0, no make step, every test admitted.
  StagedSource(TestSource Plain);

  std::function<bool(StagedTest &)> Pull;
  std::function<void(StagedTest &)> Make;
  std::function<bool(StagedTest &)> Admit;
};

/// \p Staged as a plain source, each pull running its steps on the
/// calling thread: pull, make and admit until an item is admitted.
TestSource inlineSource(StagedSource Staged);

/// The staged input of the campaign CLIs: \p Paths expanded to .litmus
/// files (sorted per directory), then the catalogue. The pull takes the
/// next file or catalogue entry; the make parses the file, or copies the
/// entry; the admission appends a file that failed to parse to \p Errors
/// (when non-null) and drops it, and keeps the names matching \p Filter.
/// Fails up front on a bad path or malformed \p Filter regex.
Expected<StagedSource> stageCampaignTests(
    const std::vector<std::string> &Paths, bool UseCatalogue,
    const std::string &Filter, std::vector<std::string> *Errors = nullptr);

/// \p First's items, then \p Then's. Each item keeps the index its own
/// part's pull gave it, is tagged with its part (StagedTest::Part), and
/// goes through that part's make and admission only. Neither part may be
/// a concatenation itself.
StagedSource concatSources(StagedSource First, StagedSource Then);

} // namespace cats

#endif // CATS_LITMUS_TESTFILTER_H
