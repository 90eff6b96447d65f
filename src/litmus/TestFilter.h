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
/// drain of streamCampaignTests (\p Paths expanded to sorted .litmus
/// files, then the built-in figure catalogue when \p UseCatalogue), then
/// the \p Extra tests (e.g. a diy battery), all kept by \p Filter. A bad
/// path or a malformed regex fails the whole call; per-file parse
/// failures only land in CampaignTests::Errors.
Expected<CampaignTests> loadCampaignTests(
    const std::vector<std::string> &Paths, bool UseCatalogue,
    const std::string &Filter, std::vector<LitmusTest> Extra = {});

/// A pull-based litmus test source for batched campaigns: fills \p Out
/// and returns true, or returns false at end of stream. Sources are
/// stateful single-pass generators; SweepEngine::runStreamed drains one
/// in batches so a corpus of thousands never materializes at once.
using TestSource = std::function<bool(LitmusTest &Out)>;

/// The shared input pipeline of the campaign CLIs: \p Paths expanded to
/// .litmus files (sorted per directory), then the catalogue, keeping the
/// names matching \p Filter; each file is parsed lazily at pull time.
/// Parse failures are skipped and, when \p Errors is non-null, appended
/// there as they are encountered. Fails up front on a bad path or
/// malformed \p Filter regex.
Expected<TestSource> streamCampaignTests(
    const std::vector<std::string> &Paths, bool UseCatalogue,
    const std::string &Filter, std::vector<std::string> *Errors = nullptr);

} // namespace cats

#endif // CATS_LITMUS_TESTFILTER_H
