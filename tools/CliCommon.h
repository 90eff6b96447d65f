//===- CliCommon.h - Shared argument parsing for the cats CLIs -*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The argv-walking boilerplate every cats CLI (cats_sweep, cats_repair,
/// cats_mine, cats_diy, cats_run, cats_merge, export_corpus) used to
/// duplicate: a cursor over the arguments with uniform "<tool>: ..."
/// diagnostics for missing values, malformed numbers and unknown
/// options, plus a shared --help renderer fed by per-tool flag tables.
/// Tools keep their own flag dispatch (each vocabulary is different);
/// the cursor owns the error-prone part, and each flag's documentation
/// lives in exactly one FlagDoc row.
///
/// Typical shape:
///
/// \code
///   cli::ArgCursor Args("cats_foo", argc, argv);
///   while (Args.next()) {
///     if (Args.isHelp())
///       return usage(argv[0]);
///     if (Args.is("--jobs")) {
///       if (!Args.unsignedValue(Jobs))
///         return 2;
///     } else if (Args.is("--models")) {
///       if (!Args.commaList(ModelNames))
///         return 2;
///     } else if (Args.isFlag()) {
///       Args.unknownOption();
///       return usage(argv[0]);
///     } else {
///       Paths.push_back(Args.arg());
///     }
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CATS_TOOLS_CLICOMMON_H
#define CATS_TOOLS_CLICOMMON_H

#include "obs/Metrics.h"
#include "obs/Progress.h"
#include "obs/Trace.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace cats {
namespace cli {

/// One documented option of a tool: the flag with its value placeholder
/// ("--jobs N") and a one-line description. Embedded newlines in the
/// description become aligned continuation lines. Every tool declares its
/// vocabulary once as a vector of these; printUsage renders it, so the
/// --help text can never drift from the table.
struct FlagDoc {
  const char *Flag;
  const char *Doc;
};

/// Renders the uniform usage block to stderr:
///
///   usage: <argv0> <operands>
///
///   <about>
///
///   options:
///     <flag>  <doc>
///     ...
///
/// and returns the exit status for a usage error (2), so tools can write
/// `return cli::printUsage(...)` from both --help and bad-flag paths.
inline int printUsage(const char *Argv0, const char *Operands,
                      const char *About, const std::vector<FlagDoc> &Flags) {
  std::fprintf(stderr, "usage: %s%s%s\n\n%s\n\noptions:\n", Argv0,
               *Operands ? " " : "", Operands, About);
  size_t Width = std::strlen("--help");
  for (const FlagDoc &F : Flags)
    Width = std::max(Width, std::strlen(F.Flag));
  auto Row = [&](const char *Flag, const char *Doc) {
    bool First = true;
    for (const std::string &Line : splitString(Doc, '\n')) {
      std::fprintf(stderr, "  %-*s  %s\n", static_cast<int>(Width),
                   First ? Flag : "", Line.c_str());
      First = false;
    }
  };
  for (const FlagDoc &F : Flags)
    Row(F.Flag, F.Doc);
  Row("--help", "this message");
  return 2;
}

/// A cursor over argv with the cats tools' uniform error reporting.
class ArgCursor {
public:
  ArgCursor(const char *Tool, int Argc, char **Argv)
      : Tool(Tool), Argc(Argc), Argv(Argv) {}

  /// Advances to the next argument; false at the end.
  bool next() {
    if (++Index >= Argc)
      return false;
    Current = Argv[Index];
    return true;
  }

  /// The current argument.
  const std::string &arg() const { return Current; }

  bool is(const char *Flag) const { return Current == Flag; }
  bool isHelp() const { return is("--help") || is("-h"); }

  /// True when the current argument looks like an option rather than a
  /// positional.
  bool isFlag() const { return !Current.empty() && Current[0] == '-'; }

  /// Consumes and returns the value of the current "--flag VALUE" pair;
  /// nullptr (with a diagnostic) when argv is exhausted.
  const char *value() {
    Flag = Current;
    if (Index + 1 >= Argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", Tool.c_str(),
                   Flag.c_str());
      return nullptr;
    }
    Current = Argv[++Index];
    return Argv[Index];
  }

  /// Parses the current flag's value as an unsigned. Rejects zero unless
  /// \p AllowZero; diagnoses and returns false on bad input.
  bool unsignedValue(unsigned &Out, bool AllowZero = false) {
    const char *V = value();
    if (!V || !parseUnsignedArg(V, Out) || (!AllowZero && Out == 0)) {
      if (V)
        badValue(V);
      return false;
    }
    return true;
  }

  /// The wide variant (counts, limits, seeds). Same zero policy as the
  /// narrow overload — the two must not differ, or changing an option
  /// variable's width would silently flip whether '--flag 0' parses.
  bool unsignedValue(unsigned long long &Out, bool AllowZero = false) {
    const char *V = value();
    if (!V || !parseUnsignedArg(V, Out) || (!AllowZero && Out == 0)) {
      if (V)
        badValue(V);
      return false;
    }
    return true;
  }

  /// Splits the current flag's value on commas (trimmed, empties
  /// dropped) and appends the fields to \p Out.
  bool commaList(std::vector<std::string> &Out) {
    const char *V = value();
    if (!V)
      return false;
    for (std::string &Item : splitTrimmedNonEmpty(V, ','))
      Out.push_back(std::move(Item));
    return true;
  }

  /// Diagnoses the current argument as an unknown option.
  void unknownOption() const {
    std::fprintf(stderr, "%s: unknown option %s\n", Tool.c_str(),
                 Current.c_str());
  }

private:
  void badValue(const char *V) const {
    std::fprintf(stderr, "%s: bad %s value '%s'\n", Tool.c_str(),
                 Flag.c_str(), V);
  }

  std::string Tool;
  int Argc;
  char **Argv;
  int Index = 0;
  std::string Current;
  /// The flag a value() call belongs to, for diagnostics.
  std::string Flag;
};

/// The observability flags (docs/observability.md) every cats CLI
/// accepts with the same spelling: --metrics[=FILE], --trace FILE and
/// --progress. Parsed by parseObsFlag, enabled by applyObsFlags before
/// the engines run, and flushed by finishObs after the reports are out.
struct ObsFlags {
  /// --metrics seen (with or without =FILE): collect counters and
  /// histograms, and embed the cats-metrics/1 section in JSON reports.
  bool Metrics = false;
  /// Non-empty with --metrics=FILE: write the snapshot there instead of
  /// dumping text to stderr.
  std::string MetricsPath;
  /// Non-empty with --trace FILE: write the Chrome trace-event JSON.
  std::string TracePath;
  /// --progress: live stderr progress line.
  bool Progress = false;
};

/// The FlagDoc rows of the observability vocabulary, for the tools'
/// usage tables.
inline std::vector<FlagDoc> obsFlagDocs() {
  return {
      {"--metrics[=FILE]", "collect counters and histograms; dump as text\n"
                           "to stderr, or as cats-metrics/1 JSON to FILE.\n"
                           "JSON reports gain a \"metrics\" section"},
      {"--trace FILE", "write a Chrome trace-event JSON of the run's\n"
                       "phases (loads in Perfetto / chrome://tracing)"},
      {"--progress", "live progress line on stderr: rate, ETA and the\n"
                     "cache hit rate (silenced by --quiet)"}};
}

/// Parses the observability flag under the cursor, if it is one. Returns
/// 1 when consumed, 0 when the argument is not an observability flag, -1
/// on a diagnosed bad value.
inline int parseObsFlag(ArgCursor &Args, const char *Tool, ObsFlags &Out) {
  if (Args.is("--metrics")) {
    Out.Metrics = true;
    return 1;
  }
  const std::string &Arg = Args.arg();
  if (Arg.rfind("--metrics=", 0) == 0) {
    Out.Metrics = true;
    Out.MetricsPath = Arg.substr(std::strlen("--metrics="));
    if (Out.MetricsPath.empty()) {
      std::fprintf(stderr, "%s: --metrics= needs a file name\n", Tool);
      return -1;
    }
    return 1;
  }
  if (Args.is("--trace")) {
    const char *V = Args.value();
    if (!V)
      return -1;
    Out.TracePath = V;
    return 1;
  }
  if (Args.is("--progress")) {
    Out.Progress = true;
    return 1;
  }
  return 0;
}

/// Flips the process-global observability switches the flags ask for.
/// Call once, after argument parsing and before any engine runs, so the
/// instrumented paths see the final state.
inline void applyObsFlags(const ObsFlags &Flags) {
  if (Flags.Metrics)
    obs::setMetricsEnabled(true);
  if (!Flags.TracePath.empty())
    obs::setTraceEnabled(true);
}

/// Writes \p Text to file \p Path (writeWholeFile). On failure prints
/// "TOOL: cannot write PATH" and returns false: the tool exits 1.
inline bool writeReport(const char *Tool, const std::string &Path,
                        const std::string &Text) {
  Status S = writeWholeFile(Path, Text);
  if (S.failed())
    std::fprintf(stderr, "%s: %s\n", Tool, S.message().c_str());
  return !S.failed();
}

/// Writes \p Text to stdout and flushes it. On failure prints
/// "TOOL: cannot write stdout" and returns false: the tool exits 1.
inline bool writeStdout(const char *Tool, const std::string &Text) {
  if (std::fwrite(Text.data(), 1, Text.size(), stdout) == Text.size() &&
      std::fflush(stdout) == 0)
    return true;
  std::fprintf(stderr, "%s: cannot write stdout\n", Tool);
  return false;
}

/// Embeds the metrics snapshot as the additive "metrics" section of a
/// JSON report (readers ignore it; cats_merge folds it across shards).
/// No-op unless --metrics was given.
inline void attachMetrics(JsonValue &Root, const ObsFlags &Flags) {
  if (Flags.Metrics)
    Root.set("metrics", obs::metricsToJson());
}

/// Writes the trace and metrics artifacts the flags requested: the trace
/// file, the metrics JSON file, or (bare --metrics without a file, and
/// not \p Quiet) the text dump to stderr. Returns 1 on an I/O failure,
/// else 0 — fold it into the tool's exit status.
inline int finishObs(const char *Tool, const ObsFlags &Flags, bool Quiet) {
  int Failed = 0;
  if (!Flags.TracePath.empty()) {
    std::string Error;
    if (!obs::writeTrace(Flags.TracePath, Error)) {
      std::fprintf(stderr, "%s: %s\n", Tool, Error.c_str());
      Failed = 1;
    }
  }
  if (!Flags.MetricsPath.empty()) {
    if (!writeReport(Tool, Flags.MetricsPath, obs::metricsToJson().dump()))
      Failed = 1;
  } else if (Flags.Metrics && !Quiet) {
    std::fprintf(stderr, "%s", obs::metricsToText().c_str());
  }
  return Failed;
}

} // namespace cli
} // namespace cats

#endif // CATS_TOOLS_CLICOMMON_H
