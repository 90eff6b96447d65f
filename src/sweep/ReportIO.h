//===- ReportIO.h - cats-sweep-report/2 (de)serialization -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Round-tripping sweep results through the cats-sweep-report/2 JSON
/// schema (docs/report-schemas.md). The per-test record defined here is
/// the one encoding of a result on disk: sweep reports list it, and every
/// result-cache log line holds it. That is what makes reports composable:
/// the result cache replays stored records into live reports, a killed
/// campaign reruns from them, and cats_merge folds shard reports into one.
///
/// A record lists the test's consistent states once, as canonical outcome
/// keys in ascending order, and each model's allowed states as strictly
/// ascending indices into that list ("allowed"), which is how the judge
/// holds them in memory. The writer marks every record to render on one
/// line inside the pretty-printed report. Writers emit only /2; readers
/// also take /1, whose model blocks spell the allowed states out as keys
/// ("allowed_states") and whose records are pretty-printed.
///
/// Rendering a parsed record gives back the writer's bytes: the reader
/// only accepts canonical outcome keys (checkOutcomeKey, which shares
/// outcomeFromKey's grammar in litmus/LitmusTest.h) and stores them as
/// they are in the record's outcome table, allowed states become indices
/// into that table, and every count is an integer in [0, 2^53] (exact in
/// the JSON number type).
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SWEEP_REPORTIO_H
#define CATS_SWEEP_REPORTIO_H

#include "obs/Witness.h"
#include "support/Error.h"
#include "sweep/SweepEngine.h"

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace cats {

/// The schema tag every sweep report writer emits.
inline constexpr const char *SweepReportSchema = "cats-sweep-report/2";

/// True for the schema tags the sweep-report readers accept: /2, and /1
/// from older builds.
bool isSweepReportSchema(const std::string &Schema);

/// The largest count a report may carry: every integer up to 2^53 is
/// exact in the JSON number type (a double).
constexpr unsigned long long MaxJsonCount = 1ull << 53;

/// Reads \p V as a count: a number that is an integer in
/// [0, MaxJsonCount]. An absent value (nullptr) reads as 0. Anything else
/// (a string, a fraction, a negative or larger number) is refused with
/// false, where a cast to an integer type would be lossy or undefined.
bool countFromJson(const JsonValue *V, unsigned long long &Out);

/// How errors name the per-test entry \p Entry at position \p Index of a
/// "tests" array: "test 'name'", or "test #N" for an entry without one.
std::string testEntryLabel(const JsonValue &Entry, size_t Index);

/// Renders one /2 record: the element of the "tests" array that
/// sweepReportToJson writes, marked to render on one line.
JsonValue sweepTestResultToJson(const SweepTestResult &Result);

/// Parses one per-test record, /1 or /2. Unknown members are ignored
/// (forward compatibility within a schema). Besides syntax, a record must
/// keep the writer's invariants (docs/report-schemas.md):
/// "consistent_states" and "models" present unless the record is an
/// "error" one; every count read by countFromJson; "consistent_states"
/// canonical and strictly ascending; every model's verdict "Allow" or
/// "Forbid", and exactly one of "allowed" (indices below the number of
/// consistent states, strictly ascending) and "allowed_states" (a
/// strictly ascending subset of the consistent states); the counts
/// ordered as the judge produces them: allowed states <=
/// candidates_allowed <= candidates_consistent <= candidates_total, and
/// consistent states <= candidates_consistent; and a model that allows a
/// candidate or has an "Allow" verdict lists at least one allowed state.
/// Error messages give the reason only; callers name the record
/// (testEntryLabel).
Expected<SweepTestResult> sweepTestResultFromJson(const JsonValue &Entry);

/// Decodes \p Record, the one-line record of a stored result (a result
/// cache's log line holds one), as the answer to judging \p Test under
/// the models named \p ModelNames, in order. This is the one check a
/// stored record passes before it is served: it parses, keeps every
/// reader invariant (sweepTestResultFromJson), names \p Test, lists
/// exactly those models in that order, and each model's verdict follows
/// from its allowed states and the test's condition. On success fills
/// \p Out, its Record \p Record so that a report lists the stored bytes,
/// and returns true. Returns false otherwise, leaving \p Out as it was:
/// the caller judges the test instead.
bool resultFromRecord(std::string Record, const LitmusTest &Test,
                      const std::vector<std::string> &ModelNames,
                      SweepTestResult &Out);

/// Checks record \p Entry with sweepTestResultFromJson and rewrites it in
/// place as a /2 record: each /1 "allowed_states" list becomes, at the
/// same position, the "allowed" indices the reader resolved, and the
/// record is marked one-line. Members the reader does not know stay. On
/// failure \p Entry is unchanged.
Status upgradeTestEntry(JsonValue &Entry);

/// Reads the top level of a cats-sweep-report/1 or /2 document into
/// \p Out: the "schema", "jobs", "wall_seconds" and the "cache" stanza.
/// Leaves Out.Tests alone: sweepReportFromJson parses the records, and the
/// merge checks and upgrades them in place.
Status sweepReportHeaderFromJson(const JsonValue &Root, SweepReport &Out);

/// Parses a whole cats-sweep-report/1 or /2 document. Fails on a wrong or
/// missing "schema"; top-level members this reader does not know (e.g.
/// the "shard" stanza the campaign CLIs append) are ignored.
Expected<SweepReport> sweepReportFromJson(const JsonValue &Root);

/// Writes a cats-sweep-report/2 document in bounded memory. Records are
/// added one at a time, in report order, and appended to a spill file
/// that has no name, so a killed run leaves nothing behind. write() then
/// renders the top level, whose "tests" array is empty, with the JSON
/// printer and splices the spilled records into that array with the
/// printer's separators and indentation: the bytes are those dump()
/// gives for the same document holding the records. That is how the
/// campaign CLIs write reports whose top-level members ("jobs",
/// "wall_seconds", "cache") are known only once every record is out.
class SweepReportWriter {
public:
  /// Creates the spill of a report for file \p Target in the target's
  /// directory, so the report's bytes need room only where the report
  /// goes. A report for stdout (an empty \p Target), for a device or a
  /// pipe, or for a file whose directory cannot hold the spill (a missing
  /// one) spills to the temporary directory instead.
  static Expected<SweepReportWriter> create(const std::string &Target = "");

  /// Spills \p Result's record (its Record, or one rendered here when it
  /// has none) and keeps its witnesses, moved out of it, for the
  /// document's witness section.
  void add(SweepTestResult &Result);
  /// Spills one record, rendered on one line.
  void addRecord(std::string_view Record);

  /// The top level of the report of \p Counts, a report whose results
  /// went to this writer: sweepReportToJson's members with an empty
  /// "tests" array, and then the witness section of the added results.
  JsonValue document(const SweepReport &Counts) const;

  /// Appends what is still buffered to the spill. Fails, naming the
  /// spill's directory, when a spill write has failed: the report cannot
  /// be written, so its target need not be opened.
  Status finishSpill();

  /// Writes \p Root, with the spilled records in its empty "tests"
  /// array, to \p Out. False when a spill or output write failed.
  bool write(const JsonValue &Root, std::FILE *Out);

private:
  using File = std::unique_ptr<std::FILE, int (*)(std::FILE *)>;
  SweepReportWriter(File Spill, std::string Dir)
      : Spill(std::move(Spill)), Dir(std::move(Dir)) {}
  /// Appends the buffered bytes to the spill.
  void flush();

  File Spill;
  /// Where the spill is, and the error of its first failed write.
  std::string Dir;
  int SpillErrno = 0;
  /// Spill bytes not yet appended.
  std::string Pending;
  unsigned long long Count = 0;
  std::vector<obs::Witness> Witnesses;
};

} // namespace cats

#endif // CATS_SWEEP_REPORTIO_H
