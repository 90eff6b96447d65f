//===- ReportIO.h - cats-sweep-report/1 (de)serialization -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Round-tripping sweep results through the cats-sweep-report/1 JSON
/// schema. The writer half has always lived behind sweepReportToJson; this
/// header adds the reader half — parsing a report (or one per-test entry)
/// back into the engine's structs — which is what makes reports
/// *composable*: the campaign layer's result cache replays stored entries
/// into live reports, checkpoint files reload an interrupted campaign's
/// prefix, and cats_merge folds shard reports into one.
///
/// Rendering a parsed entry is byte-identical to rendering the original:
/// the reader only accepts canonical outcome keys (checkOutcomeKey, which
/// shares outcomeFromKey's grammar in litmus/LitmusTest.h) and stores
/// them as they are in the entry's outcome table, allowed states resolve
/// to indices into that table, and every count is an integer in
/// [0, 2^53] (exact in the JSON number type).
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SWEEP_REPORTIO_H
#define CATS_SWEEP_REPORTIO_H

#include "support/Error.h"
#include "sweep/SweepEngine.h"

#include <string>
#include <string_view>

namespace cats {

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

/// Renders one per-test entry of the "tests" array (the same rendering
/// sweepReportToJson uses).
JsonValue sweepTestResultToJson(const SweepTestResult &Result);

/// Parses one per-test entry. Unknown members are ignored (forward
/// compatibility within the /1 schema). Besides syntax, an entry must keep
/// the writer's invariants (docs/report-schemas.md): "consistent_states"
/// and "models" present unless the entry is an "error" one; every count
/// read by countFromJson; "consistent_states" canonical and strictly
/// ascending;
/// every model's verdict "Allow" or "Forbid" and its allowed states a
/// strictly ascending subset of the consistent states; and the counts
/// ordered as the judge produces them: allowed states <=
/// candidates_allowed <= candidates_consistent <= candidates_total, and
/// consistent states <= candidates_consistent; and a model that allows a
/// candidate or has an "Allow" verdict lists at least one allowed state.
/// Error messages give the reason only; callers name the entry
/// (testEntryLabel).
Expected<SweepTestResult> sweepTestResultFromJson(const JsonValue &Entry);

/// Parses a whole cats-sweep-report/1 document. Fails on a wrong or
/// missing "schema"; top-level members this reader does not know (e.g.
/// the "shard" stanza the campaign CLIs append) are ignored.
Expected<SweepReport> sweepReportFromJson(const JsonValue &Root);

} // namespace cats

#endif // CATS_SWEEP_REPORTIO_H
