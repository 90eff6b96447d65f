//===- StringUtils.h - Small string helpers -------------------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String splitting, trimming and formatting helpers shared by the parsers
/// and the table printers.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SUPPORT_STRINGUTILS_H
#define CATS_SUPPORT_STRINGUTILS_H

#include "support/Error.h"

#include <string>
#include <string_view>
#include <vector>

namespace cats {

/// Splits \p Text on character \p Sep; empty fields are kept.
std::vector<std::string> splitString(const std::string &Text, char Sep);

/// Splits on \p Sep, trims each field, and drops the empty ones — the
/// shape every comma-separated CLI list flag (--models A,B,C) wants.
std::vector<std::string> splitTrimmedNonEmpty(const std::string &Text,
                                              char Sep);

/// Splits \p Text on any whitespace; empty fields are dropped.
std::vector<std::string> splitWhitespace(const std::string &Text);

/// \p Text without its leading and trailing whitespace: a view into it.
std::string_view trimString(std::string_view Text);

/// True if \p Text starts with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// True if \p Text ends with \p Suffix.
bool endsWith(std::string_view Text, std::string_view Suffix);

/// printf-style formatting into a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins \p Parts with separator \p Sep.
std::string joinStrings(const std::vector<std::string> &Parts,
                        const std::string &Sep);

/// Pads or truncates \p Text to exactly \p Width columns (left-aligned).
std::string padRight(const std::string &Text, unsigned Width);

/// Pads \p Text on the left to \p Width columns (right-aligned).
std::string padLeft(const std::string &Text, unsigned Width);

/// Parses the whole of \p Text as an unsigned decimal integer — no sign,
/// no whitespace, no trailing characters, and no overflow. The shared
/// flag-value parser of the CLIs.
bool parseUnsignedArg(const char *Text, unsigned long long &Out);

/// As above, additionally rejecting values that do not fit an unsigned.
bool parseUnsignedArg(const char *Text, unsigned &Out);

/// Replaces \p Out with the whole of file \p Path: a regular file with one
/// read of its size, a pipe to its end. False when the path cannot be
/// opened or read, or is neither a regular file nor a pipe (a directory,
/// a device).
bool readWholeFile(const std::string &Path, std::string &Out);

/// Replaces file \p Path with \p Text. Fails with "cannot write PATH"
/// when the file cannot be opened, or when the write or the close does
/// not complete (a full disk fails there, after open succeeded).
Status writeWholeFile(const std::string &Path, const std::string &Text);

/// The directory for temporary files: $TMPDIR, or /tmp.
std::string temporaryDirectory();

/// Opens a new file without a name in directory \p Dir, for reading and
/// writing: made with O_TMPFILE, or else created and unlinked at once, so
/// a killed process leaves nothing behind. Returns the descriptor, or -1
/// with errno set.
int openUnnamedFile(const std::string &Dir);

} // namespace cats

#endif // CATS_SUPPORT_STRINGUTILS_H
