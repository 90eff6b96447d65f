//===- Json.h - Minimal JSON values, parser and writer --------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON library for the sweep reports: a value type
/// over null/bool/number/string/array/object, a one-pass parser, and a
/// deterministic pretty-printer. Objects preserve insertion order so
/// emitted reports read in schema order and round-trip byte-identically.
///
/// Every report and cache log record cats reads or writes goes through
/// this one document tree, so its layout is the IO cost of a campaign:
///
/// - A value is one 40-byte tagged union (a std::variant over the six
///   kinds). An array or object owns one vector of its elements or
///   members; a string (or object key) longer than the small-string
///   buffer owns one heap block; scalars own none.
/// - The parser builds each value in place. Array elements and object
///   members collect on scratch stacks shared by the whole parse and move
///   into an exactly-sized vector when their container closes. Nesting
///   deeper than JsonValue::MaxDepth is an error, never a stack overflow.
/// - The printer is one recursive walk writing through a cursor into a
///   single buffer, sized up front by a walk that bounds the output.
///   Integral numbers of magnitude below 1e15 print as integers (a
///   negative zero as "-0"); every other number prints as "%.17g" would.
/// - An object can carry a one-line mark (setOneLine): an indented dump
///   then renders it, at its place in the layout, in the compact form.
///   The mark lives beside the members, so copies and moves keep it;
///   operator== ignores it and parse() never sets it. Sweep reports put
///   each test record on its own line this way.
/// - Moving a value moves its whole subtree, so a merge can hand test
///   entries from its inputs to its output without copying them.
///
/// No external dependency; numbers are stored as double, which holds
/// every count the reports carry exactly (integers up to 2^53).
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SWEEP_JSON_H
#define CATS_SWEEP_JSON_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace cats {

/// One JSON value.
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  /// The deepest array/object nesting parse() accepts: far above any
  /// document cats writes, far below what would exhaust the stack.
  static constexpr unsigned MaxDepth = 256;

  JsonValue() = default;
  JsonValue(bool B) : Value(std::in_place_type<bool>, B) {}
  JsonValue(double N) : Value(std::in_place_type<double>, N) {}
  JsonValue(int N) : JsonValue(static_cast<double>(N)) {}
  JsonValue(unsigned N) : JsonValue(static_cast<double>(N)) {}
  JsonValue(unsigned long long N) : JsonValue(static_cast<double>(N)) {}
  JsonValue(std::string S)
      : Value(std::in_place_type<std::string>, std::move(S)) {}
  JsonValue(const char *S) : Value(std::in_place_type<std::string>, S) {}

  /// Creates an empty array / object.
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return static_cast<Kind>(Value.index()); }
  bool isNull() const { return kind() == Kind::Null; }
  bool isBool() const { return kind() == Kind::Bool; }
  bool isNumber() const { return kind() == Kind::Number; }
  bool isString() const { return kind() == Kind::String; }
  bool isArray() const { return kind() == Kind::Array; }
  bool isObject() const { return kind() == Kind::Object; }

  /// Scalar accessors; assert on kind mismatch (and read as false, 0 or
  /// the empty string when assertions are off).
  bool asBool() const;
  double asNumber() const;
  const std::string &asString() const;

  /// Array access. The mutable overload (for moving elements out or
  /// editing them in place) requires an array.
  const std::vector<JsonValue> &elements() const;
  std::vector<JsonValue> &elements();
  void push(JsonValue V);

  /// Object access. Members keep insertion order; set() replaces in place
  /// when the key exists. The mutable members() overload requires an
  /// object; callers may edit values in place but must keep keys unique.
  const std::vector<std::pair<std::string, JsonValue>> &members() const;
  std::vector<std::pair<std::string, JsonValue>> &members();
  void set(const std::string &Key, JsonValue V);

  /// The one-line mark of an object (see the file comment). setOneLine
  /// requires an object; oneLine() reads false on any other kind.
  void setOneLine();
  bool oneLine() const;

  /// The member value for \p Key, or nullptr (also on non-objects). The
  /// mutable overload lets a caller edit or move the member in place.
  const JsonValue *get(const std::string &Key) const;
  JsonValue *get(const std::string &Key);

  /// Renders the value. \p Indent > 0 pretty-prints with that step,
  /// except inside objects marked one-line; 0 emits the compact
  /// single-line form. Output is deterministic and reparses to an equal
  /// value.
  std::string dump(unsigned Indent = 2) const;

  bool operator==(const JsonValue &Other) const;
  bool operator!=(const JsonValue &Other) const { return !(*this == Other); }

  /// Parses \p Text as one JSON document (trailing whitespace allowed).
  /// A repeated object key keeps its first position and its last value,
  /// as set() does. Errors carry a byte offset, counted from \p Offset
  /// (where \p Text starts in a larger file), and a reason.
  static Expected<JsonValue> parse(const std::string &Text,
                                   uint64_t Offset = 0);

private:
  friend class JsonParser;
  friend class JsonWriter;
  using Array = std::vector<JsonValue>;
  using MemberList = std::vector<std::pair<std::string, JsonValue>>;
  /// An object's members with its rendering mark; equality is the
  /// members' alone. As small as a string, so a value stays 40 bytes.
  struct Object {
    MemberList Members;
    bool OneLine = false;
    bool operator==(const Object &Other) const {
      return Members == Other.Members;
    }
  };

  /// Alternatives in Kind order, so kind() is the variant index.
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      Value;
};

/// Reads one JSON document from a file in bounded memory, for documents
/// too large to parse whole: a forward cursor over one fixed buffer that
/// finds where each value ends. It knows strings (with their escapes),
/// brackets and the nesting limit of parse(), and nothing else of the
/// grammar: a value is skipped unchecked, or its bytes are copied out
/// to be parsed on their own, here or on another thread, with their
/// errors at their offsets in the file. It can go
/// back to an offset it has passed; a pipe or other stream is first
/// copied to an unnamed file in the temporary directory to allow that.
class JsonFileReader {
public:
  /// Opens \p Path; readFailed() is true when it cannot be opened.
  explicit JsonFileReader(const std::string &Path);
  ~JsonFileReader();
  JsonFileReader(const JsonFileReader &) = delete;
  JsonFileReader &operator=(const JsonFileReader &) = delete;

  /// Skips whitespace and returns the next byte without taking it, or -1
  /// at the end of the file.
  int peek();
  /// Takes the byte peek() returned.
  void take() { ++P; }

  /// Passes over one value, which \p Depth containers enclose. False
  /// after recording the error: nothing or a separator where the value
  /// should start, the end of the file inside it, or nesting deeper than
  /// JsonValue::MaxDepth.
  bool skip(unsigned Depth) { return value(Depth, nullptr); }
  /// Reads one value, which \p Depth containers enclose, and hands out
  /// its bytes, unchecked, in \p Text (replacing what it held), and their
  /// offset in the file in \p At: JsonValue::parse(Text, At) gives the
  /// value and its errors at their offsets in the file. False after
  /// recording skip()'s error.
  bool copy(unsigned Depth, std::string &Text, uint64_t &At);
  /// Reads one value, which \p Depth containers enclose, and parses it
  /// into \p Out. False after recording copy()'s or parse()'s error.
  bool parse(unsigned Depth, JsonValue &Out);

  /// Records the error \p Why at the current offset; returns false.
  bool fail(const std::string &Why);
  const std::string &error() const { return Error; }
  /// True when the file could not be opened or read: every error after
  /// that is the file's, not its text's.
  bool readFailed() const { return ReadFailed; }

  /// The offset of the next byte in the file.
  uint64_t offset() const;
  /// Goes to \p Offset. False when the file cannot seek.
  bool seek(uint64_t Offset);

private:
  /// Replaces the descriptor of a stream by an unnamed file holding what
  /// the stream gives up to its end.
  void copyStream();
  /// Loads the next piece of the file once the buffer is used up; false
  /// at the end of the file or on a read error.
  bool refill();
  /// skip(), appending the value's bytes to \p Capture when given.
  bool value(unsigned Depth, std::string *Capture);
  bool string();

  int Fd = -1;
  std::vector<char> Buffer;
  /// The unread bytes of the buffer, and the file offset of its start.
  const char *P = nullptr;
  const char *End = nullptr;
  uint64_t BufferAt = 0;
  /// Where value() is copying to, and from where in the buffer.
  std::string *Capture = nullptr;
  const char *CaptureFrom = nullptr;
  /// The bytes of the value parse() reads.
  std::string Text;
  bool ReadFailed = false;
  std::string Error;
};

} // namespace cats

#endif // CATS_SWEEP_JSON_H
