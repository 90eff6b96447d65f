//===- Json.cpp - Minimal JSON values, parser and writer ------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/Json.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace cats;

static_assert(sizeof(JsonValue) <= 40, "a JSON node is one tagged union");

JsonValue JsonValue::array() {
  JsonValue V;
  V.Value.emplace<Array>();
  return V;
}

JsonValue JsonValue::object() {
  JsonValue V;
  V.Value.emplace<Object>();
  return V;
}

bool JsonValue::asBool() const {
  assert(isBool() && "not a bool");
  const bool *B = std::get_if<bool>(&Value);
  return B && *B;
}

double JsonValue::asNumber() const {
  assert(isNumber() && "not a number");
  const double *N = std::get_if<double>(&Value);
  return N ? *N : 0;
}

const std::string &JsonValue::asString() const {
  assert(isString() && "not a string");
  static const std::string Empty;
  const std::string *S = std::get_if<std::string>(&Value);
  return S ? *S : Empty;
}

const std::vector<JsonValue> &JsonValue::elements() const {
  assert(isArray() && "not an array");
  static const Array Empty;
  const Array *A = std::get_if<Array>(&Value);
  return A ? *A : Empty;
}

std::vector<JsonValue> &JsonValue::elements() {
  assert(isArray() && "not an array");
  return std::get<Array>(Value);
}

void JsonValue::push(JsonValue V) { elements().push_back(std::move(V)); }

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const {
  assert(isObject() && "not an object");
  static const MemberList Empty;
  const Object *O = std::get_if<Object>(&Value);
  return O ? O->Members : Empty;
}

std::vector<std::pair<std::string, JsonValue>> &JsonValue::members() {
  assert(isObject() && "not an object");
  return std::get<Object>(Value).Members;
}

void JsonValue::setOneLine() {
  assert(isObject() && "not an object");
  std::get<Object>(Value).OneLine = true;
}

bool JsonValue::oneLine() const {
  const Object *O = std::get_if<Object>(&Value);
  return O && O->OneLine;
}

void JsonValue::set(const std::string &Key, JsonValue V) {
  MemberList &Members = members();
  for (auto &[K, Existing] : Members)
    if (K == Key) {
      Existing = std::move(V);
      return;
    }
  Members.emplace_back(Key, std::move(V));
}

const JsonValue *JsonValue::get(const std::string &Key) const {
  const Object *O = std::get_if<Object>(&Value);
  if (!O)
    return nullptr;
  for (const auto &[K, V] : O->Members)
    if (K == Key)
      return &V;
  return nullptr;
}

JsonValue *JsonValue::get(const std::string &Key) {
  return const_cast<JsonValue *>(std::as_const(*this).get(Key));
}

bool JsonValue::operator==(const JsonValue &Other) const {
  return Value == Other.Value;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

/// True when a byte of \p Word needs an escape: a control character, '"'
/// or '\\'. (The classic has-zero-byte and has-byte-less-than bit tricks.)
bool needsEscape(uint64_t Word) {
  constexpr uint64_t Ones = 0x0101010101010101ull;
  constexpr uint64_t Highs = 0x8080808080808080ull;
  auto HasZero = [](uint64_t X) { return (X - Ones) & ~X & Highs; };
  return ((Word - 0x20 * Ones) & ~Word & Highs) | HasZero(Word ^ ('"' * Ones)) |
         HasZero(Word ^ ('\\' * Ones));
}

} // namespace

namespace cats {

/// The printer: one recursive walk writing through a cursor into one
/// buffer. The buffer starts at bound()'s size, so it is allocated once;
/// every write still checks for room, and an escape-heavy string merely
/// grows it. Indent is the step of the layout being written: 0 inside an
/// object marked one-line.
class JsonWriter {
public:
  JsonWriter(const JsonValue &Root, unsigned Indent)
      : Step(Indent), Indent(Indent) {
    Out.resize(bound(Root, 0, Indent) + 1);
    P = Out.data();
  }

  /// At least the size value() renders for \p V at indentation step
  /// \p Width, unless its strings need escapes. Numbers count the widest
  /// "%.17g" rendering.
  size_t bound(const JsonValue &V, unsigned Depth, unsigned Width) const {
    if (V.oneLine())
      Width = 0;
    // Each element costs a separator and a newline with its indentation.
    const size_t Line = Width ? 1 + size_t(Width) * (Depth + 1) : 0;
    switch (V.kind()) {
    case JsonValue::Kind::Null:
    case JsonValue::Kind::Bool:
      return 5;
    case JsonValue::Kind::Number: {
      // Counts and indices, most of a report's numbers, are small
      // non-negative integers: count their digits.
      const double N = std::get<double>(V.Value);
      if (!(N >= 0 && N < 1e15) || std::signbit(N) || N != std::floor(N))
        return NumberWidth;
      size_t Digits = 1;
      for (double Ten = 10; Ten <= N; Ten *= 10)
        ++Digits;
      return Digits;
    }
    case JsonValue::Kind::String:
      return std::get<std::string>(V.Value).size() + 2;
    case JsonValue::Kind::Array: {
      size_t Size = 2 + Line;
      for (const JsonValue &E : std::get<JsonValue::Array>(V.Value))
        Size += 1 + Line + bound(E, Depth + 1, Width);
      return Size;
    }
    case JsonValue::Kind::Object: {
      size_t Size = 2 + Line;
      for (const auto &[Key, Member] : V.members())
        Size += 1 + Line + Key.size() + 4 + bound(Member, Depth + 1, Width);
      return Size;
    }
    }
    return 0;
  }

  void value(const JsonValue &V, unsigned Depth) {
    switch (V.kind()) {
    case JsonValue::Kind::Null:
      put("null", 4);
      return;
    case JsonValue::Kind::Bool:
      if (std::get<bool>(V.Value))
        put("true", 4);
      else
        put("false", 5);
      return;
    case JsonValue::Kind::Number:
      number(std::get<double>(V.Value));
      return;
    case JsonValue::Kind::String:
      string(std::get<std::string>(V.Value));
      return;
    case JsonValue::Kind::Array: {
      const JsonValue::Array &Elements = std::get<JsonValue::Array>(V.Value);
      if (Elements.empty()) {
        put("[]", 2);
        return;
      }
      put("[", 1);
      for (size_t I = 0; I < Elements.size(); ++I) {
        if (I)
          put(",", 1);
        newline(Depth + 1);
        value(Elements[I], Depth + 1);
      }
      newline(Depth);
      put("]", 1);
      return;
    }
    case JsonValue::Kind::Object: {
      if (Indent && V.oneLine()) {
        Indent = 0;
        value(V, Depth);
        Indent = Step;
        return;
      }
      const JsonValue::MemberList &Members = V.members();
      if (Members.empty()) {
        put("{}", 2);
        return;
      }
      put("{", 1);
      for (size_t I = 0; I < Members.size(); ++I) {
        if (I)
          put(",", 1);
        newline(Depth + 1);
        string(Members[I].first);
        put(": ", Indent ? 2 : 1);
        value(Members[I].second, Depth + 1);
      }
      newline(Depth);
      put("}", 1);
      return;
    }
    }
  }

  std::string finish() {
    if (Step)
      put("\n", 1);
    Out.resize(static_cast<size_t>(P - Out.data()));
    return std::move(Out);
  }

private:
  static constexpr size_t NumberWidth = 24;

  void room(size_t N) {
    const size_t Used = static_cast<size_t>(P - Out.data());
    if (Out.size() - Used >= N)
      return;
    Out.resize(std::max(2 * Out.size(), Used + N));
    P = Out.data() + Used;
  }

  void put(const char *S, size_t N) {
    room(N);
    std::memcpy(P, S, N);
    P += N;
  }

  void newline(unsigned Depth) {
    if (Indent == 0)
      return;
    const size_t Spaces = size_t(Indent) * Depth;
    room(1 + Spaces);
    *P++ = '\n';
    std::memset(P, ' ', Spaces);
    P += Spaces;
  }

  void number(double N) {
    // Integral values (all the sweep counts) print without a decimal
    // point, exactly as "%.0f" would (including "-0" for a negative zero);
    // everything else gets enough digits to round-trip, as "%.17g".
    room(NumberWidth);
    char *const Limit = P + NumberWidth;
    if (std::fabs(N) < 1e15) {
      const auto I = static_cast<long long>(N);
      if (static_cast<double>(I) == N) {
        if (I == 0 && std::signbit(N))
          *P++ = '-';
        P = std::to_chars(P, Limit, I).ptr;
        return;
      }
    }
    P = std::to_chars(P, Limit, N, std::chars_format::general, 17).ptr;
  }

  void string(const std::string &S) {
    static constexpr char Hex[] = "0123456789abcdef";
    put("\"", 1);
    const char *Run = S.data();
    const char *const End = Run + S.size();
    const char *Q = Run;
    while (Q != End) {
      // Skip eight clean bytes at a time; most strings need no escape.
      if (End - Q >= 8) {
        uint64_t Word;
        std::memcpy(&Word, Q, 8);
        if (!needsEscape(Word)) {
          Q += 8;
          continue;
        }
      }
      const auto C = static_cast<unsigned char>(*Q++);
      if (C >= 0x20 && C != '"' && C != '\\')
        continue;
      put(Run, static_cast<size_t>(Q - 1 - Run));
      Run = Q;
      switch (C) {
      case '"':
        put("\\\"", 2);
        break;
      case '\\':
        put("\\\\", 2);
        break;
      case '\n':
        put("\\n", 2);
        break;
      case '\t':
        put("\\t", 2);
        break;
      case '\r':
        put("\\r", 2);
        break;
      default: {
        const char Code[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xF]};
        put(Code, sizeof(Code));
      }
      }
    }
    put(Run, static_cast<size_t>(End - Run));
    put("\"", 1);
  }

  std::string Out;
  char *P;
  /// The dump's step, and the step of the object being written.
  const unsigned Step;
  unsigned Indent;
};

} // namespace cats

std::string JsonValue::dump(unsigned Indent) const {
  JsonWriter Writer(*this, Indent);
  Writer.value(*this, 0);
  return Writer.finish();
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace cats {

/// One parse of one document. Every parse function fills its output value
/// in place and returns false after recording the first error.
class JsonParser {
public:
  JsonParser(const std::string &Text, uint64_t Offset)
      : Begin(Text.data()), P(Begin), End(Begin + Text.size()),
        Offset(Offset) {}

  Expected<JsonValue> run() {
    JsonValue Root;
    if (!parseValue(Root, 0))
      return Expected<JsonValue>::error(Error);
    skipWs();
    if (P != End) {
      fail("trailing characters after document");
      return Expected<JsonValue>::error(Error);
    }
    return Root;
  }

private:
  using Array = JsonValue::Array;
  using Object = JsonValue::Object;
  using MemberList = JsonValue::MemberList;

  bool fail(const std::string &Why) {
    Error = "JSON error at offset " + std::to_string(Offset + (P - Begin)) +
            ": " + Why;
    return false;
  }

  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool consume(char C) {
    if (P != End && *P == C) {
      ++P;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view W) {
    if (static_cast<size_t>(End - P) < W.size() ||
        std::string_view(P, W.size()) != W)
      return false;
    P += W.size();
    return true;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    skipWs();
    if (P == End)
      return fail("unexpected end of input");
    const char C = *P;
    if (C == '{' || C == '[') {
      if (Depth == JsonValue::MaxDepth)
        return fail("nesting deeper than " +
                    std::to_string(JsonValue::MaxDepth) + " levels");
      return C == '{' ? parseObject(Out, Depth + 1)
                      : parseArray(Out, Depth + 1);
    }
    if (C == '"')
      return parseString(Out.Value.emplace<std::string>());
    if (consumeWord("null")) {
      Out.Value.emplace<std::monostate>();
      return true;
    }
    if (consumeWord("true")) {
      Out.Value.emplace<bool>(true);
      return true;
    }
    if (consumeWord("false")) {
      Out.Value.emplace<bool>(false);
      return true;
    }
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber(Out);
    return fail(std::string("unexpected character '") + C + "'");
  }

  bool parseString(std::string &Out) {
    ++P; // '"'
    while (true) {
      // Copy the run up to the next quote or escape in one append.
      const char *Run = P;
      while (P != End && *P != '"' && *P != '\\')
        ++P;
      Out.append(Run, P);
      if (P == End)
        return fail("unterminated string");
      if (*P++ == '"')
        return true;
      if (P == End)
        return fail("unterminated string");
      const char E = *P++;
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u':
        if (!parseUnicodeEscape(Out))
          return false;
        break;
      default:
        return fail("unknown escape");
      }
    }
  }

  bool parseUnicodeEscape(std::string &Out) {
    if (End - P < 4)
      return fail("truncated \\u escape");
    unsigned Code = 0;
    for (int I = 0; I < 4; ++I) {
      const char H = *P++;
      Code <<= 4;
      if (H >= '0' && H <= '9')
        Code += H - '0';
      else if (H >= 'a' && H <= 'f')
        Code += H - 'a' + 10;
      else if (H >= 'A' && H <= 'F')
        Code += H - 'A' + 10;
      else
        return fail("bad \\u escape digit");
    }
    // UTF-8 encode (no surrogate-pair handling; the reports are ASCII).
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
    return true;
  }

  bool parseNumber(JsonValue &Out) {
    // The token is the longest run of number characters; all of it must
    // be one number.
    const char *Start = P;
    ++P; // '-' or the first digit
    while (P != End && ((*P >= '0' && *P <= '9') || *P == '.' || *P == 'e' ||
                        *P == 'E' || *P == '+' || *P == '-'))
      ++P;
    double N = 0;
    auto [Stop, Ec] = std::from_chars(Start, P, N);
    if (Ec == std::errc::result_out_of_range) {
      // Overflow and underflow round as strtod rounds them (to infinity
      // or zero), not to an error.
      const std::string Token(Start, P);
      char *TokenEnd = nullptr;
      N = std::strtod(Token.c_str(), &TokenEnd);
      Stop = Start + (TokenEnd - Token.c_str());
    }
    if (Stop != P)
      return fail("malformed number '" + std::string(Start, P) + "'");
    Out.Value.emplace<double>(N);
    return true;
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    ++P; // '['
    const size_t Base = Items.size();
    skipWs();
    if (!consume(']')) {
      while (true) {
        JsonValue V;
        if (!parseValue(V, Depth))
          return false;
        Items.push_back(std::move(V));
        skipWs();
        if (consume(']'))
          break;
        if (!consume(','))
          return fail("expected ',' or ']' in array");
      }
    }
    Array &A = Out.Value.emplace<Array>();
    A.assign(std::make_move_iterator(Items.begin() + Base),
             std::make_move_iterator(Items.end()));
    Items.resize(Base);
    return true;
  }

  bool parseObject(JsonValue &Out, unsigned Depth) {
    ++P; // '{'
    const size_t Base = Fields.size();
    skipWs();
    if (!consume('}')) {
      while (true) {
        skipWs();
        if (P == End || *P != '"')
          return fail("expected string key in object");
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (!consume(':'))
          return fail("expected ':' after object key");
        JsonValue V;
        if (!parseValue(V, Depth))
          return false;
        auto Same = std::find_if(
            Fields.begin() + Base, Fields.end(),
            [&](const auto &Field) { return Field.first == Key; });
        if (Same != Fields.end())
          Same->second = std::move(V);
        else
          Fields.emplace_back(std::move(Key), std::move(V));
        skipWs();
        if (consume('}'))
          break;
        if (!consume(','))
          return fail("expected ',' or '}' in object");
      }
    }
    MemberList &O = Out.Value.emplace<Object>().Members;
    O.assign(std::make_move_iterator(Fields.begin() + Base),
             std::make_move_iterator(Fields.end()));
    Fields.resize(Base);
    return true;
  }

  const char *const Begin;
  const char *P;
  const char *const End;
  /// Where Text starts in the file it came from.
  const uint64_t Offset;
  /// Scratch stacks: the elements and members of every container still
  /// open, innermost last.
  Array Items;
  MemberList Fields;
  std::string Error;
};

} // namespace cats

Expected<JsonValue> JsonValue::parse(const std::string &Text,
                                     uint64_t Offset) {
  return JsonParser(Text, Offset).run();
}

//===----------------------------------------------------------------------===//
// File reader
//===----------------------------------------------------------------------===//

namespace {

/// The reader's buffer: bounded, and large enough that a read is rare.
constexpr size_t ReaderBuffer = 1 << 16;

bool isJsonSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\r';
}

/// The bytes a scalar's token stops at.
bool endsToken(char C) {
  return isJsonSpace(C) || C == ',' || C == ':' || C == '"' || C == '[' ||
         C == ']' || C == '{' || C == '}';
}

/// The bytes that matter inside a container.
bool isBracketOrQuote(char C) {
  return C == '"' || C == '[' || C == ']' || C == '{' || C == '}';
}

ssize_t readSome(int Fd, char *Into, size_t Size) {
  ssize_t Got;
  do
    Got = ::read(Fd, Into, Size);
  while (Got < 0 && errno == EINTR);
  return Got;
}

bool writeAll(int Fd, const char *From, size_t Size) {
  while (Size) {
    const ssize_t Put = ::write(Fd, From, Size);
    if (Put < 0 && errno == EINTR)
      continue;
    if (Put <= 0)
      return false;
    From += Put;
    Size -= static_cast<size_t>(Put);
  }
  return true;
}

} // namespace

JsonFileReader::JsonFileReader(const std::string &Path)
    : Fd(::open(Path.c_str(), O_RDONLY | O_CLOEXEC)), Buffer(ReaderBuffer) {
  P = End = Buffer.data();
  struct stat Info;
  if (Fd >= 0 && ::fstat(Fd, &Info) == 0 && !S_ISREG(Info.st_mode))
    copyStream();
  ReadFailed = Fd < 0;
}

JsonFileReader::~JsonFileReader() {
  if (Fd >= 0)
    ::close(Fd);
}

void JsonFileReader::copyStream() {
  const int Copy = openUnnamedFile(temporaryDirectory());
  bool Ok = Copy >= 0;
  while (Ok) {
    const ssize_t Got = readSome(Fd, Buffer.data(), Buffer.size());
    if (Got <= 0) {
      Ok = Got == 0;
      break;
    }
    Ok = writeAll(Copy, Buffer.data(), static_cast<size_t>(Got));
  }
  ::close(Fd);
  Fd = Ok && ::lseek(Copy, 0, SEEK_SET) == 0 ? Copy : -1;
  if (Fd < 0 && Copy >= 0)
    ::close(Copy);
}

bool JsonFileReader::refill() {
  if (Capture)
    Capture->append(CaptureFrom, End);
  BufferAt += static_cast<uint64_t>(End - Buffer.data());
  P = End = CaptureFrom = Buffer.data();
  if (ReadFailed)
    return false;
  const ssize_t Got = readSome(Fd, Buffer.data(), Buffer.size());
  if (Got < 0)
    ReadFailed = true;
  if (Got <= 0)
    return false;
  End = P + Got;
  return true;
}

uint64_t JsonFileReader::offset() const {
  return BufferAt + static_cast<uint64_t>(P - Buffer.data());
}

bool JsonFileReader::seek(uint64_t Offset) {
  if (ReadFailed || ::lseek(Fd, static_cast<off_t>(Offset), SEEK_SET) < 0) {
    ReadFailed = true;
    return false;
  }
  P = End = Buffer.data();
  BufferAt = Offset;
  return true;
}

bool JsonFileReader::fail(const std::string &Why) {
  Error = "JSON error at offset " + std::to_string(offset()) + ": " + Why;
  return false;
}

int JsonFileReader::peek() {
  while (true) {
    while (P != End && isJsonSpace(*P))
      ++P;
    if (P != End)
      return static_cast<unsigned char>(*P);
    if (!refill())
      return -1;
  }
}

bool JsonFileReader::copy(unsigned Depth, std::string &Out, uint64_t &At) {
  peek();
  At = offset();
  Out.clear();
  return value(Depth, &Out);
}

bool JsonFileReader::parse(unsigned Depth, JsonValue &Out) {
  uint64_t At = 0;
  if (!copy(Depth, Text, At))
    return false;
  auto Parsed = JsonValue::parse(Text, At);
  if (!Parsed) {
    Error = Parsed.message();
    return false;
  }
  Out = Parsed.take();
  return true;
}

bool JsonFileReader::value(unsigned Depth, std::string *Out) {
  const int C = peek();
  Capture = Out;
  CaptureFrom = P;
  bool Ok = true;
  if (C == -1) {
    Ok = fail("unexpected end of input");
  } else if (C == ',' || C == ':' || C == ']' || C == '}') {
    Ok = fail(std::string("unexpected character '") + static_cast<char>(C) +
              "'");
  } else if (C != '"' && C != '[' && C != '{') {
    // A scalar: its token runs to the next space or structural byte.
    while ((P != End || refill()) && !endsToken(*P))
      ++P;
  } else {
    // A string or a container, inside which only strings and brackets
    // matter: the value ends where its brackets balance.
    unsigned Open = 0;
    do {
      if (P == End && !refill()) {
        Ok = fail("unexpected end of input");
      } else if (*P == '"') {
        Ok = string();
      } else if (*P == '[' || *P == '{') {
        if (Depth + Open == JsonValue::MaxDepth) {
          Ok = fail("nesting deeper than " +
                    std::to_string(JsonValue::MaxDepth) + " levels");
        } else {
          ++Open;
          ++P;
        }
      } else if (*P == ']' || *P == '}') {
        --Open;
        ++P;
      } else {
        do
          ++P;
        while (P != End && !isBracketOrQuote(*P));
      }
    } while (Ok && Open);
  }
  if (Ok && Capture)
    Capture->append(CaptureFrom, P);
  Capture = nullptr;
  return Ok;
}

bool JsonFileReader::string() {
  ++P; // '"'
  while (true) {
    while (P != End && *P != '"' && *P != '\\')
      ++P;
    if (P == End) {
      if (!refill())
        return fail("unterminated string");
      continue;
    }
    if (*P++ == '"')
      return true;
    // An escape: the byte after the backslash does not end the string.
    if (P == End && !refill())
      return fail("unterminated string");
    ++P;
  }
}
