//===- Parser.cpp - Text format for litmus tests --------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "litmus/Parser.h"

#include "obs/Trace.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>

using namespace cats;

namespace {

constexpr size_t NoPos = std::string_view::npos;

bool isSpace(char C) { return std::isspace(static_cast<unsigned char>(C)); }

/// Splits \p Line into the fields between runs of whitespace, and of
/// commas too when \p Commas. Returns how many there are; the first
/// N land in \p Fields.
template <size_t N>
size_t splitFields(std::string_view Line, bool Commas,
                   std::array<std::string_view, N> &Fields) {
  auto Separates = [Commas](char C) {
    return isSpace(C) || (Commas && C == ',');
  };
  size_t Count = 0;
  for (size_t Pos = 0;;) {
    while (Pos < Line.size() && Separates(Line[Pos]))
      ++Pos;
    if (Pos == Line.size())
      return Count;
    const size_t Start = Pos;
    while (Pos < Line.size() && !Separates(Line[Pos]))
      ++Pos;
    if (Count < N)
      Fields[Count] = Line.substr(Start, Pos - Start);
    ++Count;
  }
}

/// Calls \p F on each piece of \p Text between occurrences of \p Sep, in
/// order, until one call returns false; returns false then.
template <typename Fn>
bool eachPiece(std::string_view Text, std::string_view Sep, const Fn &F) {
  while (true) {
    const size_t Next = Text.find(Sep);
    if (!F(Text.substr(0, Next)))
      return false;
    if (Next == NoPos)
      return true;
    Text.remove_prefix(Next + Sep.size());
  }
}

/// True when \p Text holds exactly one '='.
bool oneEquals(std::string_view Text) {
  const size_t Eq = Text.find('=');
  return Eq != NoPos && Text.find('=', Eq + 1) == NoPos;
}

/// Parsing context with line-numbered error reporting. Lines and tokens
/// are views of the text; only what the test keeps is copied.
class LitmusParser {
public:
  explicit LitmusParser(std::string_view Text) {
    Lines.reserve(std::count(Text.begin(), Text.end(), '\n') + 1);
    eachPiece(Text, "\n", [this](std::string_view Line) {
      Lines.push_back(trimString(Line.substr(0, Line.find("//"))));
      return true;
    });
  }

  Expected<LitmusTest> run() {
    LitmusTest Test;
    if (!parseHeader(Test))
      return fail();
    if (!parseInit(Test))
      return fail();
    while (atThreadHeader())
      if (!parseThread(Test))
        return fail();
    if (!parseFinal(Test))
      return fail();
    std::string Problem = Test.validate();
    if (!Problem.empty())
      return Expected<LitmusTest>::error("litmus validation: " + Problem);
    return Expected<LitmusTest>(std::move(Test));
  }

private:
  Expected<LitmusTest> fail() const {
    return Expected<LitmusTest>::error(
        strFormat("litmus parse error at line %u: %s", ErrorLine,
                  ErrorMessage.c_str()));
  }

  bool error(const std::string &Msg) {
    ErrorMessage = Msg;
    ErrorLine = static_cast<unsigned>(Cursor + 1);
    return false;
  }

  /// "<What> '<Text>'", the shape of most messages.
  bool error(const char *What, std::string_view Text) {
    return error(std::string(What) + " '" + std::string(Text) + "'");
  }

  bool atEnd() const { return Cursor >= Lines.size(); }

  std::string_view current() const { return Lines[Cursor]; }

  void skipBlank() {
    while (!atEnd() && current().empty())
      ++Cursor;
  }

  bool atThreadHeader() {
    skipBlank();
    return !atEnd() && current().size() >= 3 && current()[0] == 'P' &&
           std::isdigit(static_cast<unsigned char>(current()[1]));
  }

  bool parseHeader(LitmusTest &Test) {
    skipBlank();
    std::array<std::string_view, 2> Parts;
    if (atEnd() || splitFields(current(), false, Parts) != 2)
      return error("expected '<arch> <name>' header");
    if (!parseArch(std::string(Parts[0]), Test.TargetArch))
      return error("unknown architecture", Parts[0]);
    Test.Name = Parts[1];
    ++Cursor;
    return true;
  }

  bool parseInit(LitmusTest &Test) {
    skipBlank();
    if (atEnd() || current().empty() || current()[0] != '{')
      return true; // Initial section is optional.
    // Gather until the closing brace (possibly on the same line); the
    // lines of a longer section are joined without a separator.
    std::string_view Body = current();
    std::string Joined;
    ++Cursor;
    if (Body.find('}') == NoPos) {
      Joined = Body;
      while (!atEnd()) {
        Joined += current();
        const bool Done = current().find('}') != NoPos;
        ++Cursor;
        if (Done)
          break;
      }
      Body = Joined;
    }
    // The section opens with its '{'.
    const size_t Close = Body.find('}');
    if (Close == NoPos)
      return error("malformed initial state section");
    return eachPiece(
        Body.substr(1, Close - 1), ";", [&](std::string_view Piece) {
          const std::string_view Field = trimString(Piece);
          if (Field.empty())
            return true;
          const size_t Eq = Field.find('=');
          const std::string_view Loc = trimString(Field.substr(0, Eq));
          Value V = 0;
          if (!oneEquals(Field) || Loc.empty() ||
              !parseValueToken(Field.substr(Eq + 1), V))
            return error("malformed initialiser", Field);
          Test.Init[std::string(Loc)] = V;
          return true;
        });
  }

  bool parseThread(LitmusTest &Test) {
    // Current line is "P<k>:".
    const std::string_view Header = current();
    if (Header.back() != ':')
      return error("thread header must end with ':'");
    long long Parsed = 0;
    if (!parseBoundedUnsigned(Header.substr(1, Header.size() - 2), 10000LL,
                              Parsed))
      return error("malformed thread header", Header);
    unsigned Index = static_cast<unsigned>(Parsed);
    if (Index != Test.Threads.size())
      return error(strFormat("thread P%u out of order (expected P%zu)",
                             Index, Test.Threads.size()));
    ++Cursor;
    ThreadCode Code;
    while (!atEnd()) {
      skipBlank();
      if (atEnd() || atThreadHeaderNoSkip() || startsWith(current(), "exists"))
        break;
      Instruction Instr;
      if (!parseInstruction(current(), Instr))
        return false;
      Code.push_back(std::move(Instr));
      ++Cursor;
    }
    Test.Threads.push_back(std::move(Code));
    return true;
  }

  bool atThreadHeaderNoSkip() const {
    return !atEnd() && current().size() >= 3 && current()[0] == 'P' &&
           std::isdigit(static_cast<unsigned char>(current()[1])) &&
           current().back() == ':';
  }

  /// All-digits decimal without sign; bounded so hostile inputs cannot
  /// overflow.
  static bool parseBoundedUnsigned(std::string_view Digits, long long Max,
                                   long long &Out) {
    if (Digits.empty())
      return false;
    long long V = 0;
    for (char C : Digits) {
      if (!std::isdigit(static_cast<unsigned char>(C)))
        return false;
      V = V * 10 + (C - '0');
      if (V > Max)
        return false;
    }
    Out = V;
    return true;
  }

  /// A litmus value: optional sign plus digits, nothing else. Values in
  /// tests are small by construction; anything beyond +/-2^31 is a typo,
  /// not a test.
  static bool parseValueToken(std::string_view Token, Value &Out) {
    std::string_view Digits = trimString(Token);
    bool Negative = false;
    if (!Digits.empty() && (Digits[0] == '-' || Digits[0] == '+')) {
      Negative = Digits[0] == '-';
      Digits.remove_prefix(1);
    }
    long long V = 0;
    if (!parseBoundedUnsigned(Digits, 2147483647LL, V))
      return false;
    Out = Negative ? -V : V;
    return true;
  }

  /// "r7" -> 7.
  bool parseRegister(std::string_view Token, Register &Out) {
    long long V = 0;
    if (Token.size() < 2 || Token[0] != 'r' ||
        !parseBoundedUnsigned(Token.substr(1), 1000000LL, V))
      return error("expected register, got", Token);
    Out = static_cast<Register>(V);
    return true;
  }

  /// "#4" or "r2".
  bool parseOperand(std::string_view Token, Operand &Out) {
    if (!Token.empty() && Token[0] == '#') {
      Value V = 0;
      if (!parseValueToken(Token.substr(1), V))
        return error("malformed immediate", Token);
      Out = Operand::imm(V);
      return true;
    }
    Register R = 0;
    if (!parseRegister(Token, R))
      return false;
    Out = Operand::reg(R);
    return true;
  }

  /// "x" or "x[r2]" -> location + optional index register.
  bool parseLocation(std::string_view Token, std::string_view &Loc,
                     Register &AddrDep) {
    AddrDep = -1;
    const size_t Bracket = Token.find('[');
    Loc = Token.substr(0, Bracket);
    if (Bracket == NoPos)
      return true;
    if (Token.back() != ']')
      return error("malformed address", Token);
    return parseRegister(
        Token.substr(Bracket + 1, Token.size() - Bracket - 2), AddrDep);
  }

  bool parseInstruction(std::string_view Line, Instruction &Out) {
    // Tokenise on whitespace and commas.
    std::array<std::string_view, 4> Tokens;
    const size_t Count = splitFields(Line, true, Tokens);
    if (Count == 0)
      return error("empty instruction");
    const std::string_view Op = Tokens[0];

    if (Op == "ld") {
      if (Count != 3)
        return error("ld needs 'ld rD, loc'");
      Register Dst = 0, AddrDep = -1;
      std::string_view Loc;
      if (!parseRegister(Tokens[1], Dst) ||
          !parseLocation(Tokens[2], Loc, AddrDep))
        return false;
      Out = Instruction::load(Dst, std::string(Loc), AddrDep);
      return true;
    }
    if (Op == "st") {
      if (Count != 3)
        return error("st needs 'st loc, src'");
      Register AddrDep = -1;
      std::string_view Loc;
      Operand Src;
      if (!parseLocation(Tokens[1], Loc, AddrDep) ||
          !parseOperand(Tokens[2], Src))
        return false;
      Out = Instruction::store(std::string(Loc), Src, AddrDep);
      return true;
    }
    if (Op == "mov") {
      if (Count != 3)
        return error("mov needs 'mov rD, src'");
      Register Dst = 0;
      Operand Src;
      if (!parseRegister(Tokens[1], Dst) || !parseOperand(Tokens[2], Src))
        return false;
      Out = Instruction::move(Dst, Src);
      return true;
    }
    if (Op == "xor" || Op == "add") {
      if (Count != 4) {
        const std::string Name(Op);
        return error(Name + " needs '" + Name + " rD, rA, rB'");
      }
      Register Dst = 0, A = 0, B = 0;
      if (!parseRegister(Tokens[1], Dst) || !parseRegister(Tokens[2], A) ||
          !parseRegister(Tokens[3], B))
        return false;
      Out = Op == "xor" ? Instruction::xorOp(Dst, A, B)
                        : Instruction::addOp(Dst, A, B);
      return true;
    }
    if (Op == "beq") {
      if (Count != 2)
        return error("beq needs 'beq rS'");
      Register Src = 0;
      if (!parseRegister(Tokens[1], Src))
        return false;
      Out = Instruction::cmpBranch(Src);
      return true;
    }
    // Otherwise a fence name.
    if (Count != 1)
      return error("unknown instruction", Line);
    Out = Instruction::fenceNamed(std::string(Op));
    return true;
  }

  bool parseFinal(LitmusTest &Test) {
    skipBlank();
    if (atEnd())
      return true; // No final condition: trivially-true exists.
    const std::string_view Line = current();
    if (!startsWith(Line, "exists"))
      return error("expected 'exists (...)' or end of file");
    const size_t Open = Line.find('(');
    const size_t Close = Line.rfind(')');
    if (Open == NoPos || Close == NoPos || Close < Open)
      return error("malformed exists clause");
    // DNF: split on \/ then /\.
    const bool Parsed = eachPiece(
        Line.substr(Open + 1, Close - Open - 1), "\\/",
        [&](std::string_view Disjunct) {
          std::vector<ConditionAtom> Conj;
          if (!eachPiece(Disjunct, "/\\", [&](std::string_view Piece) {
                ConditionAtom Atom;
                if (!parseAtom(trimString(Piece), Atom))
                  return false;
                Conj.push_back(std::move(Atom));
                return true;
              }))
            return false;
          Test.Final.addConjunction(std::move(Conj));
          return true;
        });
    if (!Parsed)
      return false;
    ++Cursor;
    return true;
  }

  bool parseAtom(std::string_view Text, ConditionAtom &Out) {
    const size_t Eq = Text.find('=');
    const std::string_view Lhs = trimString(Text.substr(0, Eq));
    Value V = 0;
    if (!oneEquals(Text) || !parseValueToken(Text.substr(Eq + 1), V))
      return error("malformed condition atom", Text);
    const size_t Colon = Lhs.find(':');
    if (Colon != NoPos) {
      long long T = 0;
      if (!parseBoundedUnsigned(Lhs.substr(0, Colon), 10000LL, T))
        return error("malformed thread id in", Text);
      Register R = 0;
      if (!parseRegister(Lhs.substr(Colon + 1), R))
        return false;
      Out = ConditionAtom::regEquals(static_cast<ThreadId>(T), R, V);
      return true;
    }
    if (Lhs.empty())
      return error("malformed condition atom", Text);
    Out = ConditionAtom::memEquals(std::string(Lhs), V);
    return true;
  }

  std::vector<std::string_view> Lines;
  size_t Cursor = 0;
  std::string ErrorMessage = "unknown error";
  unsigned ErrorLine = 0;
};

} // namespace

Expected<LitmusTest> cats::parseLitmus(const std::string &Text) {
  return LitmusParser(Text).run();
}

Expected<LitmusTest> cats::parseLitmusFile(const std::string &Path) {
  std::string Text;
  bool Read;
  {
    obs::Span ReadSpan("litmus.read");
    Read = readWholeFile(Path, Text);
  }
  if (!Read)
    return Expected<LitmusTest>::error("cannot open litmus file " + Path);
  obs::Span ParseSpan("litmus.parse");
  return parseLitmus(Text);
}
