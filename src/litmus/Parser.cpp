//===- Parser.cpp - Text format for litmus tests --------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "litmus/Parser.h"

#include "support/StringUtils.h"

#include <cctype>

using namespace cats;

namespace {

/// Parsing context with line-numbered error reporting.
class LitmusParser {
public:
  explicit LitmusParser(const std::string &Text) {
    for (const std::string &Line : splitString(Text, '\n')) {
      std::string Clean = Line;
      size_t Comment = Clean.find("//");
      if (Comment != std::string::npos)
        Clean = Clean.substr(0, Comment);
      Lines.push_back(trimString(Clean));
    }
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
    return Test;
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

  bool atEnd() const { return Cursor >= Lines.size(); }

  const std::string &current() const { return Lines[Cursor]; }

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
    if (atEnd())
      return error("expected '<arch> <name>' header");
    auto Parts = splitWhitespace(current());
    if (Parts.size() != 2)
      return error("expected '<arch> <name>' header");
    if (!parseArch(Parts[0], Test.TargetArch))
      return error("unknown architecture '" + Parts[0] + "'");
    Test.Name = Parts[1];
    ++Cursor;
    return true;
  }

  bool parseInit(LitmusTest &Test) {
    skipBlank();
    if (atEnd() || current().empty() || current()[0] != '{')
      return true; // Initial section is optional.
    // Gather until the closing brace (possibly on the same line).
    std::string Body;
    while (!atEnd()) {
      Body += current();
      bool Done = current().find('}') != std::string::npos;
      ++Cursor;
      if (Done)
        break;
    }
    size_t Open = Body.find('{');
    size_t Close = Body.find('}');
    if (Open == std::string::npos || Close == std::string::npos ||
        Close < Open)
      return error("malformed initial state section");
    for (std::string Field :
         splitString(Body.substr(Open + 1, Close - Open - 1), ';')) {
      Field = trimString(Field);
      if (Field.empty())
        continue;
      auto KV = splitString(Field, '=');
      if (KV.size() != 2)
        return error("malformed initialiser '" + Field + "'");
      std::string Loc = trimString(KV[0]);
      Value V = 0;
      if (Loc.empty() || !parseValueToken(KV[1], V))
        return error("malformed initialiser '" + Field + "'");
      Test.Init[Loc] = V;
    }
    return true;
  }

  bool parseThread(LitmusTest &Test) {
    // Current line is "P<k>:".
    std::string Header = current();
    if (Header.back() != ':')
      return error("thread header must end with ':'");
    long long Parsed = 0;
    if (!parseBoundedUnsigned(Header.substr(1, Header.size() - 2), 10000LL,
                              Parsed))
      return error("malformed thread header '" + Header + "'");
    unsigned Index = static_cast<unsigned>(Parsed);
    if (Index != Test.Threads.size())
      return error(strFormat("thread P%u out of order (expected P%zu)",
                             Index, Test.Threads.size()));
    ++Cursor;
    ThreadCode Code;
    while (!atEnd()) {
      skipBlank();
      if (atEnd() || atThreadHeaderNoSkip() || startsWith(current(),
                                                          "exists"))
        break;
      Instruction Instr;
      if (!parseInstruction(current(), Instr))
        return false;
      Code.push_back(Instr);
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
  /// overflow (the stdlib conversions throw instead of failing, which
  /// would crash the CLI on a malformed test).
  static bool parseBoundedUnsigned(const std::string &Digits, long long Max,
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
  static bool parseValueToken(const std::string &Token, Value &Out) {
    std::string Digits = trimString(Token);
    bool Negative = false;
    if (!Digits.empty() && (Digits[0] == '-' || Digits[0] == '+')) {
      Negative = Digits[0] == '-';
      Digits.erase(0, 1);
    }
    long long V = 0;
    if (!parseBoundedUnsigned(Digits, 2147483647LL, V))
      return false;
    Out = Negative ? -V : V;
    return true;
  }

  /// "r7" -> 7.
  bool parseRegister(const std::string &Token, Register &Out) {
    long long V = 0;
    if (Token.size() < 2 || Token[0] != 'r' ||
        !parseBoundedUnsigned(Token.substr(1), 1000000LL, V))
      return error("expected register, got '" + Token + "'");
    Out = static_cast<Register>(V);
    return true;
  }

  /// "#4" or "r2".
  bool parseOperand(const std::string &Token, Operand &Out) {
    if (!Token.empty() && Token[0] == '#') {
      Value V = 0;
      if (!parseValueToken(Token.substr(1), V))
        return error("malformed immediate '" + Token + "'");
      Out = Operand::imm(V);
      return true;
    }
    Register R;
    if (!parseRegister(Token, R))
      return false;
    Out = Operand::reg(R);
    return true;
  }

  /// "x" or "x[r2]" -> location + optional index register.
  bool parseLocation(const std::string &Token, std::string &Loc,
                     Register &AddrDep) {
    AddrDep = -1;
    size_t Bracket = Token.find('[');
    if (Bracket == std::string::npos) {
      Loc = Token;
      return true;
    }
    if (Token.back() != ']')
      return error("malformed address '" + Token + "'");
    Loc = Token.substr(0, Bracket);
    std::string RegTok =
        Token.substr(Bracket + 1, Token.size() - Bracket - 2);
    return parseRegister(RegTok, AddrDep);
  }

  bool parseInstruction(const std::string &Line, Instruction &Out) {
    // Tokenise on whitespace and commas.
    std::string Spaced;
    for (char C : Line)
      Spaced += (C == ',') ? ' ' : C;
    auto Tokens = splitWhitespace(Spaced);
    if (Tokens.empty())
      return error("empty instruction");
    const std::string &Op = Tokens[0];

    if (Op == "ld") {
      if (Tokens.size() != 3)
        return error("ld needs 'ld rD, loc'");
      Register Dst, AddrDep;
      std::string Loc;
      if (!parseRegister(Tokens[1], Dst) ||
          !parseLocation(Tokens[2], Loc, AddrDep))
        return false;
      Out = Instruction::load(Dst, Loc, AddrDep);
      return true;
    }
    if (Op == "st") {
      if (Tokens.size() != 3)
        return error("st needs 'st loc, src'");
      Register AddrDep;
      std::string Loc;
      Operand Src;
      if (!parseLocation(Tokens[1], Loc, AddrDep) ||
          !parseOperand(Tokens[2], Src))
        return false;
      Out = Instruction::store(Loc, Src, AddrDep);
      return true;
    }
    if (Op == "mov") {
      if (Tokens.size() != 3)
        return error("mov needs 'mov rD, src'");
      Register Dst;
      Operand Src;
      if (!parseRegister(Tokens[1], Dst) || !parseOperand(Tokens[2], Src))
        return false;
      Out = Instruction::move(Dst, Src);
      return true;
    }
    if (Op == "xor" || Op == "add") {
      if (Tokens.size() != 4)
        return error(Op + " needs '" + Op + " rD, rA, rB'");
      Register Dst, A, B;
      if (!parseRegister(Tokens[1], Dst) || !parseRegister(Tokens[2], A) ||
          !parseRegister(Tokens[3], B))
        return false;
      Out = Op == "xor" ? Instruction::xorOp(Dst, A, B)
                        : Instruction::addOp(Dst, A, B);
      return true;
    }
    if (Op == "beq") {
      if (Tokens.size() != 2)
        return error("beq needs 'beq rS'");
      Register Src;
      if (!parseRegister(Tokens[1], Src))
        return false;
      Out = Instruction::cmpBranch(Src);
      return true;
    }
    // Otherwise a fence name.
    if (Tokens.size() != 1)
      return error("unknown instruction '" + Line + "'");
    Out = Instruction::fenceNamed(Op);
    return true;
  }

  bool parseFinal(LitmusTest &Test) {
    skipBlank();
    if (atEnd())
      return true; // No final condition: trivially-true exists.
    std::string Line = current();
    if (!startsWith(Line, "exists"))
      return error("expected 'exists (...)' or end of file");
    size_t Open = Line.find('(');
    size_t Close = Line.rfind(')');
    if (Open == std::string::npos || Close == std::string::npos ||
        Close < Open)
      return error("malformed exists clause");
    std::string Body = Line.substr(Open + 1, Close - Open - 1);
    // DNF: split on \/ then /\.
    for (const std::string &DisjStr : splitOn(Body, "\\/")) {
      std::vector<ConditionAtom> Conj;
      for (std::string AtomStr : splitOn(DisjStr, "/\\")) {
        AtomStr = trimString(AtomStr);
        ConditionAtom Atom;
        if (!parseAtom(AtomStr, Atom))
          return false;
        Conj.push_back(Atom);
      }
      Test.Final.addConjunction(std::move(Conj));
    }
    ++Cursor;
    return true;
  }

  static std::vector<std::string> splitOn(const std::string &Text,
                                          const std::string &Sep) {
    std::vector<std::string> Out;
    size_t Pos = 0;
    while (true) {
      size_t Next = Text.find(Sep, Pos);
      if (Next == std::string::npos) {
        Out.push_back(Text.substr(Pos));
        return Out;
      }
      Out.push_back(Text.substr(Pos, Next - Pos));
      Pos = Next + Sep.size();
    }
  }

  bool parseAtom(const std::string &Text, ConditionAtom &Out) {
    auto Eq = splitString(Text, '=');
    if (Eq.size() != 2)
      return error("malformed condition atom '" + Text + "'");
    std::string Lhs = trimString(Eq[0]);
    Value V = 0;
    if (!parseValueToken(Eq[1], V))
      return error("malformed condition atom '" + Text + "'");
    size_t Colon = Lhs.find(':');
    if (Colon != std::string::npos) {
      long long T = 0;
      if (!parseBoundedUnsigned(Lhs.substr(0, Colon), 10000LL, T))
        return error("malformed thread id in '" + Text + "'");
      Register R;
      if (!parseRegister(Lhs.substr(Colon + 1), R))
        return false;
      Out = ConditionAtom::regEquals(static_cast<ThreadId>(T), R, V);
      return true;
    }
    if (Lhs.empty())
      return error("malformed condition atom '" + Text + "'");
    Out = ConditionAtom::memEquals(Lhs, V);
    return true;
  }

  std::vector<std::string> Lines;
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
  if (!readWholeFile(Path, Text))
    return Expected<LitmusTest>::error("cannot open litmus file " + Path);
  return parseLitmus(Text);
}
