//===- MoleParser.cpp - Text format for mole mini-IR programs -------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "mole/MoleParser.h"

#include "support/StringUtils.h"


using namespace cats;

Expected<MoleProgram> cats::parseMoleProgram(const std::string &Text) {
  using Fail = Expected<MoleProgram>;
  MoleProgram Program;
  MoleFunction *Current = nullptr;
  unsigned LineNo = 0;

  for (std::string Line : splitString(Text, '\n')) {
    ++LineNo;
    size_t Comment = Line.find("//");
    if (Comment != std::string::npos)
      Line = Line.substr(0, Comment);
    auto Tokens = splitWhitespace(Line);
    if (Tokens.empty())
      continue;
    auto Err = [&](const std::string &Msg) {
      return Fail::error(
          strFormat("mole parse error at line %u: %s", LineNo,
                    Msg.c_str()));
    };

    if (Tokens[0] == "program") {
      if (Tokens.size() != 2)
        return Err("expected 'program <name>'");
      Program.Name = Tokens[1];
      continue;
    }
    if (Tokens[0] == "fn") {
      // "fn name {" — the brace may be attached or separate.
      if (Tokens.size() < 2)
        return Err("expected 'fn <name> {'");
      std::string Name = Tokens[1];
      if (endsWith(Name, "{"))
        Name = Name.substr(0, Name.size() - 1);
      if (Name.empty())
        return Err("expected a function name");
      Program.Functions.push_back({Name, {}});
      Current = &Program.Functions.back();
      continue;
    }
    if (Tokens[0] == "}") {
      if (!Current)
        return Err("unmatched '}'");
      Current = nullptr;
      continue;
    }
    if (!Current)
      return Err("statement outside a function: '" + Tokens[0] + "'");
    if (Tokens.size() != 2)
      return Err("expected '<read|write|fence> <operand>'");
    if (Tokens[0] == "read")
      Current->Body.push_back(MoleAccess::read(Tokens[1]));
    else if (Tokens[0] == "write")
      Current->Body.push_back(MoleAccess::write(Tokens[1]));
    else if (Tokens[0] == "fence")
      Current->Body.push_back(MoleAccess::fence(Tokens[1]));
    else
      return Err("unknown statement '" + Tokens[0] + "'");
  }
  if (Current)
    return Fail::error("mole parse error: unterminated function " +
                       Current->Name);
  if (Program.Functions.empty())
    return Fail::error("mole parse error: no functions");
  if (Program.Name.empty())
    Program.Name = "anonymous";
  return Program;
}

Expected<MoleProgram> cats::parseMoleFile(const std::string &Path) {
  std::string Text;
  if (!readWholeFile(Path, Text))
    return Expected<MoleProgram>::error("cannot open mole file " + Path);
  return parseMoleProgram(Text);
}

std::string cats::moleProgramToString(const MoleProgram &Program) {
  std::string Out = "program " + Program.Name + "\n";
  for (const MoleFunction &Fn : Program.Functions) {
    Out += "fn " + Fn.Name + " {\n";
    for (const MoleAccess &A : Fn.Body) {
      switch (A.AccessKind) {
      case MoleAccess::Kind::Read:
        Out += "  read " + A.Var + "\n";
        break;
      case MoleAccess::Kind::Write:
        Out += "  write " + A.Var + "\n";
        break;
      case MoleAccess::Kind::Fence:
        Out += "  fence " + A.FenceName + "\n";
        break;
      }
    }
    Out += "}\n";
  }
  return Out;
}
