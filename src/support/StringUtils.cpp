//===- StringUtils.cpp - Small string helpers -----------------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>

#include <fcntl.h>
#include <unistd.h>

using namespace cats;

std::vector<std::string> cats::splitString(const std::string &Text, char Sep) {
  std::vector<std::string> Parts;
  std::string Current;
  for (char C : Text) {
    if (C == Sep) {
      Parts.push_back(Current);
      Current.clear();
    } else {
      Current.push_back(C);
    }
  }
  Parts.push_back(Current);
  return Parts;
}

std::vector<std::string>
cats::splitTrimmedNonEmpty(const std::string &Text, char Sep) {
  std::vector<std::string> Out;
  for (const std::string &Field : splitString(Text, Sep)) {
    std::string Trimmed = trimString(Field);
    if (!Trimmed.empty())
      Out.push_back(std::move(Trimmed));
  }
  return Out;
}

std::vector<std::string> cats::splitWhitespace(const std::string &Text) {
  std::vector<std::string> Parts;
  std::string Current;
  for (char C : Text) {
    if (std::isspace(static_cast<unsigned char>(C))) {
      if (!Current.empty()) {
        Parts.push_back(Current);
        Current.clear();
      }
    } else {
      Current.push_back(C);
    }
  }
  if (!Current.empty())
    Parts.push_back(Current);
  return Parts;
}

std::string cats::trimString(const std::string &Text) {
  size_t Begin = 0, End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

bool cats::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

bool cats::endsWith(const std::string &Text, const std::string &Suffix) {
  return Text.size() >= Suffix.size() &&
         Text.compare(Text.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

std::string cats::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out;
  if (Needed > 0) {
    Out.resize(static_cast<size_t>(Needed) + 1);
    std::vsnprintf(Out.data(), Out.size(), Fmt, ArgsCopy);
    Out.resize(static_cast<size_t>(Needed));
  }
  va_end(ArgsCopy);
  return Out;
}

std::string cats::joinStrings(const std::vector<std::string> &Parts,
                              const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string cats::padRight(const std::string &Text, unsigned Width) {
  if (Text.size() >= Width)
    return Text;
  return Text + std::string(Width - Text.size(), ' ');
}

std::string cats::padLeft(const std::string &Text, unsigned Width) {
  if (Text.size() >= Width)
    return Text;
  return std::string(Width - Text.size(), ' ') + Text;
}

bool cats::parseUnsignedArg(const char *Text, unsigned long long &Out) {
  // Reject everything strtoull would silently tolerate: leading
  // whitespace, signs, and out-of-range values (ERANGE saturation).
  if (!Text || !std::isdigit(static_cast<unsigned char>(*Text)))
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return End && *End == '\0' && errno != ERANGE;
}

bool cats::parseUnsignedArg(const char *Text, unsigned &Out) {
  unsigned long long Wide = 0;
  if (!parseUnsignedArg(Text, Wide) ||
      Wide > std::numeric_limits<unsigned>::max())
    return false;
  Out = static_cast<unsigned>(Wide);
  return true;
}

bool cats::readWholeFile(const std::string &Path, std::string &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  Out.clear();
  // A regular file is read into a buffer of its size in one go; the
  // chunked loop then only confirms the end (or reads a pipe).
  if (std::fseek(File, 0, SEEK_END) == 0) {
    const long Size = std::ftell(File);
    std::rewind(File);
    if (Size > 0) {
      Out.resize(static_cast<size_t>(Size));
      Out.resize(std::fread(Out.data(), 1, Out.size(), File));
    }
  }
  char Chunk[4096];
  while (size_t Got = std::fread(Chunk, 1, sizeof(Chunk), File))
    Out.append(Chunk, Got);
  const bool Ok = !std::ferror(File);
  std::fclose(File);
  return Ok;
}

Status cats::writeWholeFile(const std::string &Path, const std::string &Text) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return Status::error(strFormat("cannot write %s", Path.c_str()));
  const bool Wrote =
      std::fwrite(Text.data(), 1, Text.size(), File) == Text.size();
  // The close flushes what the stream still buffers, so it can fail too.
  const bool Closed = std::fclose(File) == 0;
  if (!Wrote || !Closed)
    return Status::error(strFormat("cannot write %s", Path.c_str()));
  return Status::success();
}

std::string cats::temporaryDirectory() {
  std::error_code Ec;
  std::string Dir = std::filesystem::temp_directory_path(Ec).string();
  return Ec ? "/tmp" : Dir;
}

int cats::openUnnamedFile(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDWR | O_TMPFILE | O_CLOEXEC, 0600);
  if (Fd < 0) {
    // No O_TMPFILE there: a named file, unlinked at once.
    std::string Path = Dir + "/cats-XXXXXX";
    Fd = ::mkostemp(Path.data(), O_CLOEXEC);
    if (Fd >= 0)
      ::unlink(Path.c_str());
  }
  return Fd;
}
