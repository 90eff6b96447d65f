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
#include <sys/stat.h>
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
    const std::string_view Trimmed = trimString(Field);
    if (!Trimmed.empty())
      Out.emplace_back(Trimmed);
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

std::string_view cats::trimString(std::string_view Text) {
  while (!Text.empty() && std::isspace(static_cast<unsigned char>(Text[0])))
    Text.remove_prefix(1);
  while (!Text.empty() &&
         std::isspace(static_cast<unsigned char>(Text.back())))
    Text.remove_suffix(1);
  return Text;
}

bool cats::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.substr(0, Prefix.size()) == Prefix;
}

bool cats::endsWith(std::string_view Text, std::string_view Suffix) {
  return Text.size() >= Suffix.size() &&
         Text.substr(Text.size() - Suffix.size()) == Suffix;
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
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  // A regular file is read with one read of its size; a pipe, or a file
  // that says it is empty (as /proc files do), is read in chunks to its
  // end. Anything else, a directory or a device, is refused.
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0 &&
            (S_ISREG(St.st_mode) || S_ISFIFO(St.st_mode));
  if (Ok) {
    const bool Sized = S_ISREG(St.st_mode) && St.st_size > 0;
    Out.resize(Sized ? static_cast<size_t>(St.st_size) : 4096);
    size_t Got = 0;
    while (Got < Out.size() || !Sized) {
      if (Got == Out.size())
        Out.resize(2 * Got);
      const ssize_t N = ::read(Fd, Out.data() + Got, Out.size() - Got);
      if (N > 0) {
        Got += static_cast<size_t>(N);
      } else if (N == 0) {
        break;
      } else if (errno != EINTR) {
        Ok = false;
        break;
      }
    }
    Out.resize(Got);
  }
  ::close(Fd);
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
