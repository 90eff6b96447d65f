//===- ResultCache.cpp - Content-addressed verdict cache ------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "campaign/ResultCache.h"

#include "obs/Trace.h"
#include "support/StringUtils.h"
#include "sweep/ReportIO.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <unordered_map>

#include <fcntl.h>
#include <unistd.h>

using namespace cats;

namespace {

/// Bumped whenever the log format or the key recipe changes; part of the
/// hashed content and the first line of every log, so older caches simply
/// miss.
constexpr const char *CacheFormatVersion = "cats-cache/4";

/// An entry line: the key's 32 hex digits, a space, the sum's 16, a
/// space, and the record from RecordAt on.
constexpr size_t RecordAt = 32 + 1 + 16 + 1;

constexpr uint64_t FnvBasis = 14695981039346656037ull;

/// Continues 64-bit FNV-1a state \p H over \p Text.
uint64_t fnv1a64(std::string_view Text, uint64_t H) {
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// A cache key as the two 64-bit halves its hex spells, in order.
struct Key {
  uint64_t High = 0;
  uint64_t Low = 0;
  bool operator==(const Key &Other) const {
    return High == Other.High && Low == Other.Low;
  }
};

/// The halves are FNV-1a outputs, already well mixed.
struct KeyHash {
  size_t operator()(const Key &K) const noexcept {
    return static_cast<size_t>(K.Low);
  }
};

Key keyOf(const LitmusTest &Test, const CacheModelSet &Set) {
  const std::string Text = Test.toString();
  return {fnv1a64(Text, Set.Hi), fnv1a64(Text, Set.Lo)};
}

std::string hexOf(const Key &K) {
  return strFormat("%016llx%016llx", static_cast<unsigned long long>(K.High),
                   static_cast<unsigned long long>(K.Low));
}

/// Reads the 16 hex digits at \p Text.
bool readHex(const char *Text, uint64_t &Out) {
  const auto [End, Ec] = std::from_chars(Text, Text + 16, Out, 16);
  return Ec == std::errc() && End == Text + 16;
}

/// Reads the key and the sum from the first RecordAt bytes of an entry
/// line; false unless they are spelled as the writer spells them.
bool readHead(const char *Line, Key &K, uint64_t &Sum) {
  return readHex(Line, K.High) && readHex(Line + 16, K.Low) &&
         Line[32] == ' ' && readHex(Line + 33, Sum) && Line[49] == ' ';
}

/// Where an indexed entry line lies: its log, its offset, and its length
/// without the newline.
struct LineRef {
  uint32_t Log;
  uint32_t Length;
  uint64_t Offset;
};

} // namespace

struct ResultCache::State {
  std::string Dir;
  /// The indexed logs' paths, then this handle's own log once created.
  std::vector<std::string> Logs;
  std::unordered_map<Key, LineRef, KeyHash> Index;
  /// This handle's log, the last of Logs: its descriptor (-1 until the
  /// first store) and its length.
  int Fd = -1;
  uint64_t Size = 0;
  /// A store failed: store nothing more.
  bool Failed = false;

  ~State() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Indexes the whole entry lines of log \p Path, in file order. Skips
  /// a file whose first line is not the header.
  void indexLog(const std::string &Path);

  /// Reads the record stored under key \p K into \p Record. False when
  /// the index holds no line for it before \p End, in log and then file
  /// order, or its line cannot be read back or no longer carries that key
  /// and the sum of its record.
  bool find(const Key &K, std::string &Record,
            LineRef End = {UINT32_MAX, 0, 0}) const;

  /// Creates this handle's log, under a name no other writer holds that
  /// sorts by creation: the time in nanoseconds, the process id and a
  /// count of the logs this process created.
  Status createLog();
};

void ResultCache::State::indexLog(const std::string &Path) {
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In)
    return;
  const auto Log = static_cast<uint32_t>(Logs.size());
  // One line at a time into one buffer, freed before returning. A last
  // line without its newline is never indexed.
  char *Line = nullptr;
  size_t Capacity = 0;
  uint64_t Offset = 0;
  bool SawHeader = false;
  for (ssize_t Got; (Got = ::getline(&Line, &Capacity, In)) > 0 &&
                    Line[Got - 1] == '\n';
       Offset += static_cast<uint64_t>(Got)) {
    const auto Length = static_cast<size_t>(Got - 1);
    if (!SawHeader) {
      if (std::string_view(Line, Length) != CacheFormatVersion)
        break;
      SawHeader = true;
      continue;
    }
    Key K;
    uint64_t Sum = 0;
    if (Length > RecordAt && Length <= UINT32_MAX && readHead(Line, K, Sum))
      Index.insert_or_assign(
          K, LineRef{Log, static_cast<uint32_t>(Length), Offset});
  }
  std::free(Line);
  std::fclose(In);
  if (SawHeader)
    Logs.push_back(Path);
}

Status ResultCache::State::createLog() {
  static std::atomic<unsigned> Created{0};
  const long long Now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const std::string Path =
      Dir + strFormat("/%020lld-%010ld-%010u.log", Now,
                      static_cast<long>(::getpid()), Created++);
  // O_EXCL: never open a log that exists, whoever made it.
  const int Out =
      ::open(Path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC,
             0666);
  if (Out < 0)
    return Status::error(strFormat("cannot create %s: %s", Path.c_str(),
                                   std::strerror(errno)));
  const std::string Header = std::string(CacheFormatVersion) + "\n";
  if (::write(Out, Header.data(), Header.size()) !=
      static_cast<ssize_t>(Header.size())) {
    ::close(Out);
    return Status::error(strFormat("cannot write %s", Path.c_str()));
  }
  Fd = Out;
  Logs.push_back(Path);
  Size = Header.size();
  return Status::success();
}

CacheModelSet::CacheModelSet(const std::vector<const Model *> &Models) {
  // The judging backend is deliberately not hashed: every backend
  // produces byte-identical results (tests/differential.cpp), so an entry
  // stored by one is a valid answer for any other
  // (ResultCache.EntriesAreBackendIndependent in tests/campaign.cpp).
  std::string Content = std::string(CacheFormatVersion) + "\nmodels:";
  Names.reserve(Models.size());
  for (const Model *M : Models) {
    Names.push_back(M->name());
    Content += Names.back() + "=" + M->definitionFingerprint() + ";";
  }
  Content += "\n";
  // Two independently seeded 64-bit FNV-1a halves make a 128-bit key;
  // collisions at any realistic campaign scale are then negligible.
  Lo = fnv1a64(Content, FnvBasis);
  Hi = fnv1a64(Content, 0x9e3779b97f4a7c15ull);
}

std::string cats::resultCacheKey(const LitmusTest &Test,
                                 const CacheModelSet &Set) {
  return hexOf(keyOf(Test, Set));
}

std::string cats::resultCacheKey(const LitmusTest &Test,
                                 const std::vector<const Model *> &Models) {
  return resultCacheKey(Test, CacheModelSet(Models));
}

ResultCache::ResultCache(std::unique_ptr<State> S) : S(std::move(S)) {}
ResultCache::ResultCache(ResultCache &&) noexcept = default;
ResultCache &ResultCache::operator=(ResultCache &&) noexcept = default;
ResultCache::~ResultCache() = default;

Expected<ResultCache> cats::ResultCache::open(const std::string &Dir) {
  using Ret = Expected<ResultCache>;
  obs::Span OpenSpan("cache.open");
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return Ret::error(strFormat("cannot create cache directory %s: %s",
                                Dir.c_str(), Ec.message().c_str()));
  std::vector<std::string> Names;
  std::error_code Ignored;
  for (std::filesystem::directory_iterator It(Dir, Ec), End;
       !Ec && It != End; It.increment(Ec))
    if (It->path().extension() == ".log" && It->is_regular_file(Ignored))
      Names.push_back(It->path().filename().string());
  if (Ec)
    return Ret::error(strFormat("cannot read cache directory %s: %s",
                                Dir.c_str(), Ec.message().c_str()));
  std::sort(Names.begin(), Names.end());
  auto S = std::make_unique<State>();
  S->Dir = Dir;
  for (const std::string &Name : Names)
    S->indexLog(Dir + "/" + Name);
  return ResultCache(std::move(S));
}

bool ResultCache::State::find(const Key &K, std::string &Record,
                              LineRef End) const {
  const auto Found = Index.find(K);
  if (Found == Index.end())
    return false;
  // Read the line back, holding no descriptor past the lookup, and take
  // it only when its key and sum still match.
  const LineRef &At = Found->second;
  if (At.Log > End.Log || (At.Log == End.Log && At.Offset >= End.Offset))
    return false;
  std::string Line(At.Length, '\0');
  const int In = ::open(Logs[At.Log].c_str(), O_RDONLY | O_CLOEXEC);
  if (In < 0)
    return false;
  const ssize_t Got = ::pread(In, Line.data(), Line.size(),
                              static_cast<off_t>(At.Offset));
  ::close(In);
  Key Stored;
  uint64_t Sum = 0;
  if (Got != static_cast<ssize_t>(Line.size()) ||
      !readHead(Line.data(), Stored, Sum) || !(Stored == K) ||
      fnv1a64(std::string_view(Line).substr(RecordAt), FnvBasis) != Sum)
    return false;
  Line.erase(0, RecordAt);
  Record = std::move(Line);
  return true;
}

bool ResultCache::lookup(const LitmusTest &Test, const CacheModelSet &Set,
                         SweepTestResult &Out) const {
  std::string Record;
  {
    obs::Span LookupSpan("cache.lookup");
    if (!S->find(keyOf(Test, Set), Record))
      return false;
  }
  // The line's record is the one the writer rendered: served verbatim,
  // it is what a report lists.
  return resultFromRecord(std::move(Record), Test, Set.Names, Out);
}

bool ResultCache::lookup(const LitmusTest &Test,
                         const std::vector<const Model *> &Models,
                         SweepTestResult &Out) const {
  return lookup(Test, CacheModelSet(Models), Out);
}

Status ResultCache::store(const LitmusTest &Test, const CacheModelSet &Set,
                          const SweepTestResult &Result) const {
  if (!Result.Error.empty() || S->Failed)
    return Status::success();
  obs::Span StoreSpan("cache.store");
  if (S->Fd < 0) {
    if (Status Created = S->createLog(); Created.failed()) {
      S->Failed = true;
      return Created;
    }
  }
  const Key K = keyOf(Test, Set);
  // A result judged for this store carries its record already.
  const std::string Rendered =
      Result.Record.empty() ? sweepTestResultToJson(Result).dump(0)
                            : std::string();
  const std::string &Record = Result.Record.empty() ? Rendered : Result.Record;
  const std::string Line =
      hexOf(K) +
      strFormat(" %016llx ", static_cast<unsigned long long>(
                                 fnv1a64(Record, FnvBasis))) +
      Record + "\n";
  // One write per line, so the line is whole in the log when the store
  // returns; after a short one nothing more is appended, so the cut line
  // stays the last and is never indexed.
  if (::write(S->Fd, Line.data(), Line.size()) !=
      static_cast<ssize_t>(Line.size())) {
    S->Failed = true;
    return Status::error(strFormat("cannot write %s; storing nothing more",
                                   S->Logs.back().c_str()));
  }
  const auto Log = static_cast<uint32_t>(S->Logs.size() - 1);
  S->Index.insert_or_assign(
      K, LineRef{Log, static_cast<uint32_t>(Line.size() - 1), S->Size});
  S->Size += Line.size();
  return Status::success();
}

Status ResultCache::store(const LitmusTest &Test,
                          const std::vector<const Model *> &Models,
                          const SweepTestResult &Result) const {
  return store(Test, CacheModelSet(Models), Result);
}

StreamHooks
ResultCache::hooks(const std::vector<const Model *> &Models) const {
  auto Set = std::make_shared<const CacheModelSet>(Models);
  StreamHooks Hooks;
  // The lookup only reads, on the calling thread: it hands back the
  // record, and the engine decodes and checks it (resultFromRecord) where
  // it would judge the test, on a worker. It serves only the lines stored
  // before the hooks were made, which end in this handle's own log, the
  // last one once its first store creates it: whether a sweep stored a
  // test's earlier copy before its lookup depends on the worker count.
  const LineRef End{static_cast<uint32_t>(S->Logs.size() - (S->Fd >= 0)), 0,
                    S->Size};
  Hooks.CacheLookup = [this, Set, End](const LitmusTest &Test,
                                       SweepTestResult &Out) {
    obs::Span LookupSpan("cache.lookup");
    return S->find(keyOf(Test, *Set), Out.Record, End);
  };
  Hooks.CacheStore = [this, Set](const LitmusTest &Test,
                                 const SweepTestResult &Result) {
    Status Stored = store(Test, *Set, Result);
    if (Stored.failed())
      std::fprintf(stderr, "result-cache: %s\n", Stored.message().c_str());
  };
  return Hooks;
}
