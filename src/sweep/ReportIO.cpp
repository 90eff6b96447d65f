//===- ReportIO.cpp - cats-sweep-report/2 (de)serialization ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/ReportIO.h"

#include "obs/Trace.h"
#include "obs/Witness.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>

#include <unistd.h>

using namespace cats;

//===----------------------------------------------------------------------===//
// Writer (cats-sweep-report/2, see docs/report-schemas.md)
//===----------------------------------------------------------------------===//

bool cats::isSweepReportSchema(const std::string &Schema) {
  return Schema == SweepReportSchema || Schema == "cats-sweep-report/1";
}

namespace {

/// The "allowed" member of a model block: indices into the outcome table.
JsonValue allowedToJson(const std::vector<uint32_t> &Indices) {
  JsonValue Allowed = JsonValue::array();
  Allowed.elements().reserve(Indices.size());
  for (uint32_t Idx : Indices)
    Allowed.push(Idx);
  return Allowed;
}

} // namespace

JsonValue cats::sweepTestResultToJson(const SweepTestResult &T) {
  JsonValue Entry = JsonValue::object();
  Entry.setOneLine();
  Entry.members().reserve(T.Error.empty() ? 6 : 3);
  Entry.set("name", T.TestName);
  Entry.set("wall_seconds", T.WallSeconds);
  if (!T.Error.empty()) {
    Entry.set("error", T.Error);
    return Entry;
  }
  Entry.set("candidates_total", T.Result.CandidatesTotal);
  Entry.set("candidates_consistent", T.Result.CandidatesConsistent);

  // Containers are sized up front: the document then holds no slack and
  // is built without a reallocation.
  const OutcomeTable &Table = T.Result.ConsistentOutcomes;
  JsonValue States = JsonValue::array();
  States.elements().reserve(Table.size());
  for (size_t I = 0; I < Table.size(); ++I)
    States.push(std::string(Table.key(I)));
  Entry.set("consistent_states", std::move(States));

  JsonValue Models = JsonValue::array();
  Models.elements().reserve(T.Result.PerModel.size());
  for (const SimulationResult &R : T.Result.PerModel) {
    JsonValue M = JsonValue::object();
    M.members().reserve(4);
    M.set("model", R.ModelName);
    M.set("verdict", R.verdict());
    M.set("candidates_allowed", R.CandidatesAllowed);
    M.set("allowed", allowedToJson(R.AllowedOutcomes));
    Models.push(std::move(M));
  }
  Entry.set("models", std::move(Models));
  return Entry;
}

JsonValue cats::sweepReportToJson(const SweepReport &Report) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", SweepReportSchema);
  Root.set("jobs", Report.Jobs);
  Root.set("wall_seconds", Report.WallSeconds);
  if (Report.CacheUsed) {
    JsonValue Cache = JsonValue::object();
    Cache.set("hits", Report.CacheHits);
    Cache.set("misses", Report.CacheMisses);
    Root.set("cache", std::move(Cache));
  }

  JsonValue Tests = JsonValue::array();
  Tests.elements().reserve(Report.Tests.size());
  for (const SweepTestResult &T : Report.Tests)
    Tests.push(sweepTestResultToJson(T));
  Root.set("tests", std::move(Tests));

  // The witness section exists only when capture ran (--witness); plain
  // reports stay byte-identical to pre-witness renderings.
  std::vector<obs::Witness> Witnesses;
  for (const SweepTestResult &T : Report.Tests)
    Witnesses.insert(Witnesses.end(), T.Result.Witnesses.begin(),
                     T.Result.Witnesses.end());
  if (!Witnesses.empty())
    Root.set("witness", obs::witnessSectionToJson(Witnesses));
  return Root;
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

bool cats::countFromJson(const JsonValue *V, unsigned long long &Out) {
  Out = 0;
  if (!V)
    return true;
  if (!V->isNumber())
    return false;
  const double N = V->asNumber();
  // The range test fails on NaN too; inside it the cast is exact.
  if (!(N >= 0 && N <= static_cast<double>(MaxJsonCount)))
    return false;
  Out = static_cast<unsigned long long>(N);
  return static_cast<double>(Out) == N;
}

namespace {

/// The member as a string; empty when absent.
std::string stringOf(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.get(Key);
  return V && V->isString() ? V->asString() : std::string();
}

/// Reads member \p Key of \p Obj with countFromJson.
Status readCount(const JsonValue &Obj, const char *Key,
                 unsigned long long &Out) {
  if (countFromJson(Obj.get(Key), Out))
    return Status::success();
  return Status::error(strFormat("'%s' is not a count", Key));
}

/// The elements of state list \p Array, all strings.
Expected<const std::vector<JsonValue> *> stateList(const JsonValue &Array) {
  using Ret = Expected<const std::vector<JsonValue> *>;
  if (!Array.isArray())
    return Ret::error("state list is not an array");
  for (const JsonValue &Key : Array.elements())
    if (!Key.isString())
      return Ret::error("state key is not a string");
  return &Array.elements();
}

/// Reads "consistent_states" into the outcome table. Every key must be
/// canonical (one grammar pass, no Outcome built), and the keys must be
/// strictly ascending (the table's key order, which the allowed indices
/// rely on).
Status parseOutcomeTable(const std::vector<JsonValue> &Keys,
                         OutcomeTable &Table) {
  size_t Bytes = 0;
  for (const JsonValue &Key : Keys)
    Bytes += Key.asString().size();
  Table.reserve(Keys.size(), Bytes);
  for (size_t I = 0; I < Keys.size(); ++I) {
    const std::string &Key = Keys[I].asString();
    if (I && !(Keys[I - 1].asString() < Key))
      return Status::error("consistent states are not strictly ascending at '" +
                           Key + "'");
    if (Status S = checkOutcomeKey(Key); S.failed())
      return S;
    Table.push(Key);
  }
  return Status::success();
}

/// Reads the "allowed" indices \p List into \p Out: every element a count
/// below \p TableSize, and strictly ascending.
Status readAllowedIndices(const JsonValue &List, size_t TableSize,
                          std::vector<uint32_t> &Out) {
  if (!List.isArray())
    return Status::error("'allowed' is not an array");
  Out.reserve(List.elements().size());
  for (const JsonValue &V : List.elements()) {
    unsigned long long Idx = 0;
    if (!countFromJson(&V, Idx))
      return Status::error("allowed index is not a count");
    if (Idx >= TableSize)
      return Status::error(
          strFormat("allowed index %llu is not below %zu", Idx, TableSize));
    if (!Out.empty() && Idx <= Out.back())
      return Status::error(
          strFormat("allowed indices are not strictly ascending at %llu", Idx));
    Out.push_back(static_cast<uint32_t>(Idx));
  }
  return Status::success();
}

/// Resolves the /1 allowed-state keys \p Allowed against the table's keys
/// \p TableKeys (strictly ascending) into strictly ascending indices: one
/// forward walk over both lists. A state missing from the table, a repeat
/// or an out-of-order state is an error.
Status resolveAllowed(const std::vector<JsonValue> &Allowed,
                      const std::vector<JsonValue> &TableKeys,
                      std::vector<uint32_t> &Out) {
  Out.reserve(Allowed.size());
  size_t Next = 0;
  for (const JsonValue &State : Allowed) {
    const std::string &Key = State.asString();
    while (Next < TableKeys.size() && TableKeys[Next].asString() < Key)
      ++Next;
    if (Next < TableKeys.size() && TableKeys[Next].asString() == Key) {
      Out.push_back(static_cast<uint32_t>(Next++));
      continue;
    }
    // The walk passed the key: either it was never there, or it sorts
    // before a state already resolved.
    const bool Known = std::binary_search(
        TableKeys.begin(), TableKeys.end(), State,
        [](const JsonValue &A, const JsonValue &B) {
          return A.asString() < B.asString();
        });
    return Status::error(
        Known ? "allowed states are not strictly ascending at '" + Key + "'"
              : "allowed state '" + Key + "' is not a consistent state");
  }
  return Status::success();
}

/// One model block of test entry \p Test, whose consistent-state keys
/// are \p TableKeys.
Expected<SimulationResult>
modelFromJson(const JsonValue &M, const std::vector<JsonValue> &TableKeys,
              const MultiSimulationResult &Test) {
  using Ret = Expected<SimulationResult>;
  if (!M.isObject())
    return Ret::error("model entry is not an object");
  SimulationResult R;
  R.TestName = Test.TestName;
  R.ModelName = stringOf(M, "model");
  if (R.ModelName.empty())
    return Ret::error("model entry without a name");
  auto Fail = [&](const std::string &Why) {
    return Ret::error("model " + R.ModelName + ": " + Why);
  };
  const std::string Verdict = stringOf(M, "verdict");
  if (Verdict != "Allow" && Verdict != "Forbid")
    return Fail("no Allow/Forbid verdict");
  R.ConditionReachable = Verdict == "Allow";
  if (Status S = readCount(M, "candidates_allowed", R.CandidatesAllowed);
      S.failed())
    return Fail(S.message());
  // /2 lists indices, /1 the states themselves; a block has one list.
  const JsonValue *Indices = M.get("allowed");
  const JsonValue *States = M.get("allowed_states");
  if (!Indices == !States)
    return Fail("needs exactly one of 'allowed' and 'allowed_states'");
  if (Indices) {
    if (Status S =
            readAllowedIndices(*Indices, TableKeys.size(), R.AllowedOutcomes);
        S.failed())
      return Fail(S.message());
  } else {
    auto Allowed = stateList(*States);
    if (!Allowed)
      return Fail(Allowed.message());
    if (Status S = resolveAllowed(**Allowed, TableKeys, R.AllowedOutcomes);
        S.failed())
      return Fail(S.message());
  }
  if (R.CandidatesAllowed < R.AllowedOutcomes.size())
    return Fail("allows fewer candidates than states");
  if (R.CandidatesAllowed > Test.CandidatesConsistent)
    return Fail("allows more candidates than are consistent");
  // Every allowed candidate contributes its state, and an Allow verdict
  // names a reachable one.
  if (R.AllowedOutcomes.empty() &&
      (R.CandidatesAllowed > 0 || R.ConditionReachable))
    return Fail("allows candidates or the condition but no state");
  // Mirror the shared counts so every entry stands alone, exactly as the
  // live engine produces them.
  R.CandidatesTotal = Test.CandidatesTotal;
  R.CandidatesConsistent = Test.CandidatesConsistent;
  return R;
}

} // namespace

Expected<SweepTestResult> cats::sweepTestResultFromJson(const JsonValue &E) {
  using Ret = Expected<SweepTestResult>;
  if (!E.isObject())
    return Ret::error("test entry is not an object");
  SweepTestResult Out;
  Out.TestName = stringOf(E, "name");
  if (Out.TestName.empty())
    return Ret::error("test entry without a name");
  if (const JsonValue *W = E.get("wall_seconds"))
    Out.WallSeconds = W->isNumber() ? W->asNumber() : 0;
  Out.Error = stringOf(E, "error");
  if (!Out.Error.empty())
    return Out;

  MultiSimulationResult &Result = Out.Result;
  Result.TestName = Out.TestName;
  if (Status S = readCount(E, "candidates_total", Result.CandidatesTotal);
      S.failed())
    return Ret::error(S.message());
  if (Status S =
          readCount(E, "candidates_consistent", Result.CandidatesConsistent);
      S.failed())
    return Ret::error(S.message());
  if (Result.CandidatesConsistent > Result.CandidatesTotal)
    return Ret::error("more consistent candidates than candidates");
  // The writer always emits both lists; a missing one is corruption, not
  // an empty list.
  const JsonValue *States = E.get("consistent_states");
  const JsonValue *Models = E.get("models");
  if (!States || !Models)
    return Ret::error("entry without 'consistent_states' or 'models'");
  auto TableKeys = stateList(*States);
  if (!TableKeys)
    return Ret::error(TableKeys.message());
  if (Status S = parseOutcomeTable(**TableKeys, Result.ConsistentOutcomes);
      S.failed())
    return Ret::error(S.message());
  if (Result.ConsistentOutcomes.size() > Result.CandidatesConsistent)
    return Ret::error("more consistent states than consistent candidates");

  if (!Models->isArray())
    return Ret::error("'models' is not an array");
  Result.PerModel.reserve(Models->elements().size());
  for (const JsonValue &M : Models->elements()) {
    auto R = modelFromJson(M, **TableKeys, Result);
    if (!R)
      return Ret::error(R.message());
    Result.PerModel.push_back(R.take());
  }
  return Out;
}

bool cats::resultFromRecord(std::string Record, const LitmusTest &Test,
                            const std::vector<std::string> &ModelNames,
                            SweepTestResult &Out) {
  obs::Span DecodeSpan("cache.decode");
  auto Doc = JsonValue::parse(Record);
  if (!Doc)
    return false;
  auto Parsed = sweepTestResultFromJson(*Doc);
  if (!Parsed)
    return false;
  // Guard against key collisions and hand-edited entries: the result
  // must belong to this very test, answer for exactly the requested
  // models in order, and every verdict must follow from its allowed
  // states and the test's condition. The reader already checked the
  // record's own invariants.
  const MultiSimulationResult &R = Parsed->Result;
  if (Parsed->TestName != Test.Name || R.PerModel.size() != ModelNames.size())
    return false;
  // Only allowed states bear on a verdict, so only their keys are parsed,
  // each at most once (-1: not parsed yet).
  std::vector<signed char> Satisfies(R.ConsistentOutcomes.size(), -1);
  auto SatisfiesAt = [&](uint32_t Idx) {
    if (Satisfies[Idx] < 0) {
      Expected<Outcome> O = outcomeFromKey(R.ConsistentOutcomes.key(Idx));
      Satisfies[Idx] = O && O->satisfies(Test.Final);
    }
    return Satisfies[Idx] != 0;
  };
  for (size_t I = 0; I < ModelNames.size(); ++I) {
    const SimulationResult &M = R.PerModel[I];
    if (M.ModelName != ModelNames[I])
      return false;
    bool Reachable = false;
    for (size_t J = 0; J < M.AllowedOutcomes.size() && !Reachable; ++J)
      Reachable = SatisfiesAt(M.AllowedOutcomes[J]);
    if (Reachable != M.ConditionReachable)
      return false;
  }
  Out = Parsed.take();
  Out.Record = std::move(Record);
  return true;
}

Status cats::sweepReportHeaderFromJson(const JsonValue &Root,
                                       SweepReport &Out) {
  if (!Root.isObject())
    return Status::error("report is not a JSON object");
  if (!isSweepReportSchema(stringOf(Root, "schema")))
    return Status::error("not a cats-sweep-report/1 or /2 document");
  unsigned long long Jobs = 0;
  if (Status S = readCount(Root, "jobs", Jobs); S.failed())
    return S;
  if (Jobs > std::numeric_limits<unsigned>::max())
    return Status::error("'jobs' is out of range");
  Out.Jobs = static_cast<unsigned>(Jobs);
  if (const JsonValue *W = Root.get("wall_seconds"))
    Out.WallSeconds = W->isNumber() ? W->asNumber() : 0;
  if (const JsonValue *Cache = Root.get("cache")) {
    if (!Cache->isObject())
      return Status::error("'cache' is not an object");
    Out.CacheUsed = true;
    if (Status S = readCount(*Cache, "hits", Out.CacheHits); S.failed())
      return Status::error("cache: " + S.message());
    if (Status S = readCount(*Cache, "misses", Out.CacheMisses); S.failed())
      return Status::error("cache: " + S.message());
  }
  return Status::success();
}

Expected<SweepReport> cats::sweepReportFromJson(const JsonValue &Root) {
  using Ret = Expected<SweepReport>;
  SweepReport Out;
  if (Status S = sweepReportHeaderFromJson(Root, Out); S.failed())
    return Ret::error(S.message());
  const JsonValue *Tests = Root.get("tests");
  if (!Tests || !Tests->isArray())
    return Ret::error("report without a 'tests' array");
  const std::vector<JsonValue> &Entries = Tests->elements();
  for (size_t I = 0; I < Entries.size(); ++I) {
    auto T = sweepTestResultFromJson(Entries[I]);
    if (!T)
      return Ret::error(testEntryLabel(Entries[I], I) + ": " + T.message());
    Out.Errored += !T->Error.empty();
    Out.Tests.push_back(T.take());
  }
  Out.Reported = Out.Tests.size();
  return Out;
}

Status cats::upgradeTestEntry(JsonValue &Entry) {
  auto Parsed = sweepTestResultFromJson(Entry);
  if (!Parsed)
    return Status::error(Parsed.message());
  Entry.setOneLine();
  if (!Parsed->Error.empty())
    return Status::success();
  // The reader checked every block and resolved its list; a /1 list takes
  // the /2 name and the resolved indices at the same position.
  std::vector<JsonValue> &Models = Entry.get("models")->elements();
  for (size_t I = 0; I < Models.size(); ++I)
    for (auto &[Key, Member] : Models[I].members())
      if (Key == "allowed_states") {
        Key = "allowed";
        Member = allowedToJson(Parsed->Result.PerModel[I].AllowedOutcomes);
      }
  return Status::success();
}

std::string cats::testEntryLabel(const JsonValue &Entry, size_t Index) {
  const JsonValue *Name = Entry.get("name");
  if (Name && Name->isString() && !Name->asString().empty())
    return "test '" + Name->asString() + "'";
  return strFormat("test #%zu", Index + 1);
}

//===----------------------------------------------------------------------===//
// Streaming writer
//===----------------------------------------------------------------------===//

namespace {

/// How dump() lays out the records of the top-level "tests" array: each
/// on its own line at depth 2, the closing bracket at depth 1. The spill
/// holds each record behind its separator.
constexpr std::string_view RecordBreak = "\n    ";
constexpr std::string_view TestsClose = "\n  ]";
constexpr std::string_view EmptyTests = "\"tests\": []";

/// Spill bytes are appended in pieces of about this size.
constexpr size_t SpillChunk = 1 << 16;

bool writeAll(std::FILE *Out, std::string_view Bytes) {
  return std::fwrite(Bytes.data(), 1, Bytes.size(), Out) == Bytes.size();
}

} // namespace

Expected<SweepReportWriter>
SweepReportWriter::create(const std::string &Target) {
  namespace fs = std::filesystem;
  std::string Dir = temporaryDirectory();
  int Fd = -1;
  // Beside a file, not beside a device or a pipe (/dev/full, /dev/stdout):
  // no report bytes need room there.
  std::error_code Ec;
  const fs::file_type Type =
      Target.empty() ? fs::file_type::none : fs::status(Target, Ec).type();
  if (Type == fs::file_type::not_found || Type == fs::file_type::regular) {
    std::string Beside = fs::path(Target).parent_path().string();
    if (Beside.empty())
      Beside = ".";
    Fd = openUnnamedFile(Beside);
    if (Fd >= 0)
      Dir = Beside;
  }
  if (Fd < 0)
    Fd = openUnnamedFile(Dir);
  File Spill(Fd >= 0 ? ::fdopen(Fd, "w+") : nullptr, &std::fclose);
  if (!Spill) {
    const int Errno = errno;
    if (Fd >= 0)
      ::close(Fd);
    return Expected<SweepReportWriter>::error(
        strFormat("cannot create a spill file in %s: %s", Dir.c_str(),
                  std::strerror(Errno)));
  }
  return SweepReportWriter(std::move(Spill), std::move(Dir));
}

void SweepReportWriter::add(SweepTestResult &Result) {
  if (Result.Record.empty())
    addRecord(sweepTestResultToJson(Result).dump(0));
  else
    addRecord(Result.Record);
  std::vector<obs::Witness> &Found = Result.Result.Witnesses;
  Witnesses.insert(Witnesses.end(), std::make_move_iterator(Found.begin()),
                   std::make_move_iterator(Found.end()));
}

void SweepReportWriter::addRecord(std::string_view Record) {
  if (Count++)
    Pending += ',';
  Pending += RecordBreak;
  Pending += Record;
  if (Pending.size() >= SpillChunk)
    flush();
}

void SweepReportWriter::flush() {
  if (Pending.empty())
    return;
  obs::Span WriteSpan("report.write");
  if (!writeAll(Spill.get(), Pending) && !SpillErrno)
    SpillErrno = errno ? errno : EIO;
  Pending.clear();
}

Status SweepReportWriter::finishSpill() {
  flush();
  if (!SpillErrno && std::fflush(Spill.get()) != 0)
    SpillErrno = errno ? errno : EIO;
  if (!SpillErrno)
    return Status::success();
  return Status::error(strFormat("cannot write the spill file in %s: %s",
                                 Dir.c_str(), std::strerror(SpillErrno)));
}

JsonValue SweepReportWriter::document(const SweepReport &Counts) const {
  JsonValue Root = sweepReportToJson(Counts);
  if (!Witnesses.empty())
    Root.set("witness", obs::witnessSectionToJson(Witnesses));
  return Root;
}

bool SweepReportWriter::write(const JsonValue &Root, std::FILE *Out) {
  if (finishSpill().failed())
    return false;
  obs::Span WriteSpan("report.write");
  const std::string Text = Root.dump();
  if (Count == 0)
    return writeAll(Out, Text);
  const size_t At = Text.find(EmptyTests);
  if (At == std::string::npos)
    return false;
  // Everything up to and including the array's '[', the records, then
  // the array's end and everything after it.
  const size_t Open = At + EmptyTests.size() - 1;
  if (!writeAll(Out, std::string_view(Text).substr(0, Open)))
    return false;
  std::rewind(Spill.get());
  std::vector<char> Chunk(SpillChunk);
  while (size_t Got = std::fread(Chunk.data(), 1, Chunk.size(), Spill.get()))
    if (!writeAll(Out, std::string_view(Chunk.data(), Got)))
      return false;
  return !std::ferror(Spill.get()) && writeAll(Out, TestsClose) &&
         writeAll(Out, std::string_view(Text).substr(Open + 1));
}
