//===- ReportIO.cpp - cats-sweep-report/1 (de)serialization ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/ReportIO.h"

#include "obs/Witness.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>

using namespace cats;

//===----------------------------------------------------------------------===//
// Outcome keys
//===----------------------------------------------------------------------===//

namespace {

/// Parses the whole of \p Text as a signed decimal value.
bool parseValue(const std::string &Text, long long &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoll(Text.c_str(), &End, 10);
  return End && *End == '\0';
}

} // namespace

Expected<Outcome> cats::outcomeFromKey(const std::string &Key) {
  auto Bad = [&](const char *Why) {
    return Expected<Outcome>::error(
        strFormat("bad outcome key '%s': %s", Key.c_str(), Why));
  };
  Outcome Out;
  size_t Pos = 0;
  while (Pos < Key.size()) {
    const size_t End = Key.find(';', Pos);
    if (End == std::string::npos)
      return Bad("field without trailing ';'");
    const std::string Field = Key.substr(Pos, End - Pos);
    Pos = End + 1;
    const size_t Eq = Field.rfind('=');
    if (Eq == std::string::npos || Eq == 0)
      return Bad("field without '='");
    long long Val = 0;
    if (!parseValue(Field.substr(Eq + 1), Val))
      return Bad("unparsable value");
    const std::string Left = Field.substr(0, Eq);
    // "T:rR" is a register field; anything else is a memory location
    // (litmus location names cannot contain ':').
    const size_t Colon = Left.find(':');
    if (Colon != std::string::npos) {
      long long Thread = 0, Reg = 0;
      if (!parseValue(Left.substr(0, Colon), Thread) || Thread < 0 ||
          Colon + 1 >= Left.size() || Left[Colon + 1] != 'r' ||
          !parseValue(Left.substr(Colon + 2), Reg))
        return Bad("malformed register field");
      if (Out.Regs.size() <= static_cast<size_t>(Thread))
        Out.Regs.resize(static_cast<size_t>(Thread) + 1);
      Out.Regs[static_cast<size_t>(Thread)][static_cast<Register>(Reg)] =
          static_cast<Value>(Val);
    } else {
      Out.Memory[Left] = static_cast<Value>(Val);
    }
  }
  Out.enableKeyCache();
  return Out;
}

//===----------------------------------------------------------------------===//
// Writer (cats-sweep-report/1, see docs/report-schemas.md)
//===----------------------------------------------------------------------===//

JsonValue cats::sweepTestResultToJson(const SweepTestResult &T) {
  JsonValue Entry = JsonValue::object();
  Entry.set("name", T.TestName);
  Entry.set("wall_seconds", T.WallSeconds);
  if (!T.Error.empty()) {
    Entry.set("error", T.Error);
    return Entry;
  }
  Entry.set("candidates_total", T.Result.CandidatesTotal);
  Entry.set("candidates_consistent", T.Result.CandidatesConsistent);

  const std::vector<Outcome> &Table = T.Result.ConsistentOutcomes;
  JsonValue States = JsonValue::array();
  for (const Outcome &O : Table)
    States.push(O.key());
  Entry.set("consistent_states", std::move(States));

  JsonValue Models = JsonValue::array();
  for (const SimulationResult &R : T.Result.PerModel) {
    JsonValue M = JsonValue::object();
    M.set("model", R.ModelName);
    M.set("verdict", R.verdict());
    M.set("candidates_allowed", R.CandidatesAllowed);
    JsonValue Allowed = JsonValue::array();
    for (uint32_t Idx : R.AllowedOutcomes)
      Allowed.push(Table[Idx].key());
    M.set("allowed_states", std::move(Allowed));
    Models.push(std::move(M));
  }
  Entry.set("models", std::move(Models));
  return Entry;
}

JsonValue cats::sweepReportToJson(const SweepReport &Report) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-sweep-report/1");
  Root.set("jobs", Report.Jobs);
  Root.set("wall_seconds", Report.WallSeconds);
  if (Report.CacheUsed) {
    JsonValue Cache = JsonValue::object();
    Cache.set("hits", Report.CacheHits);
    Cache.set("misses", Report.CacheMisses);
    Root.set("cache", std::move(Cache));
  }

  JsonValue Tests = JsonValue::array();
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

namespace {

/// The member as an integral count; 0 when absent.
unsigned long long countOf(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.get(Key);
  return V && V->isNumber() ? static_cast<unsigned long long>(V->asNumber())
                            : 0;
}

/// The member as a string; empty when absent.
std::string stringOf(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.get(Key);
  return V && V->isString() ? V->asString() : std::string();
}

/// The elements of state list \p Array, all strings; an absent list reads
/// as empty.
Expected<const std::vector<JsonValue> *> stateList(const JsonValue *Array) {
  using Ret = Expected<const std::vector<JsonValue> *>;
  static const std::vector<JsonValue> None;
  if (!Array)
    return &None;
  if (!Array->isArray())
    return Ret::error("state list is not an array");
  for (const JsonValue &Key : Array->elements())
    if (!Key.isString())
      return Ret::error("state key is not a string");
  return &Array->elements();
}

/// Parses "consistent_states" into the outcome table. Every key must parse
/// and render back to itself, and the keys must be strictly ascending (the
/// table's key order, which the allowed indices rely on).
Status parseOutcomeTable(const std::vector<JsonValue> &Keys,
                         std::vector<Outcome> &Table) {
  Table.reserve(Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I) {
    const std::string &Key = Keys[I].asString();
    if (I && !(Keys[I - 1].asString() < Key))
      return Status::error("consistent states are not strictly ascending at '" +
                           Key + "'");
    auto O = outcomeFromKey(Key);
    if (!O)
      return Status::error(O.message());
    if (O->key() != Key)
      return Status::error("state key '" + Key + "' is not canonical");
    Table.push_back(O.take());
  }
  return Status::success();
}

/// Resolves the allowed-state keys \p Allowed against the table's keys
/// \p TableKeys into strictly ascending indices. A state missing from the
/// table, a repeat or an out-of-order state is an error.
Status resolveAllowed(const std::vector<JsonValue> &Allowed,
                      const std::vector<JsonValue> &TableKeys,
                      std::vector<uint32_t> &Out) {
  auto KeyLess = [](const JsonValue &A, const std::string &B) {
    return A.asString() < B;
  };
  Out.reserve(Allowed.size());
  for (const JsonValue &State : Allowed) {
    const std::string &Key = State.asString();
    auto It =
        std::lower_bound(TableKeys.begin(), TableKeys.end(), Key, KeyLess);
    if (It == TableKeys.end() || It->asString() != Key)
      return Status::error("allowed state '" + Key +
                           "' is not a consistent state");
    const auto Idx = static_cast<uint32_t>(It - TableKeys.begin());
    if (!Out.empty() && Idx <= Out.back())
      return Status::error("allowed states are not strictly ascending at '" +
                           Key + "'");
    Out.push_back(Idx);
  }
  return Status::success();
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

  Out.Result.TestName = Out.TestName;
  Out.Result.CandidatesTotal = countOf(E, "candidates_total");
  Out.Result.CandidatesConsistent = countOf(E, "candidates_consistent");
  auto TableKeys = stateList(E.get("consistent_states"));
  if (!TableKeys)
    return Ret::error(Out.TestName + ": " + TableKeys.message());
  if (Status S = parseOutcomeTable(**TableKeys, Out.Result.ConsistentOutcomes);
      S.failed())
    return Ret::error(Out.TestName + ": " + S.message());

  const JsonValue *Models = E.get("models");
  if (Models && !Models->isArray())
    return Ret::error(Out.TestName + ": 'models' is not an array");
  if (Models) {
    for (const JsonValue &M : Models->elements()) {
      if (!M.isObject())
        return Ret::error(Out.TestName + ": model entry is not an object");
      SimulationResult R;
      R.TestName = Out.TestName;
      R.ModelName = stringOf(M, "model");
      if (R.ModelName.empty())
        return Ret::error(Out.TestName + ": model entry without a name");
      const std::string Verdict = stringOf(M, "verdict");
      if (Verdict != "Allow" && Verdict != "Forbid")
        return Ret::error(Out.TestName + ": model " + R.ModelName +
                          " has no Allow/Forbid verdict");
      R.ConditionReachable = Verdict == "Allow";
      R.CandidatesAllowed = countOf(M, "candidates_allowed");
      auto Allowed = stateList(M.get("allowed_states"));
      if (!Allowed)
        return Ret::error(Out.TestName + ": " + Allowed.message());
      if (Status S = resolveAllowed(**Allowed, **TableKeys, R.AllowedOutcomes);
          S.failed())
        return Ret::error(Out.TestName + ": model " + R.ModelName + ": " +
                          S.message());
      if (R.CandidatesAllowed < R.AllowedOutcomes.size())
        return Ret::error(Out.TestName + ": model " + R.ModelName +
                          " allows fewer candidates than states");
      // Mirror the shared counts so every entry stands alone, exactly as
      // the live engine produces them.
      R.CandidatesTotal = Out.Result.CandidatesTotal;
      R.CandidatesConsistent = Out.Result.CandidatesConsistent;
      Out.Result.PerModel.push_back(std::move(R));
    }
  }
  return Out;
}

Expected<SweepReport> cats::sweepReportFromJson(const JsonValue &Root) {
  using Ret = Expected<SweepReport>;
  if (!Root.isObject())
    return Ret::error("report is not a JSON object");
  if (stringOf(Root, "schema") != "cats-sweep-report/1")
    return Ret::error("not a cats-sweep-report/1 document");
  SweepReport Out;
  Out.Jobs = static_cast<unsigned>(countOf(Root, "jobs"));
  if (const JsonValue *W = Root.get("wall_seconds"))
    Out.WallSeconds = W->isNumber() ? W->asNumber() : 0;
  if (const JsonValue *Cache = Root.get("cache")) {
    if (!Cache->isObject())
      return Ret::error("'cache' is not an object");
    Out.CacheUsed = true;
    Out.CacheHits = countOf(*Cache, "hits");
    Out.CacheMisses = countOf(*Cache, "misses");
  }
  const JsonValue *Tests = Root.get("tests");
  if (!Tests || !Tests->isArray())
    return Ret::error("report without a 'tests' array");
  for (const JsonValue &E : Tests->elements()) {
    auto T = sweepTestResultFromJson(E);
    if (!T)
      return Ret::error(T.message());
    Out.Tests.push_back(T.take());
  }
  return Out;
}
