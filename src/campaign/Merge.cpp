//===- Merge.cpp - Folding shard reports back together --------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "campaign/Merge.h"

#include "campaign/Shard.h"
#include "mole/Mine.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/Witness.h"
#include "support/OrderedWindow.h"
#include "support/StringUtils.h"
#include "sweep/ReportIO.h"

#include <algorithm>

using namespace cats;

namespace {

void zeroWallTimesInPlace(JsonValue &V) {
  if (V.isArray()) {
    for (JsonValue &E : V.elements())
      zeroWallTimesInPlace(E);
  } else if (V.isObject()) {
    for (auto &[Key, Member] : V.members()) {
      if (Key == "wall_seconds" && Member.isNumber())
        Member = JsonValue(0);
      else
        zeroWallTimesInPlace(Member);
    }
  }
}

} // namespace

JsonValue cats::zeroWallTimes(JsonValue V) {
  zeroWallTimesInPlace(V);
  return V;
}

namespace {

std::string schemaOf(const JsonValue &Doc) {
  const JsonValue *Schema = Doc.get("schema");
  return Schema && Schema->isString() ? Schema->asString() : std::string();
}

/// Folds the optional cats-metrics/1 sections of the top levels \p Tops
/// into \p Root (counters sum, histograms merge), so a merged campaign
/// report carries fleet-wide totals. Reports without a metrics section
/// contribute nothing; when none carries one, \p Root stays metrics-free.
/// Returns a non-empty error string on a malformed section.
std::string foldMetricsSections(const std::vector<const JsonValue *> &Tops,
                                JsonValue &Root) {
  JsonValue Merged;
  bool Any = false;
  for (size_t I = 0; I < Tops.size(); ++I) {
    const JsonValue *Metrics = Tops[I]->get("metrics");
    if (!Metrics)
      continue;
    if (!Any) {
      Merged = *Metrics;
      Any = true;
      continue;
    }
    std::string Error;
    if (!obs::mergeMetricsJson(Merged, *Metrics, Error))
      return strFormat("input %zu: metrics: %s", I + 1, Error.c_str());
  }
  if (Any)
    Root.set("metrics", std::move(Merged));
  return std::string();
}

/// Folds the optional cats-witness/1 sections of the inputs' top levels
/// into \p Root: the witness lists simply concatenate in input order
/// (each witness is already tagged with its test and model). Reports
/// without a witness section contribute nothing; when none carries one,
/// \p Root stays witness-free. Returns a non-empty error string on a
/// malformed section. The witnesses move out of \p Inputs.
std::string foldWitnessSections(std::vector<SweepMergeInput> &Inputs,
                                JsonValue &Root) {
  JsonValue Merged = JsonValue::array();
  bool Any = false;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    JsonValue *Section = Inputs[I].Top.get("witness");
    if (!Section)
      continue;
    const JsonValue *Schema = Section->get("schema");
    JsonValue *List = Section->get("witnesses");
    if (!Section->isObject() || !Schema || !Schema->isString() ||
        Schema->asString() != obs::WitnessSchema || !List || !List->isArray())
      return strFormat("input %zu: malformed witness section", I + 1);
    Any = true;
    for (JsonValue &W : List->elements())
      Merged.push(std::move(W));
  }
  if (Any) {
    JsonValue Section = JsonValue::object();
    Section.set("schema", obs::WitnessSchema);
    Section.set("witnesses", std::move(Merged));
    Root.set("witness", std::move(Section));
  }
  return std::string();
}

/// What the sweep merge needs from one input's top level.
struct SweepInput {
  /// Jobs, wall time and cache counters.
  SweepReport Header;
  bool HasShard = false;
  ShardSpec Shard;
};

/// Reads the merge's view of the top level \p Top of a sweep report.
/// Returns a non-empty reason on failure.
std::string readSweepTop(const JsonValue &Top, SweepInput &Part) {
  if (Status S = sweepReportHeaderFromJson(Top, Part.Header); S.failed())
    return S.message();
  const JsonValue *Tests = Top.get("tests");
  if (!Tests || !Tests->isArray())
    return "report without a 'tests' array";
  if (const JsonValue *Shard = Top.get("shard")) {
    auto Spec = shardFromJson(*Shard);
    if (!Spec)
      return Spec.message();
    Part.HasShard = true;
    Part.Shard = Spec.take();
  }
  return std::string();
}

/// Records per worker between two waits of the merge's calling thread:
/// its window holds workers times this many.
constexpr size_t MergeBatch = 64;

/// One record in the merge's window.
struct RecordSlot {
  /// The record's input, and its place there.
  size_t Input = 0;
  size_t Offset = 0;
  MergeRecord Record;
  /// Why the merge stops at this record; empty while it passes.
  std::string Error;
};

/// A worker's step for one record of input \p Path: the parse of its
/// bytes, the reader's check and upgrade, and \p Finish.
void settleRecord(RecordSlot &S, const std::string &Path,
                  const std::function<void(MergeRecord &)> &Finish) {
  MergeRecord &R = S.Record;
  if (!R.Text.empty()) {
    auto Parsed = JsonValue::parse(R.Text, R.At);
    if (!Parsed) {
      S.Error = strFormat("input %zu: %s: %s", S.Input + 1, Path.c_str(),
                          Parsed.message().c_str());
      return;
    }
    R.Value = Parsed.take();
    R.Text.clear();
  }
  if (Status Checked = upgradeTestEntry(R.Value); Checked.failed()) {
    S.Error = strFormat("input %zu: ", S.Input + 1) +
              testEntryLabel(R.Value, S.Offset) + ": " + Checked.message();
    return;
  }
  if (Finish)
    Finish(R);
}

} // namespace

Expected<JsonValue>
cats::mergeSweepInputs(std::vector<SweepMergeInput> Inputs,
                       const std::function<void(MergeRecord &)> &Finish,
                       const std::function<void(MergeRecord &)> &Emit) {
  using Ret = Expected<JsonValue>;
  if (Inputs.empty())
    return Ret::error("nothing to merge");

  std::vector<SweepInput> Parts(Inputs.size());
  unsigned Sharded = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (std::string Error = readSweepTop(Inputs[I].Top, Parts[I]);
        !Error.empty())
      return Ret::error(strFormat("input %zu: %s", I + 1, Error.c_str()));
    Sharded += Parts[I].HasShard;
  }
  if (Sharded != 0 && Sharded != Parts.size())
    return Ret::error("cannot mix sharded and unsharded reports");

  size_t Total = 0;
  for (const SweepMergeInput &In : Inputs)
    Total += In.Records;
  // The inputs in stream order: by shard index, or as given.
  std::vector<size_t> Order(Inputs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  if (Sharded) {
    const unsigned N = Parts[0].Shard.Count;
    if (Parts.size() != N)
      return Ret::error(strFormat(
          "incomplete shard set: reports declare %u shards, got %zu", N,
          Parts.size()));
    std::vector<bool> Seen(N, false);
    for (size_t I = 0; I < Parts.size(); ++I) {
      const ShardSpec &Shard = Parts[I].Shard;
      if (Shard.Count != N)
        return Ret::error(strFormat(
            "shard counts disagree across reports (%u vs %u)", N,
            Shard.Count));
      if (Seen[Shard.Index - 1])
        return Ret::error(
            strFormat("duplicate shard %s", Shard.toString().c_str()));
      Seen[Shard.Index - 1] = true;
      Order[Shard.Index - 1] = I;
    }
    // Shard K of a campaign of Total records holds the positions
    // K-1, K-1+N, ...: any other split interleaves to no single order.
    for (unsigned K = 1; K <= N; ++K) {
      const size_t Holds = Inputs[Order[K - 1]].Records;
      const size_t Owns = K > Total ? 0 : (Total - K) / N + 1;
      if (Holds != Owns)
        return Ret::error(strFormat(
            "shard %s holds %zu records, where one campaign of %zu records "
            "puts %zu: the shards come from different campaigns",
            Parts[Order[K - 1]].Shard.toString().c_str(), Holds, Total,
            Owns));
    }
  }

  unsigned Jobs = 0;
  double WallSeconds = 0;
  bool CacheUsed = false;
  unsigned long long CacheHits = 0, CacheMisses = 0;
  for (const SweepInput &Part : Parts) {
    Jobs = std::max(Jobs, Part.Header.Jobs);
    WallSeconds += Part.Header.WallSeconds;
    CacheUsed = CacheUsed || Part.Header.CacheUsed;
    CacheHits += Part.Header.CacheHits;
    CacheMisses += Part.Header.CacheMisses;
  }
  JsonValue Root = JsonValue::object();
  Root.set("schema", SweepReportSchema);
  Root.set("jobs", Jobs);
  Root.set("wall_seconds", WallSeconds);
  if (CacheUsed) {
    JsonValue Cache = JsonValue::object();
    Cache.set("hits", CacheHits);
    Cache.set("misses", CacheMisses);
    Root.set("cache", std::move(Cache));
  }
  Root.set("tests", JsonValue::array());
  std::vector<const JsonValue *> Tops;
  for (const SweepMergeInput &In : Inputs)
    Tops.push_back(&In.Top);
  if (std::string Error = foldMetricsSections(Tops, Root); !Error.empty())
    return Ret::error(Error);
  if (std::string Error = foldWitnessSections(Inputs, Root); !Error.empty())
    return Ret::error(Error);

  // The records: stream position Seq lived in shard (Seq % N) at offset
  // Seq / N, so walking Seq round-robin over shards 1..N replays the
  // stream; unsharded reports concatenate. The calling thread reads each
  // record, a worker settles it, and the calling thread emits it.
  obs::Span RecordsSpan("merge.records");
  size_t Seq = 0, Input = 0, Offset = 0;
  bool Unreadable = false;
  std::string Error;
  const OrderedWindow<RecordSlot> Window(0, MergeBatch);
  Window.run(
      [&](RecordSlot &S) {
        if (Seq == Total || Unreadable)
          return false;
        if (Sharded) {
          S.Input = Order[Seq % Order.size()];
          S.Offset = Seq / Order.size();
        } else {
          while (Offset == Inputs[Input].Records) {
            ++Input;
            Offset = 0;
          }
          S.Input = Input;
          S.Offset = Offset++;
        }
        ++Seq;
        if (Status Read = Inputs[S.Input].Next(S.Record); Read.failed()) {
          S.Error = strFormat("input %zu: %s", S.Input + 1,
                              Read.message().c_str());
          Unreadable = true;
        }
        return true;
      },
      [&](RecordSlot &S) {
        obs::Span SettleSpan("merge.settle");
        if (S.Error.empty())
          settleRecord(S, Inputs[S.Input].Path, Finish);
      },
      [&](RecordSlot &S) {
        if (!S.Error.empty()) {
          Error = std::move(S.Error);
          return false;
        }
        Emit(S.Record);
        return true;
      });
  if (!Error.empty())
    return Ret::error(Error);
  return Root;
}

Expected<JsonValue> cats::mergeSweepReports(std::vector<JsonValue> Inputs) {
  std::vector<SweepMergeInput> Streams(Inputs.size());
  size_t Total = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    SweepMergeInput &In = Streams[I];
    In.Top = std::move(Inputs[I]);
    JsonValue *Tests = In.Top.get("tests");
    if (!Tests || !Tests->isArray())
      continue;
    auto Records =
        std::make_shared<std::vector<JsonValue>>(std::move(Tests->elements()));
    Tests->elements().clear();
    In.Records = Records->size();
    Total += In.Records;
    In.Next = [Records, Next = size_t(0)](MergeRecord &Out) mutable {
      Out.Value = std::move((*Records)[Next++]);
      return Status::success();
    };
  }
  JsonValue Tests = JsonValue::array();
  Tests.elements().reserve(Total);
  auto Merged = mergeSweepInputs(std::move(Streams), {},
                                 [&Tests](MergeRecord &Record) {
                                   Tests.push(std::move(Record.Value));
                                 });
  if (Merged)
    *Merged->get("tests") = std::move(Tests);
  return Merged;
}

Expected<JsonValue> cats::mergeMineReports(std::vector<JsonValue> Inputs) {
  using Ret = Expected<JsonValue>;
  if (Inputs.empty())
    return Ret::error("nothing to merge");
  std::vector<MineReport> Parts;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    auto Part = mineReportFromJson(Inputs[I]);
    if (!Part)
      return Ret::error(strFormat("input %zu: %s", I + 1,
                                  Part.message().c_str()));
    Parts.push_back(Part.take());
  }
  auto Merged = mergeMineReports(Parts);
  if (!Merged)
    return Ret::error(Merged.message());
  JsonValue Root = mineReportToJson(*Merged);
  std::vector<const JsonValue *> Tops;
  for (const JsonValue &Input : Inputs)
    Tops.push_back(&Input);
  if (std::string Error = foldMetricsSections(Tops, Root); !Error.empty())
    return Ret::error(Error);
  return Root;
}

Expected<std::string>
cats::mergeKindOf(const std::vector<const JsonValue *> &Tops) {
  using Ret = Expected<std::string>;
  if (Tops.empty())
    return Ret::error("nothing to merge");
  // Sweep reports of either version are one kind.
  auto KindOf = [](const std::string &Schema) {
    return isSweepReportSchema(Schema) ? std::string(SweepReportSchema)
                                       : Schema;
  };
  const std::string Schema = schemaOf(*Tops[0]);
  for (size_t I = 1; I < Tops.size(); ++I)
    if (KindOf(schemaOf(*Tops[I])) != KindOf(Schema))
      return Ret::error(strFormat(
          "inputs mix schemas ('%s' vs '%s'); merge one report kind at a "
          "time",
          Schema.c_str(), schemaOf(*Tops[I]).c_str()));
  if (isSweepReportSchema(Schema) || Schema == "cats-mine-report/1")
    return KindOf(Schema);
  if (Schema.empty())
    return Ret::error("input 1 has no 'schema' member");
  return Ret::error(
      strFormat("schema '%s' is not mergeable (sweep and mine reports are)",
                Schema.c_str()));
}

Expected<JsonValue> cats::mergeReports(std::vector<JsonValue> Inputs) {
  std::vector<const JsonValue *> Tops;
  for (const JsonValue &Input : Inputs)
    Tops.push_back(&Input);
  auto Kind = mergeKindOf(Tops);
  if (!Kind)
    return Expected<JsonValue>::error(Kind.message());
  if (*Kind == SweepReportSchema)
    return mergeSweepReports(std::move(Inputs));
  return mergeMineReports(std::move(Inputs));
}

//===----------------------------------------------------------------------===//
// Report files, read in bounded memory
//===----------------------------------------------------------------------===//

ReportFile::ReportFile(const std::string &Path)
    : Path(Path), Reader(std::make_unique<JsonFileReader>(Path)) {}
ReportFile::ReportFile(ReportFile &&) noexcept = default;
ReportFile &ReportFile::operator=(ReportFile &&) noexcept = default;
ReportFile::~ReportFile() = default;

Expected<ReportFile> ReportFile::open(const std::string &Path) {
  obs::Span ScanSpan("merge.scan");
  ReportFile File(Path);
  if (Status S = File.scan(); S.failed())
    return Expected<ReportFile>::error(S.message());
  return File;
}

Status ReportFile::readError() const {
  return Status::error(Reader->readFailed() ? "cannot read " + Path
                                            : Path + ": " + Reader->error());
}

Status ReportFile::scan() {
  JsonFileReader &R = *Reader;
  auto Expect = [&](char C, const char *Why) {
    if (R.peek() == C) {
      R.take();
      return true;
    }
    return R.fail(Why);
  };
  bool Ok = true;
  if (R.peek() != '{') {
    // Not an object, so no report: parsed all the same, to tell a
    // document that does not parse from one the merge refuses.
    JsonValue Doc;
    Ok = R.parse(0, Doc);
  } else {
    R.take();
    Top = JsonValue::object();
    bool More = R.peek() != '}';
    if (!More)
      R.take();
    while (Ok && More) {
      JsonValue Key;
      Ok = R.peek() == '"' ? R.parse(1, Key)
                           : R.fail("expected string key in object");
      Ok = Ok && Expect(':', "expected ':' after object key");
      if (Ok && Key.asString() == "tests" && Records) {
        // A repeated "tests": the merge reads the last one, but the
        // records of this one must parse all the same.
        const uint64_t Here = R.offset();
        Ok = !readRest().failed() && R.seek(Here);
        Records = Read = 0;
      }
      if (Ok && Key.asString() == "tests" && R.peek() == '[') {
        // The records: counted, and nothing kept of them.
        RecordsAt = R.offset();
        R.take();
        bool InArray = R.peek() != ']';
        if (!InArray)
          R.take();
        while (Ok && InArray) {
          Ok = R.skip(2);
          Records += Ok;
          InArray = Ok && R.peek() != ']';
          Ok = Ok && Expect(InArray ? ',' : ']',
                            "expected ',' or ']' in array");
        }
        Top.set("tests", JsonValue::array());
      } else if (Ok) {
        JsonValue Value;
        Ok = R.parse(1, Value);
        if (Ok)
          Top.set(Key.asString(), std::move(Value));
      }
      More = Ok && R.peek() != '}';
      Ok = Ok && Expect(More ? ',' : '}', "expected ',' or '}' in object");
    }
  }
  if (Ok && R.peek() != -1)
    Ok = R.fail("trailing characters after document");
  if (!Ok || R.readFailed())
    return readError();
  return Status::success();
}

bool ReportFile::toRecord() {
  JsonFileReader &R = *Reader;
  // The first record follows the array's '['; each later one a ','.
  bool Ok = !Failed && (Read || R.seek(RecordsAt));
  if (Ok && R.peek() == (Read ? ',' : '['))
    R.take();
  else if (Ok)
    Ok = R.fail(Read ? "expected ',' in array" : "expected '['");
  return Ok;
}

Status ReportFile::passed(bool Ok) {
  ++Read;
  if (Ok && !Reader->readFailed())
    return Status::success();
  Failed = true;
  return readError();
}

Status ReportFile::readRecord(MergeRecord &Out) {
  return passed(toRecord() && Reader->copy(2, Out.Text, Out.At));
}

Status ReportFile::readRest() {
  if (Failed)
    return readError();
  JsonValue Record;
  // From the array's start: the records a merge read before it was
  // refused parsed then, and parse again.
  Read = 0;
  while (Read < Records)
    if (Status S = passed(toRecord() && Reader->parse(2, Record)); S.failed())
      return S;
  return Status::success();
}

SweepMergeInput ReportFile::input() {
  SweepMergeInput In;
  In.Top = std::move(Top);
  In.Records = Records;
  In.Next = [this](MergeRecord &Out) { return readRecord(Out); };
  In.Path = Path;
  return In;
}
