//===- Merge.cpp - Folding shard reports back together --------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "campaign/Merge.h"

#include "campaign/Shard.h"
#include "mole/Mine.h"
#include "obs/Metrics.h"
#include "obs/Witness.h"
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

/// Folds the optional cats-metrics/1 sections of the inputs into \p Root
/// (counters sum, histograms merge), so a merged campaign report carries
/// fleet-wide totals. Reports without a metrics section contribute
/// nothing; when none carries one, \p Root stays metrics-free. Returns a
/// non-empty error string on a malformed section.
std::string foldMetricsSections(const std::vector<JsonValue> &Inputs,
                                JsonValue &Root) {
  JsonValue Merged;
  bool Any = false;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const JsonValue *Metrics = Inputs[I].get("metrics");
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

/// Folds the optional cats-witness/1 sections of the inputs into \p Root:
/// the witness lists simply concatenate in input order (each witness is
/// already tagged with its test and model). Reports without a witness
/// section contribute nothing; when none carries one, \p Root stays
/// witness-free. Returns a non-empty error string on a malformed section.
/// The witnesses move out of \p Inputs.
std::string foldWitnessSections(std::vector<JsonValue> &Inputs,
                                JsonValue &Root) {
  JsonValue Merged = JsonValue::array();
  bool Any = false;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    JsonValue *Section = Inputs[I].get("witness");
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

/// What the sweep merge needs from one input document.
struct SweepInput {
  /// The top level: jobs, wall time and cache counters.
  SweepReport Header;
  std::vector<JsonValue> *Tests = nullptr;
  bool HasShard = false;
  ShardSpec Shard;
};

/// Reads the merge's view of sweep report \p Doc, checking every test
/// record with the record reader and rewriting it as a /2 record in
/// place. Returns a non-empty reason on failure.
std::string readSweepInput(JsonValue &Doc, SweepInput &Part) {
  if (Status S = sweepReportHeaderFromJson(Doc, Part.Header); S.failed())
    return S.message();
  JsonValue *Tests = Doc.get("tests");
  if (!Tests || !Tests->isArray())
    return "report without a 'tests' array";
  Part.Tests = &Tests->elements();
  for (size_t I = 0; I < Part.Tests->size(); ++I) {
    JsonValue &Entry = (*Part.Tests)[I];
    if (Status S = upgradeTestEntry(Entry); S.failed())
      return testEntryLabel(Entry, I) + ": " + S.message();
  }
  if (const JsonValue *Shard = Doc.get("shard")) {
    auto Spec = shardFromJson(*Shard);
    if (!Spec)
      return Spec.message();
    Part.HasShard = true;
    Part.Shard = Spec.take();
  }
  return std::string();
}

} // namespace

Expected<JsonValue> cats::mergeSweepReports(std::vector<JsonValue> Inputs) {
  using Ret = Expected<JsonValue>;
  if (Inputs.empty())
    return Ret::error("nothing to merge");

  std::vector<SweepInput> Parts(Inputs.size());
  unsigned Sharded = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (std::string Error = readSweepInput(Inputs[I], Parts[I]);
        !Error.empty())
      return Ret::error(strFormat("input %zu: %s", I + 1, Error.c_str()));
    Sharded += Parts[I].HasShard;
  }

  if (Sharded != 0 && Sharded != Parts.size())
    return Ret::error("cannot mix sharded and unsharded reports");

  // The merged tests array, its entries moved out of the inputs: either
  // the exact inverse of the round-robin partition, or plain
  // concatenation for unsharded inputs.
  size_t Total = 0;
  for (const SweepInput &Part : Parts)
    Total += Part.Tests->size();
  JsonValue Tests = JsonValue::array();
  std::vector<JsonValue> &Merged = Tests.elements();
  Merged.reserve(Total);
  if (Sharded) {
    const unsigned N = Parts[0].Shard.Count;
    if (Parts.size() != N)
      return Ret::error(strFormat(
          "incomplete shard set: reports declare %u shards, got %zu", N,
          Parts.size()));
    std::vector<const SweepInput *> ByIndex(N, nullptr);
    for (const SweepInput &Part : Parts) {
      if (Part.Shard.Count != N)
        return Ret::error(strFormat(
            "shard counts disagree across reports (%u vs %u)", N,
            Part.Shard.Count));
      const SweepInput *&Slot = ByIndex[Part.Shard.Index - 1];
      if (Slot)
        return Ret::error(
            strFormat("duplicate shard %s", Part.Shard.toString().c_str()));
      Slot = &Part;
    }
    // Stream position Seq lived in shard (Seq % N) at offset Seq / N;
    // walking offsets round-robin over shards 1..N replays the stream.
    for (size_t Offset = 0; Merged.size() < Total; ++Offset)
      for (const SweepInput *Part : ByIndex)
        if (Offset < Part->Tests->size())
          Merged.push_back(std::move((*Part->Tests)[Offset]));
  } else {
    for (const SweepInput &Part : Parts)
      for (JsonValue &Test : *Part.Tests)
        Merged.push_back(std::move(Test));
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
  Root.set("tests", std::move(Tests));
  if (std::string Error = foldMetricsSections(Inputs, Root); !Error.empty())
    return Ret::error(Error);
  if (std::string Error = foldWitnessSections(Inputs, Root); !Error.empty())
    return Ret::error(Error);
  return Root;
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
  if (std::string Error = foldMetricsSections(Inputs, Root); !Error.empty())
    return Ret::error(Error);
  return Root;
}

Expected<JsonValue> cats::mergeReports(std::vector<JsonValue> Inputs) {
  using Ret = Expected<JsonValue>;
  if (Inputs.empty())
    return Ret::error("nothing to merge");
  // Sweep reports of either version are one kind.
  auto KindOf = [](const std::string &Schema) {
    return isSweepReportSchema(Schema) ? std::string(SweepReportSchema)
                                       : Schema;
  };
  const std::string Schema = schemaOf(Inputs[0]);
  for (size_t I = 1; I < Inputs.size(); ++I)
    if (KindOf(schemaOf(Inputs[I])) != KindOf(Schema))
      return Ret::error(strFormat(
          "inputs mix schemas ('%s' vs '%s'); merge one report kind at a "
          "time",
          Schema.c_str(), schemaOf(Inputs[I]).c_str()));
  if (isSweepReportSchema(Schema))
    return mergeSweepReports(std::move(Inputs));
  if (Schema == "cats-mine-report/1")
    return mergeMineReports(std::move(Inputs));
  if (Schema.empty())
    return Ret::error("input 1 has no 'schema' member");
  return Ret::error(
      strFormat("schema '%s' is not mergeable (sweep and mine reports are)",
                Schema.c_str()));
}
