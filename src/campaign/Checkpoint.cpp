//===- Checkpoint.cpp - Campaign checkpoint/resume files ------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "campaign/Checkpoint.h"

#include "support/StringUtils.h"
#include "sweep/ReportIO.h"

#include <cstdio>
#include <filesystem>

using namespace cats;

namespace {

/// The header schema the writer emits.
constexpr const char *CheckpointSchema = "cats-checkpoint/2";

} // namespace

std::string cats::campaignId(const std::string &Spec) {
  // 64-bit FNV-1a; the id only needs to distinguish command lines, not
  // resist adversaries.
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Spec) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return strFormat("%016llx", static_cast<unsigned long long>(H));
}

Expected<CheckpointState> cats::loadCheckpoint(const std::string &Path,
                                               const std::string &CampaignId) {
  using Ret = Expected<CheckpointState>;
  std::string Text;
  if (!readWholeFile(Path, Text))
    return Ret::error(strFormat("cannot read checkpoint %s", Path.c_str()));

  // Only lines ending in a newline are whole: appendBatch writes every
  // line with its newline, so a line without one was cut by a kill.
  size_t Pos = 0;
  auto NextLine = [&](std::string &Line) {
    const size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      return false;
    Line.assign(Text, Pos, End - Pos);
    Pos = End + 1;
    return true;
  };

  std::string Line;
  if (!NextLine(Line))
    return Ret::error(strFormat("checkpoint %s is empty", Path.c_str()));
  auto Header = JsonValue::parse(Line);
  if (!Header || !Header->isObject())
    return Ret::error(strFormat("checkpoint %s: garbled header", Path.c_str()));
  const JsonValue *Schema = Header->get("schema");
  if (!Schema || !Schema->isString() ||
      (Schema->asString() != CheckpointSchema &&
       Schema->asString() != "cats-checkpoint/1"))
    return Ret::error(strFormat(
        "checkpoint %s: not a cats-checkpoint/1 or /2 file", Path.c_str()));
  const JsonValue *Id = Header->get("campaign");
  if (!Id || !Id->isString() || Id->asString() != CampaignId)
    return Ret::error(strFormat(
        "checkpoint %s belongs to a different campaign (flags or inputs "
        "changed since it was written) — rerun without --resume to restart",
        Path.c_str()));

  // Collect entries, remembering the totals at the last progress line.
  // Anything after it — entries of an interrupted batch append, or a torn
  // final line — is trimmed: resume re-judges from the last completed
  // batch.
  CheckpointState State;
  State.Bytes = Pos;
  std::vector<SweepTestResult> Entries;
  while (NextLine(Line)) {
    if (Line.empty())
      continue;
    auto Doc = JsonValue::parse(Line);
    if (!Doc || !Doc->isObject())
      break; // torn tail
    if (const JsonValue *Entry = Doc->get("entry")) {
      auto T = sweepTestResultFromJson(*Entry);
      if (!T)
        break; // torn tail
      Entries.push_back(T.take());
      continue;
    }
    const JsonValue *Progress = Doc->get("progress");
    if (!Progress || !Progress->isObject())
      break; // unknown line kind: treat as torn
    unsigned long long Consumed = 0, Hits = 0, Misses = 0;
    if (!countFromJson(Progress->get("consumed"), Consumed) ||
        !countFromJson(Progress->get("hits"), Hits) ||
        !countFromJson(Progress->get("misses"), Misses) ||
        Consumed != Entries.size())
      break; // inconsistent: trust only what precedes it
    State.Consumed = Consumed;
    State.CacheHits = Hits;
    State.CacheMisses = Misses;
    State.Bytes = Pos;
  }
  Entries.resize(static_cast<size_t>(State.Consumed));
  State.Tests = std::move(Entries);
  return State;
}

Expected<CheckpointWriter>
cats::CheckpointWriter::create(const std::string &Path,
                               const std::string &CampaignId) {
  using Ret = Expected<CheckpointWriter>;
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return Ret::error(strFormat("cannot write checkpoint %s", Path.c_str()));
  JsonValue Header = JsonValue::object();
  Header.set("schema", CheckpointSchema);
  Header.set("campaign", CampaignId);
  const std::string Line = Header.dump(0) + "\n";
  if (std::fwrite(Line.data(), 1, Line.size(), File) != Line.size() ||
      std::fflush(File) != 0) {
    std::fclose(File);
    return Ret::error(strFormat("cannot write checkpoint %s", Path.c_str()));
  }
  return CheckpointWriter(File, Path);
}

Expected<CheckpointWriter>
cats::CheckpointWriter::append(const std::string &Path,
                               unsigned long long Bytes) {
  using Ret = Expected<CheckpointWriter>;
  std::error_code Ec;
  std::filesystem::resize_file(Path, Bytes, Ec);
  if (Ec)
    return Ret::error(strFormat("cannot trim checkpoint %s: %s", Path.c_str(),
                                Ec.message().c_str()));
  std::FILE *File = std::fopen(Path.c_str(), "a");
  if (!File)
    return Ret::error(
        strFormat("cannot append to checkpoint %s", Path.c_str()));
  return CheckpointWriter(File, Path);
}

Status CheckpointWriter::appendBatch(
    std::vector<SweepTestResult>::const_iterator First,
    std::vector<SweepTestResult>::const_iterator Last,
    unsigned long long Consumed, unsigned long long Hits,
    unsigned long long Misses) {
  if (!File)
    return Status::error("checkpoint writer is closed");
  std::string Chunk;
  for (; First != Last; ++First) {
    JsonValue Line = JsonValue::object();
    Line.set("entry", sweepTestResultToJson(*First));
    Chunk += Line.dump(0) + "\n";
  }
  JsonValue Progress = JsonValue::object();
  JsonValue Totals = JsonValue::object();
  Totals.set("consumed", Consumed);
  Totals.set("hits", Hits);
  Totals.set("misses", Misses);
  Progress.set("progress", std::move(Totals));
  Chunk += Progress.dump(0) + "\n";
  if (std::fwrite(Chunk.data(), 1, Chunk.size(), File) != Chunk.size() ||
      std::fflush(File) != 0)
    return Status::error(strFormat("checkpoint write to %s failed",
                                   Path.c_str()));
  return Status::success();
}

void CheckpointWriter::remove(const std::string &Path) {
  std::remove(Path.c_str());
}

void CheckpointWriter::close() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}
