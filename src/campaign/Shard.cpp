//===- Shard.cpp - Deterministic campaign partitioning --------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "campaign/Shard.h"

#include "support/StringUtils.h"

#include <memory>

using namespace cats;

std::string ShardSpec::toString() const {
  return strFormat("%u/%u", Index, Count);
}

Expected<ShardSpec> cats::parseShardSpec(const std::string &Text) {
  using Ret = Expected<ShardSpec>;
  auto Bad = [&] {
    return Ret::error(strFormat(
        "bad shard spec '%s' (expected K/N with 1 <= K <= N)", Text.c_str()));
  };
  const size_t Slash = Text.find('/');
  if (Slash == std::string::npos)
    return Bad();
  ShardSpec Spec;
  if (!parseUnsignedArg(Text.substr(0, Slash).c_str(), Spec.Index) ||
      !parseUnsignedArg(Text.substr(Slash + 1).c_str(), Spec.Count) ||
      Spec.Index == 0 || Spec.Count == 0 || Spec.Index > Spec.Count)
    return Bad();
  return Spec;
}

StagedSource cats::shardSource(StagedSource Inner, ShardSpec Spec) {
  if (!Spec.active())
    return Inner;
  // The position counter lives on the heap so the returned source stays
  // copyable while all copies advance one shared stream.
  auto Seq = std::make_shared<unsigned long long>(0);
  Inner.Admit = [Admit = std::move(Inner.Admit), Spec,
                 Seq](StagedTest &Item) {
    if (Admit && !Admit(Item))
      return false;
    return Spec.owns((*Seq)++);
  };
  return Inner;
}

JsonValue cats::shardToJson(const ShardSpec &Spec) {
  JsonValue Stanza = JsonValue::object();
  Stanza.set("index", Spec.Index);
  Stanza.set("count", Spec.Count);
  return Stanza;
}

Expected<ShardSpec> cats::shardFromJson(const JsonValue &Stanza) {
  using Ret = Expected<ShardSpec>;
  if (!Stanza.isObject())
    return Ret::error("'shard' stanza is not an object");
  const JsonValue *Index = Stanza.get("index");
  const JsonValue *Count = Stanza.get("count");
  if (!Index || !Index->isNumber() || !Count || !Count->isNumber())
    return Ret::error("'shard' stanza without numeric index/count");
  ShardSpec Spec;
  Spec.Index = static_cast<unsigned>(Index->asNumber());
  Spec.Count = static_cast<unsigned>(Count->asNumber());
  if (Spec.Index == 0 || Spec.Count == 0 || Spec.Index > Spec.Count)
    return Ret::error(strFormat("'shard' stanza %u/%u is out of range",
                                Spec.Index, Spec.Count));
  return Spec;
}
