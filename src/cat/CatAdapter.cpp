//===- CatAdapter.cpp - cat files behind the Model interface --------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "cat/CatAdapter.h"

#include "support/StringUtils.h"


using namespace cats;

namespace {

/// FNV-1a over the model source; collisions only risk a stale cache hit
/// on a hash-colliding edit, which 64 bits makes negligible.
std::string sourceHash(const std::string &Text) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return strFormat("%016llx", static_cast<unsigned long long>(H));
}

} // namespace

CatAdapterModel::CatAdapterModel(cat::CatModel CatIn, std::string SourceIn)
    : Cat(std::make_shared<const cat::CatModel>(std::move(CatIn))),
      SourceHash(sourceHash(SourceIn)) {}

Expected<CatAdapterModel> CatAdapterModel::fromSource(
    const std::string &Source, const std::string &Name) {
  auto Compiled = cat::CatModel::fromSource(Source, Name);
  if (!Compiled)
    return Expected<CatAdapterModel>::error(Compiled.message());
  return CatAdapterModel(Compiled.take(), Source);
}

Expected<CatAdapterModel> CatAdapterModel::fromFile(const std::string &Path) {
  std::string Text;
  if (!readWholeFile(Path, Text))
    return Expected<CatAdapterModel>::error("cannot open cat file: " + Path);
  auto Compiled = cat::CatModel::fromFile(Path);
  if (!Compiled)
    return Expected<CatAdapterModel>::error(Compiled.message());
  return CatAdapterModel(Compiled.take(), Text);
}

std::string CatAdapterModel::name() const { return Cat->name(); }

Relation CatAdapterModel::ppo(const Execution &Exe) const {
  if (auto R = Cat->evaluate("ppo", Exe))
    return R.take();
  return Exe.Po;
}

Relation CatAdapterModel::fences(const Execution &Exe) const {
  if (auto R = Cat->evaluate("fence", Exe))
    return R.take();
  if (auto R = Cat->evaluate("fences", Exe))
    return R.take();
  return Relation(Exe.numEvents());
}

Relation CatAdapterModel::prop(const Execution &Exe) const {
  if (auto R = Cat->evaluate("prop", Exe))
    return R.take();
  return Relation(Exe.numEvents());
}

Verdict CatAdapterModel::check(const Execution &Exe) const {
  Verdict Out;
  for (const cat::CheckResult &C : Cat->check(Exe)) {
    if (C.Holds)
      continue;
    Out.Allowed = false;
    Axiom A;
    if (C.Name == "sc-per-location" || C.Name == "uniproc")
      A = Axiom::ScPerLocation;
    else if (C.Name == "no-thin-air" || C.Name == "thinair")
      A = Axiom::NoThinAir;
    else if (C.Name == "observation")
      A = Axiom::Observation;
    else if (C.Name == "propagation")
      A = Axiom::Propagation;
    else
      continue; // forbidden, but outside the four-axiom classification
    if (!Out.violates(A))
      Out.Violated.push_back(A);
  }
  return Out;
}

std::string CatAdapterModel::definitionFingerprint() const {
  return "cat:" + name() + ":" + SourceHash;
}
