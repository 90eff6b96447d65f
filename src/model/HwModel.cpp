//===- HwModel.cpp - Power and ARM instances (Figs. 17/18/25) -------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "model/HwModel.h"

#include <mutex>
#include <set>

using namespace cats;

namespace {

/// Interns \p Key, returning a stable address equal across instances
/// constructed from the same key.
const void *internMemoTag(const std::string &Key) {
  static std::mutex Lock;
  static std::set<std::string> Tags;
  std::lock_guard<std::mutex> Guard(Lock);
  return &*Tags.insert(Key).first;
}

/// Everything of HwConfig that feeds ppo/fences/prop (not the axiom
/// style, not the display name).
std::string tripleIdentity(const HwConfig &C) {
  std::string Key;
  auto Append = [&Key](const std::vector<std::string> &Names) {
    for (const std::string &N : Names) {
      Key += N;
      Key += ',';
    }
    Key += '|';
  };
  Append(C.FullFences);
  Append(C.FullFencesWW);
  Append(C.LightFencesNoWR);
  Append(C.LightFencesWW);
  Key += C.Cc0IncludesPoLoc ? "cc0poloc|" : "|";
  Key += C.PpoUsesRdwDetour ? "rdwdetour" : "";
  return Key;
}

} // namespace

HwModel::HwModel(HwConfig ConfigIn)
    : Config(std::move(ConfigIn)),
      MemoIdentity(internMemoTag("hw:" + tripleIdentity(Config))) {}

std::string HwModel::definitionFingerprint() const {
  // The triple identity deliberately omits the name and axiom style (so
  // ARM/ARM llh share memo entries); the cache fingerprint needs both.
  std::string Out = "hw:" + Config.Name + ";" + tripleIdentity(Config);
  Out += ";llh=";
  Out += Config.AllowLoadLoadHazard ? '1' : '0';
  return Out;
}

unsigned HwConfig::fenceCost(const std::string &FenceName) const {
  for (const auto &[Name, Cost] : FenceCosts)
    if (Name == FenceName)
      return Cost;
  return 0;
}

HwConfig HwConfig::power() {
  HwConfig C;
  C.Name = "Power";
  C.FullFences = {fence::Sync};
  C.LightFencesNoWR = {fence::LwSync};
  C.LightFencesWW = {fence::Eieio};
  C.Cc0IncludesPoLoc = true;
  C.FenceCosts = {{fence::Sync, 6},
                  {fence::LwSync, 3},
                  {fence::Eieio, 2},
                  {fence::ISync, 1}};
  return C;
}

HwConfig HwConfig::arm() {
  HwConfig C;
  C.Name = "ARM";
  C.FullFences = {fence::Dmb, fence::Dsb};
  C.FullFencesWW = {fence::DmbSt, fence::DsbSt};
  C.Cc0IncludesPoLoc = false;
  C.FenceCosts = {{fence::Dmb, 6},
                  {fence::Dsb, 7},
                  {fence::DmbSt, 3},
                  {fence::DsbSt, 4},
                  {fence::Isb, 1}};
  return C;
}

HwConfig HwConfig::powerArm() {
  HwConfig C = arm();
  C.Name = "Power-ARM";
  C.Cc0IncludesPoLoc = true;
  return C;
}

HwConfig HwConfig::armLlh() {
  HwConfig C = arm();
  C.Name = "ARM llh";
  C.AllowLoadLoadHazard = true;
  return C;
}

Relation HwModel::fullFence(const Execution &Exe) const {
  Relation Out(Exe.numEvents());
  for (const std::string &Name : Config.FullFences)
    Out |= Exe.fenceRelation(Name);
  EventSet W = Exe.writes();
  for (const std::string &Name : Config.FullFencesWW)
    Out |= Exe.fenceRelation(Name).restrict(W, W);
  return Out;
}

Relation HwModel::lightFence(const Execution &Exe) const {
  Relation Out(Exe.numEvents());
  EventSet W = Exe.writes();
  EventSet R = Exe.reads();
  for (const std::string &Name : Config.LightFencesNoWR) {
    // lwfence = lwsync \ WR (Fig. 17): an lwsync between a write and a read
    // does not order the pair.
    Relation F = Exe.fenceRelation(Name);
    Out |= F - F.restrict(W, R);
  }
  for (const std::string &Name : Config.LightFencesWW)
    Out |= Exe.fenceRelation(Name).restrict(W, W);
  return Out;
}

Relation HwModel::fences(const Execution &Exe) const {
  return lightFence(Exe) | fullFence(Exe);
}

Relation HwModel::ppo(const Execution &Exe) const {
  unsigned N = Exe.numEvents();

  // Base ingredients of Fig. 25.
  Relation Dp = Exe.Addr | Exe.Data;
  Relation Ii0 = Dp | Exe.rfi();
  Relation Ci0 = Exe.CtrlCfence;
  if (Config.PpoUsesRdwDetour) {
    Ii0 |= Exe.rdw();
    Ci0 |= Exe.detour();
  }
  Relation Ic0(N);
  Relation Cc0 = Dp | Exe.Ctrl | Exe.Addr.compose(Exe.Po);
  if (Config.Cc0IncludesPoLoc)
    Cc0 |= Exe.poLoc();

  // Least fixpoint of the mutually recursive ii/ic/ci/cc equations.
  Relation Ii = Ii0, Ic = Ic0, Ci = Ci0, Cc = Cc0;
  while (true) {
    Relation NewIi = Ii0 | Ci | Ic.compose(Ci) | Ii.compose(Ii);
    Relation NewIc =
        Ic0 | Ii | Cc | Ic.compose(Cc) | Ii.compose(Ic);
    Relation NewCi = Ci0 | Ci.compose(Ii) | Cc.compose(Ci);
    Relation NewCc = Cc0 | Ci | Ci.compose(Ic) | Cc.compose(Cc);
    if (NewIi == Ii && NewIc == Ic && NewCi == Ci && NewCc == Cc)
      break;
    Ii = std::move(NewIi);
    Ic = std::move(NewIc);
    Ci = std::move(NewCi);
    Cc = std::move(NewCc);
  }

  EventSet R = Exe.reads();
  EventSet W = Exe.writes();
  return Ii.restrict(R, R) | Ic.restrict(R, W);
}

Relation HwModel::prop(const Execution &Exe) const {
  // hb*, fences and the full-fence part are shared with the axiom
  // evaluation via the per-candidate memo (ppo's Fig. 25 fixpoint is the
  // expensive one: without the memo it would run again here through hb).
  Relation HbStar = cachedHbStar(Exe);
  Relation FencesRel = cachedFences(Exe);
  Relation FFence = Exe.memo(memoTag(), MemoFullFence, MemoTier::Static,
                             [&] { return fullFence(Exe); });

  // A-cumulativity: rfe; fences (Fig. 18).
  Relation ACumul = Exe.rfe().compose(FencesRel);
  Relation PropBase = (FencesRel | ACumul).compose(HbStar);

  EventSet W = Exe.writes();
  Relation ComStar = Exe.comStar();
  Relation PropBaseStar = PropBase.reflexiveTransitiveClosure();

  return PropBase.restrict(W, W) |
         ComStar.compose(PropBaseStar).compose(FFence).compose(HbStar);
}
