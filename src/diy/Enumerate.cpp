//===- Enumerate.cpp - Exhaustive critical-cycle enumeration --------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "diy/Enumerate.h"

#include "event/Execution.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <map>
#include <memory>
#include <regex>
#include <set>

using namespace cats;

std::vector<DiyEdge> cats::edgeVocabulary(const EnumerateOptions &Opts) {
  std::vector<DiyEdge> Vocab;

  // Fence vocabulary, matching generateBattery: the ordering fences only
  // (control fences like isync/isb pair with ctrl, not with plain po).
  std::vector<std::string> Fences;
  if (Opts.Fences) {
    switch (Opts.Target) {
    case Arch::Power:
      Fences = {fence::Sync, fence::LwSync, fence::Eieio};
      break;
    case Arch::ARM:
      Fences = {fence::Dmb, fence::DmbSt};
      break;
    case Arch::TSO:
      Fences = {fence::MFence};
      break;
    case Arch::SC:
    case Arch::CppRA:
      break;
    }
  }
  const bool HasDeps =
      Opts.Dependencies &&
      (Opts.Target == Arch::Power || Opts.Target == Arch::ARM);

  // Po edges: every direction pair, every mechanism the options admit.
  for (Dir Src : {Dir::R, Dir::W})
    for (Dir Dst : {Dir::R, Dir::W}) {
      Vocab.push_back(DiyEdge::po(Src, Dst));
      for (const std::string &Fence : Fences)
        Vocab.push_back(DiyEdge::po(Src, Dst, PoMech::Fence, Fence));
      if (HasDeps && Src == Dir::R) {
        Vocab.push_back(DiyEdge::po(Src, Dst, PoMech::Addr));
        Vocab.push_back(DiyEdge::po(Src, Dst, PoMech::Ctrl));
        Vocab.push_back(DiyEdge::po(Src, Dst, PoMech::CtrlCfence));
        if (Dst == Dir::W)
          Vocab.push_back(DiyEdge::po(Src, Dst, PoMech::Data));
      }
    }

  // Communication edges: external always, internal on request.
  Vocab.push_back(DiyEdge::rfe());
  Vocab.push_back(DiyEdge::fre());
  Vocab.push_back(DiyEdge::wse());
  if (Opts.InternalCom) {
    Vocab.push_back(DiyEdge::rfi());
    Vocab.push_back(DiyEdge::fri());
    Vocab.push_back(DiyEdge::wsi());
  }
  return Vocab;
}

namespace {

/// Criticality check on a closed edge sequence (Sec. 8.1): simulate the
/// thread/location layout of synthesizeTest and enforce the per-thread
/// and per-location access caps. External-only cycles follow the paper's
/// critical-cycle definition (two accesses per thread, at most three per
/// location from distinct threads); internal detours relax the caps the
/// way Figs. 32/33 do.
bool isCritical(const DiyCycle &Cycle, unsigned NumPo, bool InternalCom) {
  // Layout, mirroring synthesizeTest: walk from a thread boundary (the
  // edge after the first external edge), po advances the location (mod
  // the po-edge count), external edges advance the thread. Starting at a
  // boundary keeps the check rotation-invariant: the least rotation the
  // search closes may split a thread across the wrap into two fragments,
  // each under the cap.
  size_t Start = 0;
  for (size_t I = 0; I < Cycle.size(); ++I)
    if (isExternalEdge(Cycle[I].Kind)) {
      Start = (I + 1) % Cycle.size();
      break;
    }
  std::map<int, unsigned> PerThread;
  std::map<int, std::set<int>> ThreadsPerLoc;
  std::map<int, unsigned> PerLoc;
  int Thread = 0, Loc = 0;
  for (size_t Step = 0; Step < Cycle.size(); ++Step) {
    const DiyEdge &Edge = Cycle[(Start + Step) % Cycle.size()];
    ++PerThread[Thread];
    ++PerLoc[Loc];
    ThreadsPerLoc[Loc].insert(Thread);
    if (Edge.Kind == EdgeKind::Po)
      Loc = (Loc + 1) % static_cast<int>(NumPo);
    else if (isExternalEdge(Edge.Kind))
      ++Thread;
  }
  const unsigned ThreadCap = InternalCom ? 4 : 2;
  for (const auto &[T, Count] : PerThread)
    if (Count > ThreadCap)
      return false;
  for (const auto &[L, Count] : PerLoc) {
    if (Count > 3)
      return false;
    // Without internal communication, a location's accesses must come
    // from distinct threads (the po edges of one thread change location).
    if (!InternalCom && ThreadsPerLoc[L].size() != Count)
      return false;
  }
  return true;
}

/// Whether \p B may follow \p A in a cycle: the directions chain, and no
/// two po edges are adjacent.
bool chains(const DiyEdge &A, const DiyEdge &B) {
  return A.Dst == B.Src && !(A.Kind == EdgeKind::Po && B.Kind == EdgeKind::Po);
}

/// The depth-first search over the edge vocabulary. It meets each cycle
/// once, at its least rotation by vocabulary index, with the
/// Fredricksen-Kessler-Maiorana pre-necklace test: a prefix of period P
/// grows only by an edge whose index is at least the one P places back,
/// and closes only at a length that P divides.
class CycleSearch {
public:
  CycleSearch(const EnumerateOptions &Opts,
              const std::function<bool(const EnumeratedCycle &)> &Fn)
      : Opts(Opts), Fn(Fn), Vocab(edgeVocabulary(Opts)) {}

  uint64_t run() {
    extend(1, 0, 0);
    obs::tick("diy.closures_tried", ClosuresTried);
    return Emitted;
  }

private:
  /// Criticality checks on the closed prefix; emits it when it passes.
  void tryClose(unsigned NumExternal, unsigned NumPo) {
    ++ClosuresTried; // plain local; flushed to the registry by run()
    // A critical cycle has at least two threads and spans at least two
    // locations.
    if (NumExternal < 2 || NumPo < 2)
      return;
    if (!isCritical(Prefix, NumPo, Opts.InternalCom))
      return;

    EnumeratedCycle Out;
    Out.Cycle = Prefix;
    Out.Name = canonicalizeCycle(Out.Cycle, Opts.Target);
    // Names are injective (internal communications spell fri/rfi/wsi into
    // the per-thread suffix chains), so this guard never fires in
    // practice; it stands as the backstop for the no-duplicate-names
    // invariant the tools and tests rely on.
    if (!SeenNames.insert(Out.Name).second)
      return;
    ++Emitted;
    if (!Fn(Out) || (Opts.Limit && Emitted >= Opts.Limit))
      Stopped = true;
  }

  /// Extends the prefix, of period \p Period, by one edge.
  void extend(size_t Period, unsigned NumExternal, unsigned NumPo) {
    if (Stopped)
      return;
    const size_t T = Prefix.size() + 1; // 1-based position of the new edge
    if (T > Opts.MaxEdges)
      return;
    const size_t Least = T > Period ? Idx[T - Period - 1] : 0;
    for (size_t I = Least; I < Vocab.size(); ++I) {
      const DiyEdge &Next = Vocab[I];
      if (!Prefix.empty() && !chains(Prefix.back(), Next))
        continue;
      const size_t NewPeriod = I > Least ? T : Period;
      const unsigned External = NumExternal + isExternalEdge(Next.Kind);
      const unsigned Po = NumPo + (Next.Kind == EdgeKind::Po);
      Prefix.push_back(Next);
      Idx.push_back(I);
      if (T >= Opts.MinEdges && T >= 3 && T % NewPeriod == 0 &&
          chains(Next, Prefix.front()))
        tryClose(External, Po);
      extend(NewPeriod, External, Po);
      Idx.pop_back();
      Prefix.pop_back();
      if (Stopped)
        return;
    }
  }

  const EnumerateOptions &Opts;
  const std::function<bool(const EnumeratedCycle &)> &Fn;
  std::vector<DiyEdge> Vocab;
  DiyCycle Prefix;
  std::vector<size_t> Idx; // vocabulary index of each prefix edge
  std::set<std::string> SeenNames;
  uint64_t Emitted = 0;
  uint64_t ClosuresTried = 0;
  bool Stopped = false;
};

} // namespace

uint64_t cats::enumerateCycles(
    const EnumerateOptions &Opts,
    const std::function<bool(const EnumeratedCycle &)> &Fn) {
  if (Opts.MaxEdges == 0)
    return 0;
  obs::Span EnumerateSpan("diy enumerate");
  const uint64_t Emitted = CycleSearch(Opts, Fn).run();
  obs::tick("diy.cycles_emitted", Emitted);
  return Emitted;
}

std::vector<EnumeratedCycle>
cats::enumerateAll(const EnumerateOptions &Opts) {
  std::vector<EnumeratedCycle> Out;
  enumerateCycles(Opts, [&](const EnumeratedCycle &Cycle) {
    Out.push_back(Cycle);
    return true;
  });
  return Out;
}

Expected<std::vector<EnumeratedCycle>>
cats::enumerateMatching(const EnumerateOptions &Opts,
                        const std::string &FilterRegex) {
  using Fail = Expected<std::vector<EnumeratedCycle>>;
  std::regex Re;
  const bool HasFilter = !FilterRegex.empty();
  if (HasFilter) {
    auto Compiled = compileFilterRegex(FilterRegex);
    if (!Compiled)
      return Fail::error(Compiled.message());
    Re = Compiled.take();
  }
  // The limit counts *matching* cycles, so a filter composed with a
  // limit yields the first N matches.
  std::vector<EnumeratedCycle> Cycles;
  EnumerateOptions Inner = Opts;
  Inner.Limit = 0;
  enumerateCycles(Inner, [&](const EnumeratedCycle &Cycle) {
    if (!HasFilter || std::regex_search(Cycle.Name, Re))
      Cycles.push_back(Cycle);
    return !Opts.Limit || Cycles.size() < Opts.Limit;
  });
  return Cycles;
}

StagedSource
cats::stageDiyTests(std::shared_ptr<const std::vector<EnumeratedCycle>> Cycles,
                    Arch Target, std::vector<std::string> *SynthesisErrors) {
  auto Next = std::make_shared<size_t>(0);
  StagedSource Source;
  Source.Pull = [Cycles, Next](StagedTest &Item) {
    if (*Next == Cycles->size())
      return false;
    Item.Index = (*Next)++;
    return true;
  };
  Source.Make = [Cycles, Target](StagedTest &Item) {
    const EnumeratedCycle &Cycle = (*Cycles)[Item.Index];
    obs::tick("diy.tests_synthesized");
    auto Test = synthesizeTest(Cycle.Cycle, Target, Cycle.Name);
    if (Test) {
      Item.Test = Test.take();
      Item.Error.clear();
    } else {
      Item.Error = Test.message();
    }
  };
  Source.Admit = [Cycles, SynthesisErrors](StagedTest &Item) {
    if (Item.Error.empty())
      return true;
    if (SynthesisErrors)
      SynthesisErrors->push_back((*Cycles)[Item.Index].Name + ": " +
                                 Item.Error);
    return false;
  };
  return Source;
}

Expected<StagedSource>
cats::makeDiyTestSource(const EnumerateOptions &Opts,
                        const std::string &FilterRegex,
                        std::vector<std::string> *SynthesisErrors) {
  // Cycles are tiny; materialize the descriptors and synthesize lazily,
  // one test per make.
  auto Matching = enumerateMatching(Opts, FilterRegex);
  if (!Matching)
    return Expected<StagedSource>::error(Matching.message());
  return stageDiyTests(
      std::make_shared<const std::vector<EnumeratedCycle>>(Matching.take()),
      Opts.Target, SynthesisErrors);
}
