//===- Model.cpp - The generic axiomatic framework (Fig. 5) ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "model/Model.h"

#include <algorithm>

using namespace cats;

Model::~Model() = default;

const char *cats::axiomLetter(Axiom A) {
  switch (A) {
  case Axiom::ScPerLocation:
    return "S";
  case Axiom::NoThinAir:
    return "T";
  case Axiom::Observation:
    return "O";
  case Axiom::Propagation:
    return "P";
  }
  return "?";
}

const char *cats::axiomName(Axiom A) {
  switch (A) {
  case Axiom::ScPerLocation:
    return "sc-per-location";
  case Axiom::NoThinAir:
    return "no-thin-air";
  case Axiom::Observation:
    return "observation";
  case Axiom::Propagation:
    return "propagation";
  }
  return "?";
}

std::string Verdict::letters() const {
  std::string Out;
  for (Axiom A : Violated)
    Out += axiomLetter(A);
  return Out;
}

bool Verdict::violates(Axiom A) const {
  for (Axiom V : Violated)
    if (V == A)
      return true;
  return false;
}

Relation Model::cachedPpo(const Execution &Exe) const {
  return Exe.memo(memoTag(), MemoPpo, ppoTier(Exe), [&] { return ppo(Exe); });
}

Relation Model::cachedFences(const Execution &Exe) const {
  return Exe.memo(memoTag(), MemoFences, fencesTier(),
                  [&] { return fences(Exe); });
}

MemoTier Model::hbTier(const Execution &Exe) const {
  // hb = ppo | fences | rfe: at least per-rf (rfe), plus whatever the
  // architecture functions need.
  MemoTier T = MemoTier::PerRf;
  T = std::max(T, ppoTier(Exe));
  T = std::max(T, fencesTier());
  return T;
}

Relation Model::happensBefore(const Execution &Exe) const {
  return Exe.memo(memoTag(), MemoHb, hbTier(Exe), [&] {
    return cachedPpo(Exe) | cachedFences(Exe) | Exe.rfe();
  });
}

Relation Model::cachedHbStar(const Execution &Exe) const {
  return Exe.memo(memoTag(), MemoHbStar, hbTier(Exe), [&] {
    return happensBefore(Exe).reflexiveTransitiveClosure();
  });
}

Relation Model::cachedProp(const Execution &Exe) const {
  return Exe.memo(memoTag(), MemoProp, propTier(Exe),
                  [&] { return prop(Exe); });
}

Relation Model::scPerLocationPoLoc(const Execution &Exe) const {
  Relation PoLoc = Exe.poLoc();
  if (style().AllowLoadLoadHazard)
    PoLoc = PoLoc - PoLoc.restrict(Exe.reads(), Exe.reads());
  return PoLoc;
}

Verdict Model::check(const Execution &Exe) const {
  Verdict Out;
  AxiomStyle Style = style();

  auto Fail = [&Out](Axiom A) {
    Out.Allowed = false;
    Out.Violated.push_back(A);
  };

  // SC PER LOCATION: acyclic(po-loc | com), with the llh weakening removing
  // read-read pairs from po-loc (Table VII). The check is independent of
  // the model (up to the llh bit), so its closure is memoized under a
  // tag shared by every model instance.
  static const char UniprocTag = 0, UniprocLlhTag = 0;
  Relation PoLocComTc = Exe.memo(
      Style.AllowLoadLoadHazard ? &UniprocLlhTag : &UniprocTag, 0,
      MemoTier::PerCo,
      [&] { return (scPerLocationPoLoc(Exe) | Exe.com()).transitiveClosure(); });
  if (!PoLocComTc.isIrreflexive())
    Fail(Axiom::ScPerLocation);

  Relation Hb = happensBefore(Exe);

  // NO THIN AIR: acyclic(hb).
  if (!Style.DisableNoThinAir && !Hb.isAcyclic())
    Fail(Axiom::NoThinAir);

  // OBSERVATION: irreflexive(fre; prop; hb*).
  Relation Prop = cachedProp(Exe);
  Relation HbStar = cachedHbStar(Exe);
  if (!Exe.fre().compose(Prop).compose(HbStar).isIrreflexive())
    Fail(Axiom::Observation);

  // PROPAGATION: acyclic(co | prop), or the C++ R-A weakening
  // irreflexive(prop; co).
  if (Style.PropagationIrreflexiveOnly) {
    if (!Prop.compose(Exe.Co).isIrreflexive())
      Fail(Axiom::Propagation);
  } else if (!(Exe.Co | Prop).isAcyclic()) {
    Fail(Axiom::Propagation);
  }

  return Out;
}

std::vector<LabeledEdge> Model::labelWalk(
    const std::vector<EventId> &Walk,
    const std::vector<std::pair<std::string, const Relation *>> &Sources) {
  std::vector<LabeledEdge> Out;
  for (size_t I = 0; I + 1 < Walk.size(); ++I) {
    LabeledEdge E;
    E.From = Walk[I];
    E.To = Walk[I + 1];
    E.Label = "?";
    for (const auto &[Name, Rel] : Sources) {
      if (Rel->test(E.From, E.To)) {
        E.Label = Name;
        break;
      }
    }
    Out.push_back(std::move(E));
  }
  return Out;
}

std::vector<std::pair<std::string, const Relation *>>
Model::hbEdgeSources(const Execution &Exe,
                     std::vector<Relation> &Storage) const {
  // Reserve up front: Sources keeps raw pointers into Storage, so it must
  // never reallocate once handed out.
  Storage.reserve(Storage.size() + Exe.Fences.size() + 3);
  std::vector<std::pair<std::string, const Relation *>> Sources;
  Storage.push_back(Exe.rfe());
  Sources.emplace_back("rf", &Storage.back());
  // Prefer the concrete fence mnemonic ("fence:sync") over the generic
  // label whenever the hb edge lies in one of the execution's named fence
  // relations *and* in the model's fences() contribution.
  Relation ModelFences = cachedFences(Exe);
  for (const auto &[Name, Rel] : Exe.Fences) {
    Storage.push_back(Rel & ModelFences);
    Sources.emplace_back("fence:" + Name, &Storage.back());
  }
  Storage.push_back(std::move(ModelFences));
  Sources.emplace_back("fence", &Storage.back());
  Storage.push_back(cachedPpo(Exe));
  Sources.emplace_back("ppo", &Storage.back());
  return Sources;
}

std::vector<LabeledEdge> Model::explainViolation(Axiom A,
                                                 const Execution &Exe) const {
  switch (A) {
  case Axiom::ScPerLocation: {
    Relation PoLoc = scPerLocationPoLoc(Exe);
    std::vector<EventId> Cycle = (PoLoc | Exe.com()).minimalCycle();
    if (Cycle.empty())
      return {};
    Relation Fr = Exe.fr();
    return labelWalk(Cycle, {{"rf", &Exe.Rf},
                             {"co", &Exe.Co},
                             {"fr", &Fr},
                             {"po-loc", &PoLoc}});
  }

  case Axiom::NoThinAir: {
    std::vector<EventId> Cycle = happensBefore(Exe).minimalCycle();
    if (Cycle.empty())
      return {};
    std::vector<Relation> Storage;
    return labelWalk(Cycle, hbEdgeSources(Exe, Storage));
  }

  case Axiom::Observation: {
    // irreflexive(fre; prop; hb*) fails: find a concrete decomposition
    // R -fre-> W1 -prop-> W2 -hb*-> R and expand the hb* leg into hb
    // steps so every edge is drawable.
    Relation Fre = Exe.fre();
    Relation Prop = cachedProp(Exe);
    Relation HbStar = cachedHbStar(Exe);
    Relation PropHbStar = Prop.compose(HbStar);
    Relation Whole = Fre.compose(PropHbStar);
    const unsigned N = Fre.size();
    for (EventId R = 0; R < N; ++R) {
      if (!Whole.test(R, R))
        continue;
      for (EventId W1 = 0; W1 < N; ++W1) {
        if (!Fre.test(R, W1))
          continue;
        for (EventId W2 = 0; W2 < N; ++W2) {
          if (!Prop.test(W1, W2) || !HbStar.test(W2, R))
            continue;
          std::vector<LabeledEdge> Out;
          Out.push_back({R, W1, "fr"});
          Out.push_back({W1, W2, "prop"});
          if (W2 != R) {
            std::vector<Relation> Storage;
            auto Sources = hbEdgeSources(Exe, Storage);
            std::vector<EventId> Path =
                happensBefore(Exe).shortestPath(W2, R);
            for (LabeledEdge &E : labelWalk(Path, Sources))
              Out.push_back(std::move(E));
          }
          return Out;
        }
      }
    }
    return {};
  }

  case Axiom::Propagation: {
    Relation Prop = cachedProp(Exe);
    if (style().PropagationIrreflexiveOnly) {
      // irreflexive(prop; co) fails: a two-edge loop X -prop-> Y -co-> X.
      const unsigned N = Prop.size();
      for (EventId X = 0; X < N; ++X) {
        for (EventId Y = 0; Y < N; ++Y) {
          if (Prop.test(X, Y) && Exe.Co.test(Y, X))
            return {{X, Y, "prop"}, {Y, X, "co"}};
        }
      }
      return {};
    }
    std::vector<EventId> Cycle = (Exe.Co | Prop).minimalCycle();
    if (Cycle.empty())
      return {};
    return labelWalk(Cycle, {{"co", &Exe.Co}, {"prop", &Prop}});
  }
  }
  return {};
}

std::string Model::definitionFingerprint() const {
  AxiomStyle S = style();
  std::string Out = "native:" + name();
  Out += ";llh=";
  Out += S.AllowLoadLoadHazard ? '1' : '0';
  Out += ";prop-irr=";
  Out += S.PropagationIrreflexiveOnly ? '1' : '0';
  Out += ";no-thin-air-off=";
  Out += S.DisableNoThinAir ? '1' : '0';
  return Out;
}
