//===- witness.cpp - Witness/provenance layer tests -----------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the witness layer (docs/explain.md): every verdict a witness
/// backs must re-validate against a genuinely reconstructed execution, the
/// serializations must round-trip, and sweep reports must stay
/// byte-identical when capture is off.
///
//===----------------------------------------------------------------------===//

#include "campaign/Merge.h"
#include "herd/Simulator.h"
#include "litmus/Catalog.h"
#include "litmus/Compiler.h"
#include "model/Model.h"
#include "model/Registry.h"
#include "obs/Witness.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace cats;

namespace {

/// Rebuilds the concrete execution a witness snapshotted: the consistent
/// candidate with the witness's outcome whose rf and co agree with every
/// rf/co edge the witness drew. The rf edges pin the full read-from map
/// (rf is a function on reads and the witness lists all of it) and the
/// reduced co edges pin each per-location total order by its successor
/// chain, so at most one candidate matches.
bool reconstructExecution(const CompiledTest &Compiled, const obs::Witness &W,
                          Execution &ExeOut, Outcome &OutOut) {
  std::vector<LabeledEdge> RfEdges, CoEdges;
  for (const LabeledEdge &E : W.Edges) {
    if (E.Label == "rf")
      RfEdges.push_back(E);
    else if (E.Label == "co")
      CoEdges.push_back(E);
  }
  bool Found = false;
  forEachCandidate(Compiled, [&](const Candidate &Cand) {
    if (!Cand.Consistent || Cand.Out.key() != W.Outcome)
      return true;
    for (const LabeledEdge &E : RfEdges)
      if (!Cand.Exe.Rf.test(E.From, E.To))
        return true;
    for (const LabeledEdge &E : CoEdges)
      if (!Cand.Exe.Co.test(E.From, E.To))
        return true;
    ExeOut = Cand.Exe;
    OutOut = Cand.Out;
    Found = true;
    return false;
  });
  return Found;
}

/// Does the derived relation named by \p Label contain (From, To) on
/// \p Exe under \p M? Unknown labels fail the test.
bool labelHolds(const std::string &Label, EventId From, EventId To,
                const Execution &Exe, const Model &M) {
  if (Label == "rf")
    return Exe.Rf.test(From, To);
  if (Label == "co")
    return Exe.Co.test(From, To);
  if (Label == "fr")
    return Exe.fr().test(From, To);
  if (Label == "po")
    return Exe.Po.test(From, To);
  if (Label == "po-loc")
    return Exe.poLoc().test(From, To);
  if (Label == "ppo")
    return M.ppo(Exe).test(From, To);
  if (Label == "prop")
    return M.prop(Exe).test(From, To);
  if (Label == "fence")
    return M.fences(Exe).test(From, To);
  if (Label.rfind("fence:", 0) == 0)
    return Exe.fenceRelation(Label.substr(6)).test(From, To) &&
           M.fences(Exe).test(From, To);
  ADD_FAILURE() << "unknown cycle edge label '" << Label << "'";
  return false;
}

/// Checks that every cycle edge lies in the relation the named axiom
/// constrains: po-loc | com for SC PER LOCATION (minus read-read pairs
/// under llh), hb for NO THIN AIR, the fre; prop; hb* shape for
/// OBSERVATION, co | prop for PROPAGATION.
void expectCycleInAxiomRelation(const obs::Witness &W, const Execution &Exe,
                                const Model &M) {
  const std::string Where = W.Test + " @ " + W.Model;
  if (W.Axiom == "sc-per-location") {
    const Relation PoLoc = Exe.poLoc();
    const Relation Com = Exe.com();
    const bool Llh = M.style().AllowLoadLoadHazard;
    for (const LabeledEdge &E : W.Cycle) {
      const bool InPoLoc =
          PoLoc.test(E.From, E.To) &&
          !(Llh && Exe.event(E.From).isRead() && Exe.event(E.To).isRead());
      EXPECT_TRUE(InPoLoc || Com.test(E.From, E.To))
          << Where << ": " << E.Label << " edge outside po-loc | com";
    }
  } else if (W.Axiom == "no-thin-air") {
    const Relation Hb = M.happensBefore(Exe);
    for (const LabeledEdge &E : W.Cycle)
      EXPECT_TRUE(Hb.test(E.From, E.To))
          << Where << ": " << E.Label << " edge outside hb";
  } else if (W.Axiom == "observation") {
    // fre; prop; hb* — the builder emits the decomposition in order.
    ASSERT_GE(W.Cycle.size(), 2u) << Where;
    EXPECT_TRUE(Exe.fre().test(W.Cycle[0].From, W.Cycle[0].To))
        << Where << ": first edge outside fre";
    EXPECT_TRUE(M.prop(Exe).test(W.Cycle[1].From, W.Cycle[1].To))
        << Where << ": second edge outside prop";
    const Relation Hb = M.happensBefore(Exe);
    for (size_t I = 2; I < W.Cycle.size(); ++I)
      EXPECT_TRUE(Hb.test(W.Cycle[I].From, W.Cycle[I].To))
          << Where << ": hb* leg edge outside hb";
  } else if (W.Axiom == "propagation") {
    const Relation Prop = M.prop(Exe);
    for (const LabeledEdge &E : W.Cycle)
      EXPECT_TRUE(Exe.Co.test(E.From, E.To) || Prop.test(E.From, E.To))
          << Where << ": " << E.Label << " edge outside co | prop";
  } else {
    ADD_FAILURE() << Where << ": unknown axiom '" << W.Axiom << "'";
  }
}

/// The cycle must be a closed labeled walk E0 -> ... -> E0. A single
/// self-loop edge is legal: prop can be reflexive, which alone makes
/// acyclic(co | prop) fail.
void expectClosedWalk(const obs::Witness &W) {
  ASSERT_GE(W.Cycle.size(), 1u) << W.Test << " @ " << W.Model;
  for (size_t I = 0; I + 1 < W.Cycle.size(); ++I)
    EXPECT_EQ(W.Cycle[I].To, W.Cycle[I + 1].From)
        << W.Test << " @ " << W.Model << ": cycle not chained at edge " << I;
  EXPECT_EQ(W.Cycle.back().To, W.Cycle.front().From)
      << W.Test << " @ " << W.Model << ": cycle not closed";
}

/// Collects witnesses for a handful of catalogue tests under every model
/// (shared by the serialization tests).
std::vector<obs::Witness> sampleWitnesses() {
  SimulateOptions Opts;
  Opts.Witness = true;
  std::vector<obs::Witness> All;
  size_t Taken = 0;
  for (const CatalogEntry &Entry : figureCatalog()) {
    if (Taken++ >= 4)
      break;
    auto Compiled = CompiledTest::compile(Entry.Test);
    if (!Compiled)
      continue;
    MultiSimulationResult R = simulateAll(*Compiled, allModels(), Opts);
    for (obs::Witness &W : R.Witnesses)
      All.push_back(std::move(W));
  }
  return All;
}

} // namespace

//===----------------------------------------------------------------------===//
// Evidence re-validation over the figure catalogue
//===----------------------------------------------------------------------===//

// Every (catalogue test, model) pair gets exactly one witness backing the
// judge's verdict; forbidden pairs carry the killing axiom with a cycle
// that re-validates on a reconstructed execution, allowed pairs a
// replayable consistent execution realizing the final condition.
TEST(Witness, CatalogueEvidenceRevalidates) {
  SimulateOptions Opts;
  Opts.Witness = true;
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(Compiled) << Entry.Test.Name << ": " << Compiled.message();
    MultiSimulationResult Result = simulateAll(*Compiled, allModels(), Opts);

    // One witness per model, in some order, plus at most one
    // model-independent prune-cut.
    std::map<std::string, const obs::Witness *> ByModel;
    for (const obs::Witness &W : Result.Witnesses) {
      if (W.Kind == obs::WitnessKind::PruneCut) {
        EXPECT_EQ(W.Model, "*") << Entry.Test.Name;
        continue;
      }
      EXPECT_EQ(W.Test, Entry.Test.Name);
      EXPECT_TRUE(ByModel.emplace(W.Model, &W).second)
          << Entry.Test.Name << ": duplicate witness for " << W.Model;
    }
    for (const Model *M : allModels())
      ASSERT_TRUE(ByModel.count(M->name()))
          << Entry.Test.Name << ": no witness for " << M->name();

    for (const auto &[Name, W] : ByModel) {
      const Model *M = modelByName(Name);
      ASSERT_NE(M, nullptr) << Name;
      const SimulationResult *R = Result.forModel(Name);
      ASSERT_NE(R, nullptr) << Entry.Test.Name << " @ " << Name;

      // The witness backs exactly the judge's verdict.
      EXPECT_EQ(W->Verdict, R->verdict()) << Entry.Test.Name << " @ " << Name;

      switch (W->Kind) {
      case obs::WitnessKind::AllowedExecution: {
        EXPECT_EQ(W->Verdict, "Allow");
        EXPECT_TRUE(W->Axiom.empty());
        Execution Exe;
        Outcome Out;
        ASSERT_TRUE(reconstructExecution(*Compiled, *W, Exe, Out))
            << Entry.Test.Name << " @ " << Name
            << ": allowed witness does not match any consistent candidate";
        Exe.enableDerivedCache();
        // Replay: the execution is model-allowed and realizes the final
        // condition.
        EXPECT_TRUE(M->check(Exe).Allowed) << Entry.Test.Name << " @ " << Name;
        EXPECT_TRUE(Out.satisfies(Entry.Test.Final))
            << Entry.Test.Name << " @ " << Name;
        break;
      }
      case obs::WitnessKind::AxiomCycle: {
        EXPECT_EQ(W->Verdict, "Forbid");
        Execution Exe;
        Outcome Out;
        ASSERT_TRUE(reconstructExecution(*Compiled, *W, Exe, Out))
            << Entry.Test.Name << " @ " << Name
            << ": kill witness does not match any consistent candidate";
        Exe.enableDerivedCache();
        // The shown execution satisfies the final condition and the
        // named axiom is genuinely its first failing one.
        EXPECT_TRUE(Out.satisfies(Entry.Test.Final))
            << Entry.Test.Name << " @ " << Name;
        const Verdict V = M->check(Exe);
        ASSERT_FALSE(V.Allowed) << Entry.Test.Name << " @ " << Name;
        ASSERT_FALSE(V.Violated.empty());
        EXPECT_EQ(axiomName(V.Violated.front()), W->Axiom)
            << Entry.Test.Name << " @ " << Name;
        // The cycle is closed, every edge holds under its own label, and
        // the whole walk stays inside the axiom's relation.
        expectClosedWalk(*W);
        for (const LabeledEdge &E : W->Cycle)
          EXPECT_TRUE(labelHolds(E.Label, E.From, E.To, Exe, *M))
              << Entry.Test.Name << " @ " << Name << ": edge " << E.From
              << " -" << E.Label << "-> " << E.To << " not in its relation";
        expectCycleInAxiomRelation(*W, Exe, *M);
        break;
      }
      case obs::WitnessKind::UnreachableOutcome: {
        EXPECT_EQ(W->Verdict, "Forbid");
        EXPECT_TRUE(W->Cycle.empty());
        // Genuinely unreachable: no consistent outcome satisfies the
        // final condition, under any model.
        for (size_t I = 0; I < Result.ConsistentOutcomes.size(); ++I)
          EXPECT_FALSE(outcomeFromKey(Result.ConsistentOutcomes.key(I))
                           ->satisfies(Entry.Test.Final))
              << Entry.Test.Name << ": outcome "
              << Result.ConsistentOutcomes.key(I)
              << " satisfies the condition, unreachable witness is wrong";
        break;
      }
      case obs::WitnessKind::PruneCut:
        FAIL() << "prune-cut witness escaped the model map";
      }
    }
  }
}

// The per-model results must agree with a plain witness-off sweep —
// capture must not change what the judge says.
TEST(Witness, CaptureDoesNotChangeVerdicts) {
  SimulateOptions On, Off;
  On.Witness = true;
  size_t Taken = 0;
  for (const CatalogEntry &Entry : figureCatalog()) {
    if (Taken++ >= 8)
      break;
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(Compiled) << Entry.Test.Name;
    MultiSimulationResult A = simulateAll(*Compiled, allModels(), On);
    MultiSimulationResult B = simulateAll(*Compiled, allModels(), Off);
    ASSERT_EQ(A.PerModel.size(), B.PerModel.size());
    EXPECT_EQ(A.CandidatesTotal, B.CandidatesTotal);
    EXPECT_EQ(A.CandidatesConsistent, B.CandidatesConsistent);
    for (size_t I = 0; I < A.PerModel.size(); ++I) {
      EXPECT_EQ(A.PerModel[I].ConditionReachable,
                B.PerModel[I].ConditionReachable)
          << Entry.Test.Name << " @ " << A.PerModel[I].ModelName;
      EXPECT_EQ(A.PerModel[I].CandidatesAllowed,
                B.PerModel[I].CandidatesAllowed)
          << Entry.Test.Name << " @ " << A.PerModel[I].ModelName;
      std::vector<std::string> KeysA, KeysB;
      for (uint32_t Idx : A.PerModel[I].AllowedOutcomes)
        KeysA.emplace_back(A.ConsistentOutcomes.key(Idx));
      for (uint32_t Idx : B.PerModel[I].AllowedOutcomes)
        KeysB.emplace_back(B.ConsistentOutcomes.key(Idx));
      EXPECT_EQ(KeysA, KeysB)
          << Entry.Test.Name << " @ " << A.PerModel[I].ModelName;
    }
    EXPECT_TRUE(B.Witnesses.empty()) << Entry.Test.Name;
  }
}

//===----------------------------------------------------------------------===//
// JSON round-trip (cats-witness/1)
//===----------------------------------------------------------------------===//

TEST(Witness, JsonRoundTrip) {
  const std::vector<obs::Witness> All = sampleWitnesses();
  ASSERT_FALSE(All.empty());
  for (const obs::Witness &W : All) {
    auto Back = obs::witnessFromJson(obs::witnessToJson(W));
    ASSERT_TRUE(Back) << W.Test << " @ " << W.Model << ": " << Back.message();
    EXPECT_EQ(Back->Test, W.Test);
    EXPECT_EQ(Back->Model, W.Model);
    EXPECT_EQ(Back->Verdict, W.Verdict);
    EXPECT_EQ(Back->Kind, W.Kind);
    EXPECT_EQ(Back->Axiom, W.Axiom);
    EXPECT_EQ(Back->Outcome, W.Outcome);
    ASSERT_EQ(Back->Events.size(), W.Events.size());
    for (size_t I = 0; I < W.Events.size(); ++I) {
      EXPECT_EQ(Back->Events[I].Id, W.Events[I].Id);
      EXPECT_EQ(Back->Events[I].Thread, W.Events[I].Thread);
      EXPECT_EQ(Back->Events[I].Desc, W.Events[I].Desc);
      EXPECT_EQ(Back->Events[I].Init, W.Events[I].Init);
    }
    EXPECT_EQ(Back->Edges, W.Edges);
    EXPECT_EQ(Back->Cycle, W.Cycle);
    // Serializing the round-tripped witness reproduces the document.
    EXPECT_EQ(obs::witnessToJson(*Back).dump(), obs::witnessToJson(W).dump());
  }

  // Section round-trip, schema tag included.
  JsonValue Section = obs::witnessSectionToJson(All);
  const JsonValue *Schema = Section.get("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->asString(), obs::WitnessSchema);
  auto BackAll = obs::witnessSectionFromJson(Section);
  ASSERT_TRUE(BackAll) << BackAll.message();
  ASSERT_EQ(BackAll->size(), All.size());
  for (size_t I = 0; I < All.size(); ++I)
    EXPECT_EQ(obs::witnessToJson((*BackAll)[I]).dump(),
              obs::witnessToJson(All[I]).dump());

  // A wrong schema tag is rejected.
  JsonValue Bad = obs::witnessSectionToJson(All);
  Bad.set("schema", "cats-witness/999");
  EXPECT_FALSE(obs::witnessSectionFromJson(Bad));
}

//===----------------------------------------------------------------------===//
// DOT structural validity
//===----------------------------------------------------------------------===//

// Balanced braces, and every edge endpoint is a declared node.
TEST(Witness, DotStructurallyValid) {
  const std::vector<obs::Witness> All = sampleWitnesses();
  ASSERT_FALSE(All.empty());
  const std::regex NodeDecl(R"re(\be(\d+)\s*\[label=)re");
  const std::regex EdgeDecl(R"re(\be(\d+)\s*->\s*e(\d+)\b)re");
  for (const obs::Witness &W : All) {
    const std::string Dot = obs::witnessToDot(W);
    SCOPED_TRACE(W.Test + " @ " + W.Model);
    ASSERT_EQ(Dot.rfind("digraph", 0), 0u);

    long Depth = 0;
    for (char C : Dot) {
      if (C == '{')
        ++Depth;
      else if (C == '}') {
        --Depth;
        EXPECT_GE(Depth, 0);
      }
    }
    EXPECT_EQ(Depth, 0) << "unbalanced braces";

    std::set<std::string> Declared;
    for (std::sregex_iterator It(Dot.begin(), Dot.end(), NodeDecl), End;
         It != End; ++It)
      Declared.insert((*It)[1].str());
    size_t EdgeCount = 0;
    for (std::sregex_iterator It(Dot.begin(), Dot.end(), EdgeDecl), End;
         It != End; ++It) {
      ++EdgeCount;
      EXPECT_TRUE(Declared.count((*It)[1].str()))
          << "edge tail e" << (*It)[1].str() << " undeclared";
      EXPECT_TRUE(Declared.count((*It)[2].str()))
          << "edge head e" << (*It)[2].str() << " undeclared";
    }
    // Every witness with events draws them; ones with edges draw edges.
    EXPECT_EQ(Declared.size(), W.Events.size());
    if (!W.Edges.empty() || !W.Cycle.empty()) {
      EXPECT_GT(EdgeCount, 0u);
    }
    // The file stem is filesystem-safe.
    const std::string Stem = obs::witnessFileStem(W);
    EXPECT_FALSE(Stem.empty());
    EXPECT_EQ(Stem.find('/'), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Report byte-identity when capture is off
//===----------------------------------------------------------------------===//

TEST(Witness, ReportByteIdenticalWhenOff) {
  std::vector<LitmusTest> Tests;
  for (const CatalogEntry &Entry : figureCatalog()) {
    if (Tests.size() >= 6)
      break;
    Tests.push_back(Entry.Test);
  }
  const std::vector<SweepJob> Jobs = makeJobs(Tests, allModels());

  SweepOptions Off;
  Off.Jobs = 1;
  SweepOptions On = Off;
  On.Witness = true;

  const JsonValue JOff1 =
      zeroWallTimes(sweepReportToJson(SweepEngine(Off).run(Jobs)));
  const JsonValue JOff2 =
      zeroWallTimes(sweepReportToJson(SweepEngine(Off).run(Jobs)));
  // Deterministic, and no witness member at all when capture is off.
  EXPECT_EQ(JOff1.dump(), JOff2.dump());
  EXPECT_EQ(JOff1.get("witness"), nullptr);
  EXPECT_EQ(JOff1.dump().find("cats-witness"), std::string::npos);

  const JsonValue JOn =
      zeroWallTimes(sweepReportToJson(SweepEngine(On).run(Jobs)));
  const JsonValue *Section = JOn.get("witness");
  ASSERT_NE(Section, nullptr);
  const JsonValue *Schema = Section->get("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->asString(), obs::WitnessSchema);

  // The witness section is purely additive: dropping it recovers the
  // witness-off report byte for byte.
  JsonValue Stripped = JsonValue::object();
  for (const auto &[Key, Value] : JOn.members())
    if (Key != "witness")
      Stripped.set(Key, Value);
  EXPECT_EQ(Stripped.dump(), JOff1.dump());
}

//===----------------------------------------------------------------------===//
// Byte identity with a committed rendering
//===----------------------------------------------------------------------===//

namespace {

/// The cats-witness/1 document cats_explain --json writes for the
/// catalogue tests matching \p Filter under \p ModelNames.
std::string explainDocument(const std::string &Filter,
                            const std::vector<std::string> &ModelNames,
                            JudgeBackend Backend) {
  std::vector<const Model *> Models;
  for (const std::string &Name : ModelNames)
    Models.push_back(modelByName(Name));
  SimulateOptions Opts;
  Opts.Backend = Backend;
  Opts.Witness = true;
  const std::regex Re(Filter);
  std::vector<obs::Witness> All;
  for (const CatalogEntry &Entry : figureCatalog()) {
    if (!std::regex_search(Entry.Test.Name, Re))
      continue;
    auto Compiled = CompiledTest::compile(Entry.Test);
    EXPECT_TRUE(Compiled) << Entry.Test.Name;
    if (!Compiled)
      continue;
    for (obs::Witness &W : simulateAll(*Compiled, Models, Opts).Witnesses)
      All.push_back(std::move(W));
  }
  return obs::witnessSectionToJson(All).dump() + "\n";
}

} // namespace

// tests/fixtures/witness-catalogue-slice.json is the section
//   cats_explain --catalogue --models SC,TSO,Power,ARM --json FILE
//     --test '^(mp|sb|iriw|coWR|mp\+lwsync\+addr-po-detour)$'
// wrote when witnesses were captured inside the judging pass; never
// regenerate it from the current build. It holds every kind the catalogue
// yields: allowed-execution, axiom-cycle and prune-cut. The pruned backend
// must render it byte for byte, and the naive backend, which records no
// prune cut, all but the prune cuts.
TEST(Witness, SectionMatchesTheCommittedFixture) {
  std::ifstream In(std::string(CATS_FIXTURE_DIR) +
                       "/witness-catalogue-slice.json",
                   std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  const std::string Fixture = Buf.str();
  ASSERT_FALSE(Fixture.empty());

  const std::string Filter =
      "^(mp|sb|iriw|coWR|mp\\+lwsync\\+addr-po-detour)$";
  const std::vector<std::string> Models = {"SC", "TSO", "Power", "ARM"};
  EXPECT_EQ(explainDocument(Filter, Models, JudgeBackend::Pruned), Fixture);

  auto Parsed = JsonValue::parse(Fixture);
  ASSERT_TRUE(Parsed) << Parsed.message();
  auto Pinned = obs::witnessSectionFromJson(*Parsed);
  ASSERT_TRUE(Pinned) << Pinned.message();
  std::vector<obs::Witness> NoCuts;
  std::set<obs::WitnessKind> Kinds;
  for (const obs::Witness &W : *Pinned) {
    Kinds.insert(W.Kind);
    if (W.Kind != obs::WitnessKind::PruneCut)
      NoCuts.push_back(W);
  }
  EXPECT_EQ(Kinds.size(), 3u);
  EXPECT_LT(NoCuts.size(), Pinned->size());
  EXPECT_EQ(explainDocument(Filter, Models, JudgeBackend::Naive),
            obs::witnessSectionToJson(NoCuts).dump() + "\n");
}
