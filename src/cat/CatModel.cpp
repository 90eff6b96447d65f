//===- CatModel.cpp - Evaluating cat models over executions ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "cat/CatModel.h"

#include "cat/CatParser.h"
#include "support/StringUtils.h"

#include <map>

using namespace cats;
using namespace cats::cat;

namespace {

/// Evaluation environment: builtins computed lazily from the execution,
/// user definitions added as statements execute.
class Env {
public:
  explicit Env(const Execution &Exe) : Exe(Exe) {}

  /// Looks up \p Name; returns nullptr when unknown.
  const Relation *lookup(const std::string &Name) {
    auto It = Values.find(Name);
    if (It != Values.end())
      return &It->second;
    if (computeBuiltin(Name)) {
      return &Values.find(Name)->second;
    }
    return nullptr;
  }

  void define(const std::string &Name, Relation R) {
    Values[Name] = std::move(R);
  }

  const Execution &execution() const { return Exe; }

  /// Endpoint set by direction letter.
  EventSet dirSet(char Dir) const {
    switch (Dir) {
    case 'R':
      return Exe.reads();
    case 'W':
      return Exe.writes();
    default:
      return EventSet::all(Exe.numEvents());
    }
  }

private:
  bool computeBuiltin(const std::string &Name) {
    unsigned N = Exe.numEvents();
    Relation R(N);
    if (Name == "po")
      R = Exe.Po;
    else if (Name == "po-loc")
      R = Exe.poLoc();
    else if (Name == "rf")
      R = Exe.Rf;
    else if (Name == "rfe")
      R = Exe.rfe();
    else if (Name == "rfi")
      R = Exe.rfi();
    else if (Name == "co")
      R = Exe.Co;
    else if (Name == "coe")
      R = Exe.coe();
    else if (Name == "coi")
      R = Exe.coi();
    else if (Name == "fr")
      R = Exe.fr();
    else if (Name == "fre")
      R = Exe.fre();
    else if (Name == "fri")
      R = Exe.fri();
    else if (Name == "com")
      R = Exe.com();
    else if (Name == "addr")
      R = Exe.Addr;
    else if (Name == "data")
      R = Exe.Data;
    else if (Name == "ctrl")
      R = Exe.Ctrl;
    else if (Name == "ctrlisync" || Name == "ctrlisb")
      R = Exe.CtrlCfence;
    else if (Name == "id")
      R = Relation::identity(N);
    else if (Name == fence::Sync || Name == fence::LwSync ||
             Name == fence::Eieio || Name == fence::Dmb ||
             Name == fence::Dsb || Name == fence::DmbSt ||
             Name == fence::DsbSt || Name == fence::MFence)
      R = Exe.fenceRelation(Name);
    else
      return false;
    Values.emplace(Name, std::move(R));
    return true;
  }

  const Execution &Exe;
  std::map<std::string, Relation> Values;
};

/// Evaluates \p E in \p Env; unknown names evaluate to the empty relation
/// only inside fixpoint groups (handled by pre-defining them); otherwise
/// they are a hard error surfaced at validation time.
Relation evalExpr(const Expr &E, Env &Environment) {
  unsigned N = Environment.execution().numEvents();
  switch (E.Kind) {
  case ExprKind::Name: {
    const Relation *R = Environment.lookup(E.Ident);
    assert(R && "unresolved name should have been caught in validation");
    return *R;
  }
  case ExprKind::Empty:
    return Relation(N);
  case ExprKind::Union:
    return evalExpr(*E.Lhs, Environment) | evalExpr(*E.Rhs, Environment);
  case ExprKind::Inter:
    return evalExpr(*E.Lhs, Environment) & evalExpr(*E.Rhs, Environment);
  case ExprKind::Diff:
    return evalExpr(*E.Lhs, Environment) - evalExpr(*E.Rhs, Environment);
  case ExprKind::Seq:
    return evalExpr(*E.Lhs, Environment)
        .compose(evalExpr(*E.Rhs, Environment));
  case ExprKind::Plus:
    return evalExpr(*E.Lhs, Environment).transitiveClosure();
  case ExprKind::Star:
    return evalExpr(*E.Lhs, Environment).reflexiveTransitiveClosure();
  case ExprKind::Inverse:
    return evalExpr(*E.Lhs, Environment).inverse();
  case ExprKind::DirFilter: {
    Relation Inner = evalExpr(*E.Lhs, Environment);
    assert(E.Ident.size() == 2 && "direction filter arity");
    return Inner.restrict(Environment.dirSet(E.Ident[0]),
                          Environment.dirSet(E.Ident[1]));
  }
  }
  return Relation(N);
}

/// Collects free names of an expression.
void freeNames(const Expr &E, std::vector<std::string> &Out) {
  if (E.Kind == ExprKind::Name)
    Out.push_back(E.Ident);
  if (E.Lhs)
    freeNames(*E.Lhs, Out);
  if (E.Rhs)
    freeNames(*E.Rhs, Out);
}

/// Static validation: every name used must be a builtin, a previous
/// definition, or a member of the same let-rec group.
Status validate(const CatFile &File) {
  // The builtin vocabulary; must match Env::computeBuiltin.
  std::vector<std::string> Known = {
      "po",   "po-loc", "rf",        "rfe",     "rfi",   "co",
      "coe",  "coi",    "fr",        "fre",     "fri",   "com",
      "addr", "data",   "ctrl",      "ctrlisync", "ctrlisb", "id",
      fence::Sync,  fence::LwSync, fence::Eieio, fence::Dmb,
      fence::Dsb,   fence::DmbSt,  fence::DsbSt, fence::MFence};
  auto IsKnown = [&Known](const std::string &Name) {
    for (const std::string &K : Known)
      if (K == Name)
        return true;
    return false;
  };
  for (const Stmt &S : File.Statements) {
    std::vector<std::string> GroupNames;
    if (S.Kind == StmtKind::LetRec)
      for (const Binding &B : S.Bindings)
        GroupNames.push_back(B.Name);
    auto CheckExpr = [&](const Expr &E) -> Status {
      std::vector<std::string> Names;
      freeNames(E, Names);
      for (const std::string &Name : Names) {
        bool InGroup = false;
        for (const std::string &G : GroupNames)
          if (G == Name)
            InGroup = true;
        if (!InGroup && !IsKnown(Name))
          return Status::error(strFormat(
              "cat model %s: unknown relation '%s' at line %u",
              File.Name.c_str(), Name.c_str(), E.Line));
      }
      return Status::success();
    };
    for (const Binding &B : S.Bindings) {
      if (Status St = CheckExpr(*B.Body); St.failed())
        return St;
    }
    if (S.Check)
      if (Status St = CheckExpr(*S.Check); St.failed())
        return St;
    for (const Binding &B : S.Bindings)
      Known.push_back(B.Name);
  }
  return Status::success();
}

} // namespace

Expected<CatModel> CatModel::fromSource(const std::string &Source,
                                        const std::string &Name) {
  auto File = parseCat(Source, Name);
  if (!File)
    return Expected<CatModel>::error(File.message());
  Status St = validate(*File);
  if (St.failed())
    return Expected<CatModel>::error(St.message());
  return CatModel(File.take());
}

Expected<CatModel> CatModel::fromFile(const std::string &Path) {
  std::string Text;
  if (!readWholeFile(Path, Text))
    return Expected<CatModel>::error("cannot open cat file " + Path);
  // Derive a display name from the file stem.
  std::string Name = Path;
  size_t Slash = Name.find_last_of('/');
  if (Slash != std::string::npos)
    Name = Name.substr(Slash + 1);
  if (endsWith(Name, ".cat"))
    Name = Name.substr(0, Name.size() - 4);
  return fromSource(Text, Name);
}

Expected<CatModel> CatModel::builtin(const std::string &Stem) {
  return fromFile(std::string(CATS_MODELS_DIR) + "/" + Stem + ".cat");
}

std::vector<CheckResult> CatModel::check(const Execution &Exe) const {
  std::vector<CheckResult> Results;
  Env Environment(Exe);
  for (const Stmt &S : File.Statements) {
    switch (S.Kind) {
    case StmtKind::Let:
      for (const Binding &B : S.Bindings)
        Environment.define(B.Name, evalExpr(*B.Body, Environment));
      break;
    case StmtKind::LetRec: {
      // Least fixpoint: start the whole group at empty and iterate.
      unsigned N = Exe.numEvents();
      for (const Binding &B : S.Bindings)
        Environment.define(B.Name, Relation(N));
      bool Changed = true;
      while (Changed) {
        Changed = false;
        for (const Binding &B : S.Bindings) {
          Relation NewValue = evalExpr(*B.Body, Environment);
          const Relation *Old = Environment.lookup(B.Name);
          if (*Old != NewValue) {
            Environment.define(B.Name, std::move(NewValue));
            Changed = true;
          }
        }
      }
      break;
    }
    case StmtKind::Acyclic:
    case StmtKind::Irreflexive:
    case StmtKind::Empty: {
      Relation R = evalExpr(*S.Check, Environment);
      CheckResult Result;
      Result.Name =
          S.CheckName.empty() ? S.Check->toString() : S.CheckName;
      if (S.Kind == StmtKind::Acyclic)
        Result.Holds = R.isAcyclic();
      else if (S.Kind == StmtKind::Irreflexive)
        Result.Holds = R.isIrreflexive();
      else
        Result.Holds = R.empty();
      Results.push_back(std::move(Result));
      break;
    }
    }
  }
  return Results;
}

bool CatModel::allows(const Execution &Exe) const {
  for (const CheckResult &Result : check(Exe))
    if (!Result.Holds)
      return false;
  return true;
}

Expected<Relation> CatModel::evaluate(const std::string &RelName,
                                      const Execution &Exe) const {
  Env Environment(Exe);
  for (const Stmt &S : File.Statements) {
    if (S.Kind == StmtKind::Let) {
      for (const Binding &B : S.Bindings)
        Environment.define(B.Name, evalExpr(*B.Body, Environment));
    } else if (S.Kind == StmtKind::LetRec) {
      unsigned N = Exe.numEvents();
      for (const Binding &B : S.Bindings)
        Environment.define(B.Name, Relation(N));
      bool Changed = true;
      while (Changed) {
        Changed = false;
        for (const Binding &B : S.Bindings) {
          Relation NewValue = evalExpr(*B.Body, Environment);
          if (*Environment.lookup(B.Name) != NewValue) {
            Environment.define(B.Name, std::move(NewValue));
            Changed = true;
          }
        }
      }
    }
  }
  const Relation *R = Environment.lookup(RelName);
  if (!R)
    return Expected<Relation>::error("unknown relation " + RelName);
  return *R;
}
