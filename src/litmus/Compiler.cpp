//===- Compiler.cpp - Litmus tests -> execution skeletons -----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "litmus/Compiler.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace cats;

Expected<CompiledTest> CompiledTest::compile(const LitmusTest &Test) {
  std::string Problem = Test.validate();
  if (!Problem.empty())
    return Expected<CompiledTest>::error("invalid litmus test " + Test.Name +
                                         ": " + Problem);
  CompiledTest Out;
  Out.Source = Test;
  Out.buildEvents();
  Out.buildDependencies();
  Out.buildFences();
  Out.buildDataFlow();
  return Out;
}

void CompiledTest::buildEvents() {
  // Initial writes first, one per location, with the initial value.
  for (const std::string &LocName : Source.locations()) {
    Location Loc = Skeleton.internLocation(LocName);
    Value Init = 0;
    auto It = Source.Init.find(LocName);
    if (It != Source.Init.end())
      Init = It->second;
    Skeleton.addEvent({.Thread = InitThread,
                       .Kind = EventKind::Write,
                       .Loc = Loc,
                       .Val = Init,
                       .IsInit = true});
  }

  // Then each thread's memory events, in program order.
  EventForInstr.assign(Source.numThreads(), {});
  for (ThreadId T = 0; T < static_cast<ThreadId>(Source.numThreads()); ++T) {
    const ThreadCode &Code = Source.Threads[T];
    EventForInstr[T].assign(Code.size(), -1);
    for (size_t I = 0; I < Code.size(); ++I) {
      const Instruction &Instr = Code[I];
      if (Instr.Op == Opcode::Load) {
        Location Loc = Skeleton.internLocation(Instr.Loc);
        EventId Id = Skeleton.addEvent({.Thread = T,
                                        .InstrIndex = static_cast<int>(I),
                                        .Kind = EventKind::Read,
                                        .Loc = Loc});
        EventForInstr[T][I] = static_cast<int>(Id);
      } else if (Instr.Op == Opcode::Store) {
        Location Loc = Skeleton.internLocation(Instr.Loc);
        Value StaticVal = Instr.Src1.isImm() ? Instr.Src1.asImm() : 0;
        EventId Id = Skeleton.addEvent({.Thread = T,
                                        .InstrIndex = static_cast<int>(I),
                                        .Kind = EventKind::Write,
                                        .Loc = Loc,
                                        .Val = StaticVal});
        EventForInstr[T][I] = static_cast<int>(Id);
      }
    }
  }

  Skeleton.finalizeStructure(Source.numThreads());

  // Canonical read order and their rf candidates.
  for (const Event &E : Skeleton.events()) {
    if (!E.isRead())
      continue;
    ReadEvents.push_back(E.Id);
    CandidateWritesPerRead.push_back(Skeleton.writesTo(E.Loc));
  }
}

void CompiledTest::buildDependencies() {
  // Register-taint rendering of Fig. 22. For each thread we walk the code
  // once, tracking for every register the set of po-previous memory reads
  // whose value flows into it through registers and ALU operations
  // (dd-reg = (rf-reg | iico)+, cut at memory accesses). Loads reset their
  // destination's taint to themselves; ALU ops union their sources' taints,
  // so xor r,r keeps false dependencies alive exactly as the architectures
  // specify.
  unsigned N = Skeleton.numEvents();
  for (ThreadId T = 0; T < static_cast<ThreadId>(Source.numThreads()); ++T) {
    const ThreadCode &Code = Source.Threads[T];
    std::map<Register, std::set<EventId>> Taint;
    // Branches seen so far: position and the reads tainting the condition.
    struct BranchInfo {
      size_t Pos;
      std::set<EventId> Sources;
    };
    std::vector<BranchInfo> Branches;
    // Control-fence (isync/isb) positions seen so far.
    std::vector<size_t> CFences;

    auto TaintOf = [&](Register R) -> std::set<EventId> {
      auto It = Taint.find(R);
      return It == Taint.end() ? std::set<EventId>{} : It->second;
    };

    for (size_t I = 0; I < Code.size(); ++I) {
      const Instruction &Instr = Code[I];
      int MemEvent = EventForInstr[T][I];

      // ctrl: any memory access po-after a branch whose condition is
      // tainted by a read (Fig. 22: (dd-reg & RB); po).
      if (MemEvent >= 0) {
        for (const BranchInfo &B : Branches)
          for (EventId Src : B.Sources)
            Skeleton.Ctrl.set(Src, static_cast<EventId>(MemEvent));
        // ctrl+cfence: ... with a control fence between branch and access.
        for (const BranchInfo &B : Branches)
          for (size_t F : CFences)
            if (F > B.Pos)
              for (EventId Src : B.Sources)
                Skeleton.CtrlCfence.set(Src,
                                        static_cast<EventId>(MemEvent));
      }

      switch (Instr.Op) {
      case Opcode::Load: {
        EventId Read = static_cast<EventId>(MemEvent);
        if (Instr.AddrDep >= 0)
          for (EventId Src : TaintOf(Instr.AddrDep))
            Skeleton.Addr.set(Src, Read);
        // The loaded register depends on this read only; dd-reg does not
        // pass through memory.
        Taint[Instr.Dst] = {Read};
        break;
      }
      case Opcode::Store: {
        EventId Write = static_cast<EventId>(MemEvent);
        if (Instr.AddrDep >= 0)
          for (EventId Src : TaintOf(Instr.AddrDep))
            Skeleton.Addr.set(Src, Write);
        if (Instr.Src1.isReg())
          for (EventId Src : TaintOf(Instr.Src1.asReg()))
            Skeleton.Data.set(Src, Write);
        break;
      }
      case Opcode::Move:
        Taint[Instr.Dst] =
            Instr.Src1.isReg() ? TaintOf(Instr.Src1.asReg())
                               : std::set<EventId>{};
        break;
      case Opcode::Xor:
      case Opcode::Add: {
        std::set<EventId> Union = TaintOf(Instr.Src1.asReg());
        auto Other = TaintOf(Instr.Src2.asReg());
        Union.insert(Other.begin(), Other.end());
        Taint[Instr.Dst] = std::move(Union);
        break;
      }
      case Opcode::CmpBranch:
        Branches.push_back({I, TaintOf(Instr.Src1.asReg())});
        break;
      case Opcode::Fence:
        if (Instr.isControlFence())
          CFences.push_back(I);
        break;
      }
    }
  }
  (void)N;
}

void CompiledTest::buildFences() {
  // For each fence instruction, relate every memory event po-before it to
  // every memory event po-after it (footnote 2: the relation records the
  // fence's position; whether it orders the pair is the model's business).
  for (ThreadId T = 0; T < static_cast<ThreadId>(Source.numThreads()); ++T) {
    const ThreadCode &Code = Source.Threads[T];
    for (size_t F = 0; F < Code.size(); ++F) {
      if (Code[F].Op != Opcode::Fence || Code[F].isControlFence())
        continue;
      const std::string &Name = Code[F].FenceName;
      auto [It, _] = Skeleton.Fences.try_emplace(Name,
                                                 Relation(
                                                     Skeleton.numEvents()));
      Relation &R = It->second;
      for (size_t I = 0; I < F; ++I) {
        if (EventForInstr[T][I] < 0)
          continue;
        for (size_t J = F + 1; J < Code.size(); ++J) {
          if (EventForInstr[T][J] < 0)
            continue;
          R.set(static_cast<EventId>(EventForInstr[T][I]),
                static_cast<EventId>(EventForInstr[T][J]));
        }
      }
    }
  }
  // ARM's .st fences are the corresponding full fence restricted to
  // write-write pairs (Sec. 4.7); we keep them as separate relations and
  // let the model apply the WW restriction.
}

std::vector<Relation> CompiledTest::allCoherenceOrders() const {
  // Per location: permutations of the program writes, the initial write
  // co-first. The cross product over locations yields all co candidates.
  std::vector<std::vector<std::vector<EventId>>> PerLocation;
  for (Location Loc = 0;
       Loc < static_cast<Location>(Skeleton.LocationNames.size()); ++Loc) {
    std::vector<EventId> Writes = Skeleton.writesTo(Loc);
    // Split off the initial write (present by construction).
    std::vector<EventId> Program;
    EventId Init = Writes.front();
    for (EventId W : Writes)
      if (!Skeleton.event(W).IsInit)
        Program.push_back(W);
      else
        Init = W;
    std::sort(Program.begin(), Program.end());
    std::vector<std::vector<EventId>> Orders;
    do {
      std::vector<EventId> Order;
      Order.push_back(Init);
      Order.insert(Order.end(), Program.begin(), Program.end());
      Orders.push_back(Order);
    } while (std::next_permutation(Program.begin(), Program.end()));
    PerLocation.push_back(std::move(Orders));
  }

  std::vector<Relation> Out;
  std::vector<size_t> Pick(PerLocation.size(), 0);
  while (true) {
    Relation Co(Skeleton.numEvents());
    for (size_t Loc = 0; Loc < PerLocation.size(); ++Loc) {
      const auto &Order = PerLocation[Loc][Pick[Loc]];
      for (size_t I = 0; I < Order.size(); ++I)
        for (size_t J = I + 1; J < Order.size(); ++J)
          Co.set(Order[I], Order[J]);
    }
    Out.push_back(std::move(Co));
    // Odometer step.
    size_t Loc = 0;
    for (; Loc < PerLocation.size(); ++Loc) {
      if (++Pick[Loc] < PerLocation[Loc].size())
        break;
      Pick[Loc] = 0;
    }
    if (Loc == PerLocation.size())
      break;
  }
  return Out;
}

unsigned long long CompiledTest::candidateCount() const {
  unsigned long long Count = 1;
  for (const auto &Writes : CandidateWritesPerRead)
    Count *= Writes.size();
  for (Location Loc = 0;
       Loc < static_cast<Location>(Skeleton.LocationNames.size()); ++Loc) {
    unsigned Program = 0;
    for (EventId W : Skeleton.writesTo(Loc))
      if (!Skeleton.event(W).IsInit)
        ++Program;
    unsigned long long Fact = 1;
    for (unsigned I = 2; I <= Program; ++I)
      Fact *= I;
    Count *= Fact;
  }
  return Count;
}

void CompiledTest::buildDataFlow() {
  const unsigned Threads = Source.numThreads();
  size_t Instrs = 0;
  for (const ThreadCode &Code : Source.Threads)
    Instrs += Code.size();
  Slots.reserve(Instrs);
  Flow.reserve(Instrs);
  SlotBegin.reserve(Threads + 1);
  FlowBegin.reserve(Threads + 1);
  SlotBegin.push_back(0);
  FlowBegin.push_back(0);
  // Loads appear in reads() order: thread-major, then program order.
  unsigned NextRead = 0;
  for (ThreadId T = 0; T < static_cast<ThreadId>(Threads); ++T) {
    const ThreadCode &Code = Source.Threads[T];
    // Slots: the thread's written registers, ascending.
    const auto First = Slots.end() - Slots.begin();
    for (const Instruction &Instr : Code)
      if (Instr.Op == Opcode::Load || Instr.Op == Opcode::Move ||
          Instr.Op == Opcode::Xor || Instr.Op == Opcode::Add)
        Slots.push_back({T, Instr.Dst});
    auto ByReg = [](const RegisterSlot &A, const RegisterSlot &B) {
      return A.Reg < B.Reg;
    };
    auto SameReg = [](const RegisterSlot &A, const RegisterSlot &B) {
      return A.Reg == B.Reg;
    };
    std::sort(Slots.begin() + First, Slots.end(), ByReg);
    Slots.erase(std::unique(Slots.begin() + First, Slots.end(), SameReg),
                Slots.end());
    SlotBegin.push_back(static_cast<unsigned>(Slots.size()));

    auto Resolve = [&](const Operand &O, int &Slot, Value &Imm) {
      if (O.isImm())
        Imm = O.asImm();
      else if (O.isReg())
        Slot = registerSlot(T, O.asReg());
    };
    for (size_t I = 0; I < Code.size(); ++I) {
      const Instruction &Instr = Code[I];
      if (Instr.Op == Opcode::CmpBranch || Instr.Op == Opcode::Fence)
        continue;
      FlowOp Op;
      Op.Op = Instr.Op;
      if (EventForInstr[T][I] >= 0)
        Op.Event = static_cast<EventId>(EventForInstr[T][I]);
      if (Instr.Op == Opcode::Load) {
        assert(ReadEvents[NextRead] == Op.Event && "reads out of order");
        Op.ReadIdx = NextRead++;
      }
      if (Instr.Op != Opcode::Store)
        Op.Dst = registerSlot(T, Instr.Dst);
      Resolve(Instr.Src1, Op.Src1, Op.Imm1);
      Resolve(Instr.Src2, Op.Src2, Op.Imm2);
      Flow.push_back(Op);
    }
    FlowBegin.push_back(static_cast<unsigned>(Flow.size()));
  }
}

int CompiledTest::registerSlot(ThreadId T, Register R) const {
  auto It = std::lower_bound(
      Slots.begin(), Slots.end(), RegisterSlot{T, R},
      [](const RegisterSlot &A, const RegisterSlot &B) {
        return A.Thread != B.Thread ? A.Thread < B.Thread : A.Reg < B.Reg;
      });
  if (It == Slots.end() || It->Thread != T || It->Reg != R)
    return -1;
  return static_cast<int>(It - Slots.begin());
}

void CompiledTest::concretizeRf(const std::vector<EventId> &WriteForRead,
                                RfConcretization &Out) const {
  assert(WriteForRead.size() == ReadEvents.size() &&
         "rf choice arity mismatch");
  const unsigned N = Skeleton.numEvents();
  Out.EventVals.resize(N);
  for (EventId E = 0; E < N; ++E)
    Out.EventVals[E] = Skeleton.event(E).Val;
  Out.RegVals.assign(Slots.size(), 0);
  Value *Regs = Out.RegVals.data();
  Value *Vals = Out.EventVals.data();
  auto OperandVal = [Regs](int Slot, Value Imm) {
    return Slot >= 0 ? Regs[Slot] : Imm;
  };

  // Value fixpoint: read values come from their rf write; write values are
  // recomputed from the register file. Iterate until stable (or give up:
  // an unstable value cycle, which we report as inconsistent). Only rf is
  // consulted — co never feeds a register value — which is what lets the
  // enumerator hoist this out of the coherence walk.
  bool Changed = true;
  unsigned Rounds = 0;
  while (Changed && Rounds <= N + 2) {
    Changed = false;
    ++Rounds;
    for (size_t T = 0; T + 1 < FlowBegin.size(); ++T) {
      // Every round replays the thread from an all-zero register file.
      std::fill(Regs + SlotBegin[T], Regs + SlotBegin[T + 1], Value{0});
      for (unsigned I = FlowBegin[T]; I < FlowBegin[T + 1]; ++I) {
        const FlowOp &Op = Flow[I];
        switch (Op.Op) {
        case Opcode::Load: {
          const Value V = Vals[WriteForRead[Op.ReadIdx]];
          if (Vals[Op.Event] != V) {
            Vals[Op.Event] = V;
            Changed = true;
          }
          Regs[Op.Dst] = V;
          break;
        }
        case Opcode::Store: {
          const Value V = OperandVal(Op.Src1, Op.Imm1);
          if (Vals[Op.Event] != V) {
            Vals[Op.Event] = V;
            Changed = true;
          }
          break;
        }
        case Opcode::Move:
          Regs[Op.Dst] = OperandVal(Op.Src1, Op.Imm1);
          break;
        case Opcode::Xor:
          Regs[Op.Dst] =
              OperandVal(Op.Src1, Op.Imm1) ^ OperandVal(Op.Src2, Op.Imm2);
          break;
        case Opcode::Add:
          Regs[Op.Dst] =
              OperandVal(Op.Src1, Op.Imm1) + OperandVal(Op.Src2, Op.Imm2);
          break;
        case Opcode::CmpBranch:
        case Opcode::Fence:
          break;
        }
      }
    }
  }
  Out.Consistent = !Changed;
}

Candidate CompiledTest::concretize(const std::vector<EventId> &WriteForRead,
                                   const Relation &Co) const {
  Candidate Out;
  Out.Exe = Skeleton;
  Out.Exe.Co = Co;
  for (size_t I = 0; I < ReadEvents.size(); ++I)
    Out.Exe.Rf.set(WriteForRead[I], ReadEvents[I]);

  RfConcretization Values;
  concretizeRf(WriteForRead, Values);
  for (EventId E = 0; E < Out.Exe.numEvents(); ++E)
    Out.Exe.event(E).Val = Values.EventVals[E];
  Out.Consistent = Values.Consistent;

  // Outcome: final registers plus the co-maximal write value per location.
  Out.Out.Regs.resize(Source.numThreads());
  for (size_t S = 0; S < Slots.size(); ++S) {
    auto &File = Out.Out.Regs[Slots[S].Thread];
    File.emplace_hint(File.end(), Slots[S].Reg, Values.RegVals[S]);
  }
  for (Location Loc = 0;
       Loc < static_cast<Location>(Out.Exe.LocationNames.size()); ++Loc) {
    std::vector<EventId> Writes = Out.Exe.writesTo(Loc);
    EventId Last = Writes.front();
    for (EventId W : Writes) {
      bool HasSuccessor = false;
      for (EventId Other : Writes)
        if (Other != W && Out.Exe.Co.test(W, Other))
          HasSuccessor = true;
      if (!HasSuccessor)
        Last = W;
    }
    Out.Out.Memory[Out.Exe.LocationNames[Loc]] = Out.Exe.event(Last).Val;
  }
  // The outcome is final: let set/map operations memoize its key.
  Out.Out.enableKeyCache();
  return Out;
}
