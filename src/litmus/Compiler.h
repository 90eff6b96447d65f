//===- Compiler.h - Litmus tests -> execution skeletons -------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a litmus test into an execution skeleton: the control-flow
/// semantics of Sec. 3. The skeleton holds the memory events, program order,
/// dependency relations (addr/data/ctrl/ctrl+cfence derived per Fig. 22 by a
/// register-taint rendering of dd-reg = (rf-reg | iico)+), and fence
/// relations. Candidate executions (Sec. 3, data-flow semantics) are then
/// obtained by choosing an rf map and a coherence order and concretising the
/// register data-flow.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_LITMUS_COMPILER_H
#define CATS_LITMUS_COMPILER_H

#include "event/Execution.h"
#include "litmus/LitmusTest.h"
#include "support/Error.h"

#include <vector>

namespace cats {

/// One fully concretised candidate execution plus its observable outcome.
struct Candidate {
  Execution Exe;
  Outcome Out;
  /// False when the register data-flow failed to reach a fixpoint under the
  /// chosen rf (an unstable value cycle); such candidates are discarded.
  bool Consistent = true;
};

/// A compiled litmus test. The structural skeleton is shared by all
/// candidates of the test.
class CompiledTest {
public:
  /// Compiles \p Test; fails on validation errors.
  static Expected<CompiledTest> compile(const LitmusTest &Test);

  /// The source test.
  const LitmusTest &test() const { return Source; }

  /// Structural execution: events, po, dependencies and fences filled in;
  /// Rf and Co left empty.
  const Execution &skeleton() const { return Skeleton; }

  /// Program read events in a canonical order (thread-major, then po).
  const std::vector<EventId> &reads() const { return ReadEvents; }

  /// For each entry of reads(): the writes (same location, including the
  /// initial write) that the read may take its value from.
  const std::vector<std::vector<EventId>> &candidateWrites() const {
    return CandidateWritesPerRead;
  }

  /// All coherence orders: per location, every permutation of the program
  /// writes, with the initial write first (the paper's convention). Each
  /// result is a transitively-closed per-location total order.
  std::vector<Relation> allCoherenceOrders() const;

  /// Builds the candidate for rf choice \p WriteForRead (parallel to
  /// reads()) and coherence order \p Co, re-running the register data-flow
  /// to a fixpoint to compute read/write values and the outcome.
  Candidate concretize(const std::vector<EventId> &WriteForRead,
                       const Relation &Co) const;

  /// A register some instruction of its thread writes. Final register
  /// files are dense: one value slot per written register, in (thread,
  /// register) order — the order of the register fields of an outcome
  /// key. A register no instruction writes always reads 0 and has no
  /// slot. Slots are assigned at compile time, so no table is ever indexed
  /// by a register number (those go up to r1000000).
  struct RegisterSlot {
    ThreadId Thread = 0;
    Register Reg = 0;
  };
  const std::vector<RegisterSlot> &registerSlots() const { return Slots; }

  /// The slot of register \p R of thread \p T, or -1 when the thread
  /// never writes it.
  int registerSlot(ThreadId T, Register R) const;

  /// The co-independent part of concretize: the register/value data-flow
  /// fixpoint reads only rf, so event values, final register files and
  /// consistency are shared by every coherence order under one rf choice.
  /// The incremental enumerator runs this once per rf and reuses it across
  /// the whole coherence walk.
  struct RfConcretization {
    /// False when the data-flow failed to reach a fixpoint (unstable
    /// value cycle); such rf choices yield no consistent candidate.
    bool Consistent = true;
    /// Final value per event id; init writes keep their initial value.
    std::vector<Value> EventVals;
    /// Final value per register slot (registerSlots() order).
    std::vector<Value> RegVals;
  };
  /// Fills \p Out, which the caller owns and may reuse across rf choices:
  /// once its vectors have grown, a call allocates nothing.
  void concretizeRf(const std::vector<EventId> &WriteForRead,
                    RfConcretization &Out) const;

  /// Number of candidate executions (product of rf choices times coherence
  /// permutations), before consistency filtering.
  unsigned long long candidateCount() const;

private:
  CompiledTest() = default;

  void buildEvents();
  void buildDependencies();
  void buildFences();
  void buildDataFlow();

  LitmusTest Source;
  Execution Skeleton;
  /// EventForInstr[T][I]: memory event of instruction I of thread T, or -1.
  std::vector<std::vector<int>> EventForInstr;
  std::vector<EventId> ReadEvents;
  std::vector<std::vector<EventId>> CandidateWritesPerRead;

  /// The register data-flow of one value-producing instruction, with its
  /// operands resolved at compile time: a slot index, or -1 for the
  /// immediate beside it (an unwritten register is the immediate 0).
  struct FlowOp {
    Opcode Op = Opcode::Move;
    /// Loads and stores: the memory event.
    EventId Event = 0;
    /// Loads: the read's index into reads().
    unsigned ReadIdx = 0;
    int Dst = -1;
    int Src1 = -1, Src2 = -1;
    Value Imm1 = 0, Imm2 = 0;
  };
  std::vector<RegisterSlot> Slots;
  /// The FlowOps of every thread back to back; thread T owns
  /// [FlowBegin[T], FlowBegin[T + 1]) of Flow and
  /// [SlotBegin[T], SlotBegin[T + 1]) of Slots.
  std::vector<FlowOp> Flow;
  std::vector<unsigned> FlowBegin, SlotBegin;
};

} // namespace cats

#endif // CATS_LITMUS_COMPILER_H
