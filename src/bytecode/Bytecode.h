//===- bytecode/Bytecode.h - Stack bytecode ISA -----------------*- C++-*-===//
///
/// \file
/// The JVM-like stack bytecode executed by the AlgoProf VM. The ISA keeps
/// exactly the event-relevant instruction classes of the paper's
/// instrumentation: GetField/PutField, ALoad/AStore, NewObject, calls,
/// and plain branches from which natural loops are recovered.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_BYTECODE_BYTECODE_H
#define ALGOPROF_BYTECODE_BYTECODE_H

#include <cstdint>
#include <string>

namespace algoprof {
namespace bc {

/// Bytecode operation codes.
enum class Opcode : uint8_t {
  Nop,

  // Constants and locals.
  IConst,    ///< push Imm
  NullConst, ///< push null reference
  Load,      ///< push locals[A]
  Store,     ///< locals[A] = pop
  Dup,       ///< duplicate top of stack
  Pop,       ///< discard top of stack

  // Integer arithmetic (booleans are 0/1 ints). Add/Sub/Mul/Neg wrap
  // around on overflow (Java two's-complement semantics).
  Add,
  Sub,
  Mul,
  Div, ///< traps on division by zero; INT64_MIN / -1 == INT64_MIN
  Rem, ///< traps on division by zero; INT64_MIN % -1 == 0
  Neg,
  Not, ///< logical not on a 0/1 int

  // Comparisons; push 0/1.
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  CmpEq,
  CmpNe,
  RefEq,
  RefNe,

  // Control flow; A is the target pc.
  Goto,
  IfTrue,  ///< branch when pop != 0
  IfFalse, ///< branch when pop == 0

  // Object and array access.
  GetField, ///< A = field id; [obj] -> [value]; traps on null
  PutField, ///< A = field id; [obj, value] -> []; traps on null
  ALoad,    ///< [arr, idx] -> [value]; traps on null / out of bounds
  AStore,   ///< [arr, idx, value] -> []; traps on null / out of bounds
  ArrayLen, ///< [arr] -> [len]; traps on null

  // Allocation.
  NewObject, ///< A = class id; -> [ref]; fields default-initialized
  NewArray,  ///< A = array type id; [len] -> [ref]
  NewMulti,  ///< A = outer array type id; [d0, d1] -> [ref]; allocates rows

  // Calls. Arguments are pushed left-to-right, receiver (if any) first.
  InvokeStatic,  ///< A = method id
  InvokeVirtual, ///< A = vtable slot; receiver selects the implementation
  InvokeCtor,    ///< A = method id; [obj, args...] -> []

  Ret,    ///< return void
  RetVal, ///< return pop

  // VM intrinsics (external input/output in the paper's cost model).
  Print,    ///< [value] -> []; appends to the output channel
  ReadInt,  ///< -> [value]; consumes from the input channel; traps if empty
  HasInput, ///< -> [0/1]

  Trap, ///< unconditional runtime error (unreachable-code guard)
};

/// Number of opcodes (fuzz mutation tables).
constexpr int NumOpcodes = static_cast<int>(Opcode::Trap) + 1;

/// Returns the mnemonic for \p Op.
const char *opcodeName(Opcode Op);

/// One bytecode instruction. A/B are operand indices (field/method/class
/// ids, branch targets, local slots); Imm carries integer constants.
struct Instr {
  Opcode Op = Opcode::Nop;
  int32_t A = 0;
  int32_t B = 0;
  int64_t Imm = 0;
};

/// True when \p Op can transfer control to Instr::A.
inline bool isBranch(Opcode Op) {
  return Op == Opcode::Goto || Op == Opcode::IfTrue || Op == Opcode::IfFalse;
}

/// True when \p Op never falls through to pc+1.
inline bool isTerminator(Opcode Op) {
  return Op == Opcode::Goto || Op == Opcode::Ret || Op == Opcode::RetVal ||
         Op == Opcode::Trap;
}

} // namespace bc
} // namespace algoprof

#endif // ALGOPROF_BYTECODE_BYTECODE_H
