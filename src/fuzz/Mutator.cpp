//===- fuzz/Mutator.cpp ---------------------------------------------------===//

#include "fuzz/Mutator.h"

#include <cstddef>
#include <limits>

using namespace algoprof;
using namespace algoprof::fuzz;
using namespace algoprof::bc;

namespace {

/// Every opcode, for uniform random replacement.
const Opcode AllOpcodes[] = {
    Opcode::Nop,       Opcode::IConst,       Opcode::NullConst,
    Opcode::Load,      Opcode::Store,        Opcode::Dup,
    Opcode::Pop,       Opcode::Add,          Opcode::Sub,
    Opcode::Mul,       Opcode::Div,          Opcode::Rem,
    Opcode::Neg,       Opcode::Not,          Opcode::CmpLt,
    Opcode::CmpLe,     Opcode::CmpGt,        Opcode::CmpGe,
    Opcode::CmpEq,     Opcode::CmpNe,        Opcode::RefEq,
    Opcode::RefNe,     Opcode::Goto,         Opcode::IfTrue,
    Opcode::IfFalse,   Opcode::GetField,     Opcode::PutField,
    Opcode::ALoad,     Opcode::AStore,       Opcode::ArrayLen,
    Opcode::NewObject, Opcode::NewArray,     Opcode::NewMulti,
    Opcode::InvokeStatic, Opcode::InvokeVirtual, Opcode::InvokeCtor,
    Opcode::Ret,       Opcode::RetVal,       Opcode::Print,
    Opcode::ReadInt,   Opcode::HasInput,     Opcode::Trap,
};
constexpr size_t NumMutationOpcodes = sizeof(AllOpcodes) / sizeof(AllOpcodes[0]);
static_assert(NumMutationOpcodes == static_cast<size_t>(bc::NumOpcodes),
              "mutator opcode table out of sync with the ISA");

/// An "interesting" int32 for operand slots: valid-looking small ids,
/// off-by-one boundaries, and wildly invalid values.
int32_t interestingOperand(Rng &R, int32_t Hint) {
  switch (R.below(8)) {
  case 0:
    return 0;
  case 1:
    return -1;
  case 2: // Wraparound: Hint may already be INT32_MAX from a prior mutation.
    return static_cast<int32_t>(static_cast<uint32_t>(Hint) + 1u);
  case 3:
    return Hint > 0 ? Hint - 1 : 1;
  case 4:
    return std::numeric_limits<int32_t>::max();
  case 5:
    return std::numeric_limits<int32_t>::min();
  case 6:
    return static_cast<int32_t>(R.below(64));
  default:
    return Hint;
  }
}

int64_t interestingImm(Rng &R) {
  switch (R.below(6)) {
  case 0:
    return 0;
  case 1:
    return -1;
  case 2:
    return std::numeric_limits<int64_t>::max();
  case 3:
    return std::numeric_limits<int64_t>::min();
  case 4:
    return static_cast<int64_t>(R.below(1ULL << 48));
  default:
    return R.range(-64, 64);
  }
}

void mutateMethod(MethodInfo &Method, Rng &R) {
  std::vector<Instr> &Code = Method.Code;
  if (Code.empty())
    return;
  size_t Pc = R.below(Code.size());
  Instr &I = Code[Pc];
  switch (R.below(8)) {
  case 0: // Replace the opcode, keep the operands.
    I.Op = AllOpcodes[R.below(NumMutationOpcodes)];
    break;
  case 1: // Tweak operand A.
    I.A = interestingOperand(R, I.A);
    break;
  case 2: // Tweak operand B.
    I.B = interestingOperand(R, I.B);
    break;
  case 3: // Tweak the immediate.
    I.Imm = interestingImm(R);
    break;
  case 4: { // Swap two instructions.
    size_t Other = R.below(Code.size());
    std::swap(Code[Pc], Code[Other]);
    break;
  }
  case 5: // Delete (shifts pcs; branch targets go stale).
    Code.erase(Code.begin() + static_cast<std::ptrdiff_t>(Pc));
    break;
  case 6: { // Duplicate in place.
    Instr Copy = Code[Pc];
    Code.insert(Code.begin() + static_cast<std::ptrdiff_t>(Pc), Copy);
    break;
  }
  case 7: { // Insert a fresh random instruction.
    Instr Fresh;
    Fresh.Op = AllOpcodes[R.below(NumMutationOpcodes)];
    Fresh.A = interestingOperand(R, static_cast<int32_t>(Code.size()));
    Fresh.B = interestingOperand(R, 0);
    Fresh.Imm = interestingImm(R);
    Code.insert(Code.begin() + static_cast<std::ptrdiff_t>(Pc), Fresh);
    break;
  }
  }
}

} // namespace

Module fuzz::mutateModule(const Module &M, Rng &R, int NumMutations) {
  Module Out = M;
  if (Out.Methods.empty())
    return Out;
  for (int I = 0; I < NumMutations; ++I) {
    MethodInfo &Method = Out.Methods[R.below(Out.Methods.size())];
    mutateMethod(Method, R);
  }
  return Out;
}
