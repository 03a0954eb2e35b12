//===- bytecode/Disassembler.cpp ------------------------------------------===//

#include "bytecode/Disassembler.h"

using namespace algoprof;
using namespace algoprof::bc;

namespace {

/// True when \p Id indexes into a table of \p Size entries. The
/// disassembler renders arbitrary modules — including corrupted ones the
/// fuzzer's mutator produces — so every operand-derived index is checked
/// and malformed operands print as "<invalid ...>" instead of faulting.
bool inBounds(int32_t Id, size_t Size) {
  return Id >= 0 && static_cast<size_t>(Id) < Size;
}

std::string invalid(const char *What, int32_t Id) {
  return std::string("<invalid ") + What + " " + std::to_string(Id) + ">";
}

} // namespace

std::string bc::disassemble(const Module &M, const MethodInfo &Method) {
  std::string Out;
  Out += Method.QualifiedName + " (args=" + std::to_string(Method.NumArgs) +
         ", locals=" + std::to_string(Method.NumLocals) + ")\n";
  for (size_t Pc = 0; Pc < Method.Code.size(); ++Pc) {
    const Instr &I = Method.Code[Pc];
    Out += "  " + std::to_string(Pc) + ": " + opcodeName(I.Op);
    switch (I.Op) {
    case Opcode::IConst:
      Out += " " + std::to_string(I.Imm);
      break;
    case Opcode::Load:
    case Opcode::Store:
      Out += " $" + std::to_string(I.A);
      break;
    case Opcode::Goto:
    case Opcode::IfTrue:
    case Opcode::IfFalse:
      Out += " @" + std::to_string(I.A);
      break;
    case Opcode::GetField:
    case Opcode::PutField:
      if (inBounds(I.A, M.Fields.size()) &&
          inBounds(M.Fields[I.A].ClassId, M.Classes.size()))
        Out += " " + M.Classes[M.Fields[I.A].ClassId].Name + "." +
               M.Fields[I.A].Name;
      else
        Out += " " + invalid("field", I.A);
      break;
    case Opcode::NewObject:
      if (inBounds(I.A, M.Classes.size()))
        Out += " " + M.Classes[I.A].Name;
      else
        Out += " " + invalid("class", I.A);
      break;
    case Opcode::NewArray:
    case Opcode::NewMulti:
      if (inBounds(I.A, M.Types.size()))
        Out += " " + M.typeName(I.A);
      else
        Out += " " + invalid("type", I.A);
      break;
    case Opcode::InvokeStatic:
    case Opcode::InvokeCtor:
      if (inBounds(I.A, M.Methods.size()))
        Out += " " + M.Methods[I.A].QualifiedName;
      else
        Out += " " + invalid("method", I.A);
      break;
    case Opcode::InvokeVirtual:
      Out += " slot " + std::to_string(I.A);
      break;
    default:
      break;
    }
    Out += '\n';
  }
  return Out;
}

std::string bc::disassemble(const Module &M) {
  std::string Out;
  for (const MethodInfo &Method : M.Methods) {
    Out += disassemble(M, Method);
    Out += '\n';
  }
  return Out;
}
