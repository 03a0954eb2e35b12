//===- bytecode/Bytecode.cpp ----------------------------------------------===//

#include "bytecode/Bytecode.h"

using namespace algoprof;
using namespace algoprof::bc;

const char *bc::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Nop:
    return "nop";
  case Opcode::IConst:
    return "iconst";
  case Opcode::NullConst:
    return "nullconst";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::Dup:
    return "dup";
  case Opcode::Pop:
    return "pop";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Rem:
    return "rem";
  case Opcode::Neg:
    return "neg";
  case Opcode::Not:
    return "not";
  case Opcode::CmpLt:
    return "cmplt";
  case Opcode::CmpLe:
    return "cmple";
  case Opcode::CmpGt:
    return "cmpgt";
  case Opcode::CmpGe:
    return "cmpge";
  case Opcode::CmpEq:
    return "cmpeq";
  case Opcode::CmpNe:
    return "cmpne";
  case Opcode::RefEq:
    return "refeq";
  case Opcode::RefNe:
    return "refne";
  case Opcode::Goto:
    return "goto";
  case Opcode::IfTrue:
    return "iftrue";
  case Opcode::IfFalse:
    return "iffalse";
  case Opcode::GetField:
    return "getfield";
  case Opcode::PutField:
    return "putfield";
  case Opcode::ALoad:
    return "aload";
  case Opcode::AStore:
    return "astore";
  case Opcode::ArrayLen:
    return "arraylen";
  case Opcode::NewObject:
    return "newobject";
  case Opcode::NewArray:
    return "newarray";
  case Opcode::NewMulti:
    return "newmulti";
  case Opcode::InvokeStatic:
    return "invokestatic";
  case Opcode::InvokeVirtual:
    return "invokevirtual";
  case Opcode::InvokeCtor:
    return "invokector";
  case Opcode::Ret:
    return "ret";
  case Opcode::RetVal:
    return "retval";
  case Opcode::Print:
    return "print";
  case Opcode::ReadInt:
    return "readint";
  case Opcode::HasInput:
    return "hasinput";
  case Opcode::Trap:
    return "trap";
  }
  return "<bad-op>";
}
