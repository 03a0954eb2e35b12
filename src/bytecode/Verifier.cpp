//===- bytecode/Verifier.cpp ----------------------------------------------===//

#include "bytecode/Verifier.h"

#include "obs/Obs.h"

#include <algorithm>
#include <cassert>

using namespace algoprof;
using namespace algoprof::bc;

namespace {

/// Stack effect of one instruction: pops then pushes. Returns false for
/// instructions whose operands are invalid (reported separately).
struct Effect {
  int Pops = 0;
  int Pushes = 0;
};

class MethodVerifier {
public:
  MethodVerifier(const Module &M, const MethodInfo &Method)
      : M(M), Method(Method) {}

  std::vector<std::string> run();

  /// Deepest operand stack seen by run(), valid when it found no
  /// problems.
  int maxDepth() const { return MaxDepth; }

private:
  void error(size_t Pc, const std::string &Message) {
    Problems.push_back(Method.QualifiedName + " @" + std::to_string(Pc) +
                       ": " + Message);
  }

  bool validClass(int32_t Id) const {
    return Id >= 0 && Id < static_cast<int32_t>(M.Classes.size());
  }
  bool validField(int32_t Id) const {
    return Id >= 0 && Id < static_cast<int32_t>(M.Fields.size());
  }
  bool validMethod(int32_t Id) const {
    return Id >= 0 && Id < static_cast<int32_t>(M.Methods.size());
  }
  bool validArrayType(TypeId Id) const {
    return Id >= 0 && Id < static_cast<TypeId>(M.Types.size()) &&
           M.Types[static_cast<size_t>(Id)].Kind == RtTypeKind::Array;
  }

  /// Checks operands of the instruction at \p Pc and computes its stack
  /// effect; records problems for invalid operands.
  Effect effectAt(size_t Pc);

  const Module &M;
  const MethodInfo &Method;
  std::vector<std::string> Problems;
  int MaxDepth = 0;
};

Effect MethodVerifier::effectAt(size_t Pc) {
  const Instr &I = Method.Code[Pc];
  switch (I.Op) {
  case Opcode::Nop:
  case Opcode::Trap:
    return {0, 0};
  case Opcode::IConst:
  case Opcode::NullConst:
    return {0, 1};
  case Opcode::Load:
    if (I.A < 0 || I.A >= Method.NumLocals)
      error(Pc, "load from local slot " + std::to_string(I.A) +
                    " out of range (locals=" +
                    std::to_string(Method.NumLocals) + ")");
    return {0, 1};
  case Opcode::Store:
    if (I.A < 0 || I.A >= Method.NumLocals)
      error(Pc, "store to local slot " + std::to_string(I.A) +
                    " out of range (locals=" +
                    std::to_string(Method.NumLocals) + ")");
    return {1, 0};
  case Opcode::Dup:
    return {1, 2};
  case Opcode::Pop:
    return {1, 0};
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::RefEq:
  case Opcode::RefNe:
    return {2, 1};
  case Opcode::Neg:
  case Opcode::Not:
    return {1, 1};
  case Opcode::Goto:
    return {0, 0};
  case Opcode::IfTrue:
  case Opcode::IfFalse:
    return {1, 0};
  case Opcode::GetField:
    if (!validField(I.A))
      error(Pc, "getfield with invalid field id " + std::to_string(I.A));
    return {1, 1};
  case Opcode::PutField:
    if (!validField(I.A))
      error(Pc, "putfield with invalid field id " + std::to_string(I.A));
    return {2, 0};
  case Opcode::ALoad:
    return {2, 1};
  case Opcode::AStore:
    return {3, 0};
  case Opcode::ArrayLen:
    return {1, 1};
  case Opcode::NewObject:
    if (!validClass(I.A))
      error(Pc, "newobject with invalid class id " + std::to_string(I.A));
    return {0, 1};
  case Opcode::NewArray:
    if (!validArrayType(I.A))
      error(Pc, "newarray with invalid array type " + std::to_string(I.A));
    return {1, 1};
  case Opcode::NewMulti: {
    if (!validArrayType(I.A)) {
      error(Pc, "newmulti with invalid array type " + std::to_string(I.A));
    } else {
      TypeId Elem = M.Types[static_cast<size_t>(I.A)].Elem;
      if (!validArrayType(Elem))
        error(Pc, "newmulti element type is not an array");
    }
    return {2, 1};
  }
  case Opcode::InvokeStatic:
  case Opcode::InvokeCtor: {
    if (!validMethod(I.A)) {
      error(Pc, "invoke with invalid method id " + std::to_string(I.A));
      return {0, 0};
    }
    const MethodInfo &Callee = M.Methods[static_cast<size_t>(I.A)];
    if (I.Op == Opcode::InvokeStatic && !Callee.IsStatic)
      error(Pc, "invokestatic targets instance method " +
                    Callee.QualifiedName);
    if (I.Op == Opcode::InvokeCtor && !Callee.IsCtor)
      error(Pc, "invokector targets non-constructor " +
                    Callee.QualifiedName);
    return {Callee.NumArgs, Callee.ReturnsValue ? 1 : 0};
  }
  case Opcode::InvokeVirtual: {
    if (!validMethod(I.B)) {
      error(Pc, "invokevirtual with invalid declared method id " +
                    std::to_string(I.B));
      return {0, 0};
    }
    const MethodInfo &Callee = M.Methods[static_cast<size_t>(I.B)];
    if (Callee.VtableSlot != I.A)
      error(Pc, "invokevirtual slot " + std::to_string(I.A) +
                    " does not match " + Callee.QualifiedName);
    if (Callee.IsStatic || Callee.IsCtor)
      error(Pc, "invokevirtual targets non-virtual " +
                    Callee.QualifiedName);
    return {Callee.NumArgs, Callee.ReturnsValue ? 1 : 0};
  }
  case Opcode::Ret:
    // A bare Ret in a value-returning method would leave the caller's
    // stack one short of what its verification assumed — the caller
    // pushes only when the callee actually executed RetVal.
    if (Method.ReturnsValue)
      error(Pc, "ret in value-returning method");
    return {0, 0};
  case Opcode::RetVal:
    if (!Method.ReturnsValue)
      error(Pc, "retval in void method");
    return {1, 0};
  case Opcode::Print:
    return {1, 0};
  case Opcode::ReadInt:
  case Opcode::HasInput:
    return {0, 1};

  }
  error(Pc, "unknown opcode");
  return {0, 0};
}

std::vector<std::string> MethodVerifier::run() {
  size_t N = Method.Code.size();
  if (N == 0) {
    error(0, "empty method body");
    return Problems;
  }
  if (!isTerminator(Method.Code[N - 1].Op))
    error(N - 1, "method does not end in a terminator");
  if (Method.NumArgs > Method.NumLocals)
    error(0, "fewer local slots than arguments");

  // Branch-target validity first; the dataflow assumes targets resolve.
  for (size_t Pc = 0; Pc < N; ++Pc) {
    const Instr &I = Method.Code[Pc];
    if (isBranch(I.Op) &&
        (I.A < 0 || I.A >= static_cast<int32_t>(N)))
      error(Pc, "branch target " + std::to_string(I.A) + " out of range");
  }
  if (!Problems.empty())
    return Problems;

  // Stack-depth dataflow: depth at entry of every reachable pc must be
  // unique; no pop may underflow.
  std::vector<int> DepthAt(N, -1);
  // FIFO worklist; each pc enters it at most once (when its depth is
  // first set), so a vector read from the front never reallocates.
  std::vector<size_t> Work;
  Work.reserve(N);
  DepthAt[0] = 0;
  Work.push_back(0);
  for (size_t Next = 0; Next < Work.size(); ++Next) {
    size_t Pc = Work[Next];
    int Depth = DepthAt[Pc];
    Effect E = effectAt(Pc);
    if (Depth < E.Pops) {
      error(Pc, "operand stack underflow (depth " +
                    std::to_string(Depth) + ", pops " +
                    std::to_string(E.Pops) + ")");
      continue;
    }
    int After = Depth - E.Pops + E.Pushes;
    MaxDepth = std::max(MaxDepth, After);

    auto Flow = [&](size_t Succ) {
      // Branch targets were range-checked above, and the last
      // instruction is a terminator, so no successor runs off the end.
      assert(Succ < N && "successor past end of method");
      if (DepthAt[Succ] < 0) {
        DepthAt[Succ] = After;
        Work.push_back(Succ);
      } else if (DepthAt[Succ] != After) {
        error(Succ, "inconsistent stack depth at join (" +
                        std::to_string(DepthAt[Succ]) + " vs " +
                        std::to_string(After) + ")");
      }
    };

    const Instr &I = Method.Code[Pc];
    if (I.Op == Opcode::Goto) {
      Flow(static_cast<size_t>(I.A));
    } else if (I.Op == Opcode::IfTrue || I.Op == Opcode::IfFalse) {
      Flow(static_cast<size_t>(I.A));
      Flow(Pc + 1);
    } else if (!isTerminator(I.Op)) {
      Flow(Pc + 1);
    }
    // Ret/RetVal/Trap end the path.
  }
  return Problems;
}

} // namespace

std::vector<std::string> bc::verifyMethod(const Module &M,
                                          const MethodInfo &Method) {
  MethodVerifier V(M, Method);
  return V.run();
}

int bc::maxStackDepth(const Module &M, const MethodInfo &Method) {
  MethodVerifier V(M, Method);
  return V.run().empty() ? V.maxDepth() : -1;
}

std::vector<std::string> bc::verifyModule(const Module &M) {
  obs::ScopedSpan Span(obs::Phase::Verify);
  std::vector<std::string> Problems;
  for (const MethodInfo &Method : M.Methods) {
    std::vector<std::string> P = verifyMethod(M, Method);
    Problems.insert(Problems.end(), P.begin(), P.end());
  }
  return Problems;
}
