//===- vm/Interpreter.cpp -------------------------------------------------===//

#include "vm/Interpreter.h"

#include "analysis/Dominators.h"
#include "bytecode/Verifier.h"
#include "obs/Obs.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <new>

using namespace algoprof;
using namespace algoprof::vm;
using namespace algoprof::bc;

ExecutionListener::~ExecutionListener() = default;

const char *vm::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Ok:
    return "ok";
  case RunStatus::Trapped:
    return "trap";
  case RunStatus::FuelExhausted:
    return "fuel";
  case RunStatus::BudgetExceeded:
    return "budget";
  }
  return "?";
}

bool vm::threadedDispatchCompiled() { return false; }

//===----------------------------------------------------------------------===//
// InstrumentationPlan factories
//===----------------------------------------------------------------------===//

InstrumentationPlan InstrumentationPlan::all(const Module &M) {
  InstrumentationPlan Plan;
  Plan.FieldHook.assign(M.Fields.size(), 1);
  Plan.MethodHook.assign(M.Methods.size(), 1);
  Plan.AllocHook.assign(M.Classes.size(), 1);
  return Plan;
}

InstrumentationPlan
InstrumentationPlan::forAlgoProf(const Module &M,
                                 const analysis::RecursiveTypes &RT,
                                 const analysis::CallGraph &CG) {
  InstrumentationPlan Plan;
  Plan.FieldHook.assign(M.Fields.size(), 0);
  for (size_t F = 0; F < M.Fields.size(); ++F)
    Plan.FieldHook[F] = RT.FieldIsLink[F];
  Plan.MethodHook.assign(M.Methods.size(), 0);
  for (size_t Mi = 0; Mi < M.Methods.size(); ++Mi)
    Plan.MethodHook[Mi] = CG.IsRecursionHeader[Mi];
  Plan.AllocHook.assign(M.Classes.size(), 0);
  for (size_t C = 0; C < M.Classes.size(); ++C)
    Plan.AllocHook[C] = RT.ClassIsRecursive[C];
  return Plan;
}

InstrumentationPlan InstrumentationPlan::forAlgoProfAllMethods(
    const Module &M, const analysis::RecursiveTypes &RT) {
  InstrumentationPlan Plan;
  Plan.FieldHook.assign(M.Fields.size(), 0);
  for (size_t F = 0; F < M.Fields.size(); ++F)
    Plan.FieldHook[F] = RT.FieldIsLink[F];
  Plan.MethodHook.assign(M.Methods.size(), 1);
  Plan.AllocHook.assign(M.Classes.size(), 0);
  for (size_t C = 0; C < M.Classes.size(); ++C)
    Plan.AllocHook[C] = RT.ClassIsRecursive[C];
  return Plan;
}

//===----------------------------------------------------------------------===//
// PreparedProgram
//===----------------------------------------------------------------------===//

PreparedProgram PreparedProgram::prepare(const Module &M) {
  PreparedProgram P;
  P.M = &M;
  P.Methods.resize(M.Methods.size());
  for (size_t I = 0; I < M.Methods.size(); ++I) {
    PreparedMethod &PM = P.Methods[I];
    PM.Graph = analysis::buildCfg(M.Methods[I]);
    analysis::DominatorTree DT = analysis::computeDominators(PM.Graph);
    PM.Loops = analysis::computeLoops(M.Methods[I], PM.Graph, DT);
    PM.Events = buildLoopEventMap(M.Methods[I], PM.Graph, PM.Loops);
    PM.MaxStack = bc::maxStackDepth(M, M.Methods[I]);
  }
  P.Calls = analysis::buildCallGraph(M);
  P.RecTypes = analysis::computeRecursiveTypes(M);
  return P;
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

namespace {

/// Two's-complement wraparound arithmetic (Java semantics). Signed
/// overflow is undefined behavior on int64_t, so every operation routes
/// through uint64_t, where wraparound is defined.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

bool evalCmp(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case Opcode::CmpLt:
    return A < B;
  case Opcode::CmpLe:
    return A <= B;
  case Opcode::CmpGt:
    return A > B;
  case Opcode::CmpGe:
    return A >= B;
  case Opcode::CmpEq:
    return A == B;
  default:
    return A != B;
  }
}

/// One activation. Its locals and operand stack live in the run's value
/// stack (Machine::Values): locals at [Base, Base + NumLocals), the first
/// NumArgs of them the arguments the caller pushed, which stay in place;
/// the operand stack above them, at most PreparedMethod::MaxStack deep.
/// While the frame is on top, exec() holds its pc and stack pointer in
/// locals; it writes Pc back before anything can observe it and Sp when
/// the frame makes a call.
struct Frame {
  const MethodInfo *Method = nullptr;
  const PreparedMethod *Prepared = nullptr;
  size_t Base = 0; ///< Values index of local 0.
  size_t Sp = 0;   ///< Values index one past the operand-stack top.
  int Pc = 0;
};

/// The whole interpreter state for one run, so helpers share it without
/// long parameter lists.
class Machine {
public:
  Machine(const PreparedProgram &P, Heap &H, ExecutionListener *L,
          const InstrumentationPlan &Plan, IoChannels &Io,
          const RunOptions &Opts)
      : P(P), M(*P.M), H(H), L(L), Plan(Plan), Io(Io), Opts(Opts) {}

  RunResult run(int32_t EntryMethodId);

private:
  /// Pushes a frame for \p MethodId whose arguments already sit at
  /// Values[Base, Base + NumArgs), and fires its entry events. Returns
  /// false after recording a trap when the method has no operand-stack
  /// bound (it failed verification).
  bool enterMethod(int32_t MethodId, size_t Base);
  /// Fires loop exits at the current pc and the method-exit event of the
  /// top frame, then pops it.
  void leaveTopFrame();
  /// Fires the loop events of edge \p Index of the top frame's method.
  void fireEdge(int32_t Index);

  bool trap(const std::string &Message) {
    TrapMessage = Message;
    Trapped = true;
    return false;
  }

  /// Records a budget trap (BudgetExceeded, never a plain Trapped).
  bool trapBudget(const char *Budget, const std::string &Message,
                  bool Injected = false) {
    TrapMessage = Message;
    Trapped = true;
    BudgetTripped = true;
    BudgetName = Budget;
    InjectedFault = Injected;
    return false;
  }

  const std::string &methodName() const {
    return Frames.back().Method->QualifiedName;
  }

  /// Accounts for one upcoming allocation of \p Bytes model bytes.
  /// Returns false (after recording a BudgetExceeded trap) when the
  /// heap-byte budget would overflow or an injected heap-oom fault is
  /// due at this allocation ordinal. Checked *before* the allocation so
  /// the heap never holds the object that broke the budget.
  bool chargeAlloc(uint64_t Bytes) {
    ++AllocCount;
    if (Opts.InjectHeapOomAtAlloc && AllocCount >= Opts.InjectHeapOomAtAlloc) {
      obs::addCount(obs::Counter::FaultsInjected);
      return trapBudget("heap_bytes",
                        "injected heap-oom at allocation " +
                            std::to_string(AllocCount) + " in " +
                            methodName(),
                        /*Injected=*/true);
    }
    if (Opts.MaxHeapBytes && H.liveBytes() + Bytes > Opts.MaxHeapBytes)
      return trapBudget("heap_bytes",
                        "heap budget exceeded: " +
                            std::to_string(H.liveBytes()) + " live + " +
                            std::to_string(Bytes) + " requested > " +
                            std::to_string(Opts.MaxHeapBytes) + " in " +
                            methodName());
    return true;
  }

  uint64_t nowMs() const {
    if (Opts.ClockNowMs)
      return Opts.ClockNowMs();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Returns the heap object behind \p V, or null. The verifier checks
  /// operand-stack depth, not types, so a verified module may still feed
  /// integers (or stale ids) to reference operands; those must end in a
  /// trap (invalidRefMessage), never in an out-of-range heap access.
  HeapObject *deref(const Value &V) {
    return V.IsRef && H.isValid(V.ref()) ? &H.get(V.ref()) : nullptr;
  }

  [[gnu::cold, gnu::noinline]] std::string invalidRefMessage() const {
    return "invalid object reference in " + methodName();
  }

  /// Cold path behind the loop's single `Executed >= NextStop` compare:
  /// ends the run on fuel exhaustion or a missed deadline and schedules
  /// the next stop. Returns false when the run must end.
  bool onStop() {
    for (;;) {
      if (Executed >= Opts.Fuel) {
        FuelOut = true;
        return false;
      }
      if (Executed >= DeadlineCheckAt) {
        if (nowMs() - StartMs >= Opts.RunDeadlineMs) {
          DeadlineOut = true;
          return false;
        }
        DeadlineCheckAt += DeadlineStride;
      }
      NextStop = Opts.Fuel < DeadlineCheckAt ? Opts.Fuel : DeadlineCheckAt;
      if (Executed < NextStop)
        return true;
    }
  }

  /// The decode loop: executes until the run ends (trap, completion,
  /// or onStop saying stop).
  void exec();

  const PreparedProgram &P;
  const Module &M;
  Heap &H;
  ExecutionListener *L;
  const InstrumentationPlan &Plan;
  IoChannels &Io;
  RunOptions Opts;

  /// The run's value stack: every frame's locals and operand stack.
  std::vector<Value> Values;
  std::vector<Frame> Frames;
  uint64_t Executed = 0;
  uint64_t AllocCount = 0; ///< Allocations attempted (1-based ordinal).

  // Guard state for the decode loop.
  static constexpr uint64_t DeadlineStride = 8192;
  uint64_t NextStop = 0;        ///< Next Executed value that needs onStop.
  uint64_t DeadlineCheckAt = 0; ///< Next Executed value to read the clock.
  uint64_t StartMs = 0;

  bool Trapped = false;
  bool BudgetTripped = false;
  bool InjectedFault = false;
  bool FuelOut = false;
  bool DeadlineOut = false;
  std::string BudgetName;
  std::string TrapMessage;
};

} // namespace

bool Machine::enterMethod(int32_t MethodId, size_t Base) {
  const MethodInfo &Callee = M.Methods[static_cast<size_t>(MethodId)];
  const PreparedMethod &PM = P.Methods[static_cast<size_t>(MethodId)];
  if (PM.MaxStack < 0)
    return trap("method " + Callee.QualifiedName +
                " failed verification (no operand-stack bound)");
  size_t Locals = Base + static_cast<size_t>(Callee.NumLocals);
  size_t Top = Locals + static_cast<size_t>(PM.MaxStack);
  if (Top > Values.size())
    Values.resize(Top);
  std::fill(Values.begin() + static_cast<ptrdiff_t>(Base) + Callee.NumArgs,
            Values.begin() + static_cast<ptrdiff_t>(Locals),
            Value::makeInt(0));
  Frames.push_back({&Callee, &PM, Base, Locals, 0});

  if (L && Plan.methodHook(MethodId))
    L->onMethodEnter(MethodId);
  // A method whose entry pc sits inside a loop (e.g. a body that starts
  // with 'while') logically enters those loops now.
  if (L && !Callee.Code.empty()) {
    const auto &Chain = PM.Events.LoopChainAtPc[0];
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It)
      L->onLoopEnter(MethodId, *It);
  }
  return true;
}

void Machine::leaveTopFrame() {
  Frame &F = Frames.back();
  int32_t MethodId = F.Method->Id;
  if (L) {
    const auto &Chain =
        F.Prepared->Events.LoopChainAtPc[static_cast<size_t>(F.Pc)];
    for (int32_t Loop : Chain)
      L->onLoopExit(MethodId, Loop);
    if (Plan.methodHook(MethodId))
      L->onMethodExit(MethodId);
  }
  Frames.pop_back();
}

void Machine::fireEdge(int32_t Index) {
  const Frame &F = Frames.back();
  const LoopTransition &T =
      F.Prepared->Events.Edges[static_cast<size_t>(Index)];
  int32_t MethodId = F.Method->Id;
  for (int32_t Loop : T.Exits)
    L->onLoopExit(MethodId, Loop);
  if (T.BackEdge >= 0)
    L->onLoopBackEdge(MethodId, T.BackEdge);
  for (int32_t Loop : T.Entries)
    L->onLoopEnter(MethodId, Loop);
}

// exec() keeps the top frame's state in locals. VM_SYNC writes back what
// an observer reads — the pc (trap unwinding fires exits at it) and the
// instruction count (RunResult::InstrCount) — before every call out of
// the loop that can trap, throw or reach the listener. VM_LOAD reloads
// the locals after the frame stack changed.
#define VM_SYNC() (F->Pc = Pc, Executed = Count)

#define VM_LOAD()                                                             \
  do {                                                                        \
    F = &Frames.back();                                                       \
    Code = F->Method->Code.data();                                            \
    Pc = F->Pc;                                                               \
    Locals = Values.data() + F->Base;                                         \
    Sp = Values.data() + F->Sp;                                               \
    Fall = F->Prepared->Events.Fall.data();                                   \
    Taken = F->Prepared->Events.Taken.data();                                 \
  } while (0)

#define VM_TRAP(Msg)                                                          \
  do {                                                                        \
    VM_SYNC();                                                                \
    trap(Msg);                                                                \
    return;                                                                   \
  } while (0)

// Handler protocol: fall-through handlers `break` to the shared advance,
// which fires the edge in Fall[pc] and moves to pc+1; taken branches
// `goto Jump`, which fires Taken[pc] and moves to the target. A call
// enters the callee and `continue`s at its pc 0; a return reloads the
// caller, still at its call pc, and `break`s to the shared advance. Trap
// paths record the trap and `return` (VM_TRAP).
void Machine::exec() {
  ExecutionListener *const Lis = L;
  const bool WantsInstr = L && L->wantsInstructionEvents();
  uint64_t Count = Executed;
  uint64_t Stop = NextStop;
  Frame *F = nullptr;
  const Instr *Code = nullptr;
  int Pc = 0;
  Value *Locals = nullptr;
  Value *Sp = nullptr;
  const int32_t *Fall = nullptr;
  const int32_t *Taken = nullptr;
  VM_LOAD();

  for (;;) {
    // One compare on the hot path; onStop (cold) sorts out fuel
    // exhaustion and the deadline.
    if (Count >= Stop) {
      VM_SYNC();
      if (!onStop())
        return;
      Stop = NextStop;
    }
    const Instr &I = Code[Pc];
    ++Count;
    if (WantsInstr) {
      VM_SYNC();
      Lis->onInstruction(F->Method->Id, Pc);
    }

    switch (I.Op) {
    case Opcode::Nop:
      break;

    case Opcode::IConst:
      *Sp++ = Value::makeInt(I.Imm);
      break;

    case Opcode::NullConst:
      *Sp++ = Value::makeNull();
      break;

    case Opcode::Load:
      *Sp++ = Locals[I.A];
      break;

    case Opcode::Store:
      Locals[I.A] = *--Sp;
      break;

    case Opcode::Dup:
      *Sp = Sp[-1];
      ++Sp;
      break;

    case Opcode::Pop:
      --Sp;
      break;

    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem: {
      int64_t B = (--Sp)->Bits;
      int64_t A = Sp[-1].Bits;
      int64_t R = 0;
      if (I.Op == Opcode::Add)
        R = wrapAdd(A, B);
      else if (I.Op == Opcode::Sub)
        R = wrapSub(A, B);
      else if (I.Op == Opcode::Mul)
        R = wrapMul(A, B);
      else {
        if (B == 0)
          VM_TRAP("division by zero in " + F->Method->QualifiedName);
        // INT64_MIN / -1 overflows (and SIGFPEs on x86); Java defines
        // the quotient as INT64_MIN and the remainder as 0.
        if (A == std::numeric_limits<int64_t>::min() && B == -1)
          R = I.Op == Opcode::Div ? A : 0;
        else
          R = I.Op == Opcode::Div ? A / B : A % B;
      }
      Sp[-1] = Value::makeInt(R);
      break;
    }

    case Opcode::Neg:
      Sp[-1] = Value::makeInt(wrapNeg(Sp[-1].Bits));
      break;

    case Opcode::Not:
      Sp[-1] = Value::makeBool(Sp[-1].Bits == 0);
      break;

    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
    case Opcode::CmpEq:
    case Opcode::CmpNe: {
      int64_t B = (--Sp)->Bits;
      int64_t A = Sp[-1].Bits;
      Sp[-1] = Value::makeBool(evalCmp(I.Op, A, B));
      break;
    }

    case Opcode::RefEq:
    case Opcode::RefNe: {
      Value B = *--Sp;
      Value A = Sp[-1];
      bool Eq = A.Bits == B.Bits && A.IsRef == B.IsRef;
      Sp[-1] = Value::makeBool(I.Op == Opcode::RefEq ? Eq : !Eq);
      break;
    }

    case Opcode::Goto:
      goto Jump;

    case Opcode::IfTrue:
      if ((--Sp)->Bits != 0)
        goto Jump;
      break;

    case Opcode::IfFalse:
      if ((--Sp)->Bits == 0)
        goto Jump;
      break;

    case Opcode::GetField: {
      Value Obj = Sp[-1];
      if (Obj.isNullRef())
        VM_TRAP("null dereference reading field " +
                M.Fields[static_cast<size_t>(I.A)].Name + " in " +
                F->Method->QualifiedName);
      HeapObject *O = deref(Obj);
      if (!O)
        VM_TRAP(invalidRefMessage());
      const FieldInfo &Field = M.Fields[static_cast<size_t>(I.A)];
      if (Field.Slot < 0 ||
          Field.Slot >= static_cast<int32_t>(O->Slots.size()))
        VM_TRAP("field " + Field.Name + " not present on receiver in " +
                F->Method->QualifiedName);
      Value V = O->Slots[static_cast<size_t>(Field.Slot)];
      Sp[-1] = V;
      if (Lis && Plan.fieldHook(I.A)) {
        VM_SYNC();
        Lis->onGetField(Obj.ref(), I.A, V);
      }
      break;
    }

    case Opcode::PutField: {
      Value V = Sp[-1];
      Value Obj = Sp[-2];
      Sp -= 2;
      if (Obj.isNullRef())
        VM_TRAP("null dereference writing field " +
                M.Fields[static_cast<size_t>(I.A)].Name + " in " +
                F->Method->QualifiedName);
      HeapObject *O = deref(Obj);
      if (!O)
        VM_TRAP(invalidRefMessage());
      const FieldInfo &Field = M.Fields[static_cast<size_t>(I.A)];
      if (Field.Slot < 0 ||
          Field.Slot >= static_cast<int32_t>(O->Slots.size()))
        VM_TRAP("field " + Field.Name + " not present on receiver in " +
                F->Method->QualifiedName);
      O->Slots[static_cast<size_t>(Field.Slot)] = V;
      if (Lis && Plan.fieldHook(I.A)) {
        VM_SYNC();
        Lis->onPutField(Obj.ref(), I.A, V);
      }
      break;
    }

    case Opcode::ALoad: {
      Value Idx = Sp[-1];
      Value Arr = Sp[-2];
      --Sp;
      if (Arr.isNullRef())
        VM_TRAP("null array load in " + F->Method->QualifiedName);
      HeapObject *A = deref(Arr);
      if (!A)
        VM_TRAP(invalidRefMessage());
      if (Idx.Bits < 0 || Idx.Bits >= static_cast<int64_t>(A->Slots.size()))
        VM_TRAP("array index " + std::to_string(Idx.Bits) +
                " out of bounds (length " + std::to_string(A->Slots.size()) +
                ") in " + F->Method->QualifiedName);
      Value V = A->Slots[static_cast<size_t>(Idx.Bits)];
      Sp[-1] = V;
      if (Lis && Plan.ArrayHooks) {
        VM_SYNC();
        Lis->onArrayLoad(Arr.ref(), Idx.Bits, V);
      }
      break;
    }

    case Opcode::AStore: {
      Value V = Sp[-1];
      Value Idx = Sp[-2];
      Value Arr = Sp[-3];
      Sp -= 3;
      if (Arr.isNullRef())
        VM_TRAP("null array store in " + F->Method->QualifiedName);
      HeapObject *A = deref(Arr);
      if (!A)
        VM_TRAP(invalidRefMessage());
      if (Idx.Bits < 0 || Idx.Bits >= static_cast<int64_t>(A->Slots.size()))
        VM_TRAP("array index " + std::to_string(Idx.Bits) +
                " out of bounds (length " + std::to_string(A->Slots.size()) +
                ") in " + F->Method->QualifiedName);
      A->Slots[static_cast<size_t>(Idx.Bits)] = V;
      if (Lis && Plan.ArrayHooks) {
        VM_SYNC();
        Lis->onArrayStore(Arr.ref(), Idx.Bits, V);
      }
      break;
    }

    case Opcode::ArrayLen: {
      Value Arr = Sp[-1];
      if (Arr.isNullRef())
        VM_TRAP("null array length in " + F->Method->QualifiedName);
      HeapObject *A = deref(Arr);
      if (!A)
        VM_TRAP(invalidRefMessage());
      Sp[-1] = Value::makeInt(static_cast<int64_t>(A->Slots.size()));
      break;
    }

    case Opcode::NewObject: {
      const ClassInfo &C = M.Classes[static_cast<size_t>(I.A)];
      VM_SYNC();
      if (!chargeAlloc(Heap::bytesFor(C.FieldIds.size())))
        return;
      ObjId Obj = H.allocObject(I.A);
      *Sp++ = Value::makeRef(Obj);
      if (Lis && Plan.allocHook(I.A))
        Lis->onNewObject(Obj, I.A);
      break;
    }

    case Opcode::NewArray: {
      Value Len = Sp[-1];
      if (Len.Bits < 0)
        VM_TRAP("negative array length " + std::to_string(Len.Bits) +
                " in " + F->Method->QualifiedName);
      if (Len.Bits > Opts.MaxArrayLength)
        VM_TRAP("array length " + std::to_string(Len.Bits) +
                " exceeds limit " + std::to_string(Opts.MaxArrayLength) +
                " in " + F->Method->QualifiedName);
      VM_SYNC();
      if (!chargeAlloc(Heap::bytesFor(static_cast<uint64_t>(Len.Bits))))
        return;
      ObjId Arr = H.allocArray(I.A, Len.Bits);
      Sp[-1] = Value::makeRef(Arr);
      if (Lis && Plan.ArrayHooks)
        Lis->onNewArray(Arr, I.A, Len.Bits);
      break;
    }

    case Opcode::NewMulti: {
      Value Inner = Sp[-1];
      Value Outer = Sp[-2];
      --Sp;
      if (Outer.Bits < 0 || Inner.Bits < 0)
        VM_TRAP("negative array length in " + F->Method->QualifiedName);
      if (Outer.Bits > Opts.MaxArrayLength ||
          Inner.Bits > Opts.MaxArrayLength ||
          (Inner.Bits > 0 && Outer.Bits > Opts.MaxArrayLength / Inner.Bits))
        VM_TRAP("multi-array dimensions " + std::to_string(Outer.Bits) + "x" +
                std::to_string(Inner.Bits) + " exceed limit " +
                std::to_string(Opts.MaxArrayLength) + " in " +
                F->Method->QualifiedName);
      TypeId OuterTy = I.A;
      TypeId InnerTy = M.Types[static_cast<size_t>(OuterTy)].Elem;
      VM_SYNC();
      if (!chargeAlloc(Heap::bytesFor(static_cast<uint64_t>(Outer.Bits))))
        return;
      ObjId Arr = H.allocArray(OuterTy, Outer.Bits);
      if (Lis && Plan.ArrayHooks)
        Lis->onNewArray(Arr, OuterTy, Outer.Bits);
      for (int64_t Row = 0; Row < Outer.Bits; ++Row) {
        if (!chargeAlloc(Heap::bytesFor(static_cast<uint64_t>(Inner.Bits))))
          return;
        ObjId RowArr = H.allocArray(InnerTy, Inner.Bits);
        H.get(Arr).Slots[static_cast<size_t>(Row)] = Value::makeRef(RowArr);
        if (Lis && Plan.ArrayHooks)
          Lis->onNewArray(RowArr, InnerTy, Inner.Bits);
      }
      Sp[-1] = Value::makeRef(Arr);
      break;
    }

    case Opcode::InvokeStatic:
    case Opcode::InvokeVirtual:
    case Opcode::InvokeCtor: {
      int32_t MethodId = I.A;
      if (I.Op == Opcode::InvokeVirtual) {
        // Resolve through the receiver's vtable. The receiver sits below
        // the arguments; the statically resolved target (operand B)
        // gives the arity, and overrides share it (checked by sema).
        int32_t Slot = I.A;
        int32_t Arity = M.Methods[static_cast<size_t>(I.B)].NumArgs;
        assert(Arity > 0 && "virtual call without a receiver slot");
        Value Recv = Sp[-Arity];
        if (Recv.isNullRef())
          VM_TRAP("null receiver in call from " + F->Method->QualifiedName);
        HeapObject *O = deref(Recv);
        if (!O)
          VM_TRAP(invalidRefMessage());
        int32_t RecvClass = O->ClassId;
        if (RecvClass < 0 ||
            RecvClass >= static_cast<int32_t>(M.Classes.size()))
          VM_TRAP("virtual call on non-object receiver in " +
                  F->Method->QualifiedName);
        const ClassInfo &C = M.Classes[static_cast<size_t>(RecvClass)];
        if (Slot < 0 || Slot >= static_cast<int32_t>(C.Vtable.size()))
          VM_TRAP("receiver class " + C.Name + " lacks virtual slot " +
                  std::to_string(Slot) + " in " + F->Method->QualifiedName);
        MethodId = C.Vtable[static_cast<size_t>(Slot)];
        if (MethodId < 0 ||
            MethodId >= static_cast<int32_t>(M.Methods.size()))
          VM_TRAP("corrupt vtable entry in class " + C.Name);
        // The verifier models the call's stack effect from the declared
        // target (operand B); a type-confused receiver may dispatch to a
        // method of different shape, which must trap rather than
        // over/under-pop the verified operand stack.
        const MethodInfo &Target = M.Methods[static_cast<size_t>(MethodId)];
        const MethodInfo &Declared = M.Methods[static_cast<size_t>(I.B)];
        if (Target.NumArgs != Declared.NumArgs ||
            Target.ReturnsValue != Declared.ReturnsValue)
          VM_TRAP("virtual dispatch signature mismatch calling " +
                  Target.QualifiedName + " in " + F->Method->QualifiedName);
      }
      const MethodInfo &Callee = M.Methods[static_cast<size_t>(MethodId)];
      if (static_cast<int>(Frames.size()) >= Opts.MaxFrames)
        VM_TRAP("call stack overflow calling " + Callee.QualifiedName);
      // The arguments stay where the caller pushed them and become the
      // callee's first locals. The caller's pc stays at the call site;
      // the return handler advances it.
      F->Sp = static_cast<size_t>(Sp - Values.data()) -
              static_cast<size_t>(Callee.NumArgs);
      VM_SYNC();
      if (!enterMethod(MethodId, F->Sp))
        return;
      VM_LOAD();
      continue;
    }

    case Opcode::Ret:
    case Opcode::RetVal: {
      bool HaveRV = I.Op == Opcode::RetVal;
      Value RV;
      if (HaveRV)
        RV = Sp[-1];
      VM_SYNC();
      leaveTopFrame();
      if (Frames.empty())
        return; // Normal program completion.
      VM_LOAD();
      if (HaveRV)
        *Sp++ = RV;
      break; // The caller advances past its call site.
    }

    case Opcode::Print: {
      Value V = *--Sp;
      VM_SYNC();
      Io.Output.push_back(V.Bits);
      if (Lis && Plan.IoHooks)
        Lis->onOutputWrite();
      break;
    }

    case Opcode::ReadInt: {
      if (!Io.hasInput())
        VM_TRAP("input exhausted in " + F->Method->QualifiedName);
      *Sp++ = Value::makeInt(Io.Input[Io.InputPos++]);
      if (Lis && Plan.IoHooks) {
        VM_SYNC();
        Lis->onInputRead();
      }
      break;
    }

    case Opcode::HasInput:
      *Sp++ = Value::makeBool(Io.hasInput());
      break;

    case Opcode::Trap:
      VM_TRAP("explicit trap in " + F->Method->QualifiedName);
    }

    // Fall-through advance.
    if (Lis && Fall[Pc] >= 0) {
      VM_SYNC();
      fireEdge(Fall[Pc]);
    }
    ++Pc;
    continue;

  Jump:
    if (Lis && Taken[Pc] >= 0) {
      VM_SYNC();
      fireEdge(Taken[Pc]);
    }
    Pc = I.A;
  }
}

#undef VM_LOAD
#undef VM_SYNC
#undef VM_TRAP

RunResult Machine::run(int32_t EntryMethodId) {
  const MethodInfo &Entry = M.Methods[static_cast<size_t>(EntryMethodId)];
  assert(Entry.IsStatic && Entry.NumArgs == 0 &&
         "entry must be a static no-arg method");
  (void)Entry;

  if (L) {
    ExecContext Ctx;
    Ctx.Module = &M;
    Ctx.TheHeap = &H;
    Ctx.Io = &Io;
    L->onProgramStart(Ctx);
  }

  // Guard thresholds, in units of Executed.
  constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();
  DeadlineCheckAt = Opts.RunDeadlineMs ? 0 : Never;
  StartMs = Opts.RunDeadlineMs ? nowMs() : 0;
  NextStop = 0; // Force the first iteration through onStop.

  RunResult R;
  bool BadAlloc = false;
  try {
    if (enterMethod(EntryMethodId, 0))
      exec();
  } catch (const std::bad_alloc &) {
    // Safety net for hosts that run without MaxHeapBytes (or for
    // allocator failure below the modelled budget): degrade to the same
    // deterministic status instead of letting bad_alloc unwind through
    // profiler listeners.
    BadAlloc = true;
  }

  if (BadAlloc) {
    R.Status = RunStatus::BudgetExceeded;
    R.Budget = "heap_bytes";
    R.TrapMessage = "allocation failed (std::bad_alloc) after " +
                    std::to_string(Executed) + " instructions";
  } else if (FuelOut) {
    R.Status = RunStatus::FuelExhausted;
    R.Budget = "fuel";
    R.TrapMessage =
        "fuel exhausted after " + std::to_string(Executed) + " instructions";
  } else if (DeadlineOut) {
    R.Status = RunStatus::BudgetExceeded;
    R.Budget = "deadline";
    R.TrapMessage = "run deadline of " + std::to_string(Opts.RunDeadlineMs) +
                    " ms exceeded after " + std::to_string(Executed) +
                    " instructions";
  } else if (Trapped) {
    R.Status = BudgetTripped ? RunStatus::BudgetExceeded : RunStatus::Trapped;
    R.Budget = BudgetName;
    R.Injected = InjectedFault;
    R.TrapMessage = TrapMessage;
  }

  // Unwind remaining frames (trap / fuel), firing exit events so profiler
  // shadow stacks stay balanced — the paper's exceptional-exit handling.
  while (!Frames.empty())
    leaveTopFrame();

  if (L)
    L->onProgramEnd();
  R.InstrCount = Executed;
  return R;
}

RunResult Interpreter::run(int32_t EntryMethodId, ExecutionListener *Listener,
                           const InstrumentationPlan &Plan, IoChannels &Io,
                           const RunOptions &Opts) {
  assert(!InRun && "Interpreter::run is not reentrant; use one "
                   "Interpreter per concurrent run");
  InRun = true;
  RunResult R;
  {
    obs::ScopedSpan Span(obs::Phase::VmRun);
    Machine Mach(P, TheHeap, Listener, Plan, Io, Opts);
    R = Mach.run(EntryMethodId);
  }
  obs::addCount(obs::Counter::BytecodesExecuted, R.InstrCount);
  obs::addCount(obs::Counter::RunsCompleted);
  if (R.Status == RunStatus::BudgetExceeded)
    obs::addCount(obs::Counter::RunsBudgetExceeded);
  InRun = false;
  return R;
}
