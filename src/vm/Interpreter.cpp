//===- vm/Interpreter.cpp -------------------------------------------------===//

#include "vm/Interpreter.h"

#include "analysis/Dominators.h"
#include "obs/Obs.h"

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

struct Frame {
  const MethodInfo *Method = nullptr;
  const PreparedMethod *Prepared = nullptr;
  /// Method->Code.data(), cached so the decode loop's fetch is one load.
  const bc::Instr *Code = nullptr;
  int Pc = 0;
  std::vector<Value> Locals;
  std::vector<Value> Stack;

  Value pop() {
    assert(!Stack.empty() && "operand stack underflow");
    Value V = Stack.back();
    Stack.pop_back();
    return V;
  }
  void push(Value V) { Stack.push_back(V); }
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
  void enterMethod(int32_t MethodId, std::vector<Value> Args);
  /// Fires loop exits at the current pc and the method-exit event of the
  /// top frame, then pops it.
  void leaveTopFrame();
  void fireTransition(const Frame &F, int FromPc, int ToPc);

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

  /// Accounts for one upcoming allocation of \p Bytes model bytes.
  /// Returns false (after recording a BudgetExceeded trap) when the
  /// heap-byte budget would overflow or an injected heap-oom fault is
  /// due at this allocation ordinal. Checked *before* the allocation so
  /// the heap never holds the object that broke the budget.
  bool chargeAlloc(uint64_t Bytes, const Frame &F) {
    ++AllocCount;
    if (Opts.InjectHeapOomAtAlloc && AllocCount >= Opts.InjectHeapOomAtAlloc) {
      obs::addCount(obs::Counter::FaultsInjected);
      return trapBudget("heap_bytes",
                        "injected heap-oom at allocation " +
                            std::to_string(AllocCount) + " in " +
                            F.Method->QualifiedName,
                        /*Injected=*/true);
    }
    if (Opts.MaxHeapBytes && H.liveBytes() + Bytes > Opts.MaxHeapBytes)
      return trapBudget("heap_bytes",
                        "heap budget exceeded: " +
                            std::to_string(H.liveBytes()) + " live + " +
                            std::to_string(Bytes) + " requested > " +
                            std::to_string(Opts.MaxHeapBytes) + " in " +
                            F.Method->QualifiedName);
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

  /// Returns the heap object behind \p V, or null after recording a
  /// trap. The verifier checks operand-stack depth, not types, so a
  /// verified module may still feed integers (or stale ids) to
  /// reference operands; those must end in a trap, never in an
  /// out-of-range heap access.
  HeapObject *deref(const Value &V, const Frame &F) {
    if (!V.IsRef || !H.isValid(V.ref())) {
      trap("invalid object reference in " + F.Method->QualifiedName);
      return nullptr;
    }
    return &H.get(V.ref());
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
  bool WantsInstr = false;
};

} // namespace

void Machine::enterMethod(int32_t MethodId, std::vector<Value> Args) {
  const MethodInfo &Callee = M.Methods[static_cast<size_t>(MethodId)];
  Frame F;
  F.Method = &Callee;
  F.Prepared = &P.Methods[static_cast<size_t>(MethodId)];
  F.Code = Callee.Code.data();
  F.Pc = 0;
  F.Locals.assign(static_cast<size_t>(Callee.NumLocals), Value::makeInt(0));
  assert(static_cast<int32_t>(Args.size()) == Callee.NumArgs &&
         "argument count mismatch");
  for (size_t I = 0; I < Args.size(); ++I)
    F.Locals[I] = Args[I];
  Frames.push_back(std::move(F));

  if (L && Plan.methodHook(MethodId))
    L->onMethodEnter(MethodId);
  // A method whose entry pc sits inside a loop (e.g. a body that starts
  // with 'while') logically enters those loops now.
  if (L && !Callee.Code.empty()) {
    const auto &Chain = Frames.back().Prepared->Events.LoopChainAtPc[0];
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It)
      L->onLoopEnter(MethodId, *It);
  }
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

void Machine::fireTransition(const Frame &F, int FromPc, int ToPc) {
  const LoopTransition *T = F.Prepared->Events.lookup(FromPc, ToPc);
  if (!T)
    return;
  int32_t MethodId = F.Method->Id;
  for (int32_t Loop : T->Exits)
    L->onLoopExit(MethodId, Loop);
  if (T->BackEdge >= 0)
    L->onLoopBackEdge(MethodId, T->BackEdge);
  for (int32_t Loop : T->Entries)
    L->onLoopEnter(MethodId, Loop);
}

#define VM_TRAP(Msg)                                                          \
  do {                                                                        \
    trap(Msg);                                                                \
    return;                                                                   \
  } while (0)

// Handler protocol: fall-through and branch handlers set NextPc and
// `break` to the shared advance, which fires the loop-event transition
// Pc -> NextPc and moves the pc. Call and return handlers adjust Frames
// themselves and `continue` (calls fire no transition, returns fire
// CallPc -> CallPc+1 in the caller). Trap paths record the trap and
// `return` (VM_TRAP).
void Machine::exec() {
  for (;;) {
    // One compare on the hot path; onStop (cold) sorts out fuel
    // exhaustion and the deadline.
    if (Executed >= NextStop && !onStop())
      return;
    Frame &F = Frames.back();
    const Instr &I = F.Code[F.Pc];
    ++Executed;
    if (WantsInstr)
      L->onInstruction(F.Method->Id, F.Pc);
    int NextPc = F.Pc + 1;

    switch (I.Op) {
    case Opcode::Nop:
      break;

    case Opcode::IConst:
      F.push(Value::makeInt(I.Imm));
      break;

    case Opcode::NullConst:
      F.push(Value::makeNull());
      break;

    case Opcode::Load:
      F.push(F.Locals[static_cast<size_t>(I.A)]);
      break;

    case Opcode::Store:
      F.Locals[static_cast<size_t>(I.A)] = F.pop();
      break;

    case Opcode::Dup:
      F.push(F.Stack.back());
      break;

    case Opcode::Pop:
      F.pop();
      break;

    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem: {
      int64_t B = F.pop().Bits;
      int64_t A = F.pop().Bits;
      int64_t R = 0;
      if (I.Op == Opcode::Add)
        R = wrapAdd(A, B);
      else if (I.Op == Opcode::Sub)
        R = wrapSub(A, B);
      else if (I.Op == Opcode::Mul)
        R = wrapMul(A, B);
      else {
        if (B == 0)
          VM_TRAP("division by zero in " + F.Method->QualifiedName);
        // INT64_MIN / -1 overflows (and SIGFPEs on x86); Java defines
        // the quotient as INT64_MIN and the remainder as 0.
        if (A == std::numeric_limits<int64_t>::min() && B == -1)
          R = I.Op == Opcode::Div ? A : 0;
        else
          R = I.Op == Opcode::Div ? A / B : A % B;
      }
      F.push(Value::makeInt(R));
      break;
    }

    case Opcode::Neg:
      F.push(Value::makeInt(wrapNeg(F.pop().Bits)));
      break;

    case Opcode::Not:
      F.push(Value::makeBool(F.pop().Bits == 0));
      break;

    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
    case Opcode::CmpEq:
    case Opcode::CmpNe: {
      int64_t B = F.pop().Bits;
      int64_t A = F.pop().Bits;
      F.push(Value::makeBool(evalCmp(I.Op, A, B)));
      break;
    }

    case Opcode::RefEq:
    case Opcode::RefNe: {
      Value B = F.pop();
      Value A = F.pop();
      bool Eq = A.Bits == B.Bits && A.IsRef == B.IsRef;
      F.push(Value::makeBool(I.Op == Opcode::RefEq ? Eq : !Eq));
      break;
    }

    case Opcode::Goto:
      NextPc = I.A;
      break;

    case Opcode::IfTrue:
      if (F.pop().Bits != 0)
        NextPc = I.A;
      break;

    case Opcode::IfFalse:
      if (F.pop().Bits == 0)
        NextPc = I.A;
      break;

    case Opcode::GetField: {
      Value Obj = F.pop();
      if (Obj.isNullRef())
        VM_TRAP("null dereference reading field " +
                M.Fields[static_cast<size_t>(I.A)].Name + " in " +
                F.Method->QualifiedName);
      HeapObject *O = deref(Obj, F);
      if (!O)
        return;
      const FieldInfo &Field = M.Fields[static_cast<size_t>(I.A)];
      if (Field.Slot < 0 ||
          Field.Slot >= static_cast<int32_t>(O->Slots.size()))
        VM_TRAP("field " + Field.Name + " not present on receiver in " +
                F.Method->QualifiedName);
      Value V = O->Slots[static_cast<size_t>(Field.Slot)];
      F.push(V);
      if (L && Plan.fieldHook(I.A))
        L->onGetField(Obj.ref(), I.A, V);
      break;
    }

    case Opcode::PutField: {
      Value V = F.pop();
      Value Obj = F.pop();
      if (Obj.isNullRef())
        VM_TRAP("null dereference writing field " +
                M.Fields[static_cast<size_t>(I.A)].Name + " in " +
                F.Method->QualifiedName);
      HeapObject *O = deref(Obj, F);
      if (!O)
        return;
      const FieldInfo &Field = M.Fields[static_cast<size_t>(I.A)];
      if (Field.Slot < 0 ||
          Field.Slot >= static_cast<int32_t>(O->Slots.size()))
        VM_TRAP("field " + Field.Name + " not present on receiver in " +
                F.Method->QualifiedName);
      O->Slots[static_cast<size_t>(Field.Slot)] = V;
      if (L && Plan.fieldHook(I.A))
        L->onPutField(Obj.ref(), I.A, V);
      break;
    }

    case Opcode::ALoad: {
      Value Idx = F.pop();
      Value Arr = F.pop();
      if (Arr.isNullRef())
        VM_TRAP("null array load in " + F.Method->QualifiedName);
      HeapObject *A = deref(Arr, F);
      if (!A)
        return;
      if (Idx.Bits < 0 || Idx.Bits >= static_cast<int64_t>(A->Slots.size()))
        VM_TRAP("array index " + std::to_string(Idx.Bits) +
                " out of bounds (length " + std::to_string(A->Slots.size()) +
                ") in " + F.Method->QualifiedName);
      Value V = A->Slots[static_cast<size_t>(Idx.Bits)];
      F.push(V);
      if (L && Plan.ArrayHooks)
        L->onArrayLoad(Arr.ref(), Idx.Bits, V);
      break;
    }

    case Opcode::AStore: {
      Value V = F.pop();
      Value Idx = F.pop();
      Value Arr = F.pop();
      if (Arr.isNullRef())
        VM_TRAP("null array store in " + F.Method->QualifiedName);
      HeapObject *A = deref(Arr, F);
      if (!A)
        return;
      if (Idx.Bits < 0 || Idx.Bits >= static_cast<int64_t>(A->Slots.size()))
        VM_TRAP("array index " + std::to_string(Idx.Bits) +
                " out of bounds (length " + std::to_string(A->Slots.size()) +
                ") in " + F.Method->QualifiedName);
      A->Slots[static_cast<size_t>(Idx.Bits)] = V;
      if (L && Plan.ArrayHooks)
        L->onArrayStore(Arr.ref(), Idx.Bits, V);
      break;
    }

    case Opcode::ArrayLen: {
      Value Arr = F.pop();
      if (Arr.isNullRef())
        VM_TRAP("null array length in " + F.Method->QualifiedName);
      HeapObject *A = deref(Arr, F);
      if (!A)
        return;
      F.push(Value::makeInt(static_cast<int64_t>(A->Slots.size())));
      break;
    }

    case Opcode::NewObject: {
      const ClassInfo &C = M.Classes[static_cast<size_t>(I.A)];
      if (!chargeAlloc(Heap::bytesFor(C.FieldIds.size()), F))
        return;
      ObjId Obj = H.allocObject(I.A);
      F.push(Value::makeRef(Obj));
      if (L && Plan.allocHook(I.A))
        L->onNewObject(Obj, I.A);
      break;
    }

    case Opcode::NewArray: {
      Value Len = F.pop();
      if (Len.Bits < 0)
        VM_TRAP("negative array length " + std::to_string(Len.Bits) +
                " in " + F.Method->QualifiedName);
      if (Len.Bits > Opts.MaxArrayLength)
        VM_TRAP("array length " + std::to_string(Len.Bits) +
                " exceeds limit " + std::to_string(Opts.MaxArrayLength) +
                " in " + F.Method->QualifiedName);
      if (!chargeAlloc(Heap::bytesFor(static_cast<uint64_t>(Len.Bits)), F))
        return;
      ObjId Arr = H.allocArray(I.A, Len.Bits);
      F.push(Value::makeRef(Arr));
      if (L && Plan.ArrayHooks)
        L->onNewArray(Arr, I.A, Len.Bits);
      break;
    }

    case Opcode::NewMulti: {
      Value Inner = F.pop();
      Value Outer = F.pop();
      if (Outer.Bits < 0 || Inner.Bits < 0)
        VM_TRAP("negative array length in " + F.Method->QualifiedName);
      if (Outer.Bits > Opts.MaxArrayLength ||
          Inner.Bits > Opts.MaxArrayLength ||
          (Inner.Bits > 0 && Outer.Bits > Opts.MaxArrayLength / Inner.Bits))
        VM_TRAP("multi-array dimensions " + std::to_string(Outer.Bits) + "x" +
                std::to_string(Inner.Bits) + " exceed limit " +
                std::to_string(Opts.MaxArrayLength) + " in " +
                F.Method->QualifiedName);
      TypeId OuterTy = I.A;
      TypeId InnerTy = M.Types[static_cast<size_t>(OuterTy)].Elem;
      if (!chargeAlloc(Heap::bytesFor(static_cast<uint64_t>(Outer.Bits)), F))
        return;
      ObjId Arr = H.allocArray(OuterTy, Outer.Bits);
      if (L && Plan.ArrayHooks)
        L->onNewArray(Arr, OuterTy, Outer.Bits);
      for (int64_t Row = 0; Row < Outer.Bits; ++Row) {
        if (!chargeAlloc(Heap::bytesFor(static_cast<uint64_t>(Inner.Bits)),
                         F))
          return;
        ObjId RowArr = H.allocArray(InnerTy, Inner.Bits);
        H.get(Arr).Slots[static_cast<size_t>(Row)] = Value::makeRef(RowArr);
        if (L && Plan.ArrayHooks)
          L->onNewArray(RowArr, InnerTy, Inner.Bits);
      }
      F.push(Value::makeRef(Arr));
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
        Value Recv = F.Stack[F.Stack.size() - static_cast<size_t>(Arity)];
        if (Recv.isNullRef())
          VM_TRAP("null receiver in call from " + F.Method->QualifiedName);
        HeapObject *O = deref(Recv, F);
        if (!O)
          return;
        int32_t RecvClass = O->ClassId;
        if (RecvClass < 0 ||
            RecvClass >= static_cast<int32_t>(M.Classes.size()))
          VM_TRAP("virtual call on non-object receiver in " +
                  F.Method->QualifiedName);
        const ClassInfo &C = M.Classes[static_cast<size_t>(RecvClass)];
        if (Slot < 0 || Slot >= static_cast<int32_t>(C.Vtable.size()))
          VM_TRAP("receiver class " + C.Name + " lacks virtual slot " +
                  std::to_string(Slot) + " in " + F.Method->QualifiedName);
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
                  Target.QualifiedName + " in " + F.Method->QualifiedName);
      }
      const MethodInfo &Callee = M.Methods[static_cast<size_t>(MethodId)];
      if (static_cast<int>(Frames.size()) >= Opts.MaxFrames)
        VM_TRAP("call stack overflow calling " + Callee.QualifiedName);
      std::vector<Value> Args(static_cast<size_t>(Callee.NumArgs));
      for (int32_t A = Callee.NumArgs - 1; A >= 0; --A)
        Args[static_cast<size_t>(A)] = F.pop();
      // The caller's pc stays at the call site; the return handler
      // advances it. enterMethod may reallocate Frames, invalidating F.
      enterMethod(MethodId, std::move(Args));
      continue;
    }

    case Opcode::Ret:
    case Opcode::RetVal: {
      bool HaveRV = I.Op == Opcode::RetVal;
      Value RV;
      if (HaveRV)
        RV = F.pop();
      leaveTopFrame();
      if (Frames.empty())
        return; // Normal program completion.
      Frame &Caller = Frames.back();
      int CallPc = Caller.Pc;
      if (HaveRV)
        Caller.push(RV);
      Caller.Pc = CallPc + 1;
      if (L)
        fireTransition(Caller, CallPc, Caller.Pc);
      continue;
    }

    case Opcode::Print: {
      Value V = F.pop();
      Io.Output.push_back(V.Bits);
      if (L && Plan.IoHooks)
        L->onOutputWrite();
      break;
    }

    case Opcode::ReadInt: {
      if (!Io.hasInput())
        VM_TRAP("input exhausted in " + F.Method->QualifiedName);
      F.push(Value::makeInt(Io.Input[Io.InputPos++]));
      if (L && Plan.IoHooks)
        L->onInputRead();
      break;
    }

    case Opcode::HasInput:
      F.push(Value::makeBool(Io.hasInput()));
      break;

    case Opcode::Trap:
      VM_TRAP("explicit trap in " + F.Method->QualifiedName);
    }

    if (L)
      fireTransition(F, F.Pc, NextPc);
    F.Pc = NextPc;
  }
}

#undef VM_TRAP

RunResult Machine::run(int32_t EntryMethodId) {
  const MethodInfo &Entry = M.Methods[static_cast<size_t>(EntryMethodId)];
  assert(Entry.IsStatic && Entry.NumArgs == 0 &&
         "entry must be a static no-arg method");
  (void)Entry;

  WantsInstr = L && L->wantsInstructionEvents();
  if (L) {
    ExecContext Ctx;
    Ctx.Module = &M;
    Ctx.TheHeap = &H;
    Ctx.Io = &Io;
    L->onProgramStart(Ctx);
  }

  enterMethod(EntryMethodId, {});

  // Guard thresholds, in units of Executed.
  constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();
  DeadlineCheckAt = Opts.RunDeadlineMs ? 0 : Never;
  StartMs = Opts.RunDeadlineMs ? nowMs() : 0;
  NextStop = 0; // Force the first iteration through onStop.

  RunResult R;
  bool BadAlloc = false;
  try {
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
