//===- tests/BytecodeLevelTest.cpp - VM tests on hand-built modules -------===//
//
// Exercises the interpreter below the front end: modules assembled
// instruction by instruction, so VM semantics are pinned independently
// of the compiler's code shapes.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace algoprof;
using namespace algoprof::bc;
using namespace algoprof::vm;

namespace {

/// Builds a module with one static no-arg int method "T.f" whose body is
/// \p Code (must end in RetVal), plus a void "T.main" that prints f().
struct TinyModule {
  Module M;
  int32_t EntryId = -1;

  explicit TinyModule(std::vector<Instr> Code, int32_t NumLocals = 4) {
    M.IntTypeId = 0;
    M.Types.push_back({RtTypeKind::Int, -1, -1});
    M.BoolTypeId = 1;
    M.Types.push_back({RtTypeKind::Bool, -1, -1});

    ClassInfo C;
    C.Id = 0;
    C.Name = "T";
    C.Type = static_cast<TypeId>(M.Types.size());
    M.Types.push_back({RtTypeKind::Class, 0, -1});
    M.Classes.push_back(C);

    MethodInfo F;
    F.Id = 0;
    F.ClassId = 0;
    F.Name = "f";
    F.IsStatic = true;
    F.NumArgs = 0;
    F.NumLocals = NumLocals;
    F.ReturnType = M.IntTypeId;
    F.ReturnsValue = true;
    F.QualifiedName = "T.f";
    F.Code = std::move(Code);
    M.Methods.push_back(std::move(F));

    MethodInfo MainM;
    MainM.Id = 1;
    MainM.ClassId = 0;
    MainM.Name = "main";
    MainM.IsStatic = true;
    MainM.NumArgs = 0;
    MainM.NumLocals = 0;
    MainM.ReturnType = -1;
    MainM.QualifiedName = "T.main";
    MainM.Code = {{Opcode::InvokeStatic, 0, 0, 0},
                  {Opcode::Print, 0, 0, 0},
                  {Opcode::Ret, 0, 0, 0}};
    M.Methods.push_back(std::move(MainM));
    EntryId = 1;
  }
};

RunResult runTiny(TinyModule &T, std::vector<int64_t> &Output,
                  uint64_t Fuel = 1'000'000) {
  PreparedProgram P = PreparedProgram::prepare(T.M);
  Interpreter Interp(P);
  InstrumentationPlan Plan = InstrumentationPlan::all(T.M);
  IoChannels Io;
  RunOptions Opts;
  Opts.Fuel = Fuel;
  RunResult R = Interp.run(T.EntryId, nullptr, Plan, Io, Opts);
  Output = Io.Output;
  return R;
}

TEST(BytecodeLevel, ConstantReturn) {
  TinyModule T({{Opcode::IConst, 0, 0, 77}, {Opcode::RetVal, 0, 0, 0}});
  std::vector<int64_t> Out;
  ASSERT_TRUE(runTiny(T, Out).ok());
  EXPECT_EQ(Out, (std::vector<int64_t>{77}));
}

TEST(BytecodeLevel, ArithmeticStackDiscipline) {
  // (10 - 3) * (2 + 4) % 5 = 42 % 5 = 2.
  TinyModule T({
      {Opcode::IConst, 0, 0, 10},
      {Opcode::IConst, 0, 0, 3},
      {Opcode::Sub, 0, 0, 0},
      {Opcode::IConst, 0, 0, 2},
      {Opcode::IConst, 0, 0, 4},
      {Opcode::Add, 0, 0, 0},
      {Opcode::Mul, 0, 0, 0},
      {Opcode::IConst, 0, 0, 5},
      {Opcode::Rem, 0, 0, 0},
      {Opcode::RetVal, 0, 0, 0},
  });
  std::vector<int64_t> Out;
  ASSERT_TRUE(runTiny(T, Out).ok());
  EXPECT_EQ(Out, (std::vector<int64_t>{2}));
}

TEST(BytecodeLevel, LocalsAndBranching) {
  // sum = 0; for (i = 5; i > 0; i--) sum += i;  -> 15.
  TinyModule T2({
      /*0*/ {Opcode::IConst, 0, 0, 0},
      /*1*/ {Opcode::Store, 0, 0, 0},
      /*2*/ {Opcode::IConst, 0, 0, 5},
      /*3*/ {Opcode::Store, 1, 0, 0},
      /*4*/ {Opcode::Load, 1, 0, 0},
      /*5*/ {Opcode::IConst, 0, 0, 0},
      /*6*/ {Opcode::CmpGt, 0, 0, 0},
      /*7*/ {Opcode::IfFalse, 18, 0, 0},
      /*8*/ {Opcode::Load, 0, 0, 0},
      /*9*/ {Opcode::Load, 1, 0, 0},
      /*10*/ {Opcode::Add, 0, 0, 0},
      /*11*/ {Opcode::Store, 0, 0, 0},
      /*12*/ {Opcode::Load, 1, 0, 0},
      /*13*/ {Opcode::IConst, 0, 0, 1},
      /*14*/ {Opcode::Sub, 0, 0, 0},
      /*15*/ {Opcode::Store, 1, 0, 0},
      /*16*/ {Opcode::Nop, 0, 0, 0},
      /*17*/ {Opcode::Goto, 4, 0, 0},
      /*18*/ {Opcode::Load, 0, 0, 0},
      /*19*/ {Opcode::RetVal, 0, 0, 0},
  });
  std::vector<int64_t> Out;
  ASSERT_TRUE(runTiny(T2, Out).ok());
  EXPECT_EQ(Out, (std::vector<int64_t>{15}));
}

TEST(BytecodeLevel, DupAndPop) {
  TinyModule T({
      {Opcode::IConst, 0, 0, 6},
      {Opcode::Dup, 0, 0, 0},
      {Opcode::Mul, 0, 0, 0}, // 36
      {Opcode::IConst, 0, 0, 99},
      {Opcode::Pop, 0, 0, 0}, // Discard the 99.
      {Opcode::RetVal, 0, 0, 0},
  });
  std::vector<int64_t> Out;
  ASSERT_TRUE(runTiny(T, Out).ok());
  EXPECT_EQ(Out, (std::vector<int64_t>{36}));
}

TEST(BytecodeLevel, NegNotComparisons) {
  // !(-(5) < 0) == false -> 0.
  TinyModule T({
      {Opcode::IConst, 0, 0, 5},
      {Opcode::Neg, 0, 0, 0},
      {Opcode::IConst, 0, 0, 0},
      {Opcode::CmpLt, 0, 0, 0},
      {Opcode::Not, 0, 0, 0},
      {Opcode::RetVal, 0, 0, 0},
  });
  std::vector<int64_t> Out;
  ASSERT_TRUE(runTiny(T, Out).ok());
  EXPECT_EQ(Out, (std::vector<int64_t>{0}));
}

TEST(BytecodeLevel, ExplicitTrapOpcode) {
  TinyModule T({{Opcode::Trap, 0, 0, 0}});
  std::vector<int64_t> Out;
  RunResult R = runTiny(T, Out);
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_NE(R.TrapMessage.find("explicit trap"), std::string::npos);
}

TEST(BytecodeLevel, FuelCountsInstructionsExactly) {
  // An infinite two-instruction loop: fuel must stop it at the budget.
  TinyModule T({
      {Opcode::Nop, 0, 0, 0},
      {Opcode::Goto, 0, 0, 0},
  });
  std::vector<int64_t> Out;
  RunResult R = runTiny(T, Out, /*Fuel=*/1000);
  EXPECT_EQ(R.Status, RunStatus::FuelExhausted);
  EXPECT_EQ(R.InstrCount, 1000u);
}

TEST(BytecodeLevel, NewArrayAndAccess) {
  TinyModule T({
      {Opcode::IConst, 0, 0, 3},
      {Opcode::NewArray, /*set below*/ 0, 0, 0},
      {Opcode::Store, 0, 0, 0},
      // a[1] = 42
      {Opcode::Load, 0, 0, 0},
      {Opcode::IConst, 0, 0, 1},
      {Opcode::IConst, 0, 0, 42},
      {Opcode::AStore, 0, 0, 0},
      // return a[1] + a.length
      {Opcode::Load, 0, 0, 0},
      {Opcode::IConst, 0, 0, 1},
      {Opcode::ALoad, 0, 0, 0},
      {Opcode::Load, 0, 0, 0},
      {Opcode::ArrayLen, 0, 0, 0},
      {Opcode::Add, 0, 0, 0},
      {Opcode::RetVal, 0, 0, 0},
  });
  // Intern int[] and patch the NewArray operand.
  TypeId IntArr = T.M.internArrayType(T.M.IntTypeId);
  T.M.Methods[0].Code[1].A = IntArr;
  std::vector<int64_t> Out;
  ASSERT_TRUE(runTiny(T, Out).ok());
  EXPECT_EQ(Out, (std::vector<int64_t>{45}));
}

TEST(BytecodeLevel, InconsistentStackDepthTrapsOnEntry) {
  // The two paths into pc 4 arrive with different stack depths, so f has
  // no operand-stack bound: the verifier rejects it, and a run that
  // calls it anyway traps on entry instead of overrunning the stack.
  TinyModule T({
      /*0*/ {Opcode::IConst, 0, 0, 1},
      /*1*/ {Opcode::IfFalse, 4, 0, 0},
      /*2*/ {Opcode::IConst, 0, 0, 5},
      /*3*/ {Opcode::Goto, 4, 0, 0},
      /*4*/ {Opcode::IConst, 0, 0, 7},
      /*5*/ {Opcode::RetVal, 0, 0, 0},
  });
  EXPECT_FALSE(verifyModule(T.M).empty());
  EXPECT_EQ(maxStackDepth(T.M, T.M.Methods[0]), -1);
  EXPECT_GE(maxStackDepth(T.M, T.M.Methods[1]), 1);

  std::vector<int64_t> Out;
  RunResult R = runTiny(T, Out);
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_NE(R.TrapMessage.find("T.f failed verification"), std::string::npos)
      << R.TrapMessage;
  EXPECT_EQ(R.InstrCount, 1u); // Only main's call ran.
  EXPECT_TRUE(Out.empty());
}

TEST(BytecodeLevel, MaxStackDepthIsTheDeepestPoint) {
  TinyModule T({
      {Opcode::IConst, 0, 0, 1},
      {Opcode::IConst, 0, 0, 2},
      {Opcode::Dup, 0, 0, 0}, // Depth 3 here.
      {Opcode::Add, 0, 0, 0},
      {Opcode::Add, 0, 0, 0},
      {Opcode::RetVal, 0, 0, 0},
  });
  EXPECT_TRUE(verifyModule(T.M).empty());
  EXPECT_EQ(maxStackDepth(T.M, T.M.Methods[0]), 3);
  EXPECT_EQ(maxStackDepth(T.M, T.M.Methods[1]), 1);
  std::vector<int64_t> Out;
  ASSERT_TRUE(runTiny(T, Out).ok());
  EXPECT_EQ(Out, (std::vector<int64_t>{5}));
}

TEST(BytecodeLevel, SingleBlockLoopFiresBackEdgeOnItsTakenSlot) {
  // x = 3; do { x = x - 1; } while (x != 0): pcs 2..7 are one block
  // whose branch jumps to its own first pc, a shape the compiler never
  // emits. The self edge is the back edge and sits in Taken[7].
  TinyModule T({
      /*0*/ {Opcode::IConst, 0, 0, 3},
      /*1*/ {Opcode::Store, 0, 0, 0},
      /*2*/ {Opcode::Load, 0, 0, 0},
      /*3*/ {Opcode::IConst, 0, 0, 1},
      /*4*/ {Opcode::Sub, 0, 0, 0},
      /*5*/ {Opcode::Dup, 0, 0, 0},
      /*6*/ {Opcode::Store, 0, 0, 0},
      /*7*/ {Opcode::IfTrue, 2, 0, 0},
      /*8*/ {Opcode::Load, 0, 0, 0},
      /*9*/ {Opcode::RetVal, 0, 0, 0},
  });
  ASSERT_TRUE(verifyModule(T.M).empty());
  PreparedProgram P = PreparedProgram::prepare(T.M);
  const LoopEventMap &LEM = P.Methods[0].Events;
  ASSERT_GE(LEM.Taken[7], 0);
  EXPECT_EQ(LEM.Edges[static_cast<size_t>(LEM.Taken[7])].BackEdge, 0);
  ASSERT_GE(LEM.Fall[7], 0); // Leaving the loop.
  EXPECT_EQ(LEM.Edges[static_cast<size_t>(LEM.Fall[7])].Exits,
            (std::vector<int32_t>{0}));

  struct Counter : ExecutionListener {
    int Enters = 0, BackEdges = 0, Exits = 0;
    void onLoopEnter(int32_t, int32_t) override { ++Enters; }
    void onLoopBackEdge(int32_t, int32_t) override { ++BackEdges; }
    void onLoopExit(int32_t, int32_t) override { ++Exits; }
  } Events;
  Interpreter Interp(P);
  InstrumentationPlan Plan = InstrumentationPlan::all(T.M);
  IoChannels Io;
  ASSERT_TRUE(Interp.run(T.EntryId, &Events, Plan, Io).ok());
  EXPECT_EQ(Io.Output, (std::vector<int64_t>{0}));
  EXPECT_EQ(Events.Enters, 1);
  EXPECT_EQ(Events.BackEdges, 2); // Three iterations.
  EXPECT_EQ(Events.Exits, 1);
}

} // namespace
