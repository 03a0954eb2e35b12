//===- tests/VmTest.cpp - Interpreter semantics tests ---------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <limits>

using namespace algoprof;
using namespace algoprof::testutil;

namespace {

TEST(Vm, Arithmetic) {
  auto Out = runOk(R"(
    class Main {
      static void main() {
        print(2 + 3 * 4);
        print(10 - 7);
        print(17 / 5);
        print(17 % 5);
        print(-17 / 5);
        print(-(3));
        print(2 * -3);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{14, 3, 3, 2, -3, -3, -6}));
}

TEST(Vm, DivRemOverflowBoundary) {
  // INT64_MIN / -1 overflows the quotient; Java (and our bytecode spec,
  // see bc::Opcode::Div) defines it as INT64_MIN with remainder 0. This
  // used to die with SIGFPE on x86 (hardware #DE) instead of printing.
  auto Out = runOk(R"(
    class Main {
      static void main() {
        int min = -9223372036854775807 - 1;
        print(min / -1);
        print(min % -1);
        print(min / 1);
        print(min % 1);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{
                     std::numeric_limits<int64_t>::min(), 0,
                     std::numeric_limits<int64_t>::min(), 0}));
}

TEST(Vm, ArithmeticWrapsAroundLikeJava) {
  // Add/Sub/Mul/Neg are defined as two's-complement wraparound, not UB.
  auto Out = runOk(R"(
    class Main {
      static void main() {
        int max = 9223372036854775807;
        int min = -9223372036854775807 - 1;
        print(max + 1);
        print(min - 1);
        print(max * 2);
        print(-min);
        print(max + max);
        print(min * -1);
      }
    }
  )");
  int64_t Min = std::numeric_limits<int64_t>::min();
  int64_t Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(Out, (std::vector<int64_t>{Min, Max, -2, Min, -2, Min}));
}

TEST(Vm, Comparisons) {
  auto Out = runOk(R"(
    class Main {
      static void main() {
        print(1 < 2);
        print(2 <= 2);
        print(3 > 4);
        print(4 >= 5);
        print(5 == 5);
        print(5 != 5);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{1, 1, 0, 0, 1, 0}));
}

TEST(Vm, ShortCircuit) {
  // The right operand must not evaluate when short-circuited: a trap in
  // it would abort the run.
  auto Out = runOk(R"(
    class Main {
      static boolean boom() {
        int[] a = null;
        return a[0] == 0;
      }
      static void main() {
        boolean f = false;
        print(f && boom());
        boolean t = true;
        print(t || boom());
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{0, 1}));
}

TEST(Vm, LocalsAndIncDec) {
  auto Out = runOk(R"(
    class Main {
      static void main() {
        int x = 5;
        print(x++);
        print(x);
        print(++x);
        print(x--);
        print(--x);
        print(x);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{5, 6, 7, 7, 5, 5}));
}

TEST(Vm, FieldIncDecAndAssignValue) {
  auto Out = runOk(R"(
    class Counter { int c; }
    class Main {
      static void main() {
        Counter k = new Counter();
        print(k.c++);
        print(++k.c);
        int v = (k.c = 10);
        print(v);
        print(k.c);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{0, 2, 10, 10}));
}

TEST(Vm, ArrayIncDecAndPostfixIndex) {
  auto Out = runOk(R"(
    class Main {
      static void main() {
        int[] a = new int[3];
        int i = 0;
        a[i++] = 7;
        print(a[0]);
        print(i);
        a[1]++;
        print(a[1]);
        print(a[1]--);
        print(a[1]);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{7, 1, 1, 1, 0}));
}

TEST(Vm, WhileForBreakContinue) {
  auto Out = runOk(R"(
    class Main {
      static void main() {
        int s = 0;
        for (int i = 0; i < 10; i++) {
          if (i % 2 == 1) {
            continue;
          }
          if (i == 8) {
            break;
          }
          s = s + i;
        }
        print(s);
        int n = 3;
        while (n > 0) {
          n--;
        }
        print(n);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{12, 0}));
}

TEST(Vm, ObjectFieldsDefaultInitialized) {
  auto Out = runOk(R"(
    class P { int x; boolean b; P next; }
    class Main {
      static void main() {
        P p = new P();
        print(p.x);
        print(p.b);
        print(p.next == null);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{0, 0, 1}));
}

TEST(Vm, ConstructorRuns) {
  auto Out = runOk(R"(
    class P {
      int x;
      P(int x) { this.x = x * 2; }
    }
    class Main {
      static void main() {
        print(new P(21).x);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{42}));
}

TEST(Vm, VirtualDispatch) {
  auto Out = runOk(R"(
    class A { int tag() { return 1; } }
    class B extends A { int tag() { return 2; } }
    class C extends B { }
    class D extends A { int tag() { return 4; } }
    class Main {
      static void main() {
        A a = new A();
        A b = new B();
        A c = new C();
        A d = new D();
        print(a.tag());
        print(b.tag());
        print(c.tag());
        print(d.tag());
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{1, 2, 2, 4}));
}

TEST(Vm, InheritedFieldsShareLayout) {
  auto Out = runOk(R"(
    class A { int a; int ga() { return a; } }
    class B extends A { int b; }
    class Main {
      static void main() {
        B x = new B();
        x.a = 10;
        x.b = 20;
        print(x.ga());
        print(x.a + x.b);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{10, 30}));
}

TEST(Vm, StaticCalls) {
  auto Out = runOk(R"(
    class Util { static int twice(int x) { return x * 2; } }
    class Main {
      static int add(int a, int b) { return a + b; }
      static void main() {
        print(add(Util.twice(3), 4));
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{10}));
}

TEST(Vm, Recursion) {
  auto Out = runOk(R"(
    class Main {
      static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
      }
      static void main() {
        print(fib(10));
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{55}));
}

TEST(Vm, MultiDimArrays) {
  auto Out = runOk(R"(
    class Main {
      static void main() {
        int[][] m = new int[2][3];
        m[1][2] = 42;
        print(m.length);
        print(m[0].length);
        print(m[1][2]);
        print(m[0][0]);
        int[][] jag = new int[2][];
        jag[0] = new int[5];
        print(jag[0].length);
        print(jag[1] == null);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{2, 3, 42, 0, 5, 1}));
}

TEST(Vm, ReferenceEquality) {
  auto Out = runOk(R"(
    class P { }
    class Main {
      static void main() {
        P a = new P();
        P b = new P();
        P c = a;
        print(a == b);
        print(a == c);
        print(a != b);
        print(a == null);
        print(null == null);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{0, 1, 1, 0, 1}));
}

TEST(Vm, InputOutputChannels) {
  auto Out = runOk(R"(
    class Main {
      static void main() {
        int s = 0;
        while (hasInput()) {
          s = s + readInt();
        }
        print(s);
      }
    }
  )",
                   {1, 2, 3, 4});
  EXPECT_EQ(Out, (std::vector<int64_t>{10}));
}

TEST(Vm, TrapNullFieldAccess) {
  runTraps(R"(
    class P { P next; }
    class Main {
      static void main() {
        P p = null;
        p.next = null;
      }
    }
  )",
           "null dereference");
}

TEST(Vm, TrapNullArray) {
  runTraps(R"(
    class Main {
      static void main() {
        int[] a = null;
        a[0] = 1;
      }
    }
  )",
           "null array");
}

TEST(Vm, TrapIndexOutOfBounds) {
  runTraps(R"(
    class Main {
      static void main() {
        int[] a = new int[3];
        a[3] = 1;
      }
    }
  )",
           "out of bounds");
}

TEST(Vm, TrapNegativeIndex) {
  runTraps(R"(
    class Main {
      static void main() {
        int[] a = new int[3];
        print(a[-1]);
      }
    }
  )",
           "out of bounds");
}

TEST(Vm, TrapDivisionByZero) {
  runTraps(R"(
    class Main {
      static void main() {
        int z = 0;
        print(1 / z);
      }
    }
  )",
           "division by zero");
}

TEST(Vm, TrapRemainderByZero) {
  runTraps(R"(
    class Main {
      static void main() {
        int z = 0;
        print(1 % z);
      }
    }
  )",
           "division by zero");
}

TEST(Vm, TrapNegativeArrayLength) {
  runTraps(R"(
    class Main {
      static void main() {
        int n = -4;
        int[] a = new int[n];
      }
    }
  )",
           "negative array length");
}

TEST(Vm, TrapInputExhausted) {
  runTraps(R"(
    class Main {
      static void main() {
        print(readInt());
      }
    }
  )",
           "input exhausted");
}

TEST(Vm, TrapNullReceiver) {
  runTraps(R"(
    class P { void m() { } }
    class Main {
      static void main() {
        P p = null;
        p.m();
      }
    }
  )",
           "null receiver");
}

TEST(Vm, TrapStackOverflow) {
  auto CP = compile(R"(
    class Main {
      static int down(int n) { return down(n + 1); }
      static void main() { print(down(0)); }
    }
  )");
  ASSERT_TRUE(CP);
  vm::IoChannels Io;
  vm::RunOptions Opts;
  Opts.MaxFrames = 64;
  vm::RunResult R = prof::runPlain(*CP, "Main", "main", &Io, Opts);
  EXPECT_EQ(R.Status, vm::RunStatus::Trapped);
  EXPECT_NE(R.TrapMessage.find("stack overflow"), std::string::npos);
}

TEST(Vm, FuelExhaustion) {
  auto CP = compile(R"(
    class Main {
      static void main() {
        int x = 0;
        while (true) { x = x + 1; }
      }
    }
  )");
  ASSERT_TRUE(CP);
  vm::IoChannels Io;
  vm::RunOptions Opts;
  Opts.Fuel = 10'000;
  vm::RunResult R = prof::runPlain(*CP, "Main", "main", &Io, Opts);
  EXPECT_EQ(R.Status, vm::RunStatus::FuelExhausted);
  EXPECT_EQ(R.InstrCount, 10'000u);
}

TEST(Vm, FuelCutsAtExactInstruction) {
  // Fuel is a hard cap on executed instructions: the run stops having
  // executed exactly Fuel of them, wherever in the program that lands.
  auto CP = compile(
      programs::insertionSortProgram(16, 8, 1, programs::InputOrder::Random));
  ASSERT_TRUE(CP);
  for (uint64_t Fuel : {5u, 37u, 100u, 1000u}) {
    vm::IoChannels Io;
    vm::RunOptions Opts;
    Opts.Fuel = Fuel;
    vm::RunResult R = prof::runPlain(*CP, "Main", "main", &Io, Opts);
    EXPECT_EQ(R.Status, vm::RunStatus::FuelExhausted) << "fuel=" << Fuel;
    EXPECT_EQ(R.InstrCount, Fuel);
  }
}

TEST(Vm, PolymorphicVirtualCalls) {
  // One call site, receivers cycling through a base class and two
  // overriding subclasses. Hand-computed over i = 0..59:
  // Shape (i % 3 == 0) sums to 570, Square (i % 3 == 1) to 23390,
  // Twice (i % 3 == 2) to 1220.
  auto Out = runOk(R"(
    class Shape {
      int area(int x) { return x; }
    }
    class Square extends Shape {
      int area(int x) { return x * x; }
    }
    class Twice extends Shape {
      int area(int x) { return x + x; }
    }
    class Main {
      static void main() {
        Shape[] shapes = new Shape[3];
        shapes[0] = new Shape();
        shapes[1] = new Square();
        shapes[2] = new Twice();
        int i = 0;
        int acc = 0;
        while (i < 60) {
          Shape s = shapes[i - i / 3 * 3];
          acc = acc + s.area(i);
          i = i + 1;
        }
        print(acc);
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{25180}));
}

TEST(Vm, InstrCountDeterministic) {
  const char *Src = R"(
    class Main {
      static void main() {
        int s = 0;
        for (int i = 0; i < 100; i++) { s = s + i; }
        print(s);
      }
    }
  )";
  RunOutcome A = run(Src);
  RunOutcome B = run(Src);
  ASSERT_TRUE(A.Result.ok());
  EXPECT_EQ(A.Result.InstrCount, B.Result.InstrCount);
  EXPECT_EQ(A.Output, (std::vector<int64_t>{4950}));
}

TEST(Vm, FuelCutUnderProfilerCountsExactly) {
  // With the profiler attached, the cut still lands after exactly Fuel
  // instructions: listener callbacks never skew the count.
  auto CP = compile(
      programs::insertionSortProgram(16, 8, 1, programs::InputOrder::Random));
  ASSERT_TRUE(CP);
  for (uint64_t Fuel : {1u, 37u, 500u, 1492u}) {
    prof::SessionOptions SO;
    SO.Run.Fuel = Fuel;
    prof::ProfileSession S(*CP, SO);
    vm::RunResult R = S.run("Main", "main");
    EXPECT_EQ(R.Status, vm::RunStatus::FuelExhausted) << "fuel=" << Fuel;
    EXPECT_EQ(R.InstrCount, Fuel);
  }
}

uint64_t FakeNowMs = 0;
uint64_t fakeClock() { return ++FakeNowMs; }

TEST(Vm, DeadlineTripsAtSameInstructionWithAndWithoutListener) {
  // Under an injected clock the deadline check runs at fixed
  // instruction counts, so the profiled run must stop exactly where the
  // plain one does.
  auto CP = compile(R"(
    class Main {
      static void main() {
        int[] a = new int[8];
        int i = 0;
        while (true) {
          a[i - i / 8 * 8] = i;
          i = i + 1;
        }
      }
    }
  )");
  ASSERT_TRUE(CP);
  vm::RunOptions Opts;
  Opts.RunDeadlineMs = 3;
  Opts.ClockNowMs = fakeClock;

  FakeNowMs = 0;
  vm::IoChannels Io;
  vm::RunResult Plain = prof::runPlain(*CP, "Main", "main", &Io, Opts);
  ASSERT_EQ(Plain.Status, vm::RunStatus::BudgetExceeded);
  ASSERT_EQ(Plain.Budget, "deadline");

  FakeNowMs = 0;
  prof::SessionOptions SO;
  SO.Run = Opts;
  prof::ProfileSession S(*CP, SO);
  vm::RunResult Profiled = S.run("Main", "main");
  EXPECT_EQ(Profiled.Status, Plain.Status);
  EXPECT_EQ(Profiled.Budget, Plain.Budget);
  EXPECT_EQ(Profiled.InstrCount, Plain.InstrCount);
  EXPECT_EQ(Profiled.TrapMessage, Plain.TrapMessage);
}

} // namespace
