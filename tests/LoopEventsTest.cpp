//===- tests/LoopEventsTest.cpp - Loop event delivery ---------------------===//
//
// Verifies the VM's loop instrumentation contract: enters, back edges,
// and exits balance exactly — including break, continue, early return,
// and trap unwinding (the paper's exceptional control flow rule).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "fuzz/ProgramGen.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace algoprof;
using namespace algoprof::testutil;

namespace {

struct EventCounts {
  int64_t Enters = 0;
  int64_t BackEdges = 0;
  int64_t Exits = 0;
};

class RecordingListener : public vm::ExecutionListener {
public:
  std::map<std::pair<int32_t, int32_t>, EventCounts> Loops;
  std::map<int32_t, int64_t> MethodEnters, MethodExits;
  std::vector<std::string> Trace;

  void onLoopEnter(int32_t M, int32_t L) override {
    ++Loops[{M, L}].Enters;
    Trace.push_back("enter " + std::to_string(M) + ":" + std::to_string(L));
  }
  void onLoopBackEdge(int32_t M, int32_t L) override {
    ++Loops[{M, L}].BackEdges;
  }
  void onLoopExit(int32_t M, int32_t L) override {
    ++Loops[{M, L}].Exits;
    Trace.push_back("exit " + std::to_string(M) + ":" + std::to_string(L));
  }
  void onMethodEnter(int32_t M) override { ++MethodEnters[M]; }
  void onMethodExit(int32_t M) override { ++MethodExits[M]; }
};

struct Profiled {
  RecordingListener Listener;
  vm::RunResult Result;
};

Profiled runWithListener(const std::string &Src) {
  Profiled P;
  auto CP = compile(Src);
  if (!CP)
    return P;
  vm::Interpreter Interp(CP->Prep);
  vm::InstrumentationPlan Plan = vm::InstrumentationPlan::all(*CP->Mod);
  vm::IoChannels Io;
  int32_t Entry = CP->entryMethod("Main", "main");
  EXPECT_GE(Entry, 0);
  P.Result = Interp.run(Entry, &P.Listener, Plan, Io);
  return P;
}

EventCounts totals(const Profiled &P) {
  EventCounts Sum;
  for (const auto &[Key, C] : P.Listener.Loops) {
    (void)Key;
    Sum.Enters += C.Enters;
    Sum.BackEdges += C.BackEdges;
    Sum.Exits += C.Exits;
  }
  return Sum;
}

TEST(LoopEvents, SimpleForLoop) {
  Profiled P = runWithListener(R"(
    class Main {
      static void main() {
        int s = 0;
        for (int i = 0; i < 7; i++) { s = s + i; }
        print(s);
      }
    }
  )");
  ASSERT_TRUE(P.Result.ok()) << P.Result.TrapMessage;
  EventCounts T = totals(P);
  EXPECT_EQ(T.Enters, 1);
  EXPECT_EQ(T.BackEdges, 7); // One per completed iteration.
  EXPECT_EQ(T.Exits, 1);
}

TEST(LoopEvents, ZeroIterationLoop) {
  Profiled P = runWithListener(R"(
    class Main {
      static void main() {
        int n = 0;
        while (n > 0) { n--; }
        print(n);
      }
    }
  )");
  ASSERT_TRUE(P.Result.ok());
  EventCounts T = totals(P);
  EXPECT_EQ(T.Enters, 1);
  EXPECT_EQ(T.BackEdges, 0);
  EXPECT_EQ(T.Exits, 1);
}

TEST(LoopEvents, NestedLoopListing3) {
  // Paper Listing 3: outer 3 iterations + inner 0+1+2 = 6 total steps.
  Profiled P = runWithListener(R"(
    class Main {
      static void main() {
        for (int o = 0; o < 3; o++) {
          for (int i = 0; i < o; i++) {
          }
        }
      }
    }
  )");
  ASSERT_TRUE(P.Result.ok());
  EventCounts T = totals(P);
  EXPECT_EQ(T.BackEdges, 3 + 0 + 1 + 2);
  // Inner loop entered once per outer iteration.
  EXPECT_EQ(T.Enters, 1 + 3);
  EXPECT_EQ(T.Exits, 1 + 3);
}

TEST(LoopEvents, BreakFiresExit) {
  Profiled P = runWithListener(R"(
    class Main {
      static void main() {
        int i = 0;
        while (true) {
          i++;
          if (i == 4) { break; }
        }
        print(i);
      }
    }
  )");
  ASSERT_TRUE(P.Result.ok());
  EventCounts T = totals(P);
  EXPECT_EQ(T.Enters, 1);
  EXPECT_EQ(T.Exits, 1);
  EXPECT_EQ(T.BackEdges, 3); // Three completed iterations before break.
}

TEST(LoopEvents, ContinueCountsAsBackEdge) {
  Profiled P = runWithListener(R"(
    class Main {
      static void main() {
        int s = 0;
        for (int i = 0; i < 6; i++) {
          if (i % 2 == 0) { continue; }
          s = s + i;
        }
        print(s);
      }
    }
  )");
  ASSERT_TRUE(P.Result.ok());
  EventCounts T = totals(P);
  EXPECT_EQ(T.BackEdges, 6);
  EXPECT_EQ(T.Enters, 1);
  EXPECT_EQ(T.Exits, 1);
}

TEST(LoopEvents, BreakOutOfNestedLoopsExitsBoth) {
  Profiled P = runWithListener(R"(
    class Main {
      static void main() {
        int found = 0;
        for (int i = 0; i < 3 && found == 0; i++) {
          for (int j = 0; j < 3; j++) {
            if (i * 3 + j == 4) {
              found = 1;
              break;
            }
          }
        }
        print(found);
      }
    }
  )");
  ASSERT_TRUE(P.Result.ok());
  EventCounts T = totals(P);
  EXPECT_EQ(T.Enters, T.Exits); // Fully balanced.
}

TEST(LoopEvents, ReturnInsideLoopFiresExits) {
  Profiled P = runWithListener(R"(
    class Main {
      static int find() {
        for (int i = 0; i < 10; i++) {
          for (int j = 0; j < 10; j++) {
            if (i + j == 5) { return i * 10 + j; }
          }
        }
        return -1;
      }
      static void main() { print(find()); }
    }
  )");
  ASSERT_TRUE(P.Result.ok());
  EventCounts T = totals(P);
  EXPECT_EQ(T.Enters, T.Exits);
}

TEST(LoopEvents, TrapUnwindingBalancesEvents) {
  Profiled P = runWithListener(R"(
    class Main {
      static void boom() {
        int[] a = new int[2];
        for (int i = 0; i < 5; i++) {
          a[i] = i; // Out of bounds at i == 2.
        }
      }
      static void main() {
        for (int r = 0; r < 3; r++) {
          boom();
        }
      }
    }
  )");
  EXPECT_EQ(P.Result.Status, vm::RunStatus::Trapped);
  EventCounts T = totals(P);
  EXPECT_EQ(T.Enters, T.Exits); // Unwinding closed every open loop.
}

TEST(LoopEvents, MethodEntersBalanceExitsOnTrap) {
  Profiled P = runWithListener(R"(
    class Main {
      static void depth(int n) {
        if (n == 0) {
          int z = 0;
          print(1 / z);
        }
        depth(n - 1);
      }
      static void main() { depth(3); }
    }
  )");
  EXPECT_EQ(P.Result.Status, vm::RunStatus::Trapped);
  int64_t Enters = 0, Exits = 0;
  for (const auto &[M, C] : P.Listener.MethodEnters) {
    (void)M;
    Enters += C;
  }
  for (const auto &[M, C] : P.Listener.MethodExits) {
    (void)M;
    Exits += C;
  }
  EXPECT_EQ(Enters, Exits);
}

TEST(LoopEvents, LoopAtMethodEntry) {
  // A method whose body starts with a while loop: the loop header is
  // pc 0, so entry events fire on method entry.
  Profiled P = runWithListener(R"(
    class Main {
      static int count(int n) {
        while (n > 0) { n--; }
        return n;
      }
      static void main() { print(count(5)); }
    }
  )");
  ASSERT_TRUE(P.Result.ok());
  EventCounts T = totals(P);
  EXPECT_EQ(T.Enters, 1);
  EXPECT_EQ(T.BackEdges, 5);
  EXPECT_EQ(T.Exits, 1);
}

TEST(LoopEvents, EnterExitProperlyNested) {
  Profiled P = runWithListener(R"(
    class Main {
      static void main() {
        for (int i = 0; i < 2; i++) {
          for (int j = 0; j < 2; j++) {
            print(i * 2 + j);
          }
        }
      }
    }
  )");
  ASSERT_TRUE(P.Result.ok());
  // The trace must be balanced like parentheses.
  std::vector<std::string> Stack;
  for (const std::string &Ev : P.Listener.Trace) {
    if (Ev.rfind("enter ", 0) == 0) {
      Stack.push_back(Ev.substr(6));
    } else {
      ASSERT_FALSE(Stack.empty()) << "exit without enter: " << Ev;
      EXPECT_EQ(Stack.back(), Ev.substr(5));
      Stack.pop_back();
    }
  }
  EXPECT_TRUE(Stack.empty());
}

TEST(LoopEvents, TrapTwoFramesDeepUnwindsInnermostFirstPerFrame) {
  // The trap hits inside f's inner loop while main's loop is open one
  // frame below: unwinding closes f's loops innermost-first at the
  // trapping pc, then f, then main's loop, then main.
  auto CP = compile(R"(
    class Main {
      static int f(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
          for (int j = 0; j < n; j++) {
            s = s + 10 / (j - 1); // Division by zero at j == 1.
          }
        }
        return s;
      }
      static void main() {
        int t = 0;
        for (int r = 0; r < 3; r++) {
          t = t + f(2);
        }
        print(t);
      }
    }
  )");
  ASSERT_TRUE(CP);
  int32_t Main = CP->Mod->findMethodId("Main", "main");
  int32_t F = CP->Mod->findMethodId("Main", "f");
  const analysis::LoopInfo &FL = CP->Prep.Methods[static_cast<size_t>(F)].Loops;
  ASSERT_EQ(FL.numLoops(), 2);
  int32_t Inner = FL.Loops[0].Depth == 1 ? 0 : 1;
  int32_t Outer = 1 - Inner;

  class TraceListener : public vm::ExecutionListener {
  public:
    std::vector<std::string> Trace;
    void onLoopEnter(int32_t M, int32_t L) override { add("enter", M, L); }
    void onLoopExit(int32_t M, int32_t L) override { add("exit", M, L); }
    void onMethodEnter(int32_t M) override { add("menter", M, -1); }
    void onMethodExit(int32_t M) override { add("mexit", M, -1); }

  private:
    void add(const char *What, int32_t M, int32_t L) {
      Trace.push_back(std::string(What) + " " + std::to_string(M) + ":" +
                      std::to_string(L));
    }
  } Listener;
  vm::Interpreter Interp(CP->Prep);
  vm::InstrumentationPlan Plan = vm::InstrumentationPlan::all(*CP->Mod);
  vm::IoChannels Io;
  vm::RunResult R = Interp.run(Main, &Listener, Plan, Io);
  ASSERT_EQ(R.Status, vm::RunStatus::Trapped);
  EXPECT_NE(R.TrapMessage.find("division by zero in Main.f"),
            std::string::npos);

  auto Ev = [](const char *What, int32_t M, int32_t L) {
    return std::string(What) + " " + std::to_string(M) + ":" +
           std::to_string(L);
  };
  std::vector<std::string> WantTail = {
      Ev("exit", F, Inner), Ev("exit", F, Outer), Ev("mexit", F, -1),
      Ev("exit", Main, 0),  Ev("mexit", Main, -1)};
  ASSERT_GE(Listener.Trace.size(), WantTail.size());
  std::vector<std::string> Tail(Listener.Trace.end() -
                                    static_cast<ptrdiff_t>(WantTail.size()),
                                Listener.Trace.end());
  EXPECT_EQ(Tail, WantTail);
  // The first call entered f and both its loops before the trap.
  std::vector<std::string> WantEnterF = {
      Ev("menter", F, -1), Ev("enter", F, Outer), Ev("enter", F, Inner)};
  auto It = std::find(Listener.Trace.begin(), Listener.Trace.end(),
                      WantEnterF[0]);
  ASSERT_NE(It, Listener.Trace.end());
  EXPECT_EQ(std::vector<std::string>(It, It + 3), WantEnterF);
}

/// Checks every executed control transfer against an oracle outside the
/// VM's slot tables: the loop events between two instructions must be
/// the difference of LoopChainAtPc between the source and target pcs
/// (exits innermost-first, entries outermost-first), plus a back edge
/// when the target is the header of a loop the source stays in. Calls
/// and returns are recognised from the opcode that ran last.
class ChainOracle : public vm::ExecutionListener {
public:
  explicit ChainOracle(const prof::CompiledProgram &CP) : CP(CP) {}

  bool wantsInstructionEvents() const override { return true; }
  void onLoopEnter(int32_t M, int32_t L) override { Got.push_back({'n', M, L}); }
  void onLoopBackEdge(int32_t M, int32_t L) override {
    Got.push_back({'b', M, L});
  }
  void onLoopExit(int32_t M, int32_t L) override { Got.push_back({'x', M, L}); }
  void onMethodEnter(int32_t M) override { Got.push_back({'E', M, -1}); }
  void onMethodExit(int32_t M) override { Got.push_back({'X', M, -1}); }

  void onInstruction(int32_t M, int32_t Pc) override {
    ++Instructions;
    std::vector<Event> Want;
    if (Frames.empty()) {
      entry(M, Want);
      Frames.push_back({M, Pc});
    } else {
      auto [Cur, Prev] = Frames.back();
      bc::Opcode Op = code(Cur)[static_cast<size_t>(Prev)].Op;
      if (Op == bc::Opcode::InvokeStatic || Op == bc::Opcode::InvokeVirtual ||
          Op == bc::Opcode::InvokeCtor) {
        expect(Pc == 0, "callee did not start at pc 0");
        entry(M, Want);
        Frames.push_back({M, Pc});
      } else if (Op == bc::Opcode::Ret || Op == bc::Opcode::RetVal) {
        leave(Cur, Prev, Want);
        Frames.pop_back();
        expect(!Frames.empty(), "instruction after the entry returned");
        if (Frames.empty())
          return;
        auto &[Caller, CallPc] = Frames.back();
        expect(M == Caller && Pc == CallPc + 1, "return landed elsewhere");
        transfer(Caller, CallPc, Pc, Want);
        CallPc = Pc;
      } else {
        expect(M == Cur, "method changed without a call or return");
        transfer(Cur, Prev, Pc, Want);
        Frames.back().second = Pc;
      }
    }
    if (!(Got == Want))
      expect(false, "events before pc " + std::to_string(Pc) +
                        " of method " + std::to_string(M));
    Got.clear();
  }

  /// Checks the events after the last instruction: a completed run
  /// leaves its entry method, a trapped one unwinds every frame from the
  /// trapping pc.
  void finish(const vm::RunResult &R) {
    if (R.Status != vm::RunStatus::Ok && R.Status != vm::RunStatus::Trapped)
      return; // A fuel or deadline cut lands after an advance.
    std::vector<Event> Want;
    if (R.ok())
      expect(Frames.size() == 1, "completed with frames left");
    for (auto It = Frames.rbegin(); It != Frames.rend(); ++It)
      leave(It->first, It->second, Want);
    expect(Got == Want, "events after the last instruction");
  }

  uint64_t Instructions = 0;
  uint64_t Mismatches = 0;
  std::string FirstMismatch;

private:
  struct Event {
    char Kind;
    int32_t Method;
    int32_t Loop;
    bool operator==(const Event &O) const {
      return Kind == O.Kind && Method == O.Method && Loop == O.Loop;
    }
  };

  const std::vector<bc::Instr> &code(int32_t M) const {
    return CP.Mod->Methods[static_cast<size_t>(M)].Code;
  }
  const std::vector<int32_t> &chain(int32_t M, int32_t Pc) const {
    return CP.Prep.Methods[static_cast<size_t>(M)]
        .Events.LoopChainAtPc[static_cast<size_t>(Pc)];
  }

  void entry(int32_t M, std::vector<Event> &Out) const {
    Out.push_back({'E', M, -1});
    const auto &C = chain(M, 0);
    for (auto It = C.rbegin(); It != C.rend(); ++It)
      Out.push_back({'n', M, *It});
  }
  void leave(int32_t M, int32_t Pc, std::vector<Event> &Out) const {
    for (int32_t L : chain(M, Pc))
      Out.push_back({'x', M, L});
    Out.push_back({'X', M, -1});
  }
  void transfer(int32_t M, int32_t From, int32_t To,
                std::vector<Event> &Out) const {
    vm::LoopTransition T = chainTransition(
        CP.Prep.Methods[static_cast<size_t>(M)], From, To);
    for (int32_t L : T.Exits)
      Out.push_back({'x', M, L});
    if (T.BackEdge >= 0)
      Out.push_back({'b', M, T.BackEdge});
    for (int32_t L : T.Entries)
      Out.push_back({'n', M, L});
  }
  void expect(bool Ok, const std::string &What) {
    if (Ok)
      return;
    if (Mismatches++ == 0)
      FirstMismatch = What;
  }

  const prof::CompiledProgram &CP;
  std::vector<Event> Got;
  std::vector<std::pair<int32_t, int32_t>> Frames; ///< (method, last pc).
};

/// Runs \p CP under the chain oracle and without a listener; both runs
/// must agree on the instruction count and the output.
void checkAgainstChainOracle(const prof::CompiledProgram &CP,
                             const std::vector<int64_t> &Input,
                             const vm::RunOptions &Opts,
                             const std::string &Label) {
  int32_t Entry = CP.entryMethod("Main", "main");
  ASSERT_GE(Entry, 0) << Label;
  vm::InstrumentationPlan Plan = vm::InstrumentationPlan::all(*CP.Mod);

  ChainOracle Oracle(CP);
  vm::Interpreter Interp(CP.Prep);
  vm::IoChannels Io;
  Io.Input = Input;
  vm::RunResult R = Interp.run(Entry, &Oracle, Plan, Io, Opts);
  Oracle.finish(R);
  EXPECT_EQ(Oracle.Mismatches, 0u) << Label << ": " << Oracle.FirstMismatch;
  EXPECT_EQ(Oracle.Instructions, R.InstrCount) << Label;

  vm::Interpreter Plain(CP.Prep);
  vm::IoChannels PlainIo;
  PlainIo.Input = Input;
  vm::RunResult P = Plain.run(Entry, nullptr, Plan, PlainIo, Opts);
  EXPECT_EQ(P.Status, R.Status) << Label;
  EXPECT_EQ(P.InstrCount, R.InstrCount) << Label;
  EXPECT_EQ(PlainIo.Output, Io.Output) << Label;
}

TEST(LoopEvents, CorpusTransfersMatchChainOracle) {
  const auto &Corpus = programs::corpusPrograms();
  EXPECT_EQ(Corpus.size(), 31u);
  for (const programs::CorpusProgram &P : Corpus) {
    auto CP = compile(P.Source);
    ASSERT_TRUE(CP) << P.Name;
    checkAgainstChainOracle(*CP, {12}, vm::RunOptions(), P.Name);
  }
}

TEST(LoopEvents, EdgeCaseTransfersMatchChainOracle) {
  // Shapes the corpus rarely produces: a void call that falls straight
  // into a loop header (the return fires the entry), a loop whose body
  // starts with another loop (the header test has events both ways), a
  // body that starts at the method's pc 0, an empty if, returns and
  // breaks out of nested loops, and recursion inside a loop.
  const char *Sources[] = {
      R"(
    class Main {
      static void f() { print(7); }
      static void main() {
        int i = 0;
        f();
        while (i < 3) { i = i + 1; f(); }
        f();
        print(i);
      }
    })",
      R"(
    class Main {
      static void main() {
        int i = 0;
        int j = 0;
        while (i < 4) {
          while (j < i) { j = j + 1; }
          i = i + 1;
          if (i == 2) { }
        }
        print(j);
      }
    })",
      R"(
    class Main {
      static int spin(int n) {
        while (n > 0) {
          for (int k = 0; k < 3; k++) {
            if (k == n) { return k; }
            if (k > 5) { break; }
          }
          n = n - 1;
        }
        return n;
      }
      static int fact(int n) {
        if (n <= 1) { return 1; }
        return n * fact(n - 1);
      }
      static void main() {
        int s = 0;
        for (int i = 0; i < 4; i++) { s = s + spin(i) + fact(i); }
        print(s);
      }
    })"};
  int Case = 0;
  for (const char *Src : Sources) {
    auto CP = compile(Src);
    ASSERT_TRUE(CP) << "edge case " << Case;
    checkAgainstChainOracle(*CP, {}, vm::RunOptions(),
                            "edge case " + std::to_string(Case++));
  }
}

TEST(LoopEvents, FuzzTransfersMatchChainOracle) {
  vm::RunOptions Opts;
  Opts.Fuel = 200'000;
  Opts.MaxFrames = 256;
  Opts.MaxArrayLength = 1 << 16;
  for (uint64_t Case = 0; Case < 60; ++Case) {
    fuzz::Rng R(fuzz::deriveSeed(0x100e5, Case));
    auto CP = compile(fuzz::generateProgram(R));
    ASSERT_TRUE(CP) << "case " << Case;
    checkAgainstChainOracle(*CP, {1, 2, 3}, Opts,
                            "fuzz case " + std::to_string(Case));
  }
}

} // namespace
