//===- tests/AlgoProfilerTest.cpp - Repetition tree construction ----------===//
//
// Tests the paper's Sec. 3.2 dynamic analysis: step counting, recursion
// folding, per-invocation history, cost combination semantics (Listing
// 3), and the Listing 4 first-access/exit-size behavior.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <map>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::testutil;

namespace {

struct ProfiledRun {
  std::unique_ptr<CompiledProgram> CP;
  std::unique_ptr<ProfileSession> Session;
};

ProfiledRun profile(const std::string &Src,
                    SessionOptions Opts = SessionOptions()) {
  ProfiledRun P;
  P.CP = compile(Src);
  if (!P.CP)
    return P;
  P.Session = std::make_unique<ProfileSession>(*P.CP, Opts);
  vm::RunResult R = P.Session->run("Main", "main");
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return P;
}

const RepetitionNode *findNode(const RepetitionTree &T,
                               const std::string &Name) {
  const RepetitionNode *Found = nullptr;
  T.forEach([&](const RepetitionNode &N) {
    if (N.Name == Name)
      Found = &N;
  });
  return Found;
}

TEST(AlgoProfiler, LoopStepsEqualIterations) {
  ProfiledRun P = profile(R"(
    class Main {
      static void main() {
        int s = 0;
        for (int i = 0; i < 9; i++) { s = s + i; }
        print(s);
      }
    }
  )");
  const RepetitionNode *Loop = findNode(P.Session->tree(),
                                        "Main.main loop#0");
  ASSERT_NE(Loop, nullptr);
  ASSERT_EQ(Loop->History.size(), 1u);
  EXPECT_EQ(Loop->record(0).Costs.steps(), 9);
  EXPECT_TRUE(Loop->History[0].Finalized);
}

TEST(AlgoProfiler, Listing3CombinedCostIsSix) {
  // Paper Sec. 2.6: outer 3 steps + inner (0+1+2) = 6 when combined.
  ProfiledRun P = profile(R"(
    class Main {
      static void main() {
        for (int o = 0; o < 3; o++) {
          for (int i = 0; i < o; i++) {
          }
        }
      }
    }
  )");
  const RepetitionNode *Outer = findNode(P.Session->tree(),
                                         "Main.main loop#0");
  const RepetitionNode *Inner = findNode(P.Session->tree(),
                                         "Main.main loop#1");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->totalSteps(), 3);
  EXPECT_EQ(Inner->totalSteps(), 3); // 0 + 1 + 2.
  EXPECT_EQ(Inner->History.size(), 3u);
  EXPECT_EQ(Inner->Parent, Outer);

  // Combine the two nodes as one algorithm (forced grouping via an
  // ad-hoc Algorithm): total 6 steps.
  Algorithm A;
  A.Root = Outer;
  A.Nodes = {Outer, Inner};
  std::vector<CombinedInvocation> Combined =
      combineInvocations(A, P.Session->inputs());
  ASSERT_EQ(Combined.size(), 1u);
  EXPECT_EQ(Combined[0].Costs.steps(), 6);
}

TEST(AlgoProfiler, ChildInvocationsAttributeToParentInvocation) {
  ProfiledRun P = profile(R"(
    class Main {
      static void main() {
        for (int o = 0; o < 4; o++) {
          for (int i = 0; i < 2; i++) {
          }
        }
      }
    }
  )");
  const RepetitionNode *Outer = findNode(P.Session->tree(),
                                         "Main.main loop#0");
  const RepetitionNode *Inner = findNode(P.Session->tree(),
                                         "Main.main loop#1");
  ASSERT_NE(Inner, nullptr);
  ASSERT_EQ(Inner->History.size(), 4u);
  for (const RecordView &R : Inner->records()) {
    EXPECT_EQ(R.ParentNode, Outer);
    EXPECT_EQ(R.ParentInvocation, 0); // The single outer invocation.
    EXPECT_EQ(R.Costs.steps(), 2);
  }
}

TEST(AlgoProfiler, RecursionFoldsOntoHeader) {
  ProfiledRun P = profile(R"(
    class Main {
      static int fact(int n) {
        if (n <= 1) { return 1; }
        return n * fact(n - 1);
      }
      static void main() {
        print(fact(6));
        print(fact(4));
      }
    }
  )");
  const RepetitionNode *Rec = findNode(P.Session->tree(),
                                       "Main.fact (recursion)");
  ASSERT_NE(Rec, nullptr);
  // One node; two outer invocations; folded steps = calls beyond the
  // first: fact(6) -> 5, fact(4) -> 3.
  EXPECT_EQ(Rec->History.size(), 2u);
  EXPECT_EQ(Rec->record(0).Costs.steps(), 5);
  EXPECT_EQ(Rec->record(1).Costs.steps(), 3);
  // No nested fact node exists anywhere.
  int FactNodes = 0;
  P.Session->tree().forEach([&](const RepetitionNode &N) {
    if (N.Name == "Main.fact (recursion)")
      ++FactNodes;
  });
  EXPECT_EQ(FactNodes, 1);
}

TEST(AlgoProfiler, MutualRecursionFoldsOntoOneNode) {
  ProfiledRun P = profile(R"(
    class Main {
      static boolean isEven(int n) {
        if (n == 0) { return true; }
        return isOdd(n - 1);
      }
      static boolean isOdd(int n) {
        if (n == 0) { return false; }
        return isEven(n - 1);
      }
      static void main() { print(isEven(8)); }
    }
  )");
  // Exactly one recursion node exists (the header of the cycle).
  int RecNodes = 0;
  const RepetitionNode *Rec = nullptr;
  P.Session->tree().forEach([&](const RepetitionNode &N) {
    if (N.Key.Kind == RepKind::Recursion) {
      ++RecNodes;
      Rec = &N;
    }
  });
  EXPECT_EQ(RecNodes, 1);
  ASSERT_NE(Rec, nullptr);
  ASSERT_EQ(Rec->History.size(), 1u);
  // isEven is entered 5 times (8,6,4,2,0): 4 folded steps.
  EXPECT_EQ(Rec->record(0).Costs.steps(), 4);
}

TEST(AlgoProfiler, LoopInsideRecursionReentersSameNode) {
  ProfiledRun P = profile(R"(
    class Main {
      static int walk(int n) {
        int s = 0;
        for (int i = 0; i < 2; i++) { s = s + i; }
        if (n == 0) { return s; }
        return s + walk(n - 1);
      }
      static void main() { print(walk(3)); }
    }
  )");
  const RepetitionNode *Rec = findNode(P.Session->tree(),
                                       "Main.walk (recursion)");
  const RepetitionNode *Loop = findNode(P.Session->tree(),
                                        "Main.walk loop#0");
  ASSERT_NE(Rec, nullptr);
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Parent, Rec);
  // The loop ran once per activation: walk(3..0) = 4 invocations.
  EXPECT_EQ(Loop->History.size(), 4u);
  for (const RecordView &R : Loop->records())
    EXPECT_EQ(R.Costs.steps(), 2);
}

TEST(AlgoProfiler, TreePathsAreUnique) {
  // On any root path a given repetition key occurs at most once.
  ProfiledRun P = profile(
      programs::insertionSortProgram(30, 10, 2,
                                     programs::InputOrder::Random));
  P.Session->tree().forEach([&](const RepetitionNode &N) {
    for (const RepetitionNode *A = N.Parent; A; A = A->Parent)
      EXPECT_FALSE(A->Key == N.Key);
  });
}

TEST(AlgoProfiler, Listing4FirstAccessSeesPartialStructure) {
  // Paper Listing 4: during a loop construction the first PUTFIELD only
  // reaches one node; the exit remeasure sees the whole list.
  ProfiledRun P = profile(programs::listing4Program(15));
  const RepetitionNode *Loop = findNode(
      P.Session->tree(), "Main.constructListWithLoop loop#0");
  ASSERT_NE(Loop, nullptr);
  ASSERT_EQ(Loop->History.size(), 1u);
  RecordView R = Loop->record(0);
  ASSERT_EQ(R.Inputs.size(), 1u);
  const InputUse &Use = R.Inputs.begin()->second;
  EXPECT_EQ(Use.FirstSize, 1);  // One reachable node at first access.
  EXPECT_EQ(Use.LastSize, 15);  // The full list at exit.
  EXPECT_EQ(Use.MaxSize, 15);   // Paper rule: max over the invocation.
}

TEST(AlgoProfiler, Listing4RecursiveConstructionMeasured) {
  ProfiledRun P = profile(programs::listing4Program(12));
  const RepetitionNode *Rec = findNode(
      P.Session->tree(), "Main.constructListWithRecursion (recursion)");
  ASSERT_NE(Rec, nullptr);
  ASSERT_EQ(Rec->History.size(), 1u);
  RecordView R = Rec->record(0);
  ASSERT_EQ(R.Inputs.size(), 1u);
  EXPECT_EQ(R.Inputs.begin()->second.MaxSize, 12);
}

TEST(AlgoProfiler, Listing4PartiallyUsedArray) {
  // new int[1000] with 10 writes: unique-element size 10, capacity 1000.
  ProfiledRun P = profile(programs::listing4Program(5));
  const RepetitionNode *Loop = findNode(
      P.Session->tree(), "Main.constructPartiallyUsedArray loop#0");
  ASSERT_NE(Loop, nullptr);
  RecordView R = Loop->record(0);
  ASSERT_EQ(R.Inputs.size(), 1u);
  const InputUse &Use = R.Inputs.begin()->second;
  EXPECT_EQ(Use.MaxSize, 10);        // Unique elements {0,2,...,18}.
  EXPECT_EQ(Use.MaxCapacity, 1000);  // The capacity measure.
}

TEST(AlgoProfiler, MultipleRunsAccumulateIntoOneTree) {
  auto CP = compile(R"(
    class Main {
      static void main() {
        for (int i = 0; i < 3; i++) { }
      }
    }
  )");
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  ASSERT_TRUE(S.run("Main", "main").ok());
  ASSERT_TRUE(S.run("Main", "main").ok());
  ASSERT_TRUE(S.run("Main", "main").ok());
  const RepetitionNode *Loop = findNode(S.tree(), "Main.main loop#0");
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->History.size(), 3u);
  EXPECT_EQ(S.tree().root().History.size(), 3u);
}

TEST(AlgoProfiler, AllMethodsPlanCreatesMethodNodes) {
  SessionOptions Opts;
  Opts.AllMethodsPlan = true;
  ProfiledRun P = profile(R"(
    class Main {
      static int helper(int x) { return x + 1; }
      static void main() { print(helper(1)); }
    }
  )",
                          Opts);
  // Without static header analysis, every method becomes a node.
  EXPECT_NE(findNode(P.Session->tree(), "Main.helper (recursion)"),
            nullptr);
}

TEST(AlgoProfiler, HeadersOnlyPlanMatchesAllMethodsOnRecursions) {
  const std::string Src = R"(
    class Main {
      static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
      }
      static void main() { print(fib(8)); }
    }
  )";
  ProfiledRun Headers = profile(Src);
  SessionOptions Opts;
  Opts.AllMethodsPlan = true;
  ProfiledRun All = profile(Src, Opts);

  const RepetitionNode *A = findNode(Headers.Session->tree(),
                                     "Main.fib (recursion)");
  const RepetitionNode *B = findNode(All.Session->tree(),
                                     "Main.fib (recursion)");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  // Same folded step counts under both instrumentation plans.
  EXPECT_EQ(A->totalSteps(), B->totalSteps());
}

/// Checks that every input-level GET/PUT count of \p C equals the sum of
/// that input's per-type counts, and that no per-type count lacks its
/// input-level entry. Returns how many input-level entries had more
/// than one per-type refinement.
int expectInputLevelIsSumOfTypes(CostSpan C) {
  std::map<CostKey, int64_t> TypeSums;
  std::map<CostKey, int> TypesPerInput;
  for (const auto &[Key, Count] : C.entries()) {
    if (Key.Kind != CostKind::StructGet && Key.Kind != CostKind::StructPut)
      continue;
    if (Key.TypeId >= 0) {
      TypeSums[{Key.Kind, Key.InputId, -1}] += Count;
      ++TypesPerInput[{Key.Kind, Key.InputId, -1}];
    }
  }
  int MultiType = 0;
  for (const auto &[Key, Sum] : TypeSums) {
    EXPECT_EQ(C.get(Key), Sum)
        << costKindLabel(Key.Kind) << " of input#" << Key.InputId;
    MultiType += TypesPerInput[Key] > 1;
  }
  for (const auto &[Key, Count] : C.entries()) {
    if ((Key.Kind == CostKind::StructGet ||
         Key.Kind == CostKind::StructPut) &&
        Key.TypeId < 0) {
      EXPECT_TRUE(TypeSums.count(Key))
          << costKindLabel(Key.Kind) << " of input#" << Key.InputId
          << " has no per-type entries";
    }
  }
  return MultiType;
}

TEST(AlgoProfiler, InputLevelStructCostsAreSumsOfPerTypeCosts) {
  // Structure accesses count only the per-type key; finalize derives
  // the input-level one. Each list mixes two node classes, and the many
  // loop invocations make sampling fold.
  const char *Src = R"(
    class Node { Node next; }
    class Big extends Node { int v; }
    class Main {
      static void main() {
        for (int r = 1; r < 9; r++) {
          Node list = null;
          for (int i = 0; i < r * 3; i++) {
            Node n = new Node();
            if (i > r) { n = new Big(); }
            n.next = list;
            list = n;
          }
          int c = 0;
          Node cur = list;
          while (cur != null) { c++; cur = cur.next; }
          print(c);
        }
      }
    }
  )";
  for (int64_t Threshold : {0, 2}) {
    SCOPED_TRACE("SampleThreshold=" + std::to_string(Threshold));
    SessionOptions Opts;
    Opts.Profile.SampleThreshold = Threshold;
    ProfiledRun P = profile(Src, Opts);
    ASSERT_TRUE(P.Session);
    int Records = 0, MultiType = 0, Folded = 0;
    P.Session->tree().forEach([&](const RepetitionNode &N) {
      for (const RecordView &R : N.records()) {
        if (!R.Finalized)
          continue;
        ++Records;
        MultiType += expectInputLevelIsSumOfTypes(R.Costs);
        MultiType += expectInputLevelIsSumOfTypes(R.FoldedCosts);
        Folded += !R.FoldedCosts.empty();
      }
    });
    EXPECT_GT(Records, 0);
    EXPECT_GT(MultiType, 0) << "no input read through two types";
    if (Threshold > 0) {
      EXPECT_GT(Folded, 0) << "sampling folded no costs";
    }
  }
}

TEST(AlgoProfiler, TrapLeavesConsistentTree) {
  auto CP = compile(R"(
    class Main {
      static void main() {
        int[] a = new int[3];
        for (int i = 0; i < 10; i++) {
          a[i] = i;
        }
      }
    }
  )");
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  vm::RunResult R = S.run("Main", "main");
  EXPECT_EQ(R.Status, vm::RunStatus::Trapped);
  // The unwinding finalized every record.
  S.tree().forEach([](const RepetitionNode &N) {
    for (const RecordView &Rec : N.records())
      EXPECT_TRUE(Rec.Finalized);
  });
}

} // namespace
