//===- tests/PropertyTest.cpp - Parameterized invariant sweeps ------------===//
//
// Property-style tests over input-size sweeps: exact step-count
// formulas, exact measured sizes, and structural invariants of the
// repetition tree that must hold for every program and size.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::testutil;

namespace {

struct Profiled {
  std::unique_ptr<CompiledProgram> CP;
  std::unique_ptr<ProfileSession> Session;
};

Profiled profileProgram(const std::string &Src) {
  Profiled P;
  P.CP = compile(Src);
  if (!P.CP)
    return P;
  P.Session = std::make_unique<ProfileSession>(*P.CP);
  vm::RunResult R = P.Session->run("Main", "main");
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return P;
}

const RepetitionNode *nodeByName(const RepetitionTree &T,
                                 const std::string &Name) {
  const RepetitionNode *Found = nullptr;
  T.forEach([&](const RepetitionNode &N) {
    if (N.Name == Name)
      Found = &N;
  });
  return Found;
}

//===----------------------------------------------------------------------===//
// Exact step formulas over a size sweep
//===----------------------------------------------------------------------===//

class SizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SizeSweep, SortedInsertionSortStepsExact) {
  int N = GetParam();
  // One run of exactly size N (sorted): outer loop visits every element
  // once (N-1 steps for N >= 2), inner loop never fires.
  Profiled P = profileProgram(programs::insertionSortProgram(
      N + 1, std::max(N, 1), 1, programs::InputOrder::Sorted));
  const RepetitionNode *Outer = nodeByName(P.Session->tree(),
                                           "List.sort loop#0");
  if (N < 2) {
    // sort() returns before entering the loop.
    EXPECT_TRUE(Outer == nullptr || Outer->totalSteps() == 0);
    return;
  }
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->totalSteps(), N - 1);
  const RepetitionNode *Inner = nodeByName(P.Session->tree(),
                                           "List.sort loop#1");
  if (Inner)
    EXPECT_EQ(Inner->totalSteps(), 0);
}

TEST_P(SizeSweep, ReversedInsertionSortStepsExact) {
  int N = GetParam();
  if (N < 2)
    return;
  Profiled P = profileProgram(programs::insertionSortProgram(
      N + 1, std::max(N, 1), 1, programs::InputOrder::Reversed));
  const RepetitionNode *Outer = nodeByName(P.Session->tree(),
                                           "List.sort loop#0");
  const RepetitionNode *Inner = nodeByName(P.Session->tree(),
                                           "List.sort loop#1");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->totalSteps(), N - 1);
  // Reversed input has every inversion: n*(n-1)/2 inner steps.
  EXPECT_EQ(Inner->totalSteps(), static_cast<int64_t>(N) * (N - 1) / 2);
}

TEST_P(SizeSweep, ConstructionStepsAndSizeExact) {
  int N = GetParam();
  Profiled P = profileProgram(programs::insertionSortProgram(
      N + 1, std::max(N, 1), 1, programs::InputOrder::Random));
  const RepetitionNode *Build = nodeByName(P.Session->tree(),
                                           "Main.constructRandom loop#0");
  if (N == 0) {
    // The loop body never runs; the node may not exist at all.
    EXPECT_TRUE(Build == nullptr || Build->totalSteps() == 0);
    return;
  }
  ASSERT_NE(Build, nullptr);
  // Two harness points run: size 0 and size N. Find the size-N record.
  int64_t MaxSteps = 0, MaxSize = 0;
  for (const RecordView &R : Build->records()) {
    MaxSteps = std::max(MaxSteps, R.Costs.steps());
    for (const auto &[Id, Use] : R.Inputs) {
      (void)Id;
      MaxSize = std::max(MaxSize, Use.MaxSize);
    }
  }
  EXPECT_EQ(MaxSteps, N);
  // A one-node list is never link-accessed during construction (the
  // first append only writes List.head/tail, which are not recursive
  // links), so its input is invisible to the construction loop — the
  // paper's instrumentation has the same blind spot.
  if (N >= 2)
    EXPECT_EQ(MaxSize, N);
}

TEST_P(SizeSweep, ArrayListNaiveGrowCopiesExact) {
  int N = GetParam();
  if (N < 1)
    return;
  // Appending N elements with grow-by-one from capacity 1 copies
  // 1 + 2 + ... + (N-1) elements.
  Profiled P = profileProgram(programs::arrayListProgram(false, N, N));
  const RepetitionNode *Grow = nodeByName(P.Session->tree(),
                                          "ArrayList.growIfFull loop#0");
  if (N < 2) {
    // Capacity 1 suffices; grow's copy loop never runs.
    EXPECT_TRUE(Grow == nullptr || Grow->totalSteps() == 0);
  } else {
    ASSERT_NE(Grow, nullptr);
    EXPECT_EQ(Grow->totalSteps(),
              static_cast<int64_t>(N) * (N - 1) / 2);
  }
  const RepetitionNode *Append = nodeByName(P.Session->tree(),
                                            "Main.testForSize loop#0");
  ASSERT_NE(Append, nullptr);
  EXPECT_EQ(Append->totalSteps(), N);
}

TEST_P(SizeSweep, FunctionalAndImperativeSortSameStepTotals) {
  // Sec. 4.3 invariant, exact: for identical input sequences, the
  // functional sort's total recursion steps track the imperative
  // version's loop steps (both count one step per comparison position).
  int N = GetParam();
  if (N < 2)
    return;
  // The imperative harness *appends* values, the functional harness
  // *prepends* them; to give both sorts a fully inverted input, feed the
  // imperative one Reversed and the functional one Sorted.
  Profiled Imp = profileProgram(programs::insertionSortProgram(
      N + 1, std::max(N, 1), 1, programs::InputOrder::Reversed));
  Profiled Fun = profileProgram(programs::functionalSortProgram(
      N + 1, std::max(N, 1), 1, programs::InputOrder::Sorted));

  const RepetitionNode *ImpInner = nodeByName(Imp.Session->tree(),
                                              "List.sort loop#1");
  const RepetitionNode *FunInsert = nodeByName(
      Fun.Session->tree(), "FSort.insert (recursion)");
  ASSERT_NE(ImpInner, nullptr);
  ASSERT_NE(FunInsert, nullptr);
  // Both implementations perform exactly one essential step per
  // inversion: n*(n-1)/2.
  EXPECT_EQ(ImpInner->totalSteps(), static_cast<int64_t>(N) * (N - 1) / 2);
  EXPECT_EQ(FunInsert->totalSteps(),
            static_cast<int64_t>(N) * (N - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21, 40));

//===----------------------------------------------------------------------===//
// Structural invariants over representative programs
//===----------------------------------------------------------------------===//

class TreeInvariants : public ::testing::TestWithParam<const char *> {
protected:
  std::string source() const {
    std::string Which = GetParam();
    if (Which == "insertion")
      return programs::insertionSortProgram(50, 10, 2,
                                            programs::InputOrder::Random);
    if (Which == "functional")
      return programs::functionalSortProgram(
          50, 10, 2, programs::InputOrder::Random);
    if (Which == "mergesort")
      return programs::mergeSortProgram(50, 10, 2,
                                        programs::InputOrder::Random);
    if (Which == "arraylist")
      return programs::arrayListProgram(false, 40, 8);
    return programs::listing5Program(8, 8);
  }
};

TEST_P(TreeInvariants, AllRecordsFinalizedAndNonNegative) {
  Profiled P = profileProgram(source());
  P.Session->tree().forEach([](const RepetitionNode &N) {
    for (const RecordView &R : N.records()) {
      EXPECT_TRUE(R.Finalized);
      for (const auto &[Key, Count] : R.Costs.entries()) {
        (void)Key;
        EXPECT_GE(Count, 0);
      }
      for (const auto &[Id, Use] : R.Inputs) {
        EXPECT_GE(Id, 0);
        EXPECT_GE(Use.MaxSize, 0);
        EXPECT_LE(Use.FirstSize, Use.MaxSize);
        EXPECT_LE(Use.LastSize, Use.MaxSize);
      }
    }
  });
}

TEST_P(TreeInvariants, ParentLinksAreConsistent) {
  Profiled P = profileProgram(source());
  P.Session->tree().forEach([](const RepetitionNode &N) {
    for (const auto &C : N.Children)
      EXPECT_EQ(C->Parent, &N);
    for (const RecordView &R : N.records()) {
      if (!R.ParentNode)
        continue;
      EXPECT_GE(R.ParentInvocation, 0);
      EXPECT_LT(static_cast<size_t>(R.ParentInvocation),
                R.ParentNode->History.size());
    }
  });
}

TEST_P(TreeInvariants, ChildStepsNeverExceedParentIterationBudget) {
  // Each child invocation belongs to exactly one parent invocation and
  // the parent's record index is within bounds; moreover the number of
  // child invocations attributed to a parent invocation never exceeds
  // the parent's (steps + 1) for loop parents of loop children in
  // structured code.
  Profiled P = profileProgram(source());
  P.Session->tree().forEach([](const RepetitionNode &N) {
    if (!N.Parent || N.Parent->Key.Kind != RepKind::Loop ||
        N.Key.Kind != RepKind::Loop)
      return;
    std::map<int32_t, int64_t> PerParent;
    for (const RecordView &R : N.records())
      if (R.ParentNode == N.Parent)
        ++PerParent[R.ParentInvocation];
    for (const auto &[ParentInv, Count] : PerParent) {
      RecordView ParentRec =
          N.Parent->record(static_cast<size_t>(ParentInv));
      EXPECT_LE(Count, ParentRec.Costs.steps() + 1);
    }
  });
}

TEST_P(TreeInvariants, DeterministicAcrossRuns) {
  Profiled A = profileProgram(source());
  Profiled B = profileProgram(source());
  // Same totals, node for node (names are canonical).
  std::map<std::string, int64_t> StepsA, StepsB;
  A.Session->tree().forEach([&](const RepetitionNode &N) {
    StepsA[N.Name] += N.totalSteps();
  });
  B.Session->tree().forEach([&](const RepetitionNode &N) {
    StepsB[N.Name] += N.totalSteps();
  });
  EXPECT_EQ(StepsA, StepsB);
}

INSTANTIATE_TEST_SUITE_P(Programs, TreeInvariants,
                         ::testing::Values("insertion", "functional",
                                           "mergesort", "arraylist",
                                           "listing5"));

} // namespace
