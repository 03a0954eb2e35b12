//===- tests/InputTableTest.cpp - Input identification and sizing ---------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::testutil;

namespace {

std::unique_ptr<ProfileSession> profileSrc(
    const prof::CompiledProgram &CP,
    EquivalenceStrategy Eq = EquivalenceStrategy::SomeElements) {
  SessionOptions Opts;
  Opts.Profile.Equivalence = Eq;
  auto S = std::make_unique<ProfileSession>(CP, Opts);
  vm::RunResult R = S->run("Main", "main");
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return S;
}

TEST(InputTable, OneListOneInput) {
  auto CP = compile(R"(
    class Node { Node next; int v; }
    class Main {
      static void main() {
        Node list = null;
        for (int i = 0; i < 10; i++) {
          Node n = new Node();
          n.next = list;
          list = n;
        }
        int c = 0;
        while (list != null) {
          c++;
          list = list.next;
        }
        print(c);
      }
    }
  )");
  auto S = profileSrc(*CP);
  EXPECT_EQ(S->inputs().liveHeapInputs().size(), 1u);
  const InputInfo &Info = S->inputs().info(S->inputs().liveHeapInputs()[0]);
  EXPECT_FALSE(Info.IsArray);
  EXPECT_EQ(Info.Label, "Node-based recursive structure");
  EXPECT_EQ(Info.Members.size(), 10u);
}

TEST(InputTable, TwoDisjointListsTwoInputs) {
  auto CP = compile(R"(
    class Node { Node next; }
    class Main {
      static Node build(int n) {
        Node list = null;
        for (int i = 0; i < n; i++) {
          Node x = new Node();
          x.next = list;
          list = x;
        }
        return list;
      }
      static void main() {
        Node a = build(4);
        Node b = build(7);
        a = null;
        b = null;
      }
    }
  )");
  auto S = profileSrc(*CP);
  EXPECT_EQ(S->inputs().liveHeapInputs().size(), 2u);
}

TEST(InputTable, ConcatenationMergesInputs) {
  auto CP = compile(R"(
    class Node { Node next; }
    class Main {
      static Node build(int n) {
        Node list = null;
        for (int i = 0; i < n; i++) {
          Node x = new Node();
          x.next = list;
          list = x;
        }
        return list;
      }
      static void main() {
        Node a = build(3);
        Node b = build(4);
        // Splice b onto a's tail: the two structures become one.
        Node t = a;
        while (t.next != null) { t = t.next; }
        t.next = b;
        int c = 0;
        while (a != null) { c++; a = a.next; }
        print(c);
      }
    }
  )");
  auto S = profileSrc(*CP);
  EXPECT_EQ(S->inputs().liveHeapInputs().size(), 1u);
  EXPECT_EQ(S->inputs().info(S->inputs().liveHeapInputs()[0]).Members.size(),
            7u);
}

TEST(InputTable, ReallocatedArrayStaysOneInput) {
  // The paper's motivating case for SomeElements (footnote 1).
  auto CP = compile(programs::arrayListProgram(false, 12, 12));
  auto S = profileSrc(*CP);
  // All backing arrays of the grow-by-one list merged into one input.
  EXPECT_EQ(S->inputs().liveHeapInputs().size(), 1u);
  const InputInfo &Info = S->inputs().info(S->inputs().liveHeapInputs()[0]);
  EXPECT_TRUE(Info.IsArray);
}

TEST(InputTable, SameArrayStrategySplitsOnRealloc) {
  // Ablation: under SameArray every reallocation looks like a fresh
  // input — exactly the failure the paper argues against.
  auto CP = compile(programs::arrayListProgram(false, 12, 12));
  auto S = profileSrc(*CP, EquivalenceStrategy::SameArray);
  EXPECT_GT(S->inputs().liveHeapInputs().size(), 1u);
}

TEST(InputTable, SameTypePoolsDisjointStructures) {
  auto CP = compile(R"(
    class Node { Node next; }
    class Main {
      static Node build(int n) {
        Node list = null;
        for (int i = 0; i < n; i++) {
          Node x = new Node();
          x.next = list;
          list = x;
        }
        return list;
      }
      static void main() {
        Node a = build(4);
        Node b = build(7);
        a = null;
        b = null;
      }
    }
  )");
  auto S = profileSrc(*CP, EquivalenceStrategy::SameType);
  // SameType deems disconnected same-typed structures equivalent.
  EXPECT_EQ(S->inputs().liveHeapInputs().size(), 1u);
}

TEST(InputTable, AllElementsSplitsEvolvingStructure) {
  // Under AllElements a growing structure is a new input per size.
  auto CP = compile(R"(
    class Node { Node next; }
    class Main {
      static void main() {
        Node list = null;
        for (int i = 0; i < 5; i++) {
          Node x = new Node();
          x.next = list;
          list = x;
        }
        list = null;
      }
    }
  )");
  auto S = profileSrc(*CP, EquivalenceStrategy::AllElements);
  EXPECT_GT(S->inputs().liveHeapInputs().size(), 1u);
}

TEST(InputTable, AllElementsRepeatedReadsOfGrownListAreNewInputs) {
  // Characterizes where AllElements departs from the paper's S1 ≡ S2.
  // A list grows 3 -> 4 nodes and is then read twice with no write in
  // between. The snapshots are {x1}, {x2 x1}, {x3 x2 x1}, {y x3 x2 x1},
  // then {y x3 x2 x1} twice more. Set equality would map the two reads
  // to the grown list's input: 4 inputs. But assign adds an object only
  // to the first input it joins, so the grown list's input holds just
  // {y}, no input's members ever equal the whole list again, and each
  // read makes a new (empty) input: 6 are observed.
  auto CP = compile(R"(
    class Node { Node next; }
    class Main {
      static void main() {
        Node list = null;
        for (int i = 0; i < 3; i++) {
          Node x = new Node();
          x.next = list;
          list = x;
        }
        Node y = new Node();
        y.next = list;
        list = y;
        Node a = list.next;
        Node b = list.next;
      }
    }
  )");
  auto S = profileSrc(*CP, EquivalenceStrategy::AllElements);
  EXPECT_EQ(S->inputs().liveHeapInputs().size(), 6u);
}

TEST(InputTable, PayloadObjectsExcludedFromStructure) {
  auto CP = compile(R"(
    class Box { int v; }
    class Node { Node next; Box payload; }
    class Main {
      static void main() {
        Node list = null;
        for (int i = 0; i < 6; i++) {
          Node n = new Node();
          n.payload = new Box();
          n.next = list;
          list = n;
        }
        int c = 0;
        while (list != null) { c++; list = list.next; }
        print(c);
      }
    }
  )");
  auto S = profileSrc(*CP);
  ASSERT_EQ(S->inputs().liveHeapInputs().size(), 1u);
  const InputInfo &Info = S->inputs().info(S->inputs().liveHeapInputs()[0]);
  // Only the 6 Nodes; Boxes are payload, not structure.
  EXPECT_EQ(Info.Members.size(), 6u);
}

TEST(InputTable, WeaklyConnectedTraversalStillOneInput) {
  // A directed list traversed from the middle snapshots only a suffix;
  // SomeElements still identifies it with the whole structure.
  auto CP = compile(R"(
    class Node { Node next; }
    class Main {
      static void main() {
        Node head = null;
        for (int i = 0; i < 8; i++) {
          Node n = new Node();
          n.next = head;
          head = n;
        }
        // Walk from the middle.
        Node mid = head.next.next.next;
        int c = 0;
        while (mid != null) { c++; mid = mid.next; }
        print(c);
      }
    }
  )");
  auto S = profileSrc(*CP);
  EXPECT_EQ(S->inputs().liveHeapInputs().size(), 1u);
}

TEST(InputTable, SnapshotCountIsBounded) {
  // The membership fast path means construction takes O(1) snapshots per
  // structure, not one per access.
  auto CP = compile(R"(
    class Node { Node next; }
    class Main {
      static void main() {
        Node list = null;
        for (int i = 0; i < 50; i++) {
          Node x = new Node();
          x.next = list;
          list = x;
        }
        list = null;
      }
    }
  )");
  auto S = profileSrc(*CP);
  // First-access snapshot + per-activation first-touch + exit remeasure:
  // a small constant, certainly below one per element.
  EXPECT_LT(S->inputs().snapshotsTaken(), 25);
}

TEST(InputTable, MultiDimArraySizeCountsAllLevels) {
  // Paper Sec. 3.4: new int[][]{new int[0], new int[1], new int[2]} has
  // size 3 + (0+1+2).
  auto CP = compile(R"(
    class Main {
      static void main() {
        int[][] a = new int[3][];
        a[0] = new int[0];
        a[1] = new int[1];
        a[2] = new int[2];
        a[1][0] = 100;
        a[2][0] = 200;
        a[2][1] = 300;
        // Finish with reads of the outer array only, so the exit
        // remeasure starts at the outer level and sees all levels.
        int c = 0;
        for (int i = 0; i < a.length; i++) {
          if (a[i] != null) { c++; }
        }
        print(c);
      }
    }
  )");
  auto S = profileSrc(*CP);
  ASSERT_GE(S->inputs().liveHeapInputs().size(), 1u);
  // Find the outer array input and check its capacity measure.
  int64_t MaxCap = 0;
  const RepetitionTree &T = S->tree();
  T.forEach([&](const RepetitionNode &N) {
    for (const InvocationRecord &R : N.History)
      for (const auto &[Id, Use] : R.Inputs) {
        (void)Id;
        MaxCap = std::max(MaxCap, Use.MaxCapacity);
      }
  });
  // Accesses happen at root level (no loops) — check via the root.
  for (const InvocationRecord &R : T.root().History)
    for (const auto &[Id, Use] : R.Inputs) {
      (void)Id;
      MaxCap = std::max(MaxCap, Use.MaxCapacity);
    }
  EXPECT_EQ(MaxCap, 3 + 0 + 1 + 2);
}

} // namespace
