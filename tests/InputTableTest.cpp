//===- tests/InputTableTest.cpp - Input identification and sizing ---------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <random>

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

/// Class-instance members of an input. Outside AllElements no table
/// keeps member ids; these lists hold no array members, so the class
/// counts total the members.
int64_t memberCount(const InputInfo &Info) {
  int64_t N = 0;
  for (const auto &[ClassId, Count] : Info.MemberClassCounts)
    N += Count;
  return N;
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
  EXPECT_EQ(memberCount(Info), 10);
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
  EXPECT_EQ(memberCount(S->inputs().info(S->inputs().liveHeapInputs()[0])),
            7);
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
  EXPECT_EQ(memberCount(Info), 6);
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
    for (const RecordView &R : N.records())
      for (const auto &[Id, Use] : R.Inputs) {
        (void)Id;
        MaxCap = std::max(MaxCap, Use.MaxCapacity);
      }
  });
  // Accesses happen at root level (no loops) — check via the root.
  for (const RecordView &R : T.root().records())
    for (const auto &[Id, Use] : R.Inputs) {
      (void)Id;
      MaxCap = std::max(MaxCap, Use.MaxCapacity);
    }
  EXPECT_EQ(MaxCap, 3 + 0 + 1 + 2);
}

//===----------------------------------------------------------------------===//
// Snapshot reuse: measureFrom against an outside reachability oracle
//===----------------------------------------------------------------------===//

/// A heap built directly on a vm::Heap, an InputTable over it, and the
/// test's own BFS: a snapshot from \p Ref must count the instances
/// reachable from it over link fields and array slots, and the non-null
/// slots of the arrays among them.
struct DirectHeap {
  std::unique_ptr<prof::CompiledProgram> CP = compile(R"(
    class Node {
      Node next; Node prev; Node left; Node right; Node up; Node[] kids;
      int v;
    }
    class Main { static void main() { } }
  )");
  vm::Heap H{*CP->Mod};
  InputTable T;
  int32_t NodeClass = CP->Mod->findClassId("Node");
  bc::TypeId NodeArray = -1;
  std::map<std::string, size_t> Slot; ///< Field name -> slot.
  std::vector<vm::ObjId> Nodes, Arrays; ///< This run's objects.

  explicit DirectHeap(EquivalenceStrategy Eq)
      : T(*CP->Mod, CP->Prep.RecTypes, Eq) {
    const bc::ClassInfo &C =
        CP->Mod->Classes[static_cast<size_t>(NodeClass)];
    for (size_t I = 0; I < C.FieldIds.size(); ++I) {
      const bc::FieldInfo &F =
          CP->Mod->Fields[static_cast<size_t>(C.FieldIds[I])];
      Slot[F.Name] = I;
      if (F.Name == "kids")
        NodeArray = F.Type;
    }
    T.setHeap(&H);
    T.beginRun();
  }

  vm::ObjId node() {
    Nodes.push_back(H.allocObject(NodeClass));
    return Nodes.back();
  }
  vm::ObjId array(int64_t Len) {
    Arrays.push_back(H.allocArray(NodeArray, Len));
    return Arrays.back();
  }
  void link(vm::ObjId From, const std::string &Field, vm::ObjId To) {
    H.get(From).Slots[Slot.at(Field)] =
        To == vm::NullObj ? vm::Value::makeNull() : vm::Value::makeRef(To);
  }
  void store(vm::ObjId Arr, size_t Idx, vm::ObjId To) {
    H.get(Arr).Slots[Idx] =
        To == vm::NullObj ? vm::Value::makeNull() : vm::Value::makeRef(To);
  }

  /// Reachable set and sizes, never consulting the InputTable.
  SizeMeasures reach(vm::ObjId Ref, std::vector<vm::ObjId> &Seen) const {
    static const char *const Links[] = {"next", "prev", "left",
                                        "right", "up", "kids"};
    SizeMeasures S;
    Seen = {Ref};
    for (size_t I = 0; I < Seen.size(); ++I) {
      const vm::HeapObject &O = H.get(Seen[I]);
      std::vector<vm::Value> Out;
      if (O.IsArray) {
        Out = O.Slots;
      } else {
        ++S.ObjectCount;
        for (const char *L : Links)
          Out.push_back(O.Slots[Slot.at(L)]);
      }
      for (const vm::Value &V : Out) {
        if (V.isNullRef())
          continue;
        S.RefCount += O.IsArray;
        if (std::find(Seen.begin(), Seen.end(), V.ref()) == Seen.end())
          Seen.push_back(V.ref());
      }
    }
    return S;
  }

  /// A random structure of 1..12 nodes: a linked list or ring whose
  /// links each may have a link back, a binary tree with or without
  /// parent links, or nodes held by a reference array, with or without
  /// links back to it.
  void build(std::mt19937 &Rng) {
    size_t N = 1 + Rng() % 12;
    std::vector<vm::ObjId> Ns;
    for (size_t I = 0; I < N; ++I)
      Ns.push_back(node());
    switch (Rng() % 6) {
    case 0: // List, each link maybe doubled.
    case 1:
      for (size_t I = 0; I + 1 < N; ++I) {
        link(Ns[I], "next", Ns[I + 1]);
        if (Rng() % 2)
          link(Ns[I + 1], "prev", Ns[I]);
      }
      break;
    case 2: // Ring, each link maybe doubled.
      for (size_t I = 0; I < N; ++I) {
        link(Ns[I], "next", Ns[(I + 1) % N]);
        if (Rng() % 2)
          link(Ns[(I + 1) % N], "prev", Ns[I]);
      }
      break;
    case 3: // Binary tree, maybe with parent links.
    case 4: {
      bool Up = Rng() % 2;
      for (size_t I = 1; I < N; ++I) {
        link(Ns[(I - 1) / 2], I % 2 ? "left" : "right", Ns[I]);
        if (Up)
          link(Ns[I], "up", Ns[(I - 1) / 2]);
      }
      break;
    }
    default: { // A Node[] with spare null slots.
      vm::ObjId Arr = array(static_cast<int64_t>(N + Rng() % 3));
      bool Back = Rng() % 2;
      for (size_t I = 0; I < N; ++I) {
        store(Arr, I, Ns[I]);
        if (Back)
          link(Ns[I], "kids", Arr);
      }
      break;
    }
    }
  }
};

/// Random heaps, random snapshots from random members, random link and
/// array writes. Every snapshot must match the oracle, whether
/// measureFrom traversed or reused its last traversal; under the
/// overlap strategies it must also leave everything it reached
/// attributed to the input it measured (a call naming another input
/// merges them).
void checkReuseAgainstOracle(EquivalenceStrategy Eq) {
  DirectHeap D(Eq);
  std::mt19937 Rng(2012);
  bool Overlap = Eq != EquivalenceStrategy::SameType;
  int64_t Measures = 0, Reused = 0, ReusedFromMember = 0;
  vm::ObjId LastStart = vm::NullObj;
  for (int Run = 0; Run < 150; ++Run) {
    // A new run on the recycled heap: ids continue, marks move base.
    D.H.recycle();
    D.T.beginRun();
    D.Nodes.clear();
    D.Arrays.clear();
    for (unsigned S = 1 + Rng() % 3; S > 0; --S)
      D.build(Rng);
    for (int Step = 0; Step < 80; ++Step) {
      auto Pick = [&Rng](const std::vector<vm::ObjId> &V) {
        return V[Rng() % V.size()];
      };
      unsigned Op = Rng() % 20;
      if (Op < 11) {
        vm::ObjId Ref = Pick(D.Nodes);
        int64_t Before = D.T.snapshotsTaken();
        int32_t Input = D.T.onStructureAccess(Ref, vm::Value::makeNull());
        if (D.T.snapshotsTaken() != Before)
          LastStart = Ref; // Identified by a traversal from Ref.
        if (Op == 0) {
          std::vector<int32_t> Live = D.T.liveHeapInputs();
          Input = Live[Rng() % Live.size()];
        }
        Before = D.T.snapshotsTaken();
        SizeMeasures Got = D.T.measureFrom(Ref, Input);
        ++Measures;
        if (D.T.snapshotsTaken() == Before) {
          ++Reused;
          ReusedFromMember += Ref != LastStart;
        } else {
          LastStart = Ref;
        }
        std::vector<vm::ObjId> Seen;
        SizeMeasures Want = D.reach(Ref, Seen);
        ASSERT_EQ(Got.ObjectCount, Want.ObjectCount)
            << "run " << Run << " step " << Step;
        ASSERT_EQ(Got.RefCount, Want.RefCount)
            << "run " << Run << " step " << Step;
        if (Overlap) {
          for (vm::ObjId Obj : Seen)
            ASSERT_EQ(D.T.inputOf(Obj), D.T.canonical(Input))
                << "run " << Run << " step " << Step;
        }
      } else if (Op < 13 && !D.Arrays.empty()) {
        D.T.onArrayAccess(Pick(D.Arrays));
      } else if (Op < 18 || D.Arrays.empty()) {
        static const char *const Links[] = {"next", "prev", "left",
                                            "right", "up"};
        vm::ObjId From = Pick(D.Nodes);
        if (Rng() % 6 == 0)
          D.link(From, "kids",
                 D.Arrays.empty() || Rng() % 3 == 0 ? vm::NullObj
                                                    : Pick(D.Arrays));
        else
          D.link(From, Links[Rng() % 5],
                 Rng() % 4 == 0 ? vm::NullObj : Pick(D.Nodes));
        D.T.noteHeapWrite();
      } else {
        vm::ObjId Arr = Pick(D.Arrays);
        size_t Len = D.H.get(Arr).Slots.size();
        if (Len == 0)
          continue;
        D.store(Arr, Rng() % Len,
                Rng() % 4 == 0 ? vm::NullObj : Pick(D.Nodes));
        D.T.noteHeapWrite();
      }
    }
  }
  // The memo was exercised, from its start and from other members.
  EXPECT_GT(Reused, Measures / 20);
  EXPECT_GT(ReusedFromMember, 0);
}

TEST(InputTable, SnapshotReuseMatchesReachabilityOracleSomeElements) {
  checkReuseAgainstOracle(EquivalenceStrategy::SomeElements);
}

TEST(InputTable, SnapshotReuseMatchesReachabilityOracleSameArray) {
  checkReuseAgainstOracle(EquivalenceStrategy::SameArray);
}

TEST(InputTable, SnapshotReuseMatchesReachabilityOracleSameType) {
  checkReuseAgainstOracle(EquivalenceStrategy::SameType);
}

TEST(InputTable, InteriorNodeOfSinglyLinkedListIsNotReused) {
  // A singly linked list is not closed: its head reaches 5 nodes, the
  // third node only 3, with no write in between.
  DirectHeap D(EquivalenceStrategy::SomeElements);
  std::vector<vm::ObjId> Ns;
  for (int I = 0; I < 5; ++I)
    Ns.push_back(D.node());
  for (int I = 0; I + 1 < 5; ++I)
    D.link(Ns[I], "next", Ns[I + 1]);
  int32_t Input = D.T.onStructureAccess(Ns[0], vm::Value::makeNull());
  EXPECT_EQ(D.T.measureFrom(Ns[0], Input).ObjectCount, 5);
  EXPECT_EQ(D.T.measureFrom(Ns[2], Input).ObjectCount, 3);
  // Once doubly linked it is closed: one traversal serves every node.
  for (int I = 0; I + 1 < 5; ++I)
    D.link(Ns[I + 1], "prev", Ns[I]);
  D.T.noteHeapWrite();
  int64_t Before = D.T.snapshotsTaken();
  for (vm::ObjId N : Ns)
    EXPECT_EQ(D.T.measureFrom(N, Input).ObjectCount, 5);
  EXPECT_EQ(D.T.snapshotsTaken(), Before + 1);
}

TEST(InputTable, Fig1InsertionSortTakesAboutOneTraversalPerElement) {
  // Every inner-loop invocation of the doubly linked insertion sort
  // measures at its first access and at its exit. The next invocation's
  // first access follows the previous exit with no write in between,
  // on the same closed list, so it reuses that traversal.
  auto CP = compile(
      programs::seededInsertionSortProgram(programs::InputOrder::Random));
  ASSERT_TRUE(CP);
  for (int64_t N : {20, 60, 150}) {
    ProfileSession S(*CP);
    vm::IoChannels Io;
    Io.Input = {N};
    ASSERT_TRUE(S.run("Main", "main", Io).ok());
    EXPECT_LE(S.inputs().snapshotsTaken(), N + 8) << "n = " << N;
  }
}

TEST(InputTable, AlgoProfPlansHookEveryStoreTraversalsFollow) {
  // Both snapshot memos assume every store that can change a traversal
  // reaches noteHeapWrite: a store to any recursive link field and any
  // array store.
  std::vector<std::string> Sources;
  for (const programs::CorpusProgram &P : programs::corpusPrograms())
    Sources.push_back(P.Source);
  for (const std::string &Src : Sources) {
    auto CP = compile(Src);
    ASSERT_TRUE(CP);
    const analysis::RecursiveTypes &RT = CP->Prep.RecTypes;
    for (const vm::InstrumentationPlan &Plan :
         {vm::InstrumentationPlan::forAlgoProf(*CP->Mod, RT, CP->Prep.Calls),
          vm::InstrumentationPlan::forAlgoProfAllMethods(*CP->Mod, RT)}) {
      EXPECT_TRUE(Plan.ArrayHooks);
      for (size_t F = 0; F < CP->Mod->Fields.size(); ++F)
        if (RT.FieldIsLink[F]) {
          EXPECT_TRUE(Plan.fieldHook(static_cast<int32_t>(F)))
              << CP->Mod->Fields[F].Name;
        }
    }
  }
}

} // namespace
