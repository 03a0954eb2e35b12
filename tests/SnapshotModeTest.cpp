//===- tests/SnapshotModeTest.cpp - Eager vs tracked sizing ---------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::testutil;

namespace {

std::map<std::string, int64_t>
maxSizesByNode(const std::string &Src, SnapshotMode Mode) {
  auto CP = compile(Src);
  EXPECT_TRUE(CP);
  SessionOptions Opts;
  Opts.Profile.Snapshots = Mode;
  ProfileSession S(*CP, Opts);
  EXPECT_TRUE(S.run("Main", "main").ok());
  std::map<std::string, int64_t> Sizes;
  S.tree().forEach([&](const RepetitionNode &N) {
    for (const RecordView &R : N.records())
      for (const auto &[Id, Use] : R.Inputs) {
        (void)Id;
        Sizes[N.Name] = std::max(Sizes[N.Name], Use.MaxSize);
      }
  });
  return Sizes;
}

TEST(SnapshotMode, TrackedMatchesEagerOnGrowOnlyWorkload) {
  // For grow-only structures the tracked membership count equals the
  // paper's max-size rule exactly.
  std::string Src = programs::insertionSortProgram(
      40, 10, 2, programs::InputOrder::Random);
  auto Eager = maxSizesByNode(Src, SnapshotMode::Eager);
  auto Tracked = maxSizesByNode(Src, SnapshotMode::Tracked);
  ASSERT_FALSE(Eager.empty());
  for (const auto &[Node, Size] : Eager)
    EXPECT_EQ(Tracked[Node], Size) << Node;
}

TEST(SnapshotMode, TrackedTakesFewerSnapshots) {
  std::string Src = programs::insertionSortProgram(
      60, 10, 2, programs::InputOrder::Random);
  auto CP = compile(Src);
  ASSERT_TRUE(CP);

  SessionOptions EagerOpts;
  ProfileSession EagerS(*CP, EagerOpts);
  ASSERT_TRUE(EagerS.run("Main", "main").ok());

  SessionOptions TrackedOpts;
  TrackedOpts.Profile.Snapshots = SnapshotMode::Tracked;
  ProfileSession TrackedS(*CP, TrackedOpts);
  ASSERT_TRUE(TrackedS.run("Main", "main").ok());

  EXPECT_LT(TrackedS.inputs().snapshotsTaken(),
            EagerS.inputs().snapshotsTaken() / 4);
}

TEST(SnapshotMode, FitsAgreeAcrossModes) {
  std::string Src = programs::insertionSortProgram(
      80, 10, 3, programs::InputOrder::Random);
  for (SnapshotMode Mode :
       {SnapshotMode::Eager, SnapshotMode::Tracked}) {
    auto CP = compile(Src);
    ASSERT_TRUE(CP);
    SessionOptions Opts;
    Opts.Profile.Snapshots = Mode;
    ProfileSession S(*CP, Opts);
    ASSERT_TRUE(S.run("Main", "main").ok());
    for (const AlgorithmProfile &AP : S.buildProfiles()) {
      if (AP.Algo.Root->Name != "List.sort loop#0")
        continue;
      const auto *Ser = AP.primarySeries();
      ASSERT_NE(Ser, nullptr) << snapshotModeName(Mode);
      EXPECT_NEAR(Ser->Fit.growthExponent(), 2.0, 0.3)
          << snapshotModeName(Mode);
    }
  }
}

TEST(SnapshotMode, TrackedSizesAreRunScoped) {
  // Two identical runs must record identical tracked sizes even when
  // the equivalence strategy unifies their inputs: measurement counters
  // reset at program start (InputTable::beginRun), so the second run is
  // sized from its own heap, not from the first run's accumulated value
  // set (fuzzer-found, seed 0xa190f17 case 8837).
  const char *Src = R"(
    class Main {
      static void main() {
        int i = 0;
        while (i < 4) {
          int[] b = new int[2];
          b[0] = 0;
          i = i + 1;
        }
        int[] a = new int[5];
        a[0] = 9;
      }
    }
  )";
  auto CP = compile(Src);
  ASSERT_TRUE(CP);
  SessionOptions Opts;
  Opts.Profile.Equivalence = EquivalenceStrategy::SameType;
  Opts.Profile.Snapshots = SnapshotMode::Tracked;
  ProfileSession S(*CP, Opts);
  ASSERT_TRUE(S.run("Main", "main").ok());
  ASSERT_TRUE(S.run("Main", "main").ok());
  bool SawLoop = false;
  S.tree().forEach([&](const RepetitionNode &N) {
    if (N.History.size() != 2)
      return;
    SawLoop = true;
    RecordView R0 = N.record(0);
    RecordView R1 = N.record(1);
    ASSERT_EQ(R0.Inputs.size(), R1.Inputs.size()) << N.Name;
    auto It0 = R0.Inputs.begin();
    auto It1 = R1.Inputs.begin();
    for (; It0 != R0.Inputs.end(); ++It0, ++It1)
      EXPECT_EQ(It0->second.MaxSize, It1->second.MaxSize) << N.Name;
  });
  EXPECT_TRUE(SawLoop);
}

TEST(SnapshotMode, ShrinkingListEagerIsExactTrackedOverestimates) {
  // Characterization of the one documented divergence: a linked list
  // grows to n = 12 nodes, then k = 4 of them are unlinked (every other
  // node after the head), then a measured loop traverses what is left.
  // Eager traverses the live structure, so the traversal loop sees
  // exactly n - k nodes. Tracked reads a membership count that only
  // ever grows within a run, so it does not shrink; its observed value
  // is pinned here so any change to either mode's sizing shows up.
  const char *Src = R"(
    class Node {
      Node next;
      int v;
    }
    class Main {
      static Node build(int n) {
        Node head = null;
        int i = 0;
        while (i < n) {
          Node x = new Node();
          x.v = i;
          x.next = head;
          head = x;
          i = i + 1;
        }
        return head;
      }
      static void unlink(Node head, int k) {
        Node p = head;
        int i = 0;
        while (i < k) {
          p.next = p.next.next;
          p = p.next;
          i = i + 1;
        }
      }
      static int sum(Node head) {
        int s = 0;
        Node p = head;
        while (p != null) {
          s = s + p.v;
          p = p.next;
        }
        return s;
      }
      static void main() {
        Node head = build(12);
        unlink(head, 4);
        print(sum(head));
      }
    }
  )";
  const int64_t N = 12, K = 4;
  auto Eager = maxSizesByNode(Src, SnapshotMode::Eager);
  auto Tracked = maxSizesByNode(Src, SnapshotMode::Tracked);
  ASSERT_TRUE(Eager.count("Main.sum loop#0"));
  ASSERT_TRUE(Tracked.count("Main.sum loop#0"));
  EXPECT_EQ(Eager["Main.sum loop#0"], N - K);
  EXPECT_GE(Tracked["Main.sum loop#0"], N - K);
  // Observed: Tracked still counts every node ever linked in, i.e. n.
  EXPECT_EQ(Tracked["Main.sum loop#0"], N);
}

/// The size each recorded invocation of \p Node observed (the largest
/// MaxSize over the inputs it touched), in invocation order.
std::vector<int64_t> invocationSizes(const RepetitionTree &T,
                                     const std::string &Node) {
  std::vector<int64_t> Sizes;
  T.forEach([&](const RepetitionNode &N) {
    if (N.Name != Node)
      return;
    for (const RecordView &R : N.records()) {
      int64_t Max = 0;
      for (const auto &[Id, Use] : R.Inputs) {
        (void)Id;
        Max = std::max(Max, Use.MaxSize);
      }
      Sizes.push_back(Max);
    }
  });
  return Sizes;
}

//===----------------------------------------------------------------------===//
// Eager traversal marks: exact sizes where dense marks can go wrong
//===----------------------------------------------------------------------===//

TEST(SnapshotMode, EagerSizesEachRunOfSessionOnRecycledHeap) {
  // One session, three runs building lists of 9, 3 and 6 nodes. The
  // heap is recycled between runs without reusing ids, so the second
  // run's first object has id 9 and the third run's id 12: traversal
  // marks are indexed from a non-zero base and the earlier runs' marks
  // are stale. Every run's walk must see exactly its own list.
  const char *Src = R"(
    class Node {
      Node next;
    }
    class Main {
      static int len(Node h) {
        int c = 0;
        Node p = h;
        while (p != null) {
          c = c + 1;
          p = p.next;
        }
        return c;
      }
      static void main() {
        int n = readInt();
        Node head = null;
        int i = 0;
        while (i < n) {
          Node x = new Node();
          x.next = head;
          head = x;
          i = i + 1;
        }
        print(len(head));
      }
    }
  )";
  auto CP = compile(Src);
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  int64_t FirstId = 0;
  for (int64_t N : {9, 3, 6}) {
    EXPECT_EQ(S.interpreter().heap().numObjects(), FirstId);
    vm::IoChannels Io;
    Io.Input = {N};
    vm::RunResult R = S.run("Main", "main", Io);
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(Io.Output, (std::vector<int64_t>{N}));
    FirstId += N;
  }
  EXPECT_EQ(invocationSizes(S.tree(), "Main.len loop#0"),
            (std::vector<int64_t>{9, 3, 6}));
}

TEST(SnapshotMode, EagerCountsSharedObjectsOnceAndEveryArrayReference) {
  // A doubly linked ring of n = 4 nodes; the head's extra array holds
  // the third node twice. A snapshot from any node reaches the 4 nodes
  // around the ring and the array through the head's link field: the
  // third node is reached three times but counts once (ObjectCount 4),
  // while both array slots are traversed references (RefCount 2).
  const char *Src = R"(
    class Node {
      Node next;
      Node prev;
      Node[] extra;
    }
    class Main {
      static int walk(Node h) {
        int c = 1;
        Node p = h.next;
        while (p != h) {
          c = c + 1;
          p = p.next;
        }
        return c;
      }
      static void main() {
        Node head = new Node();
        head.next = head;
        head.prev = head;
        int i = 1;
        while (i < 4) {
          Node x = new Node();
          Node last = head.prev;
          x.next = head;
          x.prev = last;
          last.next = x;
          head.prev = x;
          i = i + 1;
        }
        Node third = head.next.next;
        Node[] refs = new Node[2];
        refs[0] = third;
        refs[1] = third;
        head.extra = refs;
        print(walk(head));
      }
    }
  )";
  auto CP = compile(Src);
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  vm::IoChannels Io;
  vm::RunResult R = S.run("Main", "main", Io);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(Io.Output, (std::vector<int64_t>{4}));
  std::vector<InputUse> Uses;
  S.tree().forEach([&](const RepetitionNode &N) {
    if (N.Name == "Main.walk loop#0")
      for (const RecordView &Rec : N.records())
        for (const auto &[Id, Use] : Rec.Inputs) {
          (void)Id;
          Uses.push_back(Use);
        }
  });
  ASSERT_EQ(Uses.size(), 1u);
  EXPECT_EQ(Uses[0].FirstSize, 4);
  EXPECT_EQ(Uses[0].LastSize, 4);
  EXPECT_EQ(Uses[0].MaxRefCount, 2);
}

//===----------------------------------------------------------------------===//
// AllElements snapshot memo: every heap write invalidates it
//===----------------------------------------------------------------------===//

/// Profiles one run of \p Src under AllElements with Eager sizing and
/// returns the per-invocation sizes of \p Node.
std::vector<int64_t> allElementsSizes(const std::string &Src,
                                      const std::string &Node) {
  auto CP = compile(Src);
  EXPECT_TRUE(CP);
  if (!CP)
    return {};
  SessionOptions Opts;
  Opts.Profile.Equivalence = EquivalenceStrategy::AllElements;
  Opts.Profile.Snapshots = SnapshotMode::Eager;
  ProfileSession S(*CP, Opts);
  vm::RunResult R = S.run("Main", "main");
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return invocationSizes(S.tree(), Node);
}

TEST(SnapshotMode, AllElementsLinkWritesInvalidateMemo) {
  // A list of n = 12 is read from its head, k = 4 nodes are unlinked by
  // link-field writes, and the list is read again from the same head.
  // The second read must traverse the shrunk list: n, then n - k.
  const char *Src = R"(
    class Node {
      Node next;
      int v;
    }
    class Main {
      static Node build(int n) {
        Node head = null;
        int i = 0;
        while (i < n) {
          Node x = new Node();
          x.v = i;
          x.next = head;
          head = x;
          i = i + 1;
        }
        return head;
      }
      static void unlink(Node head, int k) {
        Node p = head;
        int i = 0;
        while (i < k) {
          p.next = p.next.next;
          p = p.next;
          i = i + 1;
        }
      }
      static int sum(Node head) {
        int s = 0;
        Node p = head;
        while (p != null) {
          s = s + p.v;
          p = p.next;
        }
        return s;
      }
      static void main() {
        Node head = build(12);
        print(sum(head));
        unlink(head, 4);
        print(sum(head));
      }
    }
  )";
  EXPECT_EQ(allElementsSizes(Src, "Main.sum loop#0"),
            (std::vector<int64_t>{12, 12 - 4}));
}

TEST(SnapshotMode, AllElementsArrayStoreIntoLinkedArrayInvalidatesMemo) {
  // The root's kids array is reached through a link field. Storing one
  // node into it between two reads from the root adds one object to
  // the structure: 1 (the root), then 2.
  const char *Src = R"(
    class Node {
      Node[] kids;
      int v;
    }
    class Main {
      static int width(Node r) {
        int w = 0;
        int i = 0;
        while (i < 1) {
          Node[] k = r.kids;
          w = w + k.length;
          i = i + 1;
        }
        return w;
      }
      static void main() {
        Node root = new Node();
        root.kids = new Node[3];
        print(width(root));
        root.kids[1] = new Node();
        print(width(root));
      }
    }
  )";
  EXPECT_EQ(allElementsSizes(Src, "Main.width loop#0"),
            (std::vector<int64_t>{1, 2}));
}

TEST(SnapshotMode, AllElementsRowStoreInvalidatesOuterArrayMemo) {
  // A 3x3 int[][] counts unique elements per level: 3 distinct row
  // references plus one distinct value (0) per row, 6 in all. Storing
  // 7 into row 1 between two reads of the outer array gives that row a
  // second distinct value: 6, then 7.
  const char *Src = R"(
    class Main {
      static int rows(int[][] g) {
        int c = 0;
        int i = 0;
        while (i < 1) {
          int[] r = g[0];
          c = c + r.length;
          i = i + 1;
        }
        return c;
      }
      static void main() {
        int[][] g = new int[3][3];
        print(rows(g));
        g[1][2] = 7;
        print(rows(g));
      }
    }
  )";
  EXPECT_EQ(allElementsSizes(Src, "Main.rows loop#0"),
            (std::vector<int64_t>{6, 7}));
}

TEST(SnapshotMode, AllElementsLongReadOnlyWalkStaysExact) {
  // Walking a list of n = 800 without writes memoizes every suffix it
  // starts from, about n²/2 = 320,000 entries, more than the memo holds,
  // so the memo starts over during the walk. The walk's size stays
  // exact: its first access sees all n nodes.
  const char *Src = R"(
    class Node {
      Node next;
      int v;
    }
    class Main {
      static void main() {
        Node head = null;
        int i = 0;
        while (i < 800) {
          Node x = new Node();
          x.v = i;
          x.next = head;
          head = x;
          i = i + 1;
        }
        int s = 0;
        Node p = head;
        while (p != null) {
          s = s + p.v;
          p = p.next;
        }
        print(s);
      }
    }
  )";
  EXPECT_EQ(allElementsSizes(Src, "Main.main loop#1"),
            (std::vector<int64_t>{800}));
}

TEST(SnapshotMode, AllElementsRunStartInvalidatesMemo) {
  // One profiler, two runs, each on a fresh interpreter, so object ids
  // restart at zero and the second run's head has the first run's
  // head's id. Each run reads its head alone (size 1), then appends n
  // nodes and reads again (n + 1). The second run must size its own
  // heap, exactly as a fresh profiler does.
  const char *Src = R"(
    class Node {
      Node next;
    }
    class Main {
      static int len(Node h) {
        int c = 0;
        Node p = h;
        while (p != null) {
          c = c + 1;
          p = p.next;
        }
        return c;
      }
      static void main() {
        int n = readInt();
        Node head = new Node();
        print(len(head));
        Node p = head;
        int i = 0;
        while (i < n) {
          Node x = new Node();
          p.next = x;
          p = x;
          i = i + 1;
        }
        print(len(head));
      }
    }
  )";
  auto CP = compile(Src);
  ASSERT_TRUE(CP);
  ProfileOptions PO;
  PO.Equivalence = EquivalenceStrategy::AllElements;
  PO.Snapshots = SnapshotMode::Eager;
  vm::InstrumentationPlan Plan = makeInstrumentationPlan(*CP, false);
  auto RunOn = [&](AlgoProfiler &Prof, int64_t N) {
    vm::Interpreter Interp(CP->Prep);
    vm::IoChannels Io;
    Io.Input = {N};
    vm::RunResult R = Interp.run(CP->entryMethod("Main", "main"), &Prof,
                                 Plan, Io, vm::RunOptions());
    EXPECT_TRUE(R.ok()) << R.TrapMessage;
  };
  AlgoProfiler Shared(CP->Prep, PO);
  RunOn(Shared, 5);
  RunOn(Shared, 2);
  AlgoProfiler Fresh(CP->Prep, PO);
  RunOn(Fresh, 2);
  EXPECT_EQ(invocationSizes(Shared.tree(), "Main.len loop#0"),
            (std::vector<int64_t>{1, 6, 1, 3}));
  EXPECT_EQ(invocationSizes(Fresh.tree(), "Main.len loop#0"),
            (std::vector<int64_t>{1, 3}));
}

} // namespace
