//===- tests/MultiMeasureTest.cpp - Per-type counts & cost measures -------===//
//
// Paper Sec. 3.3/3.4: AlgoProf reports structure sizes per element type
// (a graph's Vertex count vs Edge count) and produces plots for several
// cost measures (steps, reads, writes), not just algorithmic steps.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::testutil;

namespace {

TEST(MultiMeasure, PerTypeObjectCountsForVertexEdgeGraph) {
  // A graph modeled with explicit Vertex and Edge classes: the paper's
  // example of per-type counts (cost{input#3, Vertex, PUT} -> 33).
  auto CP = compile(R"(
    class Vertex { Edge out; int id; }
    class Edge { Vertex target; Edge nextOut; }
    class Main {
      static void main() {
        // A ring of 5 vertices, one out-edge each.
        Vertex[] vs = new Vertex[5];
        for (int i = 0; i < 5; i++) {
          vs[i] = new Vertex();
        }
        for (int i = 0; i < 5; i++) {
          Edge e = new Edge();
          e.target = vs[(i + 1) % 5];
          vs[i].out = e;
        }
        // Traverse the ring through vertices and edges.
        int hops = 0;
        Vertex cur = vs[0];
        while (hops < 10) {
          cur = cur.out.target;
          hops++;
        }
        print(cur.id);
      }
    }
  )");
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  ASSERT_TRUE(S.run("Main", "main").ok());

  // One merged structure input with 5 Vertex and 5 Edge members.
  std::vector<int32_t> Live = S.inputs().liveHeapInputs();
  ASSERT_EQ(Live.size(), 1u);
  const InputInfo &Info = S.inputs().info(Live[0]);
  int32_t VertexId = CP->Mod->findClassId("Vertex");
  int32_t EdgeId = CP->Mod->findClassId("Edge");
  ASSERT_TRUE(Info.MemberClassCounts.count(VertexId));
  ASSERT_TRUE(Info.MemberClassCounts.count(EdgeId));
  EXPECT_EQ(Info.MemberClassCounts.at(VertexId), 5);
  EXPECT_EQ(Info.MemberClassCounts.at(EdgeId), 5);
}

TEST(MultiMeasure, PerTypeAccessCostsRecorded) {
  auto CP = compile(R"(
    class Vertex { Edge out; }
    class Edge { Vertex target; }
    class Main {
      static void main() {
        Vertex a = new Vertex();
        Vertex b = new Vertex();
        Edge e = new Edge();
        a.out = e;
        e.target = b;
        Vertex cur = a;
        for (int i = 0; i < 6; i++) {
          Edge step = cur.out;
          if (step != null) {
            cur = step.target;
          } else {
            cur = a;
          }
        }
        print(cur == null);
      }
    }
  )");
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  ASSERT_TRUE(S.run("Main", "main").ok());

  // The loop's record carries per-type GET refinements for both classes.
  int32_t VertexId = CP->Mod->findClassId("Vertex");
  int32_t EdgeId = CP->Mod->findClassId("Edge");
  bool SawVertexGet = false, SawEdgeGet = false;
  S.tree().forEach([&](const RepetitionNode &N) {
    for (const RecordView &R : N.records())
      for (const auto &[Key, Count] : R.Costs.entries()) {
        (void)Count;
        if (Key.Kind == CostKind::StructGet && Key.TypeId == VertexId)
          SawVertexGet = true;
        if (Key.Kind == CostKind::StructGet && Key.TypeId == EdgeId)
          SawEdgeGet = true;
      }
  });
  EXPECT_TRUE(SawVertexGet);
  EXPECT_TRUE(SawEdgeGet);
}

TEST(MultiMeasure, ReadAndWriteSeriesOfInsertionSort) {
  // Beyond steps: structure-write counts of the sort algorithm are also
  // quadratic in the input size, read counts likewise; construction
  // writes are linear.
  auto CP = compile(programs::insertionSortProgram(
      120, 10, 3, programs::InputOrder::Random));
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  ASSERT_TRUE(S.run("Main", "main").ok());

  for (const AlgorithmProfile &AP : S.buildProfiles()) {
    if (AP.Algo.Root->Name == "List.sort loop#0") {
      ASSERT_FALSE(AP.Series.empty());
      const auto &Kind = AP.Series.front();
      auto Writes = extractPooledSeries(AP.Invocations, Kind.InputIds,
                                        CostKind::StructPut);
      fit::FitResult F = fit::fitBest(Writes);
      ASSERT_TRUE(F.Valid);
      EXPECT_NEAR(F.growthExponent(), 2.0, 0.3) << F.formula();

      auto Reads = extractPooledSeries(AP.Invocations, Kind.InputIds,
                                       CostKind::StructGet);
      fit::FitResult G = fit::fitBest(Reads);
      ASSERT_TRUE(G.Valid);
      EXPECT_NEAR(G.growthExponent(), 2.0, 0.3) << G.formula();
    }
    if (AP.Algo.Root->Name == "Main.constructRandom loop#0") {
      ASSERT_FALSE(AP.Series.empty());
      const auto &Kind = AP.Series.front();
      auto Writes = extractPooledSeries(AP.Invocations, Kind.InputIds,
                                        CostKind::StructPut);
      fit::FitResult F = fit::fitBest(Writes);
      ASSERT_TRUE(F.Valid);
      EXPECT_NEAR(F.growthExponent(), 1.0, 0.2) << F.formula();
    }
  }
}

TEST(MultiMeasure, CapacityVsUniqueElementMeasures) {
  // Paper Sec. 3.4: the two array sizing strategies diverge for a
  // partially used array; both are recorded side by side.
  auto CP = compile(R"(
    class Main {
      static void main() {
        int[] big = new int[100];
        for (int i = 0; i < 7; i++) {
          big[i] = i + 1;
        }
        print(big[0]);
      }
    }
  )");
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  ASSERT_TRUE(S.run("Main", "main").ok());

  bool Checked = false;
  S.tree().forEach([&](const RepetitionNode &N) {
    if (N.Name != "Main.main loop#0")
      return;
    ASSERT_EQ(N.History.size(), 1u);
    RecordView R = N.record(0);
    ASSERT_EQ(R.Inputs.size(), 1u);
    const InputUse &Use = R.Inputs.begin()->second;
    EXPECT_EQ(Use.MaxCapacity, 100);
    EXPECT_EQ(Use.MaxUniqueElems, 8); // 1..7 plus the default 0.
    Checked = true;
  });
  EXPECT_TRUE(Checked);
}

} // namespace
