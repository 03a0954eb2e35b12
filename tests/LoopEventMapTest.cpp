//===- tests/LoopEventMapTest.cpp - Loop-event table construction ---------===//
//
// Direct unit tests of the per-pc loop-event slots the interpreter
// consults (vm/LoopEventMap.h), independent of event delivery.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"
#include "vm/LoopEventMap.h"

#include <gtest/gtest.h>

using namespace algoprof;
using namespace algoprof::vm;
using namespace algoprof::testutil;

namespace {

struct Tables {
  std::unique_ptr<prof::CompiledProgram> CP;
  const PreparedMethod *PM = nullptr;
  const bc::MethodInfo *M = nullptr;
};

Tables tablesOf(const std::string &Src, const std::string &Method) {
  Tables T;
  T.CP = compile(Src);
  if (!T.CP)
    return T;
  int32_t Id = T.CP->Mod->findMethodId("Main", Method);
  EXPECT_GE(Id, 0);
  T.PM = &T.CP->Prep.Methods[static_cast<size_t>(Id)];
  T.M = &T.CP->Mod->Methods[static_cast<size_t>(Id)];
  return T;
}

bool sameEvents(const LoopTransition &A, const LoopTransition &B) {
  return A.Exits == B.Exits && A.BackEdge == B.BackEdge &&
         A.Entries == B.Entries;
}

TEST(LoopEventMap, SingleLoopHasEntryBackEdgeAndExit) {
  Tables T = tablesOf(R"(
    class Main {
      static int m(int n) {
        int s = 0;
        while (n > 0) { s = s + n; n--; }
        return s;
      }
      static void main() { print(m(3)); }
    }
  )",
                      "m");
  ASSERT_NE(T.PM, nullptr);
  const LoopEventMap &LEM = T.PM->Events;

  int Entries = 0, BackEdges = 0, Exits = 0;
  for (const LoopTransition &Tr : LEM.Edges) {
    Entries += static_cast<int>(Tr.Entries.size());
    BackEdges += Tr.BackEdge >= 0 ? 1 : 0;
    Exits += static_cast<int>(Tr.Exits.size());
  }
  EXPECT_EQ(Entries, 1);   // One edge enters the loop.
  EXPECT_EQ(BackEdges, 1); // One latch.
  EXPECT_EQ(Exits, 1);     // One exit edge (the IfFalse).
}

TEST(LoopEventMap, SlotsCoverExactlyTheEventfulCfgEdges) {
  std::vector<std::string> Sources = {R"(
    class Main {
      static int m(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
          for (int j = 0; j < i; j++) {
            if (j == 3) { break; }
            s = s + 1;
          }
          while (s > 100) { s = s - 7; }
        }
        return s;
      }
      static void main() { print(m(4)); }
    }
  )"};
  for (const programs::CorpusProgram &P : programs::corpusPrograms())
    Sources.push_back(P.Source);

  size_t EventfulEdges = 0;
  for (const std::string &Src : Sources) {
    auto CP = compile(Src);
    ASSERT_TRUE(CP);
    for (size_t Id = 0; Id < CP->Mod->Methods.size(); ++Id) {
      const std::vector<bc::Instr> &Code = CP->Mod->Methods[Id].Code;
      const PreparedMethod &PM = CP->Prep.Methods[Id];
      const LoopEventMap &LEM = PM.Events;
      ASSERT_EQ(LEM.Fall.size(), Code.size());
      ASSERT_EQ(LEM.Taken.size(), Code.size());
      // The slots each CFG edge should occupy, with its expected events.
      std::vector<LoopTransition> WantFall(Code.size()),
          WantTaken(Code.size());
      std::vector<char> HasFall(Code.size(), 0), HasTaken(Code.size(), 0);
      for (const analysis::BasicBlock &B : PM.Graph.Blocks) {
        int From = B.End - 1;
        const bc::Instr &Last = Code[static_cast<size_t>(From)];
        for (int S : B.Succs) {
          int To = PM.Graph.Blocks[static_cast<size_t>(S)].Begin;
          LoopTransition Want = chainTransition(PM, From, To);
          if (Want.Exits.empty() && Want.BackEdge < 0 && Want.Entries.empty())
            continue;
          ++EventfulEdges;
          int Slots = 0;
          if (To == B.End && Last.Op != bc::Opcode::Goto) {
            HasFall[static_cast<size_t>(From)] = 1;
            WantFall[static_cast<size_t>(From)] = Want;
            ++Slots;
          }
          if (bc::isBranch(Last.Op) && Last.A == To) {
            HasTaken[static_cast<size_t>(From)] = 1;
            WantTaken[static_cast<size_t>(From)] = Want;
            ++Slots;
          }
          // One slot per edge; a branch to pc+1 is one edge reached
          // both ways.
          bool CondToNext = Last.Op != bc::Opcode::Goto &&
                            bc::isBranch(Last.Op) && Last.A == From + 1;
          EXPECT_EQ(Slots, CondToNext ? 2 : 1);
        }
      }
      for (size_t Pc = 0; Pc < Code.size(); ++Pc) {
        ASSERT_EQ(LEM.Fall[Pc] >= 0, HasFall[Pc] != 0) << "fall slot " << Pc;
        ASSERT_EQ(LEM.Taken[Pc] >= 0, HasTaken[Pc] != 0)
            << "taken slot " << Pc;
        if (HasFall[Pc])
          EXPECT_TRUE(sameEvents(LEM.Edges[static_cast<size_t>(LEM.Fall[Pc])],
                                 WantFall[Pc]))
              << "fall slot " << Pc;
        if (HasTaken[Pc])
          EXPECT_TRUE(sameEvents(LEM.Edges[static_cast<size_t>(LEM.Taken[Pc])],
                                 WantTaken[Pc]))
              << "taken slot " << Pc;
      }
    }
  }
  EXPECT_GT(EventfulEdges, 0u);
}

TEST(LoopEventMap, BreakFromNestedLoopsExitsBothOnOneEdge) {
  Tables T = tablesOf(R"(
    class Main {
      static int m(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
          for (int j = 0; j < n; j++) {
            if (i * j == 6) {
              return s; // Leaves both loops via the return path.
            }
            s = s + 1;
          }
        }
        return s;
      }
      static void main() { print(m(5)); }
    }
  )",
                      "m");
  ASSERT_NE(T.PM, nullptr);
  const LoopEventMap &LEM = T.PM->Events;
  // The return pc sits inside both loops: its chain has two entries,
  // innermost first (greater depth first).
  bool SawDepthTwoChain = false;
  for (const auto &Chain : LEM.LoopChainAtPc)
    if (Chain.size() == 2)
      SawDepthTwoChain = true;
  EXPECT_TRUE(SawDepthTwoChain);
}

TEST(LoopEventMap, ChainsOrderedInnermostFirst) {
  Tables T = tablesOf(R"(
    class Main {
      static int m(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
          for (int j = 0; j < n; j++) {
            for (int k = 0; k < n; k++) {
              s = s + 1;
            }
          }
        }
        return s;
      }
      static void main() { print(m(2)); }
    }
  )",
                      "m");
  ASSERT_NE(T.PM, nullptr);
  const analysis::LoopInfo &LI = T.PM->Loops;
  for (const auto &Chain : T.PM->Events.LoopChainAtPc) {
    for (size_t I = 1; I < Chain.size(); ++I) {
      EXPECT_GT(LI.Loops[static_cast<size_t>(Chain[I - 1])].Depth,
                LI.Loops[static_cast<size_t>(Chain[I])].Depth);
    }
  }
}

TEST(LoopEventMap, StraightLineMethodHasNoTransitions) {
  Tables T = tablesOf(R"(
    class Main {
      static int m(int a, int b) { return a * b + 1; }
      static void main() { print(m(2, 3)); }
    }
  )",
                      "m");
  ASSERT_NE(T.PM, nullptr);
  EXPECT_TRUE(T.PM->Events.Edges.empty());
  for (size_t Pc = 0; Pc < T.M->Code.size(); ++Pc) {
    EXPECT_EQ(T.PM->Events.Fall[Pc], -1);
    EXPECT_EQ(T.PM->Events.Taken[Pc], -1);
  }
  for (const auto &Chain : T.PM->Events.LoopChainAtPc)
    EXPECT_TRUE(Chain.empty());
}

} // namespace
