//===- tests/BackHalfTest.cpp - Profile back half against references -----===//
///
/// \file
/// Oracle tests for the profile back half (cost combination, pooled
/// series extraction, the json number format). Each keeps the previous,
/// straightforward algorithm here as a reference implementation and
/// compares it with the library's single-pass code:
///
///  - combination: copy every member record, then fold child rows into
///    parent rows deepest node first, one CostMap::merge per record;
///  - series: one pass over the invocations per cost kind, one lookup
///    per pooled id;
///  - number format: snprintf("%.17g").
///
/// The combination oracle covers every built-in corpus program, serial
/// and through a four-worker sweep (whose shard merge moves and remaps
/// the records), under invocation sampling (the FoldedCosts path), and
/// a fixed-seed batch of generated programs.
///
//===----------------------------------------------------------------------===//

#include "SweepTestUtil.h"
#include "TestUtil.h"
#include "fuzz/ProgramGen.h"
#include "programs/Programs.h"
#include "report/Reporter.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <unordered_map>

using namespace algoprof;
using namespace algoprof::prof;

namespace {

//===----------------------------------------------------------------------===//
// Reference implementations
//===----------------------------------------------------------------------===//

struct RefInvocation {
  CostMap Costs;
  std::map<int32_t, InputUse> Inputs;
  bool Finalized = false;
};

/// Copy-and-fold combination: a canonicalized working copy of every
/// member record, then every record folded into its parent's row,
/// deepest node first.
std::vector<RefInvocation> refCombine(const Algorithm &A,
                                      const InputTable &T) {
  std::unordered_map<const RepetitionNode *, std::vector<RefInvocation>> Acc;
  for (const RepetitionNode *N : A.Nodes) {
    std::vector<RefInvocation> &Rows = Acc[N];
    Rows.resize(N->History.size());
    for (size_t I = 0; I < N->History.size(); ++I) {
      RecordView R = N->record(I);
      Rows[I].Finalized = R.Finalized;
      Rows[I].Costs.merge(R.Costs);
      Rows[I].Costs.merge(R.FoldedCosts);
      Rows[I].Costs.canonicalizeInputs(
          [&T](int32_t Id) { return T.canonical(Id); });
      for (const auto &[Id, Use] : R.Inputs) {
        auto [It, New] = Rows[I].Inputs.emplace(T.canonical(Id), Use);
        if (!New)
          It->second.mergeMax(Use);
      }
    }
  }
  std::vector<const RepetitionNode *> Order = A.Nodes;
  std::stable_sort(Order.begin(), Order.end(),
                   [](const RepetitionNode *X, const RepetitionNode *Y) {
                     return X->depth() > Y->depth();
                   });
  for (const RepetitionNode *N : Order) {
    if (N == A.Root)
      continue;
    std::vector<RefInvocation> &Rows = Acc[N];
    for (size_t I = 0; I < N->History.size(); ++I) {
      RecordView R = N->record(I);
      if (!R.Finalized || !R.ParentNode || !A.contains(R.ParentNode) ||
          R.ParentInvocation < 0)
        continue;
      RefInvocation &Parent =
          Acc[R.ParentNode][static_cast<size_t>(R.ParentInvocation)];
      Parent.Costs.merge(Rows[I].Costs);
      for (const auto &[Id, Use] : Rows[I].Inputs) {
        auto [It, New] = Parent.Inputs.emplace(Id, Use);
        if (!New)
          It->second.mergeMax(Use);
      }
    }
  }
  std::vector<RefInvocation> Result;
  for (RefInvocation &Row : Acc[A.Root])
    if (Row.Finalized)
      Result.push_back(std::move(Row));
  return Result;
}

/// Per-measure pooled extraction: one pass per cost kind.
std::vector<SeriesPoint>
refPooledSeries(const std::vector<CombinedInvocation> &Invocations,
                const std::vector<int32_t> &InputIds, CostKind K) {
  std::vector<SeriesPoint> Series;
  for (const CombinedInvocation &Inv : Invocations) {
    int64_t BestSize = -1;
    int64_t Cost = 0;
    for (int32_t Id : InputIds) {
      const InputUse *Use = Inv.Inputs.find(Id);
      if (!Use)
        continue;
      BestSize = std::max(BestSize, Use->MaxSize);
      if (K != CostKind::Step)
        Cost += Inv.Costs.total(K, Id);
    }
    if (BestSize < 0)
      continue;
    Series.push_back({static_cast<double>(BestSize),
                      static_cast<double>(K == CostKind::Step
                                              ? Inv.Costs.steps()
                                              : Cost)});
  }
  return Series;
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

std::string seriesStr(const std::vector<SeriesPoint> &S) {
  std::string Out;
  for (const SeriesPoint &P : S)
    Out += "<" + std::to_string(P.X) + "," + std::to_string(P.Y) + ">";
  return Out;
}

/// Compares the library's combination and series with the references
/// on every algorithm of \p Tree; returns the number of root
/// invocations compared.
size_t checkBackHalf(const RepetitionTree &Tree, const InputTable &T,
                     const CompiledProgram &CP, const std::string &What) {
  EXPECT_EQ(testutil::recordColumnFaults(Tree), "") << What;
  size_t Compared = 0;
  for (const Algorithm &A :
       groupAlgorithms(Tree, T, CP.Prep, GroupingStrategy::CommonInput)) {
    std::string Where = What + " algo" + std::to_string(A.Id);
    // Combination visits nodes parents-first: every record's parent
    // node, when a member, precedes the record's node.
    for (size_t NI = 0; NI < A.Nodes.size(); ++NI)
      for (const InvocationRecord &R : A.Nodes[NI]->History) {
        auto It = std::find(A.Nodes.begin(), A.Nodes.end(), R.ParentNode);
        if (It != A.Nodes.end()) {
          EXPECT_LT(static_cast<size_t>(It - A.Nodes.begin()), NI) << Where;
        }
      }

    std::vector<CombinedInvocation> Got = combineInvocations(A, T);
    std::vector<RefInvocation> Want = refCombine(A, T);
    EXPECT_EQ(Got.size(), Want.size()) << Where;
    for (size_t I = 0; I < std::min(Got.size(), Want.size()); ++I) {
      EXPECT_EQ(Got[I].Costs.entries(), Want[I].Costs.entries())
          << Where << " row " << I << ": " << Got[I].Costs.str()
          << " vs " << Want[I].Costs.str();
      EXPECT_EQ(Got[I].Inputs.size(), Want[I].Inputs.size())
          << Where << " row " << I;
      for (const auto &[Id, Use] : Want[I].Inputs) {
        const InputUse *G = Got[I].Inputs.find(Id);
        if (!G) {
          ADD_FAILURE() << Where << " row " << I << ": input " << Id
                        << " missing";
          continue;
        }
        EXPECT_EQ(G->MaxSize, Use.MaxSize) << Where << " input " << Id;
        EXPECT_EQ(G->MaxCapacity, Use.MaxCapacity) << Where;
        EXPECT_EQ(G->MaxUniqueElems, Use.MaxUniqueElems) << Where;
        EXPECT_EQ(G->MaxRefCount, Use.MaxRefCount) << Where;
      }
      ++Compared;
    }

    // Series, per input kind as buildProfilesFrom pools them.
    std::map<std::string, std::vector<int32_t>> Kinds;
    for (int32_t Id : A.InputIds)
      Kinds[T.info(Id).Label].push_back(Id);
    for (const auto &[Kind, Ids] : Kinds) {
      std::vector<std::vector<SeriesPoint>> ByKind =
          extractPooledSeriesByKind(Got, Ids, ProfileSeriesKinds);
      EXPECT_EQ(ByKind.size(), ProfileSeriesKinds.size());
      for (size_t K = 0; K < std::min(ByKind.size(), ProfileSeriesKinds.size());
           ++K) {
        std::string Ref = seriesStr(
            refPooledSeries(Got, Ids, ProfileSeriesKinds[K]));
        EXPECT_EQ(seriesStr(ByKind[K]), Ref)
            << Where << " " << Kind << " "
            << costKindLabel(ProfileSeriesKinds[K]);
        EXPECT_EQ(seriesStr(extractPooledSeries(Got, Ids,
                                                ProfileSeriesKinds[K])),
                  Ref)
            << Where << " " << Kind;
      }
    }
  }
  return Compared;
}

/// Profiles corpus program \p P over a few seeds and checks it.
size_t checkCorpusProgram(const programs::CorpusProgram &P,
                          const SessionOptions &SO) {
  auto CP = testutil::compile(P.Source);
  if (!CP) {
    ADD_FAILURE() << P.Name << " does not compile";
    return 0;
  }
  ProfileDriver D(*CP, SO);
  for (const vm::RunResult &R : D.runAll("Main", "main"))
    EXPECT_TRUE(R.ok()) << P.Name << ": " << R.TrapMessage;
  return checkBackHalf(D.tree(), D.inputs(), *CP, P.Name);
}

SessionOptions corpusOptions(int Jobs) {
  SessionOptions SO;
  SO.Seeds = {3, 7, 12};
  SO.Jobs = Jobs;
  return SO;
}

TEST(BackHalf, CombinationMatchesCopyAndFoldOnCorpus) {
  size_t Rows = 0;
  for (const programs::CorpusProgram &P : programs::corpusPrograms())
    Rows += checkCorpusProgram(P, corpusOptions(1));
  EXPECT_GT(Rows, 0u);
}

TEST(BackHalf, CombinationMatchesCopyAndFoldOnCorpusAtFourJobs) {
  size_t Rows = 0;
  for (const programs::CorpusProgram &P : programs::corpusPrograms())
    Rows += checkCorpusProgram(P, corpusOptions(4));
  EXPECT_GT(Rows, 0u);
}

TEST(BackHalf, CombinationMatchesCopyAndFoldUnderSampling) {
  // SampleThreshold=2: sampled-out invocations fold into their parent's
  // FoldedCosts, and records with a sampled-out parent fold nowhere.
  SessionOptions SO = corpusOptions(1);
  SO.Profile.SampleThreshold = 2;
  size_t Rows = 0;
  bool AnyFolded = false;
  for (const programs::CorpusProgram &P : programs::corpusPrograms()) {
    Rows += checkCorpusProgram(P, SO);
    auto CP = testutil::compile(P.Source);
    ASSERT_TRUE(CP);
    ProfileDriver D(*CP, SO);
    D.runAll("Main", "main");
    D.tree().forEach([&](const RepetitionNode &N) {
      for (const RecordView &R : N.records())
        AnyFolded |= !R.FoldedCosts.empty();
    });
  }
  EXPECT_GT(Rows, 0u);
  EXPECT_TRUE(AnyFolded) << "no program exercised FoldedCosts";
}

TEST(BackHalf, CombinationMatchesCopyAndFoldOnGeneratedPrograms) {
  size_t Rows = 0;
  for (uint64_t Case = 0; Case < 40; ++Case) {
    fuzz::Rng R(fuzz::deriveSeed(0xbac4a1f, Case));
    std::string Src = fuzz::generateProgram(R);
    auto CP = testutil::compile(Src);
    ASSERT_TRUE(CP) << Src;
    for (int Jobs : {1, 2}) {
      SessionOptions SO;
      SO.Run.Fuel = 200'000;
      SO.Run.MaxFrames = 256;
      SO.Run.MaxArrayLength = 1 << 16;
      SO.Runs = 3;
      SO.Input = {5, 2, 9};
      SO.Jobs = Jobs;
      ProfileDriver D(*CP, SO);
      D.runAll("Main", "main"); // Traps leave unfinished records: fine.
      Rows += checkBackHalf(D.tree(), D.inputs(), *CP,
                            "case " + std::to_string(Case) + " jobs " +
                                std::to_string(Jobs));
    }
  }
  EXPECT_GT(Rows, 0u);
}

TEST(BackHalf, PooledSeriesCountsDuplicateIdsOnce) {
  CombinedInvocation Inv;
  Inv.Costs.add({CostKind::Step, -1, -1}, 10);
  Inv.Costs.add({CostKind::ArrayLoad, 4, -1}, 7);
  Inv.Costs.add({CostKind::ArrayLoad, 6, -1}, 5);
  InputUse Small, Large;
  Small.MaxSize = 3;
  Large.MaxSize = 8;
  Inv.Inputs = InputUses::fold({{4, Small}, {6, Large}});
  std::vector<CombinedInvocation> Invs = {Inv};

  std::vector<SeriesPoint> Loads =
      extractPooledSeries(Invs, {6, 4, 6, 4, 4}, CostKind::ArrayLoad);
  ASSERT_EQ(Loads.size(), 1u);
  EXPECT_EQ(Loads[0].X, 8);
  EXPECT_EQ(Loads[0].Y, 12);
  std::vector<SeriesPoint> Steps = extractPooledSeries(Invs, {4, 4});
  ASSERT_EQ(Steps.size(), 1u);
  EXPECT_EQ(Steps[0].X, 3);
  EXPECT_EQ(Steps[0].Y, 10);
  EXPECT_TRUE(extractPooledSeries(Invs, {5, 5}).empty());
}

//===----------------------------------------------------------------------===//
// Number format
//===----------------------------------------------------------------------===//

std::string printfG17(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string fmt(double V) {
  std::string Out = "x";
  report::fmtDouble(Out, V);
  return Out.substr(1); // fmtDouble appends.
}

TEST(BackHalf, FmtDoubleMatchesPrintfG17) {
  std::vector<double> Values = {
      0.0,
      -0.0,
      0.1,
      1.0 / 3.0,
      -1.0 / 3.0,
      1e16,
      1e17,
      1e-7,
      123456.789,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (int64_t I = -1000; I <= 100000; ++I)
    Values.push_back(static_cast<double>(I));
  for (int Shift = 0; Shift <= 53; ++Shift) {
    double P = std::ldexp(1.0, Shift);
    Values.insert(Values.end(), {P - 1, P, P + 1, -P});
  }
  std::mt19937_64 Rng(0x5eed);
  for (int I = 0; I < 100000; ++I) {
    Values.push_back(static_cast<double>(Rng() >> 11)); // Below 2^53.
    Values.push_back(static_cast<double>(Rng() >> 11) /
                     static_cast<double>(1 + (Rng() >> 40)));
  }
  for (double V : Values)
    ASSERT_EQ(fmt(V), printfG17(V)) << "bits of " << printfG17(V);
}

} // namespace
