//===- tests/ComplexityZooTest.cpp - Log and n-log-n workloads ------------===//
//
// Beyond the paper's linear/quadratic examples: the profiler + fitter
// recover logarithmic (binary search) and linearithmic (BST build)
// cost functions.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::testutil;

namespace {

struct Profiled {
  std::unique_ptr<CompiledProgram> CP;
  std::unique_ptr<ProfileSession> Session;
  std::vector<AlgorithmProfile> Profiles;
};

Profiled profileProgram(const std::string &Src) {
  Profiled P;
  P.CP = compile(Src);
  if (!P.CP)
    return P;
  P.Session = std::make_unique<ProfileSession>(*P.CP);
  vm::RunResult R = P.Session->run("Main", "main");
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  P.Profiles = P.Session->buildProfiles();
  return P;
}

const AlgorithmProfile *byRoot(const Profiled &P, const std::string &R) {
  for (const AlgorithmProfile &AP : P.Profiles)
    if (AP.Algo.Root->Name == R)
      return &AP;
  return nullptr;
}

TEST(ComplexityZoo, BinarySearchIsLogarithmic) {
  Profiled P = profileProgram(programs::binarySearchProgram(512, 32));
  const AlgorithmProfile *Search = byRoot(P, "Main.search loop#0");
  ASSERT_NE(Search, nullptr);
  const AlgorithmProfile::InputSeries *S = Search->primarySeries();
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->Fit.Valid);
  // Clearly sub-linear; the logarithmic basis should win or come close.
  EXPECT_LT(S->Fit.growthExponent(), 0.6) << S->Fit.formula();
  EXPECT_GT(S->Fit.growthExponent(), 0.0) << S->Fit.formula();
  // Per-search steps never exceed log2(n) + 1.
  for (const SeriesPoint &Pt : S->Series)
    if (Pt.X >= 2)
      EXPECT_LE(Pt.Y, std::log2(Pt.X) + 1.0001);
}

TEST(ComplexityZoo, BinarySearchClassifiedAsTraversal) {
  Profiled P = profileProgram(programs::binarySearchProgram(128, 32));
  const AlgorithmProfile *Search = byRoot(P, "Main.search loop#0");
  ASSERT_NE(Search, nullptr);
  EXPECT_NE(Search->Label.find("Traversal"), std::string::npos)
      << Search->Label;
}

TEST(ComplexityZoo, BstBuildIsLinearithmicConstruction) {
  // The insert descent loop groups under the fill loop: the terminating
  // `cur.left = node; return;` block cannot reach the loop's back edge,
  // so by natural-loop semantics the commit write executes *outside*
  // the descent loop and attributes to the caller's fill loop — giving
  // both repetitions accesses to the tree and the intuitive grouping.
  Profiled P = profileProgram(programs::bstProgram(320, 32));
  const AlgorithmProfile *Build = byRoot(P, "Main.fill loop#0");
  ASSERT_NE(Build, nullptr);
  EXPECT_EQ(Build->Algo.Nodes.size(), 2u); // fill + descent.
  EXPECT_NE(Build->Label.find("Construction of a BstNode-based"),
            std::string::npos)
      << Build->Label;
  const AlgorithmProfile::InputSeries *S = Build->primarySeries();
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->Fit.Valid);
  double Exp = S->Fit.growthExponent();
  EXPECT_GT(Exp, 0.95) << S->Fit.formula();
  EXPECT_LT(Exp, 1.6) << S->Fit.formula();
}

TEST(ComplexityZoo, BstSumIsLinear) {
  Profiled P = profileProgram(programs::bstProgram(320, 32));
  const AlgorithmProfile *Sum = byRoot(P, "Bst.sum (recursion)");
  ASSERT_NE(Sum, nullptr);
  const AlgorithmProfile::InputSeries *S = Sum->primarySeries();
  ASSERT_NE(S, nullptr);
  EXPECT_NEAR(S->Fit.growthExponent(), 1.0, 0.15) << S->Fit.formula();
  EXPECT_NE(Sum->Label.find("Traversal"), std::string::npos);
}

TEST(ComplexityZoo, WhileTrueLoopExitsViaReturnAreBalanced) {
  // The BST insert loop is `while (true) { ... return; }`: its only
  // exits are method returns. The tree must still be consistent.
  Profiled P = profileProgram(programs::bstProgram(64, 64));
  const RepetitionNode *Descent = nullptr;
  P.Session->tree().forEach([&](const RepetitionNode &N) {
    if (N.Name == "Bst.insert loop#0")
      Descent = &N;
  });
  ASSERT_NE(Descent, nullptr);
  for (const RecordView &R : Descent->records())
    EXPECT_TRUE(R.Finalized);
  // 63 inserts enter the descent loop (the first insert returns early).
  EXPECT_EQ(Descent->History.size(), 63u);
}

TEST(ComplexityZoo, LogarithmicFitOnSyntheticData) {
  std::vector<SeriesPoint> S;
  for (int N = 4; N <= 4096; N *= 2)
    S.push_back({static_cast<double>(N), 3 * std::log2(N)});
  fit::FitResult F = fit::fitBest(S);
  ASSERT_TRUE(F.Valid);
  EXPECT_EQ(F.Kind, fit::ModelKind::Logarithmic);
  EXPECT_NEAR(F.Coefficient, 3.0, 0.1);
  EXPECT_NE(F.formula().find("log2(n)"), std::string::npos);
}

} // namespace
