//===- tests/SamplingTest.cpp - Invocation sampling (Sec. 3.3) ------------===//
//
// The paper notes that keeping the full per-invocation history "can
// lead to large memory requirements" and suggests sampling a subset of
// invocations for frequently invoked repetitions. These tests cover the
// stride-doubling sampler.
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

Profiled profileProgram(const std::string &Src, int64_t Threshold) {
  Profiled P;
  P.CP = compile(Src);
  if (!P.CP)
    return P;
  SessionOptions Opts;
  Opts.Profile.SampleThreshold = Threshold;
  P.Session = std::make_unique<ProfileSession>(*P.CP, Opts);
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

TEST(Sampling, DisabledKeepsEveryInvocation) {
  Profiled P = profileProgram(
      programs::insertionSortProgram(60, 10, 3,
                                     programs::InputOrder::Random),
      /*Threshold=*/0);
  P.Session->tree().forEach([](const RepetitionNode &N) {
    EXPECT_EQ(static_cast<int64_t>(N.History.size()),
              N.TotalInvocations);
  });
}

TEST(Sampling, CapsRecordGrowthLogarithmically) {
  // The inner sort loop runs thousands of times; with threshold T the
  // recorded history grows like T * log2(total/T).
  Profiled Full = profileProgram(
      programs::insertionSortProgram(120, 10, 3,
                                     programs::InputOrder::Random),
      0);
  Profiled Sampled = profileProgram(
      programs::insertionSortProgram(120, 10, 3,
                                     programs::InputOrder::Random),
      /*Threshold=*/32);

  const RepetitionNode *FullInner =
      nodeByName(Full.Session->tree(), "List.sort loop#1");
  const RepetitionNode *SampInner =
      nodeByName(Sampled.Session->tree(), "List.sort loop#1");
  ASSERT_NE(FullInner, nullptr);
  ASSERT_NE(SampInner, nullptr);
  EXPECT_EQ(FullInner->TotalInvocations, SampInner->TotalInvocations);
  EXPECT_GT(FullInner->History.size(), 1000u);
  EXPECT_LT(SampInner->History.size(), 300u);
  EXPECT_GE(SampInner->History.size(), 32u);
}

TEST(Sampling, DensePrefixIsExact) {
  Profiled P = profileProgram(
      programs::insertionSortProgram(60, 10, 2,
                                     programs::InputOrder::Random),
      /*Threshold=*/16);
  const RepetitionNode *Outer =
      nodeByName(P.Session->tree(), "List.sort loop#0");
  ASSERT_NE(Outer, nullptr);
  // Fewer invocations than the threshold: everything recorded.
  ASSERT_LE(Outer->TotalInvocations, 16);
  EXPECT_EQ(static_cast<int64_t>(Outer->History.size()),
            Outer->TotalInvocations);
}

TEST(Sampling, ProfilesStayWellFormedAndFitsHold) {
  Profiled P = profileProgram(
      programs::insertionSortProgram(120, 10, 3,
                                     programs::InputOrder::Random),
      /*Threshold=*/24);
  // Structural invariants hold on the sampled records.
  P.Session->tree().forEach([](const RepetitionNode &N) {
    EXPECT_LE(static_cast<int64_t>(N.History.size()),
              N.TotalInvocations);
    for (const RecordView &R : N.records()) {
      EXPECT_TRUE(R.Finalized);
      if (R.ParentNode && R.ParentInvocation >= 0)
        EXPECT_LT(static_cast<size_t>(R.ParentInvocation),
                  R.ParentNode->History.size());
    }
  });
  // The sort algorithm still fits quadratic from sampled data.
  for (const AlgorithmProfile &AP : P.Session->buildProfiles()) {
    if (AP.Algo.Root->Name != "List.sort loop#0")
      continue;
    const AlgorithmProfile::InputSeries *S = AP.primarySeries();
    ASSERT_NE(S, nullptr);
    EXPECT_NEAR(S->Fit.growthExponent(), 2.0, 0.35) << S->Fit.formula();
  }
}

TEST(Sampling, TrapUnwindStillBalanced) {
  auto CP = compile(R"(
    class Main {
      static void main() {
        int[] a = new int[4];
        for (int r = 0; r < 100; r++) {
          for (int i = 0; i <= r; i++) {
            a[i % 8] = i;  // Traps once i % 8 exceeds 3... immediately ok
          }
        }
      }
    }
  )");
  ASSERT_TRUE(CP);
  SessionOptions Opts;
  Opts.Profile.SampleThreshold = 8;
  ProfileSession S(*CP, Opts);
  vm::RunResult R = S.run("Main", "main");
  EXPECT_EQ(R.Status, vm::RunStatus::Trapped);
  S.tree().forEach([](const RepetitionNode &N) {
    for (const RecordView &Rec : N.records())
      EXPECT_TRUE(Rec.Finalized);
  });
}

} // namespace
