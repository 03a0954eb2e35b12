//===- tests/MergeTest.cpp - Properties of the shard merges ---------------===//
///
/// \file
/// Property tests for InputTable::merge + RepetitionTree::merge, the
/// reduction SweepEngine is built on. Shards are produced by running
/// real profiled executions by hand (tests/SweepTestUtil.h) and merged
/// in controlled orders, and every merge is checked to leave the
/// record columns well formed and the shard tree empty:
///
///  - identity: merging into an empty accumulator reproduces the shard;
///    merging an empty shard changes nothing;
///  - associativity: (A + B) + C == A + (B + C), on programs whose
///    arrays do not overlap across the split (an accumulated table
///    carries no identification-time values to replay);
///  - permutation invariance for value-disjoint runs: when no cross-run
///    unification can trigger, any merge order yields the same profiles
///    up to series-point order.
///
/// Merge is deliberately NOT commutative in general — SomeElements
/// unification compares a later run's identification-time values
/// against earlier runs' final value sets, mirroring the serial
/// session's own run-order sensitivity — so no test asserts it.
///
//===----------------------------------------------------------------------===//

#include "SweepTestUtil.h"
#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <unordered_set>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::programs;
using testutil::ShardRun;

namespace {

/// An accumulator mirroring SweepEngine's reduce phase, for merging
/// hand-run shards in arbitrary orders.
struct Accumulator {
  std::unique_ptr<AlgoProfiler> Acc;
  const CompiledProgram &CP;

  explicit Accumulator(const CompiledProgram &CP, const SessionOptions &SO)
      : Acc(std::make_unique<AlgoProfiler>(CP.Prep, SO.Profile)), CP(CP) {}

  /// Merges \p Shard, consuming its tree (its input table stays).
  void add(AlgoProfiler &Shard) {
    std::vector<int32_t> Remap = Acc->inputs().merge(Shard.inputs());
    Acc->tree().merge(std::move(Shard.tree()), Remap);
    EXPECT_EQ(testutil::recordColumnFaults(Acc->tree()), "");
    EXPECT_EQ(testutil::heldRecordState(Shard.tree()), 0u);
  }
  void add(ShardRun &S) { add(*S.Prof); }

  std::string profileSig(bool SortPoints = false) const {
    return testutil::profileSignature(
        buildProfilesFrom(Acc->tree(), Acc->inputs(), CP), Acc->inputs(),
        SortPoints);
  }
  std::string treeSig() const { return testutil::treeSignature(Acc->tree()); }
  std::string inputsSig() const {
    return testutil::inputsSignature(Acc->inputs());
  }
};

/// Values seed*1000+i: runs with different seeds share no array values,
/// so no SomeElements overlap is possible and merge order cannot matter.
const char *DisjointValuesProgram = R"MJ(
class Main {
  static void main() {
    int seed = 0;
    if (hasInput()) {
      seed = readInt();
    }
    int[] a = new int[8];
    for (int i = 0; i < 8; i++) {
      a[i] = seed * 1000 + i + 1;
    }
    int sum = 0;
    for (int i = 0; i < 8; i++) {
      sum = sum + a[i];
    }
    print(sum);
  }
}
)MJ";

TEST(MergeTest, MergingOneShardIntoEmptyReproducesIt) {
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);
  SessionOptions SO;
  ShardRun S = testutil::runShard(*CP, SO, {12});
  ASSERT_TRUE(S.Result.ok()) << S.Result.TrapMessage;

  // The merge consumes the shard's tree: take its signatures first.
  std::string Tree = testutil::treeSignature(S.Prof->tree());
  std::string Inputs = testutil::inputsSignature(S.Prof->inputs());
  std::string Profiles = testutil::profileSignature(
      buildProfilesFrom(S.Prof->tree(), S.Prof->inputs(), *CP),
      S.Prof->inputs());

  Accumulator A(*CP, SO);
  A.add(S);
  // An empty destination: the merged state must equal the shard's own.
  EXPECT_EQ(A.treeSig(), Tree);
  EXPECT_EQ(A.inputsSig(), Inputs);
  EXPECT_EQ(A.profileSig(), Profiles);
}

TEST(MergeTest, MergingAnEmptyShardIsIdentity) {
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);
  SessionOptions SO;
  Accumulator A(*CP, SO);
  ShardRun S = testutil::runShard(*CP, SO, {8});
  A.add(S);
  std::string Tree = A.treeSig(), Inputs = A.inputsSig(),
              Profiles = A.profileSig();

  // A never-run profiler: empty tree, empty table.
  AlgoProfiler Empty(CP->Prep, SO.Profile);
  A.add(Empty);
  EXPECT_EQ(A.treeSig(), Tree);
  EXPECT_EQ(A.inputsSig(), Inputs);
  EXPECT_EQ(A.profileSig(), Profiles);
}

TEST(MergeTest, MergeIsAssociative) {
  // (A + B) + C vs A + (B + C): the right side first reduces B and C
  // into an intermediate accumulator, then folds that accumulated state
  // in.
  for (const std::string &Src :
       {seededInsertionSortProgram(InputOrder::Random),
        std::string(DisjointValuesProgram), ioSumProgram()}) {
    auto CP = testutil::compile(Src);
    ASSERT_TRUE(CP);
    SessionOptions SO;
    // Merges consume shard trees, so each side runs its own shards.
    auto Run = [&](int64_t Seed) {
      ShardRun S = testutil::runShard(*CP, SO, {Seed});
      EXPECT_TRUE(S.Result.ok()) << S.Result.TrapMessage;
      return S;
    };
    ShardRun A = Run(4), B = Run(8), C = Run(12);
    Accumulator Left(*CP, SO);
    Left.add(A);
    Left.add(B);
    Left.add(C);

    ShardRun A2 = Run(4), B2 = Run(8), C2 = Run(12);
    Accumulator BC(*CP, SO);
    BC.add(B2);
    BC.add(C2);
    Accumulator Right(*CP, SO);
    Right.add(A2);
    Right.add(*BC.Acc);

    EXPECT_EQ(Left.treeSig(), Right.treeSig());
    EXPECT_EQ(Left.inputsSig(), Right.inputsSig());
    EXPECT_EQ(Left.profileSig(), Right.profileSig());
  }
}

TEST(MergeTest, ValueDisjointRunsAreOrderInvariant) {
  // With pairwise-disjoint value sets nothing can unify cross-run, so
  // every merge order must produce the same profiles up to the order of
  // pooled series points (which legitimately follows run order).
  auto CP = testutil::compile(DisjointValuesProgram);
  ASSERT_TRUE(CP);
  SessionOptions SO;
  const std::vector<int64_t> Seeds = {1, 2, 3, 4, 5};

  // Merges consume shard trees, so every order runs its own shards.
  auto SigOf = [&](const std::vector<size_t> &Order) {
    Accumulator A(*CP, SO);
    for (size_t I : Order) {
      ShardRun S = testutil::runShard(*CP, SO, {Seeds[I]});
      EXPECT_TRUE(S.Result.ok()) << S.Result.TrapMessage;
      A.add(S);
    }
    return A.profileSig(/*SortPoints=*/true);
  };

  std::vector<size_t> Order(Seeds.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::string Baseline = SigOf(Order);
  EXPECT_NE(Baseline.find("algo"), std::string::npos);

  std::mt19937 Rng(42);
  for (int Shuffle = 0; Shuffle < 6; ++Shuffle) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    EXPECT_EQ(Baseline, SigOf(Order)) << "shuffle=" << Shuffle;
  }
}

TEST(MergeTest, TreeMergeAlignsByKeyAndOffsetsParents) {
  // Direct unit test of RepetitionTree::merge on hand-built trees:
  // children align by RepKey, source records append after destination
  // records, and ParentInvocation indices shift by the destination
  // parent's pre-merge history length, and record ranges by the
  // destination column's pre-merge length.
  RepKey KeyX{RepKind::Loop, 1, 0};
  RepKey KeyY{RepKind::Loop, 1, 1};
  auto AddStepRecord = [](RepetitionNode &N, RepetitionNode *Parent,
                          int64_t Steps, int32_t ParentInv) {
    InvocationRecord R;
    R.Costs = ColumnRange::between(N.CostColumn.size(),
                                   N.CostColumn.size() + 1);
    N.CostColumn.push_back({{CostKind::Step, -1, -1}, Steps});
    R.ParentNode = Parent;
    R.ParentInvocation = ParentInv;
    R.Finalized = true;
    N.History.push_back(R);
  };

  RepetitionTree Dst;
  AddStepRecord(Dst.root(), nullptr, 100, -1);
  Dst.root().TotalInvocations = 1;
  RepetitionNode &DstX = Dst.getOrCreateChild(Dst.root(), KeyX, "X");
  AddStepRecord(DstX, &Dst.root(), 5, 0);
  AddStepRecord(DstX, &Dst.root(), 7, 0);
  DstX.TotalInvocations = 2;

  RepetitionTree Src;
  AddStepRecord(Src.root(), nullptr, 200, -1);
  AddStepRecord(Src.root(), nullptr, 300, -1);
  Src.root().TotalInvocations = 2;
  RepetitionNode &SrcX = Src.getOrCreateChild(Src.root(), KeyX, "X");
  AddStepRecord(SrcX, &Src.root(), 9, 1);
  SrcX.TotalInvocations = 1;
  RepetitionNode &SrcY = Src.getOrCreateChild(Src.root(), KeyY, "Y");
  AddStepRecord(SrcY, &Src.root(), 11, 0);
  SrcY.TotalInvocations = 1;

  Dst.merge(std::move(Src), {});
  // The records and their columns moved out of the shard tree.
  EXPECT_EQ(testutil::heldRecordState(Src), 0u);
  EXPECT_EQ(testutil::recordColumnFaults(Dst), "");

  EXPECT_EQ(Dst.numRepetitions(), 2);
  ASSERT_EQ(Dst.root().History.size(), 3u);
  EXPECT_EQ(Dst.root().TotalInvocations, 3);
  EXPECT_EQ(Dst.root().record(1).Costs.steps(), 200);

  RepetitionNode *X = Dst.root().findChild(KeyX);
  ASSERT_NE(X, nullptr);
  ASSERT_EQ(X->History.size(), 3u);
  EXPECT_EQ(X->TotalInvocations, 3);
  EXPECT_EQ(X->record(2).Costs.steps(), 9);
  // Src record pointed at src-root invocation 1; dst root had 1 record
  // before the merge, so it now points at dst-root invocation 2.
  EXPECT_EQ(X->History[2].ParentInvocation, 2);
  EXPECT_EQ(X->History[2].ParentNode, &Dst.root());
  EXPECT_EQ(X->History[0].ParentInvocation, 0);

  RepetitionNode *Y = Dst.root().findChild(KeyY);
  ASSERT_NE(Y, nullptr);
  ASSERT_EQ(Y->History.size(), 1u);
  EXPECT_EQ(Y->record(0).Costs.steps(), 11);
  EXPECT_EQ(Y->History[0].ParentInvocation, 1);
  EXPECT_EQ(Y->History[0].ParentNode, &Dst.root());
}

/// Seed 0 builds one array {1, 2}. Any other seed builds s1, first
/// accessed holding {1}, then s2, first accessed holding {9}, and only
/// then stores 9 into s1: the shard's s1 overlaps the seed-0 array and
/// ends up holding 9, which s2's identification-time values contain.
const char *OverlapOrderProgram = R"MJ(
class Main {
  static void main() {
    int seed = 0;
    if (hasInput()) {
      seed = readInt();
    }
    if (seed == 0) {
      int[] a = new int[2];
      a[0] = 1;
      a[1] = 2;
    } else {
      int[] s1 = new int[2];
      s1[0] = 1;
      int[] s2 = new int[1];
      s2[0] = 9;
      s1[1] = 9;
    }
  }
}
)MJ";

std::vector<int64_t> sortedValues(const std::unordered_set<int64_t> &S) {
  std::vector<int64_t> V(S.begin(), S.end());
  std::sort(V.begin(), V.end());
  return V;
}

TEST(MergeTest, ArrayOverlapsAreDecidedAgainstPreMergeValueSets) {
  // A serial session identifies s2 while the unified array holds {1, 2}
  // plus s1's {1}: no overlap, so s2 is a new input, even though the
  // merge later folds s1's 9 into that array. The shard merge must
  // decide s2's overlap against the value sets from before the merge.
  auto CP = testutil::compile(OverlapOrderProgram);
  ASSERT_TRUE(CP);
  SessionOptions SO;
  ShardRun First = testutil::runShard(*CP, SO, {0});
  ShardRun Second = testutil::runShard(*CP, SO, {1});
  ASSERT_TRUE(First.Result.ok() && Second.Result.ok());

  const InputTable &FT = First.Prof->inputs();
  ASSERT_EQ(FT.liveHeapInputs().size(), 1u);
  int32_t A = FT.liveHeapInputs()[0];
  EXPECT_EQ(sortedValues(FT.info(A).ValueSet), (std::vector<int64_t>{1, 2}));

  const InputTable &ST = Second.Prof->inputs();
  ASSERT_EQ(ST.liveHeapInputs().size(), 2u);
  int32_t S1 = ST.liveHeapInputs()[0], S2 = ST.liveHeapInputs()[1];
  EXPECT_EQ(sortedValues(ST.info(S1).SeedValues), (std::vector<int64_t>{1}));
  EXPECT_EQ(sortedValues(ST.info(S1).ValueSet),
            (std::vector<int64_t>{1, 9}));
  EXPECT_EQ(sortedValues(ST.info(S2).SeedValues), (std::vector<int64_t>{9}));

  Accumulator Acc(*CP, SO);
  Acc.add(First);
  std::vector<int32_t> Remap = Acc.Acc->inputs().merge(ST);
  const InputTable &Merged = Acc.Acc->inputs();
  EXPECT_EQ(Merged.canonical(Remap[static_cast<size_t>(S1)]),
            Merged.canonical(A));
  EXPECT_NE(Merged.canonical(Remap[static_cast<size_t>(S2)]),
            Merged.canonical(A));
  EXPECT_EQ(sortedValues(Merged.info(A).ValueSet),
            (std::vector<int64_t>{1, 2, 9}));

  ProfileSession Serial(*CP, SO);
  for (int64_t Seed : {0, 1}) {
    vm::IoChannels Io;
    Io.Input = {Seed};
    ASSERT_TRUE(Serial.run("Main", "main", Io).ok());
  }
  EXPECT_EQ(testutil::inputsSignature(Merged),
            testutil::inputsSignature(Serial.inputs()));
}

TEST(MergeTest, InputTableMergeRemapsAndConservesClassCounts) {
  // Two runs of the binary-search program build value-identical int
  // arrays, so the second shard's array inputs must unify with the
  // first run's — exactly as a serial session unifies them. (Structure
  // inputs, by contrast, never unify cross-run: each run's objects are
  // distinct, in the sweep just as in a serial session.)
  auto CP = testutil::compile(binarySearchProgram(8, 4));
  ASSERT_TRUE(CP);
  SessionOptions SO;
  ShardRun A = testutil::runShard(*CP, SO);
  ShardRun B = testutil::runShard(*CP, SO);
  ASSERT_TRUE(A.Result.ok() && B.Result.ok());

  Accumulator Acc(*CP, SO);
  Acc.add(A);
  size_t LiveAfterA = Acc.Acc->inputs().liveInputs().size();
  Acc.add(B);
  // Identical runs: every one of B's array inputs lands on an existing
  // one, so the live count does not grow...
  EXPECT_EQ(Acc.Acc->inputs().liveInputs().size(), LiveAfterA);

  // ...and matches a serial session over the same two runs.
  ProfileSession Serial(*CP, SO);
  ASSERT_TRUE(Serial.run("Main", "main").ok());
  ASSERT_TRUE(Serial.run("Main", "main").ok());
  EXPECT_EQ(Acc.Acc->inputs().liveInputs().size(),
            Serial.inputs().liveInputs().size());

  // Member class counts are conserved: on linked structures, every
  // shard's members land in the merged table exactly once per class,
  // and each merged input counts what the serial session counts.
  auto ClassTotals = [](const InputTable &T) {
    std::map<int32_t, int64_t> Totals;
    for (int32_t Id : T.liveInputs())
      for (const auto &[ClassId, N] : T.info(Id).MemberClassCounts)
        Totals[ClassId] += N;
    return Totals;
  };
  auto LCP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(LCP);
  ShardRun L1 = testutil::runShard(*LCP, SO, {6});
  ShardRun L2 = testutil::runShard(*LCP, SO, {9});
  ASSERT_TRUE(L1.Result.ok() && L2.Result.ok());
  std::map<int32_t, int64_t> Want = ClassTotals(L1.Prof->inputs());
  for (const auto &[ClassId, N] : ClassTotals(L2.Prof->inputs()))
    Want[ClassId] += N;
  ASSERT_FALSE(Want.empty());
  Accumulator LAcc(*LCP, SO);
  LAcc.add(L1);
  LAcc.add(L2);
  EXPECT_EQ(ClassTotals(LAcc.Acc->inputs()), Want);

  ProfileSession LSerial(*LCP, SO);
  for (int64_t Seed : {6, 9}) {
    vm::IoChannels Io;
    Io.Input = {Seed};
    ASSERT_TRUE(LSerial.run("Main", "main", Io).ok());
  }
  EXPECT_EQ(ClassTotals(LSerial.inputs()), Want);
  EXPECT_EQ(LAcc.inputsSig(), testutil::inputsSignature(LSerial.inputs()));
}

} // namespace
