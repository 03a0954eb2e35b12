//===- tests/ParallelSweepTest.cpp - Serial vs sharded sweeps -------------===//
///
/// \file
/// Differential tests for parallel::SweepEngine: a sharded sweep at any
/// thread count must produce the same algorithm profiles — labels,
/// per-input classifications, series points, fitted formulas — as a
/// serial ProfileSession executing the same runs in the same order, and
/// the same repetition-tree structure and live-input contents. The
/// comparisons are string signatures (tests/SweepTestUtil.h) so a
/// mismatch prints both sides.
///
//===----------------------------------------------------------------------===//

#include "SweepTestUtil.h"
#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::programs;

namespace {

struct Sigs {
  std::string Profiles;
  std::string Tree;
  std::string Inputs;

  bool operator==(const Sigs &O) const {
    return Profiles == O.Profiles && Tree == O.Tree && Inputs == O.Inputs;
  }
};

/// Drives a serial accumulating session over \p Runs (one I/O input
/// vector per run) and renders its signatures.
Sigs serialSigs(const CompiledProgram &CP, const SessionOptions &SO,
                const std::vector<std::vector<int64_t>> &Runs,
                GroupingStrategy G = GroupingStrategy::CommonInput) {
  ProfileSession S(CP, SO);
  for (const std::vector<int64_t> &In : Runs) {
    vm::IoChannels Io;
    Io.Input = In;
    vm::RunResult R = S.run("Main", "main", Io);
    EXPECT_TRUE(R.ok()) << R.TrapMessage;
  }
  EXPECT_EQ(testutil::recordColumnFaults(S.tree()), "");
  return {testutil::profileSignature(S.buildProfiles(G), S.inputs()),
          testutil::treeSignature(S.tree()),
          testutil::inputsSignature(S.inputs())};
}

/// Runs the same runs through the sweep engine at \p Threads workers.
Sigs sweepSigs(const CompiledProgram &CP, const SessionOptions &SO,
               int Threads, const std::vector<std::vector<int64_t>> &Runs,
               GroupingStrategy G = GroupingStrategy::CommonInput) {
  SessionOptions Sharded = SO;
  Sharded.Jobs = Threads;
  parallel::SweepEngine E(CP, Sharded);
  std::vector<vm::IoChannels> Ios(Runs.size());
  for (size_t I = 0; I < Runs.size(); ++I)
    Ios[I].Input = Runs[I];
  parallel::SweepResult SR = E.sweepWithInputs("Main", "main", Ios);
  EXPECT_TRUE(SR.allOk());
  EXPECT_EQ(testutil::recordColumnFaults(E.tree()), "");
  return {testutil::profileSignature(E.buildProfiles(G), E.inputs()),
          testutil::treeSignature(E.tree()),
          testutil::inputsSignature(E.inputs())};
}

void expectSweepMatchesSerial(
    const std::string &Src, const std::vector<std::vector<int64_t>> &Runs,
    const SessionOptions &SO = SessionOptions(),
    GroupingStrategy G = GroupingStrategy::CommonInput) {
  auto CP = testutil::compile(Src);
  ASSERT_TRUE(CP);
  Sigs Serial = serialSigs(*CP, SO, Runs, G);
  ASSERT_FALSE(Serial.Tree.empty());
  for (int Threads : {1, 2, 8}) {
    Sigs Sweep = sweepSigs(*CP, SO, Threads, Runs, G);
    EXPECT_EQ(Serial.Profiles, Sweep.Profiles) << "threads=" << Threads;
    EXPECT_EQ(Serial.Tree, Sweep.Tree) << "threads=" << Threads;
    EXPECT_EQ(Serial.Inputs, Sweep.Inputs) << "threads=" << Threads;
  }
}

std::vector<std::vector<int64_t>> seedRuns(std::vector<int64_t> Seeds) {
  std::vector<std::vector<int64_t>> Runs;
  for (int64_t S : Seeds)
    Runs.push_back({S});
  return Runs;
}

TEST(ParallelSweepTest, SeededInsertionSortMatchesSerial) {
  // The Fig. 1 shape SweepEngine exists for: one list sorted per run,
  // list length delivered through the input channel.
  for (InputOrder Order :
       {InputOrder::Random, InputOrder::Sorted, InputOrder::Reversed})
    expectSweepMatchesSerial(seededInsertionSortProgram(Order),
                             seedRuns({0, 4, 8, 12, 16}));
}

TEST(ParallelSweepTest, RepeatedIdenticalRunsMatchSerial) {
  // Identical unseeded runs produce identical structures and identical
  // array values, so every run's inputs unify with earlier runs' —
  // maximum stress for the cross-run SomeElements replay.
  expectSweepMatchesSerial(insertionSortProgram(12, 4, 1, InputOrder::Random),
                           {{}, {}, {}});
}

TEST(ParallelSweepTest, CorpusMatchesSerial) {
  const std::vector<std::pair<const char *, std::string>> Corpus = {
      {"functionalSort", functionalSortProgram(12, 4, 1, InputOrder::Random)},
      {"mergeSort", mergeSortProgram(12, 4, 1, InputOrder::Random)},
      {"arrayListNaive", arrayListProgram(false, 12, 4)},
      {"arrayListDoubling", arrayListProgram(true, 16, 4)},
      {"binarySearch", binarySearchProgram(16, 4)},
      {"bst", bstProgram(16, 4)},
      {"listing4", listing4Program(8)},
      {"listing5", listing5Program(4, 5)},
  };
  for (const auto &[Name, Src] : Corpus) {
    SCOPED_TRACE(Name);
    expectSweepMatchesSerial(Src, {{}, {}});
  }
}

TEST(ParallelSweepTest, StreamProgramMatchesSerial) {
  // Stream pseudo-inputs must unify across shards by role, and the
  // pooled stream series must keep run order.
  expectSweepMatchesSerial(ioSumProgram(), {{1, 2, 3}, {4, 5}, {6}, {}});
}

TEST(ParallelSweepTest, EquivalenceStrategiesMatchSerial) {
  // SameType and SameArray have their own cross-run unification rules
  // (first live same-typed input; never unify). AllElements is exercised
  // on a structure-only program: disjoint heap snapshots can never be
  // element-equal across runs, which the merge reproduces by never
  // unifying heap inputs cross-run — the documented scope of its replay.
  for (EquivalenceStrategy Strategy :
       {EquivalenceStrategy::SameType, EquivalenceStrategy::SameArray,
        EquivalenceStrategy::AllElements}) {
    SCOPED_TRACE(equivalenceStrategyName(Strategy));
    SessionOptions SO;
    SO.Profile.Equivalence = Strategy;
    expectSweepMatchesSerial(seededInsertionSortProgram(InputOrder::Random),
                             seedRuns({3, 6, 9}), SO);
  }
}

TEST(ParallelSweepTest, TrackedSnapshotsMatchSerial) {
  SessionOptions SO;
  SO.Profile.Snapshots = SnapshotMode::Tracked;
  expectSweepMatchesSerial(seededInsertionSortProgram(InputOrder::Random),
                           seedRuns({4, 8, 12}), SO);
}

TEST(ParallelSweepTest, TrackedSizesDoNotLeakAcrossUnifiedRuns) {
  // Fuzzer-found (seed 0xa190f17, case 8837): under SameType every
  // run's int[] arrays unify into one input, and tracked sizing used to
  // read that input's *cumulative* value set — so a later run's loop,
  // storing only zeros, was sized by an earlier run's stored values.
  // Shards size per-run; so must the serial session. The loop below
  // stores zeros (never tracked as values), making its tracked size the
  // membership-count fallback; the non-zero store afterwards poisons
  // the cumulative value set for the next run.
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
  SessionOptions SO;
  SO.Profile.Equivalence = EquivalenceStrategy::SameType;
  SO.Profile.Snapshots = SnapshotMode::Tracked;
  expectSweepMatchesSerial(Src, {{}, {}, {}}, SO);
}

TEST(ParallelSweepTest, GroupingStrategiesMatchSerial) {
  for (GroupingStrategy G :
       {GroupingStrategy::SameMethod,
        GroupingStrategy::CommonInputPlusDataflow}) {
    expectSweepMatchesSerial(seededInsertionSortProgram(InputOrder::Random),
                             seedRuns({4, 8, 12}), SessionOptions(), G);
  }
}

TEST(ParallelSweepTest, RepeatedSweepsAreByteIdentical) {
  // Determinism across schedules: the same sweep at 8 threads, twice,
  // must be byte-identical (reduction happens after all workers join,
  // strictly in run-index order — scheduling cannot show through).
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);
  SessionOptions SO;
  std::vector<std::vector<int64_t>> Runs = seedRuns({0, 4, 8, 12, 16, 20});
  Sigs First = sweepSigs(*CP, SO, 8, Runs);
  for (int Rep = 0; Rep < 3; ++Rep)
    EXPECT_EQ(First, sweepSigs(*CP, SO, 8, Runs)) << "rep=" << Rep;
  EXPECT_EQ(First, sweepSigs(*CP, SO, 1, Runs));
}

TEST(ParallelSweepTest, SeedsApiMatchesExplicitChannels) {
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);
  SessionOptions SO;
  SO.Jobs = 2;
  SO.Seeds = {4, 8, 12};
  parallel::SweepEngine E(*CP, SO);
  parallel::SweepResult SR = E.sweep("Main", "main");
  EXPECT_TRUE(SR.allOk());
  EXPECT_EQ(SR.Runs.size(), 3u);
  Sigs ViaSeeds = {
      testutil::profileSignature(E.buildProfiles(), E.inputs()),
      testutil::treeSignature(E.tree()), testutil::inputsSignature(E.inputs())};
  EXPECT_EQ(ViaSeeds,
            sweepSigs(*CP, SessionOptions(), 2, seedRuns({4, 8, 12})));
}

TEST(ParallelSweepTest, SuccessiveSweepsAccumulateLikeSerial) {
  // Two sweep() batches on one engine must equal one serial session
  // over the concatenated runs: the engine's accumulated tree and
  // inputs persist across batches exactly like a serial session's.
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);
  SessionOptions SO;
  SO.Jobs = 2;
  parallel::SweepEngine E(*CP, SO);
  for (std::vector<int64_t> Batch : {std::vector<int64_t>{4, 8},
                                     std::vector<int64_t>{12, 16}}) {
    EXPECT_TRUE(
        E.sweepWithInputs("Main", "main", prof::runInputs(Batch, 1, {}))
            .allOk());
  }
  Sigs Batched = {
      testutil::profileSignature(E.buildProfiles(), E.inputs()),
      testutil::treeSignature(E.tree()), testutil::inputsSignature(E.inputs())};
  EXPECT_EQ(Batched, serialSigs(*CP, SessionOptions(),
                                seedRuns({4, 8, 12, 16})));
}

TEST(ParallelSweepTest, QuarantinedSweepMatchesSerialOverSurvivors) {
  // The degraded-merge guarantee (docs/resilience.md): a sweep that
  // quarantines runs under the Skip policy must produce the profile a
  // serial session produces over just the surviving seeds — object-id
  // offsets, input unification, series order, everything.
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);
  SessionOptions SO;
  SO.Jobs = 4;
  SO.Seeds = {0, 4, 8, 12, 16, 20};
  SO.Policy = resilience::FailurePolicy::Skip;
  std::string Err;
  ASSERT_TRUE(resilience::FaultPlan::parse("heap-oom@run2,run-start-fail@run4",
                                           SO.Faults, Err))
      << Err;
  parallel::SweepEngine E(*CP, SO);
  parallel::SweepResult SR = E.sweep("Main", "main");
  EXPECT_FALSE(SR.allOk());
  EXPECT_TRUE(SR.usable());
  EXPECT_EQ(SR.MergedRuns, 4);
  ASSERT_EQ(SR.Failures.size(), 2u);
  EXPECT_EQ(SR.Failures[0].Run, 2);
  EXPECT_EQ(SR.Failures[0].Status, vm::RunStatus::BudgetExceeded);
  EXPECT_EQ(SR.Failures[0].Budget, "heap_bytes");
  EXPECT_EQ(SR.Failures[1].Run, 4);
  for (const resilience::FailureInfo &FI : SR.Failures) {
    EXPECT_TRUE(FI.Quarantined);
    EXPECT_TRUE(FI.Injected);
    EXPECT_EQ(FI.Attempts, 1);
  }
  Sigs Degraded = {
      testutil::profileSignature(E.buildProfiles(), E.inputs()),
      testutil::treeSignature(E.tree()), testutil::inputsSignature(E.inputs())};
  // Seeds 8 (run 2) and 16 (run 4) were quarantined out.
  EXPECT_EQ(Degraded,
            serialSigs(*CP, SessionOptions(), seedRuns({0, 4, 12, 20})));
}

/// Every field of SessionOptions, rendered; if a knob is added without
/// flowing through both engines, the parity test below fails to compile
/// or fails to match.
std::string sessionOptionsSignature(const SessionOptions &SO) {
  std::ostringstream OS;
  OS << "equivalence=" << equivalenceStrategyName(SO.Profile.Equivalence)
     << " snapshots=" << snapshotModeName(SO.Profile.Snapshots)
     << " arraymeasure=" << static_cast<int>(SO.Profile.ArrayMeasure)
     << " sample=" << SO.Profile.SampleThreshold
     << " allmethods=" << SO.AllMethodsPlan << " fuel=" << SO.Run.Fuel
     << " maxframes=" << SO.Run.MaxFrames
     << " maxarray=" << SO.Run.MaxArrayLength
     << " maxheap=" << SO.Run.MaxHeapBytes
     << " deadline=" << SO.Run.RunDeadlineMs << " runs=" << SO.Runs
     << " jobs=" << SO.Jobs << " seeds=";
  for (int64_t S : SO.Seeds)
    OS << S << ",";
  OS << " input=";
  for (int64_t V : SO.Input)
    OS << V << ",";
  OS << " policy=" << resilience::failurePolicyName(SO.Policy)
     << " maxattempts=" << SO.MaxAttempts << " faults=" << SO.Faults.str();
  return OS.str();
}

TEST(ParallelSweepTest, SerialAndSweepConsumeIdenticalOptions) {
  // The PR-3 byte-equality oracle only covers option plumbing if both
  // engines actually hold the same options: assert that one
  // SessionOptions value survives, field for field, through
  // ProfileSession, SweepEngine, and ProfileDriver.
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);
  SessionOptions SO;
  SO.Profile.Equivalence = EquivalenceStrategy::SameType;
  SO.Profile.Snapshots = SnapshotMode::Tracked;
  SO.Profile.SampleThreshold = 7;
  SO.AllMethodsPlan = true;
  SO.Run.Fuel = 123456789;
  SO.Run.MaxFrames = 99;
  SO.Run.MaxArrayLength = 1 << 20;
  SO.Run.MaxHeapBytes = 1 << 22;
  SO.Run.RunDeadlineMs = 5000;
  SO.Runs = 5;
  SO.Jobs = 3;
  SO.Seeds = {4, 8};
  SO.Input = {1, 2, 3};
  SO.Policy = resilience::FailurePolicy::Retry;
  SO.MaxAttempts = 5;
  std::string FaultErr;
  ASSERT_TRUE(resilience::FaultPlan::parse("heap-oom@run1:once", SO.Faults,
                                           FaultErr))
      << FaultErr;

  std::string Want = sessionOptionsSignature(SO);
  ProfileSession Serial(*CP, SO);
  EXPECT_EQ(Want, sessionOptionsSignature(Serial.options()));
  parallel::SweepEngine Engine(*CP, SO);
  EXPECT_EQ(Want, sessionOptionsSignature(Engine.options()));
  ProfileDriver Driver(*CP, SO);
  EXPECT_EQ(Want, sessionOptionsSignature(Driver.options()));
}

TEST(ParallelSweepTest, DriverMatchesAcrossJobCounts) {
  // The one-true-path front end: the same SessionOptions run plan must
  // produce identical profiles at every Jobs value.
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);
  auto driverSigs = [&](int Jobs) {
    SessionOptions SO;
    SO.Seeds = {4, 8, 12, 16};
    SO.Jobs = Jobs;
    ProfileDriver D(*CP, SO);
    for (const vm::RunResult &R : D.runAll("Main", "main"))
      EXPECT_TRUE(R.ok()) << R.TrapMessage;
    return Sigs{testutil::profileSignature(D.buildProfiles(), D.inputs()),
                testutil::treeSignature(D.tree()),
                testutil::inputsSignature(D.inputs())};
  };
  Sigs Serial = driverSigs(1);
  ASSERT_FALSE(Serial.Tree.empty());
  EXPECT_EQ(Serial, driverSigs(2));
  EXPECT_EQ(Serial, driverSigs(8));
  EXPECT_EQ(Serial, driverSigs(0)); // hardware concurrency
}

TEST(ParallelSweepTest, UnknownEntryTrapsEveryRun) {
  auto CP = testutil::compile(ioSumProgram());
  ASSERT_TRUE(CP);
  SessionOptions UnknownSO;
  UnknownSO.Jobs = 2;
  parallel::SweepEngine E(*CP, UnknownSO);
  parallel::SweepResult SR =
      E.sweepWithInputs("Main", "nope", std::vector<vm::IoChannels>(3));
  EXPECT_FALSE(SR.allOk());
  ASSERT_EQ(SR.Runs.size(), 3u);
  for (const vm::RunResult &R : SR.Runs)
    EXPECT_NE(R.TrapMessage.find("no static no-arg method"),
              std::string::npos);
}

} // namespace
