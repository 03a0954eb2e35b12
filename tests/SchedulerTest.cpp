//===- tests/SchedulerTest.cpp - Work-stealing pool + schedules -----------===//
///
/// \file
/// Two layers of scheduler coverage. First, unit tests of
/// parallel::JobSystem itself: every submitted job executes exactly
/// once, nested submissions are covered by wait(), a single worker
/// preserves submission order, and stealing actually moves work off a
/// busy worker's deque. Second, the schedule-perturbation property:
/// a sweep's merged profile must be byte-identical to a serial session
/// across 100+ seeded randomized schedules (per-job start delays +
/// shuffled steal-victim orders), including degraded sweeps that
/// quarantine runs mid-schedule. This is the load-bearing form of the
/// determinism argument in docs/parallel_sweeps.md: the *execution*
/// schedule is adversarial, the *merge* order never is.
///
//===----------------------------------------------------------------------===//

#include "SweepTestUtil.h"
#include "TestUtil.h"
#include "obs/Obs.h"
#include "parallel/JobSystem.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace algoprof;
using namespace algoprof::parallel;
using namespace algoprof::prof;
using namespace algoprof::programs;

namespace {

TEST(JobSystemTest, ExecutesEveryJobExactlyOnce) {
  JobSystem Pool(4);
  constexpr size_t N = 200;
  std::vector<std::atomic<int>> Hits(N);
  for (size_t I = 0; I < N; ++I)
    Pool.submit([&Hits, I] { Hits[I].fetch_add(1); });
  Pool.wait();
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "job " << I;
  PoolStats S = Pool.stats();
  EXPECT_EQ(S.Submitted, N);
  EXPECT_EQ(S.totalExecuted(), N);
  EXPECT_EQ(S.Executed.size(), 4u);
}

TEST(JobSystemTest, WaitCoversNestedSubmissions) {
  // The corpus runner's shape: jobs submit further jobs; one wait()
  // must cover the whole transitive graph.
  JobSystem Pool(3);
  std::atomic<int> Leaves{0};
  for (int I = 0; I < 5; ++I)
    Pool.submit([&] {
      for (int J = 0; J < 4; ++J)
        Pool.submit([&] {
          for (int K = 0; K < 2; ++K)
            Pool.submit([&] { Leaves.fetch_add(1); });
        });
    });
  Pool.wait();
  EXPECT_EQ(Leaves.load(), 5 * 4 * 2);
  EXPECT_EQ(Pool.stats().totalExecuted(), 5u + 5 * 4 + 5 * 4 * 2);
}

#if ALGOPROF_OBS_ENABLED
TEST(JobSystemTest, WorkerCountersVisibleMidPoolLifetime) {
  // Pool workers never retire while their pool is alive, so the old
  // exit-time-only TLS folding reported zero jobs_executed to any
  // scrape taken mid-lifetime — exactly when a daemon's /metrics is
  // read. Workers now flush after every job: a snapshot between
  // wait() and pool destruction must already see all of them.
  obs::Snapshot Before = obs::snapshot();
  JobSystem Pool(3);
  constexpr uint64_t N = 64;
  std::atomic<uint64_t> Ran{0};
  for (uint64_t I = 0; I < N; ++I)
    Pool.submit([&Ran] { Ran.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Ran.load(), N);

  obs::Snapshot After = obs::snapshot();
  obs::Snapshot Mid = After.deltaFrom(Before);
  constexpr size_t JobsExecuted =
      static_cast<size_t>(obs::Counter::JobsExecuted);
  EXPECT_EQ(Mid.Counters[JobsExecuted], N)
      << "mid-lifetime snapshot undercounts pool work (workers only "
         "folded their TLS counters at thread exit)";
  // The workers are parked, not retired: flushThisThread must publish
  // counts without inflating the retired-thread gauge.
  constexpr size_t RetiredThreads =
      static_cast<size_t>(obs::Gauge::RetiredThreads);
  EXPECT_EQ(After.Gauges[RetiredThreads], Before.Gauges[RetiredThreads]);
}
#endif // ALGOPROF_OBS_ENABLED

TEST(JobSystemTest, SingleWorkerPreservesSubmissionOrder) {
  // With one worker the pool degenerates to a FIFO queue — the property
  // that makes Jobs=1 sweeps trivially deterministic.
  JobSystem Pool(1);
  std::vector<int> Order;
  for (int I = 0; I < 50; ++I)
    Pool.submit([&Order, I] { Order.push_back(I); });
  Pool.wait();
  ASSERT_EQ(Order.size(), 50u);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(JobSystemTest, IdleWorkerStealsFromBusyWorker) {
  // Round-robin submission parks half the jobs behind a long job on
  // worker 0's deque; worker 1 must steal them instead of idling. The
  // long job sleeps (not spins), so this holds on a single-core box.
  JobSystem Pool(2);
  std::atomic<int> Done{0};
  Pool.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Done.fetch_add(1);
  });
  for (int I = 0; I < 20; ++I)
    Pool.submit([&] { Done.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Done.load(), 21);
  PoolStats S = Pool.stats();
  EXPECT_EQ(S.totalExecuted(), 21u);
  EXPECT_GT(S.totalStolen(), 0u);
  ASSERT_EQ(S.PeakQueueDepth.size(), 2u);
  EXPECT_GT(S.PeakQueueDepth[0], 0u);
}

TEST(JobSystemTest, PerturbedPoolStillExecutesEverything) {
  SchedulePerturbation P;
  P.Seed = 0x5eed;
  P.MaxDelayMicros = 100;
  JobSystem Pool(4, P);
  std::atomic<int> Done{0};
  for (int I = 0; I < 64; ++I)
    Pool.submit([&] { Done.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Done.load(), 64);
  EXPECT_EQ(Pool.stats().totalExecuted(), 64u);
}

//===----------------------------------------------------------------------===//
// Schedule-perturbation property: byte-identical profiles under 100+
// adversarial schedules
//===----------------------------------------------------------------------===//

struct Sigs {
  std::string Profiles;
  std::string Tree;
  std::string Inputs;
  bool operator==(const Sigs &O) const {
    return Profiles == O.Profiles && Tree == O.Tree && Inputs == O.Inputs;
  }
};

Sigs engineSigs(const parallel::SweepEngine &E) {
  return {testutil::profileSignature(E.buildProfiles(), E.inputs()),
          testutil::treeSignature(E.tree()),
          testutil::inputsSignature(E.inputs())};
}

TEST(SchedulePerturbationTest, MergedProfileIsScheduleInvariant) {
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);

  // Serial oracle over the same seeds, computed once.
  SessionOptions Base;
  std::vector<int64_t> Seeds = {0, 3, 5, 8, 11, 14};
  ProfileSession Serial(*CP, Base);
  for (int64_t Seed : Seeds) {
    vm::IoChannels Io;
    Io.Input = {Seed};
    ASSERT_TRUE(Serial.run("Main", "main", Io).ok());
  }
  Sigs Want = {
      testutil::profileSignature(Serial.buildProfiles(), Serial.inputs()),
      testutil::treeSignature(Serial.tree()),
      testutil::inputsSignature(Serial.inputs())};
  ASSERT_FALSE(Want.Tree.empty());

  // 100+ seeded schedules: per-job start delays up to 200us and
  // randomized steal-victim orders, at a worker count that guarantees
  // contention over 6 runs. Any schedule-dependent merge would diverge
  // in some iteration; the seed in the failure message reproduces it.
  SessionOptions SO = Base;
  SO.Jobs = 4;
  for (uint64_t Schedule = 1; Schedule <= 104; ++Schedule) {
    SchedulePerturbation P;
    P.Seed = 0x9e3779b9u * Schedule;
    P.MaxDelayMicros = 200;
    parallel::SweepEngine E(*CP, SO);
    E.setPerturbationForTest(P);
    parallel::SweepResult SR =
        E.sweepWithInputs("Main", "main", prof::runInputs(Seeds, 1, {}));
    ASSERT_TRUE(SR.allOk()) << "schedule seed " << P.Seed;
    Sigs Got = engineSigs(E);
    ASSERT_EQ(Want.Profiles, Got.Profiles) << "schedule seed " << P.Seed;
    ASSERT_EQ(Want.Tree, Got.Tree) << "schedule seed " << P.Seed;
    ASSERT_EQ(Want.Inputs, Got.Inputs) << "schedule seed " << P.Seed;
  }
}

TEST(SchedulePerturbationTest, DegradedMergeIsScheduleInvariant) {
  // The quarantine path under adversarial schedules: runs 1 and 4 are
  // killed by injected faults in whatever order the schedule lands
  // them; the degraded profile must still equal serial-over-survivors.
  auto CP = testutil::compile(seededInsertionSortProgram(InputOrder::Random));
  ASSERT_TRUE(CP);

  SessionOptions Oracle;
  ProfileSession Serial(*CP, Oracle);
  for (int64_t Seed : {0, 5, 8, 14}) { // Runs 1 (seed 3), 4 (seed 11) die.
    vm::IoChannels Io;
    Io.Input = {Seed};
    ASSERT_TRUE(Serial.run("Main", "main", Io).ok());
  }
  Sigs Want = {
      testutil::profileSignature(Serial.buildProfiles(), Serial.inputs()),
      testutil::treeSignature(Serial.tree()),
      testutil::inputsSignature(Serial.inputs())};

  SessionOptions SO;
  SO.Jobs = 4;
  SO.Seeds = {0, 3, 5, 8, 11, 14};
  SO.Policy = resilience::FailurePolicy::Skip;
  std::string Err;
  ASSERT_TRUE(resilience::FaultPlan::parse(
      "run-start-fail@run1,heap-oom@run4", SO.Faults, Err))
      << Err;
  for (uint64_t Schedule = 1; Schedule <= 25; ++Schedule) {
    SchedulePerturbation P;
    P.Seed = 0xc0ffee + Schedule;
    P.MaxDelayMicros = 200;
    parallel::SweepEngine E(*CP, SO);
    E.setPerturbationForTest(P);
    parallel::SweepResult SR = E.sweep("Main", "main");
    ASSERT_FALSE(SR.allOk());
    ASSERT_TRUE(SR.usable()) << "schedule seed " << P.Seed;
    ASSERT_EQ(SR.MergedRuns, 4) << "schedule seed " << P.Seed;
    ASSERT_EQ(SR.Failures.size(), 2u);
    EXPECT_EQ(SR.Failures[0].Run, 1);
    EXPECT_EQ(SR.Failures[1].Run, 4);
    Sigs Got = engineSigs(E);
    ASSERT_EQ(Want.Profiles, Got.Profiles) << "schedule seed " << P.Seed;
    ASSERT_EQ(Want.Tree, Got.Tree) << "schedule seed " << P.Seed;
    ASSERT_EQ(Want.Inputs, Got.Inputs) << "schedule seed " << P.Seed;
  }
}

} // namespace
