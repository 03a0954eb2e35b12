//===- tests/ObsTest.cpp - Self-observability registry --------------------===//
///
/// \file
/// Tests for the obs counter/timer registry and its two exporters: TLS
/// aggregation and thread retirement, span/timer semantics, the trace
/// event cap, pipeline instrumentation coverage, per-shard sweep
/// tracks, and byte-stable golden files for the Chrome trace-event and
/// Prometheus exports (deterministic via the injectable clock).
///
/// ctest label: obs. With -DALGOPROF_OBS=OFF the recording tests skip
/// themselves and only the always-compiled surface (names, deltaFrom,
/// exporters on an empty snapshot) is exercised.
///
//===----------------------------------------------------------------------===//

#include "GoldenUtil.h"
#include "TestUtil.h"
#include "obs/MetricsExport.h"
#include "obs/Obs.h"
#include "obs/TraceExport.h"
#include "parallel/SweepEngine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace algoprof;
using namespace algoprof::prof;

namespace {

constexpr const char *LoopProgram = R"(
class Main {
  static void main() {
    int n = 0;
    if (hasInput()) {
      n = readInt();
    }
    int i = 0;
    while (i < n) {
      i = i + 1;
    }
    print(i);
  }
}
)";

//===----------------------------------------------------------------------===//
// Always-compiled surface (names, delta arithmetic, exporters)
//===----------------------------------------------------------------------===//

TEST(ObsNames, StableSnakeCase) {
  EXPECT_STREQ(obs::phaseName(obs::Phase::VmRun), "vm_run");
  EXPECT_STREQ(obs::phaseName(obs::Phase::BuildProfiles), "build_profiles");
  EXPECT_STREQ(obs::phaseName(obs::Phase::ShardMerge), "shard_merge");
  EXPECT_STREQ(obs::counterName(obs::Counter::BytecodesExecuted),
               "bytecodes_executed");
  EXPECT_STREQ(obs::counterName(obs::Counter::TraceEventsDropped),
               "trace_events_dropped");
  // Every enumerator has a real name (the "?" fallback is unreachable).
  for (size_t I = 0; I < obs::NumPhases; ++I)
    EXPECT_STRNE(obs::phaseName(static_cast<obs::Phase>(I)), "?");
  for (size_t I = 0; I < obs::NumCounters; ++I)
    EXPECT_STRNE(obs::counterName(static_cast<obs::Counter>(I)), "?");
  for (size_t I = 0; I < obs::NumGauges; ++I)
    EXPECT_STRNE(obs::gaugeName(static_cast<obs::Gauge>(I)), "?");
}

TEST(ObsNames, DeltaFromSubtracts) {
  obs::Snapshot A, B;
  A.Counters[0] = 10;
  B.Counters[0] = 3;
  A.PhaseNs[2] = 500;
  B.PhaseNs[2] = 200;
  A.PhaseCalls[2] = 5;
  B.PhaseCalls[2] = 2;
  obs::Snapshot D = A.deltaFrom(B);
  EXPECT_EQ(D.Counters[0], 7u);
  EXPECT_EQ(D.PhaseNs[2], 300u);
  EXPECT_EQ(D.PhaseCalls[2], 3u);
}

TEST(ObsExport, EmptySnapshotIsValid) {
  obs::Snapshot S;
  std::string Trace = obs::chromeTraceJson(S);
  EXPECT_NE(Trace.find("\"traceEvents\""), std::string::npos);
  std::string Prom = obs::prometheusText(S);
  // Zero-valued series are still present, one per enumerator.
  EXPECT_NE(Prom.find("algoprof_counter_total{counter=\"runs_completed\"} 0"),
            std::string::npos);
  EXPECT_NE(Prom.find("algoprof_phase_calls_total{phase=\"vm_run\"} 0"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Recording registry (skipped in ALGOPROF_OBS=OFF builds)
//===----------------------------------------------------------------------===//

#if ALGOPROF_OBS_ENABLED

std::atomic<uint64_t> FakeNow{0};
uint64_t fakeClock() { return FakeNow.load(std::memory_order_relaxed); }

/// Resets the registry around each test; the fake clock is opt-in via
/// useFakeClock().
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::enableTracing(false);
    obs::resetForTest();
  }
  void TearDown() override {
    obs::setClockForTest(nullptr);
    obs::enableTracing(false);
    obs::resetForTest();
  }
  void useFakeClock(uint64_t Start = 0) {
    FakeNow.store(Start, std::memory_order_relaxed);
    obs::setClockForTest(&fakeClock);
  }
  static uint64_t counter(const obs::Snapshot &S, obs::Counter C) {
    return S.Counters[static_cast<size_t>(C)];
  }
  static uint64_t phaseNs(const obs::Snapshot &S, obs::Phase P) {
    return S.PhaseNs[static_cast<size_t>(P)];
  }
  static uint64_t phaseCalls(const obs::Snapshot &S, obs::Phase P) {
    return S.PhaseCalls[static_cast<size_t>(P)];
  }
};

TEST_F(ObsTest, CountersAccumulate) {
  obs::addCount(obs::Counter::RunsCompleted);
  obs::addCount(obs::Counter::BytecodesExecuted, 41);
  obs::addCount(obs::Counter::BytecodesExecuted);
  obs::Snapshot S = obs::snapshot();
  EXPECT_EQ(counter(S, obs::Counter::RunsCompleted), 1u);
  EXPECT_EQ(counter(S, obs::Counter::BytecodesExecuted), 42u);
}

TEST_F(ObsTest, TimerAggregatesWithInjectedClock) {
  useFakeClock(100);
  {
    obs::ScopedTimer T(obs::Phase::Fit);
    FakeNow.store(350, std::memory_order_relaxed);
  }
  {
    obs::ScopedTimer T(obs::Phase::Fit);
    FakeNow.store(400, std::memory_order_relaxed);
  }
  obs::Snapshot S = obs::snapshot();
  EXPECT_EQ(phaseNs(S, obs::Phase::Fit), 300u);
  EXPECT_EQ(phaseCalls(S, obs::Phase::Fit), 2u);
  EXPECT_TRUE(S.Events.empty()); // Timers never trace.
}

TEST_F(ObsTest, SpansTraceOnlyWhenEnabled) {
  useFakeClock();
  { obs::ScopedSpan S1(obs::Phase::VmRun); } // Tracing off: no event.
  obs::enableTracing(true);
  {
    obs::ScopedSpan S2(obs::Phase::VmRun);
    FakeNow.store(2500, std::memory_order_relaxed);
  }
  { obs::ScopedTimer T(obs::Phase::VmRun); } // Timer: still no event.
  obs::Snapshot S = obs::snapshot();
  ASSERT_EQ(S.Events.size(), 1u);
  EXPECT_EQ(S.Events[0].P, obs::Phase::VmRun);
  EXPECT_EQ(S.Events[0].StartNs, 0u);
  EXPECT_EQ(S.Events[0].DurNs, 2500u);
  EXPECT_EQ(phaseCalls(S, obs::Phase::VmRun), 3u); // All three counted.
}

TEST_F(ObsTest, ScopedTrackRedirectsEvents) {
  useFakeClock();
  obs::enableTracing(true);
  obs::setTrackName(1000, "shard 0");
  {
    obs::ScopedTrack Track(1000);
    obs::ScopedSpan Span(obs::Phase::ShardRun);
    FakeNow.store(10, std::memory_order_relaxed);
  }
  { obs::ScopedSpan Span(obs::Phase::Report); } // Back on the thread lane.
  obs::Snapshot S = obs::snapshot();
  ASSERT_EQ(S.Events.size(), 2u);
  EXPECT_EQ(S.Events[1].Track, 1000);
  EXPECT_EQ(S.Events[1].P, obs::Phase::ShardRun);
  EXPECT_NE(S.Events[0].Track, 1000);
  EXPECT_EQ(S.TrackNames.at(1000), "shard 0");
}

TEST_F(ObsTest, RetiredThreadsFoldIntoSnapshot) {
  std::thread Worker([] {
    obs::addCount(obs::Counter::TreeNodes, 7);
    obs::ScopedTimer T(obs::Phase::Snapshot);
  });
  Worker.join();
  // The worker's state retired into the global pool before join()
  // returned; the snapshot from this thread must include it.
  obs::Snapshot S = obs::snapshot();
  EXPECT_EQ(counter(S, obs::Counter::TreeNodes), 7u);
  EXPECT_EQ(phaseCalls(S, obs::Phase::Snapshot), 1u);
  EXPECT_GE(S.Gauges[static_cast<size_t>(obs::Gauge::RetiredThreads)], 1u);
}

TEST_F(ObsTest, EventCapDropsAndCounts) {
  useFakeClock();
  obs::enableTracing(true);
  constexpr size_t Cap = 1 << 18;
  for (size_t I = 0; I < Cap + 5; ++I)
    obs::ScopedSpan Span(obs::Phase::Fit);
  obs::Snapshot S = obs::snapshot();
  EXPECT_EQ(S.Events.size(), Cap);
  EXPECT_EQ(S.Gauges[static_cast<size_t>(obs::Gauge::TraceEventsBuffered)],
            Cap);
  EXPECT_EQ(counter(S, obs::Counter::TraceEventsDropped), 5u);
  EXPECT_EQ(phaseCalls(S, obs::Phase::Fit), Cap + 5); // Aggregation uncapped.
}

TEST_F(ObsTest, PipelineIsInstrumented) {
  // One serial profiled run must touch every front-end phase, the VM,
  // and the volume counters the ISSUE promises.
  auto CP = testutil::compile(LoopProgram);
  ASSERT_TRUE(CP);
  SessionOptions SO;
  SO.Input = {6};
  ProfileDriver Driver(*CP, SO);
  std::vector<vm::RunResult> Results = Driver.runAll("Main", "main");
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_TRUE(Results[0].ok());
  (void)Driver.buildProfiles();

  obs::Snapshot S = obs::snapshot();
  for (obs::Phase P :
       {obs::Phase::Lex, obs::Phase::Parse, obs::Phase::Sema,
        obs::Phase::Compile, obs::Phase::Verify, obs::Phase::Prepare,
        obs::Phase::VmRun, obs::Phase::Grouping, obs::Phase::Classify,
        obs::Phase::Combine, obs::Phase::BuildProfiles})
    EXPECT_GE(phaseCalls(S, P), 1u) << obs::phaseName(P);
  EXPECT_GT(counter(S, obs::Counter::BytecodesExecuted), 0u);
  EXPECT_EQ(counter(S, obs::Counter::RunsCompleted), 1u);
  EXPECT_GT(counter(S, obs::Counter::ListenerEvents), 0u);
}

TEST_F(ObsTest, SweepShardsGetNamedTracks) {
  obs::enableTracing(true);
  auto CP = testutil::compile(LoopProgram);
  ASSERT_TRUE(CP);
  SessionOptions SO;
  SO.Jobs = 2;
  SO.Seeds = {3, 5, 7};
  parallel::SweepEngine Engine(*CP, SO);
  parallel::SweepResult SR = Engine.sweep("Main", "main");
  ASSERT_TRUE(SR.allOk());

  obs::Snapshot S = obs::snapshot();
  // One named track per run, regardless of which worker executed it.
  std::vector<int32_t> ShardTracks;
  for (const auto &[Track, Name] : S.TrackNames)
    if (Name.rfind("shard ", 0) == 0)
      ShardTracks.push_back(Track);
  ASSERT_EQ(ShardTracks.size(), 3u);
  for (int32_t Track : ShardTracks) {
    bool HasRun = false;
    for (const obs::TraceEvent &E : S.Events)
      HasRun |= E.Track == Track && E.P == obs::Phase::ShardRun;
    EXPECT_TRUE(HasRun) << "no shard_run span on track " << Track;
  }
  EXPECT_EQ(counter(S, obs::Counter::ShardsMerged), 3u); // One per run.
  EXPECT_EQ(counter(S, obs::Counter::RunsCompleted), 3u);
}

//===----------------------------------------------------------------------===//
// Exporter golden files (byte-stable thanks to the injected clock)
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, ChromeTraceGolden) {
  useFakeClock();
  obs::enableTracing(true);
  obs::setTrackName(1000, "shard 0");
  obs::setTrackName(1001, "shard 1");
  {
    obs::ScopedTrack Track(1000);
    FakeNow.store(1000, std::memory_order_relaxed);
    obs::ScopedSpan Outer(obs::Phase::ShardRun);
    {
      FakeNow.store(1500, std::memory_order_relaxed);
      obs::ScopedSpan Inner(obs::Phase::VmRun);
      FakeNow.store(2750, std::memory_order_relaxed);
    }
    FakeNow.store(3000, std::memory_order_relaxed);
  }
  {
    obs::ScopedTrack Track(1001);
    obs::ScopedSpan Span(obs::Phase::ShardRun);
    FakeNow.store(1234567, std::memory_order_relaxed);
  }
  testutil::expectMatchesGolden(obs::chromeTraceJson(obs::snapshot()),
                                "trace_basic.json");
}

TEST_F(ObsTest, PrometheusGolden) {
  useFakeClock();
  obs::addCount(obs::Counter::BytecodesExecuted, 12345);
  obs::addCount(obs::Counter::RunsCompleted, 2);
  {
    obs::ScopedTimer T(obs::Phase::Fit);
    FakeNow.store(1500, std::memory_order_relaxed);
  }
  {
    obs::ScopedSpan S(obs::Phase::VmRun); // Untraced span still aggregates.
    FakeNow.store(2000000000ull, std::memory_order_relaxed);
  }
  testutil::expectMatchesGolden(obs::prometheusText(obs::snapshot()),
                                "metrics_basic.prom");
}

#endif // ALGOPROF_OBS_ENABLED

} // namespace
