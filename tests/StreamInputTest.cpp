//===- tests/StreamInputTest.cpp - External streams as inputs -------------===//
//
// Paper Sec. 2.3, "Program Inputs/Outputs": reads and writes to the
// external world associate the stream with the current repetition node,
// and the stream's size ("the size of the external file") is the input
// size for cost functions of Input algorithms.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::testutil;

namespace {

TEST(StreamInput, StreamBecomesAnInputWithFileSize) {
  auto CP = compile(programs::ioSumProgram());
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  for (int N = 4; N <= 32; N *= 2) {
    vm::IoChannels Io;
    for (int I = 1; I <= N; ++I)
      Io.Input.push_back(I);
    ASSERT_TRUE(S.run("Main", "main", Io).ok());
  }

  // The input stream is a live pseudo-input.
  bool SawStream = false;
  for (int32_t Id : S.inputs().liveInputs()) {
    const InputInfo &Info = S.inputs().info(Id);
    if (Info.IsStream && Info.Label == "external input stream")
      SawStream = true;
  }
  EXPECT_TRUE(SawStream);

  // The reading loop's algorithm carries a <stream size, steps> series
  // with steps == size (one read per element): a clean linear fit.
  bool CheckedSeries = false;
  for (const AlgorithmProfile &AP : S.buildProfiles()) {
    if (AP.Algo.Root->Name != "Main.main loop#0")
      continue;
    EXPECT_TRUE(AP.Class.DoesInput);
    EXPECT_TRUE(AP.Class.DoesOutput);
    for (const AlgorithmProfile::InputSeries &Ser : AP.Series) {
      if (Ser.Kind != "external input stream")
        continue;
      CheckedSeries = true;
      ASSERT_TRUE(Ser.Interesting);
      EXPECT_NEAR(Ser.Fit.growthExponent(), 1.0, 0.1)
          << Ser.Fit.formula();
      // Every point: X = channel size, Y = steps = X.
      for (const SeriesPoint &Pt : Ser.Series)
        EXPECT_EQ(Pt.X, Pt.Y);
    }
  }
  EXPECT_TRUE(CheckedSeries);
}

TEST(StreamInput, CostsAreKeyedByStream) {
  auto CP = compile(programs::ioSumProgram());
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  vm::IoChannels Io;
  Io.Input = {1, 2, 3};
  ASSERT_TRUE(S.run("Main", "main", Io).ok());

  bool SawKeyedRead = false, SawKeyedWrite = false;
  S.tree().forEach([&](const RepetitionNode &N) {
    for (const RecordView &R : N.records())
      for (const auto &[Key, Count] : R.Costs.entries()) {
        (void)Count;
        if (Key.Kind == CostKind::InputRead && Key.InputId >= 0)
          SawKeyedRead = true;
        if (Key.Kind == CostKind::OutputWrite && Key.InputId >= 0)
          SawKeyedWrite = true;
      }
  });
  EXPECT_TRUE(SawKeyedRead);
  EXPECT_TRUE(SawKeyedWrite);
  // Totals count each operation once (3 reads; 3 echoes + 1 sum).
  int64_t Reads = 0, Writes = 0;
  S.tree().forEach([&](const RepetitionNode &N) {
    if (N.Key.Kind != RepKind::Root)
      return;
    for (const RecordView &R : N.records()) {
      CostMap All;
      All.merge(R.Costs);
      All.merge(R.FoldedCosts);
      Reads += All.total(CostKind::InputRead);
      Writes += All.total(CostKind::OutputWrite);
    }
  });
  // The loop's costs sit on the loop node, not the root; recompute over
  // the whole tree.
  Reads = Writes = 0;
  S.tree().forEach([&](const RepetitionNode &N) {
    for (const RecordView &R : N.records()) {
      Reads += R.Costs.total(CostKind::InputRead);
      Writes += R.Costs.total(CostKind::OutputWrite);
    }
  });
  EXPECT_EQ(Reads, 3);
  EXPECT_EQ(Writes, 4);
}

TEST(StreamInput, OutputStreamSizeIsFinalOutputCount) {
  auto CP = compile(R"(
    class Main {
      static void main() {
        for (int i = 0; i < 6; i++) {
          print(i * i);
        }
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
    for (const auto &[Id, Use] : N.record(0).Inputs) {
      if (!S.inputs().info(Id).IsStream)
        continue;
      EXPECT_EQ(Use.MaxSize, 6); // Six values written.
      Checked = true;
    }
  });
  EXPECT_TRUE(Checked);
}

TEST(StreamInput, PureComputationHasNoStreams) {
  auto CP = compile(R"(
    class Main {
      static void main() {
        int s = 0;
        for (int i = 0; i < 10; i++) { s = s + i; }
        s = s * 2;
      }
    }
  )");
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  ASSERT_TRUE(S.run("Main", "main").ok());
  EXPECT_TRUE(S.inputs().liveInputs().empty());
}

} // namespace
