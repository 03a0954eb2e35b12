//===- tests/PaperTest.cpp - The paper's experiments, one test per row ----===//
//
// Asserts every row of the experiment table (bench/Experiments.h) that
// EXPERIMENTS.md embeds: `ctest -L paper`.
//
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include <gtest/gtest.h>

using namespace algoprof::experiments;

namespace {

class ExperimentTest : public ::testing::TestWithParam<Experiment> {};

TEST_P(ExperimentTest, MatchesPaper) {
  const Experiment &E = GetParam();
  Measured M = measure(E);
  EXPECT_TRUE(withinTolerance(E, M))
      << E.Id << ": paper " << E.Paper << " (tolerance " << E.Tol
      << "), measured " << M.Value << " " << M.Detail;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, ExperimentTest, ::testing::ValuesIn(table()),
    [](const ::testing::TestParamInfo<Experiment> &I) { return I.param.Id; });

TEST(ExperimentCheck, WrongPaperValueFails) {
  Experiment Numeric = experiment("fig5_doubling_exponent");
  ASSERT_TRUE(withinTolerance(Numeric, measure(Numeric)));
  Numeric.Paper = "2"; // The grow-by-one variant's exponent.
  EXPECT_FALSE(withinTolerance(Numeric, measure(Numeric)));

  Experiment Text = experiment("fig3_sort_label");
  ASSERT_TRUE(withinTolerance(Text, measure(Text)));
  Text.Paper = "Construction of a Node-based recursive structure";
  EXPECT_FALSE(withinTolerance(Text, measure(Text)));
}

} // namespace
