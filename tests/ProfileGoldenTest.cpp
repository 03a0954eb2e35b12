//===- tests/ProfileGoldenTest.cpp - Eager-sized profile goldens ----------===//
///
/// \file
/// Locks the `algoprof-profile/2` JSON of corpus programs profiled with
/// Eager snapshots (the paper's first-access and exit sizing, Sec. 3.4),
/// serially and through a four-worker sweep, whose shard merge rebuilds
/// the object->input map with offset ids.
///
/// AllElementsGolden profiles under the AllElements criterion (S1 ≡ S2,
/// paper Sec. 2.4). Its programs cover every path of InputTable's
/// AllElements identification and sizing: linked structures (the seeded
/// insertion sort, a bidirectional binary tree), reference arrays (an
/// array list grown by one) and primitive plus nested arrays (a 2-d
/// array).
///
/// EagerGolden profiles under the default SomeElements criterion: a
/// linked list (the seeded insertion sort), a graph whose vertices sit
/// in a reference array of adjacency arrays, and a primitive array
/// (binary search).
///
/// RecordPathGolden covers the invocation-record paths the two suites
/// above miss: invocation sampling (SampleThreshold, whose sampled-out
/// invocations fold into the parent's FoldedCosts; serial only, since
/// sampling is not jobs-exact), the external-stream pseudo-inputs with
/// their READ/WRITE costs, and the SameType criterion.
///
/// Regenerate after an intentional change of profile semantics with
///
///   ALGOPROF_UPDATE_GOLDEN=1 ctest -R 'AllElementsGolden|EagerGolden|RecordPathGolden'
///
//===----------------------------------------------------------------------===//

#include "GoldenUtil.h"
#include "TestUtil.h"
#include "programs/Programs.h"
#include "report/Reporter.h"

#include <gtest/gtest.h>

using namespace algoprof;
using namespace algoprof::prof;

namespace {

const std::string &corpusSource(const std::string &Name) {
  for (const programs::CorpusProgram &P : programs::corpusPrograms())
    if (P.Name == Name)
      return P.Source;
  ADD_FAILURE() << "no corpus program " << Name;
  static const std::string Empty;
  return Empty;
}

/// The JSON profile of corpus program \p Name under \p SO.
std::string profileJson(const std::string &Name, const SessionOptions &SO) {
  auto CP = testutil::compile(corpusSource(Name));
  if (!CP)
    return "";
  ProfileDriver D(*CP, SO);
  for (const vm::RunResult &R : D.runAll("Main", "main"))
    EXPECT_TRUE(R.ok()) << Name << ": " << R.TrapMessage;
  std::vector<AlgorithmProfile> Profiles = D.buildProfiles();
  report::ReportInput In{&D.tree(), &D.inputs(), &Profiles, &D.failures()};
  return report::Registry::builtin().find("json")->render(In);
}

/// The JSON profile of \p Name over \p Seeds under \p Equivalence with
/// Eager snapshots.
std::string profileJson(EquivalenceStrategy Equivalence,
                        const std::string &Name,
                        const std::vector<int64_t> &Seeds, int Jobs) {
  SessionOptions SO;
  SO.Profile.Equivalence = Equivalence;
  SO.Profile.Snapshots = SnapshotMode::Eager;
  SO.Seeds = Seeds;
  SO.Jobs = Jobs;
  return profileJson(Name, SO);
}

struct GoldenCase {
  const char *Program;
  std::vector<int64_t> Seeds;
};

/// Names the case in ctest output (instead of gtest's byte dump).
void PrintTo(const GoldenCase &C, std::ostream *OS) { *OS << C.Program; }

/// The test name of a case: its program name with every character
/// gtest rejects replaced.
std::string caseName(const ::testing::TestParamInfo<GoldenCase> &I) {
  std::string Name = I.param.Program;
  for (char &Ch : Name)
    if (!std::isalnum(static_cast<unsigned char>(Ch)))
      Ch = '_';
  return Name;
}

class AllElementsGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(AllElementsGolden, SerialProfile) {
  const GoldenCase &C = GetParam();
  testutil::expectMatchesGolden(
      profileJson(EquivalenceStrategy::AllElements, C.Program, C.Seeds, 1),
      std::string("all_elements_") + C.Program + ".json");
}

TEST_P(AllElementsGolden, SweepProfileAtFourJobs) {
  const GoldenCase &C = GetParam();
  testutil::expectMatchesGolden(
      profileJson(EquivalenceStrategy::AllElements, C.Program, C.Seeds, 4),
      std::string("all_elements_") + C.Program + "_jobs4.json");
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, AllElementsGolden,
    ::testing::Values(
        GoldenCase{"seeded_insertion_sort_reversed", {4, 8, 12, 16, 20, 24}},
        GoldenCase{"table1_tree-linked-bidi-binary", {4, 8, 12, 16}},
        GoldenCase{"array_list_grow_by_one", {4, 8, 12, 16}},
        GoldenCase{"table1_array-2d", {4, 8, 12, 16}}),
    caseName);

class EagerGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(EagerGolden, SerialProfile) {
  const GoldenCase &C = GetParam();
  testutil::expectMatchesGolden(
      profileJson(EquivalenceStrategy::SomeElements, C.Program, C.Seeds, 1),
      std::string("eager_") + C.Program + ".json");
}

TEST_P(EagerGolden, SweepProfileAtFourJobs) {
  const GoldenCase &C = GetParam();
  testutil::expectMatchesGolden(
      profileJson(EquivalenceStrategy::SomeElements, C.Program, C.Seeds, 4),
      std::string("eager_") + C.Program + "_jobs4.json");
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EagerGolden,
    ::testing::Values(
        GoldenCase{"seeded_insertion_sort_random", {40, 80, 120, 160, 200}},
        GoldenCase{"table1_graph-array-2d", {4, 8, 12, 16}},
        GoldenCase{"binary_search", {4, 8, 12, 16}}),
    caseName);

/// One record-path golden: a corpus program under non-default profiler
/// options. Without Seeds, Runs runs each read Input.
struct RecordPathCase {
  const char *Golden;
  const char *Program;
  EquivalenceStrategy Equivalence;
  int64_t SampleThreshold;
  std::vector<int64_t> Seeds;
  std::vector<int64_t> Input;
  int Runs;

  SessionOptions options(int Jobs) const {
    SessionOptions SO;
    SO.Profile.Equivalence = Equivalence;
    SO.Profile.Snapshots = SnapshotMode::Eager;
    SO.Profile.SampleThreshold = SampleThreshold;
    SO.Seeds = Seeds;
    SO.Input = Input;
    SO.Runs = Runs;
    SO.Jobs = Jobs;
    return SO;
  }
};

void PrintTo(const RecordPathCase &C, std::ostream *OS) { *OS << C.Golden; }

std::string recordCaseName(
    const ::testing::TestParamInfo<RecordPathCase> &I) {
  std::string Name = I.param.Golden;
  for (char &Ch : Name)
    if (!std::isalnum(static_cast<unsigned char>(Ch)))
      Ch = '_';
  return Name;
}

const RecordPathCase SampledCases[] = {
    {"sampled_functional_sort", "functional_sort",
     EquivalenceStrategy::SomeElements, 2, {4, 8, 12}, {}, 1},
    {"sampled_seeded_insertion_sort_random", "seeded_insertion_sort_random",
     EquivalenceStrategy::SomeElements, 2, {40, 80, 120, 160}, {}, 1},
};

/// Cases whose sweep profile must equal the serial one.
const RecordPathCase JobsExactCases[] = {
    {"io_sum", "io_sum", EquivalenceStrategy::SomeElements, 0, {},
     {3, 1, 4, 1, 5, 9, 2, 6}, 3},
    {"same_type_table1_list-linked", "table1_list-linked",
     EquivalenceStrategy::SameType, 0, {4, 8, 12, 16}, {}, 1},
};

class RecordPathGolden : public ::testing::TestWithParam<RecordPathCase> {};

TEST_P(RecordPathGolden, SerialProfile) {
  const RecordPathCase &C = GetParam();
  testutil::expectMatchesGolden(profileJson(C.Program, C.options(1)),
                                std::string("record_") + C.Golden + ".json");
}

INSTANTIATE_TEST_SUITE_P(Sampled, RecordPathGolden,
                         ::testing::ValuesIn(SampledCases), recordCaseName);
INSTANTIATE_TEST_SUITE_P(Corpus, RecordPathGolden,
                         ::testing::ValuesIn(JobsExactCases), recordCaseName);

/// Sampling decisions depend on a serial session's accumulated counts,
/// so only the jobs-exact cases run through a sweep.
class RecordPathGoldenAtFourJobs
    : public ::testing::TestWithParam<RecordPathCase> {};

TEST_P(RecordPathGoldenAtFourJobs, SweepProfile) {
  const RecordPathCase &C = GetParam();
  testutil::expectMatchesGolden(profileJson(C.Program, C.options(4)),
                                std::string("record_") + C.Golden +
                                    "_jobs4.json");
}

INSTANTIATE_TEST_SUITE_P(Corpus, RecordPathGoldenAtFourJobs,
                         ::testing::ValuesIn(JobsExactCases),
                         recordCaseName);

} // namespace
