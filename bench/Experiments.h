//===- bench/Experiments.h - The paper's evaluation as one table -*- C++-*-===//
///
/// \file
/// Every measured cell of EXPERIMENTS.md as one row of data: the program
/// and sweep it runs, the quantity it extracts, the paper's value and a
/// tolerance. bench/paper_experiments prints the rows (the block that
/// EXPERIMENTS.md embeds) with the figures' plots and trees;
/// algoprof_paper_tests asserts one row per test.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_BENCH_EXPERIMENTS_H
#define ALGOPROF_BENCH_EXPERIMENTS_H

#include "core/Session.h"
#include "programs/Programs.h"

#include <cmath>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace algoprof {
namespace experiments {

/// The program families the rows run.
enum class Program {
  InsertionSort,     ///< Listings 1+2 under the sweep harness.
  FunctionalSort,    ///< Sec. 4.3's immutable, recursive insertion sort.
  ArrayListGrowBy1,  ///< Listing 6 growing its array by one element.
  ArrayListDoubling, ///< Listing 6 doubling its array.
  OneGrowingList,    ///< One linked list built in place (Ablation A).
  TwoLists,          ///< Two disjoint same-typed lists (Ablation A).
  Table1,            ///< All 18 Table 1 programs, each with its own sweep.
};

/// What a row runs: a program, its sweep and the profiler options.
/// Sizing is always the default (Eager) snapshot mode.
struct Setup {
  Program Prog = Program::InsertionSort;
  /// The sweep as the program generator takes it (programs/Programs.h):
  /// the sorts run sizes 0, Step, ... < MaxSize, Reps runs each; the
  /// array lists run n = Step, 2*Step, ... <= MaxSize.
  int MaxSize = 0;
  int Step = 1;
  int Reps = 1;
  programs::InputOrder Order = programs::InputOrder::Random;
  prof::EquivalenceStrategy Equivalence =
      prof::EquivalenceStrategy::SomeElements;
  prof::GroupingStrategy Grouping = prof::GroupingStrategy::CommonInput;
  int64_t SampleThreshold = 0;
};

/// A measured quantity: a number, or text when Num is NaN.
struct Measured {
  std::string Value;  ///< As printed.
  double Num = std::nan("");
  std::string Detail; ///< Context printed beside it: fit, R^2, counts.
};

struct Experiment;

/// An extracted quantity: its name and the function that measures it.
struct Quantity {
  const char *Name;
  Measured (*Measure)(const Experiment &E);
};

/// One measured cell of EXPERIMENTS.md.
struct Experiment {
  std::string Id;      ///< Stable row id and test name: [a-z0-9_]+.
  std::string Section; ///< "Figure 1", "Table 1", "Ablation A", ...
  Setup Run;
  const Quantity *What = nullptr;
  /// The algorithm root, method or workload part the quantity is about;
  /// empty when it is about the whole run.
  std::string Of;
  /// The paper's value. A number passes within Tol; text must be equal.
  std::string Paper;
  double Tol = 0;
  /// Set where Paper is not a value the paper prints: says where the
  /// expectation comes from.
  std::string Note;
};

/// Every row, in EXPERIMENTS.md order.
const std::vector<Experiment> &table();

/// The row with id \p Id; throws std::out_of_range if there is none.
const Experiment &experiment(std::string_view Id);

/// Runs (or reuses this process's run of) \p E's setup and extracts
/// its quantity. A failure to compile, run or find the subject reads as
/// an "error: ..." text value.
Measured measure(const Experiment &E);

/// True when \p M matches \p E's paper value within its tolerance.
bool withinTolerance(const Experiment &E, const Measured &M);

/// A program compiled, run and profiled once per process; rows and the
/// driver's plots and trees share it.
struct Profiled {
  std::unique_ptr<prof::CompiledProgram> CP;
  std::unique_ptr<prof::ProfileSession> Session;
  std::vector<prof::AlgorithmProfile> Profiles;
};

/// Throws std::runtime_error when \p S fails to compile or run.
const Profiled &profiled(const Setup &S);

/// The profile of the algorithm rooted at the node named \p Root.
const prof::AlgorithmProfile *algorithm(const Profiled &P,
                                        std::string_view Root);

/// The rows as markdown, one table per section, between the markers
/// that EXPERIMENTS.md embeds; \p Results holds one entry per row.
std::string markdownBlock(const std::vector<Experiment> &Rows,
                          const std::vector<Measured> &Results);

/// gtest prints a row as its id (stable test listings, no byte dumps).
void PrintTo(const Experiment &E, std::ostream *OS);

} // namespace experiments
} // namespace algoprof

#endif // ALGOPROF_BENCH_EXPERIMENTS_H
