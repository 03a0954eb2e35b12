//===- bench/paper_experiments.cpp - The paper's evaluation, checked ------===//
///
/// \file
/// Measures every row of the experiment table (bench/Experiments.h) and
/// prints it as the markdown block EXPERIMENTS.md embeds, then the
/// figures: the Figure 1 and 5 scatter plots (also written to fig1.csv
/// and fig5.csv in the working directory) and the Figure 3 and 4
/// repetition trees. Exits 1 when any row is out of tolerance.
///
///   paper_experiments [--expect ROW=VALUE]...
///
/// --expect replaces a row's paper value, to show that a wrong
/// expectation fails the run.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "report/AsciiPlot.h"
#include "report/CsvWriter.h"
#include "report/TreePrinter.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

using namespace algoprof;
using namespace algoprof::experiments;

namespace {

struct Curve {
  const char *RowId; ///< A row whose setup and algorithm give the series.
  const char *CsvName;
  const char *PlotName;
  char Glyph;
};

void plotFigure(const char *Title, const char *CsvPath,
                const std::vector<Curve> &Curves) {
  std::vector<report::PlotSeries> Plots;
  std::vector<std::pair<std::string, std::vector<prof::SeriesPoint>>> Csv;
  for (const Curve &C : Curves) {
    const Experiment &E = experiment(C.RowId);
    const prof::AlgorithmProfile *AP = algorithm(profiled(E.Run), E.Of);
    const auto *S = AP ? AP->primarySeries() : nullptr;
    std::vector<prof::SeriesPoint> Points;
    if (S)
      Points = S->Series;
    Plots.push_back({C.PlotName, C.Glyph, Points});
    Csv.emplace_back(C.CsvName, std::move(Points));
  }
  std::printf("%s\n", report::renderScatter(Plots, Title).c_str());
  if (report::writeFile(CsvPath, report::seriesToCsv(Csv)))
    std::printf("wrote %s\n\n", CsvPath);
}

void printTree(const char *Title, const char *RowId) {
  const Profiled &P = profiled(experiment(RowId).Run);
  std::printf("%s\n\n%s\n", Title,
              report::renderAnnotatedTree(P.Session->tree(), P.Profiles)
                  .c_str());
}

int usage() {
  std::fprintf(stderr, "usage: paper_experiments [--expect ROW=VALUE]...\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<Experiment> Rows = table();
  for (int I = 1; I < argc; ++I) {
    const char *Eq = I + 1 < argc ? std::strchr(argv[I + 1], '=') : nullptr;
    if (std::strcmp(argv[I], "--expect") != 0 || !Eq)
      return usage();
    std::string Id(argv[I + 1], Eq - argv[I + 1]);
    bool Found = false;
    for (Experiment &E : Rows)
      if (E.Id == Id) {
        E.Paper = Eq + 1;
        Found = true;
      }
    if (!Found) {
      std::fprintf(stderr, "error: no experiment row '%s'\n", Id.c_str());
      return 2;
    }
    ++I;
  }

  std::vector<Measured> Results;
  size_t Passed = 0;
  for (const Experiment &E : Rows) {
    Results.push_back(measure(E));
    Passed += withinTolerance(E, Results.back());
  }
  std::printf("%s\n", markdownBlock(Rows, Results).c_str());
  std::printf("%zu of %zu rows within tolerance\n\n", Passed, Rows.size());
  for (size_t I = 0; I < Rows.size(); ++I)
    if (!withinTolerance(Rows[I], Results[I]))
      std::printf("FAIL %s: paper %s, measured %s\n", Rows[I].Id.c_str(),
                  Rows[I].Paper.c_str(), Results[I].Value.c_str());

  try {
    plotFigure("Figure 1: steps vs input size", "fig1.csv",
               {{"fig1a_random_exponent", "random", "random", 'r'},
                {"fig1b_sorted_exponent", "sorted", "sorted", 's'},
                {"fig1c_reversed_exponent", "reversed", "reversed", 'v'}});
    printTree("Figure 3: algorithmic profile (repetition tree)",
              "fig3_sort_label");
    printTree("Figure 4: repetition tree for growing an array-backed list",
              "fig4_algorithms");
    plotFigure("Figure 5: steps vs list size", "fig5.csv",
               {{"fig5_grow_by_1_exponent", "grow_by_1", "grow by 1", '1'},
                {"fig5_doubling_exponent", "doubling", "doubling", '2'}});
  } catch (const std::exception &Err) {
    std::fprintf(stderr, "error: %s\n", Err.what());
    return 1;
  }
  return Passed == Rows.size() ? 0 : 1;
}
