//===- programs/Table1Check.h - Evaluate a Table 1 program ------*- C++-*-===//
///
/// \file
/// Runs one Table 1 program under the algorithmic profiler and evaluates
/// the paper's three judgment columns:
///   I — were the expected inputs detected,
///   S — were their sizes measured correctly (against the program's
///       ExpectedSize formula over the sweep),
///   G — did the program's designated loop nest/recursion group into one
///       algorithm ('x') or not ('-').
/// Shared by the Table 1 unit tests and the Table 1 and Ablation B rows
/// of the experiment table (bench/Experiments.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_PROGRAMS_TABLE1CHECK_H
#define ALGOPROF_PROGRAMS_TABLE1CHECK_H

#include "core/Session.h"
#include "programs/Programs.h"

#include <string>

namespace algoprof {
namespace programs {

/// Outcome of evaluating one Table 1 program.
struct Table1Outcome {
  bool CompiledAndRan = false;
  bool InputsDetected = false; ///< Paper column I.
  bool SizesCorrect = false;   ///< Paper column S.
  char GColumn = '?';          ///< Measured grouping: 'x' or '-'.
  std::string Detail;          ///< Failure diagnostics.
};

/// Compiles, runs, profiles and judges \p P under \p Strategy.
Table1Outcome evaluateTable1Program(const Table1Program &P,
                                    prof::GroupingStrategy Strategy);

} // namespace programs
} // namespace algoprof

#endif // ALGOPROF_PROGRAMS_TABLE1CHECK_H
