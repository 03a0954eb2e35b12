//===- tests/GoldenUtil.h - Golden-file comparison helper -------*- C++-*-===//
///
/// \file
/// expectMatchesGolden(actual, "name.ext") compares a rendered document
/// against tests/golden/<name.ext> and prints a unified-enough diff on
/// mismatch. Regenerate after an intentional format change with
///
///   ALGOPROF_UPDATE_GOLDEN=1 ctest -L obs
///   ALGOPROF_UPDATE_GOLDEN=1 ctest -R 'AllElementsGolden|EagerGolden'
///
/// which rewrites the files in the source tree.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_TESTS_GOLDENUTIL_H
#define ALGOPROF_TESTS_GOLDENUTIL_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef ALGOPROF_GOLDEN_DIR
#error "tests/CMakeLists.txt must define ALGOPROF_GOLDEN_DIR"
#endif

namespace algoprof {
namespace testutil {

inline void expectMatchesGolden(const std::string &Actual,
                                const std::string &FileName) {
  std::string Path = std::string(ALGOPROF_GOLDEN_DIR) + "/" + FileName;
  if (std::getenv("ALGOPROF_UPDATE_GOLDEN")) {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing golden file " << Path
                  << " (run with ALGOPROF_UPDATE_GOLDEN=1 to create)";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Expected = Buf.str();
  if (Expected == Actual)
    return;
  // Point at the first differing line so the failure is readable
  // without an external diff.
  std::istringstream E(Expected), A(Actual);
  std::string EL, AL;
  int Line = 1;
  while (true) {
    bool HasE = static_cast<bool>(std::getline(E, EL));
    bool HasA = static_cast<bool>(std::getline(A, AL));
    if (!HasE && !HasA)
      break;
    if (!HasE || !HasA || EL != AL) {
      ADD_FAILURE() << FileName << " differs at line " << Line
                    << "\n  golden: " << (HasE ? EL : "<eof>")
                    << "\n  actual: " << (HasA ? AL : "<eof>")
                    << "\n(ALGOPROF_UPDATE_GOLDEN=1 regenerates)";
      return;
    }
    ++Line;
  }
  ADD_FAILURE() << FileName << " differs (line split identical, bytes "
                   "not — check trailing newline)";
}

} // namespace testutil
} // namespace algoprof

#endif // ALGOPROF_TESTS_GOLDENUTIL_H
