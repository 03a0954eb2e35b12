//===- tests/RobustnessTest.cpp - Front-end robustness fuzzing ------------===//
//
// Deterministic mutation fuzzing: the front end must never crash on
// malformed input — every mutation either compiles or produces
// diagnostics. Mutations of a known-good program: single-character
// deletions, truncations, and token-level swaps.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::testutil;

namespace {

/// Compiles without asserting success; the test is "no crash, and
/// failure implies diagnostics".
void compileLenient(const std::string &Src) {
  DiagnosticEngine Diags;
  auto CP = compileMiniJ(Src, Diags);
  if (!CP)
    EXPECT_TRUE(Diags.hasErrors())
        << "compile failed without diagnostics";
}

std::string baseProgram() {
  return programs::insertionSortProgram(20, 10, 1,
                                        programs::InputOrder::Random);
}

TEST(Robustness, SingleCharacterDeletions) {
  std::string Base = baseProgram();
  // Every 7th deletion position keeps the test fast while covering the
  // whole program shape.
  for (size_t I = 0; I < Base.size(); I += 7) {
    std::string Mutated = Base;
    Mutated.erase(I, 1);
    compileLenient(Mutated);
  }
}

TEST(Robustness, Truncations) {
  std::string Base = baseProgram();
  for (size_t Len = 0; Len < Base.size(); Len += 23)
    compileLenient(Base.substr(0, Len));
}

TEST(Robustness, CharacterSubstitutions) {
  std::string Base = baseProgram();
  const char Replacements[] = {'{', '}', ';', '(', ')', '.', '<', '+'};
  uint64_t Seed = 0x9E3779B97F4A7C15ull;
  for (int I = 0; I < 200; ++I) {
    Seed = Seed * 6364136223846793005ull + 1442695040888963407ull;
    size_t Pos = static_cast<size_t>(Seed >> 33) % Base.size();
    char R = Replacements[(Seed >> 21) % sizeof(Replacements)];
    std::string Mutated = Base;
    Mutated[Pos] = R;
    compileLenient(Mutated);
  }
}

TEST(Robustness, LineDeletions) {
  std::string Base = baseProgram();
  std::vector<std::string> Lines;
  size_t Start = 0;
  for (size_t I = 0; I <= Base.size(); ++I) {
    if (I == Base.size() || Base[I] == '\n') {
      Lines.push_back(Base.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  for (size_t Drop = 0; Drop < Lines.size(); ++Drop) {
    std::string Mutated;
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (I == Drop)
        continue;
      Mutated += Lines[I];
      Mutated += '\n';
    }
    compileLenient(Mutated);
  }
}

TEST(Robustness, DeeplyNestedExpressionsDoNotOverflow) {
  // Parenthesized nesting stresses the recursive-descent parser.
  std::string Expr(400, '(');
  Expr += "1";
  Expr += std::string(400, ')');
  compileLenient("class Main { static void main() { int x = " + Expr +
                 "; print(x); } }");
}

TEST(Robustness, DeeplyNestedBlocks) {
  std::string Body;
  for (int I = 0; I < 300; ++I)
    Body += "{ ";
  Body += "int x = 1; x = x + 1;";
  for (int I = 0; I < 300; ++I)
    Body += " }";
  compileLenient("class Main { static void main() { " + Body + " } }");
}

TEST(Robustness, ManyClassesAndMethods) {
  std::string Src;
  for (int C = 0; C < 60; ++C) {
    Src += "class C" + std::to_string(C) + " { ";
    for (int M = 0; M < 10; ++M)
      Src += "int m" + std::to_string(M) + "(int x) { return x + " +
             std::to_string(M) + "; } ";
    Src += "}\n";
  }
  Src += "class Main { static void main() { print(new C0().m0(1)); } }";
  DiagnosticEngine Diags;
  auto CP = compileMiniJ(Src, Diags);
  ASSERT_TRUE(CP) << Diags.str();
  vm::IoChannels Io;
  EXPECT_TRUE(runPlain(*CP, "Main", "main", &Io).ok());
  EXPECT_EQ(Io.Output, (std::vector<int64_t>{1}));
}

TEST(Robustness, ValidMutantsStillProfile) {
  // Mutants that still compile must also survive profiling (the VM and
  // profiler must not assume anything the front end no longer checks).
  std::string Base = baseProgram();
  int Profiled = 0;
  for (size_t I = 0; I < Base.size() && Profiled < 10; I += 11) {
    std::string Mutated = Base;
    Mutated.erase(I, 1);
    DiagnosticEngine Diags;
    auto CP = compileMiniJ(Mutated, Diags);
    if (!CP)
      continue;
    ++Profiled;
    ProfileSession S(*CP);
    vm::RunResult R = S.run("Main", "main");
    // Any terminal status is fine; no crashes and a consistent tree.
    (void)R;
    S.tree().forEach([](const RepetitionNode &N) {
      for (const RecordView &Rec : N.records())
        EXPECT_TRUE(Rec.Finalized);
    });
  }
  EXPECT_GT(Profiled, 0);
}

} // namespace
