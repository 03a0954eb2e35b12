//===- tests/TestUtil.h - Shared test helpers -------------------*- C++-*-===//

#ifndef ALGOPROF_TESTS_TESTUTIL_H
#define ALGOPROF_TESTS_TESTUTIL_H

#include "core/Session.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace algoprof {
namespace testutil {

/// Compiles \p Src, failing the current test on diagnostics.
inline std::unique_ptr<prof::CompiledProgram>
compile(const std::string &Src) {
  DiagnosticEngine Diags;
  auto CP = prof::compileMiniJ(Src, Diags);
  EXPECT_TRUE(CP) << Diags.str();
  return CP;
}

struct RunOutcome {
  vm::RunResult Result;
  std::vector<int64_t> Output;
};

/// Compiles and runs Main.main unprofiled with optional input values.
inline RunOutcome run(const std::string &Src,
                      std::vector<int64_t> Input = {},
                      const std::string &Cls = "Main",
                      const std::string &Method = "main") {
  RunOutcome Out;
  auto CP = compile(Src);
  if (!CP)
    return Out;
  vm::IoChannels Io;
  Io.Input = std::move(Input);
  Out.Result = prof::runPlain(*CP, Cls, Method, &Io);
  Out.Output = std::move(Io.Output);
  return Out;
}

/// Runs and expects a clean finish; returns the output channel.
inline std::vector<int64_t> runOk(const std::string &Src,
                                  std::vector<int64_t> Input = {}) {
  RunOutcome Out = run(Src, std::move(Input));
  EXPECT_TRUE(Out.Result.ok()) << Out.Result.TrapMessage;
  return Out.Output;
}

/// Runs and expects a trap whose message contains \p Needle.
inline void runTraps(const std::string &Src, const std::string &Needle) {
  RunOutcome Out = run(Src);
  EXPECT_EQ(Out.Result.Status, vm::RunStatus::Trapped);
  EXPECT_NE(Out.Result.TrapMessage.find(Needle), std::string::npos)
      << "trap message was: " << Out.Result.TrapMessage;
}

/// The loop events of the transfer From -> To inside one method, derived
/// from the loop chains alone, never from the VM's slot tables: exits are
/// the source's loops the target is not in (innermost first), entries
/// the target's loops the source is not in (outermost first), and a back
/// edge is a jump to the header of a loop the source stays in.
inline vm::LoopTransition chainTransition(const vm::PreparedMethod &PM,
                                          int From, int To) {
  const auto &Src = PM.Events.LoopChainAtPc[static_cast<size_t>(From)];
  const auto &Dst = PM.Events.LoopChainAtPc[static_cast<size_t>(To)];
  auto In = [](const std::vector<int32_t> &Chain, int32_t L) {
    return std::find(Chain.begin(), Chain.end(), L) != Chain.end();
  };
  vm::LoopTransition T;
  for (int32_t L : Src) {
    if (!In(Dst, L))
      T.Exits.push_back(L);
    else if (PM.Loops.Loops[static_cast<size_t>(L)].HeaderPc == To)
      T.BackEdge = L;
  }
  for (auto It = Dst.rbegin(); It != Dst.rend(); ++It)
    if (!In(Src, *It))
      T.Entries.push_back(*It);
  return T;
}

} // namespace testutil
} // namespace algoprof

#endif // ALGOPROF_TESTS_TESTUTIL_H
