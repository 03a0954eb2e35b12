//===- bytecode/Verifier.h - Bytecode well-formedness checks ----*- C++-*-===//
///
/// \file
/// Structural verification of compiled modules, in the spirit of the
/// JVM verifier: branch targets in range, operand ids valid, terminator
/// discipline, and a dataflow check that the operand-stack depth is
/// consistent along all paths and never underflows. The compiler's
/// output is verified in tests; hand-assembled modules (tools, tests)
/// should be verified before execution. The interpreter sizes frames
/// with maxStackDepth and traps on entry to a method that fails.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_BYTECODE_VERIFIER_H
#define ALGOPROF_BYTECODE_VERIFIER_H

#include "bytecode/Module.h"

#include <string>
#include <vector>

namespace algoprof {
namespace bc {

/// Verifies one method; returns human-readable problems (empty = ok).
std::vector<std::string> verifyMethod(const Module &M,
                                      const MethodInfo &Method);

/// Verifies every method of \p M.
std::vector<std::string> verifyModule(const Module &M);

/// The operand-stack bound of \p Method under the verifier's depth rule:
/// the deepest the stack gets before or after any reachable instruction.
/// Returns -1 when the method does not verify, so the depth has no valid
/// bound. The interpreter sizes each frame's operand stack with it.
int maxStackDepth(const Module &M, const MethodInfo &Method);

} // namespace bc
} // namespace algoprof

#endif // ALGOPROF_BYTECODE_VERIFIER_H
