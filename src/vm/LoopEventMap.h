//===- vm/LoopEventMap.h - Control-transfer loop events ---------*- C++-*-===//
///
/// \file
/// Precomputed loop events per control transfer. Every pc has two slots,
/// one for its fall-through edge and one for its branch edge; a slot
/// names the loop enter / back edge / exit events of that edge, or is -1
/// when the edge crosses no loop boundary. The interpreter tests the slot
/// of each advance inline — the dynamic equivalent of the paper's
/// loop-entry/exit/back-edge bytecode instrumentation, which sits only on
/// the edges that cross a loop boundary. Loops come from the recovered
/// natural loops rather than from front-end structure.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_VM_LOOPEVENTMAP_H
#define ALGOPROF_VM_LOOPEVENTMAP_H

#include "analysis/Cfg.h"
#include "analysis/Loops.h"

#include <vector>

namespace algoprof {
namespace vm {

/// Events attached to one control transfer (a CFG edge). Loop ids are
/// indices into the method's analysis::LoopInfo.
struct LoopTransition {
  std::vector<int32_t> Exits;   ///< Innermost-first.
  int32_t BackEdge = -1;        ///< Loop whose back edge this is, or -1.
  std::vector<int32_t> Entries; ///< Outermost-first.
};

/// Loop-event tables for one method.
class LoopEventMap {
public:
  /// Per pc: index into Edges of the events on pc -> pc+1 (a fall-through,
  /// or the return to the instruction after a call), or -1.
  std::vector<int32_t> Fall;

  /// Per pc: index into Edges of the events on pc -> its branch target,
  /// or -1. Set only on branches.
  std::vector<int32_t> Taken;

  /// The events of every edge that carries any.
  std::vector<LoopTransition> Edges;

  /// Per pc: loops containing the pc, innermost first. Used on method
  /// entry (pc 0), on returns, and when unwinding a trap.
  std::vector<std::vector<int32_t>> LoopChainAtPc;
};

/// Builds the loop-event tables of one method.
LoopEventMap buildLoopEventMap(const bc::MethodInfo &Method,
                               const analysis::Cfg &G,
                               const analysis::LoopInfo &LI);

} // namespace vm
} // namespace algoprof

#endif // ALGOPROF_VM_LOOPEVENTMAP_H
