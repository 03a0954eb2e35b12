//===- vm/LoopEventMap.cpp ------------------------------------------------===//

#include "vm/LoopEventMap.h"

#include <algorithm>

using namespace algoprof;
using namespace algoprof::vm;
using namespace algoprof::analysis;

LoopEventMap algoprof::vm::buildLoopEventMap(const bc::MethodInfo &Method,
                                             const Cfg &G,
                                             const LoopInfo &LI) {
  LoopEventMap LEM;
  size_t CodeLen = Method.Code.size();
  LEM.Fall.assign(CodeLen, -1);
  LEM.Taken.assign(CodeLen, -1);
  LEM.LoopChainAtPc.resize(CodeLen);

  for (size_t Pc = 0; Pc < CodeLen; ++Pc)
    LEM.LoopChainAtPc[Pc] = LI.loopChainAt(G.blockAt(static_cast<int>(Pc)));

  for (const BasicBlock &From : G.Blocks) {
    int FromPc = From.End - 1;
    const bc::Instr &Last = Method.Code[static_cast<size_t>(FromPc)];
    for (int ToBlock : From.Succs) {
      int ToPc = G.Blocks[static_cast<size_t>(ToBlock)].Begin;
      // A conditional branch to pc+1 reaches the same block both ways:
      // both slots name the one edge.
      bool ViaFall = ToPc == From.End && Last.Op != bc::Opcode::Goto;
      bool ViaTaken = bc::isBranch(Last.Op) && Last.A == ToPc;
      if ((ViaFall ? LEM.Fall : LEM.Taken)[static_cast<size_t>(FromPc)] >= 0)
        continue; // The same edge listed twice among the successors.
      LoopTransition T;

      // Exits: loops containing the source but not the target,
      // innermost-first (the chain is already innermost-first).
      for (int32_t L : LI.loopChainAt(From.Id))
        if (!LI.Loops[static_cast<size_t>(L)].contains(ToBlock))
          T.Exits.push_back(L);

      // Back edge: the target is the header of a loop containing the
      // source.
      for (const Loop &L : LI.Loops)
        if (L.HeaderBlock == ToBlock && L.contains(From.Id)) {
          T.BackEdge = L.Id;
          break;
        }

      // Entries: loops containing the target but not the source,
      // outermost-first.
      std::vector<int32_t> Entries;
      for (int32_t L : LI.loopChainAt(ToBlock))
        if (!LI.Loops[static_cast<size_t>(L)].contains(From.Id))
          Entries.push_back(L);
      std::reverse(Entries.begin(), Entries.end());
      T.Entries = std::move(Entries);

      if (T.Exits.empty() && T.BackEdge < 0 && T.Entries.empty())
        continue;
      int32_t Index = static_cast<int32_t>(LEM.Edges.size());
      LEM.Edges.push_back(std::move(T));
      if (ViaFall)
        LEM.Fall[static_cast<size_t>(FromPc)] = Index;
      if (ViaTaken)
        LEM.Taken[static_cast<size_t>(FromPc)] = Index;
    }
  }
  return LEM;
}
