//===- analysis/Cfg.cpp ---------------------------------------------------===//

#include "analysis/Cfg.h"

#include <algorithm>
#include <cassert>

using namespace algoprof;
using namespace algoprof::analysis;
using namespace algoprof::bc;

std::vector<int> Cfg::reversePostOrder() const {
  std::vector<int> Order;
  std::vector<char> State(Blocks.size(), 0); // 0=new, 1=open, 2=done
  std::vector<std::pair<int, size_t>> Stack;  // (block, next succ index)
  Stack.emplace_back(entry(), 0);
  State[static_cast<size_t>(entry())] = 1;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    const BasicBlock &Block = Blocks[static_cast<size_t>(B)];
    if (NextSucc < Block.Succs.size()) {
      int S = Block.Succs[NextSucc++];
      if (State[static_cast<size_t>(S)] == 0) {
        State[static_cast<size_t>(S)] = 1;
        Stack.emplace_back(S, 0);
      }
      continue;
    }
    State[static_cast<size_t>(B)] = 2;
    Order.push_back(B);
    Stack.pop_back();
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

Cfg algoprof::analysis::buildCfg(const MethodInfo &Method) {
  const std::vector<Instr> &Code = Method.Code;
  int N = static_cast<int>(Code.size());
  assert(N > 0 && "compiled methods always end in a terminator");

  // Find leaders.
  std::vector<char> Leader(static_cast<size_t>(N), 0);
  Leader[0] = 1;
  for (int Pc = 0; Pc < N; ++Pc) {
    const Instr &I = Code[static_cast<size_t>(Pc)];
    if (isBranch(I.Op)) {
      assert(I.A >= 0 && I.A < N && "branch target out of range");
      Leader[static_cast<size_t>(I.A)] = 1;
      if (Pc + 1 < N)
        Leader[static_cast<size_t>(Pc + 1)] = 1;
    } else if (isTerminator(I.Op) && Pc + 1 < N) {
      Leader[static_cast<size_t>(Pc + 1)] = 1;
    }
  }

  Cfg G;
  G.BlockAtPc.assign(static_cast<size_t>(N), -1);
  for (int Pc = 0; Pc < N; ++Pc) {
    if (Leader[static_cast<size_t>(Pc)]) {
      BasicBlock B;
      B.Id = G.numBlocks();
      B.Begin = Pc;
      G.Blocks.push_back(std::move(B));
    }
    G.BlockAtPc[static_cast<size_t>(Pc)] = G.numBlocks() - 1;
  }
  for (BasicBlock &B : G.Blocks)
    B.End = (B.Id + 1 < G.numBlocks()) ? G.Blocks[static_cast<size_t>(B.Id + 1)].Begin
                                       : N;

  // Edges.
  for (BasicBlock &B : G.Blocks) {
    const Instr &Last = Code[static_cast<size_t>(B.End - 1)];
    auto AddEdge = [&](int TargetPc) {
      int T = G.blockAt(TargetPc);
      B.Succs.push_back(T);
    };
    if (Last.Op == Opcode::Goto) {
      AddEdge(Last.A);
    } else if (Last.Op == Opcode::IfTrue || Last.Op == Opcode::IfFalse) {
      AddEdge(Last.A);
      if (B.End < N)
        AddEdge(B.End);
    } else if (!isTerminator(Last.Op)) {
      if (B.End < N)
        AddEdge(B.End);
    }
  }
  for (const BasicBlock &B : G.Blocks)
    for (int S : B.Succs)
      G.Blocks[static_cast<size_t>(S)].Preds.push_back(B.Id);
  return G;
}
