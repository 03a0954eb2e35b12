//===- core/RepetitionTree.h - Dynamic loop/recursion nesting ---*- C++-*-===//
///
/// \file
/// The paper's central data structure (Sec. 2.1 / Fig. 3): a tree of
/// repetition nodes — loops and (folded) recursions — that records, for
/// every invocation of every repetition, its cost map and the inputs it
/// touched together with their measured sizes.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_CORE_REPETITIONTREE_H
#define ALGOPROF_CORE_REPETITIONTREE_H

#include "core/CostMap.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace algoprof {
namespace prof {

/// What a repetition node represents.
enum class RepKind : uint8_t {
  Root,      ///< The synthetic per-program root ("Program").
  Loop,      ///< A natural loop (MethodId + loop index).
  Recursion, ///< A folded recursion headed by MethodId.
};

/// Identity of a repetition node among its siblings.
struct RepKey {
  RepKind Kind = RepKind::Root;
  int32_t MethodId = -1;
  int32_t LoopId = -1; ///< Index into the method's analysis::LoopInfo.

  bool operator<(const RepKey &O) const {
    if (Kind != O.Kind)
      return Kind < O.Kind;
    if (MethodId != O.MethodId)
      return MethodId < O.MethodId;
    return LoopId < O.LoopId;
  }
  bool operator==(const RepKey &O) const {
    return Kind == O.Kind && MethodId == O.MethodId && LoopId == O.LoopId;
  }
};

/// Per-invocation, per-input size observations. Sizes use the input's
/// primary measure (object count for structures, unique element count
/// for arrays); the side measures keep the alternatives (paper Sec. 3.4).
struct InputUse {
  int64_t FirstSize = -1; ///< Size at the first access in the invocation.
  int64_t LastSize = -1;  ///< Size at the invocation's exit remeasure.
  int64_t MaxSize = 0;    ///< Paper rule: the size of an evolving input.
  int64_t MaxCapacity = 0;    ///< Arrays: capacity measure.
  int64_t MaxUniqueElems = 0; ///< Arrays: unique-element measure.
  int64_t MaxRefCount = 0;    ///< Structures: traversed array references.

  void observe(int64_t Size, int64_t Capacity, int64_t Unique,
               int64_t Refs) {
    if (FirstSize < 0)
      FirstSize = Size;
    LastSize = Size;
    if (Size > MaxSize)
      MaxSize = Size;
    if (Capacity > MaxCapacity)
      MaxCapacity = Capacity;
    if (Unique > MaxUniqueElems)
      MaxUniqueElems = Unique;
    if (Refs > MaxRefCount)
      MaxRefCount = Refs;
  }

  void mergeMax(const InputUse &O) {
    if (FirstSize < 0)
      FirstSize = O.FirstSize;
    LastSize = O.LastSize >= 0 ? O.LastSize : LastSize;
    MaxSize = std::max(MaxSize, O.MaxSize);
    MaxCapacity = std::max(MaxCapacity, O.MaxCapacity);
    MaxUniqueElems = std::max(MaxUniqueElems, O.MaxUniqueElems);
    MaxRefCount = std::max(MaxRefCount, O.MaxRefCount);
  }
};

/// One input-use entry: a canonical input id and its sizes.
using UseEntry = std::pair<int32_t, InputUse>;

/// Stable-sorts \p Uses by id and folds equal ids left to right with
/// InputUse::mergeMax into the first of them. Returns how many entries
/// remain at the front. Passing uses in ascending order of their former
/// ids folds exactly like inserting them into a map keyed by the new id.
size_t sortAndFoldUses(std::span<UseEntry> Uses);

/// Rewrites the ids of \p Uses (strictly ascending ids) through \p
/// Canonical (an input-id remap or union-find collapse); uses that now
/// share an id fold in ascending order of their old ids. Re-sorts only
/// when some id changed. Returns how many entries remain at the front.
template <typename Fn>
size_t canonicalizeUses(std::span<UseEntry> Uses, Fn Canonical) {
  bool Changed = false;
  for (UseEntry &E : Uses) {
    int32_t Id = Canonical(E.first);
    Changed |= Id != E.first;
    E.first = Id;
  }
  return Changed ? sortAndFoldUses(Uses) : Uses.size();
}

/// A read-only view of the inputs one invocation touched: (input id,
/// sizes) entries with strictly ascending ids. Iteration visits them in
/// id order.
class UseSpan {
public:
  UseSpan() = default;
  UseSpan(std::span<const UseEntry> Uses) : Uses(Uses) {}

  /// The use of input \p Id, or null.
  const InputUse *find(int32_t Id) const;

  bool empty() const { return Uses.empty(); }
  size_t size() const { return Uses.size(); }
  auto begin() const { return Uses.begin(); }
  auto end() const { return Uses.end(); }

private:
  std::span<const UseEntry> Uses;
};

/// The inputs of one combined invocation (core/AlgorithmSummary.h),
/// owned: (input id, sizes) entries kept sorted by id, one per id.
class InputUses {
public:
  using Entry = UseEntry;

  InputUses() = default;

  /// The uses in \p Entries, given in any order; equal ids fold as in
  /// sortAndFoldUses.
  static InputUses fold(std::vector<Entry> Entries) {
    InputUses U;
    U.Uses = std::move(Entries);
    U.Uses.resize(sortAndFoldUses(U.Uses));
    return U;
  }

  operator UseSpan() const { return UseSpan(Uses); }
  const InputUse *find(int32_t Id) const { return UseSpan(*this).find(Id); }
  bool empty() const { return Uses.empty(); }
  size_t size() const { return Uses.size(); }
  auto begin() const { return Uses.begin(); }
  auto end() const { return Uses.end(); }

private:
  std::vector<Entry> Uses;
};

class RepetitionNode;

/// A range of one of a node's record columns: [Begin, Begin + Size).
struct ColumnRange {
  uint32_t Begin = 0;
  uint32_t Size = 0;

  /// The range [Begin, End) of a column.
  static ColumnRange between(size_t Begin, size_t End) {
    assert(Begin <= End && End <= UINT32_MAX && "column past 32-bit ranges");
    return {static_cast<uint32_t>(Begin), static_cast<uint32_t>(End - Begin)};
  }
};

/// The history entry of one finished invocation of a repetition
/// (paper Sec. 3.3, finalizeRepetition). Its cost map and input uses
/// live in its node's columns (RepetitionNode::CostColumn/UseColumn);
/// the record holds their ranges. Read it through RepetitionNode::
/// record().
struct InvocationRecord {
  ColumnRange Costs;       ///< Own costs, in the node's CostColumn.
  ColumnRange FoldedCosts; ///< See RecordView::FoldedCosts.
  ColumnRange Inputs;      ///< In the node's UseColumn.
  RepetitionNode *ParentNode = nullptr;
  int32_t ParentInvocation = -1;
  bool Finalized = false;
};

/// One invocation record with its column ranges resolved.
struct RecordView {
  CostSpan Costs;
  /// Costs folded up from *sampled-out* child invocations (paper
  /// Sec. 3.3 sampling): they belong to this invocation's combined cost
  /// but are not this repetition's own operations, so grouping ignores
  /// them while series extraction includes them.
  CostSpan FoldedCosts;
  UseSpan Inputs; ///< Canonical input id -> sizes.
  RepetitionNode *ParentNode = nullptr;
  int32_t ParentInvocation = -1;
  bool Finalized = false;
};

/// One repetition (loop or recursion) in the tree.
class RepetitionNode {
public:
  RepKey Key;
  std::string Name; ///< "List.sort loop#0", "Fib.fib (recursion)", ...
  RepetitionNode *Parent = nullptr;
  std::vector<std::unique_ptr<RepetitionNode>> Children;

  /// Every *recorded* invocation, in finalize order. With invocation
  /// sampling (ProfileOptions::SampleThreshold) this is a subset of all
  /// invocations; TotalInvocations counts them all.
  std::vector<InvocationRecord> History;

  /// The cost entries of every record (own and folded ranges), and the
  /// input uses of every record. Two flat columns per node instead of
  /// vectors per record: a finalize appends, a shard merge moves a
  /// node's columns with one insert each, and teardown frees a few
  /// blocks per node. No two ranges overlap, and each is sorted with
  /// unique keys. A range may be followed by stale entries (a gap)
  /// where a merge's id remap folded entries together; only ranges are
  /// read.
  std::vector<CostEntry> CostColumn;
  std::vector<UseEntry> UseColumn;

  /// Total activations of this repetition, recorded or not.
  int64_t TotalInvocations = 0;

  int depth() const {
    int D = 0;
    for (const RepetitionNode *N = Parent; N; N = N->Parent)
      ++D;
    return D;
  }

  /// Record \p I of History, read through the columns.
  RecordView record(size_t I) const {
    const InvocationRecord &R = History[I];
    return {costs(R.Costs), costs(R.FoldedCosts), uses(R.Inputs),
            R.ParentNode, R.ParentInvocation, R.Finalized};
  }

  /// Every record as a RecordView, in history order.
  auto records() const {
    return std::views::iota(size_t{0}, History.size()) |
           std::views::transform([this](size_t I) { return record(I); });
  }

  CostSpan costs(ColumnRange R) const {
    return std::span<const CostEntry>(CostColumn).subspan(R.Begin, R.Size);
  }
  UseSpan uses(ColumnRange R) const {
    return std::span<const UseEntry>(UseColumn).subspan(R.Begin, R.Size);
  }

  RepetitionNode *findChild(const RepKey &K);

  /// Total algorithmic steps over all finalized invocations.
  int64_t totalSteps() const;

  /// Input ids touched by any invocation of this node. They are
  /// canonical only as of each record's finalize; inputs merged later
  /// keep their old ids here, so callers (e.g. Table1Check) map them
  /// through InputTable::canonical.
  std::vector<int32_t> touchedInputs() const;
};

/// The repetition tree of a profiled execution (or a set of executions:
/// repeated runs accumulate into the same tree).
class RepetitionTree {
public:
  RepetitionTree();

  RepetitionNode &root() { return *Root; }
  const RepetitionNode &root() const { return *Root; }

  /// Finds or creates the child of \p Parent with key \p K; \p Name is
  /// used only on creation.
  RepetitionNode &getOrCreateChild(RepetitionNode &Parent, const RepKey &K,
                                   const std::string &Name);

  /// Appends a new child of \p Parent with key \p K, which must not be
  /// a child already.
  RepetitionNode &addChild(RepetitionNode &Parent, const RepKey &K,
                           std::string Name);

  /// Folds the completed shard tree \p Other into this one, consuming
  /// it. Nodes align by RepKey (static method/loop ids); each \p Other
  /// node's records and columns append after the matching node's, one
  /// insert per column. The appended records' ranges then shift by the
  /// destination columns' pre-merge lengths, their cost-map and
  /// input-use ids are rewritten within each range through \p
  /// InputRemap (from InputTable::merge), and ParentInvocation indices
  /// shift by the destination parent's pre-merge history length.
  /// Merging shards in run-index order reproduces a serial accumulating
  /// session's tree exactly, byte for byte, independent of which
  /// threads executed which runs. \p Other is left with its nodes but
  /// no records and no column entries.
  void merge(RepetitionTree &&Other, const std::vector<int32_t> &InputRemap);

  /// Pre-order traversal.
  template <typename Fn> void forEach(Fn F) const {
    forEachImpl(*Root, F);
  }

  /// Number of nodes excluding the root.
  int numRepetitions() const;

private:
  void mergeSubtree(RepetitionNode &Dst, RepetitionNode &Src,
                    size_t ParentOffset,
                    const std::vector<int32_t> &Remap);

  template <typename Fn>
  static void forEachImpl(const RepetitionNode &N, Fn &F) {
    F(N);
    for (const auto &C : N.Children)
      forEachImpl(*C, F);
  }

  std::unique_ptr<RepetitionNode> Root;
};

} // namespace prof
} // namespace algoprof

#endif // ALGOPROF_CORE_REPETITIONTREE_H
