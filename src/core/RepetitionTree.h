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
#include <cstdint>
#include <memory>
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

/// The inputs one invocation touched: (input id, sizes) entries kept
/// sorted by id, one entry per id. Flat for the same reason as CostMap:
/// every record carries one, and the back half remaps, folds and scans
/// them (shard merge, cost combination, series extraction).
class InputUses {
public:
  using Entry = std::pair<int32_t, InputUse>;

  InputUses() = default;

  /// The uses in \p Entries, given in any order. Entries with equal ids
  /// fold with InputUse::mergeMax in their order in \p Entries, so
  /// passing them in ascending order of their former ids folds exactly
  /// like inserting them into a map keyed by the new id.
  static InputUses fold(std::vector<Entry> Entries) {
    InputUses U;
    U.Uses = std::move(Entries);
    U.sortAndFold();
    return U;
  }

  /// The use of input \p Id, or null.
  const InputUse *find(int32_t Id) const;

  /// Rewrites ids through \p Canonical (an input-id remap or union-find
  /// collapse); uses that now share an id fold in ascending order of
  /// their old ids. Re-sorts only when some id changed.
  template <typename Fn> void canonicalize(Fn Canonical) {
    bool Changed = false;
    for (Entry &E : Uses) {
      int32_t Id = Canonical(E.first);
      Changed |= Id != E.first;
      E.first = Id;
    }
    if (Changed)
      sortAndFold();
  }

  /// Iteration visits (id, use) entries in ascending id order.
  bool empty() const { return Uses.empty(); }
  size_t size() const { return Uses.size(); }
  std::vector<Entry>::const_iterator begin() const { return Uses.begin(); }
  std::vector<Entry>::const_iterator end() const { return Uses.end(); }

private:
  /// Stable-sorts the entries by id and folds equal ids left to right.
  void sortAndFold();

  std::vector<Entry> Uses;
};

class RepetitionNode;

/// The history entry of one finished invocation of a repetition
/// (paper Sec. 3.3, finalizeRepetition).
struct InvocationRecord {
  CostMap Costs;
  /// Costs folded up from *sampled-out* child invocations (paper
  /// Sec. 3.3 sampling): they belong to this invocation's combined cost
  /// but are not this repetition's own operations, so grouping ignores
  /// them while series extraction includes them.
  CostMap FoldedCosts;
  InputUses Inputs; ///< Canonical input id -> sizes.
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

  /// Total activations of this repetition, recorded or not.
  int64_t TotalInvocations = 0;

  int depth() const {
    int D = 0;
    for (const RepetitionNode *N = Parent; N; N = N->Parent)
      ++D;
    return D;
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
  /// it. Nodes align by RepKey (static method/loop ids); \p Other's
  /// invocation records move over and append after this tree's, with
  /// cost-map and input-use ids rewritten in place through \p
  /// InputRemap (from InputTable::merge) and ParentInvocation indices
  /// shifted by the destination parent's pre-merge history length.
  /// Merging shards in run-index order reproduces a serial accumulating
  /// session's tree exactly, byte for byte, independent of which
  /// threads executed which runs. \p Other is left with its nodes but
  /// no records.
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
