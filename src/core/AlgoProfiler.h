//===- core/AlgoProfiler.h - The algorithmic profiler -----------*- C++-*-===//
///
/// \file
/// The ExecutionListener implementing the paper's dynamic analysis
/// (Sec. 3.2): it maintains the shadow stack and the repetition tree,
/// folds recursive call chains onto their header node
/// (findOnPathToRoot), counts algorithmic steps on loop back edges and
/// recursive calls, attributes structure/array access costs to inputs,
/// and snapshots input sizes at first access and at repetition exit
/// (remeasureInputs / finalizeRepetition).
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_CORE_ALGOPROFILER_H
#define ALGOPROF_CORE_ALGOPROFILER_H

#include "core/InputTable.h"
#include "core/RepetitionTree.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace algoprof {
namespace prof {

/// When input sizes are measured.
enum class SnapshotMode {
  /// Paper-faithful: traverse the structure at the repetition's first
  /// access and again at its exit (Sec. 3.4). Cost: O(|structure|) per
  /// repetition invocation.
  Eager,
  /// Fast approximation: read the incrementally tracked membership
  /// counts instead of traversing. Exact for grow-only structures (the
  /// tracked count *is* the paper's max-size rule); may overestimate for
  /// structures that shrink and regrow. The counts are run-scoped: they
  /// reset at every program start, so an input shared across runs (e.g.
  /// under SameType) is still sized from the current run's heap. Used
  /// for large sweeps and as an overhead ablation.
  Tracked,
};

const char *snapshotModeName(SnapshotMode Mode);

/// Profiler configuration.
struct ProfileOptions {
  EquivalenceStrategy Equivalence = EquivalenceStrategy::SomeElements;
  SnapshotMode Snapshots = SnapshotMode::Eager;
  ArraySizeMeasure ArrayMeasure = ArraySizeMeasure::UniqueElements;

  /// Invocation sampling for frequently invoked repetitions — the
  /// memory optimization the paper sketches in Sec. 3.3 ("sample a
  /// subset of invocations for frequently invoked repetitions"). 0
  /// records every invocation. A value T records the first T
  /// invocations of each repetition densely, then decimates: the
  /// recording stride doubles each time another T records accumulate,
  /// so a node with N invocations stores O(T * log(N/T)) records.
  /// Unrecorded invocations still count steps into TotalInvocations and
  /// their children's records are kept but not attributable (their
  /// ParentInvocation is -1, so cost combination skips them).
  int64_t SampleThreshold = 0;
};

/// The algorithmic profiler. Attach to an Interpreter run via the
/// ExecutionListener interface; repeated runs accumulate into the same
/// repetition tree (the paper profiles *sets* of executions).
class AlgoProfiler : public vm::ExecutionListener {
public:
  AlgoProfiler(const vm::PreparedProgram &P, ProfileOptions Opts);
  ~AlgoProfiler() override;

  RepetitionTree &tree() { return Tree; }
  const RepetitionTree &tree() const { return Tree; }
  InputTable &inputs() { return Inputs; }
  const InputTable &inputs() const { return Inputs; }
  const ProfileOptions &options() const { return Opts; }

  // ExecutionListener implementation.
  void onProgramStart(const vm::ExecContext &Ctx) override;
  void onProgramEnd() override;
  void onMethodEnter(int32_t MethodId) override;
  void onMethodExit(int32_t MethodId) override;
  void onLoopEnter(int32_t MethodId, int32_t LoopId) override;
  void onLoopBackEdge(int32_t MethodId, int32_t LoopId) override;
  void onLoopExit(int32_t MethodId, int32_t LoopId) override;
  void onGetField(vm::ObjId Obj, int32_t FieldId, vm::Value V) override;
  void onPutField(vm::ObjId Obj, int32_t FieldId, vm::Value New) override;
  void onArrayLoad(vm::ObjId Arr, int64_t Index, vm::Value V) override;
  void onArrayStore(vm::ObjId Arr, int64_t Index, vm::Value New) override;
  void onNewObject(vm::ObjId Obj, int32_t ClassId) override;
  void onNewArray(vm::ObjId Arr, bc::TypeId ArrayType,
                  int64_t Len) override;
  void onInputRead() override;
  void onOutputWrite() override;

private:
  /// Unsorted (key, value) slots, one per key. A lookup first tries the
  /// caller's hint (the slot it hit last), then scans while the table is
  /// small, then a hash index built once it is not.
  template <typename K, typename V, typename Hash> class SlotTable {
  public:
    using Slot = std::pair<K, V>;

    /// The value of \p Key, appended value-initialized (and \p Inserted
    /// set) when missing. Leaves \p Hint at the slot.
    V &at(const K &Key, uint32_t &Hint, bool *Inserted = nullptr) {
      if (Hint >= Slots.size() || !(Slots[Hint].first == Key))
        Hint = slotOf(Key, Inserted);
      return Slots[Hint].second;
    }

    /// Sorts the slots by key and returns them. Later lookups stay
    /// correct (they rebuild the index) but are meant to follow clear().
    std::vector<Slot> &sortByKey() {
      std::sort(Slots.begin(), Slots.end(),
                [](const Slot &A, const Slot &B) { return A.first < B.first; });
      if (!Index.empty())
        Index.clear();
      return Slots;
    }

    void clear() {
      Slots.clear();
      if (!Index.empty())
        Index.clear();
    }

  private:
    static constexpr size_t MaxScanned = 16;

    uint32_t slotOf(const K &Key, bool *Inserted) {
      if (!Index.empty()) {
        auto [It, New] =
            Index.try_emplace(Key, static_cast<uint32_t>(Slots.size()));
        if (New)
          Slots.push_back({Key, V()});
        if (Inserted)
          *Inserted = New;
        return It->second;
      }
      for (uint32_t I = 0; I < Slots.size(); ++I)
        if (Slots[I].first == Key)
          return I;
      Slots.push_back({Key, V()});
      if (Inserted)
        *Inserted = true;
      if (Slots.size() > MaxScanned)
        for (uint32_t I = 0; I < Slots.size(); ++I)
          Index.emplace(Slots[I].first, I);
      return static_cast<uint32_t>(Slots.size() - 1);
    }

    std::vector<Slot> Slots;
    std::unordered_map<K, uint32_t, Hash> Index;
  };

  struct CostKeyHash {
    size_t operator()(const CostKey &K) const {
      uint64_t H = static_cast<uint32_t>(K.InputId);
      H = H * 0x9E3779B97F4A7C15ull + static_cast<uint32_t>(K.TypeId);
      H = H * 0x9E3779B97F4A7C15ull + static_cast<uint8_t>(K.Kind);
      return static_cast<size_t>(H ^ (H >> 29));
    }
  };

  struct LiveUse {
    vm::ObjId LastRef = vm::NullObj;
    InputUse Use;
  };

  /// One live invocation of a repetition. Folded recursive re-entries
  /// share the activation of the recursion header. Activations are
  /// pooled: a finished one is reset and reused by the next push.
  struct Activation {
    RepetitionNode *Node = nullptr;
    int32_t InvocationIndex = -1; ///< -1 when sampled out.
    /// This invocation's own costs, sorted into the node's cost column
    /// at finalize.
    /// Structure accesses count only the per-type GET/PUT key; the
    /// input-level key is derived from those at finalize.
    SlotTable<CostKey, int64_t, CostKeyHash> Costs;
    std::array<uint32_t, NumCostKinds> LastCost{}; ///< Hint per kind.
    /// Costs inherited from sampled-out child invocations.
    CostMap FoldedCosts;
    /// Raw input id -> live use, visited in id order at finalize.
    SlotTable<int32_t, LiveUse, std::hash<int32_t>> Inputs;
    uint32_t LastInput = 0; ///< Hint into Inputs.
    int RecursionDepth = 0;

    void addCost(CostKey Key) {
      ++Costs.at(Key, LastCost[static_cast<size_t>(Key.Kind)]);
    }
    void reset(RepetitionNode &N);
  };

  struct StackEntry {
    Activation *A = nullptr;
    bool Owner = false;
  };

  Activation &top();
  Activation &pushOwnedActivation(RepetitionNode &Node);
  void finalizeTop();
  /// Pops the owning stack entry of \p A and returns \p A to the pool.
  void popOwned(Activation &A);
  void touchInput(Activation &A, int32_t Input, vm::ObjId Ref);
  /// Touch for stream pseudo-inputs: size comes from the I/O channels,
  /// not from heap traversal.
  void touchStream(Activation &A, int32_t Input, int64_t Size);
  SizeMeasures measureInput(int32_t Input, vm::ObjId Ref);
  void recordStructureAccess(vm::ObjId Obj, vm::Value Other,
                             CostKind Kind);
  void recordArrayAccess(vm::ObjId Arr, CostKind Kind, vm::Value Elem);
  /// The child of the top activation's node with key \p Key, created
  /// (and named) on first use.
  RepetitionNode &childOfTop(const RepKey &Key);

  const vm::PreparedProgram &P;
  ProfileOptions Opts;
  RepetitionTree Tree;
  InputTable Inputs;
  const vm::IoChannels *Io = nullptr;

  std::vector<StackEntry> Stack;
  /// Owning activations: the first NumOwned are live, in push order; the
  /// rest are finished ones kept for reuse.
  std::vector<std::unique_ptr<Activation>> OwnerPool;
  size_t NumOwned = 0;
  /// Hot callbacks delivered this run; added to obs::Counter::
  /// ListenerEvents once, in onProgramEnd.
  uint64_t ListenerEvents = 0;
};

} // namespace prof
} // namespace algoprof

#endif // ALGOPROF_CORE_ALGOPROFILER_H
