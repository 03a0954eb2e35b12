//===- core/InputTable.h - Input identification and sizing ------*- C++-*-===//
///
/// \file
/// Implements the paper's input machinery (Sec. 2.3–2.4, 3.4): discovery
/// of the recursive structures and arrays an algorithm accesses, snapshot
/// traversal, the four snapshot-equivalence criteria, and the size
/// measures (object count per type, traversed array references, array
/// capacity, unique element count).
///
/// Identity of evolving structures is kept with a union-find over input
/// ids plus an object->input membership map. Under the default
/// SomeElements criterion the membership map allows an O(1) fast path on
/// most accesses: a full snapshot traversal is only needed when an access
/// touches objects not yet attributed to any input — exactly the paper's
/// first-access / exit-remeasure optimization.
///
/// Eager sizing measures every touched input twice per invocation (paper
/// Sec. 3.4: first access and exit). A measurement reuses the last
/// structure traversal when it provably equals a fresh one (see
/// measureFrom), and the traversals it does take allocate and hash
/// nothing per visited object:
///  - Dense owner map. Heap ids are dense across a session (a heap
///    recycled between runs keeps its id space), so ObjToInput is a
///    vector indexed by object id, -1 for unattributed. It costs 4
///    bytes per object id up to the highest attributed id. Only tables
///    that identify against a live heap fill it; a sweep's merged table
///    holds no object ids at all.
///  - Generation-stamped marks. A traversal marks visited objects in a
///    reused vector indexed by id minus the heap's first live id,
///    stamping each mark with a per-traversal generation instead of
///    clearing the vector; the BFS worklist and visited lists are
///    reused buffers too.
///
/// AllElements (S1 ≡ S2) re-identifies on every access, and keeps that
/// exact without scanning the inputs:
///  - Owner map. An object joins an input's Members only at its first
///    assign, and AllElements never merges inputs, so Members sets are
///    disjoint and ObjToInput names each object's one owner. A snapshot
///    can only equal the owner of its start object (structures) or of
///    its first non-null element (reference arrays).
///  - Value index. Primitive-array inputs are indexed by element type,
///    value-set size and an order-independent hash of the value set; a
///    lookup verifies exact equality and takes the lowest matching id,
///    as an id-order scan would.
///  - Heap-write epoch. A counter bumped by every hooked field store
///    (the link fields traversals follow), every array store and every
///    run start. Traversals are memoized per start object while the
///    epoch is unchanged, so accesses with no write in between share
///    one traversal. The memo's size is bounded (see snapshotAt).
///
/// The other strategies keep one memo entry: the last structure
/// traversal, with its epoch, mark generation, start object, input and
/// sizes. A traversal is *closed* when every BFS tree edge u->v has a
/// link back v->u; then every visited object reaches the start, so a
/// traversal from any of them visits the same set and finds the same
/// ObjectCount and RefCount. measureFrom reuses the entry while the
/// epoch holds, for its start object and, when closed, for any object
/// its marks still name. A per-input dirty flag would not be exact
/// here: a snapshot depends on its start reference (a singly linked
/// list measured from an interior node reaches only the suffix).
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_CORE_INPUTTABLE_H
#define ALGOPROF_CORE_INPUTTABLE_H

#include "analysis/RecursiveTypes.h"
#include "bytecode/Module.h"
#include "vm/Heap.h"
#include "vm/Value.h"

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace algoprof {
namespace prof {

/// The paper's snapshot-equivalence criteria (Sec. 2.4).
enum class EquivalenceStrategy {
  SomeElements, ///< S1 ∩ S2 ≠ ∅ (AlgoProf's default).
  AllElements,  ///< S1 ≡ S2.
  SameArray,    ///< Identical array object (arrays only).
  SameType,     ///< Same structure/element type.
};

const char *equivalenceStrategyName(EquivalenceStrategy S);

/// Which array size measure is the primary one (Sec. 3.4).
enum class ArraySizeMeasure { UniqueElements, Capacity };

/// All size measures taken by one snapshot.
struct SizeMeasures {
  int64_t ObjectCount = 0; ///< Structure objects reached.
  int64_t RefCount = 0;    ///< Non-null refs traversed through arrays.
  int64_t Capacity = 0;    ///< Array capacity.
  int64_t UniqueElems = 0; ///< Array unique-element count.

  /// The input's headline size. Structure snapshots report their object
  /// count; array snapshots the configured array measure. Inputs that
  /// merged arrays with the structures they hold (e.g. a Vertex[]
  /// registry of a linked graph) may be measured from either side — the
  /// object count wins whenever objects were reached.
  int64_t primary(ArraySizeMeasure M) const {
    if (ObjectCount > 0)
      return ObjectCount;
    return M == ArraySizeMeasure::Capacity ? Capacity : UniqueElems;
  }
};

/// One identified input (a recursive structure, an array, or an
/// external stream).
struct InputInfo {
  int32_t Id = -1;
  bool IsArray = false;
  /// An external input/output stream (paper Sec. 2.3 "Program
  /// Inputs/Outputs"); sized by the profiler from the I/O channels, not
  /// by heap traversal.
  bool IsStream = false;
  /// Structures: the type-graph SCC of the structure's classes.
  /// Arrays: the element TypeId.
  int32_t TypeKey = -1;
  std::string Label;
  bool Alive = true; ///< False once merged into another input.

  /// AllElements identification only: the object ids attributed to
  /// this input (structures and ref arrays), which the set-equality
  /// test compares against. The other strategies identify through the
  /// owner map and leave it empty, and so does a merged table.
  std::unordered_set<int64_t> Members;
  /// Distinct non-default element values (primitive arrays; identity).
  std::unordered_set<int64_t> ValueSet;
  /// Non-default values observed at *identification time* — the array
  /// contents the SomeElements overlap test actually saw when an
  /// unattributed array was snapshotted. A later sweep merge replays
  /// exactly those comparisons against earlier runs' final value sets,
  /// which is what a serial multi-run session would have compared
  /// against (earlier runs are complete when a later run identifies).
  /// Read from the shard side of a merge; a merged table does not
  /// collect them.
  std::unordered_set<int64_t> SeedValues;
  /// Member objects per class id (classification + tracked sizing).
  std::map<int32_t, int64_t> MemberClassCounts;
  /// Largest capacity seen across the input's backing arrays.
  int64_t MaxCapacitySeen = 0;

  /// Per-run measurement state (SnapshotMode::Tracked). Identification
  /// state above is cumulative across a session's runs — later runs
  /// must compare against everything earlier runs saw — but sizing is
  /// not: every run processes its own heap, so tracked sizes read these
  /// run-scoped counters, which InputTable::beginRun resets. Without
  /// the split, an input unified across runs (e.g. under SameType)
  /// would report earlier runs' sizes for later runs' repetitions. A
  /// merged table never measures, so it leaves them at zero.
  int64_t RunMemberCount = 0;
  std::unordered_set<int64_t> RunValueSet;
  std::map<int32_t, int64_t> RunMemberClassCounts;
  int64_t RunMaxCapacitySeen = 0;
};

/// Registry of all inputs discovered during profiled execution.
class InputTable {
public:
  InputTable(const bc::Module &M, const analysis::RecursiveTypes &RT,
             EquivalenceStrategy Strategy)
      : M(M), RT(RT), Strategy(Strategy) {}

  void setHeap(vm::Heap *Heap) { H = Heap; }
  vm::Heap *heap() const { return H; }
  EquivalenceStrategy strategy() const { return Strategy; }

  /// Canonical id after merges.
  int32_t canonical(int32_t Id) const;

  /// Canonical input of \p Obj, or -1 when unattributed. Under
  /// AllElements this is the object's owner: the input it joined first.
  int32_t inputOf(vm::ObjId Obj) const;

  /// Identification at a recursive-link field access on \p Obj whose
  /// other end (read or written value) is \p Other. Returns the canonical
  /// input id. May traverse (first access of an unknown structure).
  int32_t onStructureAccess(vm::ObjId Obj, vm::Value Other);

  /// Identification at an array access.
  int32_t onArrayAccess(vm::ObjId Arr);

  /// The lazily created pseudo-input for the external input or output
  /// stream (paper Sec. 2.3: streams and file handles are inputs too).
  int32_t externalStreamInput(bool IsInputStream);

  /// Records the stored value for array-identity tracking and membership
  /// (ref elements join the array's input).
  void onArrayStoreValue(int32_t Input, vm::ObjId Arr, vm::Value V);

  /// Full snapshot from \p Ref attributed to input \p Input; refreshes
  /// membership (SomeElements) and returns the measures. \p Ref may be
  /// any object previously attributed to the input. A structure
  /// snapshot reuses the last structure traversal's sizes, without
  /// traversing, when all of these hold: no heap write or run start
  /// since (the epoch) and the same heap id base; that traversal's
  /// input is \p Input (so refreshing membership would change
  /// nothing); and \p Ref is its start object, or the traversal was
  /// closed and visited \p Ref.
  SizeMeasures measureFrom(vm::ObjId Ref, int32_t Input);

  /// O(1) approximate size from tracked membership (no traversal); used
  /// by SnapshotMode::Tracked. Reads the run-scoped counters, so sizes
  /// describe the current run's heap even when the input is shared
  /// across runs.
  SizeMeasures trackedMeasures(int32_t Input) const;

  /// Marks a run boundary: resets every input's run-scoped measurement
  /// counters (InputInfo::Run*) and starts a new heap-write epoch.
  /// Identification state is untouched. Called by the profiler at
  /// program start.
  void beginRun();

  /// Marks a heap write that can change a traversal: a hooked field
  /// store or an array store. The VM reports the event after the store,
  /// so the profiler calls this before the event's identification.
  void noteHeapWrite() { ++HeapEpoch; }

  /// Folds a completed shard table \p Other into this one, replaying the
  /// identification decisions a serial multi-run session would have made
  /// when \p Other's run executed after everything already merged here:
  ///  - stream pseudo-inputs unify with this table's stream inputs;
  ///  - under SameType, inputs unify with the first live input of the
  ///    same kind and type key;
  ///  - under SomeElements, primitive arrays unify with pre-existing
  ///    inputs whose pre-merge value sets overlap the shard input's
  ///    identification-time values (InputInfo::SeedValues);
  ///  - everything else stays a distinct input, preserving the shard's
  ///    creation order, so input ids match the serial session's.
  /// Only the state later merges and the profile back half read moves
  /// over: value sets, member class counts and capacities. A table that
  /// merges never identifies or measures, so the shard's object ids
  /// (Members, owner map), SeedValues and run-scoped counters stay
  /// behind. Returns the remap from every \p Other input id (dead ones
  /// included) to its canonical id in this table. Exactness caveat:
  /// AllElements cross-run equivalence is not replayed (see
  /// docs/parallel_sweeps.md).
  std::vector<int32_t> merge(const InputTable &Other);

  const InputInfo &info(int32_t Id) const {
    return Inputs[static_cast<size_t>(canonical(Id))];
  }

  /// Ids of all live (unmerged) inputs, ascending.
  std::vector<int32_t> liveInputs() const;

  /// Like liveInputs, but only heap inputs (structures and arrays),
  /// excluding the external-stream pseudo-inputs.
  std::vector<int32_t> liveHeapInputs() const;

  int numInputsEverCreated() const {
    return static_cast<int>(Inputs.size());
  }

  /// Number of traversals taken (overhead accounting). A reused
  /// snapshot counts zero traversals: a memoized AllElements snapshot
  /// counts once, however often it is reused, and so does a structure
  /// traversal that measureFrom reuses.
  int64_t snapshotsTaken() const { return Snapshots; }

private:
  int32_t newInput(bool IsArray, int32_t TypeKey, std::string Label);
  int32_t merge(int32_t A, int32_t B);
  void assign(vm::ObjId Obj, int32_t Input, int32_t ClassId);
  InputInfo &infoMut(int32_t Id) {
    return Inputs[static_cast<size_t>(canonical(Id))];
  }

  /// The input \p Obj was assigned to (not canonicalized), or -1.
  int32_t ownerOf(vm::ObjId Obj) const {
    return static_cast<size_t>(Obj) < ObjToInput.size()
               ? ObjToInput[static_cast<size_t>(Obj)]
               : -1;
  }

  /// \p Obj's ObjToInput entry, growing the map to hold it.
  int32_t &ownerSlot(vm::ObjId Obj);

  /// Starts a traversal: a fresh mark generation covering every live
  /// heap object, and an empty worklist.
  void beginTraversal();
  /// Marks \p Obj visited by the current traversal; false if it was.
  bool mark(vm::ObjId Obj) {
    uint32_t &Stamp = Marks[static_cast<size_t>(Obj - MarkBase)];
    if (Stamp == MarkGen)
      return false;
    Stamp = MarkGen;
    return true;
  }

  /// BFS over recursive links and arrays from \p Start (a class
  /// instance); sets \p Visited to the (objId, classId-or-minus-1 for
  /// arrays) pairs in visit order. Under strategies other than
  /// AllElements it also becomes the Last entry, with no input yet.
  SizeMeasures
  traverseStructure(vm::ObjId Start,
                    std::vector<std::pair<vm::ObjId, int32_t>> &Visited);

  /// traverseStructure's BFS. With \p Certify it also clears \p Closed
  /// unless every object but \p Start links back to the object it was
  /// reached from (the closedness certificate, see the file comment).
  template <bool Certify>
  SizeMeasures
  structureBfs(vm::ObjId Start,
               std::vector<std::pair<vm::ObjId, int32_t>> &Visited,
               bool &Closed);

  /// Whether measuring input \p Input from \p Ref may return Last's
  /// sizes (see measureFrom).
  bool reusesLast(vm::ObjId Ref, int32_t Input) const;

  SizeMeasures measureArrayObject(vm::ObjId Arr);

  /// How many of an input's members are arrays (backing storage rather
  /// than structure elements).
  int64_t countArrayMembers(const InputInfo &Info) const;

  int32_t identifyStructureSnapshot(vm::ObjId Start);
  int32_t identifyArraySnapshot(vm::ObjId Arr);

  /// AllElements: the input whose members are exactly \p Arr's non-null
  /// elements, or -1.
  int32_t equalRefArrayInput(const vm::HeapObject &Arr,
                             bc::TypeId ElemType) const;
  /// AllElements: the lowest-id input whose value set is exactly \p
  /// Values, or -1.
  int32_t equalValueArrayInput(const std::unordered_set<int64_t> &Values,
                               bc::TypeId ElemType) const;

  /// Inserts \p V into input \p Id's ValueSet; under AllElements also
  /// moves the input to its new value-index key.
  void insertValue(int32_t Id, int64_t V);
  void indexValues(int32_t Id);
  void unindexValues(int32_t Id);

  /// AllElements: one traversal from a start object — the structure
  /// BFS (Visited plus sizes) from a class instance, the array
  /// measurement from an array.
  struct Snapshot {
    std::vector<std::pair<vm::ObjId, int32_t>> Visited;
    SizeMeasures Sizes;
  };
  /// AllElements: the traversal from \p Start, taken at most once per
  /// heap-write epoch.
  const Snapshot &snapshotAt(vm::ObjId Start);

  const bc::Module &M;
  const analysis::RecursiveTypes &RT;
  EquivalenceStrategy Strategy;
  vm::Heap *H = nullptr;

  std::vector<InputInfo> Inputs;
  std::vector<int32_t> Parent; ///< Union-find over input ids.
  int32_t InputStreamId = -1;
  int32_t OutputStreamId = -1;
  /// Object id -> the input it was assigned to, -1 for unattributed.
  std::vector<int32_t> ObjToInput;
  int64_t Snapshots = 0;

  // Traversal scratch, reused by every snapshot (see the file comment).
  std::vector<uint32_t> Marks; ///< Per live object: last visit's MarkGen.
  uint32_t MarkGen = 0;        ///< The current traversal's generation.
  vm::ObjId MarkBase = 0;      ///< The heap id Marks[0] stands for.
  std::vector<vm::ObjId> Work; ///< BFS worklist; WorkHead is its front.
  size_t WorkHead = 0;
  /// Per Work entry: the object it was reached from (structure
  /// traversals while they are still closed).
  std::vector<vm::ObjId> WorkFrom;
  std::vector<std::pair<vm::ObjId, int32_t>> VisitedScratch;
  std::vector<int64_t> LevelValues; ///< One array level's element values.

  uint64_t HeapEpoch = 0; ///< See noteHeapWrite.

  /// Every other strategy: the last structure traversal (see the file
  /// comment and measureFrom).
  struct LastTraversal {
    uint64_t Epoch = 0;
    vm::ObjId Base = 0; ///< The heap id its marks are relative to.
    uint32_t Gen = 0;   ///< Its mark generation; 0 when there is none.
    vm::ObjId Start = vm::NullObj;
    int32_t Input = -1; ///< The input it was attributed to; -1 if none.
    bool Closed = false;
    SizeMeasures Sizes;
  };
  LastTraversal Last;

  // AllElements only (see the file comment).
  uint64_t MemoEpoch = 0; ///< The epoch Memo's traversals belong to.
  std::unordered_map<int64_t, Snapshot> Memo;
  size_t MemoEntries = 0; ///< Starts plus visited objects held in Memo.
  std::vector<uint64_t> ValueHash; ///< Per input id: hash of its ValueSet.
  /// Value-index key -> primitive-array input ids.
  std::unordered_map<uint64_t, std::vector<int32_t>> ValueIndex;
};

} // namespace prof
} // namespace algoprof

#endif // ALGOPROF_CORE_INPUTTABLE_H
