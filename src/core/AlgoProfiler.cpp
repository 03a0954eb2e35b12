//===- core/AlgoProfiler.cpp ----------------------------------------------===//

#include "core/AlgoProfiler.h"

#include "obs/Obs.h"

#include <algorithm>
#include <cassert>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::vm;

const char *algoprof::prof::snapshotModeName(SnapshotMode Mode) {
  return Mode == SnapshotMode::Eager ? "Eager" : "Tracked";
}

AlgoProfiler::AlgoProfiler(const PreparedProgram &P, ProfileOptions Opts)
    : P(P), Opts(Opts), Inputs(*P.M, P.RecTypes, Opts.Equivalence) {}

AlgoProfiler::~AlgoProfiler() = default;

//===----------------------------------------------------------------------===//
// Activation management
//===----------------------------------------------------------------------===//

namespace {

bool isStructAccess(CostKind K) {
  return K == CostKind::StructGet || K == CostKind::StructPut;
}

/// Appends the costs in \p Slots (sorted, one per key) to \p Out.
/// Structure accesses were counted only per type; each input-level
/// GET/PUT entry is the sum of that input's per-type entries, which
/// directly precede it in key order.
void appendSortedCosts(const std::vector<CostEntry> &Slots,
                       std::vector<CostEntry> &Out) {
  size_t InputLevel = 0;
  for (size_t I = 0; I < Slots.size(); ++I) {
    const auto &[Key, N] = Slots[I];
    if (isStructAccess(Key.Kind)) {
      assert(Key.TypeId >= 0 && "structure access counted without a type");
      if (I == 0 || Slots[I - 1].first.Kind != Key.Kind ||
          Slots[I - 1].first.InputId != Key.InputId) {
        InputLevel = Out.size();
        Out.push_back({{Key.Kind, Key.InputId, -1}, 0});
      }
      Out[InputLevel].second += N;
    }
    Out.push_back({Key, N});
  }
}

/// Canonicalizes the cost entries \p Column holds from \p Begin on,
/// drops the ones that folded away, and returns their range.
template <typename Fn>
ColumnRange closeCostRange(std::vector<CostEntry> &Column, size_t Begin,
                           Fn Canonical) {
  Column.resize(Begin + canonicalizeCostInputs(
                            std::span(Column).subspan(Begin), Canonical));
  return ColumnRange::between(Begin, Column.size());
}

} // namespace

void AlgoProfiler::Activation::reset(RepetitionNode &N) {
  Node = &N;
  InvocationIndex = -1;
  Costs.clear();
  LastCost.fill(0);
  FoldedCosts = CostMap();
  Inputs.clear();
  LastInput = 0;
  RecursionDepth = 0;
}

AlgoProfiler::Activation &AlgoProfiler::top() {
  assert(!Stack.empty() && "no active repetition (program not started?)");
  return *Stack.back().A;
}

AlgoProfiler::Activation &
AlgoProfiler::pushOwnedActivation(RepetitionNode &Node) {
  if (NumOwned == OwnerPool.size())
    OwnerPool.push_back(std::make_unique<Activation>());
  Activation *A = OwnerPool[NumOwned++].get();
  A->reset(Node);

  // Invocation sampling (paper Sec. 3.3): past the dense prefix, the
  // recording stride doubles for every further SampleThreshold records.
  // The program root is never sampled out: it anchors the fold-up chain.
  int64_t Total = Node.TotalInvocations++;
  bool Record = true;
  if (Opts.SampleThreshold > 0 && Node.Key.Kind != RepKind::Root) {
    int64_t Recorded = static_cast<int64_t>(Node.History.size());
    if (Recorded >= Opts.SampleThreshold) {
      int64_t Shift =
          std::min<int64_t>(62, Recorded / Opts.SampleThreshold);
      int64_t Stride = static_cast<int64_t>(1) << Shift;
      Record = Total % Stride == 0;
    }
  }

  if (Record) {
    // Pre-assign the history slot; nested same-node activations finalize
    // in LIFO order, so the slot must be reserved at start.
    A->InvocationIndex = static_cast<int32_t>(Node.History.size());
    Node.History.emplace_back();
    if (!Stack.empty()) {
      Activation &Parent = top();
      InvocationRecord &R =
          Node.History[static_cast<size_t>(A->InvocationIndex)];
      R.ParentNode = Parent.Node;
      R.ParentInvocation = Parent.InvocationIndex;
    }
  } else {
    A->InvocationIndex = -1;
  }
  Stack.push_back({A, /*Owner=*/true});
  return *A;
}

void AlgoProfiler::finalizeTop() {
  assert(!Stack.empty() && Stack.back().Owner &&
         "finalize requires the owning stack entry on top");
  Activation &A = *Stack.back().A;
  if (A.InvocationIndex < 0) {
    // Sampled-out invocation: fold its costs (own + inherited) and its
    // input observations into the parent activation so combined costs
    // of recorded ancestors stay exact; only the per-invocation data
    // point is lost.
    assert(Stack.size() >= 2 && "sampled activation without a parent");
    Activation &Parent = *Stack[Stack.size() - 2].A;
    std::vector<CostEntry> Own;
    appendSortedCosts(A.Costs.sortByKey(), Own);
    Parent.FoldedCosts.merge(CostSpan(Own));
    Parent.FoldedCosts.merge(A.FoldedCosts);
    for (const auto &[Input, Live] : A.Inputs.sortByKey()) {
      bool New = false;
      LiveUse &Folded = Parent.Inputs.at(Input, Parent.LastInput, &New);
      if (New) {
        Folded.LastRef = vm::NullObj; // Remeasure via tracked counts.
        Folded.Use = Live.Use;
      } else {
        Folded.Use.mergeMax(Live.Use);
      }
    }
    popOwned(A);
    return;
  }
  InvocationRecord &R =
      A.Node->History[static_cast<size_t>(A.InvocationIndex)];

  // remeasureInputs (paper Sec. 3.4): second snapshot from the last
  // accessed reference of every touched input. Stream pseudo-inputs are
  // sized at each read/write, not by traversal.
  auto &LiveInputs = A.Inputs.sortByKey();
  for (auto &[Input, Live] : LiveInputs) {
    if (Inputs.info(Input).IsStream)
      continue;
    SizeMeasures Sizes = measureInput(Input, Live.LastRef);
    Live.Use.observe(Sizes.primary(Opts.ArrayMeasure), Sizes.Capacity,
                     Sizes.UniqueElems, Sizes.RefCount);
  }

  // Append the record's ranges to its node's columns, collapsing inputs
  // that were merged during the invocation.
  auto Canonical = [this](int32_t Id) { return Inputs.canonical(Id); };
  std::vector<CostEntry> &Costs = A.Node->CostColumn;
  size_t Begin = Costs.size();
  appendSortedCosts(A.Costs.sortByKey(), Costs);
  R.Costs = closeCostRange(Costs, Begin, Canonical);
  Begin = Costs.size();
  Costs.insert(Costs.end(), A.FoldedCosts.entries().begin(),
               A.FoldedCosts.entries().end());
  R.FoldedCosts = closeCostRange(Costs, Begin, Canonical);
  std::vector<UseEntry> &Uses = A.Node->UseColumn;
  Begin = Uses.size();
  for (const auto &[Input, Live] : LiveInputs)
    Uses.emplace_back(Inputs.canonical(Input), Live.Use);
  Uses.resize(Begin + sortAndFoldUses(std::span(Uses).subspan(Begin)));
  R.Inputs = ColumnRange::between(Begin, Uses.size());
  R.Finalized = true;
  popOwned(A);
}

void AlgoProfiler::popOwned(Activation &A) {
  Stack.pop_back();
  assert(NumOwned > 0 && OwnerPool[NumOwned - 1].get() == &A &&
         "owner pool out of sync with the shadow stack");
  (void)A;
  --NumOwned;
}

//===----------------------------------------------------------------------===//
// Input measuring
//===----------------------------------------------------------------------===//

SizeMeasures AlgoProfiler::measureInput(int32_t Input, ObjId Ref) {
  if (Opts.Snapshots == SnapshotMode::Tracked || Ref == NullObj)
    return Inputs.trackedMeasures(Input);
  return Inputs.measureFrom(Ref, Input);
}

void AlgoProfiler::touchInput(Activation &A, int32_t Input, ObjId Ref) {
  bool First = false;
  LiveUse &Live = A.Inputs.at(Input, A.LastInput, &First);
  Live.LastRef = Ref;
  if (First) {
    // First access of this input in this invocation: first snapshot.
    SizeMeasures Sizes = measureInput(Input, Ref);
    Live.Use.observe(Sizes.primary(Opts.ArrayMeasure), Sizes.Capacity,
                     Sizes.UniqueElems, Sizes.RefCount);
  }
}

//===----------------------------------------------------------------------===//
// Program lifecycle
//===----------------------------------------------------------------------===//

void AlgoProfiler::onProgramStart(const ExecContext &Ctx) {
  Inputs.setHeap(Ctx.TheHeap);
  Io = Ctx.Io;
  // Each run sizes its own heap: tracked measurement counters reset
  // here, while identification state keeps accumulating across runs.
  Inputs.beginRun();
  pushOwnedActivation(Tree.root());
}

void AlgoProfiler::onProgramEnd() {
  obs::addCount(obs::Counter::ListenerEvents, ListenerEvents);
  ListenerEvents = 0;
  assert(Stack.size() == 1 && "unbalanced repetition events");
  finalizeTop();
}

//===----------------------------------------------------------------------===//
// Loops
//===----------------------------------------------------------------------===//

RepetitionNode &AlgoProfiler::childOfTop(const RepKey &Key) {
  RepetitionNode &Parent = *top().Node;
  if (RepetitionNode *Existing = Parent.findChild(Key))
    return *Existing;
  // The name is built only here, once per node.
  const bc::MethodInfo &M = P.M->Methods[static_cast<size_t>(Key.MethodId)];
  std::string Name = Key.Kind == RepKind::Loop
                         ? M.QualifiedName + " loop#" +
                               std::to_string(Key.LoopId)
                         : M.QualifiedName + " (recursion)";
  return Tree.addChild(Parent, Key, std::move(Name));
}

void AlgoProfiler::onLoopEnter(int32_t MethodId, int32_t LoopId) {
  pushOwnedActivation(childOfTop(RepKey{RepKind::Loop, MethodId, LoopId}));
}

void AlgoProfiler::onLoopBackEdge(int32_t MethodId, int32_t LoopId) {
  ++ListenerEvents;
  Activation &A = top();
  assert((A.Node->Key ==
          RepKey{RepKind::Loop, MethodId, LoopId}) &&
         "back edge fired while another repetition is on top");
  (void)MethodId;
  (void)LoopId;
  A.addCost({CostKind::Step, -1, -1});
}

void AlgoProfiler::onLoopExit(int32_t MethodId, int32_t LoopId) {
  assert((top().Node->Key == RepKey{RepKind::Loop, MethodId, LoopId}) &&
         "loop exit fired while another repetition is on top");
  (void)MethodId;
  (void)LoopId;
  finalizeTop();
}

//===----------------------------------------------------------------------===//
// Recursions
//===----------------------------------------------------------------------===//

void AlgoProfiler::onMethodEnter(int32_t MethodId) {
  ++ListenerEvents;
  // findOnPathToRoot: fold a re-entry of an active recursion onto its
  // existing node (paper Sec. 3.2, Method entry).
  RepetitionNode *Found = nullptr;
  for (RepetitionNode *N = top().Node; N && N->Key.Kind != RepKind::Root;
       N = N->Parent) {
    if (N->Key.Kind == RepKind::Recursion && N->Key.MethodId == MethodId) {
      Found = N;
      break;
    }
  }
  if (Found) {
    // Locate the live activation of the folded node (nearest below top).
    Activation *A = nullptr;
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
      if (It->A->Node == Found) {
        A = It->A;
        break;
      }
    assert(A && "folded node has no live activation");
    A->addCost({CostKind::Step, -1, -1});
    ++A->RecursionDepth;
    Stack.push_back({A, /*Owner=*/false});
    return;
  }

  Activation &A =
      pushOwnedActivation(childOfTop(RepKey{RepKind::Recursion, MethodId, -1}));
  A.RecursionDepth = 1;
}

void AlgoProfiler::onMethodExit(int32_t MethodId) {
  assert(!Stack.empty() && "method exit without entry");
  StackEntry Entry = Stack.back();
  assert(Entry.A->Node->Key.Kind == RepKind::Recursion &&
         Entry.A->Node->Key.MethodId == MethodId &&
         "method exit fired while another repetition is on top");
  (void)MethodId;
  --Entry.A->RecursionDepth;
  if (Entry.Owner) {
    assert(Entry.A->RecursionDepth == 0 &&
           "owner entry popped before folded re-entries");
    finalizeTop();
    return;
  }
  Stack.pop_back();
}

//===----------------------------------------------------------------------===//
// Structure, array, allocation, and I/O events
//===----------------------------------------------------------------------===//

void AlgoProfiler::recordStructureAccess(ObjId Obj, Value Other,
                                         CostKind Kind) {
  int32_t Input = Inputs.onStructureAccess(Obj, Other);
  Activation &A = top();
  // Only the per-element-type refinement (paper: cost{input, type,
  // GET/PUT}) is counted; finalizeTop derives cost{input, GET/PUT}.
  A.addCost({Kind, Input, Inputs.heap()->get(Obj).ClassId});
  touchInput(A, Input, Obj);
}

void AlgoProfiler::onGetField(ObjId Obj, int32_t FieldId, Value V) {
  ++ListenerEvents;
  (void)FieldId;
  recordStructureAccess(Obj, V, CostKind::StructGet);
}

void AlgoProfiler::onPutField(ObjId Obj, int32_t FieldId, Value New) {
  ++ListenerEvents;
  (void)FieldId;
  // The store has happened: no earlier traversal may be reused for it.
  Inputs.noteHeapWrite();
  recordStructureAccess(Obj, New, CostKind::StructPut);
}

void AlgoProfiler::recordArrayAccess(ObjId Arr, CostKind Kind,
                                     Value Elem) {
  int32_t Input = Inputs.onArrayAccess(Arr);
  Inputs.onArrayStoreValue(Input, Arr, Elem);
  Activation &A = top();
  A.addCost({Kind, Input, -1});
  touchInput(A, Input, Arr);
}

void AlgoProfiler::onArrayLoad(ObjId Arr, int64_t Index, Value V) {
  ++ListenerEvents;
  (void)Index;
  recordArrayAccess(Arr, CostKind::ArrayLoad, V);
}

void AlgoProfiler::onArrayStore(ObjId Arr, int64_t Index, Value New) {
  ++ListenerEvents;
  (void)Index;
  Inputs.noteHeapWrite();
  recordArrayAccess(Arr, CostKind::ArrayStore, New);
}

void AlgoProfiler::onNewObject(ObjId Obj, int32_t ClassId) {
  (void)Obj;
  top().addCost({CostKind::New, -1, ClassId});
}

void AlgoProfiler::onNewArray(ObjId Arr, bc::TypeId ArrayType, int64_t Len) {
  (void)Arr;
  (void)Len;
  top().addCost({CostKind::ArrayNew, -1, ArrayType});
}

void AlgoProfiler::touchStream(Activation &A, int32_t Input,
                               int64_t Size) {
  LiveUse &Live = A.Inputs.at(Input, A.LastInput);
  Live.LastRef = vm::NullObj;
  Live.Use.observe(Size, /*Capacity=*/0, /*Unique=*/0, /*Refs=*/0);
}

void AlgoProfiler::onInputRead() {
  Activation &A = top();
  // The external stream is an input too (paper Sec. 2.3); the cost is
  // keyed by it, like structure accesses, and its size is the total
  // data available on the channel ("the size of the file").
  int32_t Stream = Inputs.externalStreamInput(/*IsInputStream=*/true);
  A.addCost({CostKind::InputRead, Stream, -1});
  touchStream(A, Stream,
              Io ? static_cast<int64_t>(Io->Input.size()) : 0);
}

void AlgoProfiler::onOutputWrite() {
  Activation &A = top();
  int32_t Stream = Inputs.externalStreamInput(/*IsInputStream=*/false);
  A.addCost({CostKind::OutputWrite, Stream, -1});
  // The output's size is what has been produced so far; the max rule
  // turns this into the run's final output size.
  touchStream(A, Stream,
              Io ? static_cast<int64_t>(Io->Output.size()) : 0);
}
