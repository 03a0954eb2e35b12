//===- core/InputTable.cpp ------------------------------------------------===//

#include "core/InputTable.h"

#include "obs/Obs.h"

#include <algorithm>
#include <cassert>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::bc;
using namespace algoprof::vm;

const char *algoprof::prof::equivalenceStrategyName(EquivalenceStrategy S) {
  switch (S) {
  case EquivalenceStrategy::SomeElements:
    return "SomeElements";
  case EquivalenceStrategy::AllElements:
    return "AllElements";
  case EquivalenceStrategy::SameArray:
    return "SameArray";
  case EquivalenceStrategy::SameType:
    return "SameType";
  }
  return "<bad-strategy>";
}

//===----------------------------------------------------------------------===//
// Bookkeeping primitives
//===----------------------------------------------------------------------===//

/// Reference elements (class instances or sub-arrays) versus primitive
/// values.
static bool isRefType(const Module &M, TypeId T) {
  RtTypeKind K = M.Types[static_cast<size_t>(T)].Kind;
  return K == RtTypeKind::Class || K == RtTypeKind::Array;
}

/// One value's share of a value set's order-independent hash (the sum
/// over its members); splitmix64's finalizer.
static uint64_t mixValue(int64_t V) {
  uint64_t X = static_cast<uint64_t>(V) + 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// The value-index key of a value set of element type \p ElemType.
static uint64_t valueKey(TypeId ElemType, size_t Size, uint64_t Hash) {
  return Hash ^ mixValue((static_cast<int64_t>(ElemType) << 32) ^
                         static_cast<int64_t>(Size));
}

int32_t InputTable::canonical(int32_t Id) const {
  assert(Id >= 0 && Id < static_cast<int32_t>(Parent.size()));
  while (Parent[static_cast<size_t>(Id)] != Id)
    Id = Parent[static_cast<size_t>(Id)];
  return Id;
}

int32_t InputTable::inputOf(ObjId Obj) const {
  int32_t Owner = ownerOf(Obj);
  return Owner < 0 ? -1 : canonical(Owner);
}

int32_t &InputTable::ownerSlot(ObjId Obj) {
  size_t Idx = static_cast<size_t>(Obj);
  if (Idx >= ObjToInput.size())
    ObjToInput.resize(Idx + 1, -1);
  return ObjToInput[Idx];
}

int32_t InputTable::newInput(bool IsArray, int32_t TypeKey,
                             std::string Label) {
  InputInfo Info;
  Info.Id = static_cast<int32_t>(Inputs.size());
  Info.IsArray = IsArray;
  Info.TypeKey = TypeKey;
  Info.Label = std::move(Label);
  Inputs.push_back(std::move(Info));
  Parent.push_back(Inputs.back().Id);
  if (Strategy == EquivalenceStrategy::AllElements)
    ValueHash.push_back(0);
  return Inputs.back().Id;
}

int32_t InputTable::merge(int32_t A, int32_t B) {
  A = canonical(A);
  B = canonical(B);
  if (A == B)
    return A;
  // Keep the older id as the survivor: series and reports stay stable.
  if (B < A)
    std::swap(A, B);
  InputInfo &Winner = Inputs[static_cast<size_t>(A)];
  InputInfo &Loser = Inputs[static_cast<size_t>(B)];
  for (int64_t Obj : Loser.Members)
    Winner.Members.insert(Obj);
  for (int64_t V : Loser.ValueSet)
    Winner.ValueSet.insert(V);
  for (int64_t V : Loser.SeedValues)
    Winner.SeedValues.insert(V);
  for (const auto &[ClassId, N] : Loser.MemberClassCounts)
    Winner.MemberClassCounts[ClassId] += N;
  Winner.MaxCapacitySeen =
      std::max(Winner.MaxCapacitySeen, Loser.MaxCapacitySeen);
  Winner.RunMemberCount += Loser.RunMemberCount;
  for (int64_t V : Loser.RunValueSet)
    Winner.RunValueSet.insert(V);
  for (const auto &[ClassId, N] : Loser.RunMemberClassCounts)
    Winner.RunMemberClassCounts[ClassId] += N;
  Winner.RunMaxCapacitySeen =
      std::max(Winner.RunMaxCapacitySeen, Loser.RunMaxCapacitySeen);
  Loser.Alive = false;
  Loser.Members.clear();
  Loser.ValueSet.clear();
  Loser.SeedValues.clear();
  Loser.RunValueSet.clear();
  Loser.RunMemberClassCounts.clear();
  Parent[static_cast<size_t>(B)] = A;
  return A;
}

void InputTable::insertValue(int32_t Id, int64_t V) {
  InputInfo &Info = Inputs[static_cast<size_t>(Id)];
  if (Strategy != EquivalenceStrategy::AllElements) {
    Info.ValueSet.insert(V);
    return;
  }
  if (Info.ValueSet.count(V))
    return;
  unindexValues(Id);
  Info.ValueSet.insert(V);
  ValueHash[static_cast<size_t>(Id)] += mixValue(V);
  indexValues(Id);
}

void InputTable::indexValues(int32_t Id) {
  const InputInfo &Info = Inputs[static_cast<size_t>(Id)];
  ValueIndex[valueKey(Info.TypeKey, Info.ValueSet.size(),
                      ValueHash[static_cast<size_t>(Id)])]
      .push_back(Id);
}

void InputTable::unindexValues(int32_t Id) {
  const InputInfo &Info = Inputs[static_cast<size_t>(Id)];
  auto It = ValueIndex.find(valueKey(Info.TypeKey, Info.ValueSet.size(),
                                     ValueHash[static_cast<size_t>(Id)]));
  assert(It != ValueIndex.end() && "primitive-array input not indexed");
  std::vector<int32_t> &Ids = It->second;
  Ids.erase(std::find(Ids.begin(), Ids.end(), Id));
  if (Ids.empty())
    ValueIndex.erase(It);
}

void InputTable::assign(ObjId Obj, int32_t Input, int32_t ClassId) {
  Input = canonical(Input);
  int32_t &Owner = ownerSlot(Obj);
  if (Owner >= 0) {
    int32_t Cur = canonical(Owner);
    if (Cur == Input)
      return;
    // Under overlap-style identity, conflicting attribution means the
    // structures are the same input. Under SameType the map is only a
    // cache of the latest input (onArrayAccess reads it): re-point it.
    // Under AllElements it names the owner, the one input whose Members
    // holds the object: leave it.
    if (Strategy == EquivalenceStrategy::SomeElements ||
        Strategy == EquivalenceStrategy::SameArray)
      merge(Cur, Input);
    else if (Strategy == EquivalenceStrategy::SameType)
      Owner = Input;
    return;
  }
  Owner = Input;
  InputInfo &Info = Inputs[static_cast<size_t>(canonical(Input))];
  if (Strategy == EquivalenceStrategy::AllElements)
    Info.Members.insert(Obj);
  ++Info.RunMemberCount;
  if (ClassId >= 0) {
    ++Info.MemberClassCounts[ClassId];
    ++Info.RunMemberClassCounts[ClassId];
  }
}

std::vector<int32_t> InputTable::liveInputs() const {
  std::vector<int32_t> Ids;
  for (const InputInfo &Info : Inputs)
    if (Info.Alive)
      Ids.push_back(Info.Id);
  return Ids;
}

std::vector<int32_t> InputTable::liveHeapInputs() const {
  std::vector<int32_t> Ids;
  for (const InputInfo &Info : Inputs)
    if (Info.Alive && !Info.IsStream)
      Ids.push_back(Info.Id);
  return Ids;
}

//===----------------------------------------------------------------------===//
// Traversal
//===----------------------------------------------------------------------===//

void InputTable::beginTraversal() {
  assert(H && "heap not attached");
  MarkBase = H->numObjects() - H->numLiveObjects();
  size_t Live = static_cast<size_t>(H->numLiveObjects());
  if (Marks.size() < Live)
    Marks.resize(Live, 0);
  // Generation 0 never marks: it is what fresh and wrapped-over marks
  // hold.
  if (++MarkGen == 0) {
    std::fill(Marks.begin(), Marks.end(), 0);
    MarkGen = 1;
    Last.Gen = 0; // Its marks are gone.
  }
  Work.clear();
  WorkHead = 0;
}

template <bool Certify>
SizeMeasures
InputTable::structureBfs(ObjId Start,
                         std::vector<std::pair<ObjId, int32_t>> &Visited,
                         bool &Closed) {
  SizeMeasures Sizes;
  beginTraversal();
  Visited.clear();
  Work.push_back(Start);
  mark(Start);
  if constexpr (Certify) {
    WorkFrom.clear();
    WorkFrom.push_back(NullObj);
  }
  // Follows the edge Cur -> Next. Certifying, Back records whether the
  // edge leads back to From, the object Cur was reached from.
  auto Follow = [&](ObjId Cur, ObjId From, ObjId Next, bool &Back) {
    if constexpr (Certify)
      Back |= Next == From;
    if (!mark(Next))
      return;
    Work.push_back(Next);
    if constexpr (Certify)
      if (Closed)
        WorkFrom.push_back(Cur);
  };

  uint64_t Steps = 0;
  while (WorkHead < Work.size()) {
    ++Steps;
    ObjId From = Certify && Closed ? WorkFrom[WorkHead] : NullObj;
    ObjId Cur = Work[WorkHead++];
    bool Back = From == NullObj;
    const HeapObject &Obj = H->get(Cur);

    if (Obj.IsArray) {
      Visited.emplace_back(Cur, -1);
      for (const Value &Elem : Obj.Slots) {
        if (!Elem.IsRef || Elem.isNullRef())
          continue;
        ++Sizes.RefCount;
        Follow(Cur, From, Elem.ref(), Back);
      }
    } else {
      ++Sizes.ObjectCount;
      Visited.emplace_back(Cur, Obj.ClassId);
      const ClassInfo &C = M.Classes[static_cast<size_t>(Obj.ClassId)];
      for (size_t Slot = 0; Slot < C.FieldIds.size(); ++Slot) {
        if (!RT.isLinkField(C.FieldIds[Slot]))
          continue;
        const Value &V = Obj.Slots[Slot];
        if (V.IsRef && !V.isNullRef())
          Follow(Cur, From, V.ref(), Back);
      }
    }
    if constexpr (Certify)
      Closed &= Back;
  }
  obs::addCount(obs::Counter::TraversalSteps, Steps);
  return Sizes;
}

SizeMeasures InputTable::traverseStructure(
    ObjId Start, std::vector<std::pair<ObjId, int32_t>> &Visited) {
  ++Snapshots;
  // AllElements has its own memo: its traversals skip the certificate.
  bool Closed = true;
  if (Strategy == EquivalenceStrategy::AllElements)
    return structureBfs<false>(Start, Visited, Closed);
  SizeMeasures Sizes = structureBfs<true>(Start, Visited, Closed);
  Last = {HeapEpoch, MarkBase, MarkGen, Start, -1, Closed, Sizes};
  return Sizes;
}

bool InputTable::reusesLast(ObjId Ref, int32_t Input) const {
  if (Last.Gen == 0 || Last.Input < 0 || Last.Epoch != HeapEpoch ||
      Last.Base != H->numObjects() - H->numLiveObjects() ||
      canonical(Last.Input) != Input)
    return false;
  if (Ref == Last.Start)
    return true;
  // Last's marks still hold its generation exactly where it visited:
  // later traversals stamp newer generations, and a wrap clears Last.
  size_t Idx = static_cast<size_t>(Ref - Last.Base);
  return Last.Closed && Idx < Marks.size() && Marks[Idx] == Last.Gen;
}

SizeMeasures InputTable::measureArrayObject(ObjId Arr) {
  ++Snapshots;
  SizeMeasures Sizes;
  // Multi-dimensional arrays count all levels (paper Sec. 3.4: the
  // triangular int[][] example has size 3 + (0+1+2)). Sub-arrays are
  // visited once; the marks guard against reference cycles.
  beginTraversal();
  Work.push_back(Arr);
  mark(Arr);
  while (WorkHead < Work.size()) {
    const HeapObject &Obj = H->get(Work[WorkHead++]);
    Sizes.Capacity += static_cast<int64_t>(Obj.Slots.size());
    LevelValues.clear();
    for (const Value &V : Obj.Slots) {
      if (V.IsRef) {
        if (V.isNullRef())
          continue;
        if (H->get(V.ref()).IsArray && mark(V.ref()))
          Work.push_back(V.ref());
      }
      LevelValues.push_back(V.Bits);
    }
    std::sort(LevelValues.begin(), LevelValues.end());
    Sizes.UniqueElems += std::unique(LevelValues.begin(), LevelValues.end()) -
                         LevelValues.begin();
  }
  return Sizes;
}

/// The most entries (one per start object plus one per object visited)
/// the AllElements memo holds. A read-only walk over an n-node list
/// memoizes every suffix, about n²/2 entries; past this bound the memo
/// starts over, which costs traversals but never exactness.
static constexpr size_t MemoBudget = size_t(1) << 18;

const InputTable::Snapshot &InputTable::snapshotAt(ObjId Start) {
  if (MemoEpoch != HeapEpoch || MemoEntries > MemoBudget) {
    Memo.clear();
    MemoEntries = 0;
    MemoEpoch = HeapEpoch;
  }
  auto [It, Fresh] = Memo.try_emplace(Start);
  Snapshot &S = It->second;
  if (Fresh) {
    S.Sizes = H->get(Start).IsArray ? measureArrayObject(Start)
                                    : traverseStructure(Start, S.Visited);
    MemoEntries += 1 + S.Visited.size();
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Identification
//===----------------------------------------------------------------------===//

static std::string structureLabel(const Module &M, int32_t ClassId) {
  return M.Classes[static_cast<size_t>(ClassId)].Name +
         "-based recursive structure";
}

static std::string arrayLabel(const Module &M, TypeId ElemType) {
  return M.typeName(ElemType) + "[] array";
}

int32_t InputTable::identifyStructureSnapshot(ObjId Start) {
  if (Strategy != EquivalenceStrategy::AllElements)
    traverseStructure(Start, VisitedScratch);
  const std::vector<std::pair<ObjId, int32_t>> &Visited =
      Strategy == EquivalenceStrategy::AllElements ? snapshotAt(Start).Visited
                                                   : VisitedScratch;
  int32_t StartClass = H->get(Start).ClassId;
  int32_t TypeKey = RT.ClassScc[static_cast<size_t>(StartClass)];

  int32_t Target = -1;
  switch (Strategy) {
  case EquivalenceStrategy::SomeElements:
  case EquivalenceStrategy::SameArray: { // SameArray degrades to overlap
    // Any previously attributed member decides the input.
    for (const auto &[Obj, ClassId] : Visited) {
      (void)ClassId;
      int32_t Found = inputOf(Obj);
      if (Found >= 0)
        Target = Target < 0 ? Found : merge(Target, Found);
    }
    break;
  }
  case EquivalenceStrategy::AllElements: {
    // Exact set equality. Members sets are disjoint, so the only input
    // that can hold every visited object is the owner of Start.
    int32_t OwnerId = ownerOf(Start);
    if (OwnerId < 0)
      break;
    const InputInfo &Owner = Inputs[static_cast<size_t>(OwnerId)];
    if (Owner.Alive && !Owner.IsArray &&
        Owner.Members.size() == Visited.size() &&
        std::all_of(Visited.begin(), Visited.end(),
                    [&Owner](const std::pair<ObjId, int32_t> &V) {
                      return Owner.Members.count(V.first) != 0;
                    }))
      Target = Owner.Id;
    break;
  }
  case EquivalenceStrategy::SameType: {
    for (const InputInfo &Info : Inputs)
      if (Info.Alive && !Info.IsArray && Info.TypeKey == TypeKey) {
        Target = Info.Id;
        break;
      }
    break;
  }
  }

  if (Target < 0)
    Target = newInput(/*IsArray=*/false, TypeKey,
                      structureLabel(M, StartClass));
  for (const auto &[Obj, ClassId] : Visited)
    assign(Obj, Target, ClassId);
  if (Strategy != EquivalenceStrategy::AllElements)
    Last.Input = Target;
  return canonical(Target);
}

int32_t InputTable::identifyArraySnapshot(ObjId Arr) {
  const HeapObject &Obj = H->get(Arr);
  TypeId ElemType = M.Types[static_cast<size_t>(Obj.Type)].Elem;
  bool RefElems = isRefType(M, ElemType);

  int32_t Target = -1;
  switch (Strategy) {
  case EquivalenceStrategy::SameArray:
    // Identity of the array object itself; reallocation breaks it (the
    // paper's argument for SomeElements).
    break;
  case EquivalenceStrategy::SomeElements: {
    if (RefElems) {
      for (const Value &V : Obj.Slots) {
        if (!V.IsRef || V.isNullRef())
          continue;
        int32_t Found = inputOf(V.Bits);
        if (Found >= 0)
          Target = Target < 0 ? Found : merge(Target, Found);
      }
    } else {
      // Overlap on non-default element values.
      for (const InputInfo &Info : Inputs) {
        if (!Info.Alive || !Info.IsArray || Info.TypeKey != ElemType)
          continue;
        for (const Value &V : Obj.Slots) {
          if (V.Bits != 0 && Info.ValueSet.count(V.Bits)) {
            Target = Target < 0 ? Info.Id : merge(Target, Info.Id);
            break;
          }
        }
      }
    }
    break;
  }
  case EquivalenceStrategy::AllElements: {
    if (RefElems) {
      Target = equalRefArrayInput(Obj, ElemType);
      break;
    }
    std::unordered_set<int64_t> Values;
    for (const Value &V : Obj.Slots)
      if (V.Bits != 0)
        Values.insert(V.Bits);
    Target = equalValueArrayInput(Values, ElemType);
    break;
  }
  case EquivalenceStrategy::SameType: {
    for (const InputInfo &Info : Inputs)
      if (Info.Alive && Info.IsArray && Info.TypeKey == ElemType) {
        Target = Info.Id;
        break;
      }
    break;
  }
  }

  if (Target < 0) {
    Target = newInput(/*IsArray=*/true, ElemType, arrayLabel(M, ElemType));
    if (Strategy == EquivalenceStrategy::AllElements && !RefElems)
      indexValues(Target);
  }

  InputInfo &Info = infoMut(Target);
  Info.MaxCapacitySeen =
      std::max(Info.MaxCapacitySeen, static_cast<int64_t>(Obj.Slots.size()));
  Info.RunMaxCapacitySeen = std::max(Info.RunMaxCapacitySeen,
                                     static_cast<int64_t>(Obj.Slots.size()));
  assign(Arr, Target, /*ClassId=*/-1);
  // Register current contents for identity tracking. Values present at
  // this identification also feed SeedValues: they are exactly what the
  // overlap test above compared against other inputs, which a sweep
  // merge must replay against earlier runs (see InputTable::merge).
  for (const Value &V : Obj.Slots) {
    if (V.IsRef) {
      if (!V.isNullRef())
        assign(V.Bits, Target, H->get(V.Bits).IsArray
                                   ? -1
                                   : H->get(V.Bits).ClassId);
    } else if (V.Bits != 0) {
      insertValue(canonical(Target), V.Bits);
      InputInfo &Reg = infoMut(Target);
      Reg.SeedValues.insert(V.Bits);
      Reg.RunValueSet.insert(V.Bits);
    }
  }
  return canonical(Target);
}

int32_t InputTable::equalRefArrayInput(const HeapObject &Arr,
                                       TypeId ElemType) const {
  int64_t NonNull = 0;
  ObjId First = NullObj;
  for (const Value &V : Arr.Slots)
    if (V.IsRef && !V.isNullRef() && NonNull++ == 0)
      First = V.ref();
  auto Equal = [&](const InputInfo &Info) {
    if (!Info.Alive || !Info.IsArray || Info.TypeKey != ElemType)
      return false;
    for (const Value &V : Arr.Slots)
      if (V.IsRef && !V.isNullRef() && !Info.Members.count(V.Bits))
        return false;
    // Members also contains backing array ids; require the element
    // count to match the non-array member count.
    return NonNull == static_cast<int64_t>(Info.Members.size()) -
                          countArrayMembers(Info);
  };
  if (NonNull > 0) {
    // Members sets are disjoint: only the owner of the first element can
    // hold them all.
    int32_t Owner = ownerOf(First);
    return Owner >= 0 && Equal(Inputs[static_cast<size_t>(Owner)]) ? Owner
                                                                    : -1;
  }
  // All null: no element names a candidate, so scan in id order.
  for (const InputInfo &Info : Inputs)
    if (Equal(Info))
      return Info.Id;
  return -1;
}

int32_t
InputTable::equalValueArrayInput(const std::unordered_set<int64_t> &Values,
                                 TypeId ElemType) const {
  uint64_t Hash = 0;
  for (int64_t V : Values)
    Hash += mixValue(V);
  auto It = ValueIndex.find(valueKey(ElemType, Values.size(), Hash));
  if (It == ValueIndex.end())
    return -1;
  int32_t Found = -1;
  for (int32_t Id : It->second) {
    const InputInfo &Info = Inputs[static_cast<size_t>(Id)];
    if ((Found < 0 || Id < Found) && Info.Alive && Info.IsArray &&
        Info.TypeKey == ElemType && Info.ValueSet == Values)
      Found = Id;
  }
  return Found;
}

int32_t InputTable::onStructureAccess(ObjId Obj, Value Other) {
  bool OtherValid = Other.IsRef && !Other.isNullRef();
  if (Strategy == EquivalenceStrategy::SomeElements ||
      Strategy == EquivalenceStrategy::SameArray) {
    int32_t I1 = inputOf(Obj);
    int32_t I2 = OtherValid ? inputOf(Other.ref()) : -1;
    int32_t Result = -1;
    if (I1 >= 0 && I2 >= 0) {
      Result = I1 == I2 ? I1 : merge(I1, I2);
    } else if (I1 >= 0) {
      if (OtherValid)
        assign(Other.ref(), I1, H->get(Other.ref()).IsArray
                                    ? -1
                                    : H->get(Other.ref()).ClassId);
      Result = I1;
    } else if (I2 >= 0) {
      assign(Obj, I2, H->get(Obj).ClassId);
      Result = I2;
    } else {
      Result = identifyStructureSnapshot(Obj);
    }
    // An input first discovered as an array (e.g. the Vertex[] registry
    // of a linked graph) upgrades to structure semantics once its
    // members are accessed through recursive links.
    InputInfo &Info = infoMut(Result);
    if (Info.IsArray) {
      int32_t StartClass = H->get(Obj).ClassId;
      Info.IsArray = false;
      Info.TypeKey = RT.ClassScc[static_cast<size_t>(StartClass)];
      Info.Label = structureLabel(M, StartClass);
    }
    return Result;
  }
  if (Strategy == EquivalenceStrategy::SameType) {
    int32_t StartClass = H->get(Obj).ClassId;
    int32_t TypeKey = RT.ClassScc[static_cast<size_t>(StartClass)];
    for (const InputInfo &Info : Inputs)
      if (Info.Alive && !Info.IsArray && Info.TypeKey == TypeKey)
        return Info.Id;
    return newInput(/*IsArray=*/false, TypeKey,
                    structureLabel(M, StartClass));
  }
  // AllElements: a snapshot on every access (a traversal only after a
  // heap write, see snapshotAt).
  return identifyStructureSnapshot(Obj);
}

int32_t InputTable::externalStreamInput(bool IsInputStream) {
  int32_t &Cache = IsInputStream ? InputStreamId : OutputStreamId;
  if (Cache >= 0)
    return canonical(Cache);
  Cache = newInput(/*IsArray=*/false, /*TypeKey=*/-1,
                   IsInputStream ? "external input stream"
                                 : "external output stream");
  infoMut(Cache).IsStream = true;
  return Cache;
}

int32_t InputTable::onArrayAccess(ObjId Arr) {
  // Fast path: the array already belongs to an input (its own id is a
  // member — covers both naked arrays and arrays inside structures).
  if (Strategy != EquivalenceStrategy::AllElements) {
    int32_t Known = inputOf(Arr);
    if (Known >= 0)
      return Known;
  }
  return identifyArraySnapshot(Arr);
}

void InputTable::onArrayStoreValue(int32_t Input, ObjId Arr, Value V) {
  (void)Arr;
  Input = canonical(Input);
  if (V.IsRef) {
    if (!V.isNullRef())
      assign(V.ref(), Input,
             H->get(V.ref()).IsArray ? -1 : H->get(V.ref()).ClassId);
    return;
  }
  if (V.Bits != 0) {
    insertValue(Input, V.Bits);
    infoMut(Input).RunValueSet.insert(V.Bits);
  }
}

//===----------------------------------------------------------------------===//
// Sweep merge
//===----------------------------------------------------------------------===//

std::vector<int32_t> InputTable::merge(const InputTable &Other) {
  // Decide first: the SomeElements overlap candidates of every shard
  // array, tested against the value sets as they stand before this
  // merge. A serial session identifying Other's arrays would have
  // compared against exactly these: earlier runs are complete by the
  // time a later run identifies, so their value sets no longer change,
  // and comparisons against same-run inputs already happened inside the
  // shard itself. The apply loop below then grows the value sets.
  std::vector<size_t> CandStart(Other.Inputs.size() + 1, 0);
  std::vector<int32_t> Cands;
  for (size_t I = 0; I < Other.Inputs.size(); ++I) {
    CandStart[I] = Cands.size();
    const InputInfo &Src = Other.Inputs[I];
    if (Strategy != EquivalenceStrategy::SomeElements || !Src.IsArray ||
        Src.IsStream || Src.SeedValues.empty() ||
        Other.canonical(static_cast<int32_t>(I)) != static_cast<int32_t>(I))
      continue;
    for (const InputInfo &Cand : Inputs) {
      if (!Cand.Alive || !Cand.IsArray || Cand.IsStream ||
          Cand.TypeKey != Src.TypeKey)
        continue;
      for (int64_t V : Src.SeedValues)
        if (Cand.ValueSet.count(V)) {
          Cands.push_back(Cand.Id);
          break;
        }
    }
  }
  CandStart.back() = Cands.size();

  std::vector<int32_t> Remap(Other.Inputs.size(), -1);
  for (size_t I = 0; I < Other.Inputs.size(); ++I) {
    int32_t SrcId = static_cast<int32_t>(I);
    int32_t SrcCanon = Other.canonical(SrcId);
    if (SrcCanon != SrcId) {
      // Merged-away ids resolve through their survivor, which is always
      // the older id and therefore already remapped.
      assert(SrcCanon < SrcId && "survivor must be the older id");
      Remap[I] = Remap[static_cast<size_t>(SrcCanon)];
      continue;
    }
    const InputInfo &Src = Other.Inputs[I];
    int32_t Target = -1;
    if (Src.IsStream) {
      // Stream pseudo-inputs unify by role, as in a serial session.
      bool IsIn = Other.InputStreamId >= 0 &&
                  Other.canonical(Other.InputStreamId) == SrcId;
      Target = externalStreamInput(IsIn);
    } else if (Strategy == EquivalenceStrategy::SameType) {
      for (const InputInfo &Info : Inputs)
        if (Info.Alive && !Info.IsStream && Info.IsArray == Src.IsArray &&
            Info.TypeKey == Src.TypeKey) {
          Target = Info.Id;
          break;
        }
    } else if (Strategy == EquivalenceStrategy::SomeElements &&
               Src.IsArray && !Src.SeedValues.empty()) {
      // Replay the overlap tests the shard's identifications would have
      // run against the pre-merge inputs: SeedValues holds the exact
      // element values each identification snapshot saw. The candidates
      // decided above come in id order and chain through merge(),
      // mirroring the serial identification loop.
      for (size_t C = CandStart[I]; C < CandStart[I + 1]; ++C) {
        int32_t CandId = canonical(Cands[C]);
        Target = Target < 0 ? CandId : merge(Target, CandId);
      }
    }
    // SameArray and AllElements never unify across runs: heap object ids
    // are disjoint between runs. (AllElements additionally re-identifies
    // on every access, which a post-hoc merge cannot replay; see
    // docs/parallel_sweeps.md.)
    if (Target < 0) {
      Target = newInput(Src.IsArray, Src.TypeKey, Src.Label);
      if (Strategy == EquivalenceStrategy::AllElements && Src.IsArray &&
          !isRefType(M, Src.TypeKey))
        indexValues(Target);
    }
    Target = canonical(Target);
    // Only what later merges and the back half read moves over (see
    // the declaration).
    InputInfo &Dst = infoMut(Target);
    Dst.IsStream |= Src.IsStream;
    for (int64_t V : Src.ValueSet)
      insertValue(Target, V);
    for (const auto &[ClassId, N] : Src.MemberClassCounts)
      Dst.MemberClassCounts[ClassId] += N;
    Dst.MaxCapacitySeen = std::max(Dst.MaxCapacitySeen, Src.MaxCapacitySeen);
    Remap[I] = Target;
  }
  Snapshots += Other.Snapshots;
  return Remap;
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

SizeMeasures InputTable::measureFrom(ObjId Ref, int32_t Input) {
  obs::ScopedTimer Timer(obs::Phase::Snapshot);
  Input = canonical(Input);
  InputInfo &Info = Inputs[static_cast<size_t>(Input)];
  bool AllElements = Strategy == EquivalenceStrategy::AllElements;
  bool RefIsArray = H->get(Ref).IsArray;
  if (Info.IsArray && RefIsArray) {
    SizeMeasures Sizes =
        AllElements ? snapshotAt(Ref).Sizes : measureArrayObject(Ref);
    Info.MaxCapacitySeen = std::max(Info.MaxCapacitySeen, Sizes.Capacity);
    Info.RunMaxCapacitySeen =
        std::max(Info.RunMaxCapacitySeen, Sizes.Capacity);
    return Sizes;
  }
  // Structure snapshot. The memo sizes arrays as arrays, so a structure
  // input measured from an array (which AllElements never produces)
  // traverses afresh.
  if (AllElements && !RefIsArray)
    return snapshotAt(Ref).Sizes;
  if (reusesLast(Ref, Input)) {
    obs::addCount(obs::Counter::SnapshotsReused);
    return Last.Sizes;
  }
  // Refresh membership under overlap-style strategies so later accesses
  // take the fast path.
  SizeMeasures Sizes = traverseStructure(Ref, VisitedScratch);
  if (Strategy == EquivalenceStrategy::SomeElements ||
      Strategy == EquivalenceStrategy::SameArray)
    for (const auto &[Obj, ClassId] : VisitedScratch)
      assign(Obj, Input, ClassId);
  Last.Input = Input;
  return Sizes;
}

SizeMeasures InputTable::trackedMeasures(int32_t Input) const {
  // Run-scoped counters only: an input that persists across runs (e.g.
  // SameType unification) must still be sized from the current run's
  // heap, exactly as a fresh single-run profiler would size it.
  const InputInfo &Info = Inputs[static_cast<size_t>(canonical(Input))];
  SizeMeasures Sizes;
  if (Info.IsArray) {
    Sizes.Capacity = Info.RunMaxCapacitySeen;
    Sizes.UniqueElems = static_cast<int64_t>(
        Info.RunValueSet.empty()
            ? Info.RunMemberCount > 1 ? Info.RunMemberCount - 1 : 0
            : Info.RunValueSet.size());
    return Sizes;
  }
  for (const auto &[ClassId, N] : Info.RunMemberClassCounts) {
    (void)ClassId;
    Sizes.ObjectCount += N;
  }
  return Sizes;
}

void InputTable::beginRun() {
  // A new run's heap: no memoized traversal survives it.
  ++HeapEpoch;
  Memo.clear();
  MemoEntries = 0;
  for (InputInfo &Info : Inputs) {
    Info.RunMemberCount = 0;
    Info.RunValueSet.clear();
    Info.RunMemberClassCounts.clear();
    Info.RunMaxCapacitySeen = 0;
  }
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

int64_t InputTable::countArrayMembers(const InputInfo &Info) const {
  // Every class-instance member increments MemberClassCounts at assign
  // time and arrays never do, so the array count falls out of the
  // membership bookkeeping. Deliberately heap-free: members from
  // earlier runs of a sweep may already be recycled (vm::Heap::recycle).
  int64_t Classes = 0;
  for (const auto &[ClassId, N] : Info.MemberClassCounts) {
    (void)ClassId;
    Classes += N;
  }
  return static_cast<int64_t>(Info.Members.size()) - Classes;
}
