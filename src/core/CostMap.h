//===- core/CostMap.h - Algorithmic cost accounting -------------*- C++-*-===//
///
/// \file
/// The paper's cost model (Sec. 2.2 / 3.3): a map from primitive
/// operations — algorithmic steps, structure reads/writes (per input and
/// per input+type), element creations (per type), input reads, output
/// writes — to execution counts.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_CORE_COSTMAP_H
#define ALGOPROF_CORE_COSTMAP_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace algoprof {
namespace prof {

/// Primitive operation kinds of the cost model.
enum class CostKind : uint8_t {
  Step,        ///< One loop iteration or recursive call.
  StructGet,   ///< Read of a recursive link field.
  StructPut,   ///< Write of a recursive link field.
  ArrayLoad,   ///< Array element read.
  ArrayStore,  ///< Array element write.
  New,         ///< Allocation of a recursive-type instance.
  ArrayNew,    ///< Allocation of an array.
  InputRead,   ///< External input consumed.
  OutputWrite, ///< External output produced.
};

/// Number of CostKind values.
inline constexpr size_t NumCostKinds =
    static_cast<size_t>(CostKind::OutputWrite) + 1;

/// Returns a short label for \p K ("STEP", "GET", ...), matching the
/// paper's notation.
const char *costKindLabel(CostKind K);

/// One cost-map key: a primitive operation, optionally specialized to an
/// input id (structure accesses) and/or a type id (per-element-type
/// counts and allocations). -1 means "not specialized".
struct CostKey {
  CostKind Kind = CostKind::Step;
  int32_t InputId = -1;
  int32_t TypeId = -1;

  bool operator<(const CostKey &O) const {
    if (Kind != O.Kind)
      return Kind < O.Kind;
    if (InputId != O.InputId)
      return InputId < O.InputId;
    return TypeId < O.TypeId;
  }
  bool operator==(const CostKey &O) const {
    return Kind == O.Kind && InputId == O.InputId && TypeId == O.TypeId;
  }
};

/// Counts of primitive operations: a vector of (key, count) entries kept
/// sorted by key, one entry per key. Every invocation record carries
/// two of these, and the profile back half remaps, sums and scans them
/// (shard merge, cost combination, grouping, classification, series
/// extraction), so they are flat: a remap is an in-place rewrite, a sum
/// of many maps is one sort (sum()), a merge is a linear two-way merge,
/// and entries() iterates in ascending key order, which keeps reports
/// deterministic. Hot-path accumulation does
/// not happen here (a sorted insert per event is too slow); the
/// profiler counts into unsorted per-activation slots and sorts them
/// once into a CostMap when the activation finishes.
class CostMap {
public:
  using Entry = std::pair<CostKey, int64_t>;

  CostMap() = default;
  /// Adopts \p Sorted, whose keys must be strictly ascending.
  explicit CostMap(std::vector<Entry> Sorted);

  /// The map holding \p Entries, given in any order: entries with equal
  /// keys are summed. One sort builds a sum of many maps, where adding
  /// or merging them one by one costs a pass over the growing sum each.
  static CostMap sum(std::vector<Entry> Entries);

  /// Adds \p N to \p Key: a binary search, plus an insert when the key
  /// is new.
  void add(CostKey Key, int64_t N = 1);

  int64_t get(CostKey Key) const;

  /// Sum over all keys with kind \p K and (when \p InputId >= 0) that
  /// input, counting only the input-level entries (TypeId == -1) so the
  /// per-type refinements are not double counted.
  int64_t total(CostKind K, int32_t InputId = -1) const;

  /// Algorithmic steps.
  int64_t steps() const { return get({CostKind::Step, -1, -1}); }

  /// Adds every count of \p Other into this map (cost combination,
  /// paper Sec. 2.6).
  void merge(const CostMap &Other);

  /// Rewrites input ids through \p Canonical (union-find collapse after
  /// inputs were merged). Re-sorts only when some id changed.
  template <typename Fn> void canonicalizeInputs(Fn Canonical) {
    bool Changed = false;
    for (Entry &E : Counts) {
      if (E.first.InputId < 0)
        continue;
      int32_t Id = Canonical(E.first.InputId);
      Changed |= Id != E.first.InputId;
      E.first.InputId = Id;
    }
    if (Changed)
      sortAndCoalesce();
  }

  bool empty() const { return Counts.empty(); }
  /// Every (key, count) entry in ascending key order.
  const std::vector<Entry> &entries() const { return Counts; }

  std::string str() const;

private:
  /// Sorts the entries by key and sums those with equal keys.
  void sortAndCoalesce();

  std::vector<Entry> Counts;
};

} // namespace prof
} // namespace algoprof

#endif // ALGOPROF_CORE_COSTMAP_H
