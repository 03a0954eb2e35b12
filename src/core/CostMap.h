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
#include <span>
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

/// One cost-map entry: a key and its count.
using CostEntry = std::pair<CostKey, int64_t>;

/// Sorts \p Entries by key and sums the counts of equal keys into the
/// first of them. Returns how many entries remain at the front.
size_t sortAndCoalesce(std::span<CostEntry> Entries);

/// Rewrites the input ids of \p Entries (strictly ascending keys)
/// through \p Canonical (an input-id remap or union-find collapse), then
/// re-sorts and coalesces them when some id changed. Returns how many
/// entries remain at the front; the rest are stale.
template <typename Fn>
size_t canonicalizeCostInputs(std::span<CostEntry> Entries, Fn Canonical) {
  bool Changed = false;
  for (CostEntry &E : Entries) {
    if (E.first.InputId < 0)
      continue;
    int32_t Id = Canonical(E.first.InputId);
    Changed |= Id != E.first.InputId;
    E.first.InputId = Id;
  }
  return Changed ? sortAndCoalesce(Entries) : Entries.size();
}

/// A read-only view of cost entries with strictly ascending keys: a
/// CostMap's, or one invocation record's range of its repetition node's
/// cost column (core/RepetitionTree.h). Iteration visits (key, count)
/// entries in ascending key order, which keeps reports deterministic.
class CostSpan {
public:
  CostSpan() = default;
  CostSpan(std::span<const CostEntry> Entries) : Entries(Entries) {}

  int64_t get(CostKey Key) const;

  /// Sum over all keys with kind \p K and (when \p InputId >= 0) that
  /// input, counting only the input-level entries (TypeId == -1) so the
  /// per-type refinements are not double counted.
  int64_t total(CostKind K, int32_t InputId = -1) const;

  /// Algorithmic steps.
  int64_t steps() const { return get({CostKind::Step, -1, -1}); }

  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }
  std::span<const CostEntry> entries() const { return Entries; }
  auto begin() const { return Entries.begin(); }
  auto end() const { return Entries.end(); }

  std::string str() const;

private:
  std::span<const CostEntry> Entries;
};

/// Counts of primitive operations: a vector of (key, count) entries kept
/// sorted by key, one entry per key. The profile back half builds these
/// for combined invocations, sums and scans them (cost combination,
/// classification, series extraction), so they are flat: a sum of many
/// maps is one sort (sum()), a merge is a linear two-way merge, and a
/// remap is an in-place rewrite. Invocation records do not own one:
/// their entries live in their node's cost column and are read through
/// CostSpan. Hot-path accumulation does not happen here (a sorted insert
/// per event is too slow); the profiler counts into unsorted
/// per-activation slots and sorts them once when the activation
/// finishes.
class CostMap {
public:
  using Entry = CostEntry;

  CostMap() = default;

  /// The map holding \p Entries, given in any order: entries with equal
  /// keys are summed. One sort builds a sum of many maps, where adding
  /// or merging them one by one costs a pass over the growing sum each.
  static CostMap sum(std::vector<Entry> Entries);

  /// Adds \p N to \p Key: a binary search, plus an insert when the key
  /// is new.
  void add(CostKey Key, int64_t N = 1);

  int64_t get(CostKey Key) const { return CostSpan(*this).get(Key); }
  int64_t total(CostKind K, int32_t InputId = -1) const {
    return CostSpan(*this).total(K, InputId);
  }
  int64_t steps() const { return CostSpan(*this).steps(); }

  /// Adds every count of \p Other into this map (cost combination,
  /// paper Sec. 2.6).
  void merge(CostSpan Other);

  /// Rewrites input ids through \p Canonical (union-find collapse after
  /// inputs were merged). Re-sorts only when some id changed.
  template <typename Fn> void canonicalizeInputs(Fn Canonical) {
    Counts.resize(canonicalizeCostInputs(Counts, Canonical));
  }

  bool empty() const { return Counts.empty(); }
  /// Every (key, count) entry in ascending key order.
  const std::vector<Entry> &entries() const { return Counts; }
  operator CostSpan() const { return CostSpan(Counts); }

  std::string str() const { return CostSpan(*this).str(); }

private:
  std::vector<Entry> Counts;
};

} // namespace prof
} // namespace algoprof

#endif // ALGOPROF_CORE_COSTMAP_H
