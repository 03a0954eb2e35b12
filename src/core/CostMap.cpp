//===- core/CostMap.cpp ---------------------------------------------------===//

#include "core/CostMap.h"

#include <algorithm>
#include <limits>

using namespace algoprof;
using namespace algoprof::prof;

const char *algoprof::prof::costKindLabel(CostKind K) {
  switch (K) {
  case CostKind::Step:
    return "STEP";
  case CostKind::StructGet:
    return "GET";
  case CostKind::StructPut:
    return "PUT";
  case CostKind::ArrayLoad:
    return "LOAD";
  case CostKind::ArrayStore:
    return "STORE";
  case CostKind::New:
    return "NEW";
  case CostKind::ArrayNew:
    return "NEWARRAY";
  case CostKind::InputRead:
    return "READ";
  case CostKind::OutputWrite:
    return "WRITE";
  }
  return "<bad-kind>";
}

namespace {

bool keyLess(const CostEntry &E, const CostKey &K) { return E.first < K; }

} // namespace

size_t algoprof::prof::sortAndCoalesce(std::span<CostEntry> Entries) {
  auto Less = [](const CostEntry &A, const CostEntry &B) {
    return A.first < B.first;
  };
  if (!std::is_sorted(Entries.begin(), Entries.end(), Less))
    std::sort(Entries.begin(), Entries.end(), Less);
  size_t Out = 0;
  for (size_t I = 0; I < Entries.size(); ++I) {
    if (Out > 0 && Entries[Out - 1].first == Entries[I].first)
      Entries[Out - 1].second += Entries[I].second;
    else
      Entries[Out++] = Entries[I];
  }
  return Out;
}

int64_t CostSpan::get(CostKey Key) const {
  auto It = std::lower_bound(Entries.begin(), Entries.end(), Key, keyLess);
  return It != Entries.end() && It->first == Key ? It->second : 0;
}

int64_t CostSpan::total(CostKind K, int32_t InputId) const {
  if (InputId >= 0)
    return get({K, InputId, -1});
  // Keys of one kind are contiguous; the smallest one starts the range.
  CostKey First{K, std::numeric_limits<int32_t>::min(),
                std::numeric_limits<int32_t>::min()};
  int64_t Sum = 0;
  for (auto It = std::lower_bound(Entries.begin(), Entries.end(), First,
                                  keyLess);
       It != Entries.end() && It->first.Kind == K; ++It)
    if (It->first.TypeId == -1)
      Sum += It->second;
  return Sum;
}

CostMap CostMap::sum(std::vector<Entry> Entries) {
  CostMap M;
  M.Counts = std::move(Entries);
  M.Counts.resize(sortAndCoalesce(M.Counts));
  return M;
}

void CostMap::add(CostKey Key, int64_t N) {
  auto It = std::lower_bound(Counts.begin(), Counts.end(), Key, keyLess);
  if (It != Counts.end() && It->first == Key)
    It->second += N;
  else
    Counts.insert(It, {Key, N});
}

void CostMap::merge(CostSpan Other) {
  std::span<const Entry> B = Other.entries();
  if (B.empty())
    return;
  if (Counts.empty()) {
    Counts.assign(B.begin(), B.end());
    return;
  }
  // Count the keys only \p Other has, grow once, then merge from the
  // back so no entry moves twice and no scratch buffer is needed.
  size_t NewKeys = 0;
  for (size_t I = 0, J = 0; J < B.size();) {
    if (I == Counts.size() || B[J].first < Counts[I].first) {
      ++NewKeys;
      ++J;
    } else if (Counts[I].first < B[J].first) {
      ++I;
    } else {
      ++I;
      ++J;
    }
  }
  size_t I = Counts.size(), J = B.size();
  Counts.resize(Counts.size() + NewKeys);
  for (size_t W = Counts.size(); J > 0;) {
    if (I > 0 && B[J - 1].first < Counts[I - 1].first) {
      Counts[--W] = Counts[--I];
    } else if (I > 0 && Counts[I - 1].first == B[J - 1].first) {
      Counts[--W] = {B[J - 1].first, Counts[--I].second + B[J - 1].second};
      --J;
    } else {
      Counts[--W] = B[--J];
    }
  }
}

std::string CostSpan::str() const {
  std::string Out;
  for (const auto &[Key, N] : Entries) {
    if (!Out.empty())
      Out += ", ";
    Out += "cost{";
    bool First = true;
    if (Key.InputId >= 0) {
      Out += "input#" + std::to_string(Key.InputId);
      First = false;
    }
    if (Key.TypeId >= 0) {
      if (!First)
        Out += ", ";
      Out += "type#" + std::to_string(Key.TypeId);
      First = false;
    }
    if (!First)
      Out += ", ";
    Out += costKindLabel(Key.Kind);
    Out += "} -> " + std::to_string(N);
  }
  return Out;
}
