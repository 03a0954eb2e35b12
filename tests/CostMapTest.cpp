//===- tests/CostMapTest.cpp - Cost map unit tests ------------------------===//

#include "core/CostMap.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace algoprof;
using namespace algoprof::prof;

namespace {

TEST(CostMap, AddAndGet) {
  CostMap C;
  C.add({CostKind::Step, -1, -1});
  C.add({CostKind::Step, -1, -1}, 4);
  EXPECT_EQ(C.steps(), 5);
  EXPECT_EQ(C.get({CostKind::StructGet, 0, -1}), 0);
}

TEST(CostMap, KeysAreIndependent) {
  CostMap C;
  C.add({CostKind::StructGet, 1, -1}, 10);
  C.add({CostKind::StructGet, 2, -1}, 20);
  C.add({CostKind::StructPut, 1, -1}, 30);
  C.add({CostKind::StructGet, 1, 7}, 10); // Per-type refinement.
  EXPECT_EQ(C.get({CostKind::StructGet, 1, -1}), 10);
  EXPECT_EQ(C.get({CostKind::StructGet, 2, -1}), 20);
  EXPECT_EQ(C.get({CostKind::StructPut, 1, -1}), 30);
  EXPECT_EQ(C.get({CostKind::StructGet, 1, 7}), 10);
}

TEST(CostMap, TotalSkipsPerTypeEntries) {
  CostMap C;
  C.add({CostKind::StructGet, 1, -1}, 10);
  C.add({CostKind::StructGet, 1, 7}, 10); // Refinement of the same ops.
  C.add({CostKind::StructGet, 2, -1}, 5);
  EXPECT_EQ(C.total(CostKind::StructGet), 15);
  EXPECT_EQ(C.total(CostKind::StructGet, 1), 10);
  EXPECT_EQ(C.total(CostKind::StructGet, 2), 5);
}

TEST(CostMap, Merge) {
  CostMap A, B;
  A.add({CostKind::Step, -1, -1}, 3);
  A.add({CostKind::StructGet, 1, -1}, 1);
  B.add({CostKind::Step, -1, -1}, 4);
  B.add({CostKind::StructPut, 1, -1}, 2);
  A.merge(B);
  EXPECT_EQ(A.steps(), 7);
  EXPECT_EQ(A.get({CostKind::StructGet, 1, -1}), 1);
  EXPECT_EQ(A.get({CostKind::StructPut, 1, -1}), 2);
}

TEST(CostMap, CanonicalizeInputsMergesCollidingKeys) {
  CostMap C;
  C.add({CostKind::StructGet, 3, -1}, 10);
  C.add({CostKind::StructGet, 5, -1}, 7);
  // 5 was merged into 3 by the input table.
  C.canonicalizeInputs([](int32_t Id) { return Id == 5 ? 3 : Id; });
  EXPECT_EQ(C.get({CostKind::StructGet, 3, -1}), 17);
  EXPECT_EQ(C.get({CostKind::StructGet, 5, -1}), 0);
}

TEST(CostMap, StrRendersPaperNotation) {
  CostMap C;
  C.add({CostKind::Step, -1, -1}, 15);
  std::string S = C.str();
  EXPECT_NE(S.find("cost{STEP} -> 15"), std::string::npos);
  C.add({CostKind::StructPut, 3, -1}, 99);
  S = C.str();
  EXPECT_NE(S.find("cost{input#3, PUT} -> 99"), std::string::npos);
}

TEST(CostMap, KeyOrderingIsStrictWeak) {
  CostKey A{CostKind::Step, -1, -1};
  CostKey B{CostKind::StructGet, 0, -1};
  CostKey C{CostKind::StructGet, 0, 5};
  EXPECT_TRUE(A < B);
  EXPECT_TRUE(B < C);
  EXPECT_FALSE(B < A);
  EXPECT_FALSE(A < A);
}

//===----------------------------------------------------------------------===//
// Differential check against an ordered-map reference
//===----------------------------------------------------------------------===//

using Reference = std::map<CostKey, int64_t>;

std::string keyStr(const CostKey &K) {
  return std::string(costKindLabel(K.Kind)) + "/" +
         std::to_string(K.InputId) + "/" + std::to_string(K.TypeId);
}

/// A key from a small space, so random sequences collide often.
CostKey randomKey(std::mt19937 &Rng) {
  std::uniform_int_distribution<int> Kind(0, NumCostKinds - 1);
  std::uniform_int_distribution<int32_t> Id(-1, 5);
  std::uniform_int_distribution<int32_t> Type(-1, 3);
  return {static_cast<CostKind>(Kind(Rng)), Id(Rng), Type(Rng)};
}

/// Entries, per-input totals and per-kind totals of \p C equal those of
/// \p Ref (totals by brute force).
void expectMatches(const CostMap &C, const Reference &Ref) {
  ASSERT_EQ(C.entries().size(), Ref.size());
  auto It = Ref.begin();
  for (const auto &[Key, N] : C.entries()) {
    EXPECT_EQ(keyStr(Key), keyStr(It->first));
    EXPECT_EQ(N, It->second) << keyStr(Key);
    EXPECT_EQ(C.get(Key), It->second) << keyStr(Key);
    ++It;
  }
  for (size_t KI = 0; KI < NumCostKinds; ++KI) {
    CostKind K = static_cast<CostKind>(KI);
    for (int32_t Input = -1; Input <= 7; ++Input) {
      int64_t Sum = 0;
      for (const auto &[Key, N] : Ref)
        if (Key.Kind == K && Key.TypeId == -1 &&
            (Input < 0 || Key.InputId == Input))
          Sum += N;
      EXPECT_EQ(C.total(K, Input), Sum)
          << costKindLabel(K) << " input " << Input;
    }
  }
}

/// A random map of up to \p MaxAdds additions, with its reference.
std::pair<CostMap, Reference> randomMap(std::mt19937 &Rng, int MaxAdds) {
  std::pair<CostMap, Reference> M;
  int Adds = std::uniform_int_distribution<int>(0, MaxAdds)(Rng);
  for (int I = 0; I < Adds; ++I) {
    CostKey K = randomKey(Rng);
    int64_t N = std::uniform_int_distribution<int64_t>(0, 9)(Rng);
    M.first.add(K, N);
    M.second[K] += N;
  }
  return M;
}

TEST(CostMap, RandomOperationsMatchOrderedMapReference) {
  for (uint32_t Seed = 1; Seed <= 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    CostMap C;
    Reference Ref;
    for (int Step = 0; Step < 40; ++Step) {
      switch (std::uniform_int_distribution<int>(0, 3)(Rng)) {
      case 0:
      case 1: {
        CostKey K = randomKey(Rng);
        int64_t N = std::uniform_int_distribution<int64_t>(0, 9)(Rng);
        C.add(K, N);
        Ref[K] += N;
        break;
      }
      case 2: {
        auto [Other, OtherRef] = randomMap(Rng, 12);
        C.merge(Other);
        for (const auto &[K, N] : OtherRef)
          Ref[K] += N;
        break;
      }
      case 3: {
        // A random id mapping; identity a third of the time, which must
        // leave the entries as they are.
        std::vector<int32_t> Map(8); // Ids stay within 0..7.
        bool Identity = std::uniform_int_distribution<int>(0, 2)(Rng) == 0;
        std::uniform_int_distribution<int32_t> Target(0, 7);
        for (int32_t Id = 0; Id < 8; ++Id)
          Map[static_cast<size_t>(Id)] = Identity ? Id : Target(Rng);
        C.canonicalizeInputs(
            [&Map](int32_t Id) { return Map[static_cast<size_t>(Id)]; });
        Reference Next;
        for (const auto &[Key, N] : Ref) {
          CostKey K = Key;
          if (K.InputId >= 0)
            K.InputId = Map[static_cast<size_t>(K.InputId)];
          Next[K] += N;
        }
        Ref = std::move(Next);
        break;
      }
      }
      expectMatches(C, Ref);
      if (::testing::Test::HasFailure())
        return;
    }
  }
}

TEST(CostMap, MergeShapes) {
  auto Build = [](std::initializer_list<CostMap::Entry> Entries) {
    CostMap C;
    Reference R;
    for (const auto &[K, N] : Entries) {
      C.add(K, N);
      R[K] += N;
    }
    return std::make_pair(C, R);
  };
  auto Check = [](std::pair<CostMap, Reference> A,
                  const std::pair<CostMap, Reference> &B) {
    A.first.merge(B.first);
    for (const auto &[K, N] : B.second)
      A.second[K] += N;
    expectMatches(A.first, A.second);
  };
  CostKey S{CostKind::Step, -1, -1};
  CostKey G1{CostKind::StructGet, 1, -1}, G1T{CostKind::StructGet, 1, 2};
  CostKey P2{CostKind::StructPut, 2, -1}, W{CostKind::OutputWrite, 0, -1};
  auto Empty = Build({});
  auto Low = Build({{S, 3}, {G1, 4}});
  auto High = Build({{P2, 5}, {W, 6}});
  auto Mixed = Build({{G1T, 7}, {W, 8}});
  Check(Empty, Empty);
  Check(Empty, Low);
  Check(Low, Empty);
  Check(Low, High);   // Disjoint, other after.
  Check(High, Low);   // Disjoint, other before.
  Check(Low, Mixed);  // Interleaved.
  Check(Mixed, High); // Interleaved with one shared key.
  Check(Low, Low);    // Identical key sets.

  CostMap Self = Low.first;
  Self.merge(Self);
  Reference Doubled = Low.second;
  for (auto &[K, N] : Doubled)
    N *= 2;
  expectMatches(Self, Doubled);
}

} // namespace
