//===- test_differential.cpp - Differential oracle testing -----------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing layer: random interleaved sequences of insert /
/// remove / union / intersect / difference / multi_insert / multi_delete
/// driven simultaneously against a PaC-tree and a std::map / std::set
/// oracle, at block sizes B in {0, 8, 128} (PAM baseline, small blocks, the
/// paper default). After every step the tree must satisfy the
/// Def. 4.1 invariants and agree elementwise (keys *and* combined values)
/// with the oracle. PAM (Sun et al.) defines the uncompressed semantics the
/// compressed fast paths must preserve exactly; this suite is what licenses
/// the cursor rewrite of the Sec. 8 base cases.
///
/// The same sequences also run over difference- and gamma-encoded sets so
/// the compressed read/write cursors see every operation mix. Allocator
/// modes are covered by the build matrix (the sanitize CI leg runs this
/// suite with the pool off); within a run, the leak fixture checks that no
/// step drops nodes.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <map>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "src/api/pam_map.h"
#include "src/api/pam_set.h"
#include "src/encoding/diff_encoder.h"
#include "src/encoding/gamma_encoder.h"
#include "src/obs/metrics.h"
#include "src/util/failpoint.h"
#include "tests/test_common.h"

using namespace cpam;

namespace {

constexpr uint64_t kUniverse = 2500; // Small: forces duplicate-key traffic.
constexpr int kSteps = 160;

//===----------------------------------------------------------------------===//
// Map differential (value combination checked through std::map).
//===----------------------------------------------------------------------===//

template <class MapT> class DifferentialMapTest : public test::LeakCheckTest {};

using MapTypes =
    ::testing::Types<pam_map<uint64_t, uint64_t, 0>,   // PAM baseline
                     pam_map<uint64_t, uint64_t, 8>,   // Small blocks
                     pam_map<uint64_t, uint64_t, 128>, // Paper default
                     pam_map<uint64_t, uint64_t, 8, diff_encoder>,
                     pam_map<uint64_t, uint64_t, 128, diff_encoder>>;
TYPED_TEST_SUITE(DifferentialMapTest, MapTypes);

using Oracle = std::map<uint64_t, uint64_t>;
using EntryVec = std::vector<std::pair<uint64_t, uint64_t>>;

EntryVec randomEntries(Rng &R, size_t N, uint64_t Universe) {
  EntryVec Out(N);
  for (auto &E : Out)
    E = {R.next(Universe), R.next(1u << 16)};
  return Out;
}

Oracle toOracle(const EntryVec &Entries) {
  // Duplicate keys combine left-to-right with +, matching sort_and_combine.
  Oracle O;
  for (const auto &[K, V] : Entries) {
    auto [It, New] = O.emplace(K, V);
    if (!New)
      It->second += V;
  }
  return O;
}

template <class MapT>
void checkAgainstOracle(const MapT &M, const Oracle &O, const char *What) {
  ASSERT_EQ(M.check_invariants(), "") << What;
  ASSERT_EQ(M.size(), O.size()) << What;
  EntryVec Got = M.to_vector();
  EntryVec Want(O.begin(), O.end());
  ASSERT_EQ(Got, Want) << What;
}

/// One random differential episode. All set algebra combines values with +
/// so a dropped or double-invoked combine is visible in the value, not just
/// the key set.
template <class MapT> void runMapEpisode(Rng R) {
  auto Plus = std::plus<uint64_t>();
  MapT M;
  Oracle O;
  for (int Step = 0; Step < kSteps; ++Step) {
    switch (R.next(10)) {
    case 0: { // Point insert (combine +).
      uint64_t K = R.next(kUniverse), V = R.next(1u << 16);
      M.insert_inplace(typename MapT::entry_t(K, V), Plus);
      auto [It, New] = O.emplace(K, V);
      if (!New)
        It->second += V;
      checkAgainstOracle(M, O, "insert");
      break;
    }
    case 1: { // Point remove (key may be absent).
      uint64_t K = R.next(kUniverse);
      M = M.remove(K);
      O.erase(K);
      checkAgainstOracle(M, O, "remove");
      break;
    }
    case 2: { // Union with a random map.
      EntryVec B = randomEntries(R, R.next(400), kUniverse);
      MapT MB(B, Plus);
      Oracle OB = toOracle(B);
      M = MapT::map_union(M, MB, Plus);
      for (const auto &[K, V] : OB) {
        auto [It, New] = O.emplace(K, V);
        if (!New)
          It->second += V;
      }
      checkAgainstOracle(M, O, "union");
      break;
    }
    case 3: { // Intersect with a map overlapping half our keys.
      EntryVec B = randomEntries(R, R.next(400), kUniverse);
      for (const auto &[K, V] : O)
        if (R.next(2))
          B.push_back({K, R.next(1u << 16)});
      MapT MB(B, Plus);
      Oracle OB = toOracle(B);
      M = MapT::map_intersect(M, MB, Plus);
      Oracle Kept;
      for (const auto &[K, V] : O) {
        auto It = OB.find(K);
        if (It != OB.end())
          Kept.emplace(K, V + It->second);
      }
      O = std::move(Kept);
      checkAgainstOracle(M, O, "intersect");
      break;
    }
    case 4: { // Difference.
      EntryVec B = randomEntries(R, R.next(400), kUniverse);
      MapT MB(B, Plus);
      M = MapT::map_difference(M, MB);
      for (const auto &KV : toOracle(B))
        O.erase(KV.first);
      checkAgainstOracle(M, O, "difference");
      break;
    }
    case 5: { // multi_insert with in-batch duplicate keys.
      EntryVec B = randomEntries(R, R.next(500), kUniverse);
      M = M.multi_insert(B, Plus);
      for (const auto &[K, V] : toOracle(B)) {
        auto [It, New] = O.emplace(K, V);
        if (!New)
          It->second += V;
      }
      checkAgainstOracle(M, O, "multi_insert");
      break;
    }
    case 6: { // multi_delete with duplicate keys in the batch.
      std::vector<uint64_t> Keys(R.next(500));
      for (auto &K : Keys)
        K = R.next(kUniverse);
      M = M.multi_delete(Keys);
      for (uint64_t K : Keys)
        O.erase(K);
      checkAgainstOracle(M, O, "multi_delete");
      break;
    }
    case 7: { // filter on a key+value predicate (cursor flat base case).
      uint64_t Mod = 2 + R.next(5);
      M = M.filter(
          [Mod](const auto &E) { return (E.first + E.second) % Mod != 0; });
      Oracle Kept;
      for (const auto &[K, V] : O)
        if ((K + V) % Mod != 0)
          Kept.emplace(K, V);
      O = std::move(Kept);
      checkAgainstOracle(M, O, "filter");
      break;
    }
    case 8: { // map_values (cursor flat base case; keys pass through).
      uint64_t Add = R.next(1u << 10);
      M = M.map_values(
          [Add](const auto &E) { return E.second * 2 + Add; });
      for (auto &KV : O)
        KV.second = KV.second * 2 + Add;
      checkAgainstOracle(M, O, "map_values");
      break;
    }
    default: { // Rebuild from scratch occasionally (fresh tree shapes).
      EntryVec B = randomEntries(R, R.next(800), kUniverse);
      M = MapT(B, Plus);
      O = toOracle(B);
      checkAgainstOracle(M, O, "rebuild");
      break;
    }
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TYPED_TEST(DifferentialMapTest, RandomOpsMatchStdMap) {
  runMapEpisode<TypeParam>(test::seeded_rng(1));
}

//===----------------------------------------------------------------------===//
// Allocation-chaos episodes (map): every op may die mid-flight.
//===----------------------------------------------------------------------===//

/// Random op sequence with the "alloc.node" failpoint armed at 1-in-N per
/// node allocation: each step either survives (and must then agree with
/// the oracle exactly) or throws bad_alloc (and must then leave the
/// operand untouched — strong guarantee on the functional API — and leak
/// nothing, which the enclosing LeakCheckTest fixture verifies). Only
/// functional ops are used: *_inplace documents the weaker
/// collection-empties-on-throw contract.
template <class MapT> void runMapChaosEpisode(Rng R, uint64_t Salt) {
  fail::scoped_arm Arm("alloc.node",
                       "p=200/seed=" + std::to_string(Salt));
  auto Plus = std::plus<uint64_t>();
  MapT M;
  Oracle O;
  uint64_t Survived = 0, Died = 0;
  for (int Step = 0; Step < kSteps; ++Step) {
    try {
      switch (R.next(6)) {
      case 0: { // Point insert.
        uint64_t K = R.next(kUniverse), V = R.next(1u << 16);
        MapT Next = M.insert(typename MapT::entry_t(K, V));
        M = std::move(Next);
        O[K] = V; // Functional insert overwrites (take_right).
        break;
      }
      case 1: { // Point remove.
        uint64_t K = R.next(kUniverse);
        MapT Next = M.remove(K);
        M = std::move(Next);
        O.erase(K);
        break;
      }
      case 2: { // Union.
        EntryVec B = randomEntries(R, R.next(300), kUniverse);
        MapT MB(B, Plus);
        Oracle OB = toOracle(B);
        MapT Next = MapT::map_union(M, MB, Plus);
        M = std::move(Next);
        for (const auto &[K, V] : OB) {
          auto [It, New] = O.emplace(K, V);
          if (!New)
            It->second += V;
        }
        break;
      }
      case 3: { // Difference.
        EntryVec B = randomEntries(R, R.next(300), kUniverse);
        MapT MB(B, Plus);
        MapT Next = MapT::map_difference(M, MB);
        M = std::move(Next);
        for (const auto &KV : toOracle(B))
          O.erase(KV.first);
        break;
      }
      case 4: { // multi_insert.
        EntryVec B = randomEntries(R, R.next(400), kUniverse);
        MapT Next = M.multi_insert(B, Plus);
        M = std::move(Next);
        for (const auto &[K, V] : toOracle(B)) {
          auto [It, New] = O.emplace(K, V);
          if (!New)
            It->second += V;
        }
        break;
      }
      default: { // filter.
        uint64_t Mod = 2 + R.next(5);
        MapT Next = M.filter(
            [Mod](const auto &E) { return (E.first + E.second) % Mod != 0; });
        M = std::move(Next);
        Oracle Kept;
        for (const auto &[K, V] : O)
          if ((K + V) % Mod != 0)
            Kept.emplace(K, V);
        O = std::move(Kept);
        break;
      }
      }
      ++Survived;
      checkAgainstOracle(M, O, "chaos survivor");
    } catch (const std::bad_alloc &) {
      // The batch temporaries (MB/Next) unwound; the operand must be
      // byte-for-byte what it was before the failed op.
      ++Died;
      checkAgainstOracle(M, O, "operand after injected failure");
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Survived, 0u) << "injection rate so high nothing completed";
  EXPECT_GT(fail::fires("alloc.node"), 0u)
      << "chaos episode never actually injected a failure";
  EXPECT_GT(Died, 0u) << "no op observed an injected allocation failure";
}

TYPED_TEST(DifferentialMapTest, AllocChaosLeavesOperandsIntact) {
  runMapChaosEpisode<TypeParam>(test::seeded_rng(55), 17);
}

//===----------------------------------------------------------------------===//
// Set differential (compressed encodings included).
//===----------------------------------------------------------------------===//

template <class SetT> class DifferentialSetTest : public test::LeakCheckTest {};

using SetTypes =
    ::testing::Types<pam_set<uint64_t, 0>, pam_set<uint64_t, 8>,
                     pam_set<uint64_t, 128>,
                     pam_set<uint64_t, 8, diff_encoder>,
                     pam_set<uint64_t, 128, diff_encoder>,
                     pam_set<uint64_t, 8, gamma_encoder>,
                     pam_set<uint64_t, 128, gamma_encoder>>;
TYPED_TEST_SUITE(DifferentialSetTest, SetTypes);

template <class SetT>
void checkSetAgainstOracle(const SetT &S, const std::set<uint64_t> &O,
                           const char *What) {
  ASSERT_EQ(S.check_invariants(), "") << What;
  ASSERT_EQ(S.size(), O.size()) << What;
  std::vector<uint64_t> Want(O.begin(), O.end());
  ASSERT_EQ(S.to_vector(), Want) << What;
}

template <class SetT> void runSetEpisode(Rng R) {
  SetT S;
  std::set<uint64_t> O;
  auto RandomKeys = [&](size_t N) {
    std::vector<uint64_t> Keys(N);
    for (auto &K : Keys)
      K = R.next(kUniverse);
    return Keys;
  };
  for (int Step = 0; Step < kSteps; ++Step) {
    switch (R.next(7)) {
    case 0: {
      uint64_t K = R.next(kUniverse);
      S = S.insert(K);
      O.insert(K);
      checkSetAgainstOracle(S, O, "insert");
      break;
    }
    case 1: {
      uint64_t K = R.next(kUniverse);
      S = S.remove(K);
      O.erase(K);
      checkSetAgainstOracle(S, O, "remove");
      break;
    }
    case 2: {
      auto Keys = RandomKeys(R.next(400));
      S = SetT::map_union(S, SetT(Keys));
      O.insert(Keys.begin(), Keys.end());
      checkSetAgainstOracle(S, O, "union");
      break;
    }
    case 3: {
      auto Keys = RandomKeys(R.next(400));
      for (uint64_t K : O)
        if (R.next(2))
          Keys.push_back(K);
      std::set<uint64_t> OB(Keys.begin(), Keys.end());
      S = SetT::map_intersect(S, SetT(Keys));
      std::set<uint64_t> Kept;
      for (uint64_t K : O)
        if (OB.count(K))
          Kept.insert(K);
      O = std::move(Kept);
      checkSetAgainstOracle(S, O, "intersect");
      break;
    }
    case 4: {
      auto Keys = RandomKeys(R.next(400));
      S = SetT::map_difference(S, SetT(Keys));
      for (uint64_t K : Keys)
        O.erase(K);
      checkSetAgainstOracle(S, O, "difference");
      break;
    }
    case 5: {
      auto Keys = RandomKeys(R.next(500));
      S = S.multi_insert(Keys);
      O.insert(Keys.begin(), Keys.end());
      checkSetAgainstOracle(S, O, "multi_insert");
      break;
    }
    default: {
      auto Keys = RandomKeys(R.next(500));
      S = S.multi_delete(Keys);
      for (uint64_t K : Keys)
        O.erase(K);
      checkSetAgainstOracle(S, O, "multi_delete");
      break;
    }
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TYPED_TEST(DifferentialSetTest, RandomOpsMatchStdSet) {
  runSetEpisode<TypeParam>(test::seeded_rng(1));
}

/// Set-typed allocation chaos: same contract as the map episode, typed
/// over every block size and encoder (the gamma cursor path included).
template <class SetT> void runSetChaosEpisode(Rng R, uint64_t Salt) {
  fail::scoped_arm Arm("alloc.node",
                       "p=200/seed=" + std::to_string(Salt));
  SetT S;
  std::set<uint64_t> O;
  auto RandomKeys = [&](size_t N) {
    std::vector<uint64_t> Keys(N);
    for (auto &K : Keys)
      K = R.next(kUniverse);
    return Keys;
  };
  uint64_t Survived = 0, Died = 0;
  for (int Step = 0; Step < kSteps; ++Step) {
    try {
      switch (R.next(6)) {
      case 0: {
        uint64_t K = R.next(kUniverse);
        SetT Next = S.insert(K);
        S = std::move(Next);
        O.insert(K);
        break;
      }
      case 1: {
        uint64_t K = R.next(kUniverse);
        SetT Next = S.remove(K);
        S = std::move(Next);
        O.erase(K);
        break;
      }
      case 2: {
        auto Keys = RandomKeys(R.next(300));
        SetT Next = SetT::map_union(S, SetT(Keys));
        S = std::move(Next);
        O.insert(Keys.begin(), Keys.end());
        break;
      }
      case 3: {
        auto Keys = RandomKeys(R.next(300));
        SetT Next = SetT::map_difference(S, SetT(Keys));
        S = std::move(Next);
        for (uint64_t K : Keys)
          O.erase(K);
        break;
      }
      case 4: {
        auto Keys = RandomKeys(R.next(400));
        SetT Next = S.multi_insert(Keys);
        S = std::move(Next);
        O.insert(Keys.begin(), Keys.end());
        break;
      }
      default: {
        auto Keys = RandomKeys(R.next(400));
        SetT Next = S.multi_delete(Keys);
        S = std::move(Next);
        for (uint64_t K : Keys)
          O.erase(K);
        break;
      }
      }
      ++Survived;
      checkSetAgainstOracle(S, O, "chaos survivor");
    } catch (const std::bad_alloc &) {
      ++Died;
      checkSetAgainstOracle(S, O, "operand after injected failure");
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Survived, 0u) << "injection rate so high nothing completed";
  EXPECT_GT(fail::fires("alloc.node"), 0u)
      << "chaos episode never actually injected a failure";
  EXPECT_GT(Died, 0u) << "no op observed an injected allocation failure";
}

TYPED_TEST(DifferentialSetTest, AllocChaosLeavesOperandsIntact) {
  runSetChaosEpisode<TypeParam>(test::seeded_rng(77), 41);
}

//===----------------------------------------------------------------------===//
// Multi-leaf chunked outputs (small B included, diff and gamma included).
//===----------------------------------------------------------------------===//

/// Episodes sized so the flat x flat base cases and leaf splices routinely
/// emit results spanning many leaves through the chunked write path: a
/// large, mostly-disjoint key universe keeps union outputs near |A|+|B|
/// (at B = 8 a single base case then covers several chunks), and the
/// rebuild-then-multi_insert step streams batches of thousands of entries
/// against one flat root — dozens of sealed leaves from one cursor stream.
template <class SetT> void runMultiLeafEpisode(Rng R) {
  constexpr uint64_t Universe = 200000;
  SetT S;
  std::set<uint64_t> O;
  auto RandomKeys = [&R](size_t N, uint64_t Span) {
    std::vector<uint64_t> Keys(N);
    for (auto &K : Keys)
      K = R.next(Span);
    return Keys;
  };
  for (int Step = 0; Step < 16; ++Step) {
    switch (R.next(5)) {
    case 0: { // Union with a large, mostly-disjoint set.
      auto Keys = RandomKeys(500 + R.next(2000), Universe);
      S = SetT::map_union(S, SetT(Keys));
      O.insert(Keys.begin(), Keys.end());
      checkSetAgainstOracle(S, O, "multi-leaf union");
      break;
    }
    case 1: { // Rebuild tiny (one flat root), then splice a huge batch.
      auto Seed = RandomKeys(1 + R.next(10), Universe);
      auto Batch = RandomKeys(1500 + R.next(1500), Universe);
      S = SetT(Seed).multi_insert(Batch);
      O.clear();
      O.insert(Seed.begin(), Seed.end());
      O.insert(Batch.begin(), Batch.end());
      checkSetAgainstOracle(S, O, "multi-leaf multi_insert");
      break;
    }
    case 2: { // Difference against a random subset.
      auto Keys = RandomKeys(R.next(1000), Universe);
      S = SetT::map_difference(S, SetT(Keys));
      for (uint64_t K : Keys)
        O.erase(K);
      checkSetAgainstOracle(S, O, "multi-leaf difference");
      break;
    }
    case 3: { // multi_delete of a random half of the live keys.
      std::vector<uint64_t> Keys;
      for (uint64_t K : O)
        if (R.next(2))
          Keys.push_back(K);
      S = S.multi_delete(Keys);
      for (uint64_t K : Keys)
        O.erase(K);
      checkSetAgainstOracle(S, O, "multi-leaf multi_delete");
      break;
    }
    default: { // Intersect with a supersample of the live keys.
      auto Keys = RandomKeys(R.next(800), Universe);
      for (uint64_t K : O)
        if (R.next(4) != 0)
          Keys.push_back(K);
      std::set<uint64_t> OB(Keys.begin(), Keys.end());
      S = SetT::map_intersect(S, SetT(Keys));
      std::set<uint64_t> Kept;
      for (uint64_t K : O)
        if (OB.count(K))
          Kept.insert(K);
      O = std::move(Kept);
      checkSetAgainstOracle(S, O, "multi-leaf intersect");
      break;
    }
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TYPED_TEST(DifferentialSetTest, MultiLeafChunkedResults) {
  runMultiLeafEpisode<TypeParam>(test::seeded_rng(11));
}

//===----------------------------------------------------------------------===//
// Whole-operand base-case merges and scheduling determinism.
//===----------------------------------------------------------------------===//

/// Structural fingerprint of the whole tree: node kinds, sizes, child
/// shapes and (for flat nodes) exact encoded payload byte counts. Two
/// trees with equal fingerprints, sizes-in-bytes and node counts are
/// structurally identical down to the encoded blocks — the property the
/// determinism checks below compare across scheduling modes.
template <class SetT> uint64_t treeFingerprint(const SetT &S) {
  using ops = typename SetT::ops;
  using node_t = typename ops::node_t;
  struct Walk {
    uint64_t operator()(const node_t *T) const {
      if (!T)
        return 0x9e3779b97f4a7c15ULL;
      uint64_t H;
      if (ops::is_flat(T)) {
        const auto *F = static_cast<const typename ops::NL::flat_t *>(T);
        H = 0xff51afd7ed558ccdULL * (2 * T->Size + 1) + F->Bytes;
      } else {
        const auto *R = static_cast<const typename ops::NL::regular_t *>(T);
        H = (*this)(R->Left);
        H = H * 0xc4ceb9fe1a85ec53ULL + (*this)(R->Right);
        H = H * 0xff51afd7ed558ccdULL + 2 * T->Size;
      }
      return hash64(H);
    }
  };
  return Walk{}(S.root());
}

/// Drives every flattened base case with kappa raised, so whole operands
/// (thousands of entries) reach the single-worker array and stream merges.
/// Each op is checked three ways: contents against the std::set oracle,
/// the Def. 4.1 invariants, and structural identity between a run under
/// the real scheduler and the same code with every fork inlined
/// (par::set_sequential). The x1/x4/x16 ctest variants of this suite
/// re-run it, pinning the output trees at every thread count.
template <class SetT> void runBaseCaseMergeEpisode(Rng R) {
  using ops = typename SetT::ops;
  test::ValueGuard<size_t> GKappa(ops::kappa());
  ops::kappa() = size_t{1} << 20;
  constexpr uint64_t Universe = 300000;

  auto RandomKeys = [&R](size_t N) {
    std::vector<uint64_t> Keys(N);
    for (auto &K : Keys)
      K = R.next(Universe);
    return Keys;
  };
  // Runs the builder once under the real scheduler and once fork-inlined,
  // checks structural identity, and returns the scheduled build.
  auto CheckDeterminism = [](const char *What, auto &&Mk) {
    SetT Par = Mk();
    par::set_sequential(true);
    SetT Seq = Mk();
    par::set_sequential(false);
    EXPECT_EQ(treeFingerprint(Par), treeFingerprint(Seq))
        << What << ": merge output depends on scheduling";
    EXPECT_EQ(Par.size_in_bytes(), Seq.size_in_bytes()) << What;
    EXPECT_EQ(Par.node_count(), Seq.node_count()) << What;
    return Par;
  };

  std::vector<uint64_t> KA = RandomKeys(6000), KB = RandomKeys(5000);
  SetT SA(KA), SB(KB);
  std::set<uint64_t> OA(KA.begin(), KA.end()), OB(KB.begin(), KB.end());

  {
    SetT U = CheckDeterminism(
        "union", [&] { return SetT::map_union(SA, SB); });
    std::set<uint64_t> O = OA;
    O.insert(OB.begin(), OB.end());
    checkSetAgainstOracle(U, O, "base-case union");
  }
  {
    // Overlap half of SA's keys so the intersection is nonempty.
    std::vector<uint64_t> KC = KB;
    for (uint64_t K : KA)
      if (R.next(2))
        KC.push_back(K);
    SetT SC(KC);
    SetT I = CheckDeterminism(
        "intersect", [&] { return SetT::map_intersect(SA, SC); });
    std::set<uint64_t> OC(KC.begin(), KC.end()), O;
    for (uint64_t K : OA)
      if (OC.count(K))
        O.insert(K);
    checkSetAgainstOracle(I, O, "base-case intersect");
  }
  {
    SetT D = CheckDeterminism(
        "difference", [&] { return SetT::map_difference(SA, SB); });
    std::set<uint64_t> O;
    for (uint64_t K : OA)
      if (!OB.count(K))
        O.insert(K);
    checkSetAgainstOracle(D, O, "base-case difference");
  }
  {
    // A tiny root spliced with a batch that dwarfs it.
    auto Seed = RandomKeys(5);
    SetT Root(Seed);
    SetT M = CheckDeterminism(
        "multi_insert", [&] { return Root.multi_insert(KA); });
    std::set<uint64_t> O(Seed.begin(), Seed.end());
    O.insert(KA.begin(), KA.end());
    checkSetAgainstOracle(M, O, "base-case multi_insert");
  }
  {
    std::vector<uint64_t> Del;
    for (uint64_t K : OA)
      if (R.next(2))
        Del.push_back(K); // Sorted: OA iterates in key order.
    SetT M = CheckDeterminism(
        "multi_delete", [&] { return SA.multi_delete(Del); });
    std::set<uint64_t> O = OA;
    for (uint64_t K : Del)
      O.erase(K);
    checkSetAgainstOracle(M, O, "base-case multi_delete");
  }
}

TYPED_TEST(DifferentialSetTest, BaseCaseMergeMatchesInlineRunAndOracle) {
  runBaseCaseMergeEpisode<TypeParam>(test::seeded_rng(33));
  par::set_sequential(false);
}

/// The dense 50%-interleaved shape that regressed the streamed merge in
/// PR 5: even keys against odd-shifted keys, so the winner alternates
/// every entry and half the pairs collide. The run-length probe must
/// abandon streaming mid-merge on byte-coded types — asserted through the
/// fallback telemetry counter — and the result must still match the
/// oracle exactly.
TYPED_TEST(DifferentialSetTest, DenseInterleavedMergeTriggersRunFallback) {
  using ops = typename TypeParam::ops;
  test::ValueGuard<size_t> GKappa(ops::kappa());
  ops::kappa() = size_t{1} << 20;

  std::vector<uint64_t> A, B;
  for (uint64_t I = 0; I < 4000; ++I) {
    A.push_back(2 * I);
    B.push_back(2 * I + (I % 2 ? 0 : 1)); // 50% dups, 50% interleave.
  }
  // Start the telemetry from zero so this assertion counts only the
  // merges below — earlier episodes in the same process (other tests,
  // the fixture's own setup) cannot mask a fallback that never fires.
  std::atomic<uint64_t> &Fallbacks =
      obs::registry::get().raw_counter("merge.fallbacks");
  Fallbacks.store(0, std::memory_order_relaxed);
  TypeParam SA(A), SB(B);
  TypeParam U = TypeParam::map_union(SA, SB);
  std::set<uint64_t> O(A.begin(), A.end());
  O.insert(B.begin(), B.end());
  checkSetAgainstOracle(U, O, "dense-interleaved union");
  if constexpr (ops::leaf_writer::kCanStream) {
    EXPECT_GT(Fallbacks.load(std::memory_order_relaxed), 0u)
        << "run-length fallback never fired on a degenerate-run merge";
  }
}

//===----------------------------------------------------------------------===//
// Batches larger than the leaf they land in, at the default kappa().
//===----------------------------------------------------------------------===//

/// Batch keys past a tree's last key all land in its last leaf, so one
/// base case receives a batch much larger than itself. multi_insert then
/// builds the batch into a tree and unions it in; multi_delete filters the
/// subtree against the batch. Both run at the default kappa() on a flat
/// root (200 entries) and on a multi-leaf root (1000 entries <= kappa()),
/// for std::less and its std::greater twin. The combine is
/// non-commutative, so a swapped Op(batch, tree) fails the oracle.
template <class MapT> class BigBatchAtLeafTest : public test::LeakCheckTest {};

using BigBatchMapTypes = ::testing::Types<
    pam_map<uint64_t, uint64_t>,
    pam_map<uint64_t, uint64_t, 128, raw_encoder, std::greater<uint64_t>>>;
TYPED_TEST_SUITE(BigBatchAtLeafTest, BigBatchMapTypes);

/// Runs \p Mk under the real scheduler and fork-inlined, checks that the
/// two trees are structurally identical, and returns the scheduled one.
template <class MapT, class Mk>
MapT scheduledMatchesInline(const char *What, const Mk &Make) {
  MapT Par = Make();
  par::set_sequential(true);
  MapT Seq = Make();
  par::set_sequential(false);
  EXPECT_EQ(treeFingerprint(Par), treeFingerprint(Seq)) << What;
  EXPECT_EQ(Par.node_count(), Seq.node_count()) << What;
  return Par;
}

TYPED_TEST(BigBatchAtLeafTest, MultiInsertPastLastKey) {
  using MapT = TypeParam;
  using ops = typename MapT::ops;
  const bool Ascending = ops::key_less(1, 2);
  auto Combine = [](uint64_t Old, uint64_t New) { return Old * 31 + New; };
  for (size_t NTree : {200u, 1000u}) {
    SCOPED_TRACE("tree of " + std::to_string(NTree));
    // Tree keys 1e6 + 2i; batch keys run on past the tree's last key in
    // comparator order, plus every 40th tree key (overlaps).
    EntryVec TreeEntries, Batch;
    for (uint64_t I = 0; I < NTree; ++I)
      TreeEntries.push_back({1000000 + 2 * I, I + 1});
    for (uint64_t I = 0; I < 6000; ++I) {
      uint64_t K = Ascending ? 1000000 + 2 * NTree + I : 999999 - I;
      Batch.push_back({K, 7 * I + 3});
    }
    for (uint64_t I = 0; I < NTree; I += 40)
      Batch.push_back({1000000 + 2 * I, 5 * I + 11});
    MapT T(TreeEntries);
    ASSERT_LE(T.size(), ops::kappa());
    Oracle O(TreeEntries.begin(), TreeEntries.end());
    for (const auto &[K, V] : Batch) {
      auto [It, New] = O.emplace(K, V);
      if (!New)
        It->second = Combine(It->second, V);
    }
    MapT M = scheduledMatchesInline<MapT>(
        "multi_insert", [&] { return T.multi_insert(Batch, Combine); });
    EntryVec Want(O.begin(), O.end());
    if (!Ascending)
      std::reverse(Want.begin(), Want.end());
    ASSERT_EQ(M.check_invariants(), "");
    ASSERT_EQ(M.to_vector(), Want);
  }
}

TYPED_TEST(BigBatchAtLeafTest, MultiDeleteMostlyAbsentKeys) {
  using MapT = TypeParam;
  using ops = typename MapT::ops;
  const bool Ascending = ops::key_less(1, 2);
  for (size_t NTree : {200u, 1000u}) {
    SCOPED_TRACE("tree of " + std::to_string(NTree));
    EntryVec TreeEntries;
    for (uint64_t I = 0; I < NTree; ++I)
      TreeEntries.push_back({1000000 + 2 * I, I + 1});
    // 50k keys: odd keys between the tree's (absent), keys past its last
    // key (absent), and every third tree key (present).
    std::vector<uint64_t> Del;
    for (uint64_t I = 0; I < NTree; ++I)
      Del.push_back(1000000 + 2 * I + 1);
    for (uint64_t I = 0; Del.size() < 50000; ++I)
      Del.push_back(Ascending ? 1000000 + 2 * NTree + I : 999999 - I);
    Oracle O(TreeEntries.begin(), TreeEntries.end());
    for (uint64_t I = 0; I < NTree; I += 3) {
      Del.push_back(1000000 + 2 * I);
      O.erase(1000000 + 2 * I);
    }
    MapT T(TreeEntries);
    ASSERT_LE(T.size(), ops::kappa());
    MapT M = scheduledMatchesInline<MapT>(
        "multi_delete", [&] { return T.multi_delete(Del); });
    EntryVec Want(O.begin(), O.end());
    if (!Ascending)
      std::reverse(Want.begin(), Want.end());
    ASSERT_EQ(M.check_invariants(), "");
    ASSERT_EQ(M.to_vector(), Want);
  }
}

} // namespace
