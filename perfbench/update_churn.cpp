//===- update_churn.cpp - Write-heavy persistent batch updates ------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Closed loop over a raw-encoded pam_map that fits in L3, on all scheduler
// workers. Each round builds a new version from the last one with
// multi_insert (n/8 unsorted entries, some keys repeated or already
// present), multi_delete (n/8 keys, half present) and map_union with a
// fixed n/2 map, then checks the version: its size against a sorted-vector
// oracle and 16-find requests against the oracle's entries. The last two
// versions stay alive as snapshots, so rounds share and free nodes.
// Exercises the merge code, allocator churn and fine-grained forks; raw
// encoding keeps the diff kernels out of it.
//
// Every value is a function of its key and the round that wrote it, so
// duplicate keys within one batch carry equal values and the oracle never
// depends on the order duplicates are combined in.
//
//===----------------------------------------------------------------------===//

#include <deque>
#include <optional>
#include <span>
#include <type_traits>

#include "perfbench/common.h"
#include "src/api/pam_map.h"

namespace perfbench {
namespace {

using umap = cpam::pam_map<uint64_t, uint64_t>;
using entry_t = umap::entry_t;
using oracle_t = std::vector<entry_t>;

constexpr int kFindsPerRequest = 16;
/// The gated figures are medians over this many untraced rounds, the first
/// of the run, and peak_rss_mb is read after them. The node pool grows by
/// ~8 MB a round while live bytes stay flat, and rounds slow down as the
/// run goes on, so figures over all the rounds of a timed run would depend
/// on how many rounds a commit fits into it.
constexpr uint64_t kMeasuredRounds = 64;
/// The "round" that writes the union operand's values: entries the last
/// union wrote are recognisable by value alone.
constexpr uint64_t kUnionRound = 0xFFFF;

uint64_t value_of(uint64_t Key, uint64_t Round) {
  return mix64(Key * 31 + Round);
}

bool key_less(const entry_t &A, const entry_t &B) { return A.first < B.first; }

/// Sorted, distinct-key copy of \p V (equal keys carry equal values).
oracle_t sorted_unique(std::vector<entry_t> V) {
  cpam::par::sort(V, key_less);
  V.erase(std::unique(V.begin(), V.end(),
                      [](const entry_t &A, const entry_t &B) {
                        return A.first == B.first;
                      }),
          V.end());
  return V;
}

/// The oracle after one round: ((A ∪ Ins) \ Del) ∪ U, where the right
/// operand's value wins on equal keys. All inputs sorted with distinct
/// keys; one merge pass, appended to \p Out.
void next_oracle(std::span<const entry_t> A, std::span<const entry_t> Ins,
                 std::span<const uint64_t> Del, std::span<const entry_t> U,
                 oracle_t &Out) {
  size_t I = 0, J = 0, D = 0, X = 0;
  constexpr uint64_t kEnd = ~uint64_t(0);
  auto KeyOf = [&](std::span<const entry_t> V, size_t P) {
    return P < V.size() ? V[P].first : kEnd;
  };
  for (;;) {
    uint64_t K = std::min({KeyOf(A, I), KeyOf(Ins, J), KeyOf(U, X)});
    if (K == kEnd)
      break;
    while (D < Del.size() && Del[D] < K)
      ++D;
    bool Deleted = D < Del.size() && Del[D] == K;
    if (KeyOf(U, X) == K)
      Out.push_back(U[X]);
    else if (Deleted)
      ;
    else if (KeyOf(Ins, J) == K)
      Out.push_back(Ins[J]);
    else
      Out.push_back(A[I]);
    I += KeyOf(A, I) == K;
    J += KeyOf(Ins, J) == K;
    X += KeyOf(U, X) == K;
  }
}

/// next_oracle split into key ranges at quantiles of \p A and merged in
/// parallel; \p Parts and \p Out keep their capacity across rounds.
void next_oracle_par(const oracle_t &A, const oracle_t &Ins,
                     const std::vector<uint64_t> &Del, const oracle_t &U,
                     std::vector<oracle_t> &Parts, oracle_t &Out) {
  const size_t P = Parts.size();
  std::vector<uint64_t> Bound(P + 1, 0);
  Bound[P] = ~uint64_t(0);
  for (size_t I = 1; I < P; ++I)
    Bound[I] = A.empty() ? 0 : A[I * A.size() / P].first;
  auto Slice = [&](const auto &V, size_t I) {
    auto KeyLess = [](const auto &E, uint64_t K) {
      if constexpr (std::is_same_v<std::decay_t<decltype(E)>, uint64_t>)
        return E < K;
      else
        return E.first < K;
    };
    auto Lo = std::lower_bound(V.begin(), V.end(), Bound[I], KeyLess);
    auto Hi = I + 1 == P ? V.end()
                         : std::lower_bound(V.begin(), V.end(), Bound[I + 1],
                                            KeyLess);
    return std::span(Lo, Hi);
  };
  cpam::par::parallel_for(
      0, P,
      [&](size_t I) {
        Parts[I].clear();
        next_oracle(Slice(A, I), Slice(Ins, I), Slice(Del, I), Slice(U, I),
                    Parts[I]);
      },
      1);
  std::vector<size_t> Offset(P + 1, 0);
  for (size_t I = 0; I < P; ++I)
    Offset[I + 1] = Offset[I] + Parts[I].size();
  Out.resize(Offset[P]);
  cpam::par::parallel_for(
      0, P,
      [&](size_t I) {
        std::copy(Parts[I].begin(), Parts[I].end(), Out.begin() + Offset[I]);
      },
      1);
}

struct round_out {
  double Insert, Delete, Union, RoundUs;
  pcts Request, PointInsert; ///< Check-request and point-insert latency, us.
};

class update_churn {
public:
  update_churn(const config &C, result &Res)
      : C(C), Res(Res), N(C.Smoke ? 20000 : 4000000) {
    Oracle = sorted_unique(initial());
    UOracle = sorted_unique(union_operand());
  }

  void setup() {
    Live.clear();
    Live.emplace_back(initial());
    U = umap(union_operand());
    // Warm-up: each batch operation once, results discarded.
    const umap &V0 = Live.back();
    umap A = V0.multi_insert(insert_batch(~0ull));
    umap B = V0.multi_delete(delete_batch(~0ull));
    umap D = umap::map_union(V0, U);
    NodesPerK = 1e3 * V0.node_count() / static_cast<double>(V0.size());
  }

  double bytes_per_entry() const {
    return static_cast<double>(Live.back().size_in_bytes()) /
           Live.back().size();
  }

  void run() {
    std::vector<round_out> Plain, Traced;
    const uint64_t Measured = C.Smoke ? 3 : kMeasuredRounds;
    run_rounds(
        C, Res, /*MaxTraced=*/8, /*MinRounds=*/Measured,
        [&](uint64_t Round) {
          round_out Out = one_round(Round);
          if (Round + 1 == Measured)
            Res.PeakRssMb = peak_rss_mb();
          return Out;
        },
        Plain, Traced);
    const std::vector<round_out> First(Plain.begin(),
                                       Plain.begin() + Measured);

    // Final gate: full equality with the oracle and the tree invariants.
    const umap &Last = Live.back();
    Res.Attempted += 1;
    if (Last.to_vector() != Oracle)
      Res.fail("update_churn: final map differs from the oracle");
    if (std::string Why = Last.check_invariants(); !Why.empty())
      Res.fail("update_churn: invariants: " + Why);

    double Ins = median_over(First, [](auto &R) { return R.Insert; });
    double Del = median_over(First, [](auto &R) { return R.Delete; });
    double Uni = median_over(First, [](auto &R) { return R.Union; });
    Res.e2e("op1_mops", Ins);
    Res.e2e("op2_mops", Del);
    Res.e2e("op3_mops", Uni);
    double L1p50 = median_over(First, [](auto &R) { return R.Request.P50; });
    double L1p99 = median_over(First, [](auto &R) { return R.Request.P99; });
    double L2p50 =
        median_over(First, [](auto &R) { return R.PointInsert.P50; });
    double L2p90 =
        median_over(First, [](auto &R) { return R.PointInsert.P90; });
    Res.e2e("lat1_p50_us", L1p50);
    Res.e2e("lat1_p99_us", L1p99);
    Res.e2e("lat2_p50_us", L2p50);
    Res.named("insert_mentries_s", Ins, "Mentries/s");
    Res.named("delete_mentries_s", Del, "Mentries/s");
    Res.named("union_mentries_s", Uni, "Mentries/s");
    Res.named("check_request_p50_us", L1p50, "us");
    Res.named("check_request_p99_us", L1p99, "us");
    Res.named("point_insert_p50_us", L2p50, "us");
    Res.named("point_insert_p90_us", L2p90, "us");
    Res.named("round_p50_ms",
              median_over(First, [](auto &R) { return R.RoundUs; }) * 1e-3,
              "ms");
    Res.named("rounds", static_cast<double>(Plain.size()), "count");
    Res.named("peak_rss_end_mb", peak_rss_mb(), "MB");
    Res.named("n", static_cast<double>(N), "entries");

    if (C.Trace) {
      Res.layer("bench.trace_overhead_frac",
                1 - median_over(Traced, [](auto &R) { return R.Insert; }) /
                        Ins);
      Res.layer("alloc.live_mb", live_mb());
      Res.layer("alloc.resident_ratio",
                cpam::alloc_stats::live_byte_count() / rss_bytes());
      Res.layer("bench.generator_late_ms_p99", 0);
      Res.layer("core.nodes_per_kentry", NodesPerK);
      probe_encoding();
    }
  }

  void drop() {
    Live.clear();
    U = umap();
  }

private:
  // The initial and union key streams start from bases hashed from the
  // seed, so they share no input whatever the seed (bases linear in the
  // seed overlap for small seeds, and the union then adds few keys).
  std::vector<entry_t> initial() const {
    std::vector<entry_t> E(N);
    const uint64_t Base = mix64(C.Seed ^ 0x51ED);
    cpam::par::parallel_for(0, N, [&](size_t I) {
      uint64_t K = mix64(Base + I) >> 24; // 40-bit keys
      E[I] = entry_t(K, value_of(K, 0));
    });
    return E;
  }

  std::vector<entry_t> union_operand() const {
    std::vector<entry_t> E(N / 2);
    const uint64_t Base = mix64(C.Seed ^ 0x0B1D);
    cpam::par::parallel_for(0, N / 2, [&](size_t I) {
      uint64_t K = mix64(Base + I) >> 24;
      E[I] = entry_t(K, value_of(K, kUnionRound));
    });
    return E;
  }

  /// n/8 entries: 3/8 overwrite present keys, 1/8 repeat a fresh key of
  /// the batch, 1/2 are fresh. With delete_batch this keeps the map's
  /// size steady: n/16 fresh keys in, n/16 present keys out per round.
  std::vector<entry_t> insert_batch(uint64_t Round) const {
    std::vector<entry_t> B(N / 8);
    auto Fresh = [&](size_t J) {
      return mix64(mix64(C.Seed ^ mix64(Round)) ^ J) >> 24;
    };
    cpam::par::parallel_for(0, B.size(), [&](size_t J) {
      rng G(C.Seed ^ 0x1A5, Round * 0x100000001ull + J);
      uint64_t K;
      if (J % 8 < 3)
        K = Oracle[G.below(Oracle.size())].first;
      else if (J % 8 == 3)
        K = Fresh(J + 1 < B.size() ? J + 1 : J); // J + 1 is fresh
      else
        K = Fresh(J);
      B[J] = entry_t(K, value_of(K, Round));
    });
    return B;
  }

  /// n/8 keys: half present and outside the union operand (which would
  /// put them back), half random.
  std::vector<uint64_t> delete_batch(uint64_t Round) const {
    std::vector<uint64_t> K(N / 8);
    cpam::par::parallel_for(0, K.size(), [&](size_t J) {
      rng G(C.Seed ^ 0xDE1, Round * 0x100000001ull + J);
      if (J % 2 == 0) {
        K[J] = G.next() >> 24;
        return;
      }
      for (;;) {
        const entry_t &E = Oracle[G.below(Oracle.size())];
        K[J] = E.first;
        if (E.second != value_of(E.first, kUnionRound))
          return;
      }
    });
    return K;
  }

  round_out one_round(uint64_t Round) {
    std::vector<entry_t> Ins = insert_batch(Round);
    std::vector<uint64_t> Del = delete_batch(Round);
    oracle_t InsSorted = sorted_unique(Ins);
    std::vector<uint64_t> DelSorted = Del;
    cpam::par::sort(DelSorted);
    DelSorted.erase(std::unique(DelSorted.begin(), DelSorted.end()),
                    DelSorted.end());
    const size_t NIns = Ins.size(), NDel = Del.size();

    round_out Out{};
    const umap &V0 = Live.back();
    double T0 = now_s();
    umap V1, V2, V3;
    {
      cpam::obs::trace::span Sp("core.multi_insert", "bench");
      V1 = V0.multi_insert(std::move(Ins));
    }
    double T1 = now_s();
    {
      cpam::obs::trace::span Sp("core.multi_delete", "bench");
      V2 = V1.multi_delete(std::move(Del));
    }
    double T2 = now_s();
    const size_t UnionIn = V2.size() + U.size();
    {
      cpam::obs::trace::span Sp("core.union", "bench");
      V3 = umap::map_union(V2, U);
    }
    double T3 = now_s();
    V1 = umap();
    V2 = umap();
    Live.push_back(std::move(V3));
    while (Live.size() > 2)
      Live.pop_front();
    Out.Insert = NIns / (T1 - T0) / 1e6;
    Out.Delete = NDel / (T2 - T1) / 1e6;
    Out.Union = UnionIn / (T3 - T2) / 1e6;
    Out.RoundUs = (T3 - T0) * 1e6;

    next_oracle_par(Oracle, InsSorted, DelSorted, UOracle, Parts, Spare);
    Oracle.swap(Spare);
    const umap &V = Live.back();
    Res.Attempted += 3;
    if (V.size() != Oracle.size())
      Res.fail("update_churn: size differs from the oracle");
    Out.Request = check_finds(V, Round);
    Out.PointInsert = check_point_inserts(V, Round);
    return Out;
  }

  /// Single-key persistent inserts of fresh keys into the new version,
  /// each timed and dropped: the latency of one small update on a shared,
  /// churned tree.
  pcts check_point_inserts(const umap &V, uint64_t Round) {
    const size_t Inserts = C.Smoke ? 64 : 2048;
    std::vector<uint32_t> Lat(Inserts);
    std::vector<uint8_t> Bad(Inserts);
    cpam::par::parallel_for(0, Inserts, [&](size_t Q) {
      rng G(C.Seed ^ 0x1E5, Round * 0x100000001ull + Q);
      uint64_t K = G.next() >> 24, Val = G.next();
      uint64_t Start = cpam::obs::now_ns();
      umap X = V.insert(K, Val);
      Lat[Q] = static_cast<uint32_t>(cpam::obs::now_ns() - Start);
      std::optional<uint64_t> Got = X.find(K);
      Bad[Q] = !Got || *Got != Val || X.size() < V.size() ||
               X.size() > V.size() + 1;
    });
    uint64_t Wrong = 0;
    std::vector<double> L;
    for (size_t Q = 0; Q < Inserts; ++Q) {
      L.push_back(Lat[Q] * 1e-3);
      Wrong += Bad[Q];
    }
    Res.Attempted += Inserts;
    Res.fail("update_churn: point insert answered wrong", Wrong);
    return percentiles(L);
  }

  /// 16-find requests against the new version: 90% oracle keys (value
  /// must match), 10% random keys (answer must match the oracle).
  pcts check_finds(const umap &V, uint64_t Round) {
    const size_t Requests = C.Smoke ? 64 : 2048;
    std::vector<uint32_t> Lat(Requests);
    std::vector<uint8_t> Bad(Requests);
    cpam::par::parallel_for(0, Requests, [&](size_t Q) {
      rng G(C.Seed ^ 0xF1D, Round * 0x100000001ull + Q);
      int Wrong = 0;
      uint64_t Start = cpam::obs::now_ns();
      for (int J = 0; J < kFindsPerRequest; ++J) {
        uint64_t R = G.next();
        entry_t Want;
        bool Present;
        if ((R & 0xFF) < 230) {
          Want = Oracle[G.below(Oracle.size())];
          Present = true;
        } else {
          Want.first = G.next() >> 24;
          auto It = std::lower_bound(Oracle.begin(), Oracle.end(), Want,
                                     key_less);
          Present = It != Oracle.end() && It->first == Want.first;
          if (Present)
            Want.second = It->second;
        }
        std::optional<uint64_t> Got = V.find(Want.first);
        Wrong += Present ? !(Got && *Got == Want.second) : Got.has_value();
      }
      Lat[Q] = static_cast<uint32_t>(cpam::obs::now_ns() - Start);
      Bad[Q] = static_cast<uint8_t>(Wrong);
    });
    uint64_t Wrong = 0;
    std::vector<double> L;
    for (size_t Q = 0; Q < Requests; ++Q) {
      L.push_back(Lat[Q] * 1e-3);
      Wrong += Bad[Q];
    }
    Res.Attempted += Requests * kFindsPerRequest;
    Res.fail("update_churn: find answered wrong", Wrong);
    return percentiles(L);
  }

  void probe_encoding() {
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Blocks(1024);
    rng G(C.Seed, 0xE2C);
    for (auto &B : Blocks) {
      size_t Lo = G.below(Oracle.size() - 128 + 1);
      B.assign(Oracle.begin() + Lo, Oracle.begin() + Lo + 128);
    }
    encoding_probe</*WorkloadIsDiff=*/false>(Blocks, Res);
  }

  const config &C;
  result &Res;
  const size_t N;
  double NodesPerK = 0;
  oracle_t Oracle, UOracle, Spare;
  std::vector<oracle_t> Parts = std::vector<oracle_t>(8);
  std::deque<umap> Live;
  umap U;
};

} // namespace

result run_update_churn(const config &C) {
  return run_workload<update_churn>(C, "update_churn");
}

} // namespace perfbench
