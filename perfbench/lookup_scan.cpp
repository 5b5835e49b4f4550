//===- lookup_scan.cpp - Read-only queries over a large static snapshot ---===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Closed loop over one diff-encoded augmented map, larger than the L3
// cache, on all scheduler workers. Each round: point finds (90% present
// keys, 10% absent) issued as requests of 16, aug_range sums over ~1k-key
// windows, and one full map_reduce. Exercises the diff decode path and
// tree search; allocates nothing while measuring, so it is the bypass case
// for the allocator and the merge code.
//
// Keys are a jittered grid: the i-th key is 8i + h(i) mod 8, a sample of
// [0, 8n) with one key per stride of 8, so every delta fits in one byte.
// The i-th value is A*i + B (mod 2^64). Both are functions of the rank i,
// which makes the oracle a closed-form prefix sum over the implicit
// sorted key vector instead of n stored words.
//
//===----------------------------------------------------------------------===//

#include <optional>

#include "perfbench/common.h"
#include "src/api/aug_map.h"

namespace perfbench {
namespace {

using lmap = cpam::aug_map<cpam::aug_sum_entry<uint64_t, uint64_t>, 128,
                           cpam::diff_encoder>;
using entry_t = lmap::entry_t;

struct keyspace {
  uint64_t N, Seed, A, B;
  keyspace(uint64_t N, uint64_t Seed)
      : N(N), Seed(Seed), A(mix64(Seed ^ 0xA11) | 1), B(mix64(Seed ^ 0xB22)) {}
  uint64_t offset(uint64_t I) const { return mix64(Seed * 0x9E37 + I) & 7; }
  uint64_t key(uint64_t I) const { return 8 * I + offset(I); }
  /// A key inside stride I that is not in the map.
  uint64_t absent(uint64_t I, uint64_t R) const {
    return 8 * I + ((offset(I) + 1 + R % 7) & 7);
  }
  uint64_t val(uint64_t I) const { return A * I + B; }
  /// Sum of val(I) for I in [Lo, Hi], mod 2^64.
  uint64_t sum(uint64_t Lo, uint64_t Hi) const {
    unsigned __int128 Cnt = Hi - Lo + 1;
    unsigned __int128 Idx = (static_cast<unsigned __int128>(Lo) + Hi) * Cnt / 2;
    return static_cast<uint64_t>(A * static_cast<uint64_t>(Idx) +
                                 B * static_cast<uint64_t>(Cnt));
  }
};

struct sizes {
  uint64_t N;       ///< Entries in the map.
  size_t Requests;  ///< Find requests (of 16 finds) per round.
  size_t Ranges;    ///< aug_range calls per round.
};

constexpr int kFindsPerRequest = 16;

struct round_out {
  double FindMops, RangeMops, ScanMentries;
  pcts Request, Range; ///< Find-request and aug_range latency, us.
};

class lookup_scan {
public:
  lookup_scan(const config &C, result &Res)
      : C(C), Res(Res),
        S(C.Smoke ? sizes{20000, 512, 256} : sizes{40000000, 65536, 131072}),
        K(S.N, C.Seed) {}

  void setup() {
    M = lmap();
    std::vector<entry_t> E(S.N);
    cpam::par::parallel_for(0, S.N, [&](size_t I) {
      E[I] = entry_t(K.key(I), K.val(I));
    });
    M = lmap::from_sorted(std::move(E));
    // Warm-up: a short pass over every operation kind, untimed.
    one_round(/*Round=*/~0ull, S.Requests / 8, S.Ranges / 8);
  }

  void run() {
    std::vector<round_out> Plain, Traced;
    run_rounds(
        C, Res, /*MaxTraced=*/6, /*MinRounds=*/3,
        [&](uint64_t Round) { return one_round(Round, S.Requests, S.Ranges); },
        Plain, Traced);

    double Find = median_over(Plain, [](auto &R) { return R.FindMops; });
    double Range = median_over(Plain, [](auto &R) { return R.RangeMops; });
    double Scan = median_over(Plain, [](auto &R) { return R.ScanMentries; });
    Res.e2e("op1_mops", Find);
    Res.e2e("op2_mops", Range);
    Res.e2e("op3_mops", Scan);
    double L1p50 = median_over(Plain, [](auto &R) { return R.Request.P50; });
    double L1p99 = median_over(Plain, [](auto &R) { return R.Request.P99; });
    double L2p50 = median_over(Plain, [](auto &R) { return R.Range.P50; });
    double L2p90 = median_over(Plain, [](auto &R) { return R.Range.P90; });
    Res.e2e("lat1_p50_us", L1p50);
    Res.e2e("lat1_p99_us", L1p99);
    Res.e2e("lat2_p50_us", L2p50);
    Res.named("find_mops", Find, "Mop/s");
    Res.named("range_mops", Range, "Mop/s");
    Res.named("scan_mentries_s", Scan, "Mentries/s");
    Res.named("find_request_p50_us", L1p50, "us");
    Res.named("find_request_p99_us", L1p99, "us");
    Res.named("aug_range_p50_us", L2p50, "us");
    Res.named("aug_range_p90_us", L2p90, "us");
    Res.named("rounds", static_cast<double>(Plain.size()), "count");
    Res.named("n", static_cast<double>(S.N), "entries");

    if (C.Trace) {
      Res.layer("bench.trace_overhead_frac",
                1 - median_over(Traced, [](auto &R) { return R.FindMops; }) /
                        Find);
      Res.layer("alloc.live_mb", live_mb());
      Res.layer("alloc.resident_ratio",
                cpam::alloc_stats::live_byte_count() / rss_bytes());
      Res.layer("core.nodes_per_kentry",
                1e3 * M.node_count() / static_cast<double>(M.size()));
      Res.layer("bench.generator_late_ms_p99", 0);
      probe_encoding();
    }
  }

  double bytes_per_entry() const {
    return static_cast<double>(M.size_in_bytes()) / M.size();
  }
  void drop() { M = lmap(); }

private:
  round_out one_round(uint64_t Round, size_t Requests, size_t Ranges) {
    const lmap &Map = M;
    round_out Out{};
    std::vector<double> L1, L2;

    std::vector<uint32_t> Lat(std::max(Requests, Ranges));
    std::vector<uint8_t> Bad(std::max(Requests, Ranges));
    double T0 = now_s();
    cpam::par::parallel_for(0, Requests, [&](size_t Q) {
      rng G(C.Seed, Round * 0x100000001ull + Q);
      uint64_t Start = cpam::obs::now_ns();
      int Wrong = 0;
      for (int J = 0; J < kFindsPerRequest; ++J) {
        uint64_t R = G.next();
        uint64_t I = (R >> 8) % S.N;
        bool Present = (R & 0xFF) < 230; // 90%
        std::optional<uint64_t> V;
        if (J == 0 && Q % 16 == 0) {
          cpam::obs::trace::span Sp("core.find", "bench");
          V = Map.find(Present ? K.key(I) : K.absent(I, R >> 32));
        } else {
          V = Map.find(Present ? K.key(I) : K.absent(I, R >> 32));
        }
        Wrong += Present ? !(V && *V == K.val(I)) : V.has_value();
      }
      Lat[Q] = static_cast<uint32_t>(cpam::obs::now_ns() - Start);
      Bad[Q] = static_cast<uint8_t>(Wrong);
    });
    double T1 = now_s();
    Out.FindMops = Requests * kFindsPerRequest / (T1 - T0) / 1e6;
    uint64_t Wrong = 0;
    for (size_t Q = 0; Q < Requests; ++Q) {
      L1.push_back(Lat[Q] * 1e-3);
      Wrong += Bad[Q];
    }
    Out.Request = percentiles(L1);
    Res.Attempted += Requests * kFindsPerRequest;
    Res.fail("lookup_scan: find answered wrong", Wrong);

    // Ranges [8a, 8b+7] hold exactly the keys of ranks a..b.
    auto Window = [&](size_t Q, uint64_t &A, uint64_t &B) {
      rng G(C.Seed ^ 0x5CA7, Round * 0x100000001ull + Q);
      uint64_t W = std::min<uint64_t>(S.N, 960 + G.below(129));
      A = G.below(S.N - W + 1);
      B = A + W - 1;
    };
    std::vector<uint64_t> Sums(Ranges);
    T0 = now_s();
    cpam::par::parallel_for(0, Ranges, [&](size_t Q) {
      uint64_t A, B;
      Window(Q, A, B);
      uint64_t Start = cpam::obs::now_ns();
      if (Q % 64 == 0) {
        cpam::obs::trace::span Sp("core.aug_range", "bench");
        Sums[Q] = Map.aug_range(8 * A, 8 * B + 7);
      } else {
        Sums[Q] = Map.aug_range(8 * A, 8 * B + 7);
      }
      Lat[Q] = static_cast<uint32_t>(cpam::obs::now_ns() - Start);
    });
    T1 = now_s();
    Out.RangeMops = Ranges / (T1 - T0) / 1e6;
    Wrong = 0;
    for (size_t Q = 0; Q < Ranges; ++Q) {
      uint64_t A, B;
      Window(Q, A, B);
      Wrong += Sums[Q] != K.sum(A, B);
      L2.push_back(Lat[Q] * 1e-3);
    }
    Out.Range = percentiles(L2);
    Res.Attempted += Ranges;
    Res.fail("lookup_scan: aug_range sum wrong", Wrong);

    T0 = now_s();
    uint64_t Total = Map.map_reduce(
        [](const entry_t &E) { return E.second; }, uint64_t(0),
        [](uint64_t X, uint64_t Y) { return X + Y; });
    T1 = now_s();
    Out.ScanMentries = S.N / (T1 - T0) / 1e6;
    Res.Attempted += 1;
    Res.fail("lookup_scan: map_reduce sum wrong",
             Total != K.sum(0, S.N - 1) ? 1 : 0);
    return Out;
  }

  void probe_encoding() {
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Blocks(1024);
    rng G(C.Seed, 0xE2C);
    for (auto &B : Blocks) {
      uint64_t Lo = G.below(S.N - 128 + 1);
      for (uint64_t I = Lo; I < Lo + 128; ++I)
        B.emplace_back(K.key(I), K.val(I));
    }
    encoding_probe</*WorkloadIsDiff=*/true>(Blocks, Res);
  }

  const config &C;
  result &Res;
  sizes S;
  keyspace K;
  lmap M;
};

} // namespace

result run_lookup_scan(const config &C) {
  return run_workload<lookup_scan>(C, "lookup_scan");
}

} // namespace perfbench
