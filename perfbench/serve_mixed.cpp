//===- serve_mixed.cpp - Reads beside open-loop writes through serving ----===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A version_chain + ingest_pipeline (RejectNewest) over a diff-encoded
// pam_map. The main thread submits upserts open loop at a fixed offered
// rate; two reader threads run closed loop, each request an acquire() plus
// 16 point finds. Writer and readers are foreign threads to the scheduler,
// so their tree operations run inline: this is the bypass case for the
// parallel layer, and the one workload that drives the serving layer and
// diff encoding of small splices.
//
// Key space by residue mod 4: the initial keys are 0 (16i + 4*h(i)), new
// upsert keys 1, absent probe keys 2. A value is (key << 24 | tag), so a
// reader can check that any value it finds belongs to its key whichever
// version it reads. The tag is 0 for an initial entry and the upsert's
// submit number (from 1, across the run) otherwise. The writer applies a
// batch with a combine op that keeps the larger tag, so when one batch
// holds two upserts of a key the later one wins: multi_insert's own
// order for in-batch duplicates is not reliable, because it sorts the
// batch with an unstable sort (see README.md).
//
//===----------------------------------------------------------------------===//

#include <sched.h>

#include <atomic>
#include <optional>
#include <thread>

#include "perfbench/common.h"
#include "src/api/pam_map.h"
#include "src/serving/version_chain.h"

namespace perfbench {
namespace {

using smap = cpam::pam_map<uint64_t, uint64_t, 128, cpam::diff_encoder>;
using entry_t = smap::entry_t;
using pipeline_t = cpam::serving::ingest_pipeline<smap, entry_t>;

/// Offered upsert rate, fixed. At the commit that defined this benchmark
/// the writer applied ~80-100k upserts per second of apply time in the
/// small batches this rate produces (`op3_mops`, apply_capacity_mentries_s,
/// which every run re-measures): this is about half of that. At 100k/s the
/// writer flipped between a busy and a sleeping regime from second to
/// second (see README.md).
constexpr double kOfferedRate = 50000;
constexpr int kReaders = 2;
constexpr int kFindsPerQuery = 16;
constexpr uint64_t kTagMask = (uint64_t(1) << 24) - 1;

/// Combine op of the writer: of two values of one key, the newer upsert.
struct newest {
  uint64_t operator()(uint64_t A, uint64_t B) const {
    return (A & kTagMask) > (B & kTagMask) ? A : B;
  }
};
/// Batches in the traced window: the writer's trace ring records four
/// spans per batch and holds 16384 events before it wraps.
constexpr uint64_t kTracedBatches = 3000;

struct window_out {
  double Seconds = 0;
  uint64_t Queries = 0;
  uint64_t Submitted = 0, Accepted = 0;
  by_second QueryUs, VisibleUs;
  std::vector<double> LateUs, ApplyUs;
  /// Per second of the window: entries applied, and apply time in us.
  std::vector<double> SecEntries, SecApplyUs;
  pipeline_t::stats_t Stats;
};

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t Set;
  std::vector<int> Out;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int I = 0; I < CPU_SETSIZE; ++I)
      if (CPU_ISSET(I, &Set))
        Out.push_back(I);
  return Out;
}

/// Restricts the calling thread to \p Cpu (best effort).
void pin_self(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

class serve_mixed {
public:
  serve_mixed(const config &C, result &Res)
      : C(C), Res(Res), N(C.Smoke ? 20000 : 2000000),
        Rate(C.Smoke ? 20000 : kOfferedRate) {}

  uint64_t key(uint64_t I) const {
    return 16 * I + 4 * (mix64(C.Seed * 0x5E4 + I) & 3);
  }

  void setup() {
    Chain.reset();
    std::vector<entry_t> E(N);
    cpam::par::parallel_for(0, N, [&](size_t I) {
      E[I] = entry_t(key(I), key(I) << 24);
    });
    smap M = smap::from_sorted(std::move(E));
    // Warm-up: small upsert batches and finds, results discarded.
    rng G(C.Seed, 0x3A53);
    for (int R = 0; R < 8; ++R) {
      std::vector<entry_t> B(4096);
      for (entry_t &X : B) {
        uint64_t K = key(G.below(N)) + 1;
        X = entry_t(K, K << 24);
      }
      smap Tmp = M.multi_insert(std::move(B));
      for (int J = 0; J < 4096; ++J)
        (void)Tmp.find(key(G.below(N)));
    }
    Bytes = static_cast<double>(M.size_in_bytes()) / M.size();
    NodesPerK = 1e3 * M.node_count() / static_cast<double>(M.size());
    Chain.emplace(std::move(M));
  }

  /// Runs readers and the open-loop writer (RejectNewest) for \p Seconds,
  /// or until the writer has published \p MaxBatches versions.
  window_out offered(double Seconds, uint64_t MaxBatches = ~uint64_t(0)) {
    window_out W;
    const size_t Cap = static_cast<size_t>(Rate * Seconds * 1.1) + 4096;
    const uint64_t Window = Windows++;
    // With four CPUs or more, the two readers, the generator and the
    // writer each run on a CPU of their own. Left to the OS, where the
    // four busy threads land decides how long the writer waits for a CPU,
    // and that changes from run to run.
    const std::vector<int> Cpus = allowed_cpus();
    const bool Pin = Cpus.size() >= kReaders + 2;
    cpu_set_t MainMask;
    sched_getaffinity(0, sizeof(MainMask), &MainMask);
    bool WriterPinned = false;
    std::vector<uint64_t> Due(Cap);
    std::vector<double> ApplyUs;
    // Reserved up front: a reallocation in the generator would stall it.
    W.LateUs.reserve(Cap);
    Log.reserve(Log.size() + Cap);
    const uint64_t Start = cpam::obs::now_ns();
    by_second VisibleUs(Start, Seconds,
                        static_cast<size_t>(Rate));
    uint64_t AppliedIdx = 0;
    W.SecEntries.assign(static_cast<size_t>(Seconds) + 2, 0);
    W.SecApplyUs.assign(W.SecEntries.size(), 0);
    auto Apply = [&](const smap &Cur, std::vector<entry_t> Batch) {
      if (Pin && !WriterPinned) {
        pin_self(Cpus[kReaders + 1]);
        WriterPinned = true;
      }
      const size_t B = Batch.size();
      uint64_t T0 = cpam::obs::now_ns();
      std::optional<smap> Next;
      {
        cpam::obs::trace::span Sp("core.multi_insert", "bench");
        Next.emplace(Cur.multi_insert(std::move(Batch), newest()));
      }
      uint64_t T1 = cpam::obs::now_ns();
      ApplyUs.push_back((T1 - T0) * 1e-3);
      const size_t Sec = std::min<size_t>((T1 - Start) / 1000000000,
                                          W.SecEntries.size() - 1);
      W.SecEntries[Sec] += B;
      W.SecApplyUs[Sec] += (T1 - T0) * 1e-3;
      for (size_t I = 0; I < B; ++I)
        VisibleUs.add(T1, (T1 - Due[AppliedIdx++]) * 1e-3);
      return std::move(*Next);
    };
    pipeline_t::options O;
    O.Policy = cpam::serving::overload_policy::RejectNewest;
    std::optional<pipeline_t> Pipe;
    Pipe.emplace(*Chain, Apply, O);

    std::atomic<bool> Stop{false};
    std::vector<by_second> Lat(kReaders, by_second(Start, Seconds, 200000));
    std::vector<uint64_t> Wrong(kReaders, 0), Queries(kReaders, 0);
    std::vector<std::thread> Readers;
    for (int R = 0; R < kReaders; ++R)
      Readers.emplace_back([&, R] {
        if (Pin)
          pin_self(Cpus[R]);
        rng G(C.Seed ^ 0xEAD, Window * 64 + R);
        uint64_t LastSeq = 0, LastSize = 0, Q = 0;
        while (!Stop.load(std::memory_order_relaxed)) {
          uint64_t T0 = cpam::obs::now_ns(), Seq = 0;
          smap Snap = Chain->acquire(Seq);
          int Bad = (Seq < LastSeq) + (Snap.size() < LastSize);
          LastSeq = Seq;
          LastSize = Snap.size();
          for (int J = 0; J < kFindsPerQuery; ++J) {
            uint64_t X = G.next();
            uint64_t K = key((X >> 8) % N) + ((X & 0xFF) < 230 ? 0 : 2);
            std::optional<uint64_t> V;
            if (J == 0 && Q % 16 == 0) {
              cpam::obs::trace::span Sp("core.find", "bench");
              V = Snap.find(K);
            } else {
              V = Snap.find(K);
            }
            Bad += K % 4 == 0 ? !(V && (*V >> 24) == K) : V.has_value();
          }
          uint64_t T1 = cpam::obs::now_ns();
          Lat[R].add(T1, (T1 - T0) * 1e-3);
          Wrong[R] += Bad;
          ++Q;
        }
        Queries[R] = Q;
      });

    // Open-loop writer: update I is due at Start + I / Rate and is timed
    // from then, however late the generator runs.
    if (Pin)
      pin_self(Cpus[kReaders]);
    rng G(C.Seed ^ 0x3017E, Window);
    const uint64_t End = Start + static_cast<uint64_t>(Seconds * 1e9);
    const double NsPerUpdate = 1e9 / Rate;
    uint64_t Next = 0;
    for (;;) {
      uint64_t Now = cpam::obs::now_ns();
      if (Now >= End ||
          (MaxBatches != ~uint64_t(0) && Pipe->stats().Batches >= MaxBatches))
        break;
      for (;;) {
        uint64_t DueNs = Start + static_cast<uint64_t>(Next * NsPerUpdate);
        if (DueNs > Now || W.Accepted == Cap ||
            ((Next & 1023) == 1023 && cpam::obs::now_ns() >= End))
          break;
        uint64_t X = G.next();
        // 15/16 overwrite a present key, 1/16 insert a key next to one, so
        // the map grows by ~5% in a 30 s run.
        uint64_t K = key((X >> 8) % N) + ((X & 15) == 0);
        Due[W.Accepted] = DueNs;
        uint64_t Val = K << 24 | ++Tags;
        W.LateUs.push_back((cpam::obs::now_ns() - DueNs) * 1e-3);
        ++W.Submitted;
        ++Next;
        if (Pipe->submit(entry_t(K, Val))) {
          Log.emplace_back(K, Val);
          ++W.Accepted;
        }
      }
      // Nothing due: yield the core to a runnable reader or the writer.
      std::this_thread::yield();
    }
    Pipe->flush();
    W.Seconds = (cpam::obs::now_ns() - Start) * 1e-9;
    sched_setaffinity(0, sizeof(MainMask), &MainMask);
    Stop.store(true);
    for (std::thread &T : Readers)
      T.join();
    W.Stats = Pipe->stats();
    Pipe.reset(); // joins the writer
    for (int R = 0; R < kReaders; ++R) {
      W.Queries += Queries[R];
      W.QueryUs.merge(Lat[R]);
      Res.fail("serve_mixed: reader saw a wrong answer or an older version",
               Wrong[R]);
    }
    W.VisibleUs = std::move(VisibleUs);
    W.ApplyUs = std::move(ApplyUs);
    Res.Attempted += W.Queries * kFindsPerQuery + W.Submitted;
    Res.fail("serve_mixed: upsert refused", W.Submitted - W.Accepted);
    if (W.Stats.Applied != W.Accepted)
      Res.fail("serve_mixed: accepted != applied");
    if (Tags > kTagMask)
      Res.fail("serve_mixed: upsert tags overflowed");
    return W;
  }

  /// The final map must equal the initial entries overwritten by every
  /// accepted upsert, in submit order.
  void check_final() {
    std::stable_sort(Log.begin(), Log.end(),
                     [](const entry_t &A, const entry_t &B) {
                       return A.first < B.first;
                     });
    std::vector<entry_t> Want;
    Want.reserve(N + Log.size());
    size_t J = 0;
    auto TakeLast = [&] {
      uint64_t K = Log[J].first;
      while (J + 1 < Log.size() && Log[J + 1].first == K)
        ++J;
      Want.push_back(Log[J++]);
    };
    for (uint64_t I = 0; I < N; ++I) {
      uint64_t K = key(I);
      while (J < Log.size() && Log[J].first < K)
        TakeLast();
      if (J < Log.size() && Log[J].first == K)
        TakeLast();
      else
        Want.emplace_back(K, K << 24);
    }
    while (J < Log.size())
      TakeLast();
    smap Final = Chain->acquire();
    Res.Attempted += 1;
    if (Final.to_vector() != Want)
      Res.fail("serve_mixed: final map differs from the oracle");
    if (std::string Why = Final.check_invariants(); !Why.empty())
      Res.fail("serve_mixed: invariants: " + Why);
  }

  void run() {
    const double Start = now_s();
    window_out Traced;
    if (C.Trace) {
      // The writer publishes one version per batch, and batches are small
      // at this rate: the traced window ends before its ring wraps.
      trace_open();
      Traced = offered(C.Seconds / 2, kTracedBatches);
      trace_close(C, Res);
    }
    window_out Plain = offered(C.Seconds - (now_s() - Start));
    report(Plain);
    if (C.Trace) {
      Res.layer("bench.trace_overhead_frac",
                1 - Traced.Queries / Traced.Seconds /
                        (Plain.Queries / Plain.Seconds));
      Res.layer("serving.apply_batch_ms_p50",
                quantile(Traced.ApplyUs, 0.5) * 1e-3);
      Res.layer("serving.apply_batch_ms_p99",
                quantile(Traced.ApplyUs, 0.99) * 1e-3);
      Res.layer("serving.batch_entries_mean",
                Traced.Stats.Batches
                    ? static_cast<double>(Traced.Stats.Applied) /
                          Traced.Stats.Batches
                    : 0);
      Res.layer("serving.rejected", static_cast<double>(Traced.Stats.Rejected));
      Res.layer("serving.full_waits",
                static_cast<double>(Traced.Stats.FullWaits));
      Res.layer("bench.generator_late_ms_p99",
                quantile(Traced.LateUs, 0.99) * 1e-3);
      Res.layer("alloc.live_mb", live_mb());
      Res.layer("alloc.resident_ratio",
                cpam::alloc_stats::live_byte_count() / rss_bytes());
      Res.layer("core.nodes_per_kentry", NodesPerK);
      probe_encoding();
    }
    check_final();
  }

  void report(window_out &W) {
    // Reader throughput and apply capacity are medians over the window's
    // whole seconds, like the latency percentiles.
    const size_t Whole = static_cast<size_t>(W.Seconds);
    std::vector<double> SecFinds, SecCapacity;
    for (size_t I = 0; I < Whole; ++I) {
      SecFinds.push_back(W.QueryUs.count(I) * kFindsPerQuery / 1e6);
      if (W.SecApplyUs[I] > 0)
        SecCapacity.push_back(W.SecEntries[I] / W.SecApplyUs[I]);
    }
    double Finds = median(SecFinds);
    double Applied = W.Stats.Applied / W.Seconds / 1e6;
    double Capacity = median(SecCapacity);
    Res.e2e("op1_mops", Finds);
    Res.e2e("op2_mops", Applied);
    Res.e2e("op3_mops", Capacity);
    double Q50 = W.QueryUs.median_of(0.5), Q99 = W.QueryUs.median_of(0.99);
    double V50 = W.VisibleUs.median_of(0.5);
    double V90 = W.VisibleUs.median_of(0.9);
    double V99 = W.VisibleUs.median_of(0.99);
    std::vector<double> Visible = W.VisibleUs.all();
    Res.e2e("lat1_p50_us", Q50);
    Res.e2e("lat1_p99_us", Q99);
    Res.e2e("lat2_p50_us", V50);
    Res.named("reader_find_mops", Finds, "Mop/s");
    Res.named("applied_mupserts_s", Applied, "Mop/s");
    Res.named("apply_capacity_mentries_s", Capacity, "Mentries/s");
    Res.named("query_p50_us", Q50, "us");
    Res.named("query_p99_us", Q99, "us");
    Res.named("visible_p50_ms", V50 * 1e-3, "ms");
    Res.named("visible_p90_ms", V90 * 1e-3, "ms");
    Res.named("visible_p99_ms", V99 * 1e-3, "ms");
    Res.named("visible_pooled_p99_ms", quantile(Visible, 0.99) * 1e-3, "ms");
    Res.named("visible_max_ms", quantile(Visible, 1.0) * 1e-3, "ms");
    Res.named("queries", static_cast<double>(W.Queries), "count");
    Res.named("offered_rate", Rate, "1/s");
    Res.named("generator_late_p99_ms", quantile(W.LateUs, 0.99) * 1e-3, "ms");
    Res.named("n", static_cast<double>(N), "entries");
  }

  double bytes_per_entry() const { return Bytes; }

  void drop() {
    Log.clear();
    Chain.reset();
  }

private:
  void probe_encoding() {
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Blocks(1024);
    rng G(C.Seed, 0xE2C);
    for (auto &B : Blocks) {
      uint64_t Lo = G.below(N - 128 + 1);
      for (uint64_t I = Lo; I < Lo + 128; ++I)
        B.emplace_back(key(I), key(I) << 24);
    }
    encoding_probe</*WorkloadIsDiff=*/true>(Blocks, Res);
  }

  const config &C;
  result &Res;
  const uint64_t N;
  const double Rate;
  double Bytes = 0, NodesPerK = 0;
  uint64_t Windows = 0;
  uint64_t Tags = 0; ///< Upserts submitted so far, over all windows.
  std::optional<cpam::serving::version_chain<smap>> Chain;
  std::vector<entry_t> Log; ///< Accepted upserts in submit order.
};

} // namespace

result run_serve_mixed(const config &C) {
  return run_workload<serve_mixed>(C, "serve_mixed");
}

} // namespace perfbench
