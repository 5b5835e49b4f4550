//===- metrics.h - Unified metrics registry (counters/gauges/histograms) ---===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo's one observability substrate: a process-wide registry of named
/// metrics that every subsystem records through and every bench/test/tool
/// reads from. Three owned metric kinds plus two integration hooks:
///
///  - counter: monotone event count, sharded into cache-line-padded
///    relaxed-atomic cells indexed by par::thread_slot(), aggregated on
///    read. inc() is one relaxed fetch_add on a (normally) uncontended
///    cell — a handful of instructions.
///  - gauge: like a counter but signed and bidirectional (add/sub), for
///    level-style quantities (queue depth, outstanding snapshots).
///  - histogram: log-bucketed latency/size histogram with sub-bucket
///    linear refinement (HdrHistogram-style): values below 2^kSubBits
///    index exact unit buckets; above that, each power-of-two octave is
///    split into 2^kSubBits linear sub-buckets, bounding relative bucket
///    error at 1/2^kSubBits (6.25% at the default 4 bits). record() is a
///    bit_width + shift + three relaxed RMWs (bucket, sum, CAS-max) —
///    lock-free and exact under any concurrency. Percentiles (p50/p90/p99)
///    come from a cumulative bucket walk on the (cold) read side and
///    report the bucket's inclusive upper bound clamped to the recorded
///    max, so a reported percentile never understates the true one and
///    overstates it by at most one sub-bucket width.
///
///  - raw_counter(name): a single named std::atomic<uint64_t> cell, for
///    telemetry that must count even when the metric record paths are
///    compiled out (map_ops' "merge.fallbacks", which tests read and
///    reset through this reference). Always compiled.
///  - register_source(name, json_fn, reset_fn): adopts an external
///    telemetry surface (scheduler stats, pool-allocator stats) into the
///    registry's export and reset_all() without moving its storage.
///
/// reset() semantics are uniform and deliberately simple: quiescent use
/// only, like every pre-existing telemetry reset in the repo
/// (par::scheduler_stats_reset). reset_all()
/// resets every owned metric, every raw cell and every source in one call
/// so benches cannot forget one surface.
///
/// Compile gate: -DCPAM_METRICS=OFF compiles every record path (inc/add/
/// record and the trace spans of trace.h) to nothing — the classes become
/// empty and reads return zero — while the registry core (names, raw
/// cells, sources, export, reset) stays live so the substrate telemetry
/// that predates this layer keeps working.
///
/// Export: export_json() renders the whole registry as one JSON object
/// (schema "cpam-metrics-v1") that perf_smoke/bench_merge/bench_serving
/// splice into their reports and the CPAM_STATS_DUMP atexit hook (obs.cpp)
/// writes on process exit.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_OBS_METRICS_H
#define CPAM_OBS_METRICS_H

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/parallel/scheduler.h"

/// Build-time gate for the metric record paths (CMake option CPAM_METRICS).
/// OFF turns counter::inc / gauge::add / histogram::record / trace spans
/// into no-ops that compile to nothing; the registry itself stays live.
#ifndef CPAM_METRICS
#define CPAM_METRICS 1
#endif

namespace cpam {
namespace obs {

/// Monotonic nanoseconds since process start (first call anchors the
/// origin). One steady_clock read — the cost unit every histogram record
/// and trace span pays.
inline uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point Origin = clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           Origin)
          .count());
}

/// Deterministic per-thread sampling for hot paths that cannot afford a
/// clock read per event: true on every 2^Shift-th call from each thread
/// (starting with the first, so single-shot tests still record). Compiles
/// to `false` under CPAM_METRICS=OFF, deleting the sampled block entirely.
template <int Shift> inline bool sampled() {
#if CPAM_METRICS
  thread_local uint64_t N = 0;
  return (N++ & ((uint64_t(1) << Shift) - 1)) == 0;
#else
  return false;
#endif
}

#if CPAM_METRICS

/// Monotone event counter, sharded per thread slot. Writers from any
/// thread; exact at all times (relaxed RMW per cell), though a read racing
/// writers observes some linearization of them like any concurrent sum.
class counter {
public:
  static constexpr size_t kShards = 64;

  void inc(uint64_t N = 1) {
    cell_for_thread().V.fetch_add(N, std::memory_order_relaxed);
  }

  uint64_t read() const {
    uint64_t S = 0;
    for (const cell &C : Cells)
      S += C.V.load(std::memory_order_relaxed);
    return S;
  }

  /// Quiescent use only (concurrent inc() during a reset may land in an
  /// already-zeroed or not-yet-zeroed cell).
  void reset() {
    for (cell &C : Cells)
      C.V.store(0, std::memory_order_relaxed);
  }

private:
  struct alignas(64) cell {
    std::atomic<uint64_t> V{0};
  };
  cell &cell_for_thread() {
    return Cells[static_cast<size_t>(par::thread_slot()) & (kShards - 1)];
  }
  cell Cells[kShards];
};

/// Signed level gauge: add()/sub() from any thread, read() sums the
/// sharded deltas (momentarily negative partial sums are fine; the total
/// is exact whenever producers and consumers are balanced).
class gauge {
public:
  static constexpr size_t kShards = 64;

  void add(int64_t N) {
    cell_for_thread().V.fetch_add(N, std::memory_order_relaxed);
  }
  void sub(int64_t N) { add(-N); }

  int64_t read() const {
    int64_t S = 0;
    for (const cell &C : Cells)
      S += C.V.load(std::memory_order_relaxed);
    return S;
  }

  /// Quiescent use only.
  void reset() {
    for (cell &C : Cells)
      C.V.store(0, std::memory_order_relaxed);
  }

private:
  struct alignas(64) cell {
    std::atomic<int64_t> V{0};
  };
  cell &cell_for_thread() {
    return Cells[static_cast<size_t>(par::thread_slot()) & (kShards - 1)];
  }
  cell Cells[kShards];
};

/// Log-bucketed histogram with linear sub-bucket refinement (see the file
/// header for the scheme). Domain: uint64 (nanoseconds by convention for
/// the *_ns metrics). Lock-free record; exact counts; percentile error
/// bounded by one sub-bucket (<= 1/16 relative at 4 sub-bits).
class histogram {
public:
  static constexpr int kSubBits = 4;
  static constexpr uint64_t kSub = uint64_t(1) << kSubBits;
  /// Direct buckets [0, kSub) + one kSub-wide block per octave 4..63.
  static constexpr size_t kBuckets = kSub + (63 - kSubBits + 1) * kSub;

  /// Bucket index of \p V: exact below kSub; octave block + linear
  /// sub-bucket above. Monotone in V.
  static size_t bucket_index(uint64_t V) {
    if (V < kSub)
      return static_cast<size_t>(V);
    int E = std::bit_width(V) - 1; // >= kSubBits
    return (static_cast<size_t>(E - kSubBits + 1) << kSubBits) +
           static_cast<size_t>((V >> (E - kSubBits)) & (kSub - 1));
  }

  /// Smallest value landing in bucket \p I.
  static uint64_t bucket_lo(size_t I) {
    if (I < kSub)
      return I;
    size_t Block = I >> kSubBits, Sub = I & (kSub - 1);
    return (kSub + Sub) << (Block - 1);
  }

  /// Largest value landing in bucket \p I (inclusive).
  static uint64_t bucket_hi(size_t I) {
    if (I + 1 >= kBuckets)
      return ~uint64_t{0};
    return bucket_lo(I + 1) - 1;
  }

  void record(uint64_t V) {
    Buckets[bucket_index(V)].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    uint64_t M = Max.load(std::memory_order_relaxed);
    while (V > M &&
           !Max.compare_exchange_weak(M, V, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const {
    uint64_t N = 0;
    for (const auto &B : Buckets)
      N += B.load(std::memory_order_relaxed);
    return N;
  }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }

  /// Value at quantile \p P in [0,1]: inclusive upper bound of the bucket
  /// holding the ceil(P*count)-th recorded value, clamped to max() so the
  /// report never exceeds anything actually recorded. 0 when empty.
  uint64_t percentile(double P) const {
    uint64_t Total = count();
    if (Total == 0)
      return 0;
    uint64_t Target = static_cast<uint64_t>(P * static_cast<double>(Total));
    if (Target < 1)
      Target = 1;
    if (Target > Total)
      Target = Total;
    uint64_t Cum = 0;
    for (size_t I = 0; I < kBuckets; ++I) {
      Cum += Buckets[I].load(std::memory_order_relaxed);
      if (Cum >= Target)
        return std::min(bucket_hi(I), max());
    }
    return max();
  }

  struct snapshot_t {
    uint64_t Count = 0, Sum = 0, Max = 0;
    uint64_t P50 = 0, P90 = 0, P99 = 0;
  };
  snapshot_t snapshot() const {
    return {count(), sum(), max(),
            percentile(0.50), percentile(0.90), percentile(0.99)};
  }

  /// Quiescent use only.
  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
    Max.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Buckets[kBuckets] = {};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
};

#else // !CPAM_METRICS — record paths compile to nothing; reads are zero.

class counter {
public:
  static constexpr size_t kShards = 1;
  void inc(uint64_t = 1) {}
  uint64_t read() const { return 0; }
  void reset() {}
};

class gauge {
public:
  static constexpr size_t kShards = 1;
  void add(int64_t) {}
  void sub(int64_t) {}
  int64_t read() const { return 0; }
  void reset() {}
};

class histogram {
public:
  static constexpr int kSubBits = 4;
  static constexpr uint64_t kSub = uint64_t(1) << kSubBits;
  static constexpr size_t kBuckets = 1;
  static size_t bucket_index(uint64_t) { return 0; }
  static uint64_t bucket_lo(size_t) { return 0; }
  static uint64_t bucket_hi(size_t) { return 0; }
  void record(uint64_t) {}
  uint64_t count() const { return 0; }
  uint64_t sum() const { return 0; }
  uint64_t max() const { return 0; }
  uint64_t percentile(double) const { return 0; }
  struct snapshot_t {
    uint64_t Count = 0, Sum = 0, Max = 0;
    uint64_t P50 = 0, P90 = 0, P99 = 0;
  };
  snapshot_t snapshot() const { return {}; }
  void reset() {}
};

#endif // CPAM_METRICS

/// The process-wide metric registry. Lookup (get_*) is mutexed and meant
/// for setup code — hot paths hold the returned reference, which stays
/// valid for the process lifetime (node-based map storage; the registry
/// itself is a leaked singleton so exit-time consumers like the
/// CPAM_STATS_DUMP atexit hook can always read it).
class registry {
public:
  static registry &get() {
    // Leaked deliberately: reachable through this static forever (so LSan
    // does not flag it) and immune to static-destruction order against the
    // atexit dump/trace hooks and worker-thread teardown.
    static registry *R = new registry;
    return *R;
  }

  counter &get_counter(const std::string &Name) {
    std::lock_guard<std::mutex> L(M);
    return Counters[Name];
  }
  gauge &get_gauge(const std::string &Name) {
    std::lock_guard<std::mutex> L(M);
    return Gauges[Name];
  }
  histogram &get_histogram(const std::string &Name) {
    std::lock_guard<std::mutex> L(M);
    return Hists[Name];
  }

  /// Named raw atomic cell (always live, even under CPAM_METRICS=OFF):
  /// the adoption path for pre-existing telemetry whose accessors hand out
  /// std::atomic references. Exported alongside the counters and zeroed by
  /// reset_all().
  std::atomic<uint64_t> &raw_counter(const std::string &Name) {
    std::lock_guard<std::mutex> L(M);
    auto &P = Raw[Name];
    if (!P)
      P = std::make_unique<std::atomic<uint64_t>>(0);
    return *P;
  }

  /// Adopts an external telemetry surface: \p Json renders its current
  /// state as one JSON value (object or array), \p Reset restores its
  /// zero/baseline state. Both run under the registry lock — they must not
  /// reenter the registry. Re-registering a name replaces the source.
  void register_source(const std::string &Name,
                       std::function<std::string()> Json,
                       std::function<void()> Reset) {
    std::lock_guard<std::mutex> L(M);
    Sources[Name] = source{std::move(Json), std::move(Reset)};
  }

  /// One reset for every telemetry surface in the process: owned metrics,
  /// raw cells, and registered sources (scheduler stats, pool-allocator
  /// baseline, ...). Quiescent use only, like each individual reset.
  void reset_all() {
    std::lock_guard<std::mutex> L(M);
    for (auto &[N, C] : Counters)
      C.reset();
    for (auto &[N, G] : Gauges)
      G.reset();
    for (auto &[N, H] : Hists)
      H.reset();
    for (auto &[N, R] : Raw)
      R->store(0, std::memory_order_relaxed);
    for (auto &[N, S] : Sources)
      if (S.Reset)
        S.Reset();
  }

  /// Whole-registry snapshot as one JSON object (schema cpam-metrics-v1):
  /// counters (owned + raw cells), gauges, histogram summaries
  /// (count/sum/max/p50/p90/p99, ns domain by convention) and each
  /// registered source under its name.
  std::string export_json() const {
    std::lock_guard<std::mutex> L(M);
    std::string Out = "{\n    \"schema\": \"cpam-metrics-v1\",\n"
                      "    \"metrics_compiled\": ";
    Out += CPAM_METRICS ? "true" : "false";
    char Buf[256];
    Out += ",\n    \"counters\": {";
    bool First = true;
    auto Emit = [&](const std::string &N, unsigned long long V) {
      std::snprintf(Buf, sizeof(Buf), "%s\n      \"%s\": %llu",
                    First ? "" : ",", N.c_str(), V);
      Out += Buf;
      First = false;
    };
    for (const auto &[N, C] : Counters)
      Emit(N, C.read());
    for (const auto &[N, R] : Raw)
      Emit(N, R->load(std::memory_order_relaxed));
    Out += First ? "}" : "\n    }";
    Out += ",\n    \"gauges\": {";
    First = true;
    for (const auto &[N, G] : Gauges) {
      std::snprintf(Buf, sizeof(Buf), "%s\n      \"%s\": %lld",
                    First ? "" : ",", N.c_str(),
                    static_cast<long long>(G.read()));
      Out += Buf;
      First = false;
    }
    Out += First ? "}" : "\n    }";
    Out += ",\n    \"histograms\": {";
    First = true;
    for (const auto &[N, H] : Hists) {
      histogram::snapshot_t S = H.snapshot();
      std::snprintf(
          Buf, sizeof(Buf),
          "%s\n      \"%s\": {\"count\": %llu, \"sum\": %llu, "
          "\"max\": %llu, \"p50\": %llu, \"p90\": %llu, \"p99\": %llu}",
          First ? "" : ",", N.c_str(), (unsigned long long)S.Count,
          (unsigned long long)S.Sum, (unsigned long long)S.Max,
          (unsigned long long)S.P50, (unsigned long long)S.P90,
          (unsigned long long)S.P99);
      Out += Buf;
      First = false;
    }
    Out += First ? "}" : "\n    }";
    Out += ",\n    \"sources\": {";
    First = true;
    for (const auto &[N, S] : Sources) {
      Out += First ? "\n      \"" : ",\n      \"";
      Out += N + "\": " + (S.Json ? S.Json() : std::string("null"));
      First = false;
    }
    Out += First ? "}" : "\n    }";
    Out += "\n  }";
    return Out;
  }

private:
  registry() = default;

  struct source {
    std::function<std::string()> Json;
    std::function<void()> Reset;
  };

  mutable std::mutex M;
  // std::map: node-based, so references returned by get_* stay stable.
  std::map<std::string, counter> Counters;
  std::map<std::string, gauge> Gauges;
  std::map<std::string, histogram> Hists;
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>> Raw;
  std::map<std::string, source> Sources;
};

/// One reset for every telemetry surface (registry metrics + raw cells +
/// scheduler/pool/merge sources). The bench preamble.
inline void reset_all() { registry::get().reset_all(); }

/// The shared cpam-metrics-v1 exporter (see registry::export_json).
inline std::string export_json() { return registry::get().export_json(); }

} // namespace obs
} // namespace cpam

#endif // CPAM_OBS_METRICS_H
