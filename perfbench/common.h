//===- common.h - Shared harness for the repo benchmark -------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Harness pieces shared by the three workloads (lookup_scan, update_churn,
/// serve_mixed): the run configuration, the result record that main.cpp
/// prints as JSON, deterministic hashing, order statistics, memory probes,
/// the encoding-layer probe and the traced-window bookkeeping.
///
/// Layers are measured from outside the library: the benchmark times its
/// own calls and reads what the library already exports (obs::export_json
/// and the Chrome-trace rings of obs/trace.h). Bench spans use the "bench"
/// category and are only recorded inside a traced window.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_PERFBENCH_COMMON_H
#define CPAM_PERFBENCH_COMMON_H

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/allocator.h"
#include "src/core/entry.h"
#include "src/encoding/diff_encoder.h"
#include "src/encoding/raw_encoder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parallel/scheduler.h"

namespace perfbench {

struct config {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny sizes for the benchmark's own smoke test.
  bool Smoke = false;
  /// Directory for trace segments and the metrics export (trace runs).
  std::string OutDir = ".";
};

struct named_value {
  std::string Name;
  double Value;
  std::string Unit;
};

struct result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Benchmark metrics (the end_to_end names of BENCHMARK.json).
  std::vector<std::pair<std::string, double>> E2E;
  /// The same measurements under their per-workload names, for people.
  std::vector<named_value> Named;
  /// Per-layer values the benchmark measures itself (trace runs only);
  /// the rest come from extract.py over TraceFiles and ExportPath.
  std::vector<std::pair<std::string, double>> Layer;
  std::vector<std::string> TraceFiles;
  std::string ExportPath;
  /// peak_rss_mb when the workload reads it before the run ends (0: at
  /// the end).
  double PeakRssMb = 0;
  /// First failed check, for the log.
  std::string Error;

  void fail(const std::string &What, uint64_t Count = 1) {
    if (Count == 0)
      return;
    Correct = false;
    Failed += Count;
    if (Error.empty())
      Error = What;
  }
  void e2e(const char *Name, double V) { E2E.emplace_back(Name, V); }
  void named(const char *Name, double V, const char *Unit) {
    Named.push_back({Name, V, Unit});
  }
  void layer(const char *Name, double V) { Layer.emplace_back(Name, V); }
};

//===----------------------------------------------------------------------===//
// Deterministic inputs.
//===----------------------------------------------------------------------===//

/// splitmix64 finalizer: the one hash every generator derives from.
inline uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Small counter-based generator: stream \p Stream of seed \p Seed.
struct rng {
  uint64_t S;
  rng(uint64_t Seed, uint64_t Stream) : S(mix64(Seed ^ mix64(Stream))) {}
  uint64_t next() { return mix64(S++); }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * N) >> 64);
  }
};

//===----------------------------------------------------------------------===//
// Clocks, order statistics, memory.
//===----------------------------------------------------------------------===//

inline double now_s() { return cpam::obs::now_ns() * 1e-9; }

/// Nearest-rank quantile of \p V (sorted in place). 0 when empty.
inline double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size() - 1, I == 0 ? 0 : I - 1)];
}
inline double median(std::vector<double> V) { return quantile(V, 0.5); }

/// Percentiles of one round's latency samples.
struct pcts {
  double P50 = 0, P90 = 0, P99 = 0;
};
inline pcts percentiles(std::vector<double> &V) {
  return {quantile(V, 0.5), quantile(V, 0.9), quantile(V, 0.99)};
}

/// Median over rounds of \p Get(round). Throughputs and latency
/// percentiles are reported this way: a stalled round moves the median of
/// per-round figures far less than it moves a figure of pooled samples.
template <class R, class F>
double median_over(const std::vector<R> &Rounds, const F &Get) {
  std::vector<double> V;
  for (const R &X : Rounds)
    V.push_back(Get(X));
  return median(std::move(V));
}

/// Latency samples bucketed by the second (since Start) they completed
/// in: the time-window counterpart of median_over's rounds.
struct by_second {
  uint64_t Start = 0;
  std::vector<std::vector<double>> Sec;

  by_second() = default;
  /// Pre-sizes \p Seconds buckets of \p PerSecond samples, so recording
  /// does not stall on a reallocation.
  by_second(uint64_t Start, double Seconds, size_t PerSecond)
      : Start(Start), Sec(static_cast<size_t>(Seconds) + 2) {
    for (std::vector<double> &S : Sec)
      S.reserve(PerSecond);
  }

  void add(uint64_t NowNs, double V) {
    size_t I = (NowNs - Start) / 1000000000;
    if (I >= Sec.size())
      Sec.resize(I + 1);
    Sec[I].push_back(V);
  }
  void merge(const by_second &O) {
    if (O.Sec.size() > Sec.size())
      Sec.resize(O.Sec.size());
    for (size_t I = 0; I < O.Sec.size(); ++I)
      Sec[I].insert(Sec[I].end(), O.Sec[I].begin(), O.Sec[I].end());
  }
  /// Median over seconds holding at least 100 samples of each second's
  /// quantile \p Q.
  double median_of(double Q) {
    std::vector<double> Per;
    for (std::vector<double> &S : Sec)
      if (S.size() >= 100)
        Per.push_back(quantile(S, Q));
    return median(std::move(Per));
  }
  /// Samples recorded in second \p I.
  size_t count(size_t I) const { return I < Sec.size() ? Sec[I].size() : 0; }
  std::vector<double> all() const {
    std::vector<double> Out;
    for (const std::vector<double> &S : Sec)
      Out.insert(Out.end(), S.begin(), S.end());
    return Out;
  }
};

/// Peak resident set of the process so far, in MB.
inline double peak_rss_mb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Current resident set in bytes.
inline double rss_bytes() {
  long Pages = 0, Resident = 0;
  if (std::FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%ld %ld", &Pages, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return static_cast<double>(Resident) * sysconf(_SC_PAGESIZE);
}

inline double live_mb() {
  return cpam::alloc_stats::live_byte_count() / (1024.0 * 1024.0);
}

/// Runs \p Setup \p Reps times (each a full generate + build + warm-up
/// that replaces the previous state) and returns the median seconds. The
/// first repetition also carves the cold pool slabs; the median leaves
/// that one-off cost out, as it leaves out warm_scheduler().
template <class F> double timed_setups(int Reps, const F &Setup) {
  std::vector<double> T;
  for (int I = 0; I < Reps; ++I) {
    double T0 = now_s();
    Setup();
    T.push_back(now_s() - T0);
  }
  return median(T);
}

/// Touches every scheduler worker before anything is timed.
inline void warm_scheduler() {
  std::vector<uint64_t> V(1 << 16);
  for (int R = 0; R < 4; ++R)
    cpam::par::parallel_for(0, V.size(),
                            [&](size_t I) { V[I] += mix64(I + R); }, 64);
}

//===----------------------------------------------------------------------===//
// Encoding layer: the workload's own entries through both encoders.
//===----------------------------------------------------------------------===//

/// Encodes, decodes and scans \p Blocks (each a sorted run of up to 128
/// distinct-key entries) with diff_encoder and raw_encoder, and reports
/// encoding.{diff,raw}.{encode,decode}_ns_per_entry (median of repeated
/// passes) plus encoding.bytes_per_entry of the workload's encoder.
template <bool WorkloadIsDiff>
void encoding_probe(
    const std::vector<std::vector<std::pair<uint64_t, uint64_t>>> &Blocks,
    result &Res) {
  using entry = cpam::map_entry<uint64_t, uint64_t>;
  using entry_t = entry::entry_t;
  size_t Entries = 0;
  for (const auto &B : Blocks)
    Entries += B.size();
  volatile uint64_t Sink = 0;

  auto Probe = [&](auto Enc, const char *EncodeName, const char *DecodeName,
                   size_t &BytesOut) {
    using E = decltype(Enc);
    std::vector<std::vector<uint8_t>> Buf(Blocks.size());
    std::vector<entry_t> Tmp(128);
    BytesOut = 0;
    for (size_t I = 0; I < Blocks.size(); ++I) {
      Buf[I].resize(E::encoded_size(Blocks[I].data(), Blocks[I].size()));
      BytesOut += Buf[I].size();
    }
    std::vector<double> EncNs, DecNs;
    for (int Rep = 0; Rep < 7; ++Rep) {
      double T0 = now_s();
      for (size_t I = 0; I < Blocks.size(); ++I) {
        std::copy(Blocks[I].begin(), Blocks[I].end(), Tmp.begin());
        E::encode(Tmp.data(), Blocks[I].size(), Buf[I].data());
      }
      double T1 = now_s();
      uint64_t S = 0;
      for (size_t I = 0; I < Blocks.size(); ++I) {
        E::decode(Buf[I].data(), Blocks[I].size(), Tmp.data());
        S += Tmp[Blocks[I].size() - 1].second;
        E::for_each_while(Buf[I].data(), Blocks[I].size(),
                          [&](const entry_t &X) {
                            S += X.first;
                            return true;
                          });
      }
      double T2 = now_s();
      Sink = Sink + S;
      EncNs.push_back((T1 - T0) * 1e9 / Entries);
      // decode + for_each_while: two decoding passes per entry.
      DecNs.push_back((T2 - T1) * 1e9 / (2.0 * Entries));
    }
    // Round trip must reproduce the block.
    for (size_t I = 0; I < Blocks.size(); ++I) {
      E::decode(Buf[I].data(), Blocks[I].size(), Tmp.data());
      if (!std::equal(Blocks[I].begin(), Blocks[I].end(), Tmp.begin()))
        Res.fail(std::string(DecodeName) + ": round trip mismatch");
    }
    Res.layer(EncodeName, median(EncNs));
    Res.layer(DecodeName, median(DecNs));
  };

  size_t DiffBytes = 0, RawBytes = 0;
  Probe(cpam::diff_encoder<entry>{}, "encoding.diff.encode_ns_per_entry",
        "encoding.diff.decode_ns_per_entry", DiffBytes);
  Probe(cpam::raw_encoder<entry>{}, "encoding.raw.encode_ns_per_entry",
        "encoding.raw.decode_ns_per_entry", RawBytes);
  Res.layer("encoding.bytes_per_entry",
            static_cast<double>(WorkloadIsDiff ? DiffBytes : RawBytes) /
                static_cast<double>(Entries));
}

//===----------------------------------------------------------------------===//
// Traced windows.
//===----------------------------------------------------------------------===//

/// Starts a traced window: zeroes every registry surface so the export at
/// close() holds deltas, drops old trace events and turns spans on.
/// Quiescent use only (obs::reset_all's contract).
inline void trace_open() {
  cpam::obs::reset_all();
  cpam::obs::trace::clear();
  cpam::obs::trace::set_level(1);
}

/// Writes the events recorded since the last flush to a new segment file
/// and clears the rings, so no segment outgrows a ring (events lost to
/// wrap are reported by the library on stderr).
inline void trace_flush(const config &C, result &Res) {
  std::string Path = C.OutDir + "/trace_" +
                     std::to_string(Res.TraceFiles.size()) + ".json";
  if (!cpam::obs::trace::write_json(Path)) {
    Res.fail("cannot write " + Path);
    return;
  }
  cpam::obs::trace::clear();
  Res.TraceFiles.push_back(Path);
}

/// Ends the traced window: last segment plus the cpam-metrics-v1 export.
inline void trace_close(const config &C, result &Res) {
  trace_flush(C, Res);
  cpam::obs::trace::set_level(0);
  Res.ExportPath = C.OutDir + "/metrics.json";
  std::FILE *F = std::fopen(Res.ExportPath.c_str(), "w");
  if (!F) {
    Res.fail("cannot write " + Res.ExportPath);
    return;
  }
  std::string J = cpam::obs::export_json();
  std::fprintf(F, "%s\n", J.c_str());
  std::fclose(F);
}

/// The round loop of lookup_scan and update_churn. Untraced rounds run
/// for the run's length, and at least \p MinRounds of them before any
/// traced round. A traced run puts a traced window in the middle: after
/// half the run, up to \p MaxTraced rounds (at least 2) with the trace
/// rings flushed to a file after each round so that no ring wraps;
/// untraced rounds then fill the rest. \p Round(I) runs round I and
/// returns its figures.
template <class R, class F>
void run_rounds(const config &C, result &Res, size_t MaxTraced,
                size_t MinRounds, const F &Round, std::vector<R> &Plain,
                std::vector<R> &Traced) {
  uint64_t I = 0;
  const double Start = now_s();
  auto Untraced = [&](double Until) {
    do {
      Plain.push_back(Round(I++));
    } while (now_s() - Start < Until || Plain.size() < MinRounds);
  };
  if (C.Trace) {
    Untraced(C.Seconds / 2);
    trace_open();
    const double T0 = now_s();
    do {
      Traced.push_back(Round(I++));
      trace_flush(C, Res);
    } while ((now_s() - T0 < C.Seconds / 4 && Traced.size() < MaxTraced) ||
             Traced.size() < 2);
    trace_close(C, Res);
  }
  Untraced(C.Seconds);
}

/// The frame every workload runs in: warm the scheduler, time the
/// set-ups, run, report set-up time and space, drop every structure and
/// check that all node memory came back. \p W provides setup(),
/// bytes_per_entry(), run() and drop().
template <class W> result run_workload(const config &C, const char *Name) {
  result Res;
  warm_scheduler();
  const int64_t LiveBefore = cpam::alloc_stats::live_byte_count();
  {
    W Work(C, Res);
    double Setup = timed_setups(C.Smoke ? 2 : 9, [&] { Work.setup(); });
    double Bytes = Work.bytes_per_entry();
    Work.run();
    Res.e2e("setup_s", Setup);
    Res.e2e("bytes_per_entry", Bytes);
    Res.named("setup_s", Setup, "s");
    Res.named("bytes_per_entry", Bytes, "B");
    Work.drop();
  }
  if (cpam::alloc_stats::live_byte_count() != LiveBefore)
    Res.fail(std::string(Name) + ": live bytes not back to baseline");
  return Res;
}

result run_lookup_scan(const config &C);
result run_update_churn(const config &C);
result run_serve_mixed(const config &C);

} // namespace perfbench

#endif // CPAM_PERFBENCH_COMMON_H
