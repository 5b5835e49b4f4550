//===- test_obs.cpp - Observability layer tests ----------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The obs layer's suite: exact-count identities on the sharded counters
/// and histograms under 16-thread concurrent record, percentile error
/// bounds on a known distribution (the log-bucket scheme guarantees a
/// reported percentile in [true, true * (1 + 1/16)]), reset coherence
/// through obs::reset_all() across every surface (owned metrics, raw
/// cells, scheduler source), and a trace-span round trip: publish serving
/// versions under tracing and assert the flushed Chrome trace JSON parses
/// structurally and contains the publish/reclaim spans. Runs in the CI
/// TSan leg (concurrent record/flush).
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parallel/primitives.h"
#include "src/serving/version_chain.h"

using namespace cpam;

namespace {

// Value-bearing assertions only make sense when the record paths are
// compiled; under -DCPAM_METRICS=OFF they skip (the structural tests —
// identity, export, reset plumbing — still run).
constexpr bool kMetricsOn = CPAM_METRICS != 0;

//===----------------------------------------------------------------------===//
// Counters and gauges.
//===----------------------------------------------------------------------===//

TEST(ObsCounter, SameNameSameObject) {
  obs::registry &R = obs::registry::get();
  EXPECT_EQ(&R.get_counter("test.identity"), &R.get_counter("test.identity"));
  EXPECT_EQ(&R.get_gauge("test.identity"), &R.get_gauge("test.identity"));
  EXPECT_EQ(&R.get_histogram("test.identity"),
            &R.get_histogram("test.identity"));
  EXPECT_EQ(&R.raw_counter("test.identity"), &R.raw_counter("test.identity"));
}

TEST(ObsCounter, ExactUnderConcurrentIncrement) {
  if (!kMetricsOn)
    GTEST_SKIP() << "record paths compiled out";
  obs::counter &C = obs::registry::get().get_counter("test.counter.exact");
  C.reset();
  constexpr int kThreads = 16;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([&] {
      for (uint64_t I = 0; I < kPerThread; ++I)
        C.inc();
    });
  for (auto &T : Ts)
    T.join();
  // Sharded relaxed fetch_adds lose nothing, even with 16 foreign threads
  // colliding on few slots.
  EXPECT_EQ(C.read(), kThreads * kPerThread);
  C.reset();
  EXPECT_EQ(C.read(), 0u);
}

TEST(ObsGauge, BalancedAddSubReturnsToZero) {
  if (!kMetricsOn)
    GTEST_SKIP() << "record paths compiled out";
  obs::gauge &G = obs::registry::get().get_gauge("test.gauge.balance");
  G.reset();
  constexpr int kThreads = 8;
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([&, T] {
      for (int I = 0; I < 50000; ++I) {
        G.add(T + 1);
        G.sub(T + 1);
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(G.read(), 0);
  G.add(-7);
  EXPECT_EQ(G.read(), -7);
  G.reset();
  EXPECT_EQ(G.read(), 0);
}

//===----------------------------------------------------------------------===//
// Histogram bucket scheme.
//===----------------------------------------------------------------------===//

TEST(ObsHistogram, BucketIndexMonotoneAndBoundsTight) {
  if (!kMetricsOn)
    GTEST_SKIP() << "record paths compiled out";
  using H = obs::histogram;
  // Every probed value lands inside its bucket's [lo, hi] range, indices
  // are monotone in the value, and octave buckets are at most 1/16 wide
  // relative to their lower bound.
  size_t Prev = 0;
  for (uint64_t V = 0; V < 4096; ++V) {
    size_t I = H::bucket_index(V);
    ASSERT_GE(I, Prev) << "V=" << V;
    ASSERT_LE(H::bucket_lo(I), V) << "V=" << V;
    ASSERT_GE(H::bucket_hi(I), V) << "V=" << V;
    Prev = I;
  }
  for (uint64_t V : {uint64_t(1) << 20, (uint64_t(1) << 32) + 12345,
                     uint64_t(1) << 62, ~uint64_t{0}}) {
    size_t I = H::bucket_index(V);
    ASSERT_LT(I, H::kBuckets);
    ASSERT_LE(H::bucket_lo(I), V);
    ASSERT_GE(H::bucket_hi(I), V);
  }
  for (size_t I = H::kSub; I + 1 < H::kBuckets; ++I) {
    uint64_t Lo = H::bucket_lo(I), Hi = H::bucket_hi(I);
    ASSERT_LE((Hi - Lo + 1) * H::kSub, Lo + H::kSub)
        << "bucket " << I << " wider than 1/16 relative";
  }
}

TEST(ObsHistogram, ExactCountSumMaxUnderConcurrentRecord) {
  if (!kMetricsOn)
    GTEST_SKIP() << "record paths compiled out";
  obs::histogram &H = obs::registry::get().get_histogram("test.hist.exact");
  H.reset();
  constexpr int kThreads = 16;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([&, T] {
      for (uint64_t I = 1; I <= kPerThread; ++I)
        H.record(I + uint64_t(T)); // Overlapping ranges across threads.
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(H.count(), kThreads * kPerThread);
  uint64_t WantSum = 0;
  for (int T = 0; T < kThreads; ++T)
    WantSum += kPerThread * (kPerThread + 1) / 2 + kPerThread * uint64_t(T);
  EXPECT_EQ(H.sum(), WantSum);
  EXPECT_EQ(H.max(), kPerThread + kThreads - 1);
}

TEST(ObsHistogram, PercentilesWithinOneSubBucketOfTruth) {
  if (!kMetricsOn)
    GTEST_SKIP() << "record paths compiled out";
  obs::histogram &H = obs::registry::get().get_histogram("test.hist.pct");
  H.reset();
  // Uniform 1..100000, once each: the true quantile q is q*100000, and the
  // bucket upper-bound report must sit in [truth, truth * 17/16].
  constexpr uint64_t N = 100000;
  for (uint64_t V = 1; V <= N; ++V)
    H.record(V);
  for (double Q : {0.50, 0.90, 0.99}) {
    uint64_t Truth = static_cast<uint64_t>(Q * N);
    uint64_t Got = H.percentile(Q);
    EXPECT_GE(Got, Truth) << "q=" << Q << " understated";
    EXPECT_LE(Got, Truth + Truth / 16 + 1) << "q=" << Q << " off by more "
                                           << "than one sub-bucket";
    EXPECT_LE(Got, H.max()) << "q=" << Q;
  }
  EXPECT_EQ(H.percentile(1.0), N); // Clamped to the recorded max exactly.
  auto S = H.snapshot();
  EXPECT_EQ(S.Count, N);
  EXPECT_EQ(S.Max, N);
  EXPECT_EQ(S.P50, H.percentile(0.50));
}

TEST(ObsHistogram, ResetLeavesNoResidue) {
  if (!kMetricsOn)
    GTEST_SKIP() << "record paths compiled out";
  obs::histogram &H = obs::registry::get().get_histogram("test.hist.reset");
  H.record(17);
  H.record(1 << 20);
  ASSERT_GT(H.count(), 0u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.percentile(0.99), 0u);
  H.record(3);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(H.percentile(0.5), 3u);
}

//===----------------------------------------------------------------------===//
// Registry-wide reset and export.
//===----------------------------------------------------------------------===//

TEST(ObsRegistry, ResetAllCoversEverySurface) {
  obs::registry &R = obs::registry::get();
  obs::counter &C = R.get_counter("test.resetall.counter");
  obs::gauge &G = R.get_gauge("test.resetall.gauge");
  obs::histogram &H = R.get_histogram("test.resetall.hist");
  std::atomic<uint64_t> &Raw = R.raw_counter("test.resetall.raw");
  C.inc(3);
  G.add(5);
  H.record(42);
  Raw.store(7, std::memory_order_relaxed);
  // Bump the scheduler source too: forks only come from parDo.
  par::parallel_for(0, 4096, [](size_t) {}, /*Granularity=*/64);
  obs::reset_all();
  EXPECT_EQ(C.read(), 0u);
  EXPECT_EQ(G.read(), 0);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(Raw.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(par::scheduler_stats().Forks, 0u)
      << "reset_all must route to the adopted scheduler source";
}

TEST(ObsRegistry, ExportJsonCarriesAllSurfaces) {
  obs::registry &R = obs::registry::get();
  R.get_counter("test.export.counter").inc(2);
  R.get_gauge("test.export.gauge").add(-4);
  R.get_histogram("test.export.hist").record(1000);
  R.raw_counter("test.export.raw").store(9, std::memory_order_relaxed);
  std::string J = obs::export_json();
  EXPECT_NE(J.find("\"schema\": \"cpam-metrics-v1\""), std::string::npos);
  EXPECT_NE(J.find("test.export.counter"), std::string::npos);
  EXPECT_NE(J.find("test.export.gauge"), std::string::npos);
  EXPECT_NE(J.find("test.export.hist"), std::string::npos);
  EXPECT_NE(J.find("test.export.raw"), std::string::npos);
  EXPECT_NE(J.find("\"scheduler\""), std::string::npos)
      << "adopted scheduler source missing from the export";
  EXPECT_NE(J.find("\"p99\""), std::string::npos);
  // Structural sanity: braces and brackets balance (good enough to catch
  // splice bugs without a JSON parser; CI additionally python-parses the
  // bench reports that embed this object).
  int Depth = 0;
  for (char Ch : J) {
    if (Ch == '{' || Ch == '[')
      ++Depth;
    if (Ch == '}' || Ch == ']')
      --Depth;
    ASSERT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
  if (kMetricsOn) {
    EXPECT_NE(J.find("\"test.export.counter\": 2"), std::string::npos);
    EXPECT_NE(J.find("\"test.export.gauge\": -4"), std::string::npos);
  }
  EXPECT_NE(J.find("\"test.export.raw\": 9"), std::string::npos)
      << "raw cells must stay live even under CPAM_METRICS=OFF";
}

//===----------------------------------------------------------------------===//
// Adoption shims.
//===----------------------------------------------------------------------===//

TEST(ObsShims, ServingMetricsRecordThroughRegistry) {
  if (!kMetricsOn)
    GTEST_SKIP() << "record paths compiled out";
  obs::reset_all();
  serving::serving_metrics_t &M = serving::serving_metrics();
  serving::version_chain<int> VC(1);
  VC.publish(2);
  VC.publish(3);
  EXPECT_EQ(M.Published.read(), 2u);
  EXPECT_EQ(M.PublishNs.count(), 2u);
  // No pinned readers: both retired versions reclaim immediately.
  EXPECT_EQ(M.Reclaimed.read(), 2u);
  EXPECT_GE(M.ReclaimNs.count(), 1u);
  // acquire timing is sampled 1-in-256 per thread, first call inclusive —
  // a fresh thread's first acquire must record.
  std::thread([&] { (void)VC.acquire(); }).join();
  EXPECT_GE(M.AcquireNs.count(), 1u);
  EXPECT_EQ(M.QueueDepth.read(), 0);
}

//===----------------------------------------------------------------------===//
// Trace spans.
//===----------------------------------------------------------------------===//

TEST(ObsTrace, ServingSpansFlushAsLoadableJson) {
  if (!kMetricsOn)
    GTEST_SKIP() << "trace spans compiled out";
  obs::trace::clear();
  obs::trace::enable();
  {
    // No pinned readers: each publish also reclaims the version it
    // retires, so both serving spans record on this thread.
    serving::version_chain<int> VC(1);
    VC.publish(2);
    VC.publish(3);
    ASSERT_EQ(VC.acquire(), 3);
  }
  obs::trace::disable();

  const char *Path = "test_obs_trace.json";
  ASSERT_TRUE(obs::trace::write_json(Path));
  std::string J;
  {
    std::FILE *F = std::fopen(Path, "r");
    ASSERT_NE(F, nullptr);
    char Buf[4096];
    size_t Got;
    while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      J.append(Buf, Got);
    std::fclose(F);
  }
  std::remove(Path);
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"publish\""), std::string::npos);
  EXPECT_NE(J.find("\"reclaim\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(J.find("\"thread_name\""), std::string::npos);
  int Depth = 0;
  for (char Ch : J) {
    if (Ch == '{' || Ch == '[')
      ++Depth;
    if (Ch == '}' || Ch == ']')
      --Depth;
    ASSERT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
  obs::trace::clear();
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::trace::disable();
  obs::trace::clear();
  {
    obs::trace::span S("should_not_appear", "test");
    obs::trace::instant("nor_this", "test");
  }
  const char *Path = "test_obs_trace_off.json";
  ASSERT_TRUE(obs::trace::write_json(Path));
  std::string J;
  {
    std::FILE *F = std::fopen(Path, "r");
    ASSERT_NE(F, nullptr);
    char Buf[4096];
    size_t Got;
    while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      J.append(Buf, Got);
    std::fclose(F);
  }
  std::remove(Path);
  EXPECT_EQ(J.find("should_not_appear"), std::string::npos);
  EXPECT_EQ(J.find("nor_this"), std::string::npos);
}

} // namespace
