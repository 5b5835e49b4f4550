//===- trace.h - Fork-join trace spans (Chrome trace-event output) ---------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped trace spans over the whole runtime — scheduler task execution,
/// parking and join-parking, serving publish/reclaim/apply_batch —
/// recorded into per-thread ring buffers and flushed on demand as Chrome
/// trace-event JSON (loadable in chrome://tracing and Perfetto), so a
/// whole read-while-ingest run can be visualized lane by lane.
///
/// Cost model: tracing is a diagnostic mode, off by default. Disabled, a
/// span site is one relaxed atomic load and a branch (and compiles to
/// nothing entirely under -DCPAM_METRICS=OFF, same gate as metrics.h).
/// Enabled, a span costs two steady_clock reads plus one uncontended
/// mutex-guarded ring append (~tens of ns) — the per-ring mutex is what
/// keeps concurrent flush TSan-clean without an ordering protocol.
///
/// Rings: each recording thread lazily allocates one fixed-capacity ring
/// (kRingCap events) registered with the leaked global trace state; rings
/// outlive their threads (kept for post-join flushes, reachable forever so
/// LSan stays quiet) and wrap by overwriting the oldest events, so a long
/// run keeps its most recent window. Timestamps come from one process-wide
/// monotonic origin (obs::now_ns), so lanes line up across threads.
///
/// Levels: 0 = off, 1 = spans + instants, 2 = verbose (adds per-fork
/// instant events — high volume, floods the ring on fork-heavy phases).
/// Enable programmatically (trace::set_level) or via the environment:
/// CPAM_TRACE=1|2 turns tracing on at process start and installs an atexit
/// flush to CPAM_TRACE_OUT (default "cpam_trace.json") — see obs.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_OBS_TRACE_H
#define CPAM_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/parallel/scheduler.h"

namespace cpam {
namespace obs {
namespace trace {

/// One recorded event. Name/Cat must be string literals (stored by
/// pointer; the flush dereferences them long after the span ended).
struct event {
  const char *Name;
  const char *Cat;
  uint64_t TsNs;
  uint64_t DurNs; // 0 for instant events.
  char Ph;        // 'X' complete span, 'i' instant.
};

/// Per-thread event ring. The owning thread appends under Mu; flush/clear
/// take the same mutex, which is the entire synchronization story.
struct ring {
  std::mutex Mu;
  std::vector<event> Ev;
  size_t Next = 0;        ///< Overwrite cursor once full.
  uint64_t Dropped = 0;   ///< Events overwritten after wrap.
  int Tid = 0;            ///< par::thread_slot() of the owner.
};

inline constexpr size_t kRingCap = size_t(1) << 14;

namespace detail {

struct state_t {
  std::atomic<int> Level{0};
  std::mutex RegMu;
  std::vector<ring *> Rings; // All rings ever created; never freed.
};

inline state_t &state() {
  // Leaked singleton: outlives every recording thread and the atexit
  // flush, reachable through this static so LSan does not flag it.
  static state_t *S = new state_t;
  return *S;
}

inline ring &my_ring() {
  thread_local ring *R = [] {
    ring *N = new ring;
    N->Tid = par::thread_slot();
    N->Ev.reserve(kRingCap);
    state_t &S = state();
    std::lock_guard<std::mutex> L(S.RegMu);
    S.Rings.push_back(N);
    return N;
  }();
  return *R;
}

inline void emit(const char *Name, const char *Cat, char Ph, uint64_t TsNs,
                 uint64_t DurNs) {
  ring &R = my_ring();
  std::lock_guard<std::mutex> L(R.Mu);
  if (R.Ev.size() < kRingCap) {
    R.Ev.push_back(event{Name, Cat, TsNs, DurNs, Ph});
    return;
  }
  R.Ev[R.Next] = event{Name, Cat, TsNs, DurNs, Ph};
  R.Next = (R.Next + 1) % kRingCap;
  ++R.Dropped;
}

} // namespace detail

/// Current trace level (0 = off). One relaxed load — the whole cost of a
/// span site while tracing is disabled.
inline int level() {
#if CPAM_METRICS
  return detail::state().Level.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}
inline bool enabled() { return level() > 0; }

inline void set_level(int L) {
  detail::state().Level.store(L < 0 ? 0 : L, std::memory_order_relaxed);
}
inline void enable() { set_level(1); }
inline void disable() { set_level(0); }

/// Zero-duration marker ('i' phase). \p Name/\p Cat: string literals.
inline void instant(const char *Name, const char *Cat = "cpam") {
#if CPAM_METRICS
  if (enabled())
    detail::emit(Name, Cat, 'i', now_ns(), 0);
#else
  (void)Name;
  (void)Cat;
#endif
}

#if CPAM_METRICS
/// RAII complete-span ('X' phase): records [construction, destruction) on
/// the calling thread's lane. Captures the enabled state at construction,
/// so a span straddling enable/disable is dropped whole, never half-timed.
class span {
public:
  explicit span(const char *Name, const char *Cat = "cpam")
      : Name(Name), Cat(Cat), T0Plus1(enabled() ? now_ns() + 1 : 0) {}
  span(const span &) = delete;
  span &operator=(const span &) = delete;
  ~span() {
    if (T0Plus1)
      detail::emit(Name, Cat, 'X', T0Plus1 - 1, now_ns() - (T0Plus1 - 1));
  }

private:
  const char *Name;
  const char *Cat;
  uint64_t T0Plus1; // Start + 1; 0 means "tracing was off at entry".
};
#else
class span {
public:
  explicit span(const char *, const char * = "cpam") {}
  span(const span &) = delete;
  span &operator=(const span &) = delete;
};
#endif

/// Drops every recorded event (takes each ring's mutex; rings stay
/// registered). For tests that want a fresh window.
inline void clear() {
  detail::state_t &S = detail::state();
  std::lock_guard<std::mutex> RL(S.RegMu);
  for (ring *R : S.Rings) {
    std::lock_guard<std::mutex> L(R->Mu);
    R->Ev.clear();
    R->Next = 0;
    R->Dropped = 0;
  }
}

/// Flushes every ring to \p Path as Chrome trace-event JSON (object form:
/// {"traceEvents": [...]}). Safe concurrent with recording (per-ring
/// mutexes); events recorded during the flush may or may not appear.
/// Returns false if the file cannot be opened.
inline bool write_json(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(F, "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
                  "\"tid\": 0, \"args\": {\"name\": \"cpam\"}}");
  detail::state_t &S = detail::state();
  std::vector<ring *> Rings;
  {
    std::lock_guard<std::mutex> RL(S.RegMu);
    Rings = S.Rings;
  }
  uint64_t Dropped = 0;
  for (ring *R : Rings) {
    std::vector<event> Ev;
    int Tid;
    {
      std::lock_guard<std::mutex> L(R->Mu);
      Ev = R->Ev;
      Tid = R->Tid;
      Dropped += R->Dropped;
    }
    if (Ev.empty())
      continue;
    std::fprintf(F,
                 ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s %d\"}}",
                 Tid,
                 Tid < par::Scheduler::kForeignSlotBase ? "worker" : "thread",
                 Tid);
    for (const event &E : Ev) {
      if (E.Ph == 'X')
        std::fprintf(F,
                     ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                     E.Name, E.Cat, Tid, E.TsNs / 1e3, E.DurNs / 1e3);
      else
        std::fprintf(F,
                     ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", "
                     "\"s\": \"t\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f}",
                     E.Name, E.Cat, Tid, E.TsNs / 1e3);
    }
  }
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
  if (Dropped)
    std::fprintf(stderr,
                 "cpam trace: %llu events dropped to ring wrap (oldest "
                 "window lost)\n",
                 static_cast<unsigned long long>(Dropped));
  return true;
}

} // namespace trace
} // namespace obs
} // namespace cpam

#endif // CPAM_OBS_TRACE_H
