//===- map_ops.h - Join-based map and set algorithms -----------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Join-based algorithms over PaC-trees (Figs. 6, 8, 10): search, insertion
/// and deletion, the three set operations (union / intersect / difference),
/// multi_insert / multi_delete, filter, map_reduce and order statistics.
/// Each algorithm is written against expose/join/split only — plus the
/// optimized base cases of Sec. 8, taken whenever a subproblem fits in the
/// base-case granularity kappa (default 8B; configurable for the ablation
/// study). Base cases whose operands are both flat blocks merge encoded
/// block to encoded block through streaming cursors (tree_ops::leaf_reader
/// and leaf_writer) with no intermediate arrays; other shapes, and the
/// merges tree_ops::flat_merge_wins sends to arrays (augmented trees,
/// byte-coded merges below the measured break-even), flatten into arrays
/// and merge.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_MAP_OPS_H
#define CPAM_CORE_MAP_OPS_H

#include <algorithm>
#include <atomic>
#include <optional>

#include "src/core/basic_tree.h"
#include "src/obs/metrics.h"
#include "src/parallel/primitives.h"

namespace cpam {

/// Default value-combine: keep the right (new) value.
struct take_right {
  template <class V> const V &operator()(const V &, const V &B) const {
    return B;
  }
};

template <class Entry, template <class> class EncoderT, int BlockSizeB>
struct map_ops : tree_ops<Entry, EncoderT, BlockSizeB> {
  using TO = tree_ops<Entry, EncoderT, BlockSizeB>;
  using NL = typename TO::NL;
  using node_t = typename TO::node_t;
  using entry_t = typename TO::entry_t;
  using key_t = typename TO::key_t;
  using temp_buf = typename TO::temp_buf;
  using node_guard = typename TO::node_guard;
  using exposed = typename TO::exposed;
  using split_t = typename TO::split_t;
  using TO::dec;
  using TO::expose;
  using TO::flatten;
  using TO::from_array_move;
  using TO::inc;
  using TO::is_flat;
  using TO::join;
  using TO::join2;
  using TO::kB;
  using TO::kBlocked;
  using TO::kParGran;
  using TO::lower_bound_idx;
  using TO::node_join;
  using TO::size;
  using TO::split;
  using leaf_reader = typename TO::leaf_reader;
  using leaf_writer = typename TO::leaf_writer;
  using leaf_chunk_writer = typename TO::leaf_chunk_writer;

  /// Base-case granularity kappa of Sec. 8: subproblems whose total size is
  /// at most this are solved by flattening into arrays and merging. The
  /// paper reports kappa = 8B as 6.7x faster than the expose-only algorithm.
  /// Mutable only for the ablation bench (single-threaded setup code).
  static size_t &kappa() {
    static size_t K = kBlocked ? 8 * static_cast<size_t>(kB) : 0;
    return K;
  }

  static const key_t &entry_key(const entry_t &E) { return Entry::get_key(E); }
  static bool key_less(const key_t &A, const key_t &B) {
    return Entry::comp(A, B);
  }

  /// Applies the value-combine \p Op to two entries with equal keys,
  /// returning the combined entry (no-op for sets).
  template <class CombineOp>
  static entry_t combine_entries(entry_t A, const entry_t &B,
                                 const CombineOp &Op) {
    if constexpr (Entry::has_val)
      Entry::get_val(A) = Op(Entry::get_val(A), Entry::get_val(B));
    return A;
  }

  //===--------------------------------------------------------------------===
  // Search (read-only; does not consume references).
  //===--------------------------------------------------------------------===

  /// Returns the entry with key \p K, if present. O(log n + B) work, no
  /// allocation: flat blocks are scanned without unfolding.
  static std::optional<entry_t> find(const node_t *T, const key_t &K) {
    while (T) {
      if (is_flat(T)) {
        const auto *F = static_cast<const typename NL::flat_t *>(T);
        std::optional<entry_t> Out;
        NL::encoder::for_each_while(
            NL::payload(F), T->Size, [&](const entry_t &E) {
              if (key_less(entry_key(E), K))
                return true; // Keep scanning.
              if (!key_less(K, entry_key(E)))
                Out = E;
              return false; // At or past K: stop.
            });
        return Out;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(K, entry_key(R->E)))
        T = R->Left;
      else if (key_less(entry_key(R->E), K))
        T = R->Right;
      else
        return R->E;
    }
    return std::nullopt;
  }

  static bool contains(const node_t *T, const key_t &K) {
    return find(T, K).has_value();
  }

  /// Number of keys strictly less than \p K.
  static size_t rank(const node_t *T, const key_t &K) {
    size_t Acc = 0;
    while (T) {
      if (is_flat(T)) {
        const auto *F = static_cast<const typename NL::flat_t *>(T);
        NL::encoder::for_each_while(
            NL::payload(F), T->Size, [&](const entry_t &E) {
              if (!key_less(entry_key(E), K))
                return false;
              ++Acc;
              return true;
            });
        return Acc;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(entry_key(R->E), K)) {
        Acc += size(R->Left) + 1;
        T = R->Right;
      } else {
        T = R->Left;
      }
    }
    return Acc;
  }

  /// The \p I-th smallest entry (0-based). Requires I < size(T).
  static entry_t select(const node_t *T, size_t I) {
    assert(T && I < size(T) && "select index out of range");
    while (true) {
      if (is_flat(T)) {
        const auto *F = static_cast<const typename NL::flat_t *>(T);
        entry_t Out{}; // Always assigned (I < size(T)); {} pacifies GCC.
        size_t J = 0;
        NL::encoder::for_each_while(
            NL::payload(F), T->Size, [&](const entry_t &E) {
              if (J++ == I) {
                Out = E;
                return false;
              }
              return true;
            });
        return Out;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      size_t Ls = size(R->Left);
      if (I < Ls) {
        T = R->Left;
      } else if (I == Ls) {
        return R->E;
      } else {
        I -= Ls + 1;
        T = R->Right;
      }
    }
  }

  /// Largest entry with key <= K (Previous in Table 1).
  static std::optional<entry_t> previous_or_eq(const node_t *T,
                                               const key_t &K) {
    std::optional<entry_t> Best;
    while (T) {
      if (is_flat(T)) {
        const auto *F = static_cast<const typename NL::flat_t *>(T);
        NL::encoder::for_each_while(
            NL::payload(F), T->Size, [&](const entry_t &E) {
              if (key_less(K, entry_key(E)))
                return false;
              Best = E;
              return true;
            });
        return Best;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(K, entry_key(R->E))) {
        T = R->Left;
      } else {
        Best = R->E;
        T = R->Right;
      }
    }
    return Best;
  }

  /// Smallest entry with key >= K (Next in Table 1).
  static std::optional<entry_t> next_or_eq(const node_t *T, const key_t &K) {
    std::optional<entry_t> Best;
    while (T) {
      if (is_flat(T)) {
        const auto *F = static_cast<const typename NL::flat_t *>(T);
        NL::encoder::for_each_while(
            NL::payload(F), T->Size, [&](const entry_t &E) {
              if (key_less(entry_key(E), K))
                return true;
              Best = E;
              return false;
            });
        return Best;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(entry_key(R->E), K)) {
        T = R->Right;
      } else {
        Best = R->E;
        T = R->Left;
      }
    }
    return Best;
  }

  static std::optional<entry_t> first_entry(const node_t *T) {
    if (!T)
      return std::nullopt;
    return select(T, 0);
  }
  static std::optional<entry_t> last_entry(const node_t *T) {
    if (!T)
      return std::nullopt;
    return select(T, size(T) - 1);
  }

  //===--------------------------------------------------------------------===
  // Point updates.
  //===--------------------------------------------------------------------===

  /// Inserts \p E; on key collision the stored value becomes
  /// Op(old, new). O(log n + B) work. Consumes \p T.
  template <class CombineOp = take_right>
  static node_t *insert(node_t *T, entry_t E,
                        const CombineOp &Op = CombineOp()) {
    if (!T)
      return NL::singleton(std::move(E));
    if (is_flat(T)) {
      size_t N = T->Size;
      if (TO::flat_splice_wins()) {
        // Leaf splice: copy-prefix / splice / copy-suffix through the
        // cursor pair — no whole-block materialization for a one-entry
        // change. A 2B+1-entry result chunks into two leaves. The reader
        // adopts T first so a throwing writer constructor releases it.
        leaf_reader C(T);
        leaf_writer W(N + 1);
        while (!C.done() && key_less(C.key(), entry_key(E)))
          W.push(C.take());
        if (!C.done() && !key_less(entry_key(E), C.key()))
          W.push(combine_entries(C.take(), E, Op));
        else
          W.push(std::move(E));
        while (!C.done())
          W.push(C.take());
        return W.finish();
      }
      // Array base case: splice into the decoded block.
      node_guard G(T);
      temp_buf Buf(N + 1);
      entry_t *A = Buf.data();
      flatten(G.release(), A);
      Buf.set_count(N);
      size_t I = lower_bound_idx(A, N, entry_key(E));
      if (I < N && !key_less(entry_key(E), entry_key(A[I]))) {
        A[I] = combine_entries(std::move(A[I]), E, Op);
        return from_array_move(A, N);
      }
      for (size_t J = N; J > I; --J) {
        ::new (static_cast<void *>(A + J)) entry_t(std::move(A[J - 1]));
        A[J - 1].~entry_t();
      }
      ::new (static_cast<void *>(A + I)) entry_t(std::move(E));
      Buf.set_count(N + 1);
      return from_array_move(A, N + 1);
    }
    exposed X = expose(T);
    if (key_less(entry_key(E), entry_key(X.E))) {
      node_guard GR(X.R);
      node_t *L2 = insert(X.L, std::move(E), Op);
      return join(L2, std::move(X.E), GR.release());
    }
    if (key_less(entry_key(X.E), entry_key(E))) {
      node_guard GL(X.L);
      node_t *R2 = insert(X.R, std::move(E), Op);
      return join(GL.release(), std::move(X.E), R2);
    }
    return node_join(X.L, combine_entries(std::move(X.E), E, Op), X.R);
  }

  /// Removes the entry with key \p K if present. Consumes \p T.
  static node_t *remove(node_t *T, const key_t &K) {
    if (!T)
      return nullptr;
    if (is_flat(T)) {
      size_t N = T->Size;
      if (TO::flat_splice_wins()) {
        // Leaf splice: stream everything but the matching entry.
        leaf_reader C(T);
        leaf_writer W(N);
        while (!C.done() && key_less(C.key(), K))
          W.push(C.take());
        if (!C.done() && !key_less(K, C.key()))
          C.skip();
        while (!C.done())
          W.push(C.take());
        return W.finish();
      }
      node_guard G(T);
      temp_buf Buf(N);
      entry_t *A = Buf.data();
      flatten(G.release(), A);
      Buf.set_count(N);
      size_t I = lower_bound_idx(A, N, K);
      if (I == N || key_less(K, entry_key(A[I])))
        return from_array_move(A, N);
      for (size_t J = I; J + 1 < N; ++J)
        A[J] = std::move(A[J + 1]);
      return from_array_move(A, N - 1);
    }
    exposed X = expose(T);
    if (key_less(K, entry_key(X.E))) {
      node_guard GR(X.R);
      node_t *L2 = remove(X.L, K);
      return join(L2, std::move(X.E), GR.release());
    }
    if (key_less(entry_key(X.E), K)) {
      node_guard GL(X.L);
      node_t *R2 = remove(X.R, K);
      return join(GL.release(), std::move(X.E), R2);
    }
    return join2(X.L, X.R);
  }

  //===--------------------------------------------------------------------===
  // Set operations (Fig. 10) with Sec. 8 base cases. Two flat operands
  // merge cursor-to-cursor straight into finished flat nodes (leaf_reader
  // -> leaf_writer, no temp_buf round trip; multi-leaf results are emitted
  // chunk by chunk); every other base-case shape (and every base case the
  // flat_merge_wins / flat_splice_wins selectors send to arrays) flattens
  // into arrays.
  //===--------------------------------------------------------------------===

  /// Merges the sorted arrays A[0..N1) and B[0..N2) into \p Out's raw
  /// storage (entries moved; duplicate keys combined with \p Op, invoked
  /// exactly once) and returns the merged count. Out must have capacity
  /// N1+N2; its count is kept current so unwinding destroys exactly the
  /// constructed prefix.
  template <class CombineOp>
  static size_t merge_move(entry_t *A, size_t N1, entry_t *B, size_t N2,
                           temp_buf &Out, const CombineOp &Op) {
    entry_t *O = Out.data();
    size_t I = 0, J = 0, K = 0;
    while (I < N1 && J < N2) {
      if (key_less(entry_key(A[I]), entry_key(B[J])))
        ::new (static_cast<void *>(O + K++)) entry_t(std::move(A[I++]));
      else if (key_less(entry_key(B[J]), entry_key(A[I])))
        ::new (static_cast<void *>(O + K++)) entry_t(std::move(B[J++]));
      else {
        ::new (static_cast<void *>(O + K++))
            entry_t(combine_entries(std::move(A[I]), B[J], Op));
        ++I;
        ++J;
      }
      Out.set_count(K);
    }
    for (; I < N1; ++I, ++K)
      ::new (static_cast<void *>(O + K)) entry_t(std::move(A[I]));
    for (; J < N2; ++J, ++K)
      ::new (static_cast<void *>(O + K)) entry_t(std::move(B[J]));
    Out.set_count(K);
    return K;
  }

  /// Probe window, in emitted entries, of the run-length-adaptive fallback
  /// inside merge_arrays_streamed: after each window of output the merge
  /// compares emissions against winner-run count and, when runs have
  /// degenerated toward length 1, abandons per-entry streaming for one
  /// decoded-array merge plus one batch encode of the remainder. 0
  /// disables the fallback. Runtime-mutable (single-threaded setup code
  /// only) for the A/B benches and the fallback-trigger tests.
  static constexpr size_t kMergeProbeWindowDefault = 64;
  static size_t &merge_probe_window() {
    static size_t W = kMergeProbeWindowDefault;
    return W;
  }

  /// Counts one streamed merge bailing out through the run-length fallback
  /// (up front via probe_runs_degenerate or mid-merge via the window check)
  /// in the obs registry's "merge.fallbacks" raw cell: one process-wide
  /// counter for every map_ops instantiation, exported by
  /// obs::export_json() and zeroed by obs::reset_all(). Relaxed — readers
  /// quiesce the scheduler before asserting on it.
  static void count_merge_fallback() {
    static std::atomic<uint64_t> &C =
        obs::registry::get().raw_counter("merge.fallbacks");
    C.fetch_add(1, std::memory_order_relaxed);
  }

  /// Dry-run of the merge's first probe-window of output: pure compares
  /// over the decoded operand prefixes, counting winner runs, no writer
  /// and no moves. Returns true when the average run length is already
  /// below 2 — dense interleave or heavy duplication — where per-entry
  /// streaming measures slower than one array merge plus one batch
  /// encode, so the caller should skip the streamed path entirely (and
  /// save its cursor setup too). Merges whose prefix looks runs-y but
  /// degenerates later are caught by the same check windowed inside
  /// merge_arrays_streamed.
  static bool probe_runs_degenerate(const entry_t *A, size_t N1,
                                    const entry_t *B, size_t N2) {
    size_t W = merge_probe_window();
    if (W == 0)
      return false;
    // Fully degenerate shapes announce themselves fast, so bail at a
    // quarter window; only marginal shapes pay for the whole probe.
    size_t Check = std::max<size_t>(W / 4, 1);
    size_t I = 0, J = 0, Emit = 0, Runs = 0;
    while (Emit < W && I < N1 && J < N2) {
      // Each gallop stops at the window's edge: a run longer than the
      // remaining window proves the shape non-degenerate all by itself,
      // and scanning past W would bill every probe a full-operand walk on
      // exactly the disjoint/long-run shapes that should pay nothing.
      if (key_less(entry_key(A[I]), entry_key(B[J]))) {
        size_t R = I + 1, Cap = std::min(N1, I + (W - Emit));
        while (R < Cap && key_less(entry_key(A[R]), entry_key(B[J])))
          ++R;
        Emit += R - I;
        I = R;
      } else if (key_less(entry_key(B[J]), entry_key(A[I]))) {
        size_t R = J + 1, Cap = std::min(N2, J + (W - Emit));
        while (R < Cap && key_less(entry_key(B[R]), entry_key(A[I])))
          ++R;
        Emit += R - J;
        J = R;
      } else {
        ++Emit;
        ++I;
        ++J;
      }
      ++Runs;
      if (Emit >= Check) {
        if (Emit < 2 * Runs)
          return true;
        Check = W;
      }
    }
    return Emit < 2 * Runs;
  }

  /// Fused two-array merge+encode into the chunked leaf writer, for
  /// results that can span leaves: each winning entry is byte-coded on the
  /// spot (push_ahead — no staging pass, no encoded_size pass) while the
  /// exact operand remainders guarantee every sealed chunk a legal
  /// successor; once fewer than B+2 entries remain on each side, the rest
  /// merges into a small tail array that finish_tail() closes as the final
  /// one or two leaves. Entries are moved out of \p A and \p B; duplicate
  /// keys invoke \p Op exactly once. Callers gate on
  /// leaf_writer::kCanStream (augmented trees need their entries
  /// materialized; entry-staging schemes build faster from staging).
  template <class CombineOp>
  static node_t *merge_arrays_streamed(entry_t *A, size_t N1, entry_t *B,
                                       size_t N2, const CombineOp &Op) {
    static_assert(TO::leaf_writer::kCanStream,
                  "streamed merges are byte-coded, blocked, unaugmented");
    size_t I = 0, J = 0;
    leaf_chunk_writer W(N1 + N2);
    // Run-length probe state: every ProbeW emitted entries the loop checks
    // the average winner-run length; dense interleave and heavy
    // duplication degrade it toward 1, where the gallop is a per-entry
    // compare/encode chain and the decoded-array path (one merge pass, one
    // batch encode) measures faster. The window is scaled down for small
    // merges so leaf-sized dense merges can still bail out early.
    size_t ProbeW = std::min(merge_probe_window(), (N1 + N2) / 4);
    size_t WinEmit = 0, WinRuns = 0;
    // Galloping batch merge: a pure compare scan finds each run of
    // consecutive winners from one side, then a single push_ahead_n
    // batch-encodes it — compares and encodes run in separate tight
    // loops, and long sorted runs become single batch encodes. Runs
    // are clamped so the push_ahead guarantee (>= B+1 entries follow
    // every seal) always holds against the exact remainders.
    while (I < N1 && J < N2 && (N1 - I >= kB + 2 || N2 - J >= kB + 2)) {
      if (ProbeW != 0 && WinEmit >= ProbeW) {
        if (WinEmit < 2 * WinRuns) {
          // Runs degenerated (average < 2): merge the remainders in one
          // array pass and batch-encode, handing finish_tail its B+1
          // hold-back so every chunk sealed here keeps a legal successor.
          count_merge_fallback();
          temp_buf Rest((N1 - I) + (N2 - J));
          size_t K = merge_move(A + I, N1 - I, B + J, N2 - J, Rest, Op);
          if (K > kB + 1) {
            W.push_ahead_n(Rest.data(), K - (kB + 1));
            return W.finish_tail(Rest.data() + (K - (kB + 1)), kB + 1);
          }
          return W.finish_tail(Rest.data(), K);
        }
        WinEmit = WinRuns = 0;
      }
      if (key_less(entry_key(A[I]), entry_key(B[J]))) {
        size_t R = I + 1;
        while (R < N1 && key_less(entry_key(A[R]), entry_key(B[J])))
          ++R;
        if (N2 - J < kB + 2) {
          size_t Lim = N1 - (kB + 2); // Only A's remainder backs the
          if (R > Lim)                // guarantee: keep B+2 of it.
            R = Lim;
          if (R <= I)
            break;
        }
        W.push_ahead_n(A + I, R - I);
        WinEmit += R - I;
        ++WinRuns;
        I = R;
      } else if (key_less(entry_key(B[J]), entry_key(A[I]))) {
        size_t R = J + 1;
        while (R < N2 && key_less(entry_key(B[R]), entry_key(A[I])))
          ++R;
        if (N1 - I < kB + 2) {
          size_t Lim = N2 - (kB + 2);
          if (R > Lim)
            R = Lim;
          if (R <= J)
            break;
        }
        W.push_ahead_n(B + J, R - J);
        WinEmit += R - J;
        ++WinRuns;
        J = R;
      } else {
        W.push_ahead(combine_entries(std::move(A[I++]), B[J], Op));
        ++J;
        ++WinEmit;
        ++WinRuns;
      }
    }
    // A side whose partner is exhausted batch-encodes all but the B+1
    // entries the tail phase keeps for the hold-back.
    if (J == N2 && N1 - I > kB + 1) {
      size_t Take = (N1 - I) - (kB + 1);
      W.push_ahead_n(A + I, Take);
      I += Take;
    }
    if (I == N1 && N2 - J > kB + 1) {
      size_t Take = (N2 - J) - (kB + 1);
      W.push_ahead_n(B + J, Take);
      J += Take;
    }
    // Merge the short remainder (< B+2 per side) into the tail array.
    temp_buf TailB((N1 - I) + (N2 - J));
    size_t K = merge_move(A + I, N1 - I, B + J, N2 - J, TailB, Op);
    return W.finish_tail(TailB.data(), K);
  }

  //===--------------------------------------------------------------------===
  // Array base cases: every flattened set-op and batch-update base case
  // runs one of these on one worker. Parallelism comes from the join-based
  // recursion above kappa(), never from inside a base case.
  //===--------------------------------------------------------------------===

  /// Union-merge of two sorted entry arrays (moved out) into a tree: the
  /// fused stream+encode
  /// when the encoding supports it (with the run-length fallback inside),
  /// else the array merge + build — which is both the production fallback
  /// and the entry-staging build, itself one batch encode.
  template <class CombineOp>
  static node_t *union_arrays(entry_t *A, size_t N1, entry_t *B, size_t N2,
                              const CombineOp &Op) {
    if constexpr (TO::leaf_writer::kCanStream) {
      if (N1 + N2 > 2 * kB && TO::flat_merge_wins(N1 + N2)) {
        if (!probe_runs_degenerate(A, N1, B, N2))
          return merge_arrays_streamed(A, N1, B, N2, Op);
        count_merge_fallback();
      }
    }
    temp_buf Out(N1 + N2);
    size_t K = merge_move(A, N1, B, N2, Out, Op);
    return from_array_move(Out.data(), K);
  }

  /// Intersection of two sorted entry arrays: matched keys combine (moved
  /// out), everything else drops.
  template <class CombineOp>
  static node_t *intersect_arrays(entry_t *A, size_t N1, entry_t *B,
                                  size_t N2, const CombineOp &Op) {
    temp_buf Out(std::min(N1, N2));
    entry_t *O = Out.data();
    size_t I = 0, J = 0, K = 0;
    while (I < N1 && J < N2) {
      if (key_less(entry_key(A[I]), entry_key(B[J])))
        ++I;
      else if (key_less(entry_key(B[J]), entry_key(A[I])))
        ++J;
      else {
        ::new (static_cast<void *>(O + K++))
            entry_t(combine_entries(std::move(A[I]), B[J], Op));
        Out.set_count(K);
        ++I;
        ++J;
      }
    }
    return from_array_move(O, K);
  }

  /// Difference of two sorted entry arrays: keeps (moves out) A-entries
  /// whose keys are absent from B.
  static node_t *difference_arrays(entry_t *A, size_t N1, entry_t *B,
                                   size_t N2) {
    temp_buf Out(N1);
    entry_t *O = Out.data();
    size_t I = 0, J = 0, K = 0;
    while (I < N1) {
      while (J < N2 && key_less(entry_key(B[J]), entry_key(A[I])))
        ++J;
      if (J < N2 && !key_less(entry_key(A[I]), entry_key(B[J]))) {
        ++I; // Present in B: drop.
        continue;
      }
      ::new (static_cast<void *>(O + K++)) entry_t(std::move(A[I++]));
      Out.set_count(K);
    }
    return from_array_move(O, K);
  }

  /// multi_delete over arrays: keeps (moves out) entries of B whose keys
  /// are absent from the sorted, distinct key array A.
  static node_t *erase_arrays(entry_t *B, size_t Nt, const key_t *A,
                              size_t N) {
    temp_buf Out(Nt);
    entry_t *O = Out.data();
    size_t I = 0, J = 0, K = 0;
    while (I < Nt) {
      while (J < N && key_less(A[J], entry_key(B[I])))
        ++J;
      if (J < N && !key_less(entry_key(B[I]), A[J])) {
        ++I;
        continue;
      }
      ::new (static_cast<void *>(O + K++)) entry_t(std::move(B[I++]));
      Out.set_count(K);
    }
    return from_array_move(O, K);
  }

  /// Merges two encoded blocks directly. Results that fit one leaf merge
  /// cursor-to-cursor (each entry decoded once on its way into the output
  /// stream; uniquely owned inputs moved out, never copied); wider results
  /// flatten both blocks and run the tight array merge above — batch
  /// decode and batch encode pipeline far better than a per-entry
  /// read/compare/encode interleave. Duplicate keys invoke \p Op exactly
  /// once either way.
  template <class CombineOp>
  static node_t *union_flat(node_t *T1, node_t *T2, const CombineOp &Op) {
    size_t N1 = size(T1), N2 = size(T2);
    if constexpr (TO::leaf_writer::kCanStream) {
      if (N1 + N2 > 2 * kB) {
        // Multi-leaf byte-coded result: batch-decode both blocks, then
        // run the fused merge+encode (batch pipelines beat a per-entry
        // decode/compare/encode interleave, whose serial dependency chain
        // measured ~1.5x slower here). Entry-staging encodings skip this
        // and stream interleaved below — their staging array already is
        // the output.
        node_guard G1(T1), G2(T2);
        temp_buf B1(N1), B2(N2);
        flatten(G1.release(), B1.data());
        B1.set_count(N1);
        flatten(G2.release(), B2.data());
        B2.set_count(N2);
        return union_arrays(B1.data(), N1, B2.data(), N2, Op);
      }
    }
    leaf_reader A(T1), B(T2);
    leaf_writer W(N1 + N2);
    while (!A.done() && !B.done()) {
      if (key_less(A.key(), B.key())) {
        W.push(A.take());
      } else if (key_less(B.key(), A.key())) {
        W.push(B.take());
      } else {
        W.push(combine_entries(A.take(), B.peek(), Op));
        B.skip();
      }
    }
    while (!A.done())
      W.push(A.take());
    while (!B.done())
      W.push(B.take());
    return W.finish();
  }

  template <class CombineOp>
  static node_t *intersect_flat(node_t *T1, node_t *T2, const CombineOp &Op) {
    leaf_reader A(T1), B(T2);
    leaf_writer W(std::min(A.remaining(), B.remaining()));
    while (!A.done() && !B.done()) {
      if (key_less(A.key(), B.key())) {
        A.skip();
      } else if (key_less(B.key(), A.key())) {
        B.skip();
      } else {
        W.push(combine_entries(A.take(), B.peek(), Op));
        B.skip();
      }
    }
    return W.finish();
  }

  static node_t *difference_flat(node_t *T1, node_t *T2) {
    leaf_reader A(T1), B(T2);
    leaf_writer W(A.remaining());
    while (!A.done() && !B.done()) {
      if (key_less(A.key(), B.key())) {
        W.push(A.take());
      } else if (key_less(B.key(), A.key())) {
        B.skip();
      } else {
        A.skip();
        B.skip();
      }
    }
    while (!A.done())
      W.push(A.take());
    return W.finish();
  }

  template <class CombineOp>
  static node_t *union_base(node_t *T1, node_t *T2, const CombineOp &Op) {
    size_t N1 = size(T1), N2 = size(T2);
    if (is_flat(T1) && is_flat(T2) && TO::flat_merge_wins(N1 + N2))
      return union_flat(T1, T2, Op);
    node_guard G1(T1), G2(T2);
    temp_buf B1(N1), B2(N2);
    flatten(G1.release(), B1.data());
    B1.set_count(N1);
    flatten(G2.release(), B2.data());
    B2.set_count(N2);
    return union_arrays(B1.data(), N1, B2.data(), N2, Op);
  }

  /// union of two owned trees; values of duplicate keys combine as
  /// Op(value in T1, value in T2). O(m log(n/m) + min(mB, n)) work
  /// (Thms. 6.3/6.7).
  template <class CombineOp = take_right>
  static node_t *union_(node_t *T1, node_t *T2,
                        const CombineOp &Op = CombineOp()) {
    if (!T1)
      return T2;
    if (!T2)
      return T1;
    if (size(T1) + size(T2) <= kappa())
      return union_base(T1, T2, Op);
    // Guard T1 across expose (which only consumes T2), then hold the four
    // subtree pieces until both recursive branches own them; par_do_if
    // always runs both branches, so a throwing side leaves its sibling's
    // result for the catch to release.
    node_guard G1(T1);
    exposed X = expose(T2);
    node_guard GXL(X.L), GXR(X.R);
    split_t S = split(G1.release(), entry_key(X.E));
    node_guard GSL(S.L), GSR(S.R);
    entry_t Mid = S.E ? combine_entries(std::move(*S.E), X.E, Op)
                      : std::move(X.E);
    node_t *SL = GSL.release(), *XL = GXL.release();
    node_t *SR = GSR.release(), *XR = GXR.release();
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(SL) + size(XL) >= kParGran,
          [&] { L = union_(SL, XL, Op); }, [&] { R = union_(SR, XR, Op); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    return join(L, std::move(Mid), R);
  }

  template <class CombineOp>
  static node_t *intersect_base(node_t *T1, node_t *T2, const CombineOp &Op) {
    size_t N1 = size(T1), N2 = size(T2);
    if (is_flat(T1) && is_flat(T2) && TO::flat_splice_wins())
      return intersect_flat(T1, T2, Op);
    node_guard G1(T1), G2(T2);
    temp_buf B1(N1), B2(N2);
    flatten(G1.release(), B1.data());
    B1.set_count(N1);
    flatten(G2.release(), B2.data());
    B2.set_count(N2);
    return intersect_arrays(B1.data(), N1, B2.data(), N2, Op);
  }

  /// Intersection of two owned trees; kept values combine as
  /// Op(value in T1, value in T2).
  template <class CombineOp = take_right>
  static node_t *intersect(node_t *T1, node_t *T2,
                           const CombineOp &Op = CombineOp()) {
    if (!T1 || !T2) {
      dec(T1);
      dec(T2);
      return nullptr;
    }
    if (size(T1) + size(T2) <= kappa())
      return intersect_base(T1, T2, Op);
    node_guard G1(T1);
    exposed X = expose(T2);
    node_guard GXL(X.L), GXR(X.R);
    split_t S = split(G1.release(), entry_key(X.E));
    node_guard GSL(S.L), GSR(S.R);
    std::optional<entry_t> Mid;
    if (S.E)
      Mid.emplace(combine_entries(std::move(*S.E), X.E, Op));
    node_t *SL = GSL.release(), *XL = GXL.release();
    node_t *SR = GSR.release(), *XR = GXR.release();
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(SL) + size(XL) >= kParGran,
          [&] { L = intersect(SL, XL, Op); },
          [&] { R = intersect(SR, XR, Op); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    if (Mid)
      return join(L, std::move(*Mid), R);
    return join2(L, R);
  }

  static node_t *difference_base(node_t *T1, node_t *T2) {
    size_t N1 = size(T1), N2 = size(T2);
    if (is_flat(T1) && is_flat(T2) && TO::flat_splice_wins())
      return difference_flat(T1, T2);
    node_guard G1(T1), G2(T2);
    temp_buf B1(N1), B2(N2);
    flatten(G1.release(), B1.data());
    B1.set_count(N1);
    flatten(G2.release(), B2.data());
    B2.set_count(N2);
    return difference_arrays(B1.data(), N1, B2.data(), N2);
  }

  /// Difference T1 \ T2 of two owned trees.
  static node_t *difference(node_t *T1, node_t *T2) {
    if (!T1) {
      dec(T2);
      return nullptr;
    }
    if (!T2)
      return T1;
    if (size(T1) + size(T2) <= kappa())
      return difference_base(T1, T2);
    node_guard G1(T1);
    exposed X = expose(T2);
    node_guard GXL(X.L), GXR(X.R);
    split_t S = split(G1.release(), entry_key(X.E));
    node_t *SL = S.L, *XL = GXL.release();
    node_t *SR = S.R, *XR = GXR.release();
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(SL) + size(XL) >= kParGran,
          [&] { L = difference(SL, XL); }, [&] { R = difference(SR, XR); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    return join2(L, R);
  }

  //===--------------------------------------------------------------------===
  // multi_insert / multi_delete (Fig. 8).
  //===--------------------------------------------------------------------===

  /// Inserts sorted, key-distinct entries A[0..N) (moved out) into owned
  /// \p T. O(m log(n/m + 1) + min(mB, n)) work.
  template <class CombineOp = take_right>
  static node_t *multi_insert_sorted(node_t *T, entry_t *A, size_t N,
                                     const CombineOp &Op = CombineOp()) {
    if (!T)
      return from_array_move(A, N);
    if (N == 0)
      return T;
    if (size(T) + N <= kappa() || is_flat(T)) {
      size_t Nt = size(T);
      if (Nt + N > kappa()) {
        // A flat leaf against a batch too large for one base case (batch
        // keys past the tree's last key all land in its last leaf): build
        // the batch into a tree and union it in, so the work forks like
        // any union above kappa(). union_ combines as Op(tree, batch).
        node_guard G(T);
        node_t *BT = from_array_move(A, N);
        return union_(G.release(), BT, Op);
      }
      // The same break-even gates every base case now: total operand
      // entries (the batch counts one per element — the old gate priced
      // it in raw bytes, which meant a different threshold here than on
      // the set ops).
      if (is_flat(T) && TO::flat_merge_wins(Nt + N) && Nt + N <= 2 * kB) {
        // Leaf splice: stream the block against the sorted batch (result
        // fits one leaf; anything wider goes through union_arrays below).
        leaf_reader C(T);
        leaf_writer W(Nt + N);
        size_t J = 0;
        while (!C.done() && J < N) {
          if (key_less(C.key(), entry_key(A[J]))) {
            W.push(C.take());
          } else if (key_less(entry_key(A[J]), C.key())) {
            W.push(std::move(A[J++]));
          } else {
            W.push(combine_entries(C.take(), A[J], Op));
            ++J;
          }
        }
        while (!C.done())
          W.push(C.take());
        for (; J < N; ++J)
          W.push(std::move(A[J]));
        return W.finish();
      }
      // Flatten + merge base case (also folds oversized leaves correctly):
      // the fused stream+encode or the plain array merge.
      node_guard G(T);
      temp_buf Bt(Nt);
      flatten(G.release(), Bt.data());
      Bt.set_count(Nt);
      return union_arrays(Bt.data(), Nt, A, N, Op);
    }
    exposed X = expose(T);
    size_t S = lower_bound_idx(A, N, entry_key(X.E));
    bool Dup = S < N && !key_less(entry_key(X.E), entry_key(A[S]));
    node_guard GL(X.L), GR(X.R);
    entry_t Mid = Dup ? combine_entries(std::move(X.E), A[S], Op)
                      : std::move(X.E);
    node_t *XL = GL.release(), *XR = GR.release();
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(XL) + size(XR) + N >= kParGran,
          [&] { L = multi_insert_sorted(XL, A, S, Op); },
          [&] {
            R = multi_insert_sorted(XR, A + S + Dup, N - S - Dup, Op);
          });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    return join(L, std::move(Mid), R);
  }

  /// Deletes the sorted, distinct keys A[0..N) from owned \p T.
  static node_t *multi_delete_sorted(node_t *T, const key_t *A, size_t N) {
    if (!T || N == 0)
      return T;
    if (is_flat(T) || size(T) <= kappa()) {
      size_t Nt = size(T);
      if (N > Nt) {
        // More keys than entries (keys past the tree's last key all land
        // in its last subtree): probe each entry against the batch instead
        // of walking the batch, O(|T| log N), with filter's forks.
        return filter(T, [A, N](const entry_t &E) {
          const key_t *It = std::lower_bound(A, A + N, entry_key(E), key_less);
          return It == A + N || key_less(entry_key(E), *It);
        });
      }
      if (is_flat(T) && TO::flat_merge_wins(Nt + N)) {
        // Leaf splice: keys in A are sorted and distinct, so each can match
        // at most one block entry.
        leaf_reader C(T);
        leaf_writer W(Nt);
        size_t J = 0;
        while (!C.done()) {
          while (J < N && key_less(A[J], C.key()))
            ++J;
          if (J < N && !key_less(C.key(), A[J])) {
            C.skip();
            ++J;
            continue;
          }
          W.push(C.take());
        }
        return W.finish();
      }
      // Flatten + erase base case.
      node_guard G(T);
      temp_buf Bt(Nt);
      flatten(G.release(), Bt.data());
      Bt.set_count(Nt);
      return erase_arrays(Bt.data(), Nt, A, N);
    }
    exposed X = expose(T);
    size_t Lo = 0, Hi = N;
    while (Lo < Hi) { // Keys < root key.
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (key_less(A[Mid], entry_key(X.E)))
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    size_t S = Lo;
    bool Hit = S < N && !key_less(entry_key(X.E), A[S]);
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(X.L) + size(X.R) >= kParGran,
          [&] { L = multi_delete_sorted(X.L, A, S); },
          [&] { R = multi_delete_sorted(X.R, A + S + Hit, N - S - Hit); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    if (Hit)
      return join2(L, R);
    return join(L, std::move(X.E), R);
  }

  //===--------------------------------------------------------------------===
  // Bulk traversals.
  //===--------------------------------------------------------------------===

  /// Keeps entries satisfying \p P. Consumes \p T.
  template <class Pred> static node_t *filter(node_t *T, const Pred &P) {
    if (!T)
      return nullptr;
    if (is_flat(T)) {
      size_t N = T->Size;
      if (TO::flat_splice_wins()) {
        // Stream the block through the cursor pair: each kept entry is
        // decoded once on its way out, nothing is materialized for the
        // dropped ones (|result| <= |T| <= 2B always fits one leaf).
        leaf_reader C(T);
        leaf_writer W(N);
        while (!C.done()) {
          if (P(C.peek()))
            W.push(C.take());
          else
            C.skip();
        }
        return W.finish();
      }
      node_guard G(T);
      temp_buf Buf(N), Out(N);
      flatten(G.release(), Buf.data());
      Buf.set_count(N);
      size_t K = 0;
      for (size_t I = 0; I < N; ++I) {
        if (!P(Buf.data()[I]))
          continue;
        ::new (static_cast<void *>(Out.data() + K++))
            entry_t(std::move(Buf.data()[I]));
        Out.set_count(K);
      }
      return from_array_move(Out.data(), K);
    }
    exposed X = expose(T);
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(X.L) + size(X.R) >= kParGran, [&] { L = filter(X.L, P); },
          [&] { R = filter(X.R, P); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    if (P(X.E))
      return join(L, std::move(X.E), R);
    return join2(L, R);
  }

  /// Transforms every value in place structurally (same entry type),
  /// preserving keys. Consumes \p T.
  template <class F> static node_t *map_values(node_t *T, const F &f) {
    static_assert(Entry::has_val, "map_values requires a map entry");
    if (!T)
      return nullptr;
    if (is_flat(T)) {
      size_t N = T->Size;
      if (TO::flat_splice_wins()) {
        // Keys pass through untouched (still strictly increasing, as the
        // byte-coded write cursors require); only values are rewritten.
        leaf_reader C(T);
        leaf_writer W(N);
        while (!C.done()) {
          entry_t E = C.take();
          Entry::get_val(E) = f(E);
          W.push(std::move(E));
        }
        return W.finish();
      }
      node_guard G(T);
      temp_buf Buf(N);
      flatten(G.release(), Buf.data());
      Buf.set_count(N);
      for (size_t I = 0; I < N; ++I)
        Entry::get_val(Buf.data()[I]) = f(Buf.data()[I]);
      return from_array_move(Buf.data(), N);
    }
    exposed X = expose(T);
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(X.L) + size(X.R) >= kParGran,
          [&] { L = map_values(X.L, f); }, [&] { R = map_values(X.R, f); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    Entry::get_val(X.E) = f(X.E);
    return node_join(L, std::move(X.E), R);
  }

  /// Reduces f(entry) over the tree with the associative \p Combine
  /// (read-only). O(n) work, O(log n) span.
  template <class F, class T2, class Combine>
  static T2 map_reduce(const node_t *T, const F &f, T2 Identity,
                       const Combine &Cmb) {
    if (!T)
      return Identity;
    if (is_flat(T)) {
      const auto *Fl = static_cast<const typename NL::flat_t *>(T);
      T2 Acc = Identity;
      NL::encoder::for_each_while(NL::payload(Fl), T->Size,
                                  [&](const entry_t &E) {
                                    Acc = Cmb(Acc, f(E));
                                    return true;
                                  });
      return Acc;
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    T2 A = Identity, B = Identity;
    par::par_do_if(
        T->Size >= kParGran,
        [&] { A = map_reduce(R->Left, f, Identity, Cmb); },
        [&] { B = map_reduce(R->Right, f, Identity, Cmb); });
    return Cmb(Cmb(A, f(R->E)), B);
  }

  /// In-order sequential visit (read-only). \p f returns false to stop
  /// early; returns false if stopped.
  template <class F> static bool foreach_seq(const node_t *T, const F &f) {
    if (!T)
      return true;
    if (is_flat(T)) {
      const auto *Fl = static_cast<const typename NL::flat_t *>(T);
      return NL::encoder::for_each_while(NL::payload(Fl), T->Size, f);
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    return foreach_seq(R->Left, f) && f(R->E) && foreach_seq(R->Right, f);
  }

  /// Parallel indexed visit: f(I, E) where I is the in-order index
  /// (read-only).
  template <class F>
  static void foreach_index(const node_t *T, const F &f, size_t Offset = 0) {
    if (!T)
      return;
    if (is_flat(T)) {
      const auto *Fl = static_cast<const typename NL::flat_t *>(T);
      size_t I = Offset;
      NL::encoder::for_each_while(NL::payload(Fl), T->Size,
                                  [&](const entry_t &E) {
                                    f(I++, E);
                                    return true;
                                  });
      return;
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    size_t Ls = size(R->Left);
    f(Offset + Ls, R->E);
    par::par_do_if(
        T->Size >= kParGran, [&] { foreach_index(R->Left, f, Offset); },
        [&] { foreach_index(R->Right, f, Offset + Ls + 1); });
  }

  //===--------------------------------------------------------------------===
  // Range extraction.
  //===--------------------------------------------------------------------===

  /// Tree of all entries with KL <= key <= KR. Consumes \p T.
  /// O(log n + B) work (Table 1).
  static node_t *range(node_t *T, const key_t &KL, const key_t &KR) {
    split_t S1 = split(T, KL);
    dec(S1.L);
    split_t S2 = split(S1.R, KR);
    dec(S2.R);
    node_t *Out = S2.L;
    if (S2.E)
      Out = join(Out, std::move(*S2.E), nullptr);
    if (S1.E)
      Out = join(nullptr, std::move(*S1.E), Out);
    return Out;
  }

  //===--------------------------------------------------------------------===
  // Build from unsorted input.
  //===--------------------------------------------------------------------===

  /// Stably sorts A by key and combines duplicate keys left-to-right with
  /// \p Op; returns the deduplicated length.
  template <class CombineOp = take_right>
  static size_t sort_and_combine(entry_t *A, size_t N,
                                 const CombineOp &Op = CombineOp()) {
    return par::sort_combine_by_key(
        A, N, entry_key, entry_less_t<Entry>(),
        [&](entry_t &Acc, const entry_t &E) {
          if constexpr (Entry::has_val)
            Entry::get_val(Acc) = Op(Entry::get_val(Acc), Entry::get_val(E));
        });
  }

  /// Sorts the keys K[0..N) and drops repeats; returns the distinct count.
  static size_t sort_unique_keys(key_t *K, size_t N) {
    return par::sort_combine_by_key(
        K, N, [](const key_t &X) -> const key_t & { return X; },
        entry_less_t<Entry>(), [](key_t &, const key_t &) {});
  }

  /// Builds a tree from \p N unsorted entries with possible duplicate keys.
  /// O(n log n) work (Table 1).
  template <class CombineOp = take_right>
  static node_t *build(const entry_t *A, size_t N,
                       const CombineOp &Op = CombineOp()) {
    std::vector<entry_t> V(N);
    par::parallel_for(0, N, [&](size_t I) { V[I] = A[I]; });
    size_t K = sort_and_combine(V.data(), N, Op);
    return from_array_move(V.data(), K);
  }

  /// Builds from entries the caller relinquishes (no copy).
  template <class CombineOp = take_right>
  static node_t *build_move(entry_t *A, size_t N,
                            const CombineOp &Op = CombineOp()) {
    size_t K = sort_and_combine(A, N, Op);
    return from_array_move(A, K);
  }
};

} // namespace cpam

#endif // CPAM_CORE_MAP_OPS_H
