//===- primitives.h - Parallel array primitives ---------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel primitives over contiguous arrays: tabulate, reduce, exclusive
/// scan, pack/filter, merge and stable sorts. These stand in for the
/// ParlayLib primitives the original CPAM builds on.
///
///  - reduce, scan, pack: O(n) work.
///  - merge: stable, O(n) work, O(log^2 n) span.
///  - sort: the one comparison sort, a stable merge sort with
///    std::stable_sort leaves. O(n log n) work, O(log^3 n) span.
///  - sort_by_key: the batch-update sort, also stable. Unsigned integer
///    keys under std::less take an LSD radix sort: O(n * ceil(b / 8)) work
///    for keys of b significant bits, so 40-bit keys take 5 passes. Every
///    other key or comparator takes sort.
///  - sort_combine_by_key: sort_by_key, then one O(n) pass that folds each
///    run of equal keys left to right (multi_insert's combine and
///    multi_delete's dedup).
///
/// Inputs of at most kSeqThreshold elements sort sequentially, and those of
/// at most 16 by insertion sort, which allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_PARALLEL_PRIMITIVES_H
#define CPAM_PARALLEL_PRIMITIVES_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/parallel/scheduler.h"

namespace cpam {
namespace par {

/// Sequential cutoff below which divide-and-conquer primitives stop forking.
inline constexpr size_t kSeqThreshold = 2048;

/// Builds a vector of length \p N whose I-th element is f(I).
template <class F>
auto tabulate(size_t N, const F &f) -> std::vector<decltype(f(size_t(0)))> {
  using T = decltype(f(size_t(0)));
  std::vector<T> Out(N);
  parallel_for(0, N, [&](size_t I) { Out[I] = f(I); });
  return Out;
}

namespace detail {
template <class T, class F>
T reduce_rec(const T *A, size_t N, const T &Identity, const F &f) {
  if (N == 0)
    return Identity;
  if (N <= kSeqThreshold) {
    T Acc = A[0];
    for (size_t I = 1; I < N; ++I)
      Acc = f(Acc, A[I]);
    return Acc;
  }
  size_t Mid = N / 2;
  T L = Identity, R = Identity;
  par_do([&] { L = reduce_rec(A, Mid, Identity, f); },
         [&] { R = reduce_rec(A + Mid, N - Mid, Identity, f); });
  return f(L, R);
}

template <class F, class T, class G>
T reduce_idx_rec(size_t Lo, size_t Hi, const G &get, const T &Identity,
                 const F &f) {
  if (Lo >= Hi)
    return Identity;
  size_t N = Hi - Lo;
  if (N <= kSeqThreshold) {
    T Acc = get(Lo);
    for (size_t I = Lo + 1; I < Hi; ++I)
      Acc = f(Acc, get(I));
    return Acc;
  }
  size_t Mid = Lo + N / 2;
  T L = Identity, R = Identity;
  par_do([&] { L = reduce_idx_rec(Lo, Mid, get, Identity, f); },
         [&] { R = reduce_idx_rec(Mid, Hi, get, Identity, f); });
  return f(L, R);
}
} // namespace detail

/// Reduces A[0..N) with the associative operation \p f.
template <class T, class F>
T reduce(const T *A, size_t N, T Identity, const F &f) {
  return detail::reduce_rec(A, N, Identity, f);
}

/// Reduces get(Lo..Hi) with the associative operation \p f.
template <class T, class G, class F>
T reduce_index(size_t Lo, size_t Hi, const G &get, T Identity, const F &f) {
  return detail::reduce_idx_rec(Lo, Hi, get, Identity, f);
}

/// Exclusive prefix sums of A[0..N) into Out (may alias A); returns total.
template <class T>
T scan_exclusive(const T *A, size_t N, T *Out, T Identity = T()) {
  if (N == 0)
    return Identity;
  if (N <= kSeqThreshold) {
    T Acc = Identity;
    for (size_t I = 0; I < N; ++I) {
      T V = A[I];
      Out[I] = Acc;
      Acc = Acc + V;
    }
    return Acc;
  }
  size_t NumBlocks = (N + kSeqThreshold - 1) / kSeqThreshold;
  std::vector<T> BlockSums(NumBlocks);
  parallel_for(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * kSeqThreshold, Hi = std::min(N, Lo + kSeqThreshold);
        T Acc = Identity;
        for (size_t I = Lo; I < Hi; ++I)
          Acc = Acc + A[I];
        BlockSums[B] = Acc;
      },
      1);
  T Total = Identity;
  for (size_t B = 0; B < NumBlocks; ++B) {
    T V = BlockSums[B];
    BlockSums[B] = Total;
    Total = Total + V;
  }
  parallel_for(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * kSeqThreshold, Hi = std::min(N, Lo + kSeqThreshold);
        T Acc = BlockSums[B];
        for (size_t I = Lo; I < Hi; ++I) {
          T V = A[I];
          Out[I] = Acc;
          Acc = Acc + V;
        }
      },
      1);
  return Total;
}

namespace detail {
/// Blocked compaction scaffold shared by pack and pack_index: count kept
/// elements per block, prefix-sum the block offsets, then scatter.
/// EmitAt(K, I) writes the value for kept index I to output slot K.
template <class Flags, class Emit>
size_t pack_blocks(size_t N, const Flags &Keep, const Emit &EmitAt) {
  if (N == 0)
    return 0;
  if (N <= kSeqThreshold) {
    size_t K = 0;
    for (size_t I = 0; I < N; ++I)
      if (Keep(I))
        EmitAt(K++, I);
    return K;
  }
  size_t NumBlocks = (N + kSeqThreshold - 1) / kSeqThreshold;
  std::vector<size_t> Counts(NumBlocks);
  parallel_for(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * kSeqThreshold, Hi = std::min(N, Lo + kSeqThreshold);
        size_t C = 0;
        for (size_t I = Lo; I < Hi; ++I)
          C += Keep(I) ? 1 : 0;
        Counts[B] = C;
      },
      1);
  size_t Total = 0;
  for (size_t B = 0; B < NumBlocks; ++B) {
    size_t C = Counts[B];
    Counts[B] = Total;
    Total += C;
  }
  parallel_for(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * kSeqThreshold, Hi = std::min(N, Lo + kSeqThreshold);
        size_t K = Counts[B];
        for (size_t I = Lo; I < Hi; ++I)
          if (Keep(I))
            EmitAt(K++, I);
      },
      1);
  return Total;
}
} // namespace detail

/// Copies the elements of A[0..N) whose flag is set into Out (compacted).
/// Returns the number of elements written.
template <class T, class Flags>
size_t pack(const T *A, const Flags &Keep, size_t N, T *Out) {
  return detail::pack_blocks(N, Keep,
                             [&](size_t K, size_t I) { Out[K] = A[I]; });
}

/// Writes the indices I in [0, N) with Keep(I) set into Out (compacted);
/// returns the number written. Equivalent to pack over the identity array
/// without materializing it.
template <class Flags>
size_t pack_index(size_t N, const Flags &Keep, size_t *Out) {
  return detail::pack_blocks(N, Keep,
                             [&](size_t K, size_t I) { Out[K] = I; });
}

/// filter: pack with a predicate over element values.
template <class T, class Pred>
size_t filter(const T *A, size_t N, T *Out, const Pred &P) {
  return pack(A, [&](size_t I) { return P(A[I]); }, N, Out);
}

namespace detail {
/// Largest input insertion-sorted: stable, in place and allocation-free,
/// so the few-entry batches of a serving writer never touch the heap.
inline constexpr size_t kInsertionSortMax = 16;

template <class T, class Less>
void insertion_sort(T *A, size_t N, const Less &Lt) {
  for (size_t I = 1; I < N; ++I) {
    if (!Lt(A[I], A[I - 1]))
      continue;
    T X = std::move(A[I]);
    size_t J = I;
    do {
      A[J] = std::move(A[J - 1]);
      --J;
    } while (J > 0 && Lt(X, A[J - 1]));
    A[J] = std::move(X);
  }
}

/// Sequential stable sort: the base case of every parallel sort.
template <class T, class Less>
void seq_sort(T *A, size_t N, const Less &Lt) {
  if (N <= kInsertionSortMax)
    insertion_sort(A, N, Lt);
  else
    std::stable_sort(A, A + N, Lt);
}

/// Stable merge: on equal keys, every element of A precedes every element
/// of B. The larger input is split at its median M. Splitting A sends B's
/// elements equal to A[M] right (lower_bound); splitting B sends A's
/// elements equal to B[M] left (upper_bound). Either way both halves keep
/// the (A, B) argument order, so std::merge's left-first ties hold.
template <class T, class Less>
void merge_rec(const T *A, size_t Na, const T *B, size_t Nb, T *Out,
               const Less &Lt) {
  if (Na + Nb <= kSeqThreshold) {
    std::merge(A, A + Na, B, B + Nb, Out, Lt);
    return;
  }
  size_t Ma = Na / 2, Mb = Nb / 2;
  if (Na >= Nb)
    Mb = std::lower_bound(B, B + Nb, A[Ma], Lt) - B;
  else
    Ma = std::upper_bound(A, A + Na, B[Mb], Lt) - A;
  par_do([&] { merge_rec(A, Ma, B, Mb, Out, Lt); },
         [&] { merge_rec(A + Ma, Na - Ma, B + Mb, Nb - Mb, Out + Ma + Mb, Lt); });
}

/// Stable merge sort of A[0..N); the result lands in Buf if OutInBuf,
/// else in A.
template <class T, class Less>
void sort_rec(T *A, size_t N, T *Buf, bool OutInBuf, const Less &Lt) {
  if (N <= kSeqThreshold) {
    seq_sort(A, N, Lt);
    if (OutInBuf)
      std::move(A, A + N, Buf);
    return;
  }
  size_t Mid = N / 2;
  par_do([&] { sort_rec(A, Mid, Buf, !OutInBuf, Lt); },
         [&] { sort_rec(A + Mid, N - Mid, Buf + Mid, !OutInBuf, Lt); });
  if (OutInBuf)
    merge_rec(A, Mid, A + Mid, N - Mid, Buf, Lt);
  else
    merge_rec(Buf, Mid, Buf + Mid, N - Mid, A, Lt);
}

/// Scratch array of N elements for a sort's ping-pong passes. Types with
/// trivial move construction and destruction (integers, pairs of them)
/// are implicit-lifetime types: their buffer is raw storage, not a
/// zero-filled one. Other types are default-constructed.
template <class T> class sort_buffer {
  static constexpr bool kRaw = std::is_trivially_move_constructible_v<T> &&
                               std::is_trivially_destructible_v<T>;

  static T *allocate(size_t N) {
    if constexpr (kRaw)
      return std::allocator<T>().allocate(N);
    else
      return new T[N];
  }

public:
  explicit sort_buffer(size_t N) : N(N), P(allocate(N)) {}
  ~sort_buffer() {
    if constexpr (kRaw)
      std::allocator<T>().deallocate(P, N);
    else
      delete[] P;
  }
  sort_buffer(const sort_buffer &) = delete;
  sort_buffer &operator=(const sort_buffer &) = delete;
  T *get() const { return P; }

private:
  size_t N;
  T *P;
};

/// Digit width of the radix sort: 256 buckets, so one block's counts
/// (2 KB) stay in L1 while the block is counted and scattered.
inline constexpr unsigned kRadixBits = 8;

/// Stable LSD radix sort of A[0..N) by Key, ping-ponging between A and
/// Buf; returns whichever holds the result. It makes one pass per
/// kRadixBits digit of the keys' significant bits, which the first pass's
/// counting loop finds with an OR over the keys. Each pass counts digits
/// per block, scans the counts in (digit, block) order, then scatters
/// every block to its offsets, so entries with equal digits keep their
/// order.
template <class T, class KeyOf>
T *radix_sort(T *A, T *Buf, size_t N, const KeyOf &Key) {
  constexpr size_t kBuckets = size_t(1) << kRadixBits;
  constexpr uint64_t kMask = kBuckets - 1;
  const size_t Chunks =
      kParallelForOversub * static_cast<size_t>(num_workers());
  const size_t BlockLen = std::max(kSeqThreshold, (N + Chunks - 1) / Chunks);
  const size_t NumBlocks = (N + BlockLen - 1) / BlockLen;
  std::vector<size_t> Counts(NumBlocks * kBuckets);
  std::vector<uint64_t> BlockBits(NumBlocks);
  auto Bits = [&](const T &E) { return static_cast<uint64_t>(Key(E)); };
  T *Src = A, *Dst = Buf;
  unsigned Passes = 1;
  for (unsigned P = 0; P < Passes; ++P) {
    const unsigned Shift = P * kRadixBits;
    parallel_for(
        0, NumBlocks,
        [&](size_t B) {
          size_t *C = &Counts[B * kBuckets];
          std::fill(C, C + kBuckets, 0);
          size_t Lo = B * BlockLen, Hi = std::min(N, Lo + BlockLen);
          if (P == 0) {
            uint64_t Or = 0;
            for (size_t I = Lo; I < Hi; ++I) {
              uint64_t K = Bits(Src[I]);
              Or |= K;
              ++C[K & kMask];
            }
            BlockBits[B] = Or;
          } else {
            for (size_t I = Lo; I < Hi; ++I)
              ++C[(Bits(Src[I]) >> Shift) & kMask];
          }
        },
        1);
    if (P == 0) {
      uint64_t Or = 0;
      for (uint64_t X : BlockBits)
        Or |= X;
      unsigned Width = static_cast<unsigned>(std::bit_width(Or));
      Passes = std::max(1u, (Width + kRadixBits - 1) / kRadixBits);
    }
    size_t Sum = 0;
    for (size_t D = 0; D < kBuckets; ++D)
      for (size_t B = 0; B < NumBlocks; ++B) {
        size_t C = Counts[B * kBuckets + D];
        Counts[B * kBuckets + D] = Sum;
        Sum += C;
      }
    parallel_for(
        0, NumBlocks,
        [&](size_t B) {
          size_t *C = &Counts[B * kBuckets];
          size_t Lo = B * BlockLen, Hi = std::min(N, Lo + BlockLen);
          for (size_t I = Lo; I < Hi; ++I)
            Dst[C[(Bits(Src[I]) >> Shift) & kMask]++] = std::move(Src[I]);
        },
        1);
    std::swap(Src, Dst);
  }
  return Src;
}
} // namespace detail

/// Key types that sort_by_key radix-sorts: unsigned integers of at most 64
/// bits under their natural order. Every other key or comparator takes
/// the stable merge sort.
template <class K, class Less>
inline constexpr bool radix_sortable_v =
    std::is_integral_v<K> && std::is_unsigned_v<K> &&
    sizeof(K) <= sizeof(uint64_t) && std::is_same_v<Less, std::less<K>>;

/// Key type that \p KeyOf extracts from a T.
template <class T, class KeyOf>
using key_of_t =
    std::remove_cvref_t<std::invoke_result_t<const KeyOf &, const T &>>;

namespace detail {
/// Orders elements by their keys under \p Lt.
template <class KeyOf, class Less>
auto by_key(const KeyOf &Key, const Less &Lt) {
  return [&Key, &Lt](const auto &X, const auto &Y) {
    return Lt(Key(X), Key(Y));
  };
}

/// Stably sorts A[0..N) by key, N > kSeqThreshold, with Buf as scratch;
/// returns the array that holds the result. The merge sort lands where
/// \p InBuf asks, the radix sort wherever its pass count leaves it.
template <class T, class KeyOf, class Less>
T *sort_by_key_par(T *A, T *Buf, size_t N, const KeyOf &Key,
                   const Less &Lt, bool InBuf) {
  if constexpr (radix_sortable_v<key_of_t<T, KeyOf>, Less>) {
    return radix_sort(A, Buf, N, Key);
  } else {
    sort_rec(A, N, Buf, InBuf, by_key(Key, Lt));
    return InBuf ? Buf : A;
  }
}
} // namespace detail

/// Merges sorted A[0..Na) and B[0..Nb) into Out under \p Lt (stable: on
/// ties, A's elements come first).
template <class T, class Less = std::less<T>>
void merge(const T *A, size_t Na, const T *B, size_t Nb, T *Out,
           Less Lt = Less()) {
  detail::merge_rec(A, Na, B, Nb, Out, Lt);
}

/// Stable parallel merge sort of A[0..N) in place: O(n log n) work,
/// O(log^3 n) span. Inputs of at most kSeqThreshold elements are sorted
/// sequentially (insertion sort up to 16, which allocates nothing).
template <class T, class Less = std::less<T>>
void sort(T *A, size_t N, Less Lt = Less()) {
  if (N <= kSeqThreshold) {
    detail::seq_sort(A, N, Lt);
    return;
  }
  detail::sort_buffer<T> Buf(N);
  detail::sort_rec(A, N, Buf.get(), /*OutInBuf=*/false, Lt);
}

/// Parallel sort of a vector in place.
template <class T, class Less = std::less<T>>
void sort(std::vector<T> &V, Less Lt = Less()) {
  sort(V.data(), V.size(), Lt);
}

/// Stable parallel sort of A[0..N) by Key(A[I]) under \p Lt. Unsigned
/// integer keys under std::less (radix_sortable_v) take an LSD radix sort:
/// O(n * ceil(b / 8)) work for keys of b significant bits, in n/(8p)-entry
/// blocks on p workers. Other keys take par::sort.
template <class T, class KeyOf, class Less = std::less<key_of_t<T, KeyOf>>>
void sort_by_key(T *A, size_t N, const KeyOf &Key, Less Lt = Less()) {
  if (N <= kSeqThreshold) {
    detail::seq_sort(A, N, detail::by_key(Key, Lt));
    return;
  }
  detail::sort_buffer<T> Buf(N);
  T *S = detail::sort_by_key_par(A, Buf.get(), N, Key, Lt, /*InBuf=*/false);
  if (S != A)
    parallel_for(0, N, [&](size_t I) { A[I] = std::move(S[I]); });
}

/// sort_by_key, then folds each run of equal keys left to right into its
/// first element with Combine(T &Acc, const T &Next), compacting the
/// results into A[0..K); returns K. Combine must not change the key. The
/// fold reads the sort's final array and writes A, so it builds no index
/// or staging arrays; O(n) work on top of the sort. Inputs of at most
/// kSeqThreshold elements are sorted and folded in place.
template <class T, class KeyOf, class Less, class Combine>
size_t sort_combine_by_key(T *A, size_t N, const KeyOf &Key, Less Lt,
                           const Combine &Cmb) {
  if (N <= kSeqThreshold) {
    detail::seq_sort(A, N, detail::by_key(Key, Lt));
    size_t K = 0;
    for (size_t I = 0; I < N; ++I) {
      if (K > 0 && !Lt(Key(A[K - 1]), Key(A[I])))
        Cmb(A[K - 1], A[I]);
      else if (K++ != I)
        A[K - 1] = std::move(A[I]);
    }
    return K;
  }
  detail::sort_buffer<T> Buf(N);
  T *S = detail::sort_by_key_par(A, Buf.get(), N, Key, Lt, /*InBuf=*/true);
  if (S == A) {
    S = Buf.get();
    parallel_for(0, N, [&](size_t I) { S[I] = std::move(A[I]); });
  }
  // Runs may cross blocks, so S is only read here: each run is folded by
  // the block holding its first element.
  return detail::pack_blocks(
      N, [&](size_t I) { return I == 0 || Lt(Key(S[I - 1]), Key(S[I])); },
      [&](size_t K, size_t I) {
        T Acc = S[I];
        for (size_t J = I + 1; J < N && !Lt(Key(S[I]), Key(S[J])); ++J)
          Cmb(Acc, S[J]);
        A[K] = std::move(Acc);
      });
}

/// Removes adjacent duplicates from sorted A (by Eq); returns new length.
template <class T, class Eq = std::equal_to<T>>
size_t unique(T *A, size_t N, Eq Equal = Eq()) {
  if (N == 0)
    return 0;
  if (N <= kSeqThreshold)
    return std::unique(A, A + N, Equal) - A;
  std::vector<T> Tmp(N);
  size_t K = pack(
      A, [&](size_t I) { return I == 0 || !Equal(A[I - 1], A[I]); }, N,
      Tmp.data());
  parallel_for(0, K, [&](size_t I) { A[I] = Tmp[I]; });
  return K;
}

} // namespace par
} // namespace cpam

#endif // CPAM_PARALLEL_PRIMITIVES_H
