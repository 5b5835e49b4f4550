//===- basic_tree.h - join / expose / split on PaC-trees -------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The join-based primitive layer of Figs. 5 and 9: `node_join` (the
/// invariant-enforcing `node()`), `expose`, `join` with weight-balanced
/// rotations, `split`, `split_last`/`join2`, and array<->tree conversion.
/// All higher-level algorithms (union, filter, maps, sequences, augmented
/// queries) are written against exactly these primitives, which is the
/// paper's central software-design claim: redesigning join and expose lets
/// the whole PAM algorithm suite run unchanged over compressed leaves.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_BASIC_TREE_H
#define CPAM_CORE_BASIC_TREE_H

#include <algorithm>
#include <optional>
#include <utility>

#include "src/core/node.h"

namespace cpam {

template <class Entry, template <class> class EncoderT, int BlockSizeB>
struct tree_ops : node_layer<Entry, EncoderT, BlockSizeB> {
  using NL = node_layer<Entry, EncoderT, BlockSizeB>;
  using node_t = typename NL::node_t;
  using entry_t = typename NL::entry_t;
  using key_t = typename NL::key_t;
  using temp_buf = typename NL::temp_buf;
  using node_guard = typename NL::node_guard;
  using NL::as_flat;
  using NL::as_regular;
  using NL::dec;
  using NL::inc;
  using NL::is_flat;
  using NL::kB;
  using NL::kBlocked;
  using NL::make_flat;
  using NL::make_regular;
  using NL::flatten;
  using NL::ref_count;
  using NL::size;
  using NL::unfold;
  using NL::weight;

  /// Weight-balance parameter alpha = 0.29 (Def. 4.1), as the integer
  /// fraction kAlphaNum/100. alpha <= 1 - 1/sqrt(2) as required for
  /// join-based rebalancing [Blelloch-Ferizovic-Sun].
  static constexpr size_t kAlphaNum = 29;
  /// Fork granularity: subproblems at least this large fork in parallel.
  /// 2048 entries of tree work (tens of microseconds) against a ~19 ns
  /// lock-free push+reclaim cycle keeps fork overhead well under 1%
  /// (bench_scheduler "fork_overhead" and the union/build/flatten grain
  /// A/B rows in BENCH_PR4.json).
  static constexpr size_t kParGran = 2048;

  /// True if a node with child weights \p WL, \p WR is weight-balanced.
  static bool balanced(size_t WL, size_t WR) {
    return 100 * WL >= kAlphaNum * (WL + WR) &&
           100 * WR >= kAlphaNum * (WL + WR);
  }
  /// True if the side with weight \p WA is too heavy against \p WB.
  static bool heavy(size_t WA, size_t WB) {
    return 100 * WB < kAlphaNum * (WA + WB);
  }

  //===--------------------------------------------------------------------===
  // node(): create a node enforcing the blocked-leaves invariant (Fig. 5).
  //===--------------------------------------------------------------------===

  /// Combines owned \p L, \p E, \p R into one tree. Callers must ensure
  /// weight balance (as join does); this function enforces only the
  /// blocked-leaves invariant: sizes in [B,2B] fold into one flat node,
  /// sizes in (2B,4B] redistribute around the median into two flat nodes.
  /// Like every consuming builder: a throw (injected or real bad_alloc)
  /// releases all owned inputs, so callers holding siblings only need their
  /// own guards.
  static node_t *node_join(node_t *L, entry_t E, node_t *R) {
    if constexpr (!kBlocked)
      return make_regular(L, std::move(E), R);
    size_t S = size(L) + size(R) + 1;
    if (S < kB)
      return make_regular(L, std::move(E), R);
    if (S > 4 * kB) {
      node_guard GR(R);
      node_t *Ln = normalize(L);
      node_guard GLn(Ln);
      node_t *Rn = normalize(GR.release());
      return make_regular(GLn.release(), std::move(E), Rn);
    }
    if (S <= 2 * kB) {
      // Fold everything into a single flat node.
      node_guard GL(L), GR(R);
      temp_buf Buf(S);
      size_t Ls = flatten(GL.release(), Buf.data());
      ::new (static_cast<void *>(Buf.data() + Ls)) entry_t(std::move(E));
      flatten(GR.release(), Buf.data() + Ls + 1);
      Buf.set_count(S);
      return make_flat(Buf.data(), S);
    }
    // 2B < S <= 4B. If both children are already flat blocks of legal size
    // (a root block may be smaller than B), the invariant holds as-is.
    if (is_flat(L) && is_flat(R) && L->Size >= kB && R->Size >= kB)
      return make_regular(L, std::move(E), R);
    // Otherwise redistribute into two equal flat blocks around the median.
    node_guard GL(L), GR(R);
    temp_buf Buf(S);
    size_t Ls = flatten(GL.release(), Buf.data());
    ::new (static_cast<void *>(Buf.data() + Ls)) entry_t(std::move(E));
    flatten(GR.release(), Buf.data() + Ls + 1);
    Buf.set_count(S);
    size_t Mid = S / 2;
    node_t *Lf = make_flat(Buf.data(), Mid);
    node_t *Rf;
    try {
      Rf = make_flat(Buf.data() + Mid + 1, S - Mid - 1);
    } catch (...) {
      dec(Lf);
      throw;
    }
    return make_regular(Lf, std::move(Buf.data()[Mid]), Rf);
  }

  /// Folds a whole tree smaller than B into a single root-level flat block.
  /// Trees of size < B would otherwise be all-regular "simplex" trees
  /// (Def. 4.1 only constrains leaves when |T| >= B); storing them as one
  /// block is what makes low-degree edge lists and short posting lists
  /// compact, as in the CPAM implementation. Applied at API boundaries.
  static node_t *compress_root(node_t *T) {
    if constexpr (!kBlocked)
      return T;
    if (!T || is_flat(T) || T->Size >= kB)
      return T;
    size_t N = T->Size;
    node_guard G(T);
    temp_buf Buf(N);
    flatten(G.release(), Buf.data());
    Buf.set_count(N);
    return make_flat(Buf.data(), N);
  }

  /// Repairs a child that should be a flat block but is a raw expanded
  /// subtree (possible after rotations over freshly unfolded nodes): any
  /// regular subtree of size [B, 2B] is folded into a single flat node.
  static node_t *normalize(node_t *C) {
    if constexpr (!kBlocked)
      return C;
    if (!C || is_flat(C) || C->Size < kB || C->Size > 2 * kB)
      return C;
    size_t N = C->Size;
    node_guard G(C);
    temp_buf Buf(N);
    flatten(G.release(), Buf.data());
    Buf.set_count(N);
    return make_flat(Buf.data(), N);
  }

  //===--------------------------------------------------------------------===
  // expose (Fig. 5): destructure a tree into (left, entry, right).
  //===--------------------------------------------------------------------===

  struct exposed {
    node_t *L;
    entry_t E;
    node_t *R;
  };

  /// Destructures \p T, consuming one reference. Flat nodes are expanded
  /// first (unfold); unique nodes are cannibalized without copying.
  static exposed expose(node_t *T) {
    assert(T && "cannot expose an empty tree");
    if (is_flat(T))
      T = unfold(T);
    auto *R = as_regular(T);
    if (ref_count(T) == 1) {
      exposed Out{R->Left, std::move(R->E), R->Right};
      NL::free_regular_shell(R);
      return Out;
    }
    exposed Out{inc(R->Left), R->E, inc(R->Right)};
    dec(T);
    return Out;
  }

  //===--------------------------------------------------------------------===
  // join (Figs. 5/9): concatenate two trees around a middle entry.
  //===--------------------------------------------------------------------===

  /// Joins owned \p L and \p R around \p E; every key in L precedes E and
  /// every key in R follows it. O(|log w(L) - log w(R)|) work on complex
  /// trees (Thm. 6.1).
  static node_t *join(node_t *L, entry_t E, node_t *R) {
    if (heavy(weight(L), weight(R)))
      return join_right(L, std::move(E), R);
    if (heavy(weight(R), weight(L)))
      return join_left(L, std::move(E), R);
    return node_join(L, std::move(E), R);
  }

  static node_t *join_right(node_t *Tl, entry_t E, node_t *Tr) {
    if (balanced(weight(Tl), weight(Tr)))
      return node_join(Tl, std::move(E), Tr);
    // A flat Tl bounds the total size by < 3B; node_join redistributes.
    if (is_flat(Tl))
      return node_join(Tl, std::move(E), Tr);
    exposed X = expose(Tl);
    node_guard GXL(X.L);
    node_t *T2 = join_right(X.R, std::move(E), Tr);
    if (balanced(weight(X.L), weight(T2)))
      return node_join(GXL.release(), std::move(X.E), T2);
    exposed Y = expose(T2);
    if (balanced(weight(X.L), weight(Y.L)) &&
        balanced(weight(X.L) + weight(Y.L), weight(Y.R))) {
      // Single (left) rotation.
      node_guard GYR(Y.R);
      node_t *Inner = node_join(GXL.release(), std::move(X.E), Y.L);
      return node_join(Inner, std::move(Y.E), GYR.release());
    }
    // Double rotation: rotate Y.L right, then the root left.
    node_guard GYR(Y.R);
    exposed Z = expose(Y.L);
    node_guard GZR(Z.R);
    node_t *A = node_join(GXL.release(), std::move(X.E), Z.L);
    node_t *B;
    try {
      B = node_join(GZR.release(), std::move(Y.E), GYR.release());
    } catch (...) {
      dec(A);
      throw;
    }
    return node_join(A, std::move(Z.E), B);
  }

  static node_t *join_left(node_t *Tl, entry_t E, node_t *Tr) {
    if (balanced(weight(Tl), weight(Tr)))
      return node_join(Tl, std::move(E), Tr);
    if (is_flat(Tr))
      return node_join(Tl, std::move(E), Tr);
    exposed X = expose(Tr);
    node_guard GXR(X.R);
    node_t *T2 = join_left(Tl, std::move(E), X.L);
    if (balanced(weight(T2), weight(X.R)))
      return node_join(T2, std::move(X.E), GXR.release());
    exposed Y = expose(T2);
    if (balanced(weight(Y.R), weight(X.R)) &&
        balanced(weight(Y.R) + weight(X.R), weight(Y.L))) {
      // Single (right) rotation.
      node_guard GYL(Y.L);
      node_t *Inner = node_join(Y.R, std::move(X.E), GXR.release());
      return node_join(GYL.release(), std::move(Y.E), Inner);
    }
    // Double rotation: rotate Y.R left, then the root right.
    node_guard GYL(Y.L);
    exposed Z = expose(Y.R);
    node_guard GZL(Z.L);
    node_t *B = node_join(Z.R, std::move(X.E), GXR.release());
    node_t *A;
    try {
      A = node_join(GYL.release(), std::move(Y.E), GZL.release());
    } catch (...) {
      dec(B);
      throw;
    }
    return node_join(A, std::move(Z.E), B);
  }

  //===--------------------------------------------------------------------===
  // Array <-> tree conversion.
  //===--------------------------------------------------------------------===

  /// Builds a tree over A[0..N) (in the given order; sorted for maps/sets),
  /// moving entries out of \p A. Leaves respect the blocking invariant.
  static node_t *from_array_move(entry_t *A, size_t N) {
    if (N == 0)
      return nullptr;
    if constexpr (kBlocked) {
      if (N >= kB && N <= 2 * kB)
        return make_flat(A, N);
    }
    size_t Mid = N / 2;
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          N >= kParGran, [&] { L = from_array_move(A, Mid); },
          [&] { R = from_array_move(A + Mid + 1, N - Mid - 1); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    return make_regular(L, std::move(A[Mid]), R);
  }

  /// Builds a tree from a read-only array (entries copied).
  static node_t *from_array(const entry_t *A, size_t N) {
    temp_buf Buf(N);
    par::parallel_for(0, N, [&](size_t I) {
      ::new (static_cast<void *>(Buf.data() + I)) entry_t(A[I]);
    });
    Buf.set_count(N);
    return from_array_move(Buf.data(), N);
  }

  /// Writes all entries of \p T (which is retained, not consumed) into
  /// \p Out by copy, in order.
  static void to_array(const node_t *T, entry_t *Out) {
    if (!T)
      return;
    if (is_flat(T)) {
      size_t I = 0;
      NL::encoder::for_each_while(
          NL::payload(static_cast<const typename NL::flat_t *>(T)), T->Size,
          [&](const entry_t &E) {
            Out[I++] = E;
            return true;
          });
      return;
    }
    auto *R = static_cast<const typename NL::regular_t *>(T);
    size_t Ls = size(R->Left);
    Out[Ls] = R->E;
    par::par_do_if(
        T->Size >= kParGran, [&] { to_array(R->Left, Out); },
        [&] { to_array(R->Right, Out + Ls + 1); });
  }

  //===--------------------------------------------------------------------===
  // Streaming leaf cursors (Sec. 8 base cases without materialization).
  //===--------------------------------------------------------------------===

  /// Streaming reader over a flat node, consuming one reference to it.
  /// Uniquely owned blocks are cannibalized: entries are moved out through
  /// the encoder's consuming read cursor and only the shell bytes are freed.
  /// Shared blocks are read by copy and dec'd. Abandoning the reader
  /// mid-block releases everything (the unconsumed tail included).
  class leaf_reader {
  public:
    explicit leaf_reader(node_t *T)
        : F(NL::as_flat(T)), Unique(NL::ref_count(T) == 1),
          C(NL::payload(F), T->Size, Unique) {}
    leaf_reader(const leaf_reader &) = delete;
    leaf_reader &operator=(const leaf_reader &) = delete;
    ~leaf_reader() {
      // Destroy any unconsumed entries before the shell bytes go away.
      C.release();
      if (Unique)
        NL::free_flat_shell(F);
      else
        NL::dec(F);
    }

    bool done() const { return C.done(); }
    size_t remaining() const { return C.remaining(); }
    const entry_t &peek() const { return C.peek(); }
    const key_t &key() const { return Entry::get_key(C.peek()); }
    entry_t take() { return C.take(); }
    void skip() { C.skip(); }

  private:
    typename NL::flat_t *F;
    bool Unique;
    typename NL::encoder::read_cursor C;
  };

  /// Chunked streaming writer: turns one ordered entry stream of arbitrary
  /// length into a balanced tree of legal flat leaves with no decode/
  /// re-encode bounce — every entry is encoded exactly once, in batch.
  ///
  /// push() is a single store into a pending entry array. Once 3B+1
  /// entries are pending, the oldest 2B are fed to the encoder's
  /// write_cursor in one tight loop (batch encode, unlike a per-entry
  /// interleave this pipelines well) and sealed as a finished leaf — one
  /// exactly-sized allocation plus the encoder's cut(), a memcpy for
  /// byte-coded schemes — the next pending entry becomes the separator
  /// entry of a regular node, and the remaining B compact to the front.
  /// The 3B+1 threshold is the hold-back that makes tails legal without
  /// ever revisiting a sealed byte: a chunk is only sealed once B+1 later
  /// entries exist, so after any seal at least B entries are pending, and
  /// finish() always closes the stream as one or two leaves in [B, 2B]
  /// (a pending tail in (2B, 3B] splits around its median). Results
  /// shorter than B never touch the encoder at all: they build straight
  /// from the pending entries. finish() assembles the sealed leaves and
  /// separators into a weight-balanced top with join (forking for wide
  /// results, the same discipline as from_array_move).
  ///
  /// Abandonment mid-stream leaks nothing: sealed leaves are dec'd,
  /// pending and staged entries destroyed. Not for augmented trees:
  /// alloc_flat cannot aggregate a stream it never materializes
  /// (leaf_writer falls back to staging for those).
  class leaf_chunk_writer {
  public:
    using WC = typename NL::encoder::write_cursor;
    /// Entries per sealed leaf: full blocks, so a stream of k*2B entries
    /// becomes exactly k leaves (the ROADMAP's "fresh full-width key every
    /// ~2B entries").
    static constexpr size_t kChunk = 2 * kB;
    /// Pending entries that trigger a seal: chunk + separator + the B
    /// hold-back that keeps every later tail legal.
    static constexpr size_t kPendTrigger = 3 * kB + 1;

    explicit leaf_chunk_writer(size_t MaxN) {
      // One pooled allocation carries the encoder staging bytes, the
      // pending array and (for streams that can span leaves) the
      // separator and leaf-pointer arrays.
      size_t CursorCap = std::max<size_t>(1, std::min(MaxN, kChunk));
      PendCap = std::max<size_t>(1, std::min(MaxN, kPendTrigger));
      size_t PendOff = align_up(WC::max_bytes(CursorCap), alignof(entry_t));
      size_t SepOff = PendOff + PendCap * sizeof(entry_t);
      size_t LeafOff = SepOff;
      Bytes = SepOff;
      if (MaxN > kChunk) {
        // Every sealed leaf covers at least B+1 stream entries (leaf plus
        // separator), which bounds the unit arrays up front.
        MaxUnits = MaxN / (kB + 1) + 2;
        LeafOff = align_up(SepOff + MaxUnits * sizeof(entry_t),
                           alignof(node_t *));
        Bytes = LeafOff + MaxUnits * sizeof(node_t *);
      }
      Buf = static_cast<uint8_t *>(tree_alloc(Bytes));
      Pending = reinterpret_cast<entry_t *>(Buf + PendOff);
      if (MaxN > kChunk) {
        Seps = reinterpret_cast<entry_t *>(Buf + SepOff);
        Leaves = reinterpret_cast<node_t **>(Buf + LeafOff);
      }
      C.emplace(Buf, CursorCap);
    }
    leaf_chunk_writer(const leaf_chunk_writer &) = delete;
    leaf_chunk_writer &operator=(const leaf_chunk_writer &) = delete;
    ~leaf_chunk_writer() {
      C->release(); // Staged entries live inside Buf; drop them first.
      if constexpr (!std::is_trivially_destructible_v<entry_t>) {
        for (size_t I = 0; I < NPend; ++I)
          Pending[I].~entry_t();
        for (size_t I = 0; I < NSeps; ++I)
          Seps[I].~entry_t();
      }
      for (size_t I = 0; I < NLeaves; ++I)
        NL::dec(Leaves[I]);
      tree_free(Buf, Bytes);
    }

    void push(entry_t E) {
      assert(NPend < PendCap && "pending array overflow (push past MaxN?)");
      ::new (static_cast<void *>(Pending + NPend)) entry_t(std::move(E));
      if (++NPend == kPendTrigger && PendCap == kPendTrigger)
        drain_chunk();
    }
    /// Entries accepted so far — push() mode only (push_ahead callers
    /// drive the writer from arrays and track their own counts).
    size_t count() const { return Total + NPend; }

    /// Direct-encode push for producers that know their remaining length
    /// (the fused array merges): the entry goes straight into the encoder
    /// cursor — no pending staging — and a full chunk is sealed on the
    /// spot, with this entry as its separator. The caller must guarantee
    /// that at least B+1 entries still follow every push_ahead() (exact
    /// operand remainders make that a two-compare loop guard), which is
    /// what keeps every later tail legal. Close the stream with
    /// finish_tail(); do not mix with push().
    void push_ahead(entry_t E) {
      if (C->count() == kChunk) {
        seal(kChunk);
        new_separator(std::move(E));
        return;
      }
      C->push(std::move(E));
    }

    /// Batch push_ahead: encodes a whole run of \p Count entries from
    /// \p A through push_n, sealing full chunks as they complete (their
    /// separators come from the run). Long sorted runs — the CPMA-style
    /// batch-merge pattern — become single batch encodes. The push_ahead
    /// caller guarantee applies to the end of the run.
    void push_ahead_n(entry_t *A, size_t Count) {
      while (Count) {
        size_t Room = kChunk - C->count();
        if (Room == 0) {
          seal(kChunk);
          new_separator(std::move(*A));
          ++A;
          --Count;
          continue;
        }
        size_t Take = std::min(Room, Count);
        C->push_n(A, Take);
        A += Take;
        Count -= Take;
      }
    }

    /// Closes a push_ahead() stream: the already-merged remaining entries
    /// \p A[0..R) plus the open cursor chunk become the final one or two
    /// leaves. R < B+2 per operand side at switchover bounds R <= 2B+2.
    node_t *finish_tail(entry_t *A, size_t R) {
      size_t Cc = C->count();
      size_t Tail = Cc + R;
      Total = 0;
      if (Tail == 0)
        return nullptr; // Nothing sealed either (hold-back keeps tails > 0).
      if (NLeaves == 0 && Tail < kB) {
        // Short stream: build from entries (decoding the open chunk if the
        // caller streamed any of it).
        return close_short(A, R, Cc, Tail);
      }
      if (Tail <= kChunk) {
        // One final legal leaf.
        C->push_n(A, R);
        if (NLeaves == 0) {
          typename NL::flat_t *F = NL::alloc_flat(Tail, C->bytes());
          C->cut(NL::payload(F));
          return F;
        }
        seal(Tail);
        return close_top();
      }
      // More than one final leaf. The first must absorb the open chunk
      // (sealed bytes cannot move) plus enough tail entries to leave a
      // legal remainder; the push_ahead guard makes that feasible except
      // in a rare corner (open chunk near 2B meeting a dup-shortened
      // tail). Whatever follows the first leaf is a pure array problem:
      // one more leaf when it fits, from_array_move when it spans several
      // (the tail can reach ~4B when the chunk and both kept-back operand
      // remainders meet).
      size_t S1lo = std::max(Cc, kB);
      size_t S1hi = std::min(kChunk, Tail - 1 - kB);
      if (S1lo <= S1hi) {
        size_t S1 = std::min(std::max(Tail / 2, S1lo), S1hi);
        C->push_n(A, S1 - Cc);
        seal(S1);
        new_separator(std::move(A[S1 - Cc]));
        size_t Off = (S1 - Cc) + 1;
        size_t Rest = Tail - 1 - S1; // >= B by the S1hi bound.
        if (Rest <= kChunk) {
          C->push_n(A + Off, Rest);
          seal(Rest);
        } else {
          assert(NLeaves < MaxUnits && "leaf unit array overflow");
          Leaves[NLeaves++] = from_array_move(A + Off, Rest);
        }
        return close_top();
      }
      // Corner: decode the open chunk once and rebuild this last unit from
      // entries — the only decode bounce left, rare and bounded by 2B.
      node_t *Sub = close_short(A, R, Cc, Tail);
      if (NLeaves == 0)
        return Sub;
      Leaves[NLeaves++] = Sub;
      return close_top();
    }

    /// Builds the result tree (nullptr when nothing was pushed) and resets.
    node_t *finish() {
      node_t *Out;
      if (NLeaves == 0 && (WC::stages_entries || NPend < kB)) {
        // Short stream (or an entry-staging scheme, whose staging array
        // is the pending array itself): build directly from the entries.
        Out = NPend ? from_array_move(Pending, NPend) : nullptr;
      } else if (NLeaves == 0 && NPend <= kChunk) {
        // The whole stream is one legal leaf: adopt the batch-encoded
        // bytes wholesale (the unit arrays may not exist here — a
        // MaxN <= 2B writer never allocates them).
        feed(0, NPend);
        typename NL::flat_t *F = NL::alloc_flat(NPend, C->bytes());
        C->cut(NL::payload(F));
        Out = F;
      } else if (NPend <= kChunk) {
        // One more legal leaf under sealed ones: the hold-back
        // guarantees NPend >= B.
        assert(NPend >= kB && "hold-back must keep tails >= B");
        feed(0, NPend);
        seal(NPend);
        Out = close_top();
      } else {
        // Tail in (2B, 3B]: two legal leaves around the median entry.
        size_t S1 = NPend / 2;
        assert(S1 >= kB && NPend - 1 - S1 >= kB && "illegal tail split");
        feed(0, S1);
        seal(S1);
        new_separator(std::move(Pending[S1]));
        feed(S1 + 1, NPend);
        seal(NPend - 1 - S1);
        Out = close_top();
      }
      destroy_pending(); // Every branch leaves only movable husks behind.
      NPend = 0;
      Total = 0;
      return Out;
    }

  private:
    static constexpr size_t align_up(size_t X, size_t A) {
      return (X + A - 1) & ~(A - 1);
    }

    /// Batch-encodes pending entries [From, To) into the write cursor in
    /// one push_n pass (register-local chain state; a memcpy for raw).
    /// Entry-staging schemes move the entries out, leaving destructible
    /// husks; byte-coded schemes read integral keys and leave the slots
    /// untouched — either way the pending slots stay destructible.
    void feed(size_t From, size_t To) {
      C->push_n(Pending + From, To - From);
    }
    void destroy_pending(size_t From = 0) {
      if constexpr (!std::is_trivially_destructible_v<entry_t>)
        for (size_t I = From; I < NPend; ++I)
          Pending[I].~entry_t();
    }

    /// Rebuilds (open cursor chunk + tail entries) as one small tree from
    /// entries, decoding the chunk if nonempty.
    node_t *close_short(entry_t *A, size_t R, size_t Cc, size_t Tail) {
      if (Cc == 0)
        return R ? from_array_move(A, R) : nullptr;
      temp_buf All(Tail);
      C->drain(All.data());
      All.set_count(Cc);
      for (size_t I = 0; I < R; ++I)
        ::new (static_cast<void *>(All.data() + Cc + I))
            entry_t(std::move(A[I]));
      All.set_count(Tail);
      return from_array_move(All.data(), Tail);
    }

    /// Seals the current cursor chunk (N entries) as one finished leaf.
    /// The "leaf.seal" failpoint models an allocation failure mid-merge:
    /// the cursor still owns the staged chunk bytes, so abandonment after
    /// a throw here leaks nothing.
    void seal(size_t N) {
      assert(Leaves && NLeaves < MaxUnits &&
             "sealing requires the unit arrays (MaxN > 2B)");
      if (CPAM_FAILPOINT_ACTIVE("leaf.seal"))
        throw std::bad_alloc();
      typename NL::flat_t *F = NL::alloc_flat(N, C->bytes());
      C->cut(NL::payload(F));
      Leaves[NLeaves++] = F;
    }
    void new_separator(entry_t Sep) {
      ::new (static_cast<void *>(Seps + NSeps)) entry_t(std::move(Sep));
      ++NSeps;
    }

    /// Pending hit 3B+1: emit the oldest 2B as a sealed leaf, take the
    /// next as separator, compact the remaining B to the front.
    void drain_chunk() {
      feed(0, kChunk);
      seal(kChunk);
      new_separator(std::move(Pending[kChunk]));
      Total += kChunk + 1;
      size_t Rest = NPend - kChunk - 1; // == kB
      if constexpr (std::is_trivially_copyable_v<entry_t>) {
        std::memcpy(static_cast<void *>(Pending),
                    static_cast<const void *>(Pending + kChunk + 1),
                    Rest * sizeof(entry_t));
      } else {
        for (size_t I = 0; I < Rest; ++I)
          Pending[I] = std::move(Pending[kChunk + 1 + I]);
        destroy_pending(Rest);
      }
      NPend = Rest;
    }

    /// Top assembly over the sealed leaves once the tail is closed.
    node_t *close_top() {
      assert(NLeaves == NSeps + 1 &&
             "one separator between consecutive leaves");
      node_t *Out = build_top(Leaves, Seps, NLeaves);
      if constexpr (!std::is_trivially_destructible_v<entry_t>)
        for (size_t I = 0; I < NSeps; ++I)
          Seps[I].~entry_t(); // build_top moved them out; drop the husks.
      NLeaves = 0;
      NSeps = 0;
      return Out;
    }

    /// Balanced top over \p K sealed units and K-1 separators, built with
    /// join so near-equal unit weights (full chunks, plus final units in
    /// [B, 2B]) always land inside the alpha balance bound.
    /// Consumed leaf slots are nulled so that if assembly throws partway,
    /// the writer's destructor decs only the leaves still unconsumed
    /// (dec(nullptr) is a no-op) — never a double release.
    static node_t *build_top(node_t **Ls, entry_t *Ss, size_t K) {
      if (K == 1) {
        node_t *Out = Ls[0];
        Ls[0] = nullptr;
        return Out;
      }
      size_t Mid = K / 2;
      node_t *L = nullptr, *R = nullptr;
      try {
        par::par_do_if(
            K * kChunk >= kParGran, [&] { L = build_top(Ls, Ss, Mid); },
            [&] { R = build_top(Ls + Mid, Ss + Mid, K - Mid); });
      } catch (...) {
        dec(L);
        dec(R);
        throw;
      }
      return join(L, std::move(Ss[Mid - 1]), R);
    }

    size_t Bytes = 0;
    uint8_t *Buf = nullptr;
    std::optional<WC> C;
    /// Pending (not yet encoded) entries; the hold-back that keeps every
    /// sealed leaf and tail inside [B, 2B].
    entry_t *Pending = nullptr;
    size_t PendCap = 0;
    size_t NPend = 0;
    /// Separator staging and sealed-leaf array: present only for streams
    /// that can span leaves (MaxN > 2B).
    entry_t *Seps = nullptr;
    node_t **Leaves = nullptr;
    size_t MaxUnits = 0;
    size_t NLeaves = 0;
    size_t NSeps = 0;
    size_t Total = 0; // Entries already drained out of Pending.
  };

  /// Streaming writer assembling a result tree from entries pushed in order
  /// (at most \p MaxN of them). Two representations, picked up front:
  ///
  ///  - Blocked, unaugmented, byte-coded trees: the chunked
  ///    leaf_chunk_writer above — the stream is emitted as finished leaves
  ///    chunk by chunk, whatever its length, with no entry
  ///    materialization.
  ///  - Everything else: entries stage into a plain array and finish() is
  ///    from_array_move. For entry-staging encodings (raw) the staging
  ///    array is already the encoded form, so this is the faster shape —
  ///    batch block encodes, parallel for wide results — and it is the
  ///    only correct one for augmented trees, whose aggregates need the
  ///    entries.
  ///
  /// Abandonment leaks nothing in either mode.
  class leaf_writer {
  public:
    using WC = typename NL::encoder::write_cursor;
    /// Chunked byte-streaming requires blocking, no augmented aggregate
    /// (which would need the entries materialized anyway) and a byte-coded
    /// scheme (entry-staging ones build faster from their staging array).
    static constexpr bool kCanStream =
        kBlocked && !NL::is_aug && !WC::stages_entries;

    explicit leaf_writer(size_t MaxN) {
      if constexpr (kCanStream) {
        CW.emplace(MaxN);
      } else {
        BufBytes = std::max<size_t>(1, MaxN) * sizeof(entry_t);
        Buf = static_cast<uint8_t *>(tree_alloc(BufBytes));
      }
    }
    leaf_writer(const leaf_writer &) = delete;
    leaf_writer &operator=(const leaf_writer &) = delete;
    ~leaf_writer() {
      if constexpr (!kCanStream) {
        if constexpr (!std::is_trivially_destructible_v<entry_t>)
          for (size_t I = 0; I < N; ++I)
            stage()[I].~entry_t();
        tree_free(Buf, BufBytes);
      }
    }

    void push(entry_t E) {
      if constexpr (kCanStream) {
        CW->push(std::move(E));
      } else {
        assert((N + 1) * sizeof(entry_t) <= BufBytes && "leaf_writer overflow");
        ::new (static_cast<void *>(stage() + N)) entry_t(std::move(E));
        ++N;
      }
    }
    size_t count() const {
      if constexpr (kCanStream)
        return CW->count();
      else
        return N;
    }

    /// Builds the result tree (nullptr when nothing was pushed).
    node_t *finish() {
      if constexpr (kCanStream)
        return CW->finish();
      else
        return N ? from_array_move(stage(), N) : nullptr;
    }

  private:
    entry_t *stage() { return reinterpret_cast<entry_t *>(Buf); }

    /// The chunk writer exists only in streaming instantiations, so
    /// staging-only trees (augmented, B = 0) never instantiate it.
    struct no_chunk_writer {};
    size_t BufBytes = 0;
    uint8_t *Buf = nullptr;
    std::conditional_t<kCanStream, std::optional<leaf_chunk_writer>,
                       no_chunk_writer>
        CW;
    size_t N = 0;
  };

  /// Measured break-even for the cursor merge, in combined operand
  /// *entries*. Entries are the one unit every call site can measure
  /// exactly: encoded payload bytes undercount a raw batch array by the
  /// compression factor, which is how multi_insert's accounting drifted
  /// from the set ops' (it mixed encoded bytes of the tree with
  /// `N * sizeof(entry_t)` of the batch). The default is the measured
  /// crossover for the byte-coded encoders (bench_merge / perf_smoke flat
  /// rows): at ~32 merged entries (B=8 leaf pairs) the cursor machinery's
  /// per-merge setup loses ~15% to the array path even on sorted-run
  /// shapes, while at ~512 entries (B=128 pairs) streaming wins 13-26% on
  /// those shapes; 128 splits the gap at the scale where the two paths
  /// measured even. Entry-staging encodings ignore this (their staging
  /// array already is the output). Runtime-mutable (single-threaded setup
  /// code only) for A/B benchmarks and hosts that measure differently.
  static constexpr size_t kFlatStreamMinEntriesDefault = 128;
  static size_t &flat_stream_min_entries() {
    static size_t V = kFlatStreamMinEntriesDefault;
    return V;
  }

  /// True when the cursor merge beats the array base case for flat operands
  /// carrying \p OperandEntries entries in total (both operands summed, a
  /// batch array counting each element as one entry). Since the chunked
  /// writer emits any number of finished leaves from one stream, this is a
  /// pure measured break-even, not a capability gate: entry-staging
  /// encodings always win (the staging area doubles as the output),
  /// byte-coded encodings win from flat_stream_min_entries() up. Augmented
  /// trees keep the array path (aggregates need the entries materialized).
  static bool flat_merge_wins(size_t OperandEntries) {
    if (NL::encoder::write_cursor::stages_entries)
      return true;
    return leaf_writer::kCanStream &&
           OperandEntries >= flat_stream_min_entries();
  }

  /// Capability-only variant for single-pass splices with bounded output:
  /// point insert/remove, split/split_last, filter/map, seq split_at and
  /// concat, and intersect/difference of two leaves. Those paths have no
  /// winner-run hazard (each side is consumed in one monotone pass and the
  /// result fits a leaf or is a pure concat), and streaming measured as a
  /// win for them even at the smallest block sizes where the merge-style
  /// ops lose (BENCH_PR5: intersect/difference diff B=8 1.26x/1.39x), so
  /// the flat_stream_min_entries() merge break-even does not apply.
  static bool flat_splice_wins() {
    return NL::encoder::write_cursor::stages_entries ||
           leaf_writer::kCanStream;
  }

  //===--------------------------------------------------------------------===
  // split / split_last / join2 (Figs. 5/10).
  //===--------------------------------------------------------------------===

  struct split_t {
    node_t *L = nullptr;
    node_t *R = nullptr;
    std::optional<entry_t> E; // Set iff the key was present.
  };

  /// Binary search: index of the first entry in A[0..N) with key >= K.
  static size_t lower_bound_idx(const entry_t *A, size_t N, const key_t &K) {
    size_t Lo = 0, Hi = N;
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (Entry::comp(Entry::get_key(A[Mid]), K))
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  }

  /// Splits \p T by key \p K into (keys < K, keys > K) plus the entry with
  /// key K if present. Consumes \p T.
  static split_t split(node_t *T, const key_t &K) {
    if (!T)
      return {};
    if (is_flat(T)) {
      size_t N = T->Size;
      if (flat_splice_wins()) {
        // Leaf splice: stream the block into the two sides, never
        // materializing it (each entry is decoded once on its way out).
        leaf_reader C(T);
        leaf_writer WL(N), WR(N);
        split_t Out;
        while (!C.done() && Entry::comp(Entry::get_key(C.peek()), K))
          WL.push(C.take());
        if (!C.done() && !Entry::comp(K, Entry::get_key(C.peek())))
          Out.E.emplace(C.take());
        while (!C.done())
          WR.push(C.take());
        Out.L = WL.finish();
        try {
          Out.R = WR.finish();
        } catch (...) {
          dec(Out.L);
          throw;
        }
        return Out;
      }
      // Array base case: binary search inside the decoded block.
      node_guard G(T);
      temp_buf Buf(N);
      flatten(G.release(), Buf.data());
      Buf.set_count(N);
      entry_t *A = Buf.data();
      size_t I = lower_bound_idx(A, N, K);
      bool Found = I < N && !Entry::comp(K, Entry::get_key(A[I]));
      split_t Out;
      Out.L = from_array_move(A, I);
      try {
        Out.R = from_array_move(A + I + Found, N - I - Found);
      } catch (...) {
        dec(Out.L);
        throw;
      }
      if (Found)
        Out.E.emplace(std::move(A[I]));
      return Out;
    }
    exposed X = expose(T);
    const key_t &Ke = Entry::get_key(X.E);
    if (Entry::comp(K, Ke)) {
      node_guard GR(X.R);
      split_t S = split(X.L, K);
      node_guard GL(S.L);
      S.R = join(S.R, std::move(X.E), GR.release());
      GL.release();
      return S;
    }
    if (Entry::comp(Ke, K)) {
      node_guard GL(X.L);
      split_t S = split(X.R, K);
      node_guard GR(S.R);
      S.L = join(GL.release(), std::move(X.E), S.L);
      GR.release();
      return S;
    }
    split_t Out;
    Out.L = X.L;
    Out.R = X.R;
    Out.E.emplace(std::move(X.E));
    return Out;
  }

  /// Removes and returns the last (largest) entry. \p T must be nonempty.
  static std::pair<node_t *, entry_t> split_last(node_t *T) {
    assert(T && "split_last on empty tree");
    if (is_flat(T)) {
      size_t N = T->Size;
      if (flat_splice_wins()) {
        // Leaf splice: stream all but the last entry straight into the
        // result block.
        leaf_reader C(T);
        leaf_writer W(N);
        for (size_t I = 0; I + 1 < N; ++I)
          W.push(C.take());
        entry_t Last = C.take();
        return {W.finish(), std::move(Last)};
      }
      node_guard G(T);
      temp_buf Buf(N);
      flatten(G.release(), Buf.data());
      Buf.set_count(N);
      node_t *Rest = from_array_move(Buf.data(), N - 1);
      return {Rest, std::move(Buf.data()[N - 1])};
    }
    exposed X = expose(T);
    if (!X.R)
      return {X.L, std::move(X.E)};
    node_guard GL(X.L);
    auto [Rest, Last] = split_last(X.R);
    return {join(GL.release(), std::move(X.E), Rest), std::move(Last)};
  }

  /// Concatenates two owned trees (all keys in L precede all keys in R).
  static node_t *join2(node_t *L, node_t *R) {
    if (!L)
      return R;
    if (!R)
      return L;
    node_guard GR(R);
    auto [Rest, Last] = split_last(L);
    return join(Rest, std::move(Last), GR.release());
  }
};

} // namespace cpam

#endif // CPAM_CORE_BASIC_TREE_H
