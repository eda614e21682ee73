// Merge kernels for the k-LSM block cascade.
//
// Merging two sorted blocks is the k-LSM's dominant structural cost: every
// insert that collides with an equal-capacity block walks the cascade, and
// each cascade step is a two-way merge of sorted (key, value) runs. The
// copy-merge routine (block.hpp) reads each source block's live slots as a
// Run of at most two contiguous pieces and merges the two runs straight into
// the new block with merge_runs.
//
// Two implementations, one contract (stable two-finger merge: ties take
// from `a` first, the first and older block of the pair):
//
//   merge_sorted_scalar – textbook loop; the oracle the tests fuzz
//                         merge_runs against.
//   merge_runs          – the one the cascade calls: replaces the
//                         take-a/take-b branch with per-member selects and a
//                         boolean index bump, which GCC/Clang compile to
//                         cmov, unrolled x4 so the selects pipeline instead
//                         of serializing on a mispredicted branch per
//                         element. A run with one piece is a plain array.
//
// An SSE4.2 blend kernel was measured and removed: it ran slower than the
// branch-free loop (X10).
#pragma once

#include <cstddef>
#include <utility>

namespace cpq::klsm_detail {

// Reference kernel and correctness oracle. Ties prefer `a` (stability
// across the cascade: older block first).
template <typename Item>
inline std::size_t merge_sorted_scalar(const Item* a, std::size_t na,
                                       const Item* b, std::size_t nb,
                                       Item* out) {
  std::size_t i = 0, j = 0, k = 0;
  while (i < na && j < nb) {
    if (b[j].first < a[i].first) {
      out[k++] = b[j++];
    } else {
      out[k++] = a[i++];
    }
  }
  while (i < na) out[k++] = a[i++];
  while (j < nb) out[k++] = b[j++];
  return k;
}

// Branch-free core step: load BOTH candidate elements unconditionally so
// the loads issue before the comparison resolves, then pick the winner with
// per-member register selects (cmov) and advance exactly one cursor via
// boolean arithmetic. No data-dependent branch, so throughput does not
// collapse on key interleavings the branch predictor has never seen — the
// k-LSM cascade merges a fresh pattern every time. Two codegen traps this
// shape avoids: a ternary on the whole 16-byte pair, which GCC lowers back
// into a branch, and a ternary on the *pointers*, whose cmov chains the
// winning load behind the compare and serializes the loop on that latency.
// It merges from the fronts of a and b into out while both have items left,
// then reports how many it took from each (i_out, j_out; out holds i + j).
template <typename Item>
inline void merge_front_branchfree(const Item* a, std::size_t na,
                                   const Item* b, std::size_t nb, Item* out,
                                   std::size_t& i_out, std::size_t& j_out) {
  std::size_t i = 0, j = 0, k = 0;
  // Unrolled x4 while both runs have at least 4 elements left: each step
  // consumes exactly one element total, so 4 steps need 4 per side at most.
  while (na - i >= 4 && nb - j >= 4) {
#define CPQ_MERGE_STEP()                              \
  do {                                                \
    const auto ka = a[i].first;                       \
    const auto va = a[i].second;                      \
    const auto kb = b[j].first;                       \
    const auto vb = b[j].second;                      \
    const bool take_b = kb < ka;                      \
    out[k].first = take_b ? kb : ka;                  \
    out[k].second = take_b ? vb : va;                 \
    ++k;                                              \
    i += !take_b;                                     \
    j += take_b;                                      \
  } while (0)
    CPQ_MERGE_STEP();
    CPQ_MERGE_STEP();
    CPQ_MERGE_STEP();
    CPQ_MERGE_STEP();
  }
  while (i < na && j < nb) {
    CPQ_MERGE_STEP();
  }
#undef CPQ_MERGE_STEP
  i_out = i;
  j_out = j;
}

// A sorted run held as two contiguous pieces, `head` then `tail`, either of
// which may be empty. A block's claimed slots sit at its front, so the
// cascade compacts only the live slots before the last claimed one (the
// head) and reads the hole-free rest of the block in place (the tail).
template <typename Item>
struct Run {
  const Item* head = nullptr;
  std::size_t head_n = 0;
  const Item* tail = nullptr;
  std::size_t tail_n = 0;

  std::size_t size() const noexcept { return head_n + tail_n; }
};

// Stable merge of two runs into out (the kernels' tie rule): the
// branch-free step runs until a piece on either side is used up, then
// resumes on that side's next piece. Returns the number of items written.
// On varied random interleavings (BM_MergeKernel's rotating-input mode —
// the cascade's real regime) the branch-free step sustained ~225M items/s
// against ~146M for the branchy loop when X10 measured it; the removed
// SSE4.2 blend managed ~153M, its one-element-per-iteration blend
// serializing on the same compare latency the cmov does.
template <typename Item>
inline std::size_t merge_runs(const Run<Item>& a, const Run<Item>& b,
                              Item* out) {
  struct Piece {
    const Item* items;
    std::size_t n;
  };
  Piece pa[2] = {{a.head, a.head_n}, {a.tail, a.tail_n}};
  Piece pb[2] = {{b.head, b.head_n}, {b.tail, b.tail_n}};
  unsigned ia = pa[0].n == 0 ? 1 : 0;
  unsigned ib = pb[0].n == 0 ? 1 : 0;
  std::size_t k = 0;
  while (ia < 2 && ib < 2 && pa[ia].n != 0 && pb[ib].n != 0) {
    std::size_t i = 0, j = 0;
    merge_front_branchfree(pa[ia].items, pa[ia].n, pb[ib].items, pb[ib].n,
                           out + k, i, j);
    k += i + j;
    pa[ia] = {pa[ia].items + i, pa[ia].n - i};
    pb[ib] = {pb[ib].items + j, pb[ib].n - j};
    if (pa[ia].n == 0) ++ia;
    if (pb[ib].n == 0) ++ib;
  }
  for (; ia < 2; ++ia) {
    for (std::size_t i = 0; i < pa[ia].n; ++i) out[k++] = pa[ia].items[i];
  }
  for (; ib < 2; ++ib) {
    for (std::size_t j = 0; j < pb[ib].n; ++j) out[k++] = pb[ib].items[j];
  }
  return k;
}

}  // namespace cpq::klsm_detail
