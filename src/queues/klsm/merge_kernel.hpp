// Merge kernels for the k-LSM block cascade.
//
// Merging two sorted blocks is the k-LSM's dominant structural cost: every
// insert that collides with an equal-capacity block walks the cascade, and
// each cascade step is a two-way merge of sorted (key, value) runs. The
// baseline claim-and-compare loop in claim_merge interleaved slot claiming
// with comparison, so every iteration carried an unpredictable branch
// (which block wins?) plus atomic traffic. The restructured path drains the
// claimable slots first and then merges plain arrays with one of the
// kernels below.
//
// Two implementations, one contract (stable two-finger merge: ties take
// from `a` first, matching the original claim_merge tie-break):
//
//   merge_sorted_scalar     – textbook loop; the oracle the tests fuzz
//                             the branch-free kernel against.
//   merge_sorted_branchfree – replaces the take-a/take-b branch with a
//                             pointer select + boolean index bump, which
//                             GCC/Clang compile to cmov; unrolled x4 so the
//                             selects pipeline instead of serializing on a
//                             mispredicted branch per element.
//
// merge_sorted() is the one the cascade calls. An SSE4.2 blend kernel was
// measured and removed: it ran slower than the branch-free loop (X10).
#pragma once

#include <cstddef>
#include <utility>

namespace cpq::klsm_detail {

// Reference kernel and correctness oracle. Ties prefer `a` (stability
// across the cascade: older block first, as in the original claim_merge).
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
template <typename Item>
inline std::size_t merge_sorted_branchfree(const Item* a, std::size_t na,
                                           const Item* b, std::size_t nb,
                                           Item* out) {
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
  while (i < na) out[k++] = a[i++];
  while (j < nb) out[k++] = b[j++];
  return k;
}

// The cascade's kernel: branch-free. On varied random interleavings
// (BM_MergeKernel's rotating-input mode — the cascade's real regime) it
// sustains ~225M items/s against ~146M for the branchy loop; the removed
// SSE4.2 blend managed ~153M, its one-element-per-iteration blend
// serializing on the same compare latency the cmov does.
template <typename Item>
inline std::size_t merge_sorted(const Item* a, std::size_t na, const Item* b,
                                std::size_t nb, Item* out) {
  return merge_sorted_branchfree(a, na, b, nb, out);
}

}  // namespace cpq::klsm_detail
