// Copyright (c) 2026 moqo authors. MIT license.
//
// The dominance kernel: RowLeq*(a, b, dims) <=> a[d] <= b[d] for every d.
//
// This predicate is the innermost loop of every optimizer — each candidate
// plan is compared against stored cost rows (and block min/max summaries)
// until a dominator is found — so it gets a SIMD path: AVX2 compares four
// doubles per instruction over the ParetoSet's contiguous SoA rows.
//
// Guards: the AVX2 body is compiled behind a compile-time check (x86-64
// gcc/clang, via the `target("avx2")` function attribute, so the rest of
// the binary needs no -mavx2) and selected behind a one-time *runtime*
// CPUID check (internal::kRowLeqUseAvx2). The flag is read once per scan,
// not once per row: ParetoSet instantiates each scan with each kernel
// inlined and picks the instantiation (core/pareto_set.cc). Both kernels
// are pure predicates over the same IEEE comparisons (the +/-inf block
// sentinels compare identically), so kernel choice can never change
// optimizer output — tests/core/pareto_set_test.cc asserts scalar/AVX2
// agreement, per row and per whole scan.

#ifndef MOQO_CORE_DOMINANCE_KERNEL_H_
#define MOQO_CORE_DOMINANCE_KERNEL_H_

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MOQO_DOMINANCE_AVX2 1
#include <immintrin.h>
#else
#define MOQO_DOMINANCE_AVX2 0
#endif

namespace moqo {

/// Portable reference kernel; always available.
inline bool RowLeqScalar(const double* a, const double* b, int dims) {
  for (int d = 0; d < dims; ++d) {
    if (a[d] > b[d]) return false;
  }
  return true;
}

#if MOQO_DOMINANCE_AVX2
/// AVX2 kernel; call only when RowLeqKernelIsAvx2() (CPU support) holds.
/// Semantically identical to RowLeqScalar for all non-NaN inputs
/// (cost components are finite or the +/-inf summary sentinels). Defined
/// inline so AVX2-targeted callers (ParetoSet's scan wrappers) inline it
/// into their loops.
__attribute__((target("avx2"))) inline bool RowLeqAvx2(const double* a,
                                                       const double* b,
                                                       int dims) {
  int d = 0;
  for (; d + 4 <= dims; d += 4) {
    const __m256d va = _mm256_loadu_pd(a + d);
    const __m256d vb = _mm256_loadu_pd(b + d);
    // Ordered (non-signalling) a > b per lane; any set lane refutes <=.
    const __m256d gt = _mm256_cmp_pd(va, vb, _CMP_GT_OQ);
    if (_mm256_movemask_pd(gt) != 0) return false;
  }
  for (; d < dims; ++d) {
    if (a[d] > b[d]) return false;
  }
  return true;
}
#endif

/// True iff the ParetoSet scans run their AVX2 instantiation (compile-time
/// support and the running CPU advertises AVX2).
bool RowLeqKernelIsAvx2();

namespace internal {
extern const bool kRowLeqUseAvx2;  ///< Resolved once at static init.
}  // namespace internal

}  // namespace moqo

#endif  // MOQO_CORE_DOMINANCE_KERNEL_H_
