// Copyright (c) 2026 moqo authors. MIT license.

#include "core/dominance_kernel.h"

namespace moqo {

namespace internal {
#if MOQO_DOMINANCE_AVX2
const bool kRowLeqUseAvx2 = __builtin_cpu_supports("avx2") != 0;
#else
const bool kRowLeqUseAvx2 = false;
#endif
}  // namespace internal

bool RowLeqKernelIsAvx2() { return internal::kRowLeqUseAvx2; }

}  // namespace moqo
