// Runtime CPU feature detection for the TPP backend's ISA dispatch.
//
// The paper's TPP backend JITs platform-specific code (AVX2 / AVX-512 / AMX /
// SVE) for the target at hand. We reproduce the dispatch seam: kernels are
// compiled into per-ISA translation units and selected at runtime from the
// CPUID feature set. The selection can be narrowed with the
// PLT_ISA environment variable ("scalar", "avx2", "avx512", "avx512_bf16")
// which is how tests pin the reference path.
#pragma once

#include <string>

namespace plt {

enum class IsaLevel : int {
  kScalar = 0,
  kAVX2 = 1,         // AVX2 + FMA
  kAVX512 = 2,       // F + BW + VL + DQ
  kAVX512BF16 = 3,   // AVX-512 with BF16 dot-product support
};

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;
  bool avx512dq = false;
  bool avx512_bf16 = false;
  bool amx_bf16 = false;   // detected only: no kernel targets AMX tiles yet
  int logical_cores = 1;
  std::string brand;
};

// CPUID-backed detection, computed once per process.
const CpuFeatures& cpu_features();

// Highest ISA level this build can actually run, after applying the
// PLT_ISA environment override (useful to force the scalar reference).
IsaLevel effective_isa();

const char* isa_name(IsaLevel l);

}  // namespace plt
