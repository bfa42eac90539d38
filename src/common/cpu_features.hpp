// Runtime CPU feature detection for the TPP backend's ISA dispatch.
//
// The paper's TPP backend JITs platform-specific code (AVX2 / AVX-512 / AMX /
// SVE) for the target at hand. We reproduce the dispatch seam: kernels are
// compiled into per-ISA translation units and selected at runtime from the
// CPUID feature set. The selection can be narrowed with the
// PLT_ISA environment variable ("scalar", "avx2", "avx512", "avx512_bf16",
// "amx_bf16") which is how tests pin the reference path.
#pragma once

#include <string>

namespace plt {

enum class IsaLevel : int {
  kScalar = 0,
  kAVX2 = 1,         // AVX2 + FMA
  kAVX512 = 2,       // F + BW + VL + DQ
  kAVX512BF16 = 3,   // AVX-512 with BF16 dot-product support
  kAMXBF16 = 4,      // AVX-512 BF16 plus AMX tiles the OS lets us use
};

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;
  bool avx512dq = false;
  bool avx512_bf16 = false;
  bool amx_tile = false;
  bool amx_bf16 = false;
  bool amx_os = false;     // XCR0 enables XTILECFG and XTILEDATA
  int logical_cores = 1;
  std::string brand;
};

// CPUID-backed detection, computed once per process.
const CpuFeatures& cpu_features();

// Linux keeps AMX tile data off until a process asks for it
// (arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA)). The first call asks once;
// every call returns that answer. False off Linux.
bool amx_permitted();

// Highest ISA level this build can actually run, after applying the
// PLT_ISA environment override (useful to force the scalar reference).
// kAMXBF16 needs the AMX kernels compiled, amx_tile + amx_bf16 + amx_os,
// and amx_permitted(); the permission is only asked for when that level
// is within the PLT_ISA cap.
IsaLevel effective_isa();

const char* isa_name(IsaLevel l);

}  // namespace plt
