// AMX bf16 microkernel (tdpbf16ps). Compiled with -mamx-tile -mamx-bf16 in
// the AVX512BF16 tier; referenced only at IsaLevel::kAMXBF16.
//
// The repo's operand layouts are tile operands as they stand, for the
// transposed product C^T (n x m) = B^T (n x k) * A^T (k x m):
//   - B_i col-major (ldb, k fastest): row j of B^T is column j of B, so a
//     16 x kc block of it is the tile A-operand, row stride ldb;
//   - A_i VNNI2 [k/2][m][2]: k-pair row p holds (A[i][2p], A[i][2p+1]) for
//     every i, which is the tile B-operand's VNNI row, row stride lda pairs;
//   - C col-major (m fastest): column j of C is row j of C^T, a 16 x 16
//     fp32 tile with row stride ldc.
// Each block of C^T tiles is loaded (or zeroed) once, reduces the whole
// batch in k chunks of kc and is stored once. Every element's chunk order
// is (batch index, k), so a batch is bitwise equal to successive
// single-block calls, and an element's bits never depend on n: a tile row
// is computed from its own B^T row alone.
#include <immintrin.h>

#include "tpp/gemm_micro.hpp"

namespace plt::tpp::detail {

namespace {

constexpr std::int64_t kTile = 16;   // tile rows; fp32 lanes per tile row
constexpr std::int64_t kMaxKc = 32;  // bf16 in one 64-byte tile row

// Tile registers: C^T of (n group g, m tile h) is tile 2g + h; the B^T rows
// of n group g are tile 4 + g; the VNNI A rows of m tile h are tile 6 + h.
void set_tile(AmxTiles::Config& c, int t, std::int64_t rows,
              std::int64_t colsb) {
  c.rows[t] = static_cast<std::uint8_t>(rows);
  c.colsb[t] = static_cast<std::uint16_t>(rows > 0 ? colsb : 0);
}

// Shapes for n groups of rows0 and rows1 (0: group unused) rows.
AmxTiles::Config shape(std::int64_t rows0, std::int64_t rows1,
                       std::int64_t kc) {
  AmxTiles::Config c;
  const std::int64_t row_bytes = kTile * 4;
  set_tile(c, 0, rows0, row_bytes);
  set_tile(c, 1, rows0, row_bytes);
  set_tile(c, 2, rows1, row_bytes);
  set_tile(c, 3, rows1, row_bytes);
  set_tile(c, 4, rows0, kc * 2);
  set_tile(c, 5, rows1, kc * 2);
  set_tile(c, 6, kc / 2, row_bytes);
  set_tile(c, 7, kc / 2, row_bytes);
  return c;
}

// One block of G n groups x H m tiles at C(i0, j0).
template <int G, int H>
void block(const MicroArgs& s, const bf16* const* a, const bf16* const* b,
           std::int64_t brcount, float* c, bool acc, std::int64_t i0,
           std::int64_t j0) {
  const std::int64_t kc = s.tiles->kc;
  const std::int64_t ldc_bytes = s.ldc * 4;
  const std::int64_t ldb_bytes = s.ldb * 2;
  const std::int64_t lda_bytes = s.lda * 4;
  float* c0 = c + i0 + j0 * s.ldc;
  float* c1 = c0 + kTile * s.ldc;  // n group 1
  if (acc) {
    _tile_loadd(0, c0, ldc_bytes);
    if constexpr (H == 2) _tile_loadd(1, c0 + kTile, ldc_bytes);
    if constexpr (G == 2) _tile_loadd(2, c1, ldc_bytes);
    if constexpr (G == 2 && H == 2) _tile_loadd(3, c1 + kTile, ldc_bytes);
  } else {
    _tile_zero(0);
    if constexpr (H == 2) _tile_zero(1);
    if constexpr (G == 2) _tile_zero(2);
    if constexpr (G == 2 && H == 2) _tile_zero(3);
  }
  for (std::int64_t br = 0; br < brcount; ++br) {
    const bf16* bp = b[br] + j0 * s.ldb;
    const bf16* ap = a[br] + i0 * 2;
    for (std::int64_t k0 = 0; k0 < s.k; k0 += kc) {
      _tile_loadd(4, bp + k0, ldb_bytes);
      if constexpr (G == 2) _tile_loadd(5, bp + kTile * s.ldb + k0, ldb_bytes);
      const bf16* ak = ap + k0 * s.lda;  // pair row k0/2 at (k0/2)*lda*2
      _tile_loadd(6, ak, lda_bytes);
      if constexpr (H == 2) _tile_loadd(7, ak + 2 * kTile, lda_bytes);
      _tile_dpbf16ps(0, 4, 6);
      if constexpr (H == 2) _tile_dpbf16ps(1, 4, 7);
      if constexpr (G == 2) _tile_dpbf16ps(2, 5, 6);
      if constexpr (G == 2 && H == 2) _tile_dpbf16ps(3, 5, 7);
    }
  }
  _tile_stored(0, c0, ldc_bytes);
  if constexpr (H == 2) _tile_stored(1, c0 + kTile, ldc_bytes);
  if constexpr (G == 2) _tile_stored(2, c1, ldc_bytes);
  if constexpr (G == 2 && H == 2) _tile_stored(3, c1 + kTile, ldc_bytes);
}

// Every m tile pair (then the last single m tile) of one n chunk.
template <int G>
void chunk(const MicroArgs& s, const bf16* const* a, const bf16* const* b,
           std::int64_t brcount, float* c, bool acc, std::int64_t j0) {
  std::int64_t i = 0;
  for (; i + 2 * kTile <= s.m; i += 2 * kTile)
    block<G, 2>(s, a, b, brcount, c, acc, i, j0);
  if (i < s.m) block<G, 1>(s, a, b, brcount, c, acc, i, j0);
}

}  // namespace

bool amx_takes(std::int64_t m, std::int64_t k) {
  return m % kTile == 0 && k % 2 == 0;
}

AmxTiles amx_tiles(std::int64_t n, std::int64_t k) {
  AmxTiles t;
  // The largest even divisor of k that fits a tile row.
  t.kc = 2;
  for (std::int64_t kc = kMaxKc; kc > 2; kc -= 2) {
    if (k % kc == 0) {
      t.kc = kc;
      break;
    }
  }
  t.full = shape(kTile, kTile, t.kc);
  const std::int64_t rest = n % (2 * kTile);
  t.tail = shape(rest < kTile ? rest : kTile, rest > kTile ? rest - kTile : 0,
                 t.kc);
  return t;
}

void gemm_bf16_vnni_amx(const MicroArgs& s, const bf16* const* a,
                        const bf16* const* b, std::int64_t brcount, float* c,
                        bool acc) {
  const std::int64_t n_full = s.n - s.n % (2 * kTile);
  if (n_full > 0) {
    _tile_loadconfig(&s.tiles->full);
    for (std::int64_t j = 0; j < n_full; j += 2 * kTile)
      chunk<2>(s, a, b, brcount, c, acc, j);
  }
  if (n_full < s.n) {
    _tile_loadconfig(&s.tiles->tail);
    if (s.n - n_full > kTile) {
      chunk<2>(s, a, b, brcount, c, acc, n_full);
    } else {
      chunk<1>(s, a, b, brcount, c, acc, n_full);
    }
  }
  _tile_release();
}

}  // namespace plt::tpp::detail
