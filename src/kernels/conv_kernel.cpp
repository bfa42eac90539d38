#include "kernels/conv_kernel.hpp"

#include <cstring>

#include "common/check.hpp"
#include "tpp/transforms.hpp"

namespace plt::kernels {

ConvKernel::ConvKernel(ConvConfig cfg)
    : cfg_([&] {
        if (cfg.w_step == 0) cfg.w_step = cfg.Q();
        if (cfg.c_step == 0) cfg.c_step = cfg.Cb();
        return cfg;
      }()),
      w_block_elems_(cfg_.dtype == DType::BF16
                         ? tpp::vnni2_elems(cfg_.bk, cfg_.bc)
                         : cfg_.bc * cfg_.bk),
      zero_tpp_(tpp::UnaryKind::kZero, cfg_.bk, cfg_.w_step, cfg_.dtype,
                cfg_.dtype),
      brgemm_tpp_(tpp::BrgemmDesc{
          /*m=*/cfg_.bk, /*n=*/cfg_.w_step, /*k=*/cfg_.bc,
          /*lda=*/cfg_.bk,
          /*ldb=*/cfg_.stride_w * cfg_.bc,
          /*ldc=*/cfg_.bk, cfg_.dtype, cfg_.dtype, cfg_.dtype,
          /*beta=*/1.0f, tpp::BrgemmVariant::kOffset,
          cfg_.dtype == DType::BF16 ? tpp::ALayout::kVnni2
                                    : tpp::ALayout::kFlat,
          0, 0}) {
  PLT_CHECK(cfg_.C % cfg_.bc == 0 && cfg_.K % cfg_.bk == 0,
            "conv: bc|bk must divide C|K");
  PLT_CHECK(cfg_.Q() % cfg_.w_step == 0, "conv: w_step must divide Q");
  PLT_CHECK(cfg_.Cb() % cfg_.c_step == 0, "conv: c_step must divide Cb");
  PLT_CHECK(cfg_.P() > 0 && cfg_.Q() > 0, "conv: empty output");

  // Reduction offsets over (channel block, filter row, filter col), in
  // elements, shared by every body invocation.
  const std::int64_t in_c_stride = cfg_.Hp() * cfg_.Wp() * cfg_.bc;
  const std::int64_t w_c_stride = cfg_.R * cfg_.S * w_block_elems_;
  for (std::int64_t c = 0; c < cfg_.c_step; ++c)
    for (std::int64_t r = 0; r < cfg_.R; ++r)
      for (std::int64_t s = 0; s < cfg_.S; ++s) {
        offs_a_.push_back(c * w_c_stride + (r * cfg_.S + s) * w_block_elems_);
        offs_b_.push_back(c * in_c_stride + r * cfg_.Wp() * cfg_.bc +
                          s * cfg_.bc);
      }

  // Listing 4's seven logical loops (a..g). R and S are folded into the
  // BRGEMM offsets, so their loop extents are single-step here.
  std::vector<parlooper::LoopSpecs> loops = {
      parlooper::LoopSpecs{0, cfg_.N, 1},                 // a: minibatch
      parlooper::LoopSpecs{0, cfg_.Cb(), cfg_.c_step},    // b: C blocks
      parlooper::LoopSpecs{0, cfg_.Kb(), 1},              // c: K blocks
      parlooper::LoopSpecs{0, cfg_.P(), 1},               // d: output rows
      parlooper::LoopSpecs{0, cfg_.Q(), cfg_.w_step},     // e: output cols
      parlooper::LoopSpecs{0, cfg_.R, cfg_.R},            // f: filter rows
      parlooper::LoopSpecs{0, cfg_.S, cfg_.S}};           // g: filter cols
  // Footprints of one (in, ic, ik, ih, iw, ir, is) invocation. The output
  // block is read-modify-written (accumulation over the C-block loop); the
  // weight read covers the c_step reduction blocks folded into the BRGEMM
  // offsets; the input read over-approximates the strided R x S window with
  // one contiguous span per reduction block (sound per the AccessMap
  // contract — reads only matter against writes, and nothing writes input).
  const std::int64_t Cb = cfg_.Cb(), Kb = cfg_.Kb();
  const std::int64_t P = cfg_.P(), Q = cfg_.Q();
  const std::int64_t Hp = cfg_.Hp(), Wp = cfg_.Wp();
  const std::int64_t bc = cfg_.bc, bk = cfg_.bk, w_blk = w_block_elems_;
  parlooper::AccessMap access;
  access
      .add_write("out", {Kb * P * Q * bk, 0, P * Q * bk, Q * bk, bk, 0, 0},
                 cfg_.w_step * bk)
      .add_read("out", {Kb * P * Q * bk, 0, P * Q * bk, Q * bk, bk, 0, 0},
                cfg_.w_step * bk)
      .add_read("weights",
                {0, cfg_.R * cfg_.S * w_blk, Cb * cfg_.R * cfg_.S * w_blk, 0,
                 0, cfg_.S * w_blk, w_blk},
                cfg_.c_step * cfg_.R * cfg_.S * w_blk)
      .add_read("in",
                {Cb * Hp * Wp * bc, Hp * Wp * bc, 0, cfg_.stride_h * Wp * bc,
                 cfg_.stride_w * bc, Wp * bc, bc},
                (cfg_.R - 1) * Wp * bc +
                    ((cfg_.w_step - 1) * cfg_.stride_w + cfg_.S) * bc,
                cfg_.c_step, Hp * Wp * bc);
  loop_ = std::make_shared<const parlooper::LoopNest>(loops, cfg_.loop_spec,
                                                      access);
}

ConvKernel ConvKernel::with_spec(const std::string& loop_spec) const {
  ConvConfig c = cfg_;
  c.loop_spec = loop_spec;
  return ConvKernel(c);
}

void ConvKernel::run(const void* input, const void* weights,
                     void* output) const {
  const std::size_t esz = dtype_size(cfg_.dtype);
  const char* ip = static_cast<const char*>(input);
  const char* wp = static_cast<const char*>(weights);
  char* op = static_cast<char*>(output);
  const std::int64_t Cb = cfg_.Cb(), Kb = cfg_.Kb();
  const std::int64_t P = cfg_.P(), Q = cfg_.Q();
  const std::int64_t Hp = cfg_.Hp(), Wp = cfg_.Wp();
  const std::int64_t bc = cfg_.bc, bk = cfg_.bk;
  const std::int64_t brcount =
      static_cast<std::int64_t>(offs_a_.size());
  (void)Kb;

  (*loop_)([&](const std::int64_t* ind) {
    const std::int64_t in = ind[0], ic = ind[1], ik = ind[2];
    const std::int64_t ih = ind[3], iw = ind[4], ir = ind[5], is = ind[6];
    char* o_block =
        op + static_cast<std::size_t>(
                 (((in * cfg_.Kb() + ik) * P + ih) * Q + iw) * bk) * esz;
    if (ic == 0 && ir == 0 && is == 0) zero_tpp_(nullptr, o_block);
    const char* w_base =
        wp + static_cast<std::size_t>(
                 (((ik * Cb + ic) * cfg_.R + ir) * cfg_.S + is) *
                 w_block_elems_) * esz;
    const char* i_base =
        ip + static_cast<std::size_t>(
                 ((in * Cb + ic) * Hp + ih * cfg_.stride_h + ir) * Wp * bc +
                 (iw * cfg_.stride_w + is) * bc) * esz;
    brgemm_tpp_.run_offset(w_base, i_base, o_block, offs_a_.data(),
                           offs_b_.data(), brcount);
  });
}

std::size_t ConvKernel::input_elems() const {
  return static_cast<std::size_t>(cfg_.N * cfg_.Cb() * cfg_.Hp() * cfg_.Wp() *
                                  cfg_.bc);
}
std::size_t ConvKernel::weight_elems() const {
  return static_cast<std::size_t>(cfg_.Kb() * cfg_.Cb() * cfg_.R * cfg_.S *
                                  w_block_elems_);
}
std::size_t ConvKernel::output_elems() const {
  return static_cast<std::size_t>(cfg_.N * cfg_.Kb() * cfg_.P() * cfg_.Q() *
                                  cfg_.bk);
}

void ConvKernel::pack_input(const float* nchw, void* blocked) const {
  const std::size_t esz = dtype_size(cfg_.dtype);
  std::memset(blocked, 0, input_elems() * esz);  // zero fills the padding
  const std::int64_t Hp = cfg_.Hp(), Wp = cfg_.Wp();
  for (std::int64_t n = 0; n < cfg_.N; ++n)
    for (std::int64_t c = 0; c < cfg_.C; ++c)
      for (std::int64_t h = 0; h < cfg_.H; ++h)
        for (std::int64_t w = 0; w < cfg_.W; ++w) {
          const float v =
              nchw[((n * cfg_.C + c) * cfg_.H + h) * cfg_.W + w];
          const std::size_t idx = static_cast<std::size_t>(
              (((n * cfg_.Cb() + c / cfg_.bc) * Hp + h + cfg_.pad_h) * Wp +
               w + cfg_.pad_w) * cfg_.bc + c % cfg_.bc);
          if (cfg_.dtype == DType::F32) {
            static_cast<float*>(blocked)[idx] = v;
          } else {
            static_cast<bf16*>(blocked)[idx] = bf16::from_f32(v);
          }
        }
}

void ConvKernel::pack_weights(const float* kcrs, void* blocked) const {
  const std::int64_t bc = cfg_.bc, bk = cfg_.bk;
  std::vector<float> tile(static_cast<std::size_t>(bk * bc));
  std::vector<bf16> tile16(tile.size());
  for (std::int64_t ik = 0; ik < cfg_.Kb(); ++ik)
    for (std::int64_t ic = 0; ic < cfg_.Cb(); ++ic)
      for (std::int64_t r = 0; r < cfg_.R; ++r)
        for (std::int64_t s = 0; s < cfg_.S; ++s) {
          // Gather the [bc][bk] tile: col-major m=bk (out channels) x k=bc.
          for (std::int64_t cc = 0; cc < bc; ++cc)
            for (std::int64_t kk = 0; kk < bk; ++kk) {
              const std::int64_t ko = ik * bk + kk, co = ic * bc + cc;
              tile[static_cast<std::size_t>(kk + cc * bk)] =
                  kcrs[((ko * cfg_.C + co) * cfg_.R + r) * cfg_.S + s];
            }
          const std::size_t blk =
              static_cast<std::size_t>((((ik * cfg_.Cb() + ic) * cfg_.R + r) *
                                        cfg_.S + s) * w_block_elems_);
          if (cfg_.dtype == DType::F32) {
            std::memcpy(static_cast<float*>(blocked) + blk, tile.data(),
                        tile.size() * sizeof(float));
          } else {
            for (std::size_t i = 0; i < tile.size(); ++i)
              tile16[i] = bf16::from_f32(tile[i]);
            tpp::vnni2_pack(tile16.data(), static_cast<bf16*>(blocked) + blk,
                            bk, bc, bk);
          }
        }
}

void ConvKernel::unpack_output(const void* blocked, float* nkpq) const {
  const std::int64_t P = cfg_.P(), Q = cfg_.Q();
  for (std::int64_t n = 0; n < cfg_.N; ++n)
    for (std::int64_t k = 0; k < cfg_.K; ++k)
      for (std::int64_t p = 0; p < P; ++p)
        for (std::int64_t q = 0; q < Q; ++q) {
          const std::size_t idx = static_cast<std::size_t>(
              (((n * cfg_.Kb() + k / cfg_.bk) * P + p) * Q + q) * cfg_.bk +
              k % cfg_.bk);
          const float v = cfg_.dtype == DType::F32
                              ? static_cast<const float*>(blocked)[idx]
                              : static_cast<const bf16*>(blocked)[idx].to_f32();
          nkpq[((n * cfg_.K + k) * P + p) * Q + q] = v;
        }
}

}  // namespace plt::kernels
