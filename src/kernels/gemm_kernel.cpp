#include "kernels/gemm_kernel.hpp"

#include "common/check.hpp"

namespace plt::kernels {

namespace {

std::vector<parlooper::LoopSpecs> make_loops(const GemmConfig& c) {
  // Logical loops of Listing 1: a = K blocks, b = M blocks, c = N blocks.
  parlooper::LoopSpecs a{0, c.Kb(), c.k_step, c.k_blocking};
  parlooper::LoopSpecs b{0, c.Mb(), 1, c.m_blocking};
  parlooper::LoopSpecs n{0, c.Nb(), 1, c.n_blocking};
  return {a, b, n};
}

}  // namespace

GemmKernel::GemmKernel(GemmConfig cfg)
    : cfg_(cfg),
      a_block_elems_(cfg.dtype == DType::BF16
                         ? tpp::vnni2_elems(cfg.bm, cfg.bk)
                         : cfg.bm * cfg.bk),
      zero_tpp_(tpp::UnaryKind::kZero, cfg.bm, cfg.bn, cfg.dtype, cfg.dtype),
      brgemm_tpp_(cfg.bm, cfg.bn, cfg.bk,
                  /*stride_a=*/a_block_elems_,
                  /*stride_b=*/cfg.bn * cfg.bk,
                  /*beta=*/1.0f, cfg.dtype, cfg.dtype, cfg.dtype,
                  cfg.dtype == DType::BF16 ? tpp::ALayout::kVnni2
                                           : tpp::ALayout::kFlat) {
  PLT_CHECK(cfg_.M % cfg_.bm == 0 && cfg_.N % cfg_.bn == 0 &&
                cfg_.K % cfg_.bk == 0,
            "gemm: block sizes must divide M/N/K");
  PLT_CHECK(cfg_.Kb() % cfg_.k_step == 0, "gemm: k_step must divide Kb");
  PLT_CHECK(cfg_.dtype == DType::F32 || cfg_.dtype == DType::BF16,
            "gemm: f32 or bf16");
  // Footprints of one (ik, im, in) invocation, in block-layout elements:
  // the C block is read-modify-written (K-reduction + epilogue), A/B blocks
  // are read-only; k_step consecutive K blocks feed one BRGEMM call.
  const std::int64_t Kb = cfg_.Kb(), Mb = cfg_.Mb();
  const std::int64_t a_blk = a_block_elems_;
  const std::int64_t b_blk = cfg_.bn * cfg_.bk;
  const std::int64_t c_blk = cfg_.bn * cfg_.bm;
  parlooper::AccessMap access;
  access.add_write("C", {0, c_blk, Mb * c_blk}, c_blk)
      .add_read("C", {0, c_blk, Mb * c_blk}, c_blk)
      .add_read("A", {a_blk, Kb * a_blk, 0}, cfg_.k_step * a_blk)
      .add_read("B", {b_blk, 0, Kb * b_blk}, cfg_.k_step * b_blk);
  loop_ = std::make_shared<const parlooper::LoopNest>(
      make_loops(cfg_), cfg_.loop_spec, access);
}

GemmKernel GemmKernel::with_spec(const std::string& loop_spec) const {
  GemmConfig c = cfg_;
  c.loop_spec = loop_spec;
  return GemmKernel(c);
}

void GemmKernel::run(const void* a, const void* b, void* c) const {
  run_with_epilogue(a, b, c, Epilogue{});
}

void GemmKernel::run_with_epilogue(const void* a, const void* b, void* c,
                                   const Epilogue& epilogue) const {
  const std::int64_t Kb = cfg_.Kb(), Mb = cfg_.Mb();
  const std::size_t esz = dtype_size(cfg_.dtype);
  const char* ap = static_cast<const char*>(a);
  const char* bp = static_cast<const char*>(b);
  char* cp = static_cast<char*>(c);
  const std::int64_t a_blk = a_block_elems_;
  const std::int64_t b_blk = cfg_.bn * cfg_.bk;
  const std::int64_t c_blk = cfg_.bn * cfg_.bm;
  const std::int64_t k_last = Kb - cfg_.k_step;

  (*loop_)([&](const std::int64_t* ind) {
    const std::int64_t ik = ind[0], im = ind[1], in = ind[2];
    char* c_block = cp + static_cast<std::size_t>((in * Mb + im) * c_blk) * esz;
    if (ik == 0) zero_tpp_(nullptr, c_block);
    brgemm_tpp_(ap + static_cast<std::size_t>((im * Kb + ik) * a_blk) * esz,
                bp + static_cast<std::size_t>((in * Kb + ik) * b_blk) * esz,
                c_block, cfg_.k_step);
    if (epilogue && ik == k_last) epilogue(im, in, c_block);
  });
}

std::size_t GemmKernel::a_elems() const {
  return static_cast<std::size_t>(cfg_.Mb() * cfg_.Kb() * a_block_elems_);
}
std::size_t GemmKernel::b_elems() const {
  return static_cast<std::size_t>(cfg_.N * cfg_.K);
}
std::size_t GemmKernel::c_elems() const {
  return static_cast<std::size_t>(cfg_.M * cfg_.N);
}

void GemmKernel::pack_a(const float* flat, void* blocked) const {
  const std::int64_t Mb = cfg_.Mb(), Kb = cfg_.Kb();
  const std::int64_t bm = cfg_.bm, bk = cfg_.bk;
  if (cfg_.dtype == DType::F32) {
    tpp::block_a_matrix(flat, static_cast<float*>(blocked), cfg_.M, cfg_.K, bm,
                        bk);
    return;
  }
  std::vector<bf16> tmp(static_cast<std::size_t>(bm * bk));
  bf16* out = static_cast<bf16*>(blocked);
  for (std::int64_t im = 0; im < Mb; ++im)
    for (std::int64_t ik = 0; ik < Kb; ++ik) {
      for (std::int64_t kk = 0; kk < bk; ++kk)
        for (std::int64_t mm = 0; mm < bm; ++mm)
          tmp[static_cast<std::size_t>(mm + kk * bm)] = bf16::from_f32(
              flat[(im * bm + mm) + (ik * bk + kk) * cfg_.M]);
      tpp::vnni2_pack(tmp.data(), out + (im * Kb + ik) * a_block_elems_, bm,
                      bk, bm);
    }
}

void GemmKernel::pack_b(const float* flat, void* blocked) const {
  const std::int64_t Nb = cfg_.Nb(), Kb = cfg_.Kb();
  const std::int64_t bn = cfg_.bn, bk = cfg_.bk;
  for (std::int64_t in = 0; in < Nb; ++in)
    for (std::int64_t ik = 0; ik < Kb; ++ik)
      for (std::int64_t nn = 0; nn < bn; ++nn)
        for (std::int64_t kk = 0; kk < bk; ++kk) {
          const float v = flat[(ik * bk + kk) + (in * bn + nn) * cfg_.K];
          const std::size_t idx = static_cast<std::size_t>(
              (((in * Kb + ik) * bn + nn) * bk) + kk);
          if (cfg_.dtype == DType::F32) {
            static_cast<float*>(blocked)[idx] = v;
          } else {
            static_cast<bf16*>(blocked)[idx] = bf16::from_f32(v);
          }
        }
}

void GemmKernel::unpack_c(const void* blocked, float* flat) const {
  const std::int64_t Nb = cfg_.Nb(), Mb = cfg_.Mb();
  const std::int64_t bn = cfg_.bn, bm = cfg_.bm;
  for (std::int64_t in = 0; in < Nb; ++in)
    for (std::int64_t im = 0; im < Mb; ++im)
      for (std::int64_t nn = 0; nn < bn; ++nn)
        for (std::int64_t mm = 0; mm < bm; ++mm) {
          const std::size_t idx = static_cast<std::size_t>(
              (((in * Mb + im) * bn + nn) * bm) + mm);
          const float v = cfg_.dtype == DType::F32
                              ? static_cast<const float*>(blocked)[idx]
                              : static_cast<const bf16*>(blocked)[idx].to_f32();
          flat[(im * bm + mm) + (in * bn + nn) * cfg_.M] = v;
        }
}

}  // namespace plt::kernels
