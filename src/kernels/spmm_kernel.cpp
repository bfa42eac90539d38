#include "kernels/spmm_kernel.hpp"

#include "common/check.hpp"

namespace plt::kernels {

SpmmKernel::SpmmKernel(SpmmConfig cfg)
    : cfg_(cfg),
      spmm_tpp_(cfg.bm, cfg.bk, cfg.bn, cfg.dtype, DType::F32, /*beta=*/0.0f,
                /*ldb=*/cfg.K, /*ldc=*/cfg.M) {
  PLT_CHECK(cfg_.M % cfg_.bm == 0 && cfg_.K % cfg_.bk == 0 &&
                cfg_.N % cfg_.bn == 0,
            "spmm: blocks must divide shape");
  // Logical loops: a = M block-rows, b = N tiles (Listing 5 keeps the K loop
  // inside the TPP via the BCSC structure).
  std::vector<parlooper::LoopSpecs> loops = {
      parlooper::LoopSpecs{0, cfg_.Mb(), 1},
      parlooper::LoopSpecs{0, cfg_.Nb(), 1}};
  // One (im, in) invocation writes a column-major bm x bn C tile (beta=0, so
  // no C read) with leading dimension M, and reads a bn-column B panel.
  parlooper::AccessMap access;
  access
      .add_write("C", {cfg_.bm, cfg_.bn * cfg_.M}, cfg_.bm, cfg_.bn, cfg_.M)
      .add_read("B", {0, cfg_.bn * cfg_.K}, cfg_.bn * cfg_.K);
  loop_ = std::make_shared<const parlooper::LoopNest>(loops, cfg_.loop_spec,
                                                      access);
}

void SpmmKernel::run(const tpp::BcscMatrix& a, const void* b, float* c) const {
  PLT_CHECK(a.M() == cfg_.M && a.K() == cfg_.K && a.bm() == cfg_.bm &&
                a.bk() == cfg_.bk && a.dtype() == cfg_.dtype,
            "spmm: matrix does not match kernel config");
  const std::size_t esz = dtype_size(cfg_.dtype);
  const char* bp = static_cast<const char*>(b);
  (*loop_)([&](const std::int64_t* ind) {
    const std::int64_t im = ind[0], in = ind[1];
    const char* b_panel = bp + static_cast<std::size_t>(in * cfg_.bn * cfg_.K) * esz;
    float* c_tile = c + in * cfg_.bn * cfg_.M + im * cfg_.bm;
    spmm_tpp_(a, im, b_panel, cfg_.K, c_tile, cfg_.M);
  });
}

double SpmmKernel::flops(const tpp::BcscMatrix& a) const {
  return 2.0 * static_cast<double>(a.nnz_blocks()) * cfg_.bm * cfg_.bk *
         static_cast<double>(cfg_.N);
}

}  // namespace plt::kernels
