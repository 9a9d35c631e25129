// Scalar kernel tier: portable baseline, compiled with no ISA flags.
// Always registered; the reference every other tier must match bitwise.

#include "tensor/dispatch.h"
#include "tensor/kernels_detail.h"

namespace rptcn {
namespace {

using kdetail::VecScalar;

void vexp_scalar(float* p, std::size_t n) {
  kdetail::elementwise_inplace<VecScalar, kdetail::exp_core<VecScalar>,
                               kdetail::exp_scalar_lane>(p, n);
}

void vtanh_scalar(float* p, std::size_t n) {
  kdetail::elementwise_inplace<VecScalar, kdetail::tanh_core<VecScalar>,
                               kdetail::tanh_scalar_lane>(p, n);
}

const KernelTable kTable = {
    /*arch=*/KernelArch::kScalar,
    /*mr=*/8,
    /*nr=*/8,
    /*micro_kernel=*/kdetail::micro_kernel_impl<8, 8>,
    /*pack_a=*/kdetail::pack_a_impl<8>,
    /*pack_b=*/kdetail::pack_b_impl<8>,
    /*gemm_small=*/kdetail::gemm_small_impl,
    /*vexp=*/vexp_scalar,
    /*vtanh=*/vtanh_scalar,
    /*im2col=*/kdetail::im2col_impl,
};

}  // namespace

const KernelTable* kernel_table_scalar() { return &kTable; }

}  // namespace rptcn
