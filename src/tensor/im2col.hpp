// im2col / col2im: lowering 2-d convolution to matrix multiplication.
//
// Forward conv:  weight[Cout, Cin·Kh·Kw] · im2col(x)[Cin·Kh·Kw, Ho·Wo]
// Backward data: col2im(weightᵀ · grad_out)
// Backward weight: grad_out · im2col(x)ᵀ   (gives the FULL dense weight
// gradient, which is exactly what RigL/DST-EE need for growth scoring).
#pragma once

#include <cstddef>

#include "tensor/conv_geometry.hpp"
#include "tensor/tensor.hpp"

namespace dstee::tensor {

/// Lowers one image `x[C, H, W]` (given as a flat span base pointer) into
/// `cols[patch_size, out_h*out_w]`. `cols` must be pre-shaped; zero padding
/// is materialized as zeros.
void im2col(const float* image, const ConvGeometry& g, Tensor& cols);

/// im2col writing into caller-owned storage of patch_size·out_h·out_w
/// floats — the per-image path of the dense conv forward
/// (kernels::conv2d_forward) and the reference the direct sparse conv
/// (kernels/sparse_conv.hpp, which serve/ runs) is tested against.
void im2col(const float* image, const ConvGeometry& g, float* cols);

/// Adjoint of im2col: scatters `cols[patch_size, out_h*out_w]` back into the
/// image gradient buffer (accumulating).
void col2im(const Tensor& cols, const ConvGeometry& g, float* image_grad);

}  // namespace dstee::tensor
