// Geometry of a 2-d convolution over one image — shared by the im2col
// lowering (tensor/im2col.hpp) and the direct sparse convolution
// (kernels/sparse_conv.hpp), so both agree on output sizes and on the
// column order of a conv weight viewed as [Cout, Cin·Kh·Kw].
#pragma once

#include <cstddef>

#include "util/check.hpp"

namespace dstee::tensor {

/// Geometry of a conv2d application to one image.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t padding = 0;

  /// Square-kernel geometry over an in_h × in_w image. Fails
  /// (util::CheckError) when the padded image is smaller than the kernel,
  /// so shape propagation stops cleanly instead of underflowing out_h().
  static ConvGeometry square(std::size_t in_channels, std::size_t kernel,
                             std::size_t stride, std::size_t padding,
                             std::size_t in_h, std::size_t in_w) {
    util::check(in_h + 2 * padding >= kernel && in_w + 2 * padding >= kernel,
                "conv input smaller than kernel");
    return ConvGeometry{in_channels, in_h,   in_w,   kernel,
                        kernel,      stride, padding};
  }

  std::size_t out_h() const {
    return (in_h + 2 * padding - kernel_h) / stride + 1;
  }
  std::size_t out_w() const {
    return (in_w + 2 * padding - kernel_w) / stride + 1;
  }
  /// Rows of the lowered matrix: Cin · Kh · Kw.
  std::size_t patch_size() const { return in_channels * kernel_h * kernel_w; }
};

}  // namespace dstee::tensor
