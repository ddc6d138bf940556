// Direct sparse convolution: the input side of the KernelBackend conv /
// qconv kernels (after Park et al., "Faster CNNs with Direct Sparse
// Convolutions", ICLR 2017).
//
// A conv weight deploys as CSR over [Cout, Cin·K·K] — the im2col column
// order. Instead of materializing the patch matrix, each output position
// walks its filter row's nonzeros and reads the tap straight from a
// zero-padded copy of the image. The op sequence per output element is
// exactly spmm_cols over the patch matrix, padding taps included (they
// multiply a literal 0.0f), so the result is bit-identical to
// tensor::im2col + spmm_cols_into.
//
// SparseConvInput is built once per call for one input geometry: its tap
// table maps a weight column to its offset in the padded image (nested
// loops, no divides, O(Cin·K·K)), and every batch chunk shares it
// read-only. Each chunk owns one padded-image scratch of scratch_size()
// floats, zeroed once; pad() rewrites only the interior per image. A 1×1
// conv's scratch keeps only the pixels its stride samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/simd/backend.hpp"
#include "tensor/conv_geometry.hpp"

namespace dstee::kernels {

/// Floats a conv kernel may read past the last padded row (the tails of
/// its vector loads); scratch_size() includes them.
inline constexpr std::size_t kConvReadSlack = 16;

class SparseConvInput {
 public:
  /// Fails (util::CheckError) when a padded-image offset would not fit
  /// the 32-bit tap index, instead of letting it wrap.
  explicit SparseConvInput(const tensor::ConvGeometry& g);

  /// Floats of one padded-image scratch: Cin·(H + 2p)·(W + 2p) (1×1:
  /// Cin·OH·OW) plus the read slack. Zero it once; pad() leaves border and
  /// slack alone.
  std::size_t scratch_size() const { return scratch_size_; }

  /// Copies one image [Cin, H, W] into the interior of `xpad`.
  void pad(const float* image, float* xpad) const;

  /// The kernel view of a padded image written by pad().
  simd::ConvView view(const float* xpad) const;

 private:
  tensor::ConvGeometry g_;
  std::size_t step_ = 1;  ///< padded pixels per scratch pixel (1×1: stride)
  std::size_t rows_ = 0;  ///< scratch rows per channel
  std::size_t plane_ = 0;  ///< scratch floats per channel
  std::size_t scratch_size_ = 0;
  std::vector<std::uint32_t> taps_;
  simd::ConvView view_;  ///< geometry fields; view() adds the pointers
};

}  // namespace dstee::kernels
