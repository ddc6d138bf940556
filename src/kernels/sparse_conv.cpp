#include "kernels/sparse_conv.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "util/check.hpp"

namespace dstee::kernels {

SparseConvInput::SparseConvInput(const tensor::ConvGeometry& g) : g_(g) {
  const std::size_t padded_h = g.in_h + 2 * g.padding;
  const std::size_t padded_w = g.in_w + 2 * g.padding;
  util::check(g.stride > 0 && g.kernel_h > 0 && g.kernel_w > 0 &&
                  padded_h >= g.kernel_h && padded_w >= g.kernel_w,
              "direct conv: empty kernel or stride, or input smaller than "
              "kernel");
  // A 1×1 conv reads only every stride-th padded pixel, so its scratch
  // holds just those samples — the output grid — and the kernel walks it
  // at unit stride: the same taps in the same order, from a copy stride²
  // smaller.
  step_ = g.kernel_h == 1 && g.kernel_w == 1 ? g.stride : 1;
  rows_ = step_ == 1 ? padded_h : g.out_h();
  view_.row_step = step_ == 1 ? padded_w : g.out_w();
  view_.stride = step_ == 1 ? g.stride : 1;
  view_.out_h = g.out_h();
  view_.out_w = g.out_w();
  // Every tap and every position offset stays below the scratch size, so
  // checking that it fits 32 bits covers the whole index space.
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (view_.row_step > kMax || rows_ > kMax / view_.row_step ||
      g.in_channels > (kMax - kConvReadSlack) / (rows_ * view_.row_step)) {
    util::fail("direct conv: padded image of " +
               std::to_string(g.in_channels) + "x" + std::to_string(rows_) +
               "x" + std::to_string(view_.row_step) +
               " exceeds the 32-bit tap index range");
  }
  plane_ = rows_ * view_.row_step;
  scratch_size_ = g.in_channels * plane_ + kConvReadSlack;
  taps_.reserve(g.patch_size());
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        taps_.push_back(static_cast<std::uint32_t>(
            c * plane_ + kh * view_.row_step + kw));
      }
    }
  }
}

void SparseConvInput::pad(const float* image, float* xpad) const {
  // Scratch row r holds padded row r·step; rows and columns that fall in
  // the padding are never written, so they keep the scratch's zeros.
  const std::size_t p = g_.padding;
  for (std::size_t c = 0; c < g_.in_channels; ++c) {
    const float* src_c = image + c * g_.in_h * g_.in_w;
    float* dst_c = xpad + c * plane_;
    for (std::size_t r = 0, py = 0; r < rows_; ++r, py += step_) {
      if (py < p || py >= p + g_.in_h) continue;
      const float* src = src_c + (py - p) * g_.in_w;
      float* dst = dst_c + r * view_.row_step;
      if (step_ == 1) {
        std::copy_n(src, g_.in_w, dst + p);
        continue;
      }
      for (std::size_t q = 0, px = 0; q < view_.row_step; ++q, px += step_) {
        if (px >= p && px < p + g_.in_w) dst[q] = src[px - p];
      }
    }
  }
}

simd::ConvView SparseConvInput::view(const float* xpad) const {
  simd::ConvView v = view_;
  v.image = xpad;
  v.tap = taps_.data();
  return v;
}

}  // namespace dstee::kernels
