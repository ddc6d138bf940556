#include "sparse/qcsr.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/simd/backend.hpp"
#include "sparse/csr.hpp"
#include "util/check.hpp"

namespace dstee::sparse {

namespace {

kernels::simd::QCsrView view_of(const std::size_t* row_ptr,
                                const std::uint32_t* col_idx,
                                const std::int8_t* values,
                                const float* scales, std::size_t rows,
                                std::size_t cols) {
  return kernels::simd::QCsrView{row_ptr, col_idx, values, scales, rows,
                                 cols};
}

}  // namespace

QCsrMatrix QCsrMatrix::quantize(const CsrMatrix& src) {
  QCsrMatrix q(src.rows(), src.cols());
  q.row_ptr_ = src.row_ptr();
  q.col_idx_ = src.col_idx();
  q.values_.resize(src.nnz());
  q.scales_.resize(src.rows());
  const auto& values = src.values();
  for (std::size_t r = 0; r < src.rows(); ++r) {
    float amax = 0.0f;
    for (std::size_t k = q.row_ptr_[r]; k < q.row_ptr_[r + 1]; ++k) {
      amax = std::max(amax, std::fabs(values[k]));
    }
    // All-zero (or empty) rows quantize to zeros under any scale; 1.0
    // keeps dequantization well-defined without a special case.
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    q.scales_[r] = scale;
    for (std::size_t k = q.row_ptr_[r]; k < q.row_ptr_[r + 1]; ++k) {
      // Round-to-nearest; |v| <= amax guarantees the quotient is in
      // [-127, 127], so no clamp is needed.
      q.values_[k] =
          static_cast<std::int8_t>(std::lround(values[k] / scale));
    }
  }
  return q;
}

double QCsrMatrix::density() const {
  const double total = static_cast<double>(rows_) * static_cast<double>(cols_);
  return total > 0.0 ? static_cast<double>(nnz()) / total : 0.0;
}

tensor::Tensor QCsrMatrix::spmm(
    const tensor::Tensor& x, const runtime::IntraOp& intra,
    const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  return row_slice(0, rows_).spmm(x, intra, ep, backend);
}

void QCsrMatrix::spmm_cols_into(
    const tensor::Tensor& cols, float* out, const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  util::check(cols.rank() == 2 && cols.dim(0) == cols_,
              "spmm_cols expects [cols, n]");
  row_slice(0, rows_).spmm_cols_into(cols.raw(), cols.dim(1), out, ep,
                                     backend);
}

QCsrRowSlice QCsrMatrix::row_slice(std::size_t r0, std::size_t r1) const {
  util::check(r0 <= r1 && r1 <= rows_,
              "row_slice requires 0 <= r0 <= r1 <= rows");
  return QCsrRowSlice(row_ptr_.data() + r0, col_idx_.data(), values_.data(),
                      scales_.data() + r0, r1 - r0, cols_);
}

std::vector<std::size_t> QCsrMatrix::balanced_row_splits(
    std::size_t ways) const {
  util::check(ways >= 1 && ways <= rows_,
              "balanced_row_splits requires 1 <= ways <= rows");
  std::vector<std::size_t> bounds(ways + 1, 0);
  bounds[ways] = rows_;
  const std::size_t total = nnz();
  for (std::size_t j = 1; j < ways; ++j) {
    const std::size_t target = (total * j + ways / 2) / ways;
    std::size_t b = static_cast<std::size_t>(
        std::lower_bound(row_ptr_.begin(), row_ptr_.end(), target) -
        row_ptr_.begin());
    if (b > 0 && (b > rows_ ||
                  target - row_ptr_[b - 1] <= row_ptr_[b] - target)) {
      --b;
    }
    b = std::clamp(b, j, rows_ - (ways - j));
    bounds[j] = std::max(b, bounds[j - 1] + 1);
  }
  return bounds;
}

tensor::Tensor QCsrMatrix::to_dense() const {
  return row_slice(0, rows_).to_dense();
}

std::size_t QCsrMatrix::weight_bytes() const {
  return values_.size() * sizeof(std::int8_t) +
         col_idx_.size() * sizeof(std::uint32_t) +
         scales_.size() * sizeof(float) +
         row_ptr_.size() * sizeof(std::size_t);
}

tensor::Tensor QCsrRowSlice::spmm(
    const tensor::Tensor& x, const runtime::IntraOp& intra,
    const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  tensor::Tensor y({x.rank() == 2 ? x.dim(0) : 0, rows_});
  spmm_into(x, y.raw(), intra, ep, backend);
  return y;
}

void QCsrRowSlice::spmm_into(
    const tensor::Tensor& x, float* out, const runtime::IntraOp& intra,
    const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  util::check(x.rank() == 2 && x.dim(1) == cols_,
              "spmm expects [batch, cols]");
  util::check(ep.residual == nullptr || ep.residual_stride > 0,
              "spmm fused residual requires residual_stride");
  const std::size_t batch = x.dim(0);
  const kernels::simd::KernelBackend& be =
      backend != nullptr ? *backend : kernels::simd::active_backend();
  const kernels::simd::QCsrView a =
      view_of(row_ptr_, col_idx_, values_, scales_, rows_, cols_);
  runtime::intra_chunks(intra, rows_, [&](std::size_t r0, std::size_t r1) {
    be.qspmm_rows(a, x.raw(), batch, out, r0, r1, ep);
  });
}

void QCsrRowSlice::spmm_cols_into(
    const float* b, std::size_t n, float* out, const kernels::Epilogue& ep,
    const kernels::simd::KernelBackend* backend) const {
  const kernels::simd::KernelBackend& be =
      backend != nullptr ? *backend : kernels::simd::active_backend();
  be.qspmm_cols(view_of(row_ptr_, col_idx_, values_, scales_, rows_, cols_),
                b, n, out, ep);
}

void QCsrRowSlice::conv_into(const kernels::simd::ConvView& x, float* out,
                             const kernels::Epilogue& ep,
                             const kernels::simd::KernelBackend* backend)
    const {
  const kernels::simd::KernelBackend& be =
      backend != nullptr ? *backend : kernels::simd::active_backend();
  be.qconv(view_of(row_ptr_, col_idx_, values_, scales_, rows_, cols_), x,
           out, ep);
}

QCsrRowSlice QCsrRowSlice::row_slice(std::size_t r0, std::size_t r1) const {
  util::check(r0 <= r1 && r1 <= rows_,
              "row_slice requires 0 <= r0 <= r1 <= rows");
  return QCsrRowSlice(row_ptr_ + r0, col_idx_, values_, scales_ + r0,
                      r1 - r0, cols_);
}

tensor::Tensor QCsrRowSlice::to_dense() const {
  tensor::Tensor dense({rows_, cols_});
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      dense[r * cols_ + col_idx_[k]] =
          scales_[r] * static_cast<float>(values_[k]);
    }
  }
  return dense;
}

}  // namespace dstee::sparse
