// CSR sparse-matrix inference path.
//
// Training keeps weights dense-with-masks (the standard DST formulation),
// but the *deployment* story of the paper — inference FLOPs proportional to
// density — is only real if sparse kernels exist. This module converts a
// trained masked weight matrix into CSR form and provides the sparse
// matrix-vector / matrix-matrix products a deployment runtime would use.
// The micro_kernels bench measures the dense→CSR crossover empirically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kernels/epilogue.hpp"
#include "runtime/pool.hpp"
#include "sparse/masked_parameter.hpp"
#include "tensor/tensor.hpp"

namespace dstee::kernels::simd {
struct KernelBackend;
struct ConvView;
}  // namespace dstee::kernels::simd

namespace dstee::sparse {

class CsrMatrix;

/// Zero-copy view over a contiguous row range [r0, r1) of a CsrMatrix.
///
/// The view borrows the parent's arrays (row_ptr entries stay absolute
/// offsets into the parent's col_idx/values), so constructing one costs
/// three pointers and slicing never touches the nonzeros. The parent must
/// outlive every view; serve::PartitionRows keeps the parent alive through
/// shared ownership. Row-parallel kernels on a slice follow the same
/// one-writer-per-output contract as the parent's, so results are
/// bit-identical to running the parent over the same rows.
class CsrRowSlice {
 public:
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return row_ptr_[rows_] - row_ptr_[0]; }

  /// Density of the slice in [0, 1].
  double density() const;

  /// Batched SpMM over the slice: Y = X·A[r0:r1)ᵀ for X[batch, cols] →
  /// Y[batch, rows()]. Same row-parallel chunking contract as
  /// CsrMatrix::spmm (which is implemented as the full-range slice).
  /// `ep` is applied to each output value while it is still in register:
  /// Y[n, r] = act(acc + ep.bias[r] + ep.residual[n·stride + r]) — the
  /// fused-epilogue path. ep.bias/ep.residual are indexed by the SLICE's
  /// local row r; a slice of a wider output pre-offsets both pointers by
  /// its row_begin and sets ep.residual_stride to the FULL output width.
  /// `backend` picks the kernel implementation (nullptr = the process
  /// active backend, see kernels::simd::active_backend()); all backends
  /// are bit-identical, so this only affects speed.
  tensor::Tensor spmm(const tensor::Tensor& x,
                      const runtime::IntraOp& intra = {},
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  /// spmm writing into caller storage of batch·rows() floats.
  void spmm_into(const tensor::Tensor& x, float* out,
                 const runtime::IntraOp& intra = {},
                 const kernels::Epilogue& ep = {},
                 const kernels::simd::KernelBackend* backend = nullptr) const;

  /// Y = A[r0:r1)·B for a dense patch matrix B[cols, n] given as a raw
  /// row-major pointer, writing rows()·n floats to `out`. `ep` finishes
  /// each output row while it is hot: Y[r, j] = act(acc + ep.bias[r] +
  /// ep.residual[r·n + j]) — ep.residual (when set) is laid out exactly
  /// like `out`, i.e. already offset to this slice's block of the sample.
  void spmm_cols_into(const float* b, std::size_t n, float* out,
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  /// Direct sparse conv of one padded image (kernels::SparseConvInput):
  /// bit-identical to spmm_cols_into over the image's im2col patches,
  /// writing rows()·OH·OW floats with the same epilogue layout. The
  /// serve/ conv path, whole node or row slice.
  void conv_into(const kernels::simd::ConvView& x, float* out,
                 const kernels::Epilogue& ep = {},
                 const kernels::simd::KernelBackend* backend = nullptr) const;

  /// Slice of a slice: rows [r0, r1) of THIS view (still zero-copy into
  /// the original parent).
  CsrRowSlice row_slice(std::size_t r0, std::size_t r1) const;

  /// Materializes the slice densely (tests / debugging).
  tensor::Tensor to_dense() const;

 private:
  friend class CsrMatrix;
  CsrRowSlice(const std::size_t* row_ptr, const std::uint32_t* col_idx,
              const float* values, std::size_t rows, std::size_t cols)
      : row_ptr_(row_ptr), col_idx_(col_idx), values_(values), rows_(rows),
        cols_(cols) {}

  const std::size_t* row_ptr_;    ///< rows_+1 absolute offsets (parent-based)
  const std::uint32_t* col_idx_;  ///< parent base pointer
  const float* values_;           ///< parent base pointer
  std::size_t rows_;
  std::size_t cols_;
};

/// Compressed sparse row matrix (float values, row-major logical shape).
class CsrMatrix {
 public:
  /// Builds from a dense tensor of rank >= 2, keeping entries with
  /// |v| > eps. dim(0) becomes the row count and the remaining axes are
  /// flattened into columns — exactly the [Cout, Cin·K·K] view a conv
  /// weight deploys under (rank-2 linear weights are unchanged).
  static CsrMatrix from_dense(const tensor::Tensor& dense, float eps = 0.0f);

  /// Builds from a masked parameter (only mask-active entries are stored,
  /// regardless of value — the faithful deployment of a sparse topology).
  /// Accepts rank >= 2 with the same row/column flattening as from_dense.
  static CsrMatrix from_masked(const MaskedParameter& param);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Density in [0, 1].
  double density() const;

  /// y = A·x for x[cols] → y[rows].
  tensor::Tensor matvec(const tensor::Tensor& x) const;

  /// Batched SpMM: Y = X·Aᵀ for X[batch, cols] → Y[batch, rows].
  ///
  /// The loop nest is row-parallel: output rows are split into contiguous
  /// chunks, each owned by one worker, so every element of Y is written by
  /// exactly one thread and the result is bit-identical for any thread
  /// count. `intra` picks the chunk count and the executing
  /// runtime::Pool; the default ({1, nullptr}) runs inline and never
  /// touches a pool. `ep` is the fused epilogue applied in the output
  /// loop (Y[n, r] = act(acc + bias[r] + residual[n·stride + r]); the
  /// default is the identity).
  tensor::Tensor spmm(const tensor::Tensor& x,
                      const runtime::IntraOp& intra = {},
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  /// Chunk-count-only overload (threads 0 = pool-wide on the process
  /// default pool) for call sites without a pool to inject.
  tensor::Tensor spmm(const tensor::Tensor& x, std::size_t num_threads) const;

  /// Y = A·B for dense B[cols, n] (row-major) → Y[rows, n]: the CSR kernel
  /// over an im2col patch matrix, whose columns are output positions — the
  /// reference the direct conv (CsrRowSlice::conv_into) is tested
  /// against. Each stored entry streams one contiguous B row, so the inner
  /// loop stays unit-stride for any sparsity pattern.
  tensor::Tensor spmm_cols(const tensor::Tensor& cols) const;

  /// spmm_cols writing into caller-owned storage of rows()·cols.dim(1)
  /// floats (e.g. one image's block of an [N, Cout, Ho, Wo] output). `ep`
  /// follows the CsrRowSlice::spmm_cols_into layout (bias per row,
  /// residual laid out like `out`).
  void spmm_cols_into(const tensor::Tensor& cols, float* out,
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  /// Zero-copy view over rows [r0, r1) (r0 <= r1 <= rows()); this matrix
  /// must outlive the view. The row-range unit of serve::PartitionRows.
  CsrRowSlice row_slice(std::size_t r0, std::size_t r1) const;

  /// Cost-balanced row partition: `ways`+1 non-decreasing boundaries
  /// (first 0, last rows()) splitting the rows into `ways` contiguous
  /// ranges of roughly equal stored-nonzero count — equal *work*, not
  /// equal row count, since every CSR kernel's per-row cost is its nnz.
  /// Each range keeps at least one row (requires ways <= rows()).
  std::vector<std::size_t> balanced_row_splits(std::size_t ways) const;

  /// Multiplies every stored value in row r by scale[r] (and bias folding
  /// callers adjust their bias separately). Used to fold an eval-mode
  /// batch-norm into the preceding sparse Linear at compile time.
  void scale_rows(std::span<const float> scale);

  /// Reconstructs the dense matrix (tests / round-trips).
  tensor::Tensor to_dense() const;

  /// Raw CSR arrays (read-only). Column indices are stored as uint32 —
  /// half the index bandwidth of the original size_t layout, and the type
  /// the SIMD gather kernels consume directly. The private constructor
  /// rejects matrices whose column count cannot be indexed in 32 bits.
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

 private:
  CsrMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<float> values_;
};

}  // namespace dstee::sparse
