// CSR sparse-inference tests: conversion round-trips, products vs dense
// reference, and the end-to-end sparse deployment of a masked MLP.
#include <gtest/gtest.h>

#include <algorithm>

#include "models/mlp.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "serve/compiled_net.hpp"
#include "sparse/csr.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using testing::random_tensor;

TEST(Csr, FromDenseRoundTrips) {
  tensor::Tensor dense(tensor::Shape({3, 4}),
                       {1, 0, 2, 0, 0, 0, 0, 3, 4, 0, 0, 5});
  const auto csr = sparse::CsrMatrix::from_dense(dense);
  EXPECT_EQ(csr.rows(), 3u);
  EXPECT_EQ(csr.cols(), 4u);
  EXPECT_EQ(csr.nnz(), 5u);
  EXPECT_NEAR(csr.density(), 5.0 / 12.0, 1e-12);
  EXPECT_TRUE(csr.to_dense().equals(dense));
}

TEST(Csr, EpsThresholdDropsSmallEntries) {
  tensor::Tensor dense(tensor::Shape({1, 3}), {1.0f, 1e-6f, -2.0f});
  const auto csr = sparse::CsrMatrix::from_dense(dense, 1e-3f);
  EXPECT_EQ(csr.nnz(), 2u);
}

TEST(Csr, FromMaskedStoresActiveEntriesOnly) {
  util::Rng rng(1);
  models::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = {};
  cfg.out_features = 8;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.75, sparse::DistributionKind::kUniform,
                         rng);
  const auto csr = sparse::CsrMatrix::from_masked(sm.layer(0));
  EXPECT_EQ(csr.nnz(), sm.layer(0).num_active());
  // Reconstruction matches the masked dense weights exactly.
  EXPECT_TRUE(csr.to_dense().equals(sm.layer(0).param().value));
}

TEST(Csr, MatvecMatchesDense) {
  const auto dense = random_tensor(tensor::Shape({7, 5}), 2);
  const auto x = random_tensor(tensor::Shape({5}), 3);
  const auto csr = sparse::CsrMatrix::from_dense(dense);
  const auto y = csr.matvec(x);
  ASSERT_EQ(y.numel(), 7u);
  for (std::size_t r = 0; r < 7; ++r) {
    float expect = 0.0f;
    for (std::size_t c = 0; c < 5; ++c) expect += dense[r * 5 + c] * x[c];
    EXPECT_NEAR(y[r], expect, 1e-4f);
  }
}

TEST(Csr, MatmulNtMatchesDenseKernel) {
  const auto w = random_tensor(tensor::Shape({6, 9}), 4);
  const auto x = random_tensor(tensor::Shape({4, 9}), 5);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  EXPECT_TRUE(csr.spmm(x).allclose(tensor::matmul_nt(x, w), 1e-4f));
}

TEST(Csr, SpmmMatchesDenseMatmulOnRandomMaskedMatrices) {
  for (const double density : {0.05, 0.3, 0.7}) {
    auto w = random_tensor(tensor::Shape({13, 9}), 31);
    // Random mask at the given density.
    util::Rng mask_rng(static_cast<std::uint64_t>(density * 1000));
    for (std::size_t i = 0; i < w.numel(); ++i) {
      if (mask_rng.uniform() > density) w[i] = 0.0f;
    }
    const auto x = random_tensor(tensor::Shape({6, 9}), 33);
    const auto csr = sparse::CsrMatrix::from_dense(w);
    const auto expected = tensor::matmul_nt(x, w);
    EXPECT_TRUE(csr.spmm(x).allclose(expected, 1e-4f))
        << "density " << density;
  }
}

TEST(Csr, SpmmHandlesEmptyRowsAndFullyDense) {
  // Row 1 is entirely masked; the result row must be exactly zero.
  tensor::Tensor w(tensor::Shape({3, 4}),
                   {1, -2, 0, 3, 0, 0, 0, 0, 4, 5, 6, 7});
  const auto x = random_tensor(tensor::Shape({5, 4}), 41);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto y = csr.spmm(x);
  for (std::size_t n = 0; n < 5; ++n) EXPECT_EQ(y[n * 3 + 1], 0.0f);
  EXPECT_TRUE(y.allclose(tensor::matmul_nt(x, w), 1e-4f));

  // Fully dense matrix: CSR must agree with the dense kernel too.
  const auto d = random_tensor(tensor::Shape({7, 6}), 43);
  const auto xd = random_tensor(tensor::Shape({4, 6}), 44);
  EXPECT_EQ(sparse::CsrMatrix::from_dense(d).nnz(), 42u);
  EXPECT_TRUE(sparse::CsrMatrix::from_dense(d).spmm(xd).allclose(
      tensor::matmul_nt(xd, d), 1e-4f));
}

TEST(Csr, SpmmIsThreadCountInvariant) {
  // Row-parallel chunks write disjoint outputs, so any thread count must
  // produce bit-identical results (0 = hardware concurrency).
  const auto w = random_tensor(tensor::Shape({33, 17}), 51);
  const auto x = random_tensor(tensor::Shape({9, 17}), 52);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto serial = csr.spmm(x, 1);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{5}, std::size_t{64}}) {
    EXPECT_TRUE(csr.spmm(x, threads).equals(serial))
        << "threads=" << threads;
  }
}

TEST(Csr, SpmmShapeChecks) {
  const auto w = random_tensor(tensor::Shape({3, 4}), 61);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  EXPECT_THROW(csr.spmm(random_tensor(tensor::Shape({2, 5}), 62)),
               util::CheckError);
  EXPECT_THROW(csr.spmm(random_tensor(tensor::Shape({4}), 63)),
               util::CheckError);
}

TEST(Csr, ScaleRowsScalesStoredValuesOnly) {
  tensor::Tensor w(tensor::Shape({2, 3}), {1, 0, 2, 0, 3, 0});
  auto csr = sparse::CsrMatrix::from_dense(w);
  csr.scale_rows(std::vector<float>{2.0f, -1.0f});
  tensor::Tensor expected(tensor::Shape({2, 3}), {2, 0, 4, 0, -3, 0});
  EXPECT_TRUE(csr.to_dense().equals(expected));
  EXPECT_THROW(csr.scale_rows(std::vector<float>{1.0f}), util::CheckError);
}

TEST(Csr, ShapeChecks) {
  const auto w = random_tensor(tensor::Shape({3, 4}), 6);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  EXPECT_THROW(csr.matvec(random_tensor(tensor::Shape({5}), 7)),
               util::CheckError);
  EXPECT_THROW(csr.spmm(random_tensor(tensor::Shape({2, 5}), 8)),
               util::CheckError);
  EXPECT_THROW(
      sparse::CsrMatrix::from_dense(random_tensor(tensor::Shape({4}), 9)),
      util::CheckError);
}

class CsrDensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(CsrDensitySweep, SparseForwardMatchesMaskedDenseMlp) {
  // End-to-end: sparse-train state → compiled CSR net → forward equals the
  // dense masked model's eval-mode forward at every density.
  const double sparsity = GetParam();
  util::Rng rng(11);
  models::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {24, 16};
  cfg.out_features = 5;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, sparsity,
                         sparse::DistributionKind::kUniform, rng);

  model.set_training(false);
  const auto net = serve::CompiledNet::compile(model, &sm);
  const auto x = random_tensor(tensor::Shape({6, 12}), 13);
  const auto dense_out = model.forward(x);
  const auto sparse_out = net.forward(x);
  EXPECT_TRUE(sparse_out.allclose(dense_out, 1e-3f));
  EXPECT_EQ(net.total_nnz(), sm.total_active());
}

INSTANTIATE_TEST_SUITE_P(Densities, CsrDensitySweep,
                         ::testing::Values(0.0, 0.5, 0.9, 0.98));

TEST(Csr, FromDenseFlattensHigherRanksRowMajor) {
  // A conv weight [Cout, Cin, K, K] converts as [Cout, Cin·K·K] — the same
  // 2-d view nn::Conv2d lowers to for its matmul.
  const auto w = random_tensor(tensor::Shape({5, 3, 2, 2}), 31);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  EXPECT_EQ(csr.rows(), 5u);
  EXPECT_EQ(csr.cols(), 12u);
  EXPECT_TRUE(csr.to_dense().equals(w.reshaped(tensor::Shape({5, 12}))));
}

TEST(Csr, SpmmColsMatchesDenseMatmul) {
  // Y = A·B over a column-per-position patch matrix, vs the dense kernel.
  util::Rng rng(7);
  tensor::Tensor a = random_tensor(tensor::Shape({6, 9}), 41);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if ((i * 2654435761u) % 10 < 7) a[i] = 0.0f;  // ~70% sparse
  }
  const auto csr = sparse::CsrMatrix::from_dense(a);
  const auto b = random_tensor(tensor::Shape({9, 13}), 42);
  const auto expected = tensor::matmul(a, b);
  EXPECT_TRUE(csr.spmm_cols(b).allclose(expected, 1e-5f));

  // The into-variant writes the same values into caller storage.
  tensor::Tensor out({6, 13});
  csr.spmm_cols_into(b, out.raw());
  EXPECT_TRUE(out.allclose(expected, 1e-5f));
}

TEST(Csr, SpmmColsShapeChecks) {
  const auto csr =
      sparse::CsrMatrix::from_dense(random_tensor(tensor::Shape({3, 4}), 1));
  EXPECT_THROW(csr.spmm_cols(random_tensor(tensor::Shape({5, 2}), 2)),
               util::CheckError);
  EXPECT_THROW(csr.spmm_cols(random_tensor(tensor::Shape({4}), 3)),
               util::CheckError);
}

TEST(Csr, Im2colSpmmMatchesDenseConvReference) {
  // The serve-side conv lowering (im2col + spmm_cols with the masked
  // [Cout, Cin·K·K] matrix) must reproduce nn::Conv2d's dense forward on
  // the same masked weights, across stride/padding variants.
  struct Variant {
    std::size_t kernel, stride, padding;
  };
  for (const Variant v : {Variant{3, 1, 1}, Variant{3, 2, 0},
                          Variant{5, 2, 2}, Variant{1, 1, 0}}) {
    util::Rng rng(100 + v.kernel * 10 + v.stride);
    nn::Conv2d conv(3, 6, v.kernel, v.stride, v.padding, rng);
    // Mask ~60% of the weights to zero (stored-zero topology).
    auto& w = conv.weight().value;
    for (std::size_t i = 0; i < w.numel(); ++i) {
      if ((i * 2654435761u) % 10 < 6) w[i] = 0.0f;
    }
    conv.set_training(false);
    const auto x = random_tensor(tensor::Shape({2, 3, 9, 9}), 55);
    const auto expected = conv.forward(x);

    const auto csr = sparse::CsrMatrix::from_dense(w);
    tensor::ConvGeometry g;
    g.in_channels = 3;
    g.in_h = 9;
    g.in_w = 9;
    g.kernel_h = v.kernel;
    g.kernel_w = v.kernel;
    g.stride = v.stride;
    g.padding = v.padding;
    const std::size_t oh = g.out_h(), ow = g.out_w();
    tensor::Tensor y({2, 6, oh, ow});
    tensor::Tensor cols({g.patch_size(), oh * ow});
    for (std::size_t n = 0; n < 2; ++n) {
      tensor::im2col(x.raw() + n * 3 * 9 * 9, g, cols);
      csr.spmm_cols_into(cols, y.raw() + n * 6 * oh * ow);
    }
    EXPECT_TRUE(y.allclose(expected, 1e-4f))
        << "k" << v.kernel << " s" << v.stride << " p" << v.padding;
  }
}

// --- row_slice: the zero-copy view PartitionRows builds on -------------

TEST(Csr, RowSliceFullRangeMatchesParent) {
  const auto w = random_tensor(tensor::Shape({9, 7}), 71);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto full = csr.row_slice(0, csr.rows());
  EXPECT_EQ(full.rows(), csr.rows());
  EXPECT_EQ(full.cols(), csr.cols());
  EXPECT_EQ(full.nnz(), csr.nnz());
  EXPECT_TRUE(full.to_dense().equals(csr.to_dense()));
  const auto x = random_tensor(tensor::Shape({4, 7}), 72);
  // CsrMatrix::spmm IS the full-range slice, so bits must match exactly.
  EXPECT_TRUE(full.spmm(x).equals(csr.spmm(x)));
}

TEST(Csr, RowSliceEmptyRangeIsValid) {
  const auto w = random_tensor(tensor::Shape({5, 4}), 73);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  for (const std::size_t at : {std::size_t{0}, std::size_t{3},
                               std::size_t{5}}) {
    const auto empty = csr.row_slice(at, at);
    EXPECT_EQ(empty.rows(), 0u);
    EXPECT_EQ(empty.nnz(), 0u);
    EXPECT_EQ(empty.cols(), 4u);
    EXPECT_DOUBLE_EQ(empty.density(), 0.0);
  }
}

TEST(Csr, RowSliceOfSliceEqualsDirectSlice) {
  const auto w = random_tensor(tensor::Shape({12, 6}), 74);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto outer = csr.row_slice(2, 10);  // rows 2..10
  const auto inner = outer.row_slice(3, 7);  // rows 5..9 of the parent
  const auto direct = csr.row_slice(5, 9);
  EXPECT_EQ(inner.rows(), 4u);
  EXPECT_EQ(inner.nnz(), direct.nnz());
  EXPECT_TRUE(inner.to_dense().equals(direct.to_dense()));
}

TEST(Csr, RowSliceSpmmMatchesMaskedDenseReference) {
  // Random ~70%-masked matrix; a slice's SpMM must equal the dense kernel
  // over exactly those masked rows.
  auto w = random_tensor(tensor::Shape({13, 9}), 75);
  util::Rng mask_rng(75);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    if (mask_rng.uniform() > 0.3) w[i] = 0.0f;
  }
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto x = random_tensor(tensor::Shape({5, 9}), 76);

  const std::size_t r0 = 3, r1 = 10;
  tensor::Tensor sub({r1 - r0, 9});
  for (std::size_t r = r0; r < r1; ++r) {
    for (std::size_t c = 0; c < 9; ++c) {
      sub[(r - r0) * 9 + c] = w[r * 9 + c];
    }
  }
  const auto slice = csr.row_slice(r0, r1);
  EXPECT_TRUE(slice.spmm(x).allclose(tensor::matmul_nt(x, sub), 1e-5f));
  // Row-parallel chunks write disjoint outputs: any chunk count must be
  // bit-identical (0 = pool-wide).
  const auto serial = slice.spmm(x);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{5}}) {
    EXPECT_TRUE(
        slice.spmm(x, runtime::IntraOp{threads, nullptr}).equals(serial))
        << "threads=" << threads;
  }
}

TEST(Csr, RowSliceSpmmColsMatchesDenseSubmatrix) {
  auto a = random_tensor(tensor::Shape({6, 9}), 77);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if ((i * 2654435761u) % 10 < 7) a[i] = 0.0f;  // ~70% sparse
  }
  const auto csr = sparse::CsrMatrix::from_dense(a);
  const auto b = random_tensor(tensor::Shape({9, 13}), 78);
  const auto expected = tensor::matmul(a, b);

  const std::size_t r0 = 1, r1 = 5;
  tensor::Tensor out({r1 - r0, 13});
  csr.row_slice(r0, r1).spmm_cols_into(b.raw(), 13, out.raw());
  for (std::size_t r = r0; r < r1; ++r) {
    for (std::size_t j = 0; j < 13; ++j) {
      EXPECT_NEAR(out[(r - r0) * 13 + j], expected[r * 13 + j], 1e-5f);
    }
  }
}

TEST(Csr, RowSliceShapeChecks) {
  const auto csr =
      sparse::CsrMatrix::from_dense(random_tensor(tensor::Shape({4, 3}), 79));
  EXPECT_THROW(csr.row_slice(3, 2), util::CheckError);
  EXPECT_THROW(csr.row_slice(0, 5), util::CheckError);
  const auto slice = csr.row_slice(1, 3);
  EXPECT_THROW(slice.row_slice(1, 3), util::CheckError);  // past its end
  EXPECT_THROW(slice.spmm(random_tensor(tensor::Shape({2, 4}), 80)),
               util::CheckError);
}

TEST(Csr, BalancedRowSplitsEqualizeStoredWork) {
  // Rows with wildly different nnz: 0, 12, 1, 1, 12, 0, 12, 2.
  tensor::Tensor w({8, 12});
  auto fill_row = [&](std::size_t r, std::size_t count) {
    for (std::size_t c = 0; c < count; ++c) w[r * 12 + c] = 1.0f;
  };
  fill_row(1, 12);
  fill_row(2, 1);
  fill_row(3, 1);
  fill_row(4, 12);
  fill_row(6, 12);
  fill_row(7, 2);
  const auto csr = sparse::CsrMatrix::from_dense(w);

  const auto bounds = csr.balanced_row_splits(3);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 8u);
  std::size_t max_nnz = 0;
  for (std::size_t j = 0; j + 1 < bounds.size(); ++j) {
    ASSERT_LT(bounds[j], bounds[j + 1]);  // every range keeps >= 1 row
    max_nnz = std::max(max_nnz,
                       csr.row_slice(bounds[j], bounds[j + 1]).nnz());
  }
  // 40 nonzeros over 3 ranges: a cost-balanced split caps the heaviest
  // range near ceil(40/3)+row granularity, far under the 25 a naive
  // equal-rows split would give ranges [0,3)/[3,6)/[6,8).
  EXPECT_LE(max_nnz, 14u);

  // Degenerate: everything in one row still yields one row per range.
  tensor::Tensor heavy({4, 8});
  for (std::size_t c = 0; c < 8; ++c) heavy[c] = 1.0f;
  const auto heavy_csr = sparse::CsrMatrix::from_dense(heavy);
  const auto hb = heavy_csr.balanced_row_splits(4);
  for (std::size_t j = 0; j + 1 < hb.size(); ++j) {
    EXPECT_EQ(hb[j + 1] - hb[j], 1u);
  }
  EXPECT_THROW(heavy_csr.balanced_row_splits(5), util::CheckError);
}

}  // namespace
}  // namespace dstee
