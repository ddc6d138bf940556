// Direct sparse convolution: every backend's conv/qconv kernel — on its
// own, through the serve CSR op (whole and row-partitioned) and through a
// whole bound conv net — must be BIT-identical (memcmp) to the scalar
// tensor::im2col + spmm_cols_into lowering. Shapes cover every vector
// width tail, strides 1–3 and kernel sizes 1/3/5; weights carry ±Inf, NaN
// and −0.0 and inputs −0.0, so a padding tap that is skipped instead of
// multiplied by 0.0f (Inf·0 = NaN) shows up as a mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "kernels/epilogue.hpp"
#include "kernels/simd/backend.hpp"
#include "kernels/sparse_conv.hpp"
#include "nn/parameter.hpp"
#include "runtime/pool.hpp"
#include "serve/executor.hpp"
#include "serve/passes.hpp"
#include "serve/plan.hpp"
#include "sparse/csr.hpp"
#include "sparse/mask.hpp"
#include "sparse/masked_parameter.hpp"
#include "sparse/qcsr.hpp"
#include "tensor/im2col.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using kernels::ActKind;
using kernels::Epilogue;
using kernels::simd::KernelBackend;
using testing::random_tensor;

std::vector<const KernelBackend*> all_backends() {
  std::vector<const KernelBackend*> out{&kernels::simd::scalar_backend()};
  if (const KernelBackend* avx2 = kernels::simd::avx2_backend()) {
    out.push_back(avx2);
  }
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

/// ~40%-dense [rows, cols] weights stored through a mask, so stored
/// values may be anything. With `specials`, row 0 holds ±Inf, row 1 NaN
/// and row 2 −0.0 among its nonzeros (NaN and Inf kept in separate rows so
/// every NaN a row produces has one payload).
sparse::CsrMatrix conv_weights(std::size_t rows, std::size_t cols,
                               std::uint64_t seed, bool specials) {
  nn::Parameter w("w", tensor::Shape({rows, cols}), true);
  w.value = random_tensor(tensor::Shape({rows, cols}), seed);
  std::vector<std::size_t> active;
  util::Rng rng(seed + 1);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    if (rng.uniform() < 0.4) active.push_back(i);
  }
  if (specials) {
    const float inf = std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t row = c % 3;
      if (row >= rows || c % 2 != 0) continue;
      const std::size_t i = row * cols + c;
      w.value[i] = row == 0 ? (c % 4 == 0 ? inf : -inf)
                   : row == 1 ? std::numeric_limits<float>::quiet_NaN()
                              : -0.0f;
      active.push_back(i);
    }
  }
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  sparse::MaskedParameter mp(
      w, sparse::Mask::from_indices(tensor::Shape({rows, cols}), active), 0);
  return sparse::CsrMatrix::from_masked(mp);
}

/// Unit-normal image batch with every 5th element set to −0.0.
tensor::Tensor conv_input(const tensor::Shape& shape, std::uint64_t seed) {
  tensor::Tensor x = random_tensor(shape, seed);
  for (std::size_t i = 0; i < x.numel(); i += 5) x[i] = -0.0f;
  return x;
}

/// The reference: per image, scalar im2col then scalar spmm_cols_into.
/// `ep.residual` (when set) is the whole [N, rows, OH·OW] residual.
template <typename Slice>
std::vector<float> im2col_reference(const Slice& w, const tensor::Tensor& x,
                                    const tensor::ConvGeometry& g,
                                    const Epilogue& ep) {
  const std::size_t positions = g.out_h() * g.out_w();
  const std::size_t block = w.rows() * positions;
  const std::size_t image = g.in_channels * g.in_h * g.in_w;
  std::vector<float> cols(g.patch_size() * positions);
  std::vector<float> out(x.dim(0) * block);
  for (std::size_t n = 0; n < x.dim(0); ++n) {
    tensor::im2col(x.raw() + n * image, g, cols.data());
    Epilogue e = ep;
    if (e.residual != nullptr) e.residual += n * block;
    w.spmm_cols_into(cols.data(), positions, out.data() + n * block, e,
                     &kernels::simd::scalar_backend());
  }
  return out;
}

/// The same through the direct conv on one backend.
template <typename Slice>
std::vector<float> direct(const Slice& w, const tensor::Tensor& x,
                          const tensor::ConvGeometry& g, const Epilogue& ep,
                          const KernelBackend* backend) {
  const kernels::SparseConvInput input(g);
  const std::size_t positions = g.out_h() * g.out_w();
  const std::size_t block = w.rows() * positions;
  const std::size_t image = g.in_channels * g.in_h * g.in_w;
  std::vector<float> xpad(input.scratch_size(), 0.0f);
  std::vector<float> out(x.dim(0) * block);
  for (std::size_t n = 0; n < x.dim(0); ++n) {
    input.pad(x.raw() + n * image, xpad.data());
    Epilogue e = ep;
    if (e.residual != nullptr) e.residual += n * block;
    w.conv_into(input.view(xpad.data()), out.data() + n * block, e, backend);
  }
  return out;
}

TEST(SparseConv, EveryBackendMatchesIm2colSpmmAcrossShapes) {
  const std::vector<std::size_t> sizes{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 32};
  const std::size_t rows = 5;
  std::size_t index = 0;
  // Stride 3 takes the AVX2 backend's scalar fallback (and, at k = 1,
  // the sampled scratch at unit stride).
  for (const std::size_t k : {1u, 3u, 5u}) {
    for (const std::size_t s : {1u, 2u, 3u}) {
      for (const std::size_t p : {0u, 1u, 2u}) {
        for (const std::size_t w : sizes) {
          for (const std::size_t cin : {1u, 3u, 16u}) {
            // Width runs the whole list; height and the epilogue rotate.
            const std::size_t h = sizes[(index * 7) % sizes.size()];
            ++index;
            if (w + 2 * p < k || h + 2 * p < k) continue;
            const auto g = tensor::ConvGeometry::square(cin, k, s, p, h, w);
            const std::size_t batch = (index / 6) % 2 == 0 ? 1 : 3;
            const auto x = conv_input(tensor::Shape({batch, cin, h, w}),
                                      900 + index);
            const auto fp32 =
                conv_weights(rows, g.patch_size(), 1000 + index, true);
            const auto int8 = sparse::QCsrMatrix::quantize(
                conv_weights(rows, g.patch_size(), 2000 + index, false));
            const auto bias = random_tensor(tensor::Shape({rows}), index);
            const auto residual = random_tensor(
                tensor::Shape({batch, rows, g.out_h() * g.out_w()}), index);
            Epilogue ep;
            switch (index % 6) {
              case 0:
                break;
              case 1:
                ep.bias = bias.raw();
                break;
              case 2:
                ep.bias = bias.raw();
                ep.residual = residual.raw();
                break;
              case 3:
                ep.bias = bias.raw();
                ep.has_act = true;
                ep.act = ActKind::kRelu;
                break;
              case 4:
                ep.residual = residual.raw();
                ep.has_act = true;
                ep.act = ActKind::kLeakyRelu;
                break;
              default:
                ep.bias = bias.raw();
                ep.residual = residual.raw();
                ep.has_act = true;
                ep.act = ActKind::kSigmoid;
                break;
            }
            const auto ref32 =
                im2col_reference(fp32.row_slice(0, rows), x, g, ep);
            const auto ref8 =
                im2col_reference(int8.row_slice(0, rows), x, g, ep);
            for (const KernelBackend* be : all_backends()) {
              EXPECT_TRUE(
                  same_bits(direct(fp32.row_slice(0, rows), x, g, ep, be),
                            ref32))
                  << be->name << " conv k" << k << " s" << s << " p" << p
                  << " " << h << "x" << w << " cin " << cin << " batch "
                  << batch << " epilogue " << index % 6;
              EXPECT_TRUE(
                  same_bits(direct(int8.row_slice(0, rows), x, g, ep, be),
                            ref8))
                  << be->name << " qconv k" << k << " s" << s << " p" << p
                  << " " << h << "x" << w << " cin " << cin << " batch "
                  << batch << " epilogue " << index % 6;
            }
          }
        }
      }
    }
  }
}

TEST(SparseConv, SpecialWeightsReachTheOutput) {
  // The shape sweep's specials are live: an Inf weight on a padding tap
  // yields NaN (Inf·0), so a row of Inf weights over a padded image holds
  // NaN outputs that skipping the tap would turn into ±Inf or finite.
  const auto g = tensor::ConvGeometry::square(3, 3, 1, 1, 6, 6);
  const auto w = conv_weights(3, g.patch_size(), 77, true);
  const auto x = conv_input(tensor::Shape({1, 3, 6, 6}), 78);
  const auto y = im2col_reference(w.row_slice(0, 3), x, g, {});
  std::size_t nan_in_inf_row = 0;
  for (std::size_t j = 0; j < 36; ++j) {
    nan_in_inf_row += std::isnan(y[j]) ? 1 : 0;
  }
  EXPECT_GT(nan_in_inf_row, 0u);
  EXPECT_TRUE(std::isnan(y[36]));  // the NaN row
}

TEST(SparseConv, PaddedImageOffsetsFailInsteadOfWrapping) {
  // 70002² padded floats per channel exceed the 32-bit tap index range;
  // the check fires before any scratch is allocated.
  EXPECT_THROW(kernels::SparseConvInput(
                   tensor::ConvGeometry::square(1, 3, 1, 1, 70000, 70000)),
               util::CheckError);
  EXPECT_THROW(kernels::SparseConvInput(
                   tensor::ConvGeometry::square(300, 3, 1, 0, 4000, 4000)),
               util::CheckError);
  // 65535² + slack still fits.
  EXPECT_NO_THROW(kernels::SparseConvInput(
      tensor::ConvGeometry::square(1, 1, 1, 0, 65535, 65535)));
  // A kernel larger than the padded image is rejected, not underflowed.
  EXPECT_THROW(tensor::ConvGeometry::square(1, 5, 1, 1, 2, 2),
               util::CheckError);
}

/// A one-conv plan: k×k, stride s, 'same' padding, cin → cout, with a
/// bias and — when the output matches the input — a fused residual of the
/// input itself and the given activation.
serve::Plan one_conv_plan(const sparse::CsrMatrix& w, std::size_t cin,
                          std::size_t k, std::size_t s, bool quantize,
                          const tensor::Tensor& bias, bool residual,
                          ActKind act) {
  serve::Plan plan;
  plan.ops.resize(1);
  serve::PlanOp& op = plan.ops[0];
  op.kind = serve::PlanOpKind::kConv;
  op.inputs = {serve::Plan::kInputId};
  if (residual) op.inputs.push_back(serve::Plan::kInputId);
  if (quantize) {
    op.qcsr = std::make_shared<sparse::QCsrMatrix>(
        sparse::QCsrMatrix::quantize(w));
  } else {
    op.csr = std::make_shared<sparse::CsrMatrix>(w);
  }
  op.in_channels = cin;
  op.kernel = k;
  op.stride = s;
  op.padding = (k - 1) / 2;
  op.bias = bias;
  op.has_bias = true;
  op.epilogue.add_residual = residual;
  op.epilogue.has_act = true;
  op.epilogue.act = act;
  return plan;
}

TEST(SparseConv, CsrOpWholeAndPartitionedMatchIm2colSpmm) {
  // Through the serve CSR op: a bound kConv node (its batch split over two
  // pool chunks) and its 2- and 4-way PartitionRows slices all equal the
  // im2col reference, fp32 and int8, on every backend.
  runtime::Pool pool(2);
  const runtime::IntraOp intra{2, &pool};
  const std::size_t c = 8;
  for (const std::size_t k : {1u, 3u, 5u}) {
    for (const std::size_t s : {1u, 2u}) {
      for (const bool quantize : {false, true}) {
        const bool residual = s == 1;
        const auto w = conv_weights(c, c * k * k, 40 + k * s, false);
        const auto bias = random_tensor(tensor::Shape({c}), 41 + k);
        const ActKind act = residual ? ActKind::kLeakyRelu : ActKind::kRelu;
        const auto g = tensor::ConvGeometry::square(c, k, s, (k - 1) / 2, 9,
                                                    13);
        for (const std::size_t batch : {1u, 3u}) {
          const auto x =
              conv_input(tensor::Shape({batch, c, 9, 13}), 42 + batch);
          Epilogue ep;
          ep.bias = bias.raw();
          ep.residual = residual ? x.raw() : nullptr;
          ep.has_act = true;
          ep.act = act;
          const auto ref =
              quantize ? im2col_reference(
                             sparse::QCsrMatrix::quantize(w).row_slice(0, c),
                             x, g, ep)
                       : im2col_reference(w.row_slice(0, c), x, g, ep);
          for (const KernelBackend* be : all_backends()) {
            for (const std::size_t ways : {1u, 2u, 4u}) {
              serve::Plan plan =
                  one_conv_plan(w, c, k, s, quantize, bias, residual, act);
              if (ways > 1) {
                serve::PartitionRowsOptions popts;
                popts.ways = ways;
                popts.min_cost_share = 0.0;
                serve::PartitionRows(popts).run(plan);
                ASSERT_EQ(plan.partitioned_ops, 1u);
              }
              const auto exec =
                  serve::Executor::bind(std::move(plan), intra, be);
              const tensor::Tensor y = exec.forward(x);
              EXPECT_EQ(y.numel(), ref.size());
              EXPECT_EQ(0, std::memcmp(y.raw(), ref.data(),
                                       ref.size() * sizeof(float)))
                  << be->name << " k" << k << " s" << s << " ways " << ways
                  << (quantize ? " int8" : " fp32") << " batch " << batch;
            }
          }
        }
      }
    }
  }
}

TEST(SparseConv, BoundConvNetMatchesIm2colSpmmLayerByLayer) {
  // A whole bound conv chain — fused bias/ReLU, a residual-fused LeakyReLU
  // conv, a stride-2 sigmoid conv, a 1×1 residual conv and a 5×5 head over
  // 13×13 → 7×7 maps — equals the im2col reference evaluated node by
  // node, for every backend, fp32 and int8, whole and 2-way partitioned.
  struct Layer {
    std::size_t cin, cout, k, s, residual_from;  // residual_from 0 = none
    bool bias;
    bool act;
    ActKind kind;
  };
  const std::vector<Layer> layers{
      {3, 8, 3, 1, 0, true, true, ActKind::kRelu},
      {8, 8, 3, 1, 1, true, true, ActKind::kLeakyRelu},
      {8, 16, 3, 2, 0, false, true, ActKind::kSigmoid},
      {16, 16, 1, 1, 3, true, true, ActKind::kRelu},
      {16, 4, 5, 1, 0, true, false, ActKind::kRelu},
  };
  serve::Plan base;
  std::vector<sparse::CsrMatrix> weights;
  std::vector<tensor::Tensor> biases;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const Layer& l = layers[i];
    weights.push_back(conv_weights(l.cout, l.cin * l.k * l.k, 60 + i, false));
    biases.push_back(random_tensor(tensor::Shape({l.cout}), 70 + i));
    serve::PlanOp op;
    op.kind = serve::PlanOpKind::kConv;
    op.inputs = {i == 0 ? serve::Plan::kInputId : i - 1};
    if (l.residual_from != 0) op.inputs.push_back(l.residual_from - 1);
    op.csr = std::make_shared<sparse::CsrMatrix>(weights.back());
    op.in_channels = l.cin;
    op.kernel = l.k;
    op.stride = l.s;
    op.padding = (l.k - 1) / 2;
    op.bias = biases.back();
    op.has_bias = l.bias;
    op.epilogue.add_residual = l.residual_from != 0;
    op.epilogue.has_act = l.act;
    op.epilogue.act = l.kind;
    base.ops.push_back(std::move(op));
  }

  const auto x = conv_input(tensor::Shape({3, 3, 13, 13}), 80);
  for (const bool quantize : {false, true}) {
    // Reference: node by node through im2col + scalar spmm_cols_into.
    std::vector<tensor::Tensor> values;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const Layer& l = layers[i];
      const tensor::Tensor& in = i == 0 ? x : values[i - 1];
      const auto g = tensor::ConvGeometry::square(
          l.cin, l.k, l.s, (l.k - 1) / 2, in.dim(2), in.dim(3));
      Epilogue ep;
      if (l.bias) ep.bias = biases[i].raw();
      if (l.residual_from != 0) ep.residual = values[l.residual_from - 1].raw();
      ep.has_act = l.act;
      ep.act = l.kind;
      const auto out =
          quantize
              ? im2col_reference(sparse::QCsrMatrix::quantize(weights[i])
                                     .row_slice(0, l.cout),
                                 in, g, ep)
              : im2col_reference(weights[i].row_slice(0, l.cout), in, g, ep);
      tensor::Tensor t({in.dim(0), l.cout, g.out_h(), g.out_w()});
      std::memcpy(t.raw(), out.data(), out.size() * sizeof(float));
      values.push_back(std::move(t));
    }
    for (const KernelBackend* be : all_backends()) {
      for (const std::size_t ways : {1u, 2u}) {
        serve::Plan plan = base;
        if (quantize) serve::QuantizeWeights().run(plan);
        if (ways > 1) {
          serve::PartitionRowsOptions popts;
          popts.ways = ways;
          popts.min_cost_share = 0.0;
          serve::PartitionRows(popts).run(plan);
          ASSERT_EQ(plan.partitioned_ops, layers.size());
        }
        const auto exec = serve::Executor::bind(std::move(plan), {}, be);
        EXPECT_TRUE(same_bits(exec.forward(x), values.back()))
            << be->name << (quantize ? " int8" : " fp32") << " ways "
            << ways;
      }
    }
  }
}

}  // namespace
}  // namespace dstee
