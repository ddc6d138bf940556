// Direct sparse convolution: every backend's conv/qconv kernel — on its
// own, through the serve CSR op (whole and row-partitioned) and through a
// whole bound conv net — must be BIT-identical (memcmp) to the scalar
// tensor::im2col + spmm_cols_into lowering. Shapes cover every vector
// width tail, strides 1–3 and kernel sizes 1/3/5; weights carry ±Inf, NaN
// and −0.0 and inputs −0.0, so a padding tap that is skipped instead of
// multiplied by 0.0f (Inf·0 = NaN) shows up as a mismatch. The Executor
// tests hold a bound plan's own execution rules to the same memcmp: an op
// writing over a last-use operand, and a batch run as tiles.
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

/// Binds `plan` once as is and once without its release lists, which
/// keeps every value live and so donates nothing, and checks that both
/// answer every input with the same bits, at 1 and 2 intra-op chunks.
void expect_donation_bit_identical(const serve::Plan& plan,
                                   const std::vector<tensor::Tensor>& inputs,
                                   const KernelBackend* be,
                                   const std::string& what) {
  serve::Plan kept = plan;
  kept.release_after.clear();
  const auto reference = serve::Executor::bind(std::move(kept), {}, be);
  std::vector<tensor::Tensor> expected;
  for (const tensor::Tensor& x : inputs) {
    expected.push_back(reference.forward(x));
  }
  for (const std::size_t chunks : {1u, 2u}) {
    runtime::IntraOp intra;
    intra.threads = chunks;
    serve::Plan donating = plan;
    const auto exec = serve::Executor::bind(std::move(donating), intra, be);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_TRUE(same_bits(exec.forward(inputs[i]), expected[i]))
          << what << " " << be->name << " batch " << inputs[i].dim(0)
          << " intra-op " << chunks;
    }
  }
}

TEST(Executor, LastUseDonationIsBitIdentical) {
  const std::size_t kNo = serve::Plan::kNoDonor;
  // A stride-1 conv chain over 13×13 maps that offers every donation
  // case: a conv whose input is also its residual (never donates), an
  // activation and an add writing over a last-use operand, a conv taking
  // its image's buffer, a stride-2 conv whose output is smaller (offered,
  // declined at run time) and an add of one value to itself (never).
  struct Node {
    serve::PlanOpKind kind;
    std::vector<std::size_t> inputs;
    std::size_t cin = 0, cout = 0, k = 0, s = 1;
    ActKind act = ActKind::kRelu;
  };
  const std::size_t in = serve::Plan::kInputId;
  const auto conv = serve::PlanOpKind::kConv;
  const auto act = serve::PlanOpKind::kActivation;
  const auto add = serve::PlanOpKind::kAdd;
  const std::vector<Node> nodes{
      {conv, {in}, 3, 8, 3, 1},
      {conv, {0, 0}, 8, 8, 3, 1, ActKind::kRelu},  // input == residual
      {act, {1}, 0, 0, 0, 1, ActKind::kLeakyRelu},
      {conv, {2}, 8, 8, 3, 1},
      {add, {3, 2}},
      {conv, {4}, 8, 8, 3, 1},
      {conv, {5}, 8, 8, 3, 2},
      {add, {6, 6}},
      {act, {7}, 0, 0, 0, 1, ActKind::kSigmoid},
  };
  serve::Plan chain;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    serve::PlanOp op;
    op.kind = n.kind;
    op.inputs = n.inputs;
    if (n.kind == conv) {
      op.csr = std::make_shared<sparse::CsrMatrix>(
          conv_weights(n.cout, n.cin * n.k * n.k, 90 + i, false));
      op.in_channels = n.cin;
      op.kernel = n.k;
      op.stride = n.s;
      op.padding = (n.k - 1) / 2;
      op.bias = random_tensor(tensor::Shape({n.cout}), 100 + i);
      op.has_bias = true;
      op.epilogue.add_residual = n.inputs.size() == 2;
      op.epilogue.has_act = n.inputs.size() == 2;
      op.epilogue.act = n.act;
    } else if (n.kind == act) {
      op.act = n.act;
      op.slope = 0.1f;
    } else {
      op.relu_after_add = true;
    }
    chain.ops.push_back(std::move(op));
  }
  serve::FreeAfterLastUse().run(chain);
  EXPECT_EQ(chain.donor_slots(), (std::vector<std::size_t>{
                                     kNo, kNo, 0, kNo, 0, 0, 0, kNo, 0}));
  std::vector<tensor::Tensor> chain_inputs;
  for (const std::size_t batch : {1u, 3u, 16u}) {
    chain_inputs.push_back(
        conv_input(tensor::Shape({batch, 3, 13, 13}), 110 + batch));
  }

  // ResNet-18 at the repo benchmark's shape, under the pipelines its
  // probes bind: default passes, int8 weights, and partition-rows:2.
  testing::SparseResNet18 net = testing::bench_resnet18(1);
  std::vector<tensor::Tensor> resnet_inputs;
  for (const std::size_t batch : {1u, 3u, 16u}) {
    resnet_inputs.push_back(
        random_tensor(tensor::Shape({batch, 3, 32, 32}), 120 + batch));
  }
  serve::CompileOptions copts;
  copts.sample_shape = tensor::Shape({3, 32, 32});

  for (const bool quantize : {false, true}) {
    for (const bool partition : {false, true}) {
      std::string spec = "elide-dropout,fold-bn";
      if (quantize) spec += ",quantize:int8";
      if (partition) spec += ",partition-rows:2";
      spec += ",free-after-last-use";
      serve::Compiler compiler(copts);
      compiler.pipeline_from_spec(spec);
      const serve::Plan resnet = compiler.plan(*net.model, net.state.get());
      if (!partition) {
        const std::vector<std::size_t> donors = resnet.donor_slots();
        EXPECT_GT(std::count_if(donors.begin(), donors.end(),
                                [&](std::size_t d) { return d != kNo; }),
                  0)
            << spec;
      }

      serve::Plan small = chain;
      if (quantize) serve::QuantizeWeights().run(small);
      if (partition) {
        serve::PartitionRowsOptions popts;
        popts.ways = 2;
        popts.min_cost_share = 0.0;
        serve::PartitionRows(popts).run(small);
        ASSERT_GT(small.partitioned_ops, 0u);
      }
      serve::FreeAfterLastUse().run(small);

      for (const KernelBackend* be : all_backends()) {
        expect_donation_bit_identical(small, chain_inputs, be,
                                      "conv chain " + spec);
        expect_donation_bit_identical(resnet, resnet_inputs, be,
                                      "resnet18 " + spec);
      }
    }
  }
}

TEST(Executor, TiledForwardIsBitIdenticalToOneSampleAtATime) {
  // Batches above Plan::kForwardTile run as equal tiles; every op
  // computes each sample on its own, so each row of a tiled forward
  // equals that sample forwarded alone.
  EXPECT_EQ(serve::Plan::forward_tile(0), 0u);
  EXPECT_EQ(serve::Plan::forward_tile(1), 1u);
  EXPECT_EQ(serve::Plan::forward_tile(8), 8u);
  EXPECT_EQ(serve::Plan::forward_tile(9), 5u);
  EXPECT_EQ(serve::Plan::forward_tile(16), 8u);
  EXPECT_EQ(serve::Plan::forward_tile(17), 6u);

  testing::SparseResNet18 net = testing::bench_resnet18(2);
  const serve::Plan plan = serve::Compiler().plan(*net.model, net.state.get());
  for (const KernelBackend* be : all_backends()) {
    serve::Plan copy = plan;
    const auto exec = serve::Executor::bind(std::move(copy), {}, be);
    for (const std::size_t batch : {9u, 16u}) {
      const tensor::Tensor x =
          random_tensor(tensor::Shape({batch, 3, 32, 32}), 130 + batch);
      const tensor::Tensor y = exec.forward(x);
      ASSERT_EQ(y.shape(), tensor::Shape({batch, 10}));
      const std::size_t image = 3 * 32 * 32;
      for (std::size_t n = 0; n < batch; ++n) {
        tensor::Tensor one(tensor::Shape({1, 3, 32, 32}));
        std::memcpy(one.raw(), x.raw() + n * image, image * sizeof(float));
        const tensor::Tensor row = exec.forward(one);
        EXPECT_EQ(0, std::memcmp(row.raw(), y.raw() + n * 10,
                                 10 * sizeof(float)))
            << be->name << " batch " << batch << " sample " << n;
      }
    }
  }
}

}  // namespace
}  // namespace dstee
