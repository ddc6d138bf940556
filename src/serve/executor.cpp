#include "serve/executor.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "kernels/epilogue.hpp"
#include "kernels/pool.hpp"
#include "kernels/sparse_conv.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "sparse/flops.hpp"
#include "tensor/conv_geometry.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace dstee::serve {

std::shared_ptr<const sparse::CsrMatrix> CloneContext::dup(
    const std::shared_ptr<const sparse::CsrMatrix>& csr) {
  if (share_ != nullptr && share_->count(csr.get()) > 0) return csr;
  auto it = copies_.find(csr.get());
  if (it == copies_.end()) {
    it = copies_.emplace(csr.get(),
                         std::make_shared<const sparse::CsrMatrix>(*csr))
             .first;
  }
  return it->second;
}

std::shared_ptr<const sparse::QCsrMatrix> CloneContext::dup(
    const std::shared_ptr<const sparse::QCsrMatrix>& qcsr) {
  if (share_ != nullptr && share_->count(qcsr.get()) > 0) return qcsr;
  auto it = qcopies_.find(qcsr.get());
  if (it == qcopies_.end()) {
    it = qcopies_.emplace(qcsr.get(),
                          std::make_shared<const sparse::QCsrMatrix>(*qcsr))
             .first;
  }
  return it->second;
}

tensor::Tensor EvalOp::run(const tensor::Tensor& x) const {
  (void)x;
  util::fail("EvalOp: unary run() on an op of arity " +
             std::to_string(arity()));
}

tensor::Tensor EvalOp::run2(const tensor::Tensor& a,
                            const tensor::Tensor& b) const {
  (void)a;
  (void)b;
  util::fail("EvalOp: binary run2() on an op of arity " +
             std::to_string(arity()));
}

tensor::Tensor EvalOp::run_many(
    const std::vector<const tensor::Tensor*>& xs) const {
  (void)xs;
  util::fail("EvalOp: run_many() on an op of arity " +
             std::to_string(arity()));
}

bool EvalOp::run_in_place(tensor::Tensor& io, const tensor::Tensor* other,
                          std::size_t slot) const {
  (void)io;
  (void)other;
  (void)slot;
  return false;
}

namespace {

/// The one CSR op: output rows [row_begin, row_end) of a CSR weight
/// matrix, finished in the kernel's output loop by the bias and the
/// FuseEpilogue annotation (folding and fusion both happen at the plan
/// level, before binding — see serve::FoldBatchNorm / serve::FuseEpilogue).
///
/// A whole kSpmm/kConv node is the full range [0, rows); a kRowSlice of
/// a PartitionRows group is a sub-range viewing the shared parent
/// zero-copy, with its bias sliced at the plan level. The input layout is
/// fixed at bind time from the plan node:
///   kFeatures  [N, cols]: kSpmm, or a linear kRowSlice.
///   kImage     [N, Cin, H, W]: kConv or a conv kRowSlice — the direct
///              sparse conv (kernels/sparse_conv.hpp). Each chunk of the
///              batch (split across the bound IntraOp) pads its images
///              into one scratch and reads every tap from it; the tap
///              table is built once per call and shared by the chunks.
///              The CSR matrix is the masked weight viewed as [Cout,
///              Cin·K·K] — the lowering nn::Conv2d uses densely, so a
///              masked checkpoint deploys its topology bit-for-bit.
/// A fused residual always has the FULL output shape (every row of the
/// matrix); the op adds its own row range of it.
///
/// Templated over the weight type: M is sparse::CsrMatrix (fp32) or
/// sparse::QCsrMatrix (int8 + per-row scales, from QuantizeWeights). The
/// two expose the same kernel surface, so one op body serves both; FLOPs
/// stay nnz-based either way (quantization moves bytes, not operation
/// counts). The op also pins the kernel backend chosen at bind time
/// (nullptr = defer each call to the process-wide active backend).
template <typename M>
class CsrOp final : public EvalOp {
 public:
  static constexpr bool kQuantized = std::is_same_v<M, sparse::QCsrMatrix>;

  CsrOp(std::shared_ptr<const M> csr, PlanOp& op,
        const runtime::IntraOp& intra,
        const kernels::simd::KernelBackend* backend)
      : csr_(std::move(csr)),
        row_begin_(op.kind == PlanOpKind::kRowSlice ? op.row_begin : 0),
        row_end_(op.kind == PlanOpKind::kRowSlice ? op.row_end
                                                  : csr_->rows()),
        conv_(op.is_conv()),
        in_channels_(op.in_channels),
        kernel_(op.kernel),
        stride_(op.stride),
        padding_(op.padding),
        bias_(std::move(op.bias)),
        has_bias_(op.has_bias),
        folded_bn_(op.folded_bn),
        pe_(op.epilogue),
        // Slices run their kernels inline: the partition group fan-out IS
        // the parallelism.
        intra_(op.kind == PlanOpKind::kRowSlice ? runtime::IntraOp{} : intra),
        backend_(backend) {
    // The direct conv indexes its tap table by weight column.
    util::check(!conv_ || csr_->cols() == in_channels_ * kernel_ * kernel_,
                "spconv weight columns must be Cin*K*K");
  }

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    auto copy = std::make_unique<CsrOp>(*this);
    copy->csr_ = ctx.dup(csr_);
    return copy;
  }

  /// A residual-fused CSR op consumes the residual as its second input.
  std::size_t arity() const override { return pe_.add_residual ? 2 : 1; }

  tensor::Tensor run(const tensor::Tensor& x) const override {
    return run_impl(x, nullptr);
  }

  tensor::Tensor run2(const tensor::Tensor& x,
                      const tensor::Tensor& residual) const override {
    return run_impl(x, &residual);
  }

  /// A whole conv writes over its image when an output image is exactly
  /// an input image's size: each chunk copies image n into its padded
  /// scratch before it writes output image n over the same bytes.
  bool run_in_place(tensor::Tensor& io, const tensor::Tensor* other,
                    std::size_t slot) const override {
    if (!conv_ || slot != 0) return false;
    const float* res = check_operands(io, other);
    const tensor::Shape out = out_shape(io.shape());
    if (out.numel() != io.numel()) return false;
    conv_images(io, res, io.raw());
    io.reshape_in_place(out);
    return true;
  }

  std::string describe() const override {
    const bool whole = row_begin_ == 0 && row_end_ == csr_->rows();
    const auto slice = csr_->row_slice(row_begin_, row_end_);
    std::string out;
    if (whole && conv_) {
      out = "spconv(" + std::to_string(in_channels_) + "->" +
            std::to_string(csr_->rows()) + ", k" + std::to_string(kernel_) +
            ", s" + std::to_string(stride_) + ", p" +
            std::to_string(padding_) + ", ";
    } else if (whole) {
      out = "spmm(" + std::to_string(csr_->rows()) + "x" +
            std::to_string(csr_->cols()) + ", ";
    } else {
      out = "row_slice(" + std::to_string(row_begin_) + ":" +
            std::to_string(row_end_) + " of " +
            std::to_string(csr_->rows()) + ", ";
      if (conv_) out += "conv, ";
    }
    out += "nnz=" + std::to_string(slice.nnz());
    if (whole) {
      out += ", density=" + util::format_fixed(csr_->density() * 100.0, 1) +
             "%";
    }
    if (kQuantized) out += ", int8";
    if (folded_bn_) out += ", +bn";
    append_fused(out, pe_);
    return out + ")";
  }

  tensor::Shape out_shape(const tensor::Shape& in) const override {
    return shape_for(in, row_end_ - row_begin_);
  }

  double flops(const tensor::Shape& in) const override {
    return cost(in, csr_->row_slice(row_begin_, row_end_).nnz());
  }

  double dense_flops(const tensor::Shape& in) const override {
    return cost(in, (row_end_ - row_begin_) * csr_->cols());
  }

 private:
  tensor::ConvGeometry geometry(const tensor::Shape& in) const {
    return tensor::ConvGeometry::square(in_channels_, kernel_, stride_,
                                        padding_, in.dim(2), in.dim(3));
  }

  /// Output shape for input shape `in` with `rows` output rows (channels).
  tensor::Shape shape_for(const tensor::Shape& in, std::size_t rows) const {
    if (!conv_) return tensor::Shape({in.dim(0), rows});
    const tensor::ConvGeometry g = geometry(in);
    return tensor::Shape({in.dim(0), rows, g.out_h(), g.out_w()});
  }

  /// FLOPs of `weights` multiply-accumulates per output position (one
  /// per sample for features), plus one op per output element for each
  /// fused epilogue stage — mirroring Plan::annotate.
  double cost(const tensor::Shape& in, std::size_t weights) const {
    const tensor::Shape out = out_shape(in);
    const bool spatial = out.rank() == 4;
    double ep_per_elem = 0.0;
    if (pe_.add_residual) ep_per_elem += 1.0;
    if (pe_.has_act) ep_per_elem += 1.0;
    return sparse::conv_nnz_flops(weights, spatial ? out.dim(2) : 1,
                                  spatial ? out.dim(3) : 1, out.dim(0)) +
           ep_per_elem * static_cast<double>(out.numel());
  }

  kernels::Epilogue make_ep(const float* residual,
                            std::size_t residual_stride) const {
    kernels::Epilogue ep;
    if (has_bias_) ep.bias = bias_.raw();
    ep.residual = residual;
    ep.residual_stride = residual_stride;
    ep.has_act = pe_.has_act;
    ep.act = pe_.act;
    ep.slope = pe_.slope;
    return ep;
  }

  /// Request tensors come from outside the program: checks the input
  /// layout and the whole residual shape before any kernel reads them,
  /// and returns the residual's data (null without one).
  const float* check_operands(const tensor::Tensor& x,
                              const tensor::Tensor* residual) const {
    if (conv_) {
      util::check(x.rank() == 4 && x.dim(1) == in_channels_,
                  "spconv expects [N, " + std::to_string(in_channels_) +
                      ", H, W], got " + x.shape().to_string());
    } else {
      util::check(x.rank() == 2 && x.dim(1) == csr_->cols(),
                  "spmm expects [N, " + std::to_string(csr_->cols()) +
                      "], got " + x.shape().to_string());
    }
    const float* res = nullptr;
    if (residual != nullptr) {
      const tensor::Shape full = shape_for(x.shape(), csr_->rows());
      util::check(residual->shape() == full,
                  "fused residual shape mismatch: expected " +
                      full.to_string() + ", got " +
                      residual->shape().to_string());
      res = residual->raw();
    }
    return res;
  }

  tensor::Tensor run_impl(const tensor::Tensor& x,
                          const tensor::Tensor* residual) const {
    const float* res = check_operands(x, residual);
    if (!conv_) {
      const auto slice = csr_->row_slice(row_begin_, row_end_);
      // Pre-offset the residual to this row range; its per-sample stride
      // stays the full output width.
      return slice.spmm(
          x, intra_,
          make_ep(res != nullptr ? res + row_begin_ : nullptr,
                  res != nullptr ? csr_->rows() : 0),
          backend_);
    }
    tensor::Tensor y(out_shape(x.shape()));
    conv_images(x, res, y.raw());
    return y;
  }

  /// The direct conv of images `x` into `y` (out_shape(x.shape())), which
  /// may alias x when an output image is an input image's size.
  void conv_images(const tensor::Tensor& x, const float* res, float* y) const {
    const auto slice = csr_->row_slice(row_begin_, row_end_);
    const tensor::ConvGeometry g = geometry(x.shape());
    const std::size_t batch = x.dim(0);
    const std::size_t positions = g.out_h() * g.out_w();
    const std::size_t in_elems = x.dim(1) * x.dim(2) * x.dim(3);
    const float* xs = x.raw();
    const kernels::SparseConvInput input(g);
    // Images are independent, so splitting the batch gives every output
    // element exactly one writer and the result is bit-identical for any
    // chunk count. A single image always runs inline (PartitionRows is
    // the row-level alternative for batch-1 latency).
    runtime::intra_chunks(intra_, batch, [&](std::size_t n0, std::size_t n1) {
      // One zeroed padded-image scratch per chunk keeps run() const and
      // thread-safe; pad() rewrites only its interior per image.
      std::vector<float> xpad(input.scratch_size(), 0.0f);
      for (std::size_t n = n0; n < n1; ++n) {
        input.pad(xs + n * in_elems, xpad.data());
        // This row range's channel block of the sample's full residual.
        const float* r =
            res != nullptr
                ? res + (n * csr_->rows() + row_begin_) * positions
                : nullptr;
        slice.conv_into(input.view(xpad.data()),
                        y + n * slice.rows() * positions, make_ep(r, 0),
                        backend_);
      }
    });
  }

  std::shared_ptr<const M> csr_;
  std::size_t row_begin_;
  std::size_t row_end_;
  bool conv_;  ///< kImage layout (else kFeatures)
  std::size_t in_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;
  tensor::Tensor bias_;
  bool has_bias_;
  bool folded_bn_;
  PlanEpilogue pe_;
  runtime::IntraOp intra_;
  const kernels::simd::KernelBackend* backend_;
};

/// Joins partition slices along axis 1 (features / channels): the slices
/// of one group produce contiguous row ranges, so the join is a straight
/// block copy per sample.
class ConcatChannelsOp final : public EvalOp {
 public:
  explicit ConcatChannelsOp(std::size_t total_channels)
      : total_channels_(total_channels) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<ConcatChannelsOp>(*this);
  }

  std::size_t arity() const override { return 0; }  // variadic

  tensor::Tensor run2(const tensor::Tensor& a,
                      const tensor::Tensor& b) const override {
    return run_many({&a, &b});
  }

  tensor::Tensor run_many(
      const std::vector<const tensor::Tensor*>& xs) const override {
    util::check(xs.size() >= 2, "concat needs >= 2 inputs");
    const tensor::Tensor& first = *xs.front();
    const std::size_t batch = first.dim(0);
    const std::size_t spatial =
        first.rank() == 4 ? first.dim(2) * first.dim(3) : 1;
    std::size_t channels = 0;
    for (const tensor::Tensor* x : xs) {
      util::check(x->rank() == first.rank() && x->dim(0) == batch,
                  "concat inputs disagree on batch/rank");
      channels += x->dim(1);
    }
    util::check(channels == total_channels_,
                "concat produced " + std::to_string(channels) +
                    " channels, expected " +
                    std::to_string(total_channels_));
    tensor::Tensor y(first.rank() == 4
                         ? tensor::Shape({batch, channels, first.dim(2),
                                          first.dim(3)})
                         : tensor::Shape({batch, channels}));
    for (std::size_t n = 0; n < batch; ++n) {
      float* dst = y.raw() + n * channels * spatial;
      for (const tensor::Tensor* x : xs) {
        const std::size_t block = x->dim(1) * spatial;
        const float* src = x->raw() + n * block;
        for (std::size_t i = 0; i < block; ++i) dst[i] = src[i];
        dst += block;
      }
    }
    return y;
  }

  std::string describe() const override {
    return "concat(" + std::to_string(total_channels_) + ")";
  }

  tensor::Shape out_shape(const tensor::Shape& in) const override {
    std::vector<std::size_t> dims = in.dims();
    dims[1] = total_channels_;
    return tensor::Shape(dims);
  }

 private:
  std::size_t total_channels_;
};

/// Residual join: y = a + b, optionally through ReLU — the lowering of
/// models::ResidualBlock's add-then-activate tail.
class AddOp final : public EvalOp {
 public:
  AddOp(bool relu, runtime::IntraOp intra,
        const kernels::simd::KernelBackend* backend)
      : relu_(relu), intra_(intra), backend_(backend) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<AddOp>(*this);
  }

  std::size_t arity() const override { return 2; }

  tensor::Tensor run2(const tensor::Tensor& a,
                      const tensor::Tensor& b) const override {
    check_branches(a, b);
    return kernels::apply_epilogue(a, epilogue(b), intra_, backend_);
  }

  /// Either branch may take the sum: every element of both is read
  /// before it is written, and the sum keeps its a + b order.
  bool run_in_place(tensor::Tensor& io, const tensor::Tensor* other,
                    std::size_t slot) const override {
    const tensor::Tensor& a = slot == 0 ? io : *other;
    const tensor::Tensor& b = slot == 0 ? *other : io;
    check_branches(a, b);
    kernels::apply_epilogue(a.raw(), io.raw(), io.numel(), epilogue(b),
                            intra_, backend_);
    return true;
  }

  std::string describe() const override {
    return relu_ ? "add_relu" : "add";
  }

 private:
  static void check_branches(const tensor::Tensor& a,
                             const tensor::Tensor& b) {
    util::check(a.shape() == b.shape(),
                "residual add branches disagree: " + a.shape().to_string() +
                    " vs " + b.shape().to_string());
  }

  kernels::Epilogue epilogue(const tensor::Tensor& b) const {
    kernels::Epilogue ep;
    ep.residual = b.raw();
    ep.has_act = relu_;
    return ep;
  }

  bool relu_;
  runtime::IntraOp intra_;
  const kernels::simd::KernelBackend* backend_;
};

/// Eval-mode batch-norm not folded into a CSR op: y = x·scale + shift per
/// channel, over [N, C] or [N, C, H, W].
class ScaleShiftOp final : public EvalOp {
 public:
  ScaleShiftOp(std::vector<float> scale, std::vector<float> shift, bool rank4)
      : scale_(std::move(scale)), shift_(std::move(shift)), rank4_(rank4) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<ScaleShiftOp>(*this);
  }

  tensor::Tensor run(const tensor::Tensor& x) const override {
    const std::size_t c = scale_.size();
    if (rank4_) {
      util::check(x.rank() == 4 && x.dim(1) == c,
                  "scale_shift expects [N, C, H, W]");
    } else {
      util::check(x.rank() == 2 && x.dim(1) == c,
                  "scale_shift expects [N, C]");
    }
    const std::size_t sp = rank4_ ? x.dim(2) * x.dim(3) : 1;
    tensor::Tensor y(x.shape());
    for (std::size_t n = 0; n < x.dim(0); ++n) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        const float* src = x.raw() + (n * c + ch) * sp;
        float* dst = y.raw() + (n * c + ch) * sp;
        for (std::size_t i = 0; i < sp; ++i) {
          dst[i] = src[i] * scale_[ch] + shift_[ch];
        }
      }
    }
    return y;
  }

  std::string describe() const override {
    return "scale_shift(" + std::to_string(scale_.size()) + ")";
  }

 private:
  std::vector<float> scale_;
  std::vector<float> shift_;
  bool rank4_;
};

class ActivationOp final : public EvalOp {
 public:
  ActivationOp(ActKind kind, runtime::IntraOp intra, float slope,
               const kernels::simd::KernelBackend* backend)
      : kind_(kind), slope_(slope), intra_(intra), backend_(backend) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<ActivationOp>(*this);
  }

  tensor::Tensor run(const tensor::Tensor& x) const override {
    return kernels::apply_epilogue(x, epilogue(), intra_, backend_);
  }

  bool run_in_place(tensor::Tensor& io, const tensor::Tensor* other,
                    std::size_t slot) const override {
    (void)other;
    (void)slot;
    kernels::apply_epilogue(io.raw(), io.raw(), io.numel(), epilogue(),
                            intra_, backend_);
    return true;
  }

  std::string describe() const override { return to_string(kind_); }

 private:
  kernels::Epilogue epilogue() const {
    kernels::Epilogue ep;
    ep.has_act = true;
    ep.act = kind_;
    ep.slope = slope_;
    return ep;
  }

  ActKind kind_;
  float slope_;
  runtime::IntraOp intra_;
  const kernels::simd::KernelBackend* backend_;
};

/// Eval-time dropout when ElideDropout was disabled: inverted dropout is
/// the identity at inference, but the node stays visible in summaries.
class IdentityDropoutOp final : public EvalOp {
 public:
  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<IdentityDropoutOp>(*this);
  }

  tensor::Tensor run(const tensor::Tensor& x) const override { return x; }
  std::string describe() const override { return "dropout(identity)"; }
};

class FlattenOp final : public EvalOp {
 public:
  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<FlattenOp>(*this);
  }

  tensor::Tensor run(const tensor::Tensor& x) const override {
    util::check(x.rank() >= 1, "flatten expects a batched tensor");
    const std::size_t batch = x.dim(0);
    return x.reshaped(tensor::Shape({batch, x.numel() / batch}));
  }
  std::string describe() const override { return "flatten"; }
  tensor::Shape out_shape(const tensor::Shape& in) const override {
    return tensor::Shape({in.dim(0), in.numel() / in.dim(0)});
  }
};

class MaxPoolOp final : public EvalOp {
 public:
  MaxPoolOp(std::size_t kernel, std::size_t stride, runtime::IntraOp intra)
      : kernel_(kernel), stride_(stride), intra_(intra) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<MaxPoolOp>(*this);
  }

  tensor::Tensor run(const tensor::Tensor& x) const override {
    return kernels::maxpool2d(x, kernel_, stride_, nullptr, intra_);
  }

  std::string describe() const override {
    return "maxpool(k" + std::to_string(kernel_) + ",s" +
           std::to_string(stride_) + ")";
  }

  tensor::Shape out_shape(const tensor::Shape& in) const override {
    util::check(in.rank() == 4 && in.dim(2) >= kernel_ &&
                    in.dim(3) >= kernel_,
                "maxpool input smaller than window");
    return tensor::Shape({in.dim(0), in.dim(1),
                          (in.dim(2) - kernel_) / stride_ + 1,
                          (in.dim(3) - kernel_) / stride_ + 1});
  }

 private:
  std::size_t kernel_;
  std::size_t stride_;
  runtime::IntraOp intra_;
};

class AvgPoolOp final : public EvalOp {
 public:
  AvgPoolOp(std::size_t kernel, runtime::IntraOp intra)
      : kernel_(kernel), intra_(intra) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<AvgPoolOp>(*this);
  }

  tensor::Tensor run(const tensor::Tensor& x) const override {
    return kernels::avgpool2d(x, kernel_, intra_);
  }

  std::string describe() const override {
    return "avgpool(k" + std::to_string(kernel_) + ")";
  }

  tensor::Shape out_shape(const tensor::Shape& in) const override {
    util::check(in.rank() == 4 && in.dim(2) >= kernel_ &&
                    in.dim(3) >= kernel_,
                "avgpool input smaller than window");
    return tensor::Shape({in.dim(0), in.dim(1), in.dim(2) / kernel_,
                          in.dim(3) / kernel_});
  }

 private:
  std::size_t kernel_;
  runtime::IntraOp intra_;
};

class GlobalAvgPoolOp final : public EvalOp {
 public:
  explicit GlobalAvgPoolOp(runtime::IntraOp intra) : intra_(intra) {}

  std::unique_ptr<EvalOp> clone(CloneContext& ctx) const override {
    (void)ctx;
    return std::make_unique<GlobalAvgPoolOp>(*this);
  }

  tensor::Tensor run(const tensor::Tensor& x) const override {
    return kernels::global_avg_pool(x, intra_);
  }
  std::string describe() const override { return "global_avg_pool"; }
  tensor::Shape out_shape(const tensor::Shape& in) const override {
    return tensor::Shape({in.dim(0), in.dim(1)});
  }

 private:
  runtime::IntraOp intra_;
};

std::unique_ptr<EvalOp> bind_op(PlanOp& op, const runtime::IntraOp& intra,
                                const kernels::simd::KernelBackend* backend) {
  switch (op.kind) {
    case PlanOpKind::kSpmm:
    case PlanOpKind::kConv:
    case PlanOpKind::kRowSlice:
      if (op.qcsr != nullptr) {
        return std::make_unique<CsrOp<sparse::QCsrMatrix>>(
            std::move(op.qcsr), op, intra, backend);
      }
      return std::make_unique<CsrOp<sparse::CsrMatrix>>(std::move(op.csr), op,
                                                        intra, backend);
    case PlanOpKind::kConcatChannels: {
      // Total channels = sum of slice row counts, known statically.
      return std::make_unique<ConcatChannelsOp>(op.row_end - op.row_begin);
    }
    case PlanOpKind::kScaleShift:
      return std::make_unique<ScaleShiftOp>(std::move(op.scale),
                                            std::move(op.shift), op.rank4);
    case PlanOpKind::kActivation:
      return std::make_unique<ActivationOp>(op.act, intra, op.slope,
                                            backend);
    case PlanOpKind::kDropout:
      return std::make_unique<IdentityDropoutOp>();
    case PlanOpKind::kFlatten:
      return std::make_unique<FlattenOp>();
    case PlanOpKind::kMaxPool:
      return std::make_unique<MaxPoolOp>(op.pool_kernel, op.pool_stride,
                                         intra);
    case PlanOpKind::kAvgPool:
      return std::make_unique<AvgPoolOp>(op.pool_kernel, intra);
    case PlanOpKind::kGlobalAvgPool:
      return std::make_unique<GlobalAvgPoolOp>(intra);
    case PlanOpKind::kAdd:
      return std::make_unique<AddOp>(op.relu_after_add, intra, backend);
  }
  util::fail("unreachable plan op kind");
}

}  // namespace

Executor Executor::bind(Plan&& plan, const runtime::IntraOp& intra,
                        const kernels::simd::KernelBackend* backend,
                        std::shared_ptr<obs::OpProfile> profile) {
  plan.validate();
  Executor exec;
  exec.intra_ = intra;
  exec.profile_ = std::move(profile);
  exec.nodes_.reserve(plan.ops.size());
  exec.op_names_.reserve(plan.ops.size());
  exec.group_start_.assign(plan.ops.size(), 0);

  // Input validation data, read off the plan before binding moves the
  // weights: a CSR linear head fixes the feature count whether it is
  // whole (kSpmm) or the first slice of a partitioned linear.
  {
    const PlanOp& head = plan.ops.front();
    const bool linear_head =
        head.kind == PlanOpKind::kSpmm ||
        (head.kind == PlanOpKind::kRowSlice && !head.is_conv());
    if (linear_head && head.inputs.front() == Plan::kInputId) {
      exec.input_features_ =
          head.csr != nullptr ? head.csr->cols() : head.qcsr->cols();
    }
  }

  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    PlanOp& op = plan.ops[i];
    // A concat node carries its total channel count through row_begin/
    // row_end of its sources; compute it before the csr pointers move.
    if (op.kind == PlanOpKind::kConcatChannels) {
      std::size_t total = 0;
      for (const std::size_t in : op.inputs) {
        total += plan.ops[in].row_end - plan.ops[in].row_begin;
      }
      op.row_begin = 0;
      op.row_end = total;
    }
    // Record parallel slice groups before binding (bind moves fields).
    if (op.kind == PlanOpKind::kRowSlice &&
        op.partition_group != PlanOp::kNoGroup &&
        (i == 0 || plan.ops[i - 1].kind != PlanOpKind::kRowSlice ||
         plan.ops[i - 1].partition_group != op.partition_group)) {
      Group g;
      g.first = i;
      g.count = 1;
      for (std::size_t j = i + 1;
           j < plan.ops.size() &&
           plan.ops[j].kind == PlanOpKind::kRowSlice &&
           plan.ops[j].partition_group == op.partition_group;
           ++j) {
        ++g.count;
      }
      if (g.count > 1) {
        exec.groups_.push_back(g);
        exec.group_start_[i] = exec.groups_.size();
      }
    }
  }
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    PlanOp& op = plan.ops[i];
    exec.op_names_.push_back(to_string(op.kind));
    std::vector<std::size_t> inputs = op.inputs;
    exec.nodes_.push_back(
        OpNode{bind_op(op, intra, backend), std::move(inputs)});
  }
  exec.donor_slot_ = plan.donor_slots();
  exec.release_after_ = std::move(plan.release_after);
  return exec;
}

const Executor::OpNode& Executor::node(std::size_t i) const {
  util::check(i < nodes_.size(), "executor node index out of range");
  return nodes_[i];
}

void Executor::run_node(std::size_t i, std::vector<tensor::Tensor>& values,
                        const tensor::Tensor& x) const {
  const OpNode& node = nodes_[i];
  auto value_of = [&](std::size_t id) -> const tensor::Tensor& {
    return id == kInputId ? x : values[id];
  };
  const std::size_t slot = donor_slot_[i];
  if (slot != Plan::kNoDonor) {
    // The donor is never the caller's input nor another operand, and no
    // later node reads it: its storage becomes this node's output.
    tensor::Tensor& io = values[node.inputs[slot]];
    const tensor::Tensor* other =
        node.inputs.size() == 2 ? &value_of(node.inputs[1 - slot]) : nullptr;
    if (node.op->run_in_place(io, other, slot)) {
      values[i] = std::move(io);
      return;
    }
  }
  if (node.inputs.size() == 1) {
    values[i] = node.op->run(value_of(node.inputs[0]));
  } else if (node.inputs.size() == 2) {
    values[i] = node.op->run2(value_of(node.inputs[0]),
                              value_of(node.inputs[1]));
  } else {
    std::vector<const tensor::Tensor*> xs;
    xs.reserve(node.inputs.size());
    for (const std::size_t in : node.inputs) xs.push_back(&value_of(in));
    values[i] = node.op->run_many(xs);
  }
}

tensor::Tensor Executor::forward(const tensor::Tensor& x) const {
  const std::size_t batch = x.rank() >= 1 ? x.dim(0) : 0;
  const std::size_t tile = Plan::forward_tile(batch);
  if (tile == batch) return forward_tile(x);
  const std::size_t in_per = x.numel() / batch;
  std::vector<std::size_t> dims = x.shape().dims();
  tensor::Tensor y;
  std::size_t out_per = 0;
  for (std::size_t n0 = 0; n0 < batch; n0 += tile) {
    const std::size_t n = std::min(tile, batch - n0);
    dims[0] = n;
    tensor::Tensor part{tensor::Shape(dims)};
    std::copy_n(x.raw() + n0 * in_per, n * in_per, part.raw());
    const tensor::Tensor out = forward_tile(part);
    if (n0 == 0) {
      std::vector<std::size_t> out_dims = out.shape().dims();
      out_per = out.numel() / n;
      out_dims[0] = batch;
      y = tensor::Tensor(tensor::Shape(out_dims));
    }
    std::copy_n(out.raw(), n * out_per, y.raw() + n0 * out_per);
  }
  return y;
}

tensor::Tensor Executor::forward_tile(const tensor::Tensor& x) const {
  // nodes_ is non-empty (checked at bind). Intermediates are released per
  // the FreeAfterLastUse annotation, so peak memory tracks the graph's
  // width; without the pass everything stays live until return.
  std::vector<tensor::Tensor> values(nodes_.size());
  auto release = [&](std::size_t i) {
    if (release_after_.empty()) return;
    for (const std::size_t id : release_after_[i]) {
      values[id] = tensor::Tensor();
    }
  };
  // Per-op instrumentation is armed only when someone can observe it: a
  // bound profile, or an active trace id on this thread (the server's
  // worker loop opens a ThreadTraceScope around sampled batches). The
  // common case — neither — pays two loads up front and nothing per op.
  obs::OpProfile* const prof = profile_.get();
  const std::uint64_t tid = obs::current_trace_id();
  const bool instrument = prof != nullptr || tid != 0;
  auto timed_run = [&](std::size_t i, std::vector<tensor::Tensor>& vals) {
    const std::int64_t t0 = obs::now_ns();
    run_node(i, vals, x);
    const std::int64_t dt = obs::now_ns() - t0;
    if (prof != nullptr) prof->add(i, dt);
    obs::trace().record(tid, obs::SpanKind::kOp, op_names_[i], t0, dt, i);
  };
  for (std::size_t i = 0; i < nodes_.size();) {
    if (group_start_[i] != 0) {
      // A partition group: sibling row slices of one split, each writing
      // its own values[] slot — one fan-out on the pool executes them
      // concurrently, the point of PartitionRows. Releases wait until the
      // whole group is done (every slice reads the same input).
      const Group& g = groups_[group_start_[i] - 1];
      runtime::pool_of(intra_).run_chunks(
          g.count, g.count, [&](std::size_t b0, std::size_t b1) {
            for (std::size_t j = b0; j < b1; ++j) {
              if (instrument) {
                timed_run(g.first + j, values);
              } else {
                run_node(g.first + j, values, x);
              }
            }
          });
      for (std::size_t j = 0; j < g.count; ++j) release(g.first + j);
      i += g.count;
      continue;
    }
    if (instrument) {
      timed_run(i, values);
    } else {
      run_node(i, values, x);
    }
    release(i);
    ++i;
  }
  return std::move(values.back());
}

Executor Executor::clone() const {
  CloneContext ctx;
  return clone_with(ctx);
}

Executor Executor::clone_shared(
    const std::unordered_set<const void*>& shared) const {
  CloneContext ctx(&shared);
  return clone_with(ctx);
}

Executor Executor::clone_with(CloneContext& ctx) const {
  Executor copy;
  copy.nodes_.reserve(nodes_.size());
  for (const OpNode& node : nodes_) {
    copy.nodes_.push_back(OpNode{node.op->clone(ctx), node.inputs});
  }
  copy.release_after_ = release_after_;
  copy.donor_slot_ = donor_slot_;
  copy.groups_ = groups_;
  copy.group_start_ = group_start_;
  copy.intra_ = intra_;
  copy.input_features_ = input_features_;
  // The profile is shared ON PURPOSE: every replica of a model adds into
  // the same accumulator, so per-op times aggregate across shards.
  copy.profile_ = profile_;
  copy.op_names_ = op_names_;
  return copy;
}

double Executor::accumulate_flops(const tensor::Shape& sample_shape,
                                  bool dense) const {
  // Propagate a batch-1 shape through the graph, summing each node's cost.
  std::vector<std::size_t> dims;
  dims.reserve(sample_shape.rank() + 1);
  dims.push_back(1);
  for (std::size_t i = 0; i < sample_shape.rank(); ++i) {
    dims.push_back(sample_shape.dim(i));
  }
  const tensor::Shape input(dims);
  std::vector<tensor::Shape> shapes(nodes_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const OpNode& node = nodes_[i];
    const std::size_t src = node.inputs.front();
    const tensor::Shape& in = src == kInputId ? input : shapes[src];
    total += dense ? node.op->dense_flops(in) : node.op->flops(in);
    shapes[i] = node.op->out_shape(in);
  }
  return total;
}

std::string Executor::describe_ops() const {
  std::string out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out += "  [" + std::to_string(i) + "] " + nodes_[i].op->describe();
    append_producers(out, i, nodes_[i].inputs);
    out += "\n";
  }
  return out;
}

}  // namespace dstee::serve
