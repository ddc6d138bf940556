#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "kernels/simd/backend.hpp"
#include "models.hpp"
#include "serve/compiled_net.hpp"
#include "serve/passes.hpp"
#include "sparse/qcsr.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace dstee;

namespace {

/// Median wall time of one call of `fn`, after one warm-up call, over at
/// least `min_reps` calls and `min_seconds` of calls.
template <class F>
double per_call_ms(F&& fn, double min_seconds = 0.25,
                   std::size_t min_reps = 5) {
  fn();
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < min_reps ||
         (seconds_since(start) < min_seconds && times.size() < 1000)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(times));
}

struct Pipeline {
  const char* name;
  const char* backend;  ///< empty: the CPUID pick
  const char* spec;     ///< nullptr: the default pipeline
  bool bit_exact;       ///< gate: bit-equal to the default pipeline
};

// scalar/avx2 pin the kernel backend under the default passes; int8,
// fuse-epilogue and partition-rows:2 each add one pass to the default
// pipeline under the CPUID-picked backend.
constexpr Pipeline kPipelines[] = {
    {"scalar", "scalar", nullptr, true},
    {"avx2", "avx2", nullptr, true},
    {"int8", "", "elide-dropout,fold-bn,quantize:int8,free-after-last-use",
     false},
    {"fuse_epilogue", "",
     "elide-dropout,fold-bn,fuse-epilogue,free-after-last-use", true},
    {"partition_rows", "",
     "elide-dropout,fold-bn,partition-rows:2,free-after-last-use", true},
};

/// STREAM triad a = b + s*c over three 32 MiB double arrays on one
/// thread; best of 10 passes in GB/s (24 bytes moved per element).
double triad_gbps() {
  const std::size_t n = std::size_t{1} << 22;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  double best_ms = 1e300;
  for (int rep = 0; rep < 10; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best_ms = std::min(best_ms, ms_between(t0, Clock::now()));
    b[rep % n] = a[(rep * 7) % n];  // keeps the passes data-dependent
  }
  return 24.0 * static_cast<double>(n) / (best_ms * 1e6);
}

/// Bytes one pass over a CSR matrix streams under the stated byte model:
/// fp32 values + uint32 column indices = 8 B/nnz, int8 values + uint32
/// indices = 5 B/nnz plus a 4 B scale per row, and 8 B row pointers.
double csr_bytes(std::size_t nnz, std::size_t rows, bool int8) {
  const double per_nnz = int8 ? 5.0 : 8.0;
  const double per_row = int8 ? 4.0 : 0.0;
  return per_nnz * static_cast<double>(nnz) +
         per_row * static_cast<double>(rows) +
         8.0 * static_cast<double>(rows + 1);
}

/// kernels.*: im2col and CSR SpMM (fp32 and int8) over every weight node
/// of the default plan at batch 16, as the executor would run them.
void probe_kernels(Report& report, serve::Plan& plan,
                   const tensor::Shape& sample_shape, std::uint64_t seed) {
  constexpr std::size_t kBatch = 16;
  const std::vector<serve::Plan::NodeCost> costs = plan.annotate(sample_shape);

  struct Layer {
    const serve::PlanOp* op;
    tensor::Shape in;  ///< batch-1 input shape
    std::shared_ptr<sparse::QCsrMatrix> q;
  };
  std::vector<Layer> layers;
  for (const serve::PlanOp& op : plan.ops) {
    if (op.kind != serve::PlanOpKind::kConv &&
        op.kind != serve::PlanOpKind::kSpmm) {
      continue;
    }
    // annotate() shapes carry the batch-1 axis; samples have none.
    const std::size_t src = op.inputs.at(0);
    tensor::Shape in = sample_shape;
    if (src != serve::Plan::kInputId) {
      const tensor::Shape& out = costs.at(src).out_shape;
      std::vector<std::size_t> dims;
      for (std::size_t d = 1; d < out.rank(); ++d) dims.push_back(out.dim(d));
      in = tensor::Shape(dims);
    }
    Layer l{&op, in,
            std::make_shared<sparse::QCsrMatrix>(
                sparse::QCsrMatrix::quantize(*op.csr))};
    layers.push_back(std::move(l));
  }

  double fp32_bytes = 0.0, int8_bytes = 0.0;
  for (const Layer& l : layers) {
    const std::size_t calls =
        l.op->kind == serve::PlanOpKind::kConv ? kBatch : 1;
    fp32_bytes += static_cast<double>(calls) *
                  csr_bytes(l.op->csr->nnz(), l.op->csr->rows(), false);
    int8_bytes += static_cast<double>(calls) *
                  csr_bytes(l.q->nnz(), l.q->rows(), true);
  }

  // One batch-16 pass over every layer; returns {im2col, fp32, int8} ms.
  std::vector<tensor::Tensor> inputs;
  for (const Layer& l : layers) {
    inputs.push_back(stack(make_inputs(l.in, kBatch, seed + 17), 0, kBatch));
  }
  const auto pass = [&](double& im2col_ms, double& fp32_ms, double& int8_ms) {
    im2col_ms = fp32_ms = int8_ms = 0.0;
    for (std::size_t li = 0; li < layers.size(); ++li) {
      const Layer& l = layers[li];
      const tensor::Tensor& x = inputs[li];
      if (l.op->kind == serve::PlanOpKind::kSpmm) {
        Clock::time_point t0 = Clock::now();
        const tensor::Tensor y = l.op->csr->spmm(x);
        fp32_ms += ms_between(t0, Clock::now());
        t0 = Clock::now();
        const tensor::Tensor yq = l.q->spmm(x);
        int8_ms += ms_between(t0, Clock::now());
        continue;
      }
      tensor::ConvGeometry g;
      g.in_channels = l.op->in_channels;
      g.in_h = l.in.dim(1);
      g.in_w = l.in.dim(2);
      g.kernel_h = g.kernel_w = l.op->kernel;
      g.stride = l.op->stride;
      g.padding = l.op->padding;
      const std::size_t positions = g.out_h() * g.out_w();
      tensor::Tensor cols({g.patch_size(), positions});
      std::vector<float> out(l.op->csr->rows() * positions);
      const std::size_t image = l.in.numel();
      for (std::size_t n = 0; n < kBatch; ++n) {
        Clock::time_point t0 = Clock::now();
        tensor::im2col(x.raw() + n * image, g, cols.raw());
        im2col_ms += ms_between(t0, Clock::now());
        t0 = Clock::now();
        l.op->csr->spmm_cols_into(cols, out.data());
        fp32_ms += ms_between(t0, Clock::now());
        t0 = Clock::now();
        l.q->spmm_cols_into(cols, out.data());
        int8_ms += ms_between(t0, Clock::now());
      }
    }
  };
  std::vector<double> im2col_v, fp32_v, int8_v;
  double a = 0, b = 0, c = 0;
  pass(a, b, c);  // warm-up
  const Clock::time_point start = Clock::now();
  while (fp32_v.size() < 5 ||
         (seconds_since(start) < 0.5 && fp32_v.size() < 200)) {
    pass(a, b, c);
    im2col_v.push_back(a);
    fp32_v.push_back(b);
    int8_v.push_back(c);
  }
  const double im2col_ms = median(im2col_v);
  const double fp32_ms = median(fp32_v);
  const double int8_ms = median(int8_v);
  const double triad = triad_gbps();
  const double fp32_gbps = fp32_ms > 0 ? fp32_bytes / (fp32_ms * 1e6) : 0.0;
  report.set("kernels.im2col_ms", im2col_ms, "ms");
  report.set("kernels.spmm_ms", fp32_ms, "ms");
  report.set("kernels.spmm_int8_ms", int8_ms, "ms");
  report.set("kernels.spmm_gbps", fp32_gbps, "GB/s");
  report.set("kernels.spmm_int8_gbps",
             int8_ms > 0 ? int8_bytes / (int8_ms * 1e6) : 0.0, "GB/s");
  report.set("kernels.triad_gbps", triad, "GB/s");
  report.set("kernels.spmm_bw_frac", triad > 0 ? fp32_gbps / triad : 0.0,
             "frac");
}

}  // namespace

void probe_serving_layers(Report& report, SpanRecorder& spans,
                          nn::Sequential& module,
                          const sparse::SparseModel& state,
                          const tensor::Shape& sample_shape,
                          std::uint64_t seed) {
  module.set_training(false);
  serve::CompileOptions options;
  options.sample_shape = sample_shape;
  const serve::Compiler compiler(options);

  // passes: plan() and bind() of the default pipeline.
  std::vector<double> plan_ms, bind_ms;
  std::unique_ptr<serve::CompiledNet> net;
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point t0 = Clock::now();
    serve::Plan plan = compiler.plan(module, &state);
    Clock::time_point t1 = Clock::now();
    spans.record("passes.plan", 0, 0, t0, t1, 0);
    plan_ms.push_back(ms_between(t0, t1));
    t0 = Clock::now();
    net = std::make_unique<serve::CompiledNet>(compiler.bind(std::move(plan)));
    t1 = Clock::now();
    spans.record("passes.bind", 0, 0, t0, t1, 0);
    bind_ms.push_back(ms_between(t0, t1));
  }
  report.set("passes.plan_ms", median(plan_ms), "ms");
  report.set("passes.bind_ms", median(bind_ms), "ms");

  const std::vector<tensor::Tensor> samples =
      make_inputs(sample_shape, 64, seed + 11);
  const tensor::Tensor x1 = stack(samples, 0, 1);
  const tensor::Tensor x16 = stack(samples, 0, 16);
  const tensor::Tensor x64 = stack(samples, 0, 64);

  const auto timed_forward = [&](const char* name,
                                 const serve::CompiledNet& n,
                                 const tensor::Tensor& x) {
    return per_call_ms([&] {
      ScopedSpan s(spans, name, 0);
      n.forward(x);
    });
  };
  const double b1 = timed_forward("executor.forward_b1", *net, x1);
  const double b16 = timed_forward("executor.forward_b16", *net, x16);
  const double dense_b1 = per_call_ms([&] {
    ScopedSpan s(spans, "executor.dense_forward_b1", 0);
    module.forward(x1);
  });
  const double dense_b16 = per_call_ms([&] {
    ScopedSpan s(spans, "executor.dense_forward_b16", 0);
    module.forward(x16);
  });
  const double flops_reduction = net->dense_flops_per_sample(sample_shape) /
                                 net->flops_per_sample(sample_shape);
  const double speedup = dense_b16 / b16;
  report.set("executor.forward_b1_ms", b1, "ms");
  report.set("executor.forward_b16_ms", b16, "ms");
  report.set("executor.dense_forward_b1_ms", dense_b1, "ms");
  report.set("executor.dense_forward_b16_ms", dense_b16, "ms");
  report.set("executor.speedup_vs_dense", speedup, "x");
  report.set("executor.flops_reduction", flops_reduction, "x");
  report.set("executor.speedup_over_flops_reduction",
             speedup / flops_reduction, "ratio");

  // The compiled net must compute what the dense eval model computes.
  report.gate("executor_matches_dense_eval",
              close_to(net->forward(x16), module.forward(x16), 1e-4, 1e-3),
              "compiled vs nn eval forward, batch 16, atol 1e-4 rtol 1e-3");

  const tensor::Tensor ref1 = net->forward(x1);
  const tensor::Tensor ref16 = net->forward(x16);
  const std::vector<std::size_t> ref_top1 = tensor::argmax_rows(net->forward(x64));
  const std::vector<std::string> backends =
      kernels::simd::available_backends();
  for (const Pipeline& p : kPipelines) {
    const std::string name = p.name;
    if (std::string(p.backend) != "" &&
        std::find(backends.begin(), backends.end(), p.backend) ==
            backends.end()) {
      report.gate("pipeline_" + name, false, "backend not available here");
      continue;
    }
    serve::CompileOptions popts = options;
    popts.kernel_backend = p.backend;
    serve::Compiler pc(popts);
    if (p.spec != nullptr) pc.pipeline_from_spec(p.spec);
    const serve::CompiledNet pnet = pc.compile(module, &state);
    if (p.bit_exact) {
      report.gate("pipeline_" + name,
                  pnet.forward(x1).equals(ref1) &&
                      pnet.forward(x16).equals(ref16),
                  "bit-equal to the default pipeline at batch 1 and 16");
    } else {
      // Quantization may flip near-ties; a broken int8 path agrees at
      // chance level (1 / classes).
      const std::vector<std::size_t> t = tensor::argmax_rows(pnet.forward(x64));
      std::size_t agree = 0;
      for (std::size_t i = 0; i < t.size(); ++i) agree += t[i] == ref_top1[i];
      report.gate("pipeline_" + name, agree * 4 >= t.size() * 3,
                  "top-1 agreement " + std::to_string(agree) + "/" +
                      std::to_string(t.size()) + " (>= 75%)");
    }
    const double pb1 = timed_forward("executor.pipeline_b1", pnet, x1);
    const double pb16 = timed_forward("executor.pipeline_b16", pnet, x16);
    if (name == "fuse_epilogue" || name == "partition_rows") {
      report.set("passes." + name + "_ratio.b1", pb1 / b1, "ratio");
      report.set("passes." + name + "_ratio.b16", pb16 / b16, "ratio");
    } else {
      report.set("executor.forward_b1_ms." + name, pb1, "ms");
      report.set("executor.forward_b16_ms." + name, pb16, "ms");
    }
  }

  serve::Plan plan = compiler.plan(module, &state);
  probe_kernels(report, plan, sample_shape, seed);
}

}  // namespace perfbench
