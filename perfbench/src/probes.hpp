// Layer probes a traced run makes on its workload's serving model:
// passes (plan/bind time, fusion and partitioning ratios), the executor
// (sparse vs dense eval forward, per-pipeline comparison with gates) and
// the kernels (im2col and CSR SpMM over the model's weight shapes, against
// an in-process STREAM-triad bandwidth ceiling).
#pragma once

#include <cstdint>

#include "nn/sequential.hpp"
#include "report.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/shape.hpp"

namespace perfbench {

/// Runs every probe on `module`/`state` (eval mode) with samples of
/// `sample_shape`, reporting passes.*, executor.*, kernels.* and the
/// pipeline gates. Calls into the program are spans in `spans`.
void probe_serving_layers(Report& report, SpanRecorder& spans,
                          dstee::nn::Sequential& module,
                          const dstee::sparse::SparseModel& state,
                          const dstee::tensor::Shape& sample_shape,
                          std::uint64_t seed);

}  // namespace perfbench
