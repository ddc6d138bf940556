// Workload models, inputs and the instrumented DST-EE training step shared
// by the serving workloads (the MLP delta chain) and dst_train.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dst_ee.hpp"
#include "data/dataloader.hpp"
#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "nn/losses.hpp"
#include "nn/sequential.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/optimizer.hpp"
#include "report.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Command-line options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where a traced run writes its Chrome traces
};

/// Global sparsity of every workload model (ERK distribution).
inline constexpr double kSparsity = 0.9;

/// ResNet-18, width 0.25, 32x32x3 input, 10 classes.
dstee::models::ResNetConfig resnet18_config();
/// The 256 -> 512 -> 512 -> 10 ReLU MLP.
dstee::models::MlpConfig mlp_config();

/// A servable model: module plus its sparse state (masks over it).
struct SparseNet {
  std::unique_ptr<dstee::nn::Sequential> module;
  std::unique_ptr<dstee::sparse::SparseModel> state;
};

/// ResNet-18 at kSparsity ERK, random weights drawn from `seed`, in eval
/// mode.
SparseNet make_resnet18(std::uint64_t seed);

/// A fresh MLP carrying `src`'s parameter values, state buffers and masks
/// (identical model_state_hash), in eval mode.
SparseNet snapshot_mlp(dstee::nn::Sequential& src,
                       const dstee::sparse::SparseModel& src_state);

/// `n` standard-normal samples of `sample_shape` drawn from `seed`.
std::vector<dstee::tensor::Tensor> make_inputs(
    const dstee::tensor::Shape& sample_shape, std::size_t n,
    std::uint64_t seed);

/// Stacks samples[idx...] into one [batch, ...] tensor.
dstee::tensor::Tensor stack(const std::vector<dstee::tensor::Tensor>& samples,
                            std::size_t first, std::size_t count);

/// Bitwise equality of two float buffers of equal length.
bool bit_equal(const dstee::tensor::Tensor& a, const float* b);
/// True when |a - b| <= atol + rtol * |b| holds elementwise.
bool close_to(const dstee::tensor::Tensor& a, const dstee::tensor::Tensor& b,
              double atol, double rtol);

/// One DST-EE training run's moving parts, stepped one iteration at a
/// time. Public calls only: model forward/backward, the loss, the
/// optimizer and core::DstEeSession.
struct DstTrainer {
  DstTrainer(dstee::nn::Sequential& model, const dstee::data::Dataset& data,
             std::size_t batch_size, const dstee::core::DstEeConfig& ee,
             std::size_t total_iterations, double lr, double weight_decay,
             std::uint64_t seed);

  struct Step {
    double loss = 0.0;
    bool updated = false;  ///< a drop-and-grow round ran this iteration
  };
  /// Runs iteration `iteration`; every stage is a span (parent `step_id`)
  /// in `spans` when it is enabled.
  Step step(std::size_t iteration, SpanRecorder& spans, std::uint64_t step_id);

  /// True when every masked-out weight is exactly zero.
  bool masked_weights_zero() const;

  dstee::nn::Sequential& model;
  dstee::optim::Sgd optimizer;
  dstee::core::DstEeSession session;
  dstee::data::DataLoader loader;
  dstee::optim::CosineAnnealingLr schedule;
  dstee::nn::SoftmaxCrossEntropy loss;
};

/// Training-layer metrics (nn/optim/core/methods/data) from the spans a
/// DstTrainer recorded; all zero when no step was traced.
void report_train_layers(Report& report,
                         const std::vector<SpanRecorder::Span>& spans,
                         double exploration_rate);

}  // namespace perfbench
