#include "models.hpp"

#include <cmath>
#include <cstring>

#include "tensor/init.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace dstee;

models::ResNetConfig resnet18_config() {
  models::ResNetConfig cfg;
  cfg.depth = 18;
  cfg.in_channels = 3;
  cfg.image_size = 32;
  cfg.num_classes = 10;
  cfg.width_multiplier = 0.25;
  return cfg;
}

models::MlpConfig mlp_config() {
  models::MlpConfig cfg;
  cfg.in_features = 256;
  cfg.hidden = {512, 512};
  cfg.out_features = 10;
  return cfg;
}

SparseNet make_resnet18(std::uint64_t seed) {
  util::Rng rng(seed);
  SparseNet net;
  net.module = std::make_unique<models::ResNet>(resnet18_config(), rng);
  net.state = std::make_unique<sparse::SparseModel>(
      *net.module, kSparsity, sparse::DistributionKind::kErk, rng);
  net.module->set_training(false);
  return net;
}

SparseNet snapshot_mlp(nn::Sequential& src,
                       const sparse::SparseModel& src_state) {
  util::Rng rng(0);
  SparseNet net;
  net.module = std::make_unique<models::Mlp>(mlp_config(), rng);
  net.state = std::make_unique<sparse::SparseModel>(
      *net.module, kSparsity, sparse::DistributionKind::kErk, rng);
  const auto dst_params = net.module->parameters();
  const auto src_params = src.parameters();
  util::check(dst_params.size() == src_params.size(),
              "snapshot: parameter count mismatch");
  for (std::size_t i = 0; i < dst_params.size(); ++i) {
    dst_params[i]->value = src_params[i]->value;
  }
  const auto dst_bufs = net.module->state_buffers();
  const auto src_bufs = src.state_buffers();
  for (std::size_t i = 0; i < dst_bufs.size(); ++i) *dst_bufs[i] = *src_bufs[i];
  util::check(net.state->num_layers() == src_state.num_layers(),
              "snapshot: sparse layer count mismatch");
  for (std::size_t l = 0; l < src_state.num_layers(); ++l) {
    net.state->layer(l).mask() = src_state.layer(l).mask();
  }
  net.module->set_training(false);
  return net;
}

std::vector<tensor::Tensor> make_inputs(const tensor::Shape& sample_shape,
                                        std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<tensor::Tensor> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tensor::Tensor t(sample_shape);
    tensor::fill_normal(t, rng, 0.0f, 1.0f);
    out.push_back(std::move(t));
  }
  return out;
}

tensor::Tensor stack(const std::vector<tensor::Tensor>& samples,
                     std::size_t first, std::size_t count) {
  const tensor::Tensor& head = samples.at(first);
  tensor::Tensor x(head.shape().prepended(count));
  const std::size_t n = head.numel();
  for (std::size_t i = 0; i < count; ++i) {
    const tensor::Tensor& s = samples.at((first + i) % samples.size());
    std::memcpy(x.raw() + i * n, s.raw(), n * sizeof(float));
  }
  return x;
}

bool bit_equal(const tensor::Tensor& a, const float* b) {
  return std::memcmp(a.raw(), b, a.numel() * sizeof(float)) == 0;
}

bool close_to(const tensor::Tensor& a, const tensor::Tensor& b, double atol,
              double rtol) {
  if (a.numel() != b.numel()) return false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double x = a.raw()[i];
    const double y = b.raw()[i];
    if (!(std::fabs(x - y) <= atol + rtol * std::fabs(y))) return false;
  }
  return true;
}

DstTrainer::DstTrainer(nn::Sequential& model_in, const data::Dataset& data,
                       std::size_t batch_size, const core::DstEeConfig& ee,
                       std::size_t total_iterations, double lr,
                       double weight_decay, std::uint64_t seed)
    : model(model_in),
      optimizer(model_in.parameters(),
                optim::Sgd::Config{lr, 0.9, weight_decay, false, false}),
      session(model_in, optimizer, ee, total_iterations, seed),
      loader(data, batch_size, util::Rng(seed).fork("loader")),
      schedule(lr, total_iterations) {
  model.set_training(true);
  loader.start_epoch();
}

DstTrainer::Step DstTrainer::step(std::size_t iteration, SpanRecorder& spans,
                                  std::uint64_t step_id) {
  Step out;
  data::DataLoader::Batch batch;
  {
    ScopedSpan s(spans, "data.batch", step_id + 1, step_id);
    if (!loader.has_next()) loader.start_epoch();
    batch = loader.next_batch();
  }
  tensor::Tensor logits;
  {
    ScopedSpan s(spans, "nn.forward", step_id + 2, step_id);
    model.zero_grad();
    logits = model.forward(batch.examples);
    out.loss = loss.forward(logits, batch.labels);
  }
  {
    ScopedSpan s(spans, "nn.backward", step_id + 3, step_id);
    model.backward(loss.backward());
  }
  const double lr = schedule.lr_at(iteration);
  {
    const Clock::time_point t0 = Clock::now();
    out.updated = session.on_iteration_end(iteration, lr);
    spans.record(out.updated ? "methods.topology_update" : "core.mask_grads",
                 step_id + 4, step_id, t0, Clock::now(), 0);
  }
  {
    ScopedSpan s(spans, "optim.step", step_id + 5, step_id);
    optimizer.set_learning_rate(lr);
    optimizer.step();
  }
  {
    ScopedSpan s(spans, "core.mask_values", step_id + 6, step_id);
    session.after_optimizer_step();
  }
  return out;
}

bool DstTrainer::masked_weights_zero() const {
  const sparse::SparseModel& state = session.sparse_model();
  for (std::size_t l = 0; l < state.num_layers(); ++l) {
    const sparse::MaskedParameter& layer = state.layer(l);
    const tensor::Tensor& mask = layer.mask().tensor();
    const tensor::Tensor& value = layer.param().value;
    for (std::size_t i = 0; i < value.numel(); ++i) {
      if (mask.raw()[i] == 0.0f && value.raw()[i] != 0.0f) return false;
    }
  }
  return true;
}

void report_train_layers(Report& report,
                         const std::vector<SpanRecorder::Span>& spans,
                         double exploration_rate) {
  const auto total = total_ms_by_name(spans);
  const auto sum = [&](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  const auto iterations = static_cast<double>(count_spans(spans, "train.step"));
  const auto updates =
      static_cast<double>(count_spans(spans, "methods.topology_update"));
  const auto per_iter = [&](double ms) {
    return iterations > 0 ? ms / iterations : 0.0;
  };
  report.set("nn.forward_ms", per_iter(sum("nn.forward")), "ms");
  report.set("nn.backward_ms", per_iter(sum("nn.backward")), "ms");
  report.set("optim.step_ms", per_iter(sum("optim.step")), "ms");
  report.set("data.batch_ms", per_iter(sum("data.batch")), "ms");
  report.set("core.mask_ms",
             per_iter(sum("core.mask_grads") + sum("core.mask_values")), "ms");
  report.set("methods.topology_update_ms",
             updates > 0 ? sum("methods.topology_update") / updates : 0.0,
             "ms");
  const double step_total = sum("train.step");
  report.set("methods.update_share",
             step_total > 0 ? sum("methods.topology_update") / step_total : 0.0,
             "frac");
  report.set("methods.updates", updates, "count");
  report.set("methods.exploration_rate", exploration_rate, "frac");
}

}  // namespace perfbench
