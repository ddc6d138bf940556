#include "serve/server.hpp"

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dstee::serve {

namespace {

// The obs clock is the one sanctioned serve-path timing surface (lint
// rule serve-timing); millis_between below is pure duration arithmetic.
using Clock = obs::Clock;

double millis_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

InferenceServer::InferenceServer(const CompiledNet& net, ServerConfig config)
    : InferenceServer(util::borrow(net), config) {}

InferenceServer::InferenceServer(std::shared_ptr<const CompiledNet> net,
                                 ServerConfig config)
    : config_(config) {
  util::check(net != nullptr, "server requires a non-null net");
  input_features_ = net->input_features();
  util::check(config_.num_threads >= 1, "server requires >= 1 worker thread");
  util::check(config_.num_shards >= 1, "server requires >= 1 shard");
  util::check(config_.max_batch >= 1, "server requires max_batch >= 1");
  util::check(config_.queue_capacity >= config_.max_batch,
              "queue_capacity must be >= max_batch");
  if (config_.max_shards == 0) config_.max_shards = config_.num_shards;
  util::check(config_.max_shards >= config_.num_shards,
              "max_shards must be >= num_shards");
  util::check(config_.queue_quota <= config_.queue_capacity,
              "queue_quota must be <= queue_capacity");
  shards_.reserve(config_.max_shards);
  for (std::size_t s = 0; s < config_.max_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    if (s == 0) {
      shard->net.store(net);  // the source net serves shard 0 directly
    } else {
      shard->net.store(std::make_shared<const CompiledNet>(net->clone()));
    }
    shards_.push_back(std::move(shard));
  }
  active_shards_.store(config_.num_shards, std::memory_order_release);
  if (config_.metrics != nullptr) {
    latency_hist_ = &config_.metrics->histogram(
        "dstee_request_latency_ms", config_.metrics_label,
        "End-to-end request latency (queue wait + compute), milliseconds");
    queue_wait_hist_ = &config_.metrics->histogram(
        "dstee_queue_wait_ms", config_.metrics_label,
        "Time a request waits in the queue before a worker takes it, "
        "milliseconds");
    batch_size_hist_ = &config_.metrics->histogram(
        "dstee_batch_size", config_.metrics_label,
        "Requests per executed micro-batch");
    requests_ctr_ = &config_.metrics->counter(
        "dstee_requests_total", config_.metrics_label, "Completed requests");
    batches_ctr_ = &config_.metrics->counter(
        "dstee_batches_total", config_.metrics_label,
        "Micro-batches executed");
    forward_seconds_ctr_ = &config_.metrics->counter(
        "dstee_forward_seconds_total", config_.metrics_label,
        "Seconds workers spent in forward passes, summed over workers");
    workers_gauge_ = &config_.metrics->gauge(
        "dstee_workers", config_.metrics_label,
        "Workers of the active shards pulling from the queue");
    workers_gauge_->set(
        static_cast<double>(config_.num_shards * config_.num_threads));
  }
  // Workers start only after every shard exists: a worker never observes a
  // half-built shards_ vector.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& s = *shards_[si];
    s.workers.reserve(config_.num_threads);
    for (std::size_t t = 0; t < config_.num_threads; ++t) {
      s.workers.emplace_back([this, si, t] {
        // Named at thread start, before the first trace record registers
        // this thread's ring (see obs::set_thread_name).
        obs::set_thread_name("serve-s" + std::to_string(si) + "-w" +
                             std::to_string(t));
        worker_loop(si);
      });
    }
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::validate_sample(const tensor::Tensor& input) const {
  util::check(input.rank() >= 1,
              "submit expects a sample without a batch axis, e.g. "
              "[features] or [C, H, W]");
  if (input_features_ != 0) {
    // A CSR-linear-first net pins the flat feature count; conv-first nets
    // validate [C, H, W] inside the first op instead.
    util::check(input.rank() == 1 && input.numel() == input_features_,
                "sample has shape " + input.shape().to_string() +
                    ", net expects [" + std::to_string(input_features_) +
                    "]");
  }
}

std::future<tensor::Tensor> InferenceServer::enqueue(tensor::Tensor input) {
  Request req;
  req.input = std::move(input);
  // One relaxed load when tracing is off; a sampled request gets a
  // nonzero id and its spans land in the trace.
  req.trace_id = obs::trace().sample();
  req.enqueued = obs::now();
  std::future<tensor::Tensor> result = req.result.get_future();
  queue_.push_back(std::move(req));
  server_stats_.record_queue_depth(queue_.size());
  work_cv_.notify_one();
  return result;
}

std::future<tensor::Tensor> InferenceServer::submit(tensor::Tensor input) {
  validate_sample(input);
  util::UniqueLock lock(mu_);
  if (!stopping_ && queue_.size() >= config_.queue_capacity) {
    // Backpressure stall: the wait itself is part of the serving story,
    // so it is measured and surfaced instead of silently absorbed.
    const Clock::time_point blocked_from = obs::now();
    while (!stopping_ && queue_.size() >= config_.queue_capacity) {
      space_cv_.wait(lock);
    }
    server_stats_.record_blocked_ms(millis_between(blocked_from, obs::now()));
  }
  util::check(!stopping_, "submit on a shut-down server");
  return enqueue(std::move(input));
}

std::optional<std::future<tensor::Tensor>> InferenceServer::try_submit(
    tensor::Tensor input) {
  validate_sample(input);
  const std::size_t quota =
      config_.queue_quota > 0 ? config_.queue_quota : config_.queue_capacity;
  util::UniqueLock lock(mu_);
  util::check(!stopping_, "try_submit on a shut-down server");
  if (queue_.size() >= quota) {
    server_stats_.record_shed();
    return std::nullopt;
  }
  return enqueue(std::move(input));
}

void InferenceServer::swap(std::shared_ptr<const CompiledNet> net,
                           const ReplicaFactory& factory) {
  util::check(net != nullptr, "swap requires a non-null net");
  util::check(net->input_features() == input_features_,
              "swap: replacement net expects a different input shape");
  util::MutexLock lock(swap_mu_);
  // Publish into every SLOT, parked ones included: a later scale_to()
  // grow must hand out the current version, not a stale one.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<const CompiledNet> version;
    if (factory) {
      version = factory(s);
      util::check(version != nullptr, "swap: replica factory returned null");
    } else if (s == 0) {
      version = net;
    } else {
      version = std::make_shared<const CompiledNet>(net->clone());
    }
    shards_[s]->net.store(std::move(version));
  }
  ++swap_epoch_;
  // One tick per swap (not per replica): stats() then reports the number
  // of version publications, see stats.hpp.
  server_stats_.record_swap();
}

std::size_t InferenceServer::scale_to(std::size_t shards) {
  std::size_t target = shards;
  if (target < 1) target = 1;
  if (target > shards_.size()) target = shards_.size();
  {
    util::MutexLock lock(mu_);
    active_shards_.store(target, std::memory_order_release);
    if (workers_gauge_ != nullptr) {
      workers_gauge_->set(static_cast<double>(target * config_.num_threads));
    }
  }
  park_cv_.notify_all();  // grown shards start pulling
  return target;
}

std::size_t InferenceServer::queue_depth() const {
  util::MutexLock lock(mu_);
  return queue_.size();
}

std::size_t InferenceServer::swap_epoch() const {
  util::MutexLock lock(swap_mu_);
  return swap_epoch_;
}

std::vector<InferenceServer::Request> InferenceServer::next_batch(
    std::size_t shard) {
  util::UniqueLock lock(mu_);
  for (;;) {
    const bool active =
        shard < active_shards_.load(std::memory_order_relaxed);
    // During shutdown parked workers help drain.
    if (!queue_.empty() && (active || stopping_)) break;
    if (stopping_) return {};  // stopping and fully drained
    if (active) {
      work_cv_.wait(lock);
    } else {
      // A worker parked while it waited may have taken a wake-up meant
      // for an active one: hand it on before parking.
      if (!queue_.empty()) work_cv_.notify_one();
      park_cv_.wait(lock);
    }
  }

  // Work-conserving pickup: the head and the equal-shape run behind it,
  // right now. Requests in one tensor must agree on sample shape;
  // heterogeneous traffic simply splits into per-shape batches.
  std::vector<Request> batch;
  const tensor::Shape sample_shape = queue_.front().input.shape();
  while (!queue_.empty() && batch.size() < config_.max_batch &&
         queue_.front().input.shape() == sample_shape) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (!queue_.empty()) work_cv_.notify_one();  // the rest for an idle peer
  space_cv_.notify_all();
  return batch;
}

void InferenceServer::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    std::vector<Request> batch = next_batch(shard_index);
    if (batch.empty()) return;

    // Trace bookkeeping: the batch's worker-side spans (flush/assemble/
    // forward) are attributed to the first sampled request in it; with
    // tracing off every trace_id is 0 and each record() below is a
    // single predictable branch.
    const Clock::time_point popped = obs::now();
    std::uint64_t batch_tid = 0;
    for (const Request& req : batch) {
      if (req.trace_id != 0) {
        batch_tid = req.trace_id;
        break;
      }
    }

    const std::size_t b = batch.size();
    const std::size_t sample_elems = batch[0].input.numel();
    const std::int64_t assemble_ns = obs::to_ns(popped);
    tensor::Tensor x{batch[0].input.shape().prepended(b)};
    for (std::size_t i = 0; i < b; ++i) {
      float* dst = x.raw() + i * sample_elems;
      const float* src = batch[i].input.raw();
      for (std::size_t j = 0; j < sample_elems; ++j) dst[j] = src[j];
      // Copied into the batch: free the sample now rather than hold it
      // through the forward, a second copy of the batch per worker.
      batch[i].input = tensor::Tensor();
    }
    obs::trace().record(batch_tid, obs::SpanKind::kAssemble, "assemble",
                        assemble_ns, obs::now_ns() - assemble_ns, b);
    if (queue_wait_hist_ != nullptr) {
      for (const Request& req : batch) {
        queue_wait_hist_->observe(millis_between(req.enqueued, popped));
      }
    }

    std::vector<double> latencies_ms;
    latencies_ms.reserve(b);
    std::size_t fulfilled = 0;  // promises already satisfied by set_value
    try {
      // RCU read side: capture the shard's current version once for the
      // whole micro-batch. A concurrent swap() retargets the NEXT batch;
      // this one finishes on the version it captured, and the captured
      // shared_ptr keeps that version alive until the batch is done.
      const std::shared_ptr<const CompiledNet> net = shard.net.load();
      const std::int64_t fwd_ns = obs::now_ns();
      tensor::Tensor y;
      {
        // Per-op spans inside this forward attach to the batch's trace id
        // through the thread-local scope (see Executor::forward).
        obs::ThreadTraceScope scope(batch_tid);
        y = net->forward(x);
      }
      const std::int64_t fwd_dt = obs::now_ns() - fwd_ns;
      obs::trace().record(batch_tid, obs::SpanKind::kForward, "forward",
                          fwd_ns, fwd_dt, b);
      if (forward_seconds_ctr_ != nullptr) {
        forward_seconds_ctr_->add(static_cast<double>(fwd_dt) / 1e9);
      }
      util::check(y.rank() >= 1 && y.dim(0) == b && y.numel() % b == 0,
                  "compiled forward returned a non-batched result");
      const std::size_t out = y.numel() / b;
      const Clock::time_point done = obs::now();
      const std::int64_t popped_ns = obs::to_ns(popped);
      const std::int64_t done_ns = obs::to_ns(done);
      for (std::size_t i = 0; i < b; ++i) {
        tensor::Tensor row({out});
        const float* src = y.raw() + i * out;
        for (std::size_t j = 0; j < out; ++j) row[j] = src[j];
        batch[i].result.set_value(std::move(row));
        ++fulfilled;
        latencies_ms.push_back(millis_between(batch[i].enqueued, done));
        // Per-request spans: queue [enqueued, popped) + batch [popped,
        // done) tile the request [enqueued, done) exactly, so a trace
        // consumer can check dur(queue) + dur(batch) == dur(request).
        const std::uint64_t tid = batch[i].trace_id;
        if (tid != 0) {
          const std::int64_t enq_ns = obs::to_ns(batch[i].enqueued);
          obs::trace().record(tid, obs::SpanKind::kRequest, "request",
                              enq_ns, done_ns - enq_ns, i);
          obs::trace().record(tid, obs::SpanKind::kQueue, "queue", enq_ns,
                              popped_ns - enq_ns, i);
          obs::trace().record(tid, obs::SpanKind::kBatch, "batch",
                              popped_ns, done_ns - popped_ns, i);
        }
        if (latency_hist_ != nullptr) {
          latency_hist_->observe(latencies_ms.back());
        }
      }
      obs::trace().record(batch_tid, obs::SpanKind::kFlush, "flush",
                          popped_ns, done_ns - popped_ns, b);
      if (requests_ctr_ != nullptr) {
        requests_ctr_->add(b);
        batches_ctr_->add(1);
        batch_size_hist_->observe(static_cast<double>(b));
      }
    } catch (...) {
      // Settle only the promises that have not been fulfilled yet —
      // set_exception on a satisfied promise would itself throw and take
      // the whole worker (and process) down.
      const std::exception_ptr error = std::current_exception();
      for (std::size_t i = fulfilled; i < b; ++i) {
        batch[i].result.set_exception(error);
      }
      continue;  // failed batches do not pollute latency stats
    }
    shard.stats.record_batch(latencies_ms);
  }
}

void InferenceServer::shutdown() {
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  park_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& shard : shards_) {
    for (auto& worker : shard->workers) {
      if (worker.joinable()) worker.join();
    }
    shard->workers.clear();
  }
}

void InferenceServer::decommission() {
  shutdown();
  // Workers are joined, so nothing loads the cells anymore; clearing them
  // drops the last owning references to the warm replicas (and, for shard
  // 0, to the borrowed/shared source net). Stats stay readable.
  for (auto& shard : shards_) {
    shard->net.store(nullptr);
  }
}

StatsSnapshot InferenceServer::stats() const {
  std::vector<const ServerStats*> groups{&server_stats_};
  for (const auto& shard : shards_) groups.push_back(&shard->stats);
  return ServerStats::aggregate(groups);
}

StatsSnapshot InferenceServer::shard_stats(std::size_t shard) const {
  util::check(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->stats.snapshot();
}

}  // namespace dstee::serve
