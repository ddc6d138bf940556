// InferenceServer: one bounded request queue per model, drained by
// sharded worker groups with work-conserving micro-batching and RCU-style
// zero-downtime hot swap of the served network.
//
// Clients submit single samples — rank-1 [features] rows for MLPs, rank-3
// [C, H, W] images for conv nets — and get a future for the result row.
// Every request lands in the server's ONE FIFO queue. The server runs up
// to `max_shards` worker GROUPS; each holds a versioned replica of the
// compiled network in a util::RcuCell (shard 0 serves the published net
// itself, shards 1.. serve clones built at construction/swap time) and
// `num_threads` workers. The workers of every active group pull from the
// shared queue, so adding a group adds pullers, never splits a batch.
//
// WORKERS: by default one shard runs one worker per core of the runtime
// budget (runtime::default_parallelism(), the budget the intra-op pool
// uses), so a default server computes on every core. Each worker holds
// one batch's activations, which the executor's last-use donation and
// batch tiles keep to the plan's peak_live_bytes(). Configs with several
// shards or models set `num_threads` so that shards × workers ×
// intra-op chunks stays within the one budget. With `metrics` set the
// server exports `dstee_workers` and `dstee_forward_seconds_total`, whose
// ratio over a wall window is the workers' utilisation
// (serve::worker_utilisation).
//
// WORK-CONSERVING PICKUP: an idle worker takes the head request plus the
// run of equal-shape requests queued right behind it, up to `max_batch`,
// at once — there is no batch window. At low load that is batch 1, so
// latency is the forward time; under load requests queue while the
// workers compute and batches fill by themselves. Heterogeneous traffic
// splits at shape changes. The worker runs the batch through its group's
// CompiledNet (whose forward is const and thread-safe).
//
// HOT SWAP: swap() publishes a new CompiledNet version into every
// shard's RcuCell. A worker captures the version pointer once per
// micro-batch, so in-flight batches finish on the version they captured,
// the next batch picks up the new one, and the old version is destroyed
// when its last reference drops — no drain, no pause, no dropped
// requests. The optional replica factory lets a delta-patched swap build
// each shard's replica off to the side (sharing untouched weights)
// instead of full-cloning.
//
// ADMISSION CONTROL: submit() applies backpressure — it blocks while
// `queue_capacity` requests are already waiting in the model's queue,
// and the stall is recorded in the server stats. try_submit() never
// blocks: beyond the model's `queue_quota` (capacity when 0) the request
// is shed and counted in `shed_total`.
//
// SCALING: shard slots are pre-built up to `max_shards`; scale_to()
// changes only how many of them pull from the queue. Parked groups
// finish the batch they hold and idle with their replica warm; growing
// wakes them.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/clock.hpp"
#include "runtime/pool.hpp"
#include "serve/compiled_net.hpp"
#include "serve/stats.hpp"
#include "tensor/tensor.hpp"
#include "util/rcu.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dstee::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace dstee::obs

namespace dstee::serve {

/// The worker default of ServerConfig: the runtime budget,
/// runtime::default_parallelism(). ServerConfig{} stays usable in
/// constant expressions, where no environment can be read; there (and
/// so in a constant-initialized static ServerConfig) this is the build
/// host's logical core count, detected at configure time.
constexpr std::size_t default_workers() {
  if (std::is_constant_evaluated()) {
#ifdef DSTEE_BUILD_HOST_CORES
    return DSTEE_BUILD_HOST_CORES;
#else
    return 1;
#endif
  }
  return runtime::default_parallelism();
}

struct ServerConfig {
  /// Batch-executing threads PER shard; defaults to the runtime budget
  /// (default_workers()). Multi-shard and fleet configs set it (see
  /// WORKERS above).
  std::size_t num_threads = default_workers();
  std::size_t num_shards = 1;    ///< initially ACTIVE replica worker groups
  std::size_t max_batch = 16;    ///< most requests one forward takes
  std::size_t queue_capacity = 4096;  ///< per model; submit() blocks beyond
  std::size_t max_shards = 0;    ///< scaling headroom; 0 = num_shards
  std::size_t queue_quota = 0;   ///< try_submit() sheds beyond this; 0 =
                                 ///< shed only at queue_capacity
  /// When set, workers record per-request latency and queue wait, batch
  /// sizes, request/batch counts and forward seconds into this registry
  /// (labeled `metrics_label`), and the server keeps a `dstee_workers`
  /// gauge of its active workers, in addition to the internal
  /// ServerStats. Worker utilisation over a window is forward seconds ÷
  /// (workers × wall). Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_label;  ///< `model` label on exported metrics
};

/// Multi-threaded work-conserving batching front-end over replicated
/// CompiledNets.
class InferenceServer {
 public:
  /// Builds each shard's replica for a new version being swapped in;
  /// called once per shard (including shard 0). Lets ApplyDelta-style
  /// swaps share untouched weights with the outgoing version instead of
  /// full-cloning. Must return a non-null net of identical architecture.
  using ReplicaFactory =
      std::function<std::shared_ptr<const CompiledNet>(std::size_t shard)>;

  /// `net` must outlive the server (it is borrowed, not owned; shard 0
  /// serves it directly and shards 1.. serve clones built here). Workers
  /// start immediately.
  InferenceServer(const CompiledNet& net, ServerConfig config);

  /// Shared-ownership variant: the server keeps the net alive for as
  /// long as any shard or in-flight batch references it — required for
  /// hot swap, where the caller may drop its reference after swap().
  InferenceServer(std::shared_ptr<const CompiledNet> net,
                  ServerConfig config);

  /// Stops accepting work, drains the queue, joins workers.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one sample (rank >= 1, WITHOUT a batch axis: [features] or
  /// [C, H, W]) and returns a future for its output row (rank-1). Blocks
  /// while the queue is full; throws CheckError after
  /// shutdown() or on a shape mismatch the net can detect up front.
  std::future<tensor::Tensor> submit(tensor::Tensor input);

  /// Admission-controlled submit: never blocks. Returns nullopt — and
  /// counts one shed — when the queue already holds `queue_quota` (or
  /// queue_capacity, whichever bounds first) requests. Throws after
  /// shutdown(), like submit().
  std::optional<std::future<tensor::Tensor>> try_submit(tensor::Tensor input);

  /// Publishes `net` as the serving version on every shard slot (active
  /// and parked). In-flight batches finish on the version they captured;
  /// requests already queued and all later submits run on the new one.
  /// `factory`, when set, builds each shard's replica (otherwise shard 0
  /// serves `net` itself and shards 1.. full clones of it). The new net
  /// must report the same input_features() as the one served so far.
  void swap(std::shared_ptr<const CompiledNet> net,
            const ReplicaFactory& factory = nullptr);

  /// Sets how many shard slots pull from the queue, clamped to
  /// [1, max_shards]. Returns the resulting active count. Shrinking
  /// parks the tail shards: they finish the batch they hold and idle,
  /// keeping their replica warm for a later grow.
  std::size_t scale_to(std::size_t shards);

  std::size_t num_active_shards() const {
    return active_shards_.load(std::memory_order_acquire);
  }

  /// Queued (not yet batched) requests.
  std::size_t queue_depth() const;

  /// Number of swap() publications so far.
  std::size_t swap_epoch() const;

  /// Idempotent: rejects new submissions, lets workers drain what is
  /// already queued, then joins them.
  void shutdown();

  /// shutdown() + releases every shard's warm replica (the RcuCells are
  /// cleared once the workers are joined, so nothing loads them). The
  /// eviction path: a decommissioned server keeps answering stats() but
  /// holds no weight memory. submit()/try_submit() throw, like after
  /// shutdown().
  void decommission();

  /// Server-wide view: every shard's batches and latencies plus the
  /// queue's peak, backpressure stalls, sheds and swaps.
  StatsSnapshot stats() const;

  /// One shard's batches and latency tail (how the groups share the
  /// queue). Queue-level counters are server-wide, see stats().
  StatsSnapshot shard_stats(std::size_t shard) const;

  /// Shard SLOTS (the scaling ceiling); see num_active_shards() for how
  /// many currently pull from the queue.
  std::size_t num_shards() const { return shards_.size(); }

  const ServerConfig& config() const { return config_; }

 private:
  struct Request {
    tensor::Tensor input;
    std::promise<tensor::Tensor> result;
    obs::Clock::time_point enqueued;
    /// Nonzero when this request was picked by the trace sampler; its
    /// queue/batch/compute spans are recorded under this id.
    std::uint64_t trace_id = 0;
  };

  /// One worker group: a versioned replica, workers and stats. `net` is
  /// an RcuCell (workers capture a version per batch, swap publishes new
  /// ones); `stats` is internally synchronized; `workers` is touched only
  /// by the constructing/joining thread (never by the workers themselves).
  struct Shard {
    util::RcuCell<CompiledNet> net;  ///< current version for this shard
    ServerStats stats;               ///< this group's batches and latencies
    // Shard workers ARE the serving inter-op layer (long-lived batchers,
    // not pool tasks): constructed in the InferenceServer ctor, joined in
    // shutdown(), never touched in between.
    // dstee-lint: allow(raw-thread) -- the one sanctioned spawn site
    std::vector<std::thread> workers;
  };

  /// Shared tail of submit()/try_submit(): enqueue and hand back the
  /// future.
  std::future<tensor::Tensor> enqueue(tensor::Tensor input)
      DSTEE_REQUIRES(mu_);

  void validate_sample(const tensor::Tensor& input) const;

  void worker_loop(std::size_t shard);
  /// Blocks until `shard` is active and the queue is non-empty, then pops
  /// the head request and the equal-shape run behind it, up to
  /// max_batch. Empty result means shutdown with the queue drained.
  std::vector<Request> next_batch(std::size_t shard);

  ServerConfig config_;
  std::size_t input_features_ = 0;  ///< from the source net, for validation
  std::vector<std::unique_ptr<Shard>> shards_;

  // The model's one request queue. `mu_` guards it, the stopping flag and
  // writes of active_shards_. Active workers wait on work_cv_, parked
  // ones on park_cv_, so an enqueue's notify_one wakes a worker that may
  // take the request.
  mutable util::Mutex mu_;
  util::CondVar work_cv_;   ///< signals work / shutdown to active workers
  util::CondVar park_cv_;   ///< signals activation / shutdown when parked
  util::CondVar space_cv_;  ///< signals queue room to blocked submitters
  std::deque<Request> queue_ DSTEE_GUARDED_BY(mu_);
  bool stopping_ DSTEE_GUARDED_BY(mu_) = false;
  /// Shards [0, active) pull from the queue. Stored under mu_ (a waiting
  /// worker cannot miss a change), read lock-free by num_active_shards().
  std::atomic<std::size_t> active_shards_{1};

  /// Queue peak, submit() stalls, sheds and swaps; batches and latencies
  /// are recorded per shard.
  ServerStats server_stats_;

  // Optional obs export, resolved once in the constructor (metric
  // objects are pointer-stable for the registry's lifetime); null when
  // config_.metrics is null. The update path is lock-free either way.
  obs::Histogram* latency_hist_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Counter* requests_ctr_ = nullptr;
  obs::Counter* batches_ctr_ = nullptr;
  obs::Counter* forward_seconds_ctr_ = nullptr;
  obs::Gauge* workers_gauge_ = nullptr;

  /// Serializes swap() publications so every shard observes versions in
  /// the same order (workers only ever load).
  mutable util::Mutex swap_mu_;
  std::size_t swap_epoch_ DSTEE_GUARDED_BY(swap_mu_) = 0;
};

}  // namespace dstee::serve
