// The two serving workloads, both driven through serve::ModelRegistry.
//
// resnet18_closed: ResNet-18 at 90% ERK, default ServerConfig, default
//   passes, CPUID-picked backend; one generator thread keeps
//   (num_threads + 1) x max_batch requests outstanding (closed loop).
//   Batches fill, so kernel and executor gains show here while the batch
//   window and hot swap are bypassed.
// mlp_open_swap: the 256-512-512-10 MLP at 90% ERK under open-loop Poisson
//   arrivals at a fixed rate, while a control thread applies a chain of v3
//   deltas built from real DstEeSession drop-and-grow rounds. Batches stay
//   small, so queueing, the batch window and batch-1 kernels dominate, and
//   the delta swaps are the writes beside the reads.
#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "data/synthetic_tabular.hpp"
#include "models.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "serve/compiled_net.hpp"
#include "serve/delta.hpp"
#include "serve/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace dstee;

namespace {

/// Model weights and the delta chain are fixed; --seed picks the request
/// inputs and arrival times.
constexpr std::uint64_t kModelSeed = 20230;
/// setup_s is the median of this many set-ups in one run. A ResNet set-up
/// takes ~45 ms, an MLP one (which trains the delta chain) ~1.3 s.
constexpr std::size_t kResnetSetupReps = 21;
constexpr std::size_t kMlpSetupReps = 5;
/// The closed loop keeps one full batch (default max_batch 16) per batch
/// thread (default 2) in flight plus one more, so a batch is always formed
/// while the others run. With only one per thread the latency is bimodal
/// (~34 and ~50 ms, by how the two threads' forwards overlap) and its p50
/// swung about twice as much as the throughput between runs.
constexpr std::size_t kOutstanding =
    (serve::ServerConfig{}.num_threads + 1) * serve::ServerConfig{}.max_batch;
/// With no response ready, the closed-loop generator blocks on its oldest
/// request for at most this long before polling the others again.
constexpr auto kClosedPollWait = std::chrono::milliseconds(1);
/// The closed-loop throughput is the completion rate the server sustains
/// in this share of the window, over successive runs of kRateChunk
/// completions (16 full batches, ~0.4 s): the lower quartile of their rates.
constexpr std::size_t kRateChunk = 256;
constexpr double kSustainedShare = 0.75;
/// Open-loop arrival rate of mlp_open_swap, a frozen constant: never
/// recalibrated per run, so a faster program gets the same load. The
/// workload is the latency-bound regime, so the rate is the one where the
/// default 2 ms batch window yields mean batches of about 3 on a 4-core
/// Xeon VM. Half of the MLP's closed-loop capacity measured there (~77k
/// req/s with 32 outstanding) would fill every batch.
constexpr double kMlpArrivalRps = 1000.0;
/// Deltas in the chain; they are applied at even intervals across the
/// timed window, whatever its length (at 1000 req/s about 1.3% of the
/// requests of a 20 s window overlap a swap, half that share in 40 s).
constexpr std::size_t kChainDeltas = 19;
/// DST-EE rounds of the delta chain: a drop-and-grow every iteration.
constexpr std::size_t kChainDeltaT = 1;
/// A traced run samples every 4th request into obs::trace().
constexpr std::uint32_t kTraceSampleEvery = 4;
/// Slack for the trace sums: per-op spans must cover the forward span to
/// within this share (executor bookkeeping between ops), and queue + batch
/// must equal the request span to within kStageSlackNs.
constexpr double kOpSumSlack = 0.10;
constexpr std::int64_t kStageSlackNs = 1000;

double warmup_seconds(const RunOptions& opt) {
  return std::min(1.0, 0.2 * opt.seconds);
}

/// Seconds -> Clock duration.
Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// True once `fut` holds its result; never blocks.
bool ready(const std::future<tensor::Tensor>& fut) {
  return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Batch-1 reference output of every pool sample under `net`.
std::vector<tensor::Tensor> batch1_outputs(
    const serve::CompiledNet& net, const std::vector<tensor::Tensor>& pool) {
  std::vector<tensor::Tensor> out;
  out.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    out.push_back(net.forward(stack(pool, i, 1)));
  }
  return out;
}

/// Per-layer serve metrics from the obs::trace() spans of a traced window,
/// plus the gates that the spans add up.
void report_server_trace(Report& report,
                         const std::vector<obs::TraceEvent>& events) {
  struct Stages {
    std::int64_t request = -1, queue = -1, batch = -1, forward = -1;
    std::int64_t op_sum = 0;
    std::size_t ops = 0;
    std::map<std::string, std::int64_t> op_ns;
  };
  std::unordered_map<std::uint64_t, Stages> by_id;
  for (const obs::TraceEvent& e : events) {
    Stages& s = by_id[e.trace_id];
    switch (e.kind) {
      case obs::SpanKind::kRequest: s.request = e.dur_ns; break;
      case obs::SpanKind::kQueue: s.queue = e.dur_ns; break;
      case obs::SpanKind::kBatch: s.batch = e.dur_ns; break;
      case obs::SpanKind::kForward: s.forward = e.dur_ns; break;
      case obs::SpanKind::kOp: {
        std::string cat = e.name;
        if (cat == "maxpool" || cat == "avgpool" || cat == "global_avg_pool") {
          cat = "pool";
        } else if (cat != "spconv" && cat != "spmm" && cat != "activation" &&
                   cat != "add") {
          cat = "other";
        }
        s.op_ns[cat] += e.dur_ns;
        s.op_sum += e.dur_ns;
        ++s.ops;
        break;
      }
      default: break;
    }
  }

  std::vector<double> queue_ms;
  std::int64_t worst_stage_gap = 0;
  std::size_t stage_checked = 0, forward_over_batch = 0;
  double fwd_in_req = 0.0, req_with_fwd = 0.0;
  std::size_t max_ops = 0;
  for (const auto& [id, s] : by_id) max_ops = std::max(max_ops, s.ops);
  std::vector<double> op_gaps;
  std::map<std::string, double> op_total_ms;
  std::size_t complete_forwards = 0;
  for (const auto& [id, s] : by_id) {
    if (s.queue >= 0) queue_ms.push_back(static_cast<double>(s.queue) / 1e6);
    if (s.request >= 0 && s.queue >= 0 && s.batch >= 0) {
      ++stage_checked;
      const std::int64_t gap = s.queue + s.batch - s.request;
      worst_stage_gap = std::max(worst_stage_gap, gap < 0 ? -gap : gap);
      if (s.forward > s.batch + kStageSlackNs) ++forward_over_batch;
    }
    if (s.request > 0 && s.forward >= 0) {
      fwd_in_req += static_cast<double>(s.forward);
      req_with_fwd += static_cast<double>(s.request);
    }
    // Rings overwrite their oldest events; only forwards whose every op
    // span survived are summed.
    if (s.forward > 0 && max_ops > 0 && s.ops == max_ops) {
      ++complete_forwards;
      op_gaps.push_back(static_cast<double>(s.forward - s.op_sum) /
                        static_cast<double>(s.forward));
      for (const auto& [cat, ns] : s.op_ns) {
        op_total_ms[cat] += static_cast<double>(ns) / 1e6;
      }
    }
  }
  const double op_gap = median(op_gaps);
  report.gate("trace_stages_sum_to_request",
              stage_checked > 0 && worst_stage_gap <= kStageSlackNs &&
                  forward_over_batch == 0,
              std::to_string(stage_checked) +
                  " sampled requests: |queue + batch - request| <= " +
                  std::to_string(worst_stage_gap) + " ns (slack " +
                  std::to_string(kStageSlackNs) + " ns), forward within batch");
  report.gate("trace_ops_sum_to_forward",
              complete_forwards > 0 && op_gap >= -0.01 && op_gap <= kOpSumSlack,
              std::to_string(complete_forwards) +
                  " forwards: median (forward - sum ops) / forward = " +
                  std::to_string(op_gap) + " (slack " +
                  std::to_string(kOpSumSlack) + ")");
  report.set("server.queue_wait_p50_ms", median(queue_ms), "ms");
  report.set("server.forward_share",
             req_with_fwd > 0 ? fwd_in_req / req_with_fwd : 0.0, "frac");
  report.set("trace.op_gap_frac", op_gap, "frac");
  const double forwards =
      static_cast<double>(std::max<std::size_t>(1, complete_forwards));
  for (const char* cat :
       {"spconv", "spmm", "activation", "add", "pool", "other"}) {
    report.set(std::string("op.") + cat + "_ms", op_total_ms[cat] / forwards,
               "ms");
  }
}

// --------------------------------------------------------------- closed loop

struct ClosedResult {
  std::vector<double> latency_ms;  ///< completions inside the window
  std::vector<Clock::time_point> done;  ///< ... and when each was seen
  double window_s = 0.0;
  std::size_t attempted = 0, failed = 0, mismatched = 0;
};

/// One generator thread keeps kOutstanding requests in flight. It stamps
/// each request as soon as it sees its future ready, checks it bit-equal
/// to its batch-1 reference and refills at once, so a batch that finishes
/// before an older one is neither held back nor charged for it. With none
/// ready it blocks on the oldest for up to kClosedPollWait, so a younger
/// one is stamped at most that late (plus the host's wake-up delay).
/// Blocking rather than spinning, as the open loop does, leaves the CPU to
/// the compute-bound batch threads: on a 4-core Xeon VM it halved the
/// run-to-run spread of the ResNet throughput (22% -> 11% of the median
/// over 10 interleaved 6 s runs).
/// Completions during the warm-up are checked, not timed.
ClosedResult closed_window(serve::ModelRegistry& registry,
                           const std::string& name,
                           const std::vector<tensor::Tensor>& pool,
                           const std::vector<tensor::Tensor>& refs,
                           std::uint64_t seed, double warmup_s,
                           double seconds, SpanRecorder& spans) {
  struct Pending {
    std::future<tensor::Tensor> fut;
    std::size_t sample = 0;
    Clock::time_point submitted;
  };
  ClosedResult out;
  util::Rng rng(seed);
  std::vector<Pending> inflight;  // in submission order
  inflight.reserve(kOutstanding);
  std::uint64_t next_id = 1;
  Clock::time_point window, window_end;
  const auto submit_one = [&] {
    Pending p;
    p.sample = rng.uniform_index(pool.size());
    p.submitted = Clock::now();
    p.fut = registry.submit(name, pool[p.sample]);
    inflight.push_back(std::move(p));
    ++out.attempted;
  };
  const auto complete = [&](Pending& p, Clock::time_point done) {
    try {
      const tensor::Tensor y = p.fut.get();
      if (!bit_equal(refs[p.sample], y.raw())) ++out.mismatched;
      if (done >= window && done < window_end) {
        out.latency_ms.push_back(ms_between(p.submitted, done));
        out.done.push_back(done);
        spans.record("request", next_id++, 0, p.submitted, done, 1);
      }
    } catch (const std::exception&) {
      ++out.failed;
    }
  };
  // Completes every ready request, then refills while `refill`.
  const auto poll = [&](bool refill) {
    bool any = false;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (!ready(it->fut)) {
        ++it;
        continue;
      }
      complete(*it, Clock::now());
      it = inflight.erase(it);
      any = true;
    }
    while (refill && inflight.size() < kOutstanding) submit_one();
    if (!any && !inflight.empty()) {
      inflight.front().fut.wait_for(kClosedPollWait);
    }
  };
  while (inflight.size() < kOutstanding) submit_one();
  window = Clock::now() + secs(warmup_s);
  window_end = window + secs(seconds);
  while (Clock::now() < window_end) poll(true);
  out.window_s = seconds;
  while (!inflight.empty()) poll(false);
  return out;
}

/// Sustained completions per second of a closed window: the rate that
/// successive runs of kRateChunk completions reach or beat in
/// kSustainedShare of the runs. The batch threads never lose their CPUs
/// (process CPU time stays at 2.0x wall time), but the shared host speeds
/// them up in bursts whose share of a window varies from run to run, while
/// its loaded speed is a steady floor. Over ten 15 s runs on a 4-core Xeon
/// VM, the quartile spread of completions over the window's length was 24%
/// of the median and that of the chunk rates' median 26%, but that of
/// their lower quartile 19%; over ten 30 s runs in a calmer hour, 9%, 9%
/// and 7%. A program change moves every chunk, so it moves this rate too.
/// A window too short for two chunks reports completions over its length.
double closed_rate(const ClosedResult& r) {
  std::vector<Clock::time_point> done = r.done;
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  for (std::size_t i = kRateChunk; i < done.size(); i += kRateChunk) {
    const double span_s =
        std::chrono::duration<double>(done[i] - done[i - kRateChunk]).count();
    if (span_s > 0.0) rates.push_back(static_cast<double>(kRateChunk) / span_s);
  }
  if (rates.size() < 2) {
    return static_cast<double>(done.size()) / r.window_s;
  }
  return quantile(rates, 1.0 - kSustainedShare);
}

/// The ResNet-18 serving net: built, sparsified and registered.
std::unique_ptr<serve::ModelRegistry> resnet18_registry() {
  auto registry = std::make_unique<serve::ModelRegistry>();
  SparseNet net = make_resnet18(kModelSeed);
  registry->add_model("resnet18", std::move(net.module), std::move(net.state));
  return registry;
}

// ------------------------------------------------------------- delta chain

/// The MLP's served versions: the base and a chain of deltas, each from
/// one real DstEeSession drop-and-grow round (plus the SGD steps between
/// rounds), with every version's batch-1 outputs on the input pool.
struct Chain {
  SparseNet base;
  std::vector<serve::CheckpointDelta> deltas;
  std::vector<std::vector<tensor::Tensor>> refs;  ///< [version][sample]
  std::vector<double> make_ms;
  double exploration_rate = 0.0;
};

/// Builds a chain of `n` deltas. Returns the set-up seconds spent (chain
/// training, snapshots and make_delta), which excludes computing the
/// reference outputs when `pool` is given.
double build_chain(std::size_t n, const std::vector<tensor::Tensor>* pool,
                   SpanRecorder& spans, Chain& chain) {
  const Clock::time_point start = Clock::now();
  double excluded_s = 0.0;
  const auto add_refs = [&](const SparseNet& v) {
    if (pool == nullptr) return;
    const Clock::time_point t0 = Clock::now();
    const serve::CompiledNet net =
        serve::CompiledNet::compile(*v.module, v.state.get());
    chain.refs.push_back(batch1_outputs(net, *pool));
    excluded_s += seconds_since(t0);
  };

  data::SyntheticTabularConfig dcfg;
  dcfg.num_classes = 10;
  dcfg.features = mlp_config().in_features;
  dcfg.train_per_class = 32;
  dcfg.test_per_class = 1;
  dcfg.seed = kModelSeed;
  const data::SyntheticTabularDataset data(
      dcfg, data::SyntheticTabularDataset::Split::kTrain);
  util::Rng rng(kModelSeed);
  models::Mlp model(mlp_config(), rng);
  core::DstEeConfig ee;
  ee.sparsity = kSparsity;
  ee.delta_t = kChainDeltaT;
  ee.stop_fraction = 1.0;
  DstTrainer trainer(model, data, 32, ee, n * kChainDeltaT + 1, 0.05, 0.0,
                     kModelSeed);

  chain.base = snapshot_mlp(model, trainer.session.sparse_model());
  add_refs(chain.base);
  SparseNet prev = snapshot_mlp(model, trainer.session.sparse_model());
  std::uint64_t step_id = 1u << 20;
  for (std::size_t it = 0; chain.deltas.size() < n; ++it) {
    const Clock::time_point t0 = Clock::now();
    model.set_training(true);
    const DstTrainer::Step step = trainer.step(it, spans, step_id);
    spans.record("train.step", step_id, 0, t0, Clock::now(), 0);
    step_id += 8;
    if (!step.updated) continue;
    SparseNet next = snapshot_mlp(model, trainer.session.sparse_model());
    const Clock::time_point m0 = Clock::now();
    chain.deltas.push_back(serve::make_delta(*prev.module, prev.state.get(),
                                             *next.module, next.state.get()));
    const Clock::time_point m1 = Clock::now();
    spans.record("delta.make", chain.deltas.size(), 0, m0, m1, 0);
    chain.make_ms.push_back(ms_between(m0, m1));
    add_refs(next);
    prev = std::move(next);
  }
  chain.exploration_rate = trainer.session.exploration_rate();
  return seconds_since(start) - excluded_s;
}

// ---------------------------------------------------------------- open loop

struct OpenResult {
  std::vector<double> latency_ms;       ///< arrivals due inside the window
  std::vector<double> swap_latency_ms;  ///< ... whose life overlaps a swap
  std::vector<double> late_ms;          ///< submit time - due time
  std::vector<double> apply_ms;
  std::vector<serve::SwapReport> swaps;
  /// Completions inside the window, whenever their request was due: a
  /// server that falls behind completes fewer than the arrivals.
  std::size_t completed = 0;
  double window_s = 0.0;
  std::size_t attempted = 0, failed = 0, mismatched = 0, stale = 0,
              ambiguous = 0;
  std::string error;  ///< the first exception a thread caught
};

/// Open-loop Poisson arrivals. One thread spins on the clock, yielding
/// between polls: it submits each request at its due time and polls the
/// in-flight futures, checking each response against every chain version
/// as it completes. Sleeping would not do: a sleeping thread on a 4-core
/// Xeon VM wakes up to 5 ms late at p99, which would swamp the latencies
/// being measured. A control thread
/// applies the chain's deltas at even intervals inside the window.
OpenResult open_window(serve::ModelRegistry& registry, const Chain& chain,
                       const std::vector<tensor::Tensor>& pool,
                       std::uint64_t seed, double warmup_s, double seconds,
                       SpanRecorder& spans) {
  struct Pending {
    std::future<tensor::Tensor> fut;
    std::size_t sample = 0;
    Clock::time_point due;
    std::size_t min_version = 0;  ///< deltas applied before the submit
    std::uint64_t id = 0;
  };
  struct Window {
    Clock::time_point start, end;
  };
  OpenResult out;
  std::atomic<std::size_t> swaps_started{0}, swaps_done{0};
  std::vector<Window> swap_windows;  // control thread only until joined
  std::vector<Window> timed;         // [due, done] of timed requests
  std::string control_error;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point window = t0 + secs(warmup_s);
  const Clock::time_point window_end = window + secs(seconds);

  std::thread control([&] {
    try {
      const double interval_s =
          seconds / static_cast<double>(chain.deltas.size() + 1);
      for (std::size_t k = 0; k < chain.deltas.size(); ++k) {
        std::this_thread::sleep_until(
            window + secs(interval_s * static_cast<double>(k + 1)));
        swaps_started.store(k + 1);
        const Clock::time_point s0 = Clock::now();
        const serve::SwapReport rep =
            registry.apply_delta("mlp", chain.deltas[k]);
        const Clock::time_point s1 = Clock::now();
        swaps_done.store(k + 1);
        spans.record("registry.apply_delta", k + 1, 0, s0, s1, 2);
        out.apply_ms.push_back(ms_between(s0, s1));
        out.swaps.push_back(rep);
        swap_windows.push_back({s0, s1});
      }
    } catch (const std::exception& e) {
      control_error = e.what();
    }
  });

  const auto complete = [&](Pending& p, Clock::time_point done) {
    try {
      const tensor::Tensor y = p.fut.get();
      const std::size_t max_version = swaps_started.load();
      std::size_t matches = 0, version = 0;
      for (std::size_t v = 0; v < chain.refs.size(); ++v) {
        if (bit_equal(chain.refs[v][p.sample], y.raw())) {
          ++matches;
          version = v;
        }
      }
      if (matches == 0) {
        ++out.mismatched;
      } else if (matches > 1) {
        ++out.ambiguous;
      } else if (version < p.min_version || version > max_version) {
        ++out.stale;
      }
      if (done >= window && done < window_end) ++out.completed;
      if (p.due >= window && p.due < window_end) {
        out.latency_ms.push_back(ms_between(p.due, done));
        timed.push_back({p.due, done});
        spans.record("request", p.id, 0, p.due, done, 1);
      }
    } catch (const std::exception&) {
      ++out.failed;
    }
  };

  util::Rng rng(seed);
  double offset_s = 0.0;
  const auto next_due = [&] {
    offset_s += -std::log(1.0 - rng.uniform()) / kMlpArrivalRps;
    return t0 + secs(offset_s);
  };
  Clock::time_point due = next_due();
  std::vector<Pending> inflight;
  std::uint64_t id = 1;
  try {
    while (due < window_end || !inflight.empty()) {
      const Clock::time_point now = Clock::now();
      if (due < window_end && now >= due) {
        Pending p;
        p.sample = rng.uniform_index(pool.size());
        p.due = due;
        p.min_version = swaps_done.load();
        p.id = id++;
        p.fut = registry.submit("mlp", pool[p.sample]);
        if (due >= window) out.late_ms.push_back(ms_between(due, now));
        ++out.attempted;
        inflight.push_back(std::move(p));
        due = next_due();
      }
      std::this_thread::yield();
      for (std::size_t i = 0; i < inflight.size();) {
        if (!ready(inflight[i].fut)) {
          ++i;
          continue;
        }
        complete(inflight[i], Clock::now());
        inflight[i] = std::move(inflight.back());
        inflight.pop_back();
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  control.join();
  if (out.error.empty()) out.error = control_error;
  out.window_s = seconds;
  for (const Window& d : timed) {
    for (const Window& s : swap_windows) {
      if (d.start <= s.end && d.end >= s.start) {
        out.swap_latency_ms.push_back(ms_between(d.start, d.end));
        break;
      }
    }
  }
  return out;
}

std::unique_ptr<serve::ModelRegistry> mlp_registry(const Chain& chain) {
  auto registry = std::make_unique<serve::ModelRegistry>();
  SparseNet v0 = snapshot_mlp(*chain.base.module, *chain.base.state);
  registry->add_model("mlp", std::move(v0.module), std::move(v0.state));
  return registry;
}

}  // namespace

/// Every metric of a layer the workload does not exercise, reported as
/// the zero work it did there.
void report_idle_layers(Report& report, bool serves, bool swaps,
                        bool trains) {
  struct Unit {
    const char* name;
    const char* unit;
  };
  if (!serves) {
    for (const Unit& m : std::initializer_list<Unit>{
             {"server.mean_batch_size", "count"},
             {"server.queue_peak", "count"},
             {"server.queue_wait_p50_ms", "ms"},
             {"server.forward_share", "frac"},
             {"trace.op_gap_frac", "frac"},
             {"op.spconv_ms", "ms"},
             {"op.spmm_ms", "ms"},
             {"op.activation_ms", "ms"},
             {"op.add_ms", "ms"},
             {"op.pool_ms", "ms"},
             {"op.other_ms", "ms"}}) {
      report.set(m.name, 0.0, m.unit);
    }
  }
  if (!swaps) {
    for (const Unit& m : std::initializer_list<Unit>{
             {"loadgen.late_p99_ms", "ms"},
             {"registry.apply_delta_p50_ms", "ms"},
             {"registry.swap_window_p99_ms", "ms"},
             {"registry.patched_node_frac", "frac"},
             {"registry.full_recompiles", "count"},
             {"registry.swaps", "count"},
             {"delta.make_ms", "ms"}}) {
      report.set(m.name, 0.0, m.unit);
    }
  }
  if (!trains) report_train_layers(report, {}, 0.0);
}

void write_traces(const RunOptions& opt, const SpanRecorder& spans,
                  Report& report) {
  if (opt.trace_dir.empty()) return;
  const std::string stem = opt.trace_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  bool ok = spans.write_chrome_trace(stem + ".bench.json");
  std::ofstream os(stem + ".obs.json");
  obs::trace().write_chrome_trace(os);
  ok = ok && static_cast<bool>(os);
  report.gate("trace_written", ok, stem + ".{bench,obs}.json");
}

void run_resnet18_closed(const RunOptions& opt, Report& report) {
  SpanRecorder spans(opt.trace);
  const tensor::Shape sample({3, 32, 32});

  std::vector<double> setup_s;
  std::unique_ptr<serve::ModelRegistry> registry;
  for (std::size_t rep = 0; rep < kResnetSetupReps; ++rep) {
    registry.reset();
    const Clock::time_point t0 = Clock::now();
    registry = resnet18_registry();
    setup_s.push_back(seconds_since(t0));
    spans.record("setup", rep + 1, 0, t0, Clock::now(), 0);
  }

  // References: a second copy of the same model, compiled directly.
  SparseNet ref = make_resnet18(kModelSeed);
  const serve::CompiledNet ref_net =
      serve::CompiledNet::compile(*ref.module, ref.state.get());
  const std::vector<tensor::Tensor> pool = make_inputs(sample, 64, opt.seed);
  const std::vector<tensor::Tensor> refs = batch1_outputs(ref_net, pool);
  const tensor::Tensor probe = stack(pool, 0, 4);
  report.gate("compiled_allclose_dense",
              close_to(ref_net.forward(probe), ref.module->forward(probe), 1e-4,
                       1e-3),
              "compiled vs nn eval forward, batch 4, atol 1e-4 rtol 1e-3");

  const double warm = warmup_seconds(opt);
  SpanRecorder off(false);
  ClosedResult r = closed_window(*registry, "resnet18", pool, refs, opt.seed,
                                 warm, opt.seconds, off);
  const double untraced_rps = closed_rate(r);
  if (opt.trace) {
    obs::trace().enable(kTraceSampleEvery);
    ClosedResult traced = closed_window(*registry, "resnet18", pool, refs,
                                        opt.seed, warm, opt.seconds, spans);
    obs::trace().disable();
    traced.attempted += r.attempted;
    traced.failed += r.failed;
    traced.mismatched += r.mismatched;
    const double traced_rps = closed_rate(traced);
    report.set("obs.trace_overhead_frac", 1.0 - traced_rps / untraced_rps,
               "frac");
    r = std::move(traced);
  }
  const serve::StatsSnapshot stats = registry->stats("resnet18");
  registry->shutdown();

  report.add_attempted(r.attempted);
  report.add_failed(r.failed);
  report.gate("responses_match_batch1", r.mismatched == 0 && r.failed == 0,
              std::to_string(r.attempted - r.mismatched - r.failed) + "/" +
                  std::to_string(r.attempted) +
                  " responses bit-equal to a batch-1 CompiledNet::forward");
  const double samples = static_cast<double>(r.latency_ms.size());
  if (!opt.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("throughput_per_s", closed_rate(r), "1/s");
    report.set("latency_p50_ms", quantile(r.latency_ms, 0.5), "ms");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }
  report.set("latency_samples", samples, "count");
  report.set("latency_p95_ms", quantile(r.latency_ms, 0.95), "ms");
  report.set("latency_p99_ms", quantile(r.latency_ms, 0.99), "ms");
  report.set("failed_frac",
             static_cast<double>(r.failed) / static_cast<double>(r.attempted),
             "frac");
  report.set("server.mean_batch_size", stats.mean_batch_size, "count");
  report.set("server.queue_peak", static_cast<double>(stats.queue_peak),
             "count");
  report_server_trace(report, obs::trace().drain());
  report_idle_layers(report, true, false, false);
  probe_serving_layers(report, spans, *ref.module, *ref.state, sample,
                       opt.seed);
  write_traces(opt, spans, report);
}

void run_mlp_open_swap(const RunOptions& opt, Report& report) {
  SpanRecorder spans(opt.trace);
  const tensor::Shape sample({mlp_config().in_features});
  const std::vector<tensor::Tensor> pool = make_inputs(sample, 256, opt.seed);
  const std::size_t n = kChainDeltas;

  // Set-up: the DST-EE chain (training rounds + make_delta) and the
  // registry; repeated, the chain must come out identical every time.
  std::vector<double> setup_s;
  Chain chain;
  std::unique_ptr<serve::ModelRegistry> registry;
  bool deterministic = true;
  std::uint64_t last_hash = 0;
  for (std::size_t rep = 0; rep < kMlpSetupReps; ++rep) {
    const bool last = rep + 1 == kMlpSetupReps;
    registry.reset();
    Chain c;
    const Clock::time_point t0 = Clock::now();
    double s = build_chain(n, last ? &pool : nullptr, spans, c);
    const Clock::time_point r0 = Clock::now();
    registry = mlp_registry(c);
    s += seconds_since(r0);
    spans.record("setup", rep + 1, 0, t0, Clock::now(), 0);
    setup_s.push_back(s);
    if (rep > 0 && c.deltas.back().result_hash != last_hash) {
      deterministic = false;
    }
    last_hash = c.deltas.back().result_hash;
    if (last) chain = std::move(c);
  }
  report.gate("chain_deterministic", deterministic,
              std::to_string(kMlpSetupReps) + " set-ups built the same " +
                  std::to_string(n) + "-delta chain");
  report.gate("chain_base_matches_registry",
              registry->state_hash("mlp") == chain.deltas.front().base_hash,
              "registry state hash equals the first delta's base hash");

  const double warm = warmup_seconds(opt);
  SpanRecorder off(false);
  OpenResult r = open_window(*registry, chain, pool, opt.seed, warm,
                             opt.seconds, off);
  const std::uint64_t final_hash = registry->state_hash("mlp");
  serve::StatsSnapshot stats = registry->stats("mlp");
  registry->shutdown();
  if (opt.trace) {
    // Same arrivals and chain on a fresh registry, traced this time.
    const double untraced_p50 = quantile(r.latency_ms, 0.5);
    auto traced_registry = mlp_registry(chain);
    obs::trace().enable(kTraceSampleEvery);
    OpenResult traced = open_window(*traced_registry, chain, pool, opt.seed,
                                    warm, opt.seconds, spans);
    obs::trace().disable();
    stats = traced_registry->stats("mlp");
    traced_registry->shutdown();
    report.set("obs.trace_overhead_frac",
               quantile(traced.latency_ms, 0.5) / untraced_p50 - 1.0, "frac");
    traced.attempted += r.attempted;
    traced.failed += r.failed;
    traced.mismatched += r.mismatched;
    traced.stale += r.stale;
    traced.ambiguous += r.ambiguous;
    if (traced.error.empty()) traced.error = r.error;
    r = std::move(traced);
  }

  report.add_attempted(r.attempted);
  report.add_failed(r.failed);
  report.gate("load_generator_ran", r.error.empty(),
              r.error.empty() ? "no helper-thread errors" : r.error);
  report.gate("responses_match_one_version",
              r.mismatched == 0 && r.ambiguous == 0 && r.failed == 0,
              std::to_string(r.mismatched) + " unmatched, " +
                  std::to_string(r.ambiguous) + " ambiguous, " +
                  std::to_string(r.failed) + " failed of " +
                  std::to_string(r.attempted));
  report.gate("no_stale_version", r.stale == 0,
              std::to_string(r.stale) +
                  " responses older than a delta applied before submit");
  std::size_t full = 0, patched = 0, total_nodes = 0;
  for (const serve::SwapReport& s : r.swaps) {
    full += s.full_recompile ? 1 : 0;
    patched += s.patched_weight_nodes;
    total_nodes += s.total_weight_nodes;
  }
  report.gate("all_deltas_applied", r.swaps.size() == n,
              std::to_string(r.swaps.size()) + "/" + std::to_string(n) +
                  " deltas applied in the window");
  report.gate("final_hash_matches_chain",
              final_hash == chain.deltas.back().result_hash,
              "state_hash after the window equals the last result_hash");
  report.gate("no_full_recompile", full == 0,
              std::to_string(full) + " swaps fell back to a full recompile");

  const double samples = static_cast<double>(r.latency_ms.size());
  if (!opt.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("throughput_per_s",
               static_cast<double>(r.completed) / r.window_s, "1/s");
    report.set("latency_p50_ms", quantile(r.latency_ms, 0.5), "ms");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }
  report.set("latency_samples", samples, "count");
  report.set("latency_p95_ms", quantile(r.latency_ms, 0.95), "ms");
  report.set("latency_p99_ms", quantile(r.latency_ms, 0.99), "ms");
  report.set("failed_frac",
             static_cast<double>(r.failed) / static_cast<double>(r.attempted),
             "frac");
  report.set("server.mean_batch_size", stats.mean_batch_size, "count");
  report.set("server.queue_peak", static_cast<double>(stats.queue_peak),
             "count");
  report.set("loadgen.late_p99_ms", quantile(r.late_ms, 0.99), "ms");
  report.set("registry.apply_delta_p50_ms", median(r.apply_ms), "ms");
  report.set("registry.swap_window_p99_ms", quantile(r.swap_latency_ms, 0.99),
             "ms");
  report.set("registry.patched_node_frac",
             total_nodes > 0 ? static_cast<double>(patched) /
                                   static_cast<double>(total_nodes)
                             : 0.0,
             "frac");
  report.set("registry.full_recompiles", static_cast<double>(full), "count");
  report.set("registry.swaps", static_cast<double>(r.swaps.size()), "count");
  report.set("delta.make_ms", median(chain.make_ms), "ms");
  report_server_trace(report, obs::trace().drain());
  report_train_layers(report, spans.spans(), chain.exploration_rate);
  SparseNet v0 = snapshot_mlp(*chain.base.module, *chain.base.state);
  probe_serving_layers(report, spans, *v0.module, *v0.state, sample, opt.seed);
  write_traces(opt, spans, report);
}

}  // namespace perfbench
