// serve_throughput — dense eval forward vs. compiled-CSR forward, plus
// sharded-server scaling.
//
// The deployment claim of the sparse-training story: once the topology is
// fixed, inference cost should track density. This bench sweeps sparsity
// (50–95%) × batch size on an MLP workload (CSR SpMM) and a VGG-style conv
// workload (direct sparse conv) and reports rows/second for the dense
// training-stack forward and the serve::CompiledNet CSR forward, plus the
// speedup. Rows land in bench_results/serve_throughput.csv with a
// `workload` column.
//
// A shard sweep follows: InferenceServer aggregate closed-loop throughput
// at 1 and 2 shards (replicated CompiledNets pulling from one queue),
// failing hard when 2 shards serve fewer req/s than 1 on a multi-core
// host. Its rows land in bench_results/serve_scaling.csv.
//
// Pass ratios, per-backend and int8 forwards, hot-swap latency and
// tracing overhead are measured by perfbench (perfbench/README.md); the
// bit-identity contracts behind them are CTest cases.
//
// DSTEE_SCALE scales the model width; DSTEE_SERVE_MIN_TIME (seconds, default
// 0.15) controls per-cell measurement time.
#include <atomic>
#include <thread>

#include "bench_common.hpp"
#include "models/mlp.hpp"
#include "models/vgg.hpp"
#include "serve/compiled_net.hpp"
#include "serve/server.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/init.hpp"

namespace dstee {
namespace {

/// Rows/second of `fn` (which consumes `rows` rows per call), time-boxed.
double measure_rows_per_s(const std::function<void()>& fn, std::size_t rows,
                          double min_seconds) {
  fn();  // warmup
  util::Timer timer;
  std::size_t iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.seconds() < min_seconds);
  return static_cast<double>(rows * iters) / timer.seconds();
}

struct SweepFlags {
  bool csr_wins_at_90 = true;
  bool csr_monotone = true;
};

/// One (model, sparsity) × batches sweep: correctness gate, then timing.
void sweep_batches(nn::Sequential& model, const serve::CompiledNet& net,
                   const tensor::Shape& sample_shape, double sparsity,
                   const std::vector<std::size_t>& batches,
                   const std::string& workload, double min_time,
                   util::Table& table, util::CsvWriter& csv,
                   SweepFlags& flags, double& prev_csr_rate_tail) {
  for (const std::size_t batch : batches) {
    tensor::Tensor x{sample_shape.prepended(batch)};
    util::Rng xrng(batch);
    tensor::fill_normal(x, xrng, 0.0f, 1.0f);

    // Correctness gate before timing anything.
    util::check(net.forward(x).allclose(model.forward(x), 1e-3f),
                "compiled forward diverged from dense eval forward");

    const double dense_rate =
        measure_rows_per_s([&] { model.forward(x); }, batch, min_time);
    const double csr_rate =
        measure_rows_per_s([&] { net.forward(x); }, batch, min_time);
    const double speedup = csr_rate / dense_rate;

    if (sparsity >= 0.9 && speedup <= 1.0) flags.csr_wins_at_90 = false;
    if (batch == batches.back()) {
      if (prev_csr_rate_tail > 0.0 && csr_rate < prev_csr_rate_tail * 0.8) {
        flags.csr_monotone = false;  // higher sparsity must not serve slower
      }
      prev_csr_rate_tail = csr_rate;
    }

    table.add_row({workload, util::format_fixed(sparsity, 2),
                   std::to_string(batch), util::format_fixed(dense_rate, 0),
                   util::format_fixed(csr_rate, 0),
                   util::format_fixed(speedup, 2) + "x",
                   util::format_fixed(net.density() * 100.0, 1) + "%"});
    csv.write_row({workload, util::format_fixed(sparsity, 4),
                   std::to_string(batch), util::format_fixed(dense_rate, 1),
                   util::format_fixed(csr_rate, 1),
                   util::format_fixed(speedup, 3),
                   std::to_string(net.total_nnz()),
                   util::format_fixed(net.density(), 4)});
  }
}

/// Closed-loop aggregate throughput of the sharded InferenceServer. Each
/// shard owns a replica and its own worker, and every worker pulls from
/// the one queue; shards are the scaling knob.
double measure_server_rps(const serve::CompiledNet& net,
                          const tensor::Shape& sample_shape,
                          std::size_t shards, std::size_t clients,
                          double seconds, serve::StatsSnapshot& out_stats) {
  serve::ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.num_shards = shards;
  cfg.max_batch = 8;
  serve::InferenceServer server(net, cfg);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  auto client = [&](std::size_t id) {
    util::Rng crng(900 + id);
    while (!stop.load(std::memory_order_relaxed)) {
      tensor::Tensor sample(sample_shape);
      tensor::fill_normal(sample, crng, 0.0f, 1.0f);
      server.submit(std::move(sample)).get();
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  util::Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  while (wall.seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed = wall.seconds();
  server.shutdown();
  out_stats = server.stats();
  return static_cast<double>(completed.load()) / elapsed;
}

void sweep_shards(const bench::BenchEnv& env, double min_time,
                  util::CsvWriter& csv) {
  models::MlpConfig cfg;
  cfg.in_features = env.scaled(256, 32);
  cfg.hidden = {env.scaled(512, 64), env.scaled(512, 64)};
  cfg.out_features = 10;
  util::Rng rng(41);
  models::Mlp model(cfg, rng);
  sparse::SparseModel smodel(model, 0.9, sparse::DistributionKind::kErk,
                             rng);
  model.set_training(false);
  const serve::CompiledNet net = serve::CompiledNet::compile(model, &smodel);

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const double seconds = std::max(0.3, min_time * 3.0);
  const std::size_t clients = 8;

  std::cout << "sharded serving: aggregate closed-loop throughput ("
            << clients << " clients, 1 worker/shard, " << hw
            << " hw threads)\n";
  util::Table table(
      {"shards", "req/s", "mean batch", "p50 ms", "p99 ms", "queue peak"});
  double rps_1 = 0.0, rps_n = 0.0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    serve::StatsSnapshot stats;
    const double rps = measure_server_rps(
        net, tensor::Shape({cfg.in_features}), shards, clients, seconds,
        stats);
    if (shards == 1) rps_1 = rps;
    rps_n = rps;
    table.add_row({std::to_string(shards), util::format_fixed(rps, 0),
                   util::format_fixed(stats.mean_batch_size, 2),
                   util::format_fixed(stats.latency_p50_ms, 3),
                   util::format_fixed(stats.latency_p99_ms, 3),
                   std::to_string(stats.queue_peak)});
    csv.write_row({"shards", std::to_string(shards), "1", "-",
                   util::format_fixed(rps_1, 1), util::format_fixed(rps, 1),
                   util::format_fixed(shards == 1 ? 1.0 : rps / rps_1, 3)});
  }
  std::cout << table.render() << "\n";
  if (hw >= 2) {
    // Every shard's worker pulls from the one queue, so a second shard
    // adds a puller and never splits a batch: fewer req/s is a defect.
    util::check(bench::shape_check(
                    "2 shards beat 1 shard in aggregate throughput "
                    "(multi-core)",
                    rps_n > rps_1),
                "sweep_shards: 2 shards served fewer req/s than 1 shard");
  } else {
    std::cout << "[skip] shard-scaling check needs >= 2 hardware threads\n";
  }
}

int run() {
  const bench::BenchEnv env = bench::BenchEnv::resolve();
  const double min_time = util::env_double("DSTEE_SERVE_MIN_TIME", 0.15);

  models::MlpConfig mcfg;
  mcfg.in_features = env.scaled(256, 32);
  mcfg.hidden = {env.scaled(512, 64), env.scaled(512, 64)};
  mcfg.out_features = 10;

  models::VggConfig vcfg;
  vcfg.depth = 11;
  vcfg.image_size = 16;
  vcfg.num_classes = 10;
  vcfg.width_multiplier = 0.25 * env.scale;

  std::cout << "serve_throughput: dense eval forward vs compiled CSR\n"
            << "  mlp workload:  " << mcfg.in_features << " -> "
            << mcfg.hidden[0] << " -> " << mcfg.hidden[1] << " -> "
            << mcfg.out_features << "\n"
            << "  conv workload: VGG-11 @ " << vcfg.image_size << "x"
            << vcfg.image_size << ", width x"
            << util::format_fixed(vcfg.width_multiplier, 2) << "\n\n";

  util::Table table({"workload", "sparsity", "batch", "dense rows/s",
                     "csr rows/s", "speedup", "density"});
  util::CsvWriter csv("bench_results/serve_throughput.csv",
                      {"workload", "sparsity", "batch", "dense_rows_per_s",
                       "csr_rows_per_s", "speedup", "nnz", "density"});

  SweepFlags mlp_flags;
  double prev_rate = 0.0;
  for (const double sparsity : {0.5, 0.8, 0.9, 0.95}) {
    util::Rng rng(17);
    models::Mlp model(mcfg, rng);
    sparse::SparseModel smodel(model, sparsity,
                               sparse::DistributionKind::kErk, rng);
    model.set_training(false);
    const serve::CompiledNet net =
        serve::CompiledNet::compile(model, &smodel);
    sweep_batches(model, net, tensor::Shape({mcfg.in_features}), sparsity,
                  {1, 8, 32}, "mlp", min_time, table, csv, mlp_flags,
                  prev_rate);
  }

  SweepFlags conv_flags;
  prev_rate = 0.0;
  const tensor::Shape image({3, vcfg.image_size, vcfg.image_size});
  for (const double sparsity : {0.5, 0.9, 0.95}) {
    util::Rng rng(23);
    models::Vgg model(vcfg, rng);
    sparse::SparseModel smodel(model, sparsity,
                               sparse::DistributionKind::kErk, rng);
    // Move BN running stats off init so folding is exercised for real.
    tensor::Tensor warm({4, 3, vcfg.image_size, vcfg.image_size});
    util::Rng wrng(5);
    tensor::fill_normal(warm, wrng, 0.0f, 1.0f);
    model.forward(warm);
    model.set_training(false);
    const serve::CompiledNet net =
        serve::CompiledNet::compile(model, &smodel);
    sweep_batches(model, net, image, sparsity, {1, 8}, "conv", min_time,
                  table, csv, conv_flags, prev_rate);
  }
  csv.flush();

  std::cout << table.render() << "\n";

  // Shard scaling: aggregate closed-loop throughput of 1 vs 2 replica
  // shards. `shards` holds the shard count; the baseline is 1 shard.
  util::CsvWriter scaling_csv(
      "bench_results/serve_scaling.csv",
      {"sweep", "shards", "intra_op", "batch", "baseline_rows_per_s",
       "rows_per_s", "speedup"});
  sweep_shards(env, min_time, scaling_csv);
  scaling_csv.flush();

  bench::shape_check(
      "compiled CSR beats dense eval forward at >=90% sparsity (mlp)",
      mlp_flags.csr_wins_at_90);
  bench::shape_check(
      "CSR throughput does not degrade as sparsity rises (mlp, batch 32)",
      mlp_flags.csr_monotone);
  bench::shape_check(
      "compiled CSR conv beats dense eval forward at >=90% sparsity",
      conv_flags.csr_wins_at_90);
  bench::shape_check(
      "CSR conv throughput does not degrade as sparsity rises (batch 8)",
      conv_flags.csr_monotone);
  std::cout << "\ncsv: bench_results/serve_throughput.csv\n";
  return 0;
}

}  // namespace
}  // namespace dstee

int main() {
  try {
    return dstee::run();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
