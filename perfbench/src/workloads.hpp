// Workload entry points. Each runs one workload end to end, records its
// gates and metrics into `report` (end-to-end metrics when untraced,
// per-layer metrics when traced) and leaves printing to main.
#pragma once

#include "models.hpp"
#include "report.hpp"

namespace perfbench {

void run_resnet18_closed(const RunOptions& opt, Report& report);
void run_mlp_open_swap(const RunOptions& opt, Report& report);
void run_dst_train(const RunOptions& opt, Report& report);

/// Reports every metric of a layer the workload does not exercise as the
/// zero work it did there, so each traced run emits the full set.
void report_idle_layers(Report& report, bool serves, bool swaps, bool trains);

/// A traced run's span files: <trace_dir>/<workload>-seed<n>.bench.json
/// (the benchmark's spans) and .obs.json (obs::trace()).
void write_traces(const RunOptions& opt, const SpanRecorder& spans,
                  Report& report);

}  // namespace perfbench
