// The traced run's per-layer measurements. Each layer is timed from
// outside, through its public functions, in this process and on the
// run's own generated streams; the harness records its own spans
// around those calls (stats.h SpanLog). Nothing inside src/ is
// instrumented for the benchmark.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "oracle.h"
#include "planner/service.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

struct LayerInputs {
  const Plan* plan = nullptr;
  const LoadResult* load = nullptr;
  /// Per-update samples of the oracle replay (load phase only).
  const std::vector<ApplySample>* samples = nullptr;
  /// The replay's shared planner.
  std::shared_ptr<msp::planner::PlannerService> planner;
  /// The server's Stats RPC answer after the load phase.
  const rpc::Response* server_stats = nullptr;
  /// Server CPU used during the load phase, and its thread count.
  double server_cpu_us = 0;
  uint64_t server_threads = 0;
  /// Load-phase updates the server applied.
  uint64_t applied_updates = 0;
  /// Client-observed submit latency p50 over the socket.
  double socket_submit_p50_us = 0;
  /// Scratch directory for the direct-drive WALs.
  std::string work_dir;
  /// Wall-clock budget of each direct drive.
  double drive_budget_s = 1;
};

/// Runs every layer measurement and fills `metrics` with the per-layer
/// set. Returns false (with `*error`) when a direct drive breaks a
/// correctness check of its own.
bool MeasureLayers(const LayerInputs& in, MetricSet* metrics,
                   std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
