// The benchmark's workloads and their seeded traffic.
//
// A workload names a shape of per-key update streams and a traffic
// pattern over them. Everything here is a pure function of the
// workload and the seed: the same seed gives byte-identical request
// streams (checked by tests/check_main.cc), and the server only ever
// receives the generated requests.
//
// Rules shared by every workload:
//  * instance keys are chosen Zipf-skewed (s = 1.1) by rank;
//  * each key belongs to exactly one connection, so every key's
//    update order is fixed by the plan, not by thread timing;
//  * each key's stream comes from wl::GenerateTrace with adds slightly
//    rarer than removes, so the alive-input count drifts down to the
//    stream's `min_alive` floor and stays in a band above it; resizes
//    and capacity retunes keep the generator's natural shares.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "online/policy.h"
#include "online/trace.h"
#include "rpc/protocol.h"
#include "workload/updates.h"

namespace perfbench {

namespace online = msp::online;
namespace rpc = msp::rpc;
using msp::InputId;
using msp::InputSize;

struct WorkloadSpec {
  std::string name;
  std::string why;
  /// Closed loop: each connection sends `submits_per_query` submits to
  /// one key, then one Query of that key, and waits for all of them.
  /// Open loop: requests are due on a fixed schedule over `ladder`.
  bool closed_loop = false;
  /// Attach a per-shard WAL to the server.
  bool wal = false;
  std::size_t keys = 0;
  double key_skew = 1.1;
  std::size_t connections = 2;
  std::size_t shards = 2;

  // Per-key stream shape (wl::TraceConfig fields).
  InputSize capacity = 100;
  InputSize lo = 2;
  InputSize hi = 40;
  /// Seed inputs per key, uniform in [initial_lo, initial_hi].
  std::size_t initial_lo = 0;
  std::size_t initial_hi = 0;
  double p_add = 0.27;
  double p_remove = 0.33;
  double p_resize = 0.30;  // the remaining 0.10 are capacity retunes
  /// Alive-input band every key's stream stays inside, floor included
  /// (the floor is the generator's `min_alive`).
  std::size_t band_lo = 0;
  std::size_t band_hi = 0;
  /// Every `x2y_every`-th key (by rank) is an X2Y instance; 0 = none.
  std::size_t x2y_every = 0;
  online::PolicySpec policy;
  /// False: the instances' contents and update streams are the same
  /// for every seed, and the seed only draws the traffic (which key
  /// each request goes to, hence how far each stream gets).
  bool streams_follow_seed = true;

  // Traffic.
  /// Open loop: one op in `query_every` is a Query. Closed loop: the
  /// number of submits before each Query.
  std::size_t query_every = 10;
  std::size_t submits_per_query = 0;
  /// Open loop: offered request rates (ops/s over all connections),
  /// each held for an equal share of the run.
  std::vector<double> ladder;
  /// The run is cut into this many equal cycles and each figure is the
  /// median over them: the open loop climbs the ladder once per cycle,
  /// the closed loop simply runs on.
  std::size_t cycles = 1;
  /// The rung whose latency the end-to-end submit/query metrics
  /// report and at which failed_frac must be 0.
  std::size_t reference_rung = 0;
  /// Closed loop: upper bound on ops per connection (the plan is
  /// generated up front; a run that exhausts it stops early).
  std::size_t max_groups_per_conn = 0;

  // Durability.
  uint64_t fsync_every = 32;
  uint64_t rotate_every = 0;
};

/// The workloads by name (nullptr when unknown).
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// One instance key and its generated stream.
struct KeyStream {
  std::string key;
  rpc::InstanceSpec spec;
  /// Seed inputs, sent as one SubmitBatch during set-up.
  std::vector<online::Update> initial;
  /// Load-phase updates, consumed in order by this key's submits.
  std::vector<online::Update> updates;
};

/// One request of a connection's schedule.
struct Op {
  uint32_t key = 0;
  bool query = false;
  uint32_t rung = 0;
  uint32_t cycle = 0;
  /// Open loop: due time in microseconds from the start of the load
  /// phase. Closed loop: unused.
  int64_t due_us = 0;
};

struct Plan {
  const WorkloadSpec* spec = nullptr;
  double seconds = 0;
  std::vector<KeyStream> keys;
  std::vector<std::vector<Op>> conn_ops;  // per connection, in send order
};

/// Builds the whole plan. Fails (false + `*error`) when a stream
/// leaves its band — a generator defect, never papered over.
bool BuildPlan(const WorkloadSpec& spec, uint64_t seed, double seconds,
               Plan* plan, std::string* error);

/// Alive-input count after every event of `initial` + `updates`
/// (initial adds included), for the band check.
std::vector<std::size_t> AliveTrajectory(
    const std::vector<online::Update>& initial,
    const std::vector<online::Update>& updates);

/// The encoded request frames connection `conn` would send, in order
/// (set-up requests on the admin connection are not included). Used
/// to prove the streams are a function of the seed.
std::string EncodeConnectionStream(const Plan& plan, std::size_t conn);

/// The request a plan op turns into. `next_update` indexes the key's
/// update stream (ignored for queries).
rpc::Request MakeOpRequest(const Plan& plan, const Op& op,
                           std::size_t next_update, uint64_t req_id);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
