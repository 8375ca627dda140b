#include "workload.h"

#include <algorithm>

#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // rpc-small: many small A2A instances. One update costs ~2 us here,
  // so the front door (codec, epoll loop, mailbox hand-off, wake-up)
  // does most of the work; repair and planning do almost none.
  WorkloadSpec small;
  small.name = "rpc-small";
  small.why =
      "small instances, so the RPC front door and mailbox hand-off do most "
      "of the work; open loop over a rate ladder";
  small.closed_loop = false;
  small.keys = 256;
  small.capacity = 100;
  small.lo = 2;
  small.hi = 40;
  small.initial_lo = 26;
  small.initial_hi = 34;
  small.band_lo = 24;
  small.band_hi = 96;
  small.policy.name = "drift";
  small.query_every = 10;
  small.ladder = {2000, 4000, 6000, 8000};
  // Fifteen short climbs rather than a few long ones: latency drifts
  // with the host over seconds, and a median over many climbs holds
  // still where one over five does not.
  small.cycles = 15;
  small.reference_rung = 2;
  // The seed draws the traffic; the instances stay put. The Zipf-hot
  // keys take most of the updates, so their own contents would
  // otherwise move churn and memory from seed to seed (churn per
  // update 0.08 apart between quartiles over five seeds).
  small.streams_follow_seed = false;
  all.push_back(small);

  // rpc-large: few large instances, a quarter of them X2Y. One update
  // costs 0.1-300 ms and about one in five replans, so repair, replan
  // deploy, the planner and shard skew dominate.
  WorkloadSpec large;
  large.name = "rpc-large";
  large.why =
      "large instances, so repair, replan deploy, the planner and shard "
      "skew dominate; closed loop";
  large.closed_loop = true;
  large.keys = 16;
  large.capacity = 100;
  large.lo = 2;
  large.hi = 40;
  large.initial_lo = 150;
  large.initial_hi = 250;
  large.band_lo = 140;
  large.band_hi = 320;
  large.x2y_every = 4;
  large.policy.name = "drift";
  large.policy.cooldown = 4;
  // With 16 keys under Zipf traffic, a third of the requests go to
  // one instance, so that instance's own contents would decide the
  // run's throughput (185-300 updates/s across seeds). The seed draws
  // the traffic; the instances stay put.
  large.streams_follow_seed = false;
  large.submits_per_query = 1;
  large.cycles = 5;
  large.max_groups_per_conn = 20000;
  all.push_back(large);

  // rpc-durable: rpc-small's instances and ladder with a per-shard WAL;
  // the extra work is append, rotation stalls and recovery replay.
  WorkloadSpec durable = small;
  durable.name = "rpc-durable";
  durable.why =
      "rpc-small with a per-shard WAL, so append, rotation and recovery "
      "replay are the extra work";
  durable.wal = true;
  durable.fsync_every = 32;
  // Every 200 records (about 100 updates) keeps recovery's replayed
  // tail short, so recover_s does not hinge on where a run stopped
  // (every 400 spread it by 0.37 across seeds), while rotation stays
  // cheap enough that a slow disk does not tip the hot shard into
  // overload (every 100 records did, on one run of ten).
  durable.rotate_every = 200;
  all.push_back(durable);
  return all;
}

// Independent sub-seeds so key streams do not depend on traffic draws.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               index * 0x94d049bb133111ebull + 1;
  x ^= x >> 31;
  x *= 0xd6e8feb96a3c1bd5ull;
  x ^= x >> 29;
  return x;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::size_t> AliveTrajectory(
    const std::vector<online::Update>& initial,
    const std::vector<online::Update>& updates) {
  std::vector<std::size_t> out;
  out.reserve(initial.size() + updates.size());
  std::size_t alive = 0;
  const auto step = [&](const online::Update& u) {
    if (u.kind == online::UpdateKind::kAddInput) ++alive;
    if (u.kind == online::UpdateKind::kRemoveInput) --alive;
    out.push_back(alive);
  };
  for (const online::Update& u : initial) step(u);
  for (const online::Update& u : updates) step(u);
  return out;
}

bool BuildPlan(const WorkloadSpec& spec, uint64_t seed, double seconds,
               Plan* plan, std::string* error) {
  *plan = Plan{};
  plan->spec = &spec;
  plan->seconds = seconds;
  plan->conn_ops.resize(spec.connections);

  // Traffic first: it fixes how many submits each key receives, which
  // is the length of the key's stream.
  msp::Rng traffic(SubSeed(seed, 1, 0));
  msp::ZipfDistribution zipf(spec.keys, spec.key_skew);
  std::vector<std::size_t> submits(spec.keys, 0);
  const auto owner = [&](std::size_t key) { return key % spec.connections; };
  if (spec.closed_loop) {
    std::vector<std::size_t> groups(spec.connections, 0);
    std::size_t full = 0;
    while (full < spec.connections) {
      const std::size_t key = zipf.Sample(&traffic) - 1;
      const std::size_t conn = owner(key);
      if (groups[conn] == spec.max_groups_per_conn) continue;
      if (++groups[conn] == spec.max_groups_per_conn) ++full;
      for (std::size_t i = 0; i < spec.submits_per_query; ++i) {
        plan->conn_ops[conn].push_back(Op{static_cast<uint32_t>(key), false, 0, 0, 0});
      }
      plan->conn_ops[conn].push_back(Op{static_cast<uint32_t>(key), true, 0, 0, 0});
      submits[key] += spec.submits_per_query;
    }
  } else {
    const std::size_t segments = spec.ladder.size() * spec.cycles;
    const double segment_seconds = seconds / static_cast<double>(segments);
    int64_t rung_start = 0;
    uint64_t j = 0;
    for (std::size_t seg = 0; seg < segments; ++seg) {
      const std::size_t r = seg % spec.ladder.size();
      const int64_t rung_end =
          static_cast<int64_t>((seg + 1) * segment_seconds * 1e6);
      const double gap_us = 1e6 / spec.ladder[r];
      for (std::size_t i = 0;; ++i, ++j) {
        const int64_t due =
            rung_start + static_cast<int64_t>(static_cast<double>(i) * gap_us);
        if (due >= rung_end) break;
        const std::size_t key = zipf.Sample(&traffic) - 1;
        const bool query = j % spec.query_every == spec.query_every - 1;
        plan->conn_ops[owner(key)].push_back(
            Op{static_cast<uint32_t>(key), query, static_cast<uint32_t>(r),
               static_cast<uint32_t>(seg / spec.ladder.size()), due});
        if (!query) ++submits[key];
      }
      rung_start = rung_end;
    }
  }

  plan->keys.resize(spec.keys);
  const uint64_t content_seed = spec.streams_follow_seed ? seed : 0;
  for (std::size_t k = 0; k < spec.keys; ++k) {
    KeyStream& ks = plan->keys[k];
    ks.key = spec.name + "-" + std::to_string(k);
    msp::Rng shape(SubSeed(content_seed, 2, k));
    msp::wl::TraceConfig config;
    config.x2y = spec.x2y_every > 0 && k % spec.x2y_every == spec.x2y_every - 1;
    config.initial_inputs = static_cast<std::size_t>(
        shape.UniformInRange(spec.initial_lo, spec.initial_hi));
    config.steps = submits[k];
    config.capacity = spec.capacity;
    config.lo = spec.lo;
    config.hi = spec.hi;
    config.p_add = spec.p_add;
    config.p_remove = spec.p_remove;
    config.p_resize = spec.p_resize;
    config.min_alive = config.x2y ? spec.band_lo / 2 : spec.band_lo;
    config.seed = SubSeed(content_seed, 3, k);
    online::UpdateTrace trace = msp::wl::GenerateTrace(config);
    ks.initial.assign(trace.updates.begin(),
                      trace.updates.begin() + config.initial_inputs);
    ks.updates.assign(trace.updates.begin() + config.initial_inputs,
                      trace.updates.end());
    ks.spec.x2y = config.x2y;
    ks.spec.capacity = spec.capacity;
    ks.spec.policy = spec.policy;

    const std::vector<std::size_t> trajectory =
        AliveTrajectory(ks.initial, ks.updates);
    for (std::size_t i = ks.initial.size(); i < trajectory.size(); ++i) {
      if (trajectory[i] < spec.band_lo || trajectory[i] > spec.band_hi) {
        *error = "key " + ks.key + " left its alive band [" +
                 std::to_string(spec.band_lo) + ", " +
                 std::to_string(spec.band_hi) + "] at event " +
                 std::to_string(i) + " (" + std::to_string(trajectory[i]) +
                 " alive)";
        return false;
      }
    }
  }
  return true;
}

rpc::Request MakeOpRequest(const Plan& plan, const Op& op,
                           std::size_t next_update, uint64_t req_id) {
  rpc::Request request;
  request.req_id = req_id;
  request.key = plan.keys[op.key].key;
  if (op.query) {
    request.type = rpc::MsgType::kQuery;
  } else {
    request.type = rpc::MsgType::kSubmit;
    request.updates.push_back(plan.keys[op.key].updates[next_update]);
  }
  return request;
}

std::string EncodeConnectionStream(const Plan& plan, std::size_t conn) {
  std::string out;
  std::vector<std::size_t> next(plan.keys.size(), 0);
  uint64_t req_id = 1;
  for (const Op& op : plan.conn_ops[conn]) {
    const rpc::Request request =
        MakeOpRequest(plan, op, next[op.key], req_id++);
    if (!op.query) ++next[op.key];
    out += rpc::EncodeFrame(rpc::EncodeRequest(request));
  }
  return out;
}

}  // namespace perfbench
