#include "layers.h"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <mutex>

#include "durability/wal.h"
#include "obs/alloc.h"
#include "serving/service.h"

namespace perfbench {

namespace {

namespace serving = msp::serving;

double PercentileOf(std::vector<double> values, double p) {
  return Percentile(&values, p);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// The load-phase ops in one global order: by due time for the open
// loop, whole groups round-robin across connections for the closed
// loop. At most `sent` ops, the number the socket run sent.
std::vector<const Op*> GlobalOrder(const Plan& plan, std::size_t sent) {
  const std::size_t conns = plan.conn_ops.size();
  std::vector<const Op*> order;
  std::vector<std::size_t> next(conns, 0);
  std::size_t c = 0;
  while (order.size() < sent) {
    if (plan.spec->closed_loop) {
      std::size_t tried = 0;
      while (next[c] == plan.conn_ops[c].size() && tried++ < conns) {
        c = (c + 1) % conns;
      }
      if (tried > conns) break;
      const std::vector<Op>& ops = plan.conn_ops[c];
      while (next[c] < ops.size() && order.size() < sent) {
        order.push_back(&ops[next[c]]);
        if (ops[next[c]++].query) break;
      }
      c = (c + 1) % conns;
      continue;
    }
    std::size_t best = conns;
    for (std::size_t i = 0; i < conns; ++i) {
      if (next[i] == plan.conn_ops[i].size()) continue;
      if (best == conns ||
          plan.conn_ops[i][next[i]].due_us < plan.conn_ops[best][next[best]].due_us) {
        best = i;
      }
    }
    if (best == conns) break;
    order.push_back(&plan.conn_ops[best][next[best]++]);
  }
  return order;
}

struct DriveResult {
  std::size_t ops = 0;           // plan ops driven
  uint64_t load_updates = 0;     // updates submitted in the load part
  double load_seconds = 0;       // submit + apply of the load part
  std::vector<double> submit_ns;
  std::vector<double> inspect_us;
  serving::ServingStats stats;
};

// Drives a fresh in-process ServingService with the plan's seeds, then
// its ops, without sockets. A query is a read-your-writes probe: an
// Inspect ordered behind its key's earlier submits, waited for before
// the next op, as the RPC Query is. `max_ops` bounds the ops (0 = stop
// once `budget_s` has passed).
bool Drive(const Plan& plan, const std::vector<const Op*>& order,
           std::size_t max_ops, double budget_s, bool spans,
           const msp::durability::WalOptions* wal, DriveResult* out,
           std::string* error) {
  serving::ServingConfig config;
  config.num_shards = plan.spec->shards;
  serving::ServingService service(config);
  if (wal != nullptr && !service.AttachWal(*wal, error)) return false;
  for (const KeyStream& ks : plan.keys) {
    online::OnlineConfig oc;
    oc.x2y = ks.spec.x2y;
    oc.capacity = ks.spec.capacity;
    oc.policy_spec = ks.spec.policy;
    service.CreateInstance(ks.key, oc, /*translate_trace_ids=*/true);
    service.SubmitBatch(ks.key, ks.initial, ks.initial.size());
  }
  service.Flush();

  std::mutex mu;
  std::condition_variable answered;
  bool done = false;  // guarded by mu
  std::vector<std::size_t> next(plan.keys.size(), 0);
  const double start = NowSeconds();
  const std::size_t limit = max_ops == 0 ? order.size() : std::min(max_ops, order.size());
  std::size_t i = 0;
  for (; i < limit; ++i) {
    if (max_ops == 0 && i % 64 == 0 && NowSeconds() - start >= budget_s) break;
    const Op& op = *order[i];
    const KeyStream& ks = plan.keys[op.key];
    if (op.query) {
      ScopedSpan span(spans ? "serving.inspect" : nullptr, i + 1);
      const double enqueued = NowMicrosF();
      double answered_at = 0;
      service.Inspect(ks.key, [&](const serving::ServingShard::InstanceProbe&) {
        std::unique_lock<std::mutex> lock(mu);
        answered_at = NowMicrosF();
        done = true;
        answered.notify_one();
      });
      std::unique_lock<std::mutex> lock(mu);
      answered.wait(lock, [&] { return done; });
      done = false;
      out->inspect_us.push_back(answered_at - enqueued);
      continue;
    }
    const online::Update& update = ks.updates[next[op.key]++];
    const double t0 = NowMicrosF();
    {
      ScopedSpan span(spans ? "serving.submit" : nullptr, i + 1);
      service.Submit(ks.key, update);
    }
    out->submit_ns.push_back(1000.0 * (NowMicrosF() - t0));
    ++out->load_updates;
  }
  {
    ScopedSpan span(spans ? "serving.flush" : nullptr);
    service.Flush();
  }
  out->load_seconds = NowSeconds() - start;
  out->ops = i;
  out->stats = service.stats();
  std::string invalid;
  if (!service.ValidateAll(&invalid)) {
    *error = "direct drive left an invalid schema: " + invalid;
    return false;
  }
  return true;
}

}  // namespace

bool MeasureLayers(const LayerInputs& in, MetricSet* m, std::string* error) {
  const Plan& plan = *in.plan;
  const std::vector<const Op*> order = GlobalOrder(plan, in.load->ops.size());

  // ---- online + planner: the oracle replay's per-update samples ----
  {
    const char* kinds[] = {"add", "remove", "resize", "setq"};
    std::vector<double> by_kind[4];
    std::vector<double> replan_us, deploy_us;
    double allocs = 0;
    for (const ApplySample& s : *in.samples) {
      by_kind[static_cast<int>(s.kind)].push_back(s.apply_us);
      allocs += static_cast<double>(s.allocs);
      if (s.replanned) {
        replan_us.push_back(s.apply_us);
        deploy_us.push_back(std::max(0.0, s.apply_us - s.planner_us));
      }
    }
    for (int k = 0; k < 4; ++k) {
      m->Set(std::string("online.apply_us_p50.") + kinds[k],
             PercentileOf(by_kind[k], 50), "us");
      m->Set(std::string("online.apply_us_p99.") + kinds[k],
             PercentileOf(by_kind[k], 99), "us");
    }
    const double n = static_cast<double>(in.samples->size());
    m->Set("online.replan_us_p50", PercentileOf(replan_us, 50), "us");
    m->Set("online.replan_us_p99", PercentileOf(replan_us, 99), "us");
    m->Set("online.replans_per_kupdate",
           n > 0 ? 1000.0 * static_cast<double>(replan_us.size()) / n : 0,
           "count");
    if (msp::obs::AllocCountingActive()) {
      m->Set("online.allocs_per_update", n > 0 ? allocs / n : 0, "count");
    } else {
      std::cerr << "online.allocs_per_update unavailable: allocation "
                   "counting is not active in this build\n";
    }
    m->Set("online.deploy_us_per_replan", Mean(deploy_us), "us");

    const msp::obs::HistogramSnapshot plan_latency = in.planner->latency();
    const msp::planner::PlannerStats pstats = in.planner->stats();
    m->Set("planner.plan_us_p50", plan_latency.Percentile(50), "us");
    m->Set("planner.plan_us_p99", plan_latency.Percentile(99), "us");
    m->Set("planner.cache_hit_ratio",
           pstats.plans ? static_cast<double>(pstats.cache_hits) /
                              static_cast<double>(pstats.plans)
                        : 0,
           "ratio");
  }

  // ---- rpc: codec over the run's own request/response mix ----
  std::vector<rpc::Request> requests;
  std::vector<rpc::Response> responses;
  {
    std::vector<std::size_t> next(plan.keys.size(), 0);
    uint64_t id = 1;
    for (const Op* op : order) {
      requests.push_back(MakeOpRequest(plan, *op, next[op->key], id));
      if (!op->query) ++next[op->key];
      // The reply each request gets; QueryResult counts are fixed-width
      // on the wire, so their values do not change the cost.
      rpc::Response response;
      response.req_id = id++;
      if (op->query) {
        response.type = rpc::MsgType::kQueryResult;
        response.found = true;
        response.inputs = 30;
        response.reducers = 12;
        response.capacity = plan.spec->capacity;
        response.applied_updates = 1000;
      } else {
        response.type = rpc::MsgType::kOk;
        response.accepted = 1;
      }
      responses.push_back(response);
    }
    double wire_bytes = 0;
    std::vector<double> pass_ns;
    for (int pass = 0; pass < 5 && !requests.empty(); ++pass) {
      ScopedSpan span("rpc.codec_pass");
      const int64_t start = NowMicros();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::string req_frame =
            rpc::EncodeFrame(rpc::EncodeRequest(requests[i]));
        const std::string resp_frame =
            rpc::EncodeFrame(rpc::EncodeResponse(responses[i]));
        std::size_t size = 0;
        std::string_view payload;
        std::string why;
        rpc::Request req;
        rpc::Response resp;
        if (rpc::DecodeFrame(req_frame, &size, &payload, &why) !=
                rpc::FrameStatus::kFrame ||
            !rpc::DecodeRequest(payload, &req, &why) ||
            rpc::DecodeFrame(resp_frame, &size, &payload, &why) !=
                rpc::FrameStatus::kFrame ||
            !rpc::DecodeResponse(payload, &resp, &why) ||
            req.req_id != requests[i].req_id) {
          *error = "codec round trip failed: " + why;
          return false;
        }
        if (pass == 0) {
          wire_bytes += static_cast<double>(req_frame.size() + resp_frame.size());
        }
      }
      pass_ns.push_back(1000.0 * static_cast<double>(NowMicros() - start) /
                        static_cast<double>(requests.size()));
    }
    m->Set("rpc.codec_ns", Median(pass_ns), "ns");
    m->Set("rpc.wire_bytes_per_op",
           requests.empty() ? 0 : wire_bytes / static_cast<double>(requests.size()),
           "bytes");
    uint64_t overloaded = 0;
    for (const rpc::ShardCounts& shard : in.server_stats->shards) {
      overloaded += shard.rpc_overloaded;
    }
    m->Set("rpc.server_overloaded", static_cast<double>(overloaded), "count");
  }

  // ---- serving + obs: direct drives, untraced then traced ----
  // The traced drive runs between two untraced ones over the same ops,
  // so drift over time cancels out of the overhead.
  DriveResult plain, traced, plain_after, logged;
  {
    ScopedSpan span("serving.drive");
    if (!Drive(plan, order, 0, in.drive_budget_s, false, nullptr, &plain, error)) {
      return false;
    }
  }
  {
    ScopedSpan span("serving.drive_traced");
    if (!Drive(plan, order, plain.ops, 0, true, nullptr, &traced, error)) {
      return false;
    }
  }
  {
    ScopedSpan span("serving.drive");
    if (!Drive(plan, order, plain.ops, 0, false, nullptr, &plain_after, error)) {
      return false;
    }
  }
  const auto rate = [](const DriveResult& d) {
    return static_cast<double>(d.load_updates) / d.load_seconds;
  };
  const double plain_rate = (rate(plain) + rate(plain_after)) / 2;
  const double traced_rate = rate(traced);
  const double submit_ns_p50 = PercentileOf(plain.submit_ns, 50);
  m->Set("serving.submit_ns_p50", submit_ns_p50, "ns");
  m->Set("serving.inspect_us_p50", PercentileOf(plain.inspect_us, 50), "us");
  m->Set("serving.inspect_us_p99", PercentileOf(plain.inspect_us, 99), "us");
  m->Set("serving.updates_per_s", plain_rate, "1/s");
  {
    double max_applied = 0, sum_applied = 0;
    for (const msp::serving::ShardStats& shard : plain.stats.shards) {
      max_applied = std::max(max_applied, static_cast<double>(shard.updates));
      sum_applied += static_cast<double>(shard.updates);
    }
    const double mean = sum_applied / static_cast<double>(plain.stats.shards.size());
    m->Set("serving.shard_skew", mean > 0 ? max_applied / mean : 0, "ratio");
  }
  m->Set("serving.repair_us_p99", plain.stats.total.latency.Percentile(99), "us");
  m->Set("obs.traced_overhead_frac", 1.0 - traced_rate / plain_rate, "ratio");
  m->Set("rpc.frontdoor_us_p50", in.socket_submit_p50_us - submit_ns_p50 / 1000.0,
         "us");

  // ---- durability: the same drive with a WAL, then its recovery ----
  {
    const std::string dir = in.work_dir + "/drive-wal";
    std::filesystem::remove_all(dir);
    msp::durability::WalOptions wal;
    wal.dir = dir;
    wal.fsync_every_n = plan.spec->fsync_every;
    wal.rotate_every = plan.spec->rotate_every != 0 ? plan.spec->rotate_every : 8000;
    {
      ScopedSpan span("durability.drive");
      if (!Drive(plan, order, plain.ops, 0, false, &wal, &logged, error)) {
        return false;
      }
    }
    const msp::serving::ShardStats& total = logged.stats.total;
    const double updates = static_cast<double>(total.updates);
    m->Set("durability.wal_bytes_per_update",
           updates > 0 ? static_cast<double>(total.wal_bytes) / updates : 0, "bytes");
    m->Set("durability.fsyncs_per_kupdate",
           updates > 0 ? 1000.0 * static_cast<double>(total.wal_fsyncs) / updates : 0,
           "count");
    m->Set("durability.rotations", static_cast<double>(total.wal_rotations), "count");
    m->Set("durability.cost_us_per_update",
           logged.load_updates > 0
               ? 1e6 * (logged.load_seconds -
                        (plain.load_seconds + plain_after.load_seconds) / 2) /
                     static_cast<double>(logged.load_updates)
               : 0,
           "us");

    serving::ServingConfig config;
    config.num_shards = plan.spec->shards;
    serving::ServingService recovered(config);
    wal.recover = true;
    const double start = NowSeconds();
    bool ok = false;
    {
      ScopedSpan span("durability.recover");
      ok = recovered.AttachWal(wal, error);
    }
    const double took = NowSeconds() - start;
    if (!ok) return false;
    const double records =
        static_cast<double>(recovered.stats().total.recovered_records);
    m->Set("durability.recover_records_per_s", took > 0 ? records / took : 0, "1/s");
    std::filesystem::remove_all(dir);
  }

  // ---- cli host + harness ----
  m->Set("server.cpu_us_per_update",
         in.applied_updates ? in.server_cpu_us / static_cast<double>(in.applied_updates)
                            : 0,
         "us");
  m->Set("server.threads", static_cast<double>(in.server_threads), "count");
  std::vector<double> lag;
  for (const OpRecord& op : in.load->ops) lag.push_back(op.lag_us);
  m->Set("loadgen.lag_p99_us", PercentileOf(lag, 99), "us");
  std::cerr << "direct drive: " << plain.ops << " ops, " << plain_rate
            << " updates/s untraced, " << traced_rate << " traced; WAL drive "
            << logged.load_seconds << " s vs " << plain.load_seconds << " s\n";
  return true;
}

}  // namespace perfbench
