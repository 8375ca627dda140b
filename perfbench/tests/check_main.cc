// perfbench_check — tests of the benchmark itself: the workload
// generator and the oracle. Exits non-zero when any check fails.
//
//  * the same seed gives byte-identical request streams, another seed
//    gives different ones;
//  * every key's alive-input count stays inside its band;
//  * resizes, retunes and queries appear at their configured shares;
//  * each key is driven by exactly one connection;
//  * the oracle agrees with an in-process serving shard on the same
//    acked stream, and disagrees once one acked update is dropped.

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "core/schema_io.h"
#include "oracle.h"
#include "serving/service.h"
#include "workload.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

// The run length BENCHMARK.json gives every run.
constexpr double kSeconds = 20;

void CheckDeterminism(const WorkloadSpec& spec) {
  Plan a, b, c;
  std::string error;
  const bool built = BuildPlan(spec, 11, kSeconds, &a, &error) &&
                     BuildPlan(spec, 11, kSeconds, &b, &error) &&
                     BuildPlan(spec, 12, kSeconds, &c, &error);
  Check(built, spec.name + ": plans build (" + error + ")");
  if (!built) return;
  bool same = true, differ = false;
  for (std::size_t conn = 0; conn < spec.connections; ++conn) {
    const std::string sa = EncodeConnectionStream(a, conn);
    same = same && sa == EncodeConnectionStream(b, conn);
    differ = differ || sa != EncodeConnectionStream(c, conn);
  }
  for (std::size_t k = 0; k < a.keys.size(); ++k) {
    same = same && a.keys[k].initial == b.keys[k].initial;
  }
  Check(same, spec.name + ": same seed gives byte-identical streams");
  Check(differ, spec.name + ": another seed gives different streams");
}

void CheckShape(const WorkloadSpec& spec, uint64_t seed) {
  Plan plan;
  std::string error;
  if (!BuildPlan(spec, seed, kSeconds, &plan, &error)) {
    Check(false, spec.name + " seed " + std::to_string(seed) + ": " + error);
    return;
  }
  const std::string tag = spec.name + " seed " + std::to_string(seed);

  std::size_t lo = ~std::size_t{0}, hi = 0;
  std::map<online::UpdateKind, std::size_t> kinds;
  std::size_t updates = 0;
  for (const KeyStream& ks : plan.keys) {
    const std::vector<std::size_t> alive = AliveTrajectory(ks.initial, ks.updates);
    for (std::size_t i = ks.initial.size(); i < alive.size(); ++i) {
      lo = std::min(lo, alive[i]);
      hi = std::max(hi, alive[i]);
    }
    for (const online::Update& u : ks.updates) ++kinds[u.kind];
    updates += ks.updates.size();
  }
  Check(lo >= spec.band_lo && hi <= spec.band_hi,
        tag + ": alive inputs stay in [" + std::to_string(spec.band_lo) + ", " +
            std::to_string(spec.band_hi) + "] (saw " + std::to_string(lo) +
            ".." + std::to_string(hi) + ")");

  // Shares over the whole plan. Retunes the generator clamps into a
  // no-op become adds, so their share sits a little under p_setq.
  const double n = static_cast<double>(updates);
  const double resize = kinds[online::UpdateKind::kResizeInput] / n;
  const double setq = kinds[online::UpdateKind::kSetCapacity] / n;
  const double p_setq = 1.0 - spec.p_add - spec.p_remove - spec.p_resize;
  Check(std::fabs(resize - spec.p_resize) < 0.03,
        tag + ": resize share " + std::to_string(resize) + " ~ " +
            std::to_string(spec.p_resize));
  Check(setq > 0.5 * p_setq && setq < 1.1 * p_setq,
        tag + ": retune share " + std::to_string(setq) + " ~ " +
            std::to_string(p_setq));

  std::size_t ops = 0, queries = 0;
  std::map<uint32_t, std::set<std::size_t>> conns_of_key;
  bool ordered = true;
  for (std::size_t c = 0; c < plan.conn_ops.size(); ++c) {
    for (std::size_t i = 0; i < plan.conn_ops[c].size(); ++i) {
      const Op& op = plan.conn_ops[c][i];
      ++ops;
      queries += op.query ? 1 : 0;
      conns_of_key[op.key].insert(c);
      if (i > 0 && op.due_us < plan.conn_ops[c][i - 1].due_us) ordered = false;
    }
  }
  bool one_conn = true;
  for (const auto& [key, conns] : conns_of_key) one_conn = one_conn && conns.size() == 1;
  Check(one_conn, tag + ": every key is driven by exactly one connection");
  Check(ordered, tag + ": due times never go backwards on a connection");
  const double want_share =
      spec.closed_loop ? 1.0 / static_cast<double>(spec.submits_per_query + 1)
                       : 1.0 / static_cast<double>(spec.query_every);
  Check(std::fabs(static_cast<double>(queries) / ops - want_share) < 0.01,
        tag + ": query share " + std::to_string(static_cast<double>(queries) / ops));
  if (!spec.closed_loop) {
    double offered = 0;
    for (const double rate : spec.ladder) {
      offered += rate * kSeconds / static_cast<double>(spec.ladder.size());
    }
    Check(std::fabs(static_cast<double>(ops) - offered) <=
              static_cast<double>(spec.ladder.size() * spec.cycles),
          tag + ": schedule holds the ladder's " + std::to_string(offered) +
              " requests");
    const double reference_queries =
        spec.ladder[spec.reference_rung] * kSeconds /
        static_cast<double>(spec.ladder.size() * spec.query_every);
    Check(reference_queries >= 1000,
          tag + ": >= 1000 queries a run at the reference rung");
  }
}

// The oracle against an in-process shard, and its self-test.
void CheckOracle() {
  const WorkloadSpec& spec = *FindWorkload("rpc-small");
  Plan plan;
  std::string error;
  if (!BuildPlan(spec, 5, 2, &plan, &error)) {
    Check(false, "oracle plan: " + error);
    return;
  }
  const KeyStream& ks = plan.keys[0];
  std::vector<AckedEvent> events;
  for (const online::Update& u : ks.initial) {
    events.push_back({u, static_cast<uint32_t>(ks.initial.size())});
  }
  for (const online::Update& u : ks.updates) events.push_back({u, 1});

  msp::serving::ServingConfig config;
  config.num_shards = 1;
  msp::serving::ServingService service(config);
  // The instance config the RPC server builds from an InstanceSpec
  // (rpc/server.cc). OnlineConfig's own defaults differ from the
  // spec's (the planner portfolio is on), and a shard configured from
  // them plans differently from the server the oracle mirrors.
  online::OnlineConfig oc;
  oc.x2y = ks.spec.x2y;
  oc.capacity = ks.spec.capacity;
  oc.policy_spec = ks.spec.policy;
  oc.delta_matching = ks.spec.matching;
  oc.measure_matching_gap = ks.spec.measure_matching_gap;
  oc.plan_options.use_portfolio = ks.spec.use_portfolio;
  service.CreateInstance(ks.key, oc, /*translate_trace_ids=*/true);
  service.SubmitBatch(ks.key, ks.initial, ks.initial.size());
  for (const online::Update& u : ks.updates) service.Submit(ks.key, u);
  rpc::Response query;
  query.type = rpc::MsgType::kQueryResult;
  service.Inspect(ks.key, [&](const msp::serving::ServingShard::InstanceProbe& p) {
    query.found = p.found;
    query.inputs = p.inputs;
    query.reducers = p.reducers;
    query.capacity = p.capacity;
    query.applied_updates = p.applied;
    query.rejected_updates = p.rejected;
  });
  service.Flush();

  auto planner = std::make_shared<msp::planner::PlannerService>(
      msp::planner::PlannerConfig{.num_threads = 1});
  const ReplayOutcome full = ReplayKey(ks, events, ks.initial.size(), planner, nullptr);
  const std::string agree = CompareQuery(query, full);
  Check(agree.empty(), "oracle agrees with a serving shard on " +
                           std::to_string(events.size()) + " events " + agree);
  std::string schema;
  service.ForEachInstance([&](const std::string&, const online::OnlineAssigner& a) {
    schema = msp::SchemaToText(a.Schema());
  });
  Check(schema == full.schema, "oracle schema is bit-identical to the shard's");

  std::vector<AckedEvent> dropped = events;
  dropped.pop_back();
  const ReplayOutcome short_replay =
      ReplayKey(ks, dropped, ks.initial.size(), planner, nullptr);
  Check(!CompareQuery(query, short_replay).empty(),
        "oracle fails once one acked update is dropped");
}

}  // namespace

int main() {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    CheckDeterminism(spec);
    for (const uint64_t seed : {1, 2, 3}) CheckShape(spec, seed);
  }
  CheckOracle();
  std::printf("%s: %d failed check(s)\n", g_failures ? "FAIL" : "PASS",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
