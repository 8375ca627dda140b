#include "oracle.h"

#include <optional>

#include "core/schema_io.h"
#include "obs/alloc.h"
#include "stats.h"

namespace perfbench {

ReplayOutcome ReplayKey(const KeyStream& stream,
                        const std::vector<AckedEvent>& events,
                        std::size_t seed_events,
                        std::shared_ptr<msp::planner::PlannerService> planner,
                        std::vector<ApplySample>* samples,
                        bool track_quality) {
  online::OnlineConfig config;
  config.x2y = stream.spec.x2y;
  config.capacity = stream.spec.capacity;
  config.policy_spec = stream.spec.policy;
  config.delta_matching = stream.spec.matching;
  config.measure_matching_gap = stream.spec.measure_matching_gap;
  config.plan_options.use_portfolio = stream.spec.use_portfolio;
  config.shared_planner = planner;
  online::OnlineAssigner assigner(config);
  std::vector<std::optional<InputId>> live_of_trace;
  online::TraceIdTranslator translator(&live_of_trace);

  ReplayOutcome out;
  double comm_sum = 0, reducer_sum = 0;
  const auto sample_quality = [&] {
    if (!track_quality) return;
    const online::QualitySnapshot q = assigner.Quality();
    if (q.bounds_available && q.lb_communication > 0 && q.lb_reducers > 0) {
      comm_sum += static_cast<double>(q.live_communication) /
                  static_cast<double>(q.lb_communication);
      reducer_sum += static_cast<double>(q.live_reducers) /
                     static_cast<double>(q.lb_reducers);
      ++out.quality_samples;
    }
  };
  uint64_t seed_churn = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == seed_events) {
      seed_churn = assigner.totals().churn.bytes_moved;
      sample_quality();
    }
    online::Update update = events[i].update;
    // An unknown trace id is skipped, as the shard skips it.
    if (!translator.Translate(&update)) continue;
    const bool timed = samples != nullptr && i >= seed_events;
    const uint64_t plans_before = timed ? planner->stats().plans : 0;
    const double planner_before =
        timed ? static_cast<double>(planner->latency().sum()) : 0;
    const msp::obs::AllocTotals allocs_before = msp::obs::ThreadAllocTotals();
    const double start = timed ? NowMicrosF() : 0;
    online::UpdateResult result;
    bool replanned = false;
    {
      ScopedSpan span("online.apply");
      result = assigner.ApplyDeferred(update);
      if (result.applied &&
          assigner.pending_decision_updates() >= events[i].window) {
        replanned = assigner.PolicyCheckpoint().replanned;
      }
    }
    const double end = timed ? NowMicrosF() : 0;
    const uint64_t allocs = msp::obs::ThreadAllocTotals().allocs - allocs_before.allocs;
    if (update.kind == online::UpdateKind::kAddInput) {
      translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
    }
    if (!result.applied) continue;
    if (i >= seed_events) sample_quality();
    if (timed) {
      ApplySample sample;
      sample.kind = update.kind;
      sample.apply_us = end - start;
      sample.replanned = replanned;
      if (planner->stats().plans != plans_before) {
        sample.planner_us =
            static_cast<double>(planner->latency().sum()) - planner_before;
      }
      sample.allocs = allocs;
      samples->push_back(sample);
    }
  }
  if (events.size() <= seed_events) {
    seed_churn = assigner.totals().churn.bytes_moved;
    sample_quality();
  }
  if (out.quality_samples > 0) {
    out.mean_comm_ratio = comm_sum / static_cast<double>(out.quality_samples);
    out.mean_reducer_ratio = reducer_sum / static_cast<double>(out.quality_samples);
  }
  const online::OnlineTotals& totals = assigner.totals();
  out.applied = totals.updates;
  out.rejected = totals.rejected;
  out.inputs = assigner.num_inputs();
  out.reducers = assigner.live_state().reducers.size();
  out.capacity = assigner.capacity();
  out.load_churn_bytes = totals.churn.bytes_moved - seed_churn;
  // The server runs one more checkpoint on shutdown (a no-op unless a
  // batch window is still open); recovery sees its result.
  assigner.PolicyCheckpoint();
  out.schema = msp::SchemaToText(assigner.Schema());
  return out;
}

std::string CompareQuery(const rpc::Response& query,
                         const ReplayOutcome& replay) {
  std::string diff;
  const auto check = [&](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      diff += std::string(diff.empty() ? "" : ", ") + what + " " +
              std::to_string(got) + " != replay " + std::to_string(want);
    }
  };
  if (query.type != rpc::MsgType::kQueryResult || !query.found) {
    return "no QueryResult for the key";
  }
  check("inputs", query.inputs, replay.inputs);
  check("reducers", query.reducers, replay.reducers);
  check("capacity", query.capacity, replay.capacity);
  check("applied", query.applied_updates, replay.applied);
  check("rejected", query.rejected_updates, replay.rejected);
  return diff;
}

}  // namespace perfbench
