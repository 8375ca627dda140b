// The correctness oracle: a standalone replay of each key's acked
// stream through OnlineAssigner, mirroring what a serving shard does
// with the same requests (trace-id translation, one policy decision
// per Submit, one per SubmitBatch window). The server's answers are
// checked against it; its totals also give the schema-quality metrics,
// which repeat exactly for a given acked stream.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "online/assigner.h"
#include "planner/service.h"
#include "rpc/protocol.h"
#include "workload.h"

namespace perfbench {

/// One update the server acknowledged, with the policy window of the
/// request that carried it (1 for Submit, the batch size for
/// SubmitBatch).
struct AckedEvent {
  online::Update update;
  uint32_t window = 1;
};

/// Per-update timing from a replay (collected only when asked for).
struct ApplySample {
  online::UpdateKind kind = online::UpdateKind::kAddInput;
  double apply_us = 0;    // the update plus its policy decision
  double planner_us = 0;  // planner time inside it (replans only)
  bool replanned = false;
  uint64_t allocs = 0;
};

struct ReplayOutcome {
  uint64_t applied = 0;
  uint64_t rejected = 0;
  uint64_t inputs = 0;
  uint64_t reducers = 0;
  uint64_t capacity = 0;
  /// Churn bytes after the first `seed_events`.
  uint64_t load_churn_bytes = 0;
  /// Schema quality over the key's load phase (when tracked): the mean,
  /// over the state after set-up and the state after every applied
  /// load update, of live communication and reducer count each over
  /// its lower bound. Averaging over every state a key passes through,
  /// not only the one a run happened to stop in, keeps the figure from
  /// hinging on where a replan sawtooth was when the load ended.
  double mean_comm_ratio = 0;
  double mean_reducer_ratio = 0;
  uint64_t quality_samples = 0;
  /// Live schema text, the form recovery is compared in.
  std::string schema;
};

/// Replays `events` for one key. `samples`, when non-null, receives
/// one entry per applied update after the first `seed_events`.
/// `track_quality` fills the mean_*_ratio fields.
ReplayOutcome ReplayKey(const KeyStream& stream,
                        const std::vector<AckedEvent>& events,
                        std::size_t seed_events,
                        std::shared_ptr<msp::planner::PlannerService> planner,
                        std::vector<ApplySample>* samples,
                        bool track_quality = false);

/// Compares a final QueryResult with the replay. Empty when they
/// agree, else what differs.
std::string CompareQuery(const rpc::Response& query,
                         const ReplayOutcome& replay);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
