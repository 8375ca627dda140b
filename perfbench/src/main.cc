// perfbench_loadgen — one benchmark run of one workload.
//
//   perfbench_loadgen --workload=rpc-small --seed=7 --seconds=10 --trace=0
//       --mspctl=PATH --out-dir=DIR [--awake=PATH] [--inject-drop-ack]
//
// Spawns `mspctl serve --listen=0 --shards=2` (plus the WAL flags on
// rpc-durable), sets the workload up over RPC several times to time
// set-up, drives the load phase from this process, checks every
// response, replays every key's acked stream as the oracle, and
// prints the metrics. The last stdout line is the result JSON:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace=0 reports the end-to-end metrics; --trace=1 runs the same
// load with harness spans on, then measures each layer in-process
// (layers.h) and reports the per-layer metrics. --inject-drop-ack
// removes one acked update from the oracle's expectation; the run
// must then fail (the oracle's self-test).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "durability/wal.h"
#include "layers.h"
#include "loadgen.h"
#include "core/schema_io.h"
#include "oracle.h"
#include "serving/service.h"
#include "stats.h"
#include "workload.h"

namespace {

using namespace perfbench;

// Latency limit of max_ok_rate, calibrated once on the commit the
// benchmark was written against and frozen: a rung passes when its
// submit p99 (from due time) stays within it, nothing failed, and the
// generator kept its schedule.
constexpr double kLatencyLimitUs = 2000;
constexpr int kSetupReps = 7;
constexpr int kRecoverReps = 9;
// A failed request counts as missing every latency limit.
constexpr double kFailedLatencyUs = 1e12;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string mspctl;
  std::string awake;  // perfbench_awake; empty = no CPU keeper
  std::string out_dir;
  bool inject_drop_ack = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--inject-drop-ack") {
      args->inject_drop_ack = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      *error = "bad argument '" + arg + "' (want --name=value)";
      return false;
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (name == "workload") {
        args->workload = value;
      } else if (name == "seed") {
        args->seed = std::stoull(value);
      } else if (name == "seconds") {
        args->seconds = std::stod(value);
      } else if (name == "trace") {
        args->trace = std::stoi(value);
      } else if (name == "mspctl") {
        args->mspctl = value;
      } else if (name == "awake") {
        args->awake = value;
      } else if (name == "out-dir") {
        args->out_dir = value;
      } else {
        *error = "unknown option --" + name;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for --" + name;
      return false;
    }
  }
  if (args->workload.empty() || args->mspctl.empty() || args->out_dir.empty() ||
      args->seconds <= 0 || (args->trace != 0 && args->trace != 1)) {
    *error = "need --workload, --mspctl, --out-dir, --seconds > 0, --trace 0|1";
    return false;
  }
  return true;
}

// Numbers from an optimized, sanitizer-free build only.
std::string BuildRefusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  return "assertions are enabled (build type '" + type + "')";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
  if (type != "Release") return "build type '" + type + "' is not Release";
  return "";
}

double PercentileOf(std::vector<double> values, double p) {
  return Percentile(&values, p);
}

struct RungSummary {
  double rate = 0;
  std::size_t submits = 0;
  std::size_t queries = 0;
  std::size_t failed = 0;
  double submit_p50 = 0, submit_p99 = 0, submit_p999 = 0;
  double query_p50 = 0, query_p99 = 0;
  double lag_p99 = 0;
  bool ok = false;
};

// Figures of the ops on one rung in one cycle (< 0: any).
RungSummary Summarize(const std::vector<OpRecord>& ops, int rung, int cycle) {
  RungSummary s;
  std::vector<double> submit, query, lag;
  for (const OpRecord& op : ops) {
    if ((rung >= 0 && op.rung != static_cast<uint32_t>(rung)) ||
        (cycle >= 0 && op.cycle != static_cast<uint32_t>(cycle))) {
      continue;
    }
    const double latency = op.failed ? kFailedLatencyUs : op.latency_us;
    (op.query ? query : submit).push_back(latency);
    lag.push_back(op.lag_us);
    s.failed += op.failed ? 1 : 0;
  }
  s.submits = submit.size();
  s.queries = query.size();
  s.submit_p50 = PercentileOf(submit, 50);
  s.submit_p99 = PercentileOf(submit, 99);
  s.submit_p999 = PercentileOf(submit, 99.9);
  s.query_p50 = PercentileOf(query, 50);
  s.query_p99 = PercentileOf(query, 99);
  s.lag_p99 = PercentileOf(lag, 99);
  s.ok = s.failed == 0 && s.submits > 0 && s.submit_p99 <= kLatencyLimitUs &&
         s.lag_p99 <= kLatencyLimitUs;
  return s;
}

// The median of each figure over several cycles.
RungSummary MedianOf(const std::vector<RungSummary>& climbs) {
  RungSummary s;
  const auto median = [&](double RungSummary::*field) {
    std::vector<double> values;
    for (const RungSummary& c : climbs) values.push_back(c.*field);
    return Median(values);
  };
  for (const RungSummary& c : climbs) {
    s.submits += c.submits;
    s.queries += c.queries;
    s.failed += c.failed;
  }
  s.rate = median(&RungSummary::rate);
  s.submit_p50 = median(&RungSummary::submit_p50);
  s.submit_p99 = median(&RungSummary::submit_p99);
  s.submit_p999 = median(&RungSummary::submit_p999);
  s.query_p50 = median(&RungSummary::query_p50);
  s.query_p99 = median(&RungSummary::query_p99);
  s.lag_p99 = median(&RungSummary::lag_p99);
  s.ok = s.failed == 0 && s.submit_p99 <= kLatencyLimitUs &&
         s.lag_p99 <= kLatencyLimitUs;
  return s;
}

// "instance=<key> shard=<i> inputs=<n> reducers=<n> valid=yes|NO"
std::map<std::string, bool> ParseServeInstances(const std::string& text) {
  std::map<std::string, bool> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("instance=", 0) != 0) continue;
    const std::string key = line.substr(9, line.find(' ') - 9);
    out[key] = line.find(" valid=yes") != std::string::npos;
  }
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricSet& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics.all()) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(metric.value) << ", \"unit\": " << JsonString(metric.unit)
        << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "error: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::cerr << "error: refusing to report: " << refusal << "\n";
    return 2;
  }
  // Thread and connection budget: the load threads plus this one, and
  // the load connections plus the admin one, all within nproc.
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (static_cast<long>(spec->connections) + 1 > nproc) {
    std::cerr << "error: " << spec->connections + 1
              << " generator threads/connections exceed nproc=" << nproc << "\n";
    return 2;
  }

  std::string error;
  Plan plan;
  if (!BuildPlan(*spec, args.seed, args.seconds, &plan, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::filesystem::create_directories(args.out_dir);
  const std::string wal_root = args.out_dir + "/wal";

  std::vector<std::string> serve_args = {
      "serve", "--listen=0", "--shards=" + std::to_string(spec->shards)};
  // The CPU keeper runs from the first set-up to the server's exit:
  // the phases whose figures are round trips between sleeping threads.
  // It stays off while the server logs to disk, because spinning CPUs
  // slow the virtual disk's completions (fsync max 0.6 -> 8 ms on the
  // 4-vCPU KVM guest the benchmark was tuned on), which costs a logging
  // shard more than the wake-ups save.
  CpuKeeper keeper;
  if (!args.awake.empty() && !spec->wal && !keeper.Start(args.awake, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  const Placement placement = PlanPlacement();
  std::vector<double> setup_s;
  ServerProcess server;
  std::vector<std::vector<AckedEvent>> seeds;
  bool correct = true;
  const int reps = args.trace == 1 ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::string> rep_args = serve_args;
    if (spec->wal) {
      std::filesystem::remove_all(wal_root);
      rep_args.push_back("--wal-dir=" + wal_root);
      rep_args.push_back("--fsync-every=" + std::to_string(spec->fsync_every));
      rep_args.push_back("--rotate-every=" + std::to_string(spec->rotate_every));
    }
    const double start = NowSeconds();
    // The server inherits the CPUs this thread runs on when spawned.
    PinThisThread(placement.server);
    const bool started = server.Start(args.mspctl, rep_args,
                                      args.out_dir + "/server.log", &error);
    PinThisThread(placement.generator);
    if (!started || !SetUpInstances(server.port(), plan, &seeds, &error)) {
      std::cerr << "error: set-up (port " << server.port() << "): " << error
                << "\n";
      return 1;
    }
    setup_s.push_back(NowSeconds() - start);
    if (rep + 1 < reps) {
      const int code = server.Stop(nullptr);
      if (code != 0) {
        std::cerr << "error: set-up server exited " << code << "\n";
        return 1;
      }
    }
  }

  if (args.trace == 1) SpanLog::Get().Enable(400000);
  const ProcReading before = ReadProc(server.pid());
  LoadResult load = RunLoad(server.port(), plan, seeds);
  const ProcReading after = ReadProc(server.pid());
  // The replay and the traced run's in-process drives may use every CPU.
  PinThisThread(AllCpus());

  rpc::Response stats;
  std::vector<rpc::Response> finals;
  if (!QueryStats(server.port(), &stats, &error) ||
      !QueryAll(server.port(), plan, &finals, &error)) {
    std::cerr << "error: final queries: " << error << "\n";
    correct = false;
  }
  const ProcReading at_end = ReadProc(server.pid());
  std::string serve_out;
  const int serve_code = server.Stop(&serve_out);
  keeper.Stop();
  const std::map<std::string, bool> valid = ParseServeInstances(serve_out);
  std::size_t valid_yes = 0;
  for (const auto& [key, ok] : valid) valid_yes += ok ? 1 : 0;
  if (serve_code != 0 || valid.size() != plan.keys.size() ||
      valid_yes != plan.keys.size()) {
    std::cerr << "error: serve exited " << serve_code << " with " << valid_yes
              << "/" << plan.keys.size() << " instances valid=yes\n";
    correct = false;
  }

  if (args.inject_drop_ack) {
    // Oracle self-test: forget one acked load update of the hottest key.
    for (std::size_t k = 0; k < plan.keys.size(); ++k) {
      if (load.acked[k].size() > plan.keys[k].initial.size()) {
        load.acked[k].pop_back();
        std::cerr << "self-test: dropped one acked update of "
                  << plan.keys[k].key << " from the oracle\n";
        break;
      }
    }
  }

  // Oracle replay of every key's acked stream, on as many threads as
  // the server has shards. The traced run replays on one thread so
  // per-update planner time can be attributed from the shared
  // planner's totals.
  auto planner = std::make_shared<msp::planner::PlannerService>(
      msp::planner::PlannerConfig{.num_threads = 1});
  std::vector<ReplayOutcome> replays(plan.keys.size());
  std::vector<ApplySample> samples;
  const std::size_t replay_threads = args.trace == 1 ? 1 : spec->shards;
  const double replay_start = NowSeconds();
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < replay_threads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = t; k < plan.keys.size(); k += replay_threads) {
          replays[k] = ReplayKey(plan.keys[k], load.acked[k],
                                 plan.keys[k].initial.size(), planner,
                                 args.trace == 1 ? &samples : nullptr,
                                 /*track_quality=*/args.trace == 0);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::fprintf(stderr, "oracle replay: %.3f s on %zu threads\n",
               NowSeconds() - replay_start, replay_threads);
  uint64_t oracle_mismatches = 0;
  for (std::size_t k = 0; k < plan.keys.size() && k < finals.size(); ++k) {
    const std::string diff = CompareQuery(finals[k], replays[k]);
    if (!diff.empty()) {
      if (oracle_mismatches < 5) {
        std::cerr << "oracle: " << plan.keys[k].key << ": " << diff << "\n";
      }
      ++oracle_mismatches;
    }
  }

  double recover_s = 0;
  if (spec->wal) {
    // Recover the directory the server left and compare every schema
    // bit for bit with the replay. Recovery rewrites the directory (it
    // cuts a fresh snapshot), so each timed recovery gets its own copy
    // of what the server left; recover_s is the median.
    std::vector<double> recover_times;
    for (int rep = 0; rep < kRecoverReps; ++rep) {
      const std::string copy = wal_root + "-recover";
      std::filesystem::remove_all(copy);
      std::filesystem::copy(wal_root, copy, std::filesystem::copy_options::recursive);
      msp::serving::ServingConfig config;
      config.num_shards = spec->shards;
      msp::serving::ServingService recovered(config);
      msp::durability::WalOptions options;
      options.dir = copy;
      options.recover = true;
      const double start = NowSeconds();
      const bool ok = recovered.AttachWal(options, &error);
      recover_times.push_back(NowSeconds() - start);
      std::map<std::string, std::string> schemas;
      if (ok) {
        recovered.ForEachInstance(
            [&](const std::string& key, const online::OnlineAssigner& a) {
              schemas[key] = msp::SchemaToText(a.Schema());
            });
      } else {
        std::cerr << "error: recovery: " << error << "\n";
      }
      uint64_t diverged = schemas.size() == plan.keys.size() ? 0 : 1;
      for (std::size_t k = 0; k < plan.keys.size(); ++k) {
        const auto it = schemas.find(plan.keys[k].key);
        if (it == schemas.end() || it->second != replays[k].schema) ++diverged;
      }
      if (!ok || diverged != 0) {
        std::cerr << "error: recovered schemas diverge from the replay on "
                  << diverged << " keys\n";
        correct = false;
      }
      std::filesystem::remove_all(copy);
    }
    recover_s = Median(recover_times);
    std::filesystem::remove_all(wal_root);
  }

  // Outcome accounting.
  uint64_t attempted = 0, failed = 0;
  for (const OpRecord& op : load.ops) {
    ++attempted;
    failed += op.failed ? 1 : 0;
  }
  if (load.transport_errors + load.check_failures + oracle_mismatches > 0) {
    correct = false;
  }
  if (load.peak_threads > static_cast<uint64_t>(nproc) ||
      load.connections + 1 > static_cast<std::size_t>(nproc)) {
    std::cerr << "error: generator used " << load.peak_threads
              << " threads, over nproc=" << nproc << "\n";
    correct = false;
  }
  for (const std::string& problem : load.first_problems) {
    std::cerr << "problem: " << problem << "\n";
  }

  // Load-phase applied updates, from the final per-key queries, and
  // schema quality as the mean over keys of each key's load-phase mean
  // ratio.
  uint64_t load_applied = 0, load_answered = 0, load_churn = 0;
  std::vector<double> comm_ratio, reducer_ratio;
  for (std::size_t k = 0; k < plan.keys.size(); ++k) {
    const ReplayOutcome& r = replays[k];
    const uint64_t seeded = plan.keys[k].initial.size();
    const uint64_t applied =
        k < finals.size() ? finals[k].applied_updates : r.applied;
    load_applied += applied > seeded ? applied - seeded : 0;
    load_answered += k < finals.size() ? finals[k].rejected_updates : r.rejected;
    load_churn += r.load_churn_bytes;
    if (r.quality_samples > 0) {
      comm_ratio.push_back(r.mean_comm_ratio);
      reducer_ratio.push_back(r.mean_reducer_ratio);
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  };
  // Every acked submit must have been applied or rejected.
  const double cycle_seconds = args.seconds / static_cast<double>(spec->cycles);
  uint64_t acked_submits = 0;
  for (const OpRecord& op : load.ops) {
    if (!op.query && !op.failed) ++acked_submits;
  }
  load_answered += load_applied;
  if (acked_submits != load_answered) {
    std::cerr << "error: " << acked_submits << " acked submits but "
              << load_answered << " applied or rejected\n";
    correct = false;
  }

  // Latency: open loop at the reference rung (and a table of every
  // rung), each figure the median over the ladder's climbs; closed
  // loop over the whole phase. max_ok_rate is the highest rung that
  // meets the limit, as a median over the climbs.
  std::vector<RungSummary> rungs;
  RungSummary reference;
  double max_ok_rate = 0;
  if (spec->closed_loop) {
    // A window holds a few hundred requests, too few for a p99, so
    // latency is taken over the whole phase and rates per window.
    std::vector<double> rates;
    std::cerr << "windows (submits/s, submit p50/query p50 us):";
    for (std::size_t c = 0; c < spec->cycles; ++c) {
      const RungSummary w = Summarize(load.ops, -1, static_cast<int>(c));
      rates.push_back(static_cast<double>(w.submits + w.queries) / cycle_seconds);
      std::cerr << " " << static_cast<double>(w.submits) / cycle_seconds << ", "
                << w.submit_p50 << "/" << w.query_p50 << ";";
    }
    std::cerr << "\n";
    reference = Summarize(load.ops, -1, -1);
    reference.rate = Median(rates);
    if (reference.ok) max_ok_rate = reference.rate;
    rungs.push_back(reference);
  } else {
    std::vector<double> climb_max(spec->cycles, 0);
    for (std::size_t r = 0; r < spec->ladder.size(); ++r) {
      std::vector<RungSummary> climbs;
      for (std::size_t c = 0; c < spec->cycles; ++c) {
        climbs.push_back(
            Summarize(load.ops, static_cast<int>(r), static_cast<int>(c)));
        climbs.back().rate = spec->ladder[r];
        if (climbs.back().ok) climb_max[c] = std::max(climb_max[c], spec->ladder[r]);
      }
      rungs.push_back(MedianOf(climbs));
      if (r == spec->reference_rung) {
        std::cerr << "reference rung per climb (submit p50/query p50 us):";
        for (const RungSummary& c : climbs) {
          std::cerr << " " << c.submit_p50 << "/" << c.query_p50;
        }
        std::cerr << "\n";
      }
    }
    max_ok_rate = Median(climb_max);
    reference = rungs[spec->reference_rung];
  }
  std::fprintf(stderr, "%-10s %8s %8s %7s %10s %10s %10s %10s %10s %10s %4s\n",
               "rate/s", "submits", "queries", "failed", "sub_p50us",
               "sub_p99us", "sub_p999us", "qry_p50us", "qry_p99us",
               "lag_p99us", "ok");
  for (const RungSummary& s : rungs) {
    std::fprintf(stderr, "%-10.0f %8zu %8zu %7zu %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f %4s\n",
                 s.rate, s.submits, s.queries, s.failed, s.submit_p50,
                 s.submit_p99, s.submit_p999, s.query_p50, s.query_p99,
                 s.lag_p99, s.ok ? "yes" : "no");
  }
  std::cerr << "setup_s reps:";
  for (double s : setup_s) std::cerr << " " << s;
  std::cerr << "\nload: " << attempted << " requests, " << failed
            << " failed (overloaded " << load.overloaded << ", errors "
            << load.errors << ", transport " << load.transport_errors
            << ", checks " << load.check_failures << "), failed_frac "
            << (attempted ? static_cast<double>(failed) / attempted : 0)
            << ", oracle mismatches " << oracle_mismatches
            << ", generator threads " << load.peak_threads << "/" << nproc
            << ", server threads " << after.threads << "\n";

  MetricSet metrics;
  if (args.trace == 0) {
    metrics.Set("submit_p50_us", reference.submit_p50, "us");
    metrics.Set("query_p50_us", reference.query_p50, "us");
    // Applied load updates over the whole load phase. The closed loop's
    // per-window rates swing with where its few very costly updates
    // fall (see the windows line), so only the whole phase is steady.
    metrics.Set("updates_per_s",
                static_cast<double>(load_applied) / load.load_seconds, "1/s");
    metrics.Set("churn_bytes_per_update",
                load_applied ? static_cast<double>(load_churn) / load_applied : 0,
                "bytes");
    metrics.Set("comm_over_lb", mean(comm_ratio), "ratio");
    metrics.Set("reducers_over_lb", mean(reducer_ratio), "ratio");
    metrics.Set("setup_s", Median(setup_s), "s");
    // Recovery is a WAL workload's figure: the others have no log, and
    // their replay time (printed above) is the oracle's, not the server's.
    if (spec->wal) metrics.Set("recover_s", recover_s, "s");
    metrics.Set("peak_rss_mb", static_cast<double>(at_end.hwm_kb) / 1024.0,
                "MB");
  } else {
    // The tails ride with the per-layer set: on a shared machine their
    // run-to-run spread is wider than any bound a regression gate can
    // hold (see README.md), so they are reported, not gated.
    metrics.Set("submit_p99_us", reference.submit_p99, "us");
    metrics.Set("query_p99_us", reference.query_p99, "us");
    metrics.Set("max_ok_rate", max_ok_rate, "1/s");
    std::vector<double> submit_lat;
    for (const OpRecord& op : load.ops) {
      if (!op.query && !op.failed) submit_lat.push_back(op.latency_us);
    }
    LayerInputs in;
    in.plan = &plan;
    in.load = &load;
    in.samples = &samples;
    in.planner = planner;
    in.server_stats = &stats;
    in.server_cpu_us = after.cpu_us - before.cpu_us;
    in.server_threads = after.threads;
    in.applied_updates = load_applied;
    in.socket_submit_p50_us = PercentileOf(submit_lat, 50);
    in.work_dir = args.out_dir;
    in.drive_budget_s = std::max(1.0, args.seconds / 4);
    if (!MeasureLayers(in, &metrics, &error)) {
      std::cerr << "error: layers: " << error << "\n";
      correct = false;
    }
    const std::string trace_path = args.out_dir + "/spans.json";
    if (!SpanLog::Get().Write(trace_path)) {
      std::cerr << "error: cannot write " << trace_path << "\n";
      correct = false;
    } else {
      std::cerr << "spans: " << SpanLog::Get().size() << " written to "
                << trace_path << " (" << SpanLog::Get().dropped()
                << " over the cap)\n";
    }
  }
  if (!metrics.bad().empty()) {
    std::cerr << "error: non-finite metric " << metrics.bad().front() << "\n";
    correct = false;
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  return Run(args);
}
