// The socket side of the benchmark: spawns the shipped server, sets
// up the workload's instances over RPC, drives the load phase from
// this process, and checks every response as it arrives.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "oracle.h"
#include "rpc/protocol.h"
#include "workload.h"

namespace perfbench {

/// A running `mspctl serve --listen=0` child.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits for its listening line. `log_path`
  /// receives its stderr.
  bool Start(const std::string& mspctl, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);
  uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  /// SIGTERM, then collects stdout until exit. Returns the exit code
  /// (-1 when killed by a signal or on timeout).
  int Stop(std::string* stdout_text);

 private:
  int pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string out_;  // stdout read so far
};

/// A running `perfbench_awake` child, which keeps every CPU spinning
/// at the lowest priority so that wake-ups do not halt and resume a
/// virtual CPU (see awake.cc). It exits when Stop() closes its stdin,
/// or when this process dies.
class CpuKeeper {
 public:
  CpuKeeper() = default;
  ~CpuKeeper() { Stop(); }
  CpuKeeper(const CpuKeeper&) = delete;
  CpuKeeper& operator=(const CpuKeeper&) = delete;

  bool Start(const std::string& path, std::string* error);
  void Stop();

 private:
  int pid_ = -1;
  int stdin_fd_ = -1;
};

/// Where the server and the generator run. Left to the scheduler, the
/// threads that hand a request to each other drift between sharing a
/// CPU and not, and on a virtual machine (where a cross-CPU wake-up is
/// an interrupt through the hypervisor) each arrangement has its own
/// latency, so a run's figures would depend on where its threads
/// happened to settle. With 4 or more CPUs the load threads share CPU 0
/// (they mostly wait) and the server gets every other CPU, since its
/// shards and planner pool do the run's real work; with fewer CPUs
/// nothing is pinned (both lists empty).
struct Placement {
  std::vector<int> server;
  std::vector<int> generator;
};
Placement PlanPlacement();
std::vector<int> AllCpus();
/// Restricts the calling thread (and threads it later creates or
/// processes it spawns) to `cpus`; no-op when empty.
void PinThisThread(const std::vector<int>& cpus);

/// Readings from /proc/<pid>.
struct ProcReading {
  double cpu_us = 0;   // utime + stime
  uint64_t hwm_kb = 0; // VmHWM
  uint64_t threads = 0;
};
ProcReading ReadProc(int pid);

/// One load-phase request as the generator saw it.
struct OpRecord {
  bool query = false;
  uint32_t rung = 0;
  uint32_t cycle = 0;
  double latency_us = 0;  // from due time (open loop) or send (closed)
  double lag_us = 0;      // how late it was sent (open loop)
  bool failed = false;
};

struct LoadResult {
  std::vector<OpRecord> ops;
  /// Per key, every acked update in ack order, set-up seeds first.
  std::vector<std::vector<AckedEvent>> acked;
  double load_seconds = 0;
  uint64_t transport_errors = 0;
  uint64_t overloaded = 0;
  uint64_t errors = 0;       // kError responses
  uint64_t check_failures = 0;  // order / id / query-count mismatches
  std::vector<std::string> first_problems;
  uint64_t peak_threads = 0;
  std::size_t connections = 0;
};

/// Creates and seeds every instance over one admin connection and
/// confirms each with a Query. Fills `acked` with the seed batches.
bool SetUpInstances(uint16_t port, const Plan& plan,
                    std::vector<std::vector<AckedEvent>>* acked,
                    std::string* error);

/// Runs the load phase against `port`. `acked` holds the set-up seeds
/// on entry and gains every acked load update.
LoadResult RunLoad(uint16_t port, const Plan& plan,
                   std::vector<std::vector<AckedEvent>> acked);

/// Final Query of every key, in key order, over one connection.
bool QueryAll(uint16_t port, const Plan& plan,
              std::vector<rpc::Response>* out, std::string* error);

/// Stats RPC.
bool QueryStats(uint16_t port, rpc::Response* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
