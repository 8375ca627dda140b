#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "rpc/client.h"
#include "stats.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr double kServerStartTimeoutS = 30;
constexpr double kServerStopTimeoutS = 60;

// Reads what is available from `fd` within `timeout_ms`; false on EOF.
bool ReadSome(int fd, std::string* out, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return true;
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n > 0) {
    out->append(buf, static_cast<std::size_t>(n));
    return true;
  }
  return n < 0 && errno == EINTR;
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Stop(nullptr);
}

bool ServerProcess::Start(const std::string& mspctl,
                          const std::vector<std::string>& args,
                          const std::string& log_path, std::string* error) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> argv_store;
  argv_store.push_back(mspctl);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, mspctl.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    *error = "spawn " + mspctl + ": " + std::strerror(rc);
    return false;
  }
  pid_ = pid;
  out_fd_ = pipe_fds[0];
  out_.clear();
  const std::string marker = "rpc: listening on 127.0.0.1:";
  const double deadline = NowSeconds() + kServerStartTimeoutS;
  while (NowSeconds() < deadline) {
    const std::size_t at = out_.find(marker);
    const std::size_t eol =
        at == std::string::npos ? at : out_.find('\n', at);
    if (eol != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::stoul(out_.substr(at + marker.size(), eol - at - marker.size())));
      return true;
    }
    if (!ReadSome(out_fd_, &out_, 100)) break;
  }
  *error = "server did not report a listening port (see " + log_path + ")";
  Stop(nullptr);
  return false;
}

int ServerProcess::Stop(std::string* stdout_text) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const double deadline = NowSeconds() + kServerStopTimeoutS;
  while (NowSeconds() < deadline && ReadSome(out_fd_, &out_, 100)) {
  }
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         NowSeconds() < deadline) {
    ::usleep(10000);
  }
  int code = -1;
  if (done == pid_) {
    code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  } else {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  if (stdout_text != nullptr) *stdout_text = out_;
  return code;
}

bool CpuKeeper::Start(const std::string& path, std::string* error) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[0], STDIN_FILENO);
  std::string program = path;
  char* argv[] = {program.data(), nullptr};
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, path.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[0]);
  if (rc != 0) {
    ::close(pipe_fds[1]);
    *error = "spawn " + path + ": " + std::strerror(rc);
    return false;
  }
  pid_ = pid;
  stdin_fd_ = pipe_fds[1];
  return true;
}

void CpuKeeper::Stop() {
  if (pid_ <= 0) return;
  ::close(stdin_fd_);
  int status = 0;
  const double deadline = NowSeconds() + 10;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (NowSeconds() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    ::usleep(1000);
  }
  stdin_fd_ = -1;
  pid_ = -1;
}

Placement PlanPlacement() {
  Placement placement;
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 4) return placement;
  placement.generator.push_back(0);
  for (int c = 1; c < cpus; ++c) placement.server.push_back(c);
  return placement;
}

std::vector<int> AllCpus() {
  std::vector<int> cpus(static_cast<std::size_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  for (std::size_t c = 0; c < cpus.size(); ++c) cpus[c] = static_cast<int>(c);
  return cpus;
}

void PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

ProcReading ReadProc(int pid) {
  ProcReading reading;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream status(base + "/status");
  std::string line;
  while (std::getline(status, line)) {
    std::istringstream fields(line);
    std::string name;
    uint64_t value = 0;
    fields >> name >> value;
    if (name == "VmHWM:") reading.hwm_kb = value;
    if (name == "Threads:") reading.threads = value;
  }
  std::ifstream stat(base + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // the 14th and 15th fields overall.
  const std::size_t close = text.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    reading.cpu_us = ticks * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  return reading;
}

namespace {

std::string Describe(const rpc::Response& response) {
  std::string out(rpc::MsgTypeName(response.type));
  if (response.type == rpc::MsgType::kError) out += ": " + response.error;
  return out;
}

// Shared tallies of the load threads.
struct Tally {
  std::mutex mu;
  LoadResult* result = nullptr;  // counters + problems, guarded by mu

  void Problem(const std::string& what, uint64_t LoadResult::*counter) {
    std::unique_lock<std::mutex> lock(mu);
    ++(result->*counter);
    if (result->first_problems.size() < 8) {
      result->first_problems.push_back(what);
    }
  }
};

// Per-connection state both loops share: the key streams' cursors and
// the acked counts every Query is checked against.
struct ConnState {
  std::size_t conn = 0;
  std::vector<std::size_t> next_update;       // per key
  std::vector<std::vector<AckedEvent>>* acked; // only this conn's keys
  std::vector<OpRecord> records;
};

// Checks one response against its request and books the ack.
// Returns false when the op failed.
bool Book(const Op& op, const rpc::Request& request,
          const rpc::Response& response, ConnState* state, Tally* tally) {
  if (response.req_id != request.req_id) {
    tally->Problem("response id " + std::to_string(response.req_id) +
                       " != request id " + std::to_string(request.req_id),
                   &LoadResult::check_failures);
    return false;
  }
  if (response.type == rpc::MsgType::kOverloaded) {
    tally->Problem("overloaded on " + request.key, &LoadResult::overloaded);
    return false;
  }
  if (response.type == rpc::MsgType::kError) {
    tally->Problem(Describe(response), &LoadResult::errors);
    return false;
  }
  std::vector<AckedEvent>& acked = (*state->acked)[op.key];
  if (op.query) {
    const uint64_t seen = response.applied_updates + response.rejected_updates;
    if (response.type != rpc::MsgType::kQueryResult || !response.found ||
        seen != acked.size()) {
      tally->Problem("query of " + request.key + " saw " +
                         std::to_string(seen) + " updates, acked " +
                         std::to_string(acked.size()) + " (" +
                         Describe(response) + ")",
                     &LoadResult::check_failures);
      return false;
    }
    return true;
  }
  if (response.type != rpc::MsgType::kOk || response.accepted != 1) {
    tally->Problem("submit to " + request.key + " answered " +
                       Describe(response),
                   &LoadResult::check_failures);
    return false;
  }
  acked.push_back(AckedEvent{request.updates[0], 1});
  return true;
}

// A nonblocking connection for the open loop: requests go out when
// they are due whether or not earlier responses have arrived, so the
// socket is polled for both directions. Frames use the repo codec.
class PipeConn {
 public:
  ~PipeConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool Connect(uint16_t port, std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }
  void Queue(const rpc::Request& request) {
    out_ += rpc::EncodeFrame(rpc::EncodeRequest(request));
  }
  bool pending_output() const { return out_off_ < out_.size(); }
  // Writes what the socket takes. False on a transport error.
  bool Flush(std::string* error) {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_,
                               out_.size() - out_off_, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        *error = std::string("send: ") + std::strerror(errno);
        return false;
      }
      out_off_ += static_cast<std::size_t>(n);
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    return true;
  }
  // Waits up to `timeout_us` for the socket, reads what arrived and
  // decodes whole responses into `responses`. False on a transport or
  // framing error.
  bool Poll(int64_t timeout_us, std::vector<rpc::Response>* responses,
            std::string* error) {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (pending_output() ? POLLOUT : 0)),
               0};
    timespec ts{timeout_us / 1000000, (timeout_us % 1000000) * 1000};
    const int ready = ::ppoll(&pfd, 1, timeout_us < 0 ? nullptr : &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      *error = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    if (ready <= 0) return true;
    if (pfd.revents & POLLOUT) {
      if (!Flush(error)) return false;
    }
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[64 * 1024];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) {
        *error = "server closed the connection";
        return false;
      }
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) return true;
        *error = std::string("recv: ") + std::strerror(errno);
        return false;
      }
      in_.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t off = 0;
    while (true) {
      std::size_t frame_size = 0;
      std::string_view payload;
      std::string frame_error;
      const rpc::FrameStatus status = rpc::DecodeFrame(
          std::string_view(in_).substr(off), &frame_size, &payload,
          &frame_error);
      if (status == rpc::FrameStatus::kNeedMore) break;
      if (status == rpc::FrameStatus::kBad) {
        *error = "bad frame: " + frame_error;
        return false;
      }
      rpc::Response response;
      if (!rpc::DecodeResponse(payload, &response, &frame_error)) {
        *error = "bad response: " + frame_error;
        return false;
      }
      responses->push_back(std::move(response));
      off += frame_size;
    }
    in_.erase(0, off);
    return true;
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
};

uint64_t SelfThreads() { return ReadProc(static_cast<int>(::getpid())).threads; }

void RunOpenLoop(uint16_t port, const Plan& plan, int64_t t0, ConnState* state,
                 Tally* tally) {
  PipeConn conn;
  std::string error;
  const std::vector<Op>& ops = plan.conn_ops[state->conn];
  if (!conn.Connect(port, &error)) {
    tally->Problem(error, &LoadResult::transport_errors);
    return;
  }
  struct Pending {
    std::size_t op;
    rpc::Request request;
    int64_t due_us;
    double sent_us;
  };
  std::deque<Pending> pending;
  std::vector<rpc::Response> responses;
  state->records.reserve(ops.size());
  std::size_t next = 0;
  uint64_t req_id = 1;
  while (next < ops.size() || !pending.empty()) {
    const double now = NowMicrosF() - static_cast<double>(t0);
    while (next < ops.size() && static_cast<double>(ops[next].due_us) <= now) {
      const Op& op = ops[next];
      Pending p{next, MakeOpRequest(plan, op, state->next_update[op.key], req_id++),
                op.due_us, now};
      if (!op.query) ++state->next_update[op.key];
      conn.Queue(p.request);
      pending.push_back(std::move(p));
      ++next;
    }
    if (conn.pending_output() && !conn.Flush(&error)) break;
    const int64_t wait =
        next < ops.size() ? std::max<int64_t>(0, ops[next].due_us - (NowMicros() - t0))
                          : 200000;
    responses.clear();
    if (!conn.Poll(wait, &responses, &error)) break;
    const double recv_us = NowMicrosF() - static_cast<double>(t0);
    for (const rpc::Response& response : responses) {
      if (pending.empty()) {
        tally->Problem("unsolicited response", &LoadResult::check_failures);
        continue;
      }
      const Pending& p = pending.front();
      const Op& op = ops[p.op];
      OpRecord record;
      record.query = op.query;
      record.rung = op.rung;
      record.cycle = op.cycle;
      record.latency_us = recv_us - static_cast<double>(p.due_us);
      record.lag_us = p.sent_us - static_cast<double>(p.due_us);
      record.failed = !Book(op, p.request, response, state, tally);
      state->records.push_back(record);
      SpanLog::Get().Add(op.query ? "rpc.query" : "rpc.submit", t0 + p.due_us,
                         t0 + static_cast<int64_t>(recv_us), p.request.req_id);
      pending.pop_front();
    }
  }
  if (!error.empty()) {
    tally->Problem(error, &LoadResult::transport_errors);
    // Every request not answered is a failure.
    for (std::size_t i = state->records.size(); i < ops.size(); ++i) {
      OpRecord record;
      record.query = ops[i].query;
      record.rung = ops[i].rung;
      record.cycle = ops[i].cycle;
      record.failed = true;
      state->records.push_back(record);
    }
  }
}

void RunClosedLoop(uint16_t port, const Plan& plan, int64_t t0,
                   int64_t end_us, ConnState* state, Tally* tally) {
  rpc::RpcClient client;
  std::string error;
  const std::vector<Op>& ops = plan.conn_ops[state->conn];
  if (!client.Connect("127.0.0.1", port, &error)) {
    tally->Problem(error, &LoadResult::transport_errors);
    return;
  }
  uint64_t req_id = 1;
  std::size_t next = 0;
  std::vector<std::pair<rpc::Request, double>> group;
  while (next < ops.size() && NowMicros() - t0 < end_us) {
    // One group: submits to one key, then a Query of it, pipelined.
    group.clear();
    do {
      const Op& op = ops[next];
      rpc::Request request =
          MakeOpRequest(plan, op, state->next_update[op.key], req_id++);
      if (!op.query) ++state->next_update[op.key];
      const double sent = NowMicrosF();
      if (!client.Send(request, &error)) break;
      group.emplace_back(std::move(request), sent);
    } while (!ops[next++].query);
    const std::size_t first = next - group.size();
    // Cycles of the closed loop are equal windows of the run, by the
    // time the group was sent.
    const uint32_t window = static_cast<uint32_t>(std::min<double>(
        static_cast<double>(plan.spec->cycles - 1),
        (group.front().second - static_cast<double>(t0)) *
            static_cast<double>(plan.spec->cycles) / static_cast<double>(end_us)));
    for (std::size_t i = 0; i < group.size(); ++i) {
      rpc::Response response;
      if (!client.Recv(&response, &error)) break;
      const Op& op = ops[first + i];
      OpRecord record;
      record.query = op.query;
      record.cycle = window;
      record.latency_us = NowMicrosF() - group[i].second;
      record.failed = !Book(op, group[i].first, response, state, tally);
      state->records.push_back(record);
      SpanLog::Get().Add(op.query ? "rpc.query" : "rpc.submit",
                         static_cast<int64_t>(group[i].second), NowMicros(),
                         group[i].first.req_id);
    }
    if (!error.empty()) break;
  }
  if (!error.empty()) {
    tally->Problem(error, &LoadResult::transport_errors);
    OpRecord record;
    record.failed = true;
    state->records.push_back(record);
  }
}

}  // namespace

bool SetUpInstances(uint16_t port, const Plan& plan,
                    std::vector<std::vector<AckedEvent>>* acked,
                    std::string* error) {
  rpc::RpcClient client;
  if (!client.Connect("127.0.0.1", port, error)) return false;
  acked->assign(plan.keys.size(), {});
  uint64_t req_id = 1;
  rpc::Response response;
  for (std::size_t k = 0; k < plan.keys.size(); ++k) {
    const KeyStream& ks = plan.keys[k];
    rpc::Request create;
    create.type = rpc::MsgType::kCreateInstance;
    create.req_id = req_id++;
    create.key = ks.key;
    create.spec = ks.spec;
    if (!client.Call(create, &response, error)) return false;
    if (response.type != rpc::MsgType::kOk || response.req_id != create.req_id) {
      *error = "create " + ks.key + ": " + Describe(response);
      return false;
    }
    rpc::Request seed;
    seed.type = rpc::MsgType::kSubmitBatch;
    seed.req_id = req_id++;
    seed.key = ks.key;
    seed.updates = ks.initial;
    seed.batch_size = static_cast<uint32_t>(ks.initial.size());
    if (!client.Call(seed, &response, error)) return false;
    if (response.type != rpc::MsgType::kOk ||
        response.accepted != ks.initial.size() ||
        response.req_id != seed.req_id) {
      *error = "seed " + ks.key + ": " + Describe(response);
      return false;
    }
    for (const online::Update& u : ks.initial) {
      (*acked)[k].push_back(AckedEvent{u, seed.batch_size});
    }
  }
  // Confirm: each Query is ordered after the key's seed batch.
  for (std::size_t k = 0; k < plan.keys.size(); ++k) {
    rpc::Request query;
    query.type = rpc::MsgType::kQuery;
    query.req_id = req_id++;
    query.key = plan.keys[k].key;
    if (!client.Call(query, &response, error)) return false;
    if (response.type != rpc::MsgType::kQueryResult || !response.found ||
        response.applied_updates != plan.keys[k].initial.size()) {
      *error = "seed of " + query.key + " not confirmed: " + Describe(response);
      return false;
    }
  }
  return true;
}

LoadResult RunLoad(uint16_t port, const Plan& plan,
                   std::vector<std::vector<AckedEvent>> acked) {
  LoadResult result;
  result.connections = plan.spec->connections;
  Tally tally;
  tally.result = &result;
  std::vector<ConnState> states(plan.spec->connections);
  for (std::size_t c = 0; c < states.size(); ++c) {
    states[c].conn = c;
    states[c].next_update.assign(plan.keys.size(), 0);
    states[c].acked = &acked;  // each key is touched by one conn only
  }
  std::atomic<std::size_t> finished{0};
  const int64_t t0 = NowMicros() + 20000;  // let every thread start first
  const int64_t end_us = static_cast<int64_t>(plan.seconds * 1e6);
  std::vector<std::thread> threads;
  for (ConnState& state : states) {
    threads.emplace_back([&, s = &state] {
      // Wake on time: the default 50 us timer slack would show up as
      // generator lag on every scheduled send.
      ::prctl(PR_SET_TIMERSLACK, 1);
      while (NowMicros() < t0) std::this_thread::yield();
      if (plan.spec->closed_loop) {
        RunClosedLoop(port, plan, t0, end_us, s, &tally);
      } else {
        RunOpenLoop(port, plan, t0, s, &tally);
      }
      finished.fetch_add(1);
    });
  }
  // The main thread only watches the generator's thread budget.
  while (finished.load() < threads.size()) {
    result.peak_threads = std::max(result.peak_threads, SelfThreads());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (std::thread& t : threads) t.join();
  result.load_seconds = static_cast<double>(NowMicros() - t0) / 1e6;
  for (ConnState& state : states) {
    result.ops.insert(result.ops.end(), state.records.begin(),
                      state.records.end());
  }
  result.acked = std::move(acked);
  return result;
}

bool QueryAll(uint16_t port, const Plan& plan,
              std::vector<rpc::Response>* out, std::string* error) {
  rpc::RpcClient client;
  if (!client.Connect("127.0.0.1", port, error)) return false;
  out->assign(plan.keys.size(), {});
  for (std::size_t k = 0; k < plan.keys.size(); ++k) {
    rpc::Request query;
    query.type = rpc::MsgType::kQuery;
    query.req_id = k + 1;
    query.key = plan.keys[k].key;
    if (!client.Call(query, &(*out)[k], error)) return false;
    if ((*out)[k].req_id != query.req_id) {
      *error = "final query answered out of order";
      return false;
    }
  }
  return true;
}

bool QueryStats(uint16_t port, rpc::Response* out, std::string* error) {
  rpc::RpcClient client;
  if (!client.Connect("127.0.0.1", port, error)) return false;
  rpc::Request request;
  request.type = rpc::MsgType::kStats;
  request.req_id = 1;
  if (!client.Call(request, out, error)) return false;
  return out->type == rpc::MsgType::kStatsResult;
}

}  // namespace perfbench
