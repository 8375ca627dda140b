// perfbench_awake — keeps every CPU out of its idle state while a
// benchmark run measures.
//
//   perfbench_awake < pipe      (exits when the pipe's writer closes it)
//
// Runs one spinning thread per online CPU under SCHED_IDLE, the
// lowest scheduling class: any normal thread that becomes runnable
// preempts a spinner at once, so the spinners take no time from the
// server or the load generator. What they change is how a sleeping
// thread wakes. On an idle CPU the kernel halts it, and under a
// hypervisor a halted virtual CPU has to be scheduled again by the
// host before the woken thread runs: each request's wake-ups then
// cost whatever the host's other tenants make them cost, and the
// latency figures follow the host, not the program. A spinning CPU
// never halts, so a wake-up is a plain in-guest preemption. This is
// the benchmark's stand-in for disabling deep idle states (idle=poll),
// which a process cannot do.
//
// The main thread blocks on stdin and exits when it reaches EOF, so
// the spinners end with the process that started them even if that
// process is killed. A hard deadline bounds the lifetime regardless.

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace {

constexpr unsigned kMaxLifetimeSeconds = 900;

void Spin() {
  sched_param param{};
  if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
    std::fprintf(stderr, "perfbench_awake: cannot enter SCHED_IDLE\n");
    std::_Exit(1);
  }
  for (;;) __builtin_ia32_pause();
}

}  // namespace

int main() {
  ::alarm(kMaxLifetimeSeconds);
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::vector<std::thread> spinners;
  for (long i = 0; i < cpus; ++i) spinners.emplace_back(Spin);
  for (std::thread& t : spinners) t.detach();
  char buffer[64];
  while (::read(STDIN_FILENO, buffer, sizeof buffer) > 0) {
  }
  std::_Exit(0);
}
