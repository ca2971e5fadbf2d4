#include "fleet.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util.h"

namespace perfbench {

namespace {

// Live worker pids, readable from signal handlers.
constexpr int kMaxWorkers = 64;
std::atomic<pid_t> g_live[kMaxWorkers];

void Register(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

// Reaps `pid`, waiting at most `timeout_s`; true once it is gone.
bool ReapWithin(pid_t pid, double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  while (true) {
    const pid_t r = waitpid(pid, nullptr, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (NowSeconds() >= deadline) return false;
    usleep(5000);
  }
}

void OnExitSignal(int sig) {
  WorkerFleet::KillAllFromSignal();
  if (sig == SIGALRM) {
    static const char kMsg[] = "perfbench: run watchdog expired\n";
    (void)!write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  }
  _exit(128 + sig);
}

void OnFatalSignal(int sig) {
  WorkerFleet::KillAllFromSignal();
  std::signal(sig, SIG_DFL);
  raise(sig);
}

}  // namespace

void WorkerFleet::KillAllFromSignal() {
  for (auto& slot : g_live) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
}

void InstallExitHandlers() {
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGALRM}) {
    std::signal(sig, OnExitSignal);
  }
  for (int sig : {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, OnFatalSignal);
  }
  std::signal(SIGPIPE, SIG_IGN);
}

WorkerFleet::~WorkerFleet() { Stop(); }

kamel::Status WorkerFleet::Start(const std::string& kamel_bin,
                                 const std::string& snapshot, int num_shards,
                                 const std::vector<std::string>& flags,
                                 const std::string& log_dir,
                                 double timeout_s) {
  const pid_t parent = getpid();
  for (int shard = 0; shard < num_shards; ++shard) {
    std::vector<std::string> args = {
        kamel_bin,      "worker",     "--model",
        snapshot,       "--shard",    std::to_string(shard),
        "--num-shards", std::to_string(num_shards),
        "--port",       "0",          "--threads",
        "1"};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const std::string log = log_dir + "/worker-" + std::to_string(shard) +
                            ".log";
    const int log_fd =
        open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    int out[2];
    if (log_fd < 0 || pipe2(out, O_CLOEXEC) != 0) {
      if (log_fd >= 0) close(log_fd);
      return kamel::Status::IOError("cannot set up worker stdio");
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(log_fd);
      close(out[0]);
      close(out[1]);
      return kamel::Status::IOError("fork failed");
    }
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      dup2(out[1], STDOUT_FILENO);
      dup2(log_fd, STDERR_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    Register(pid);
    pids_.push_back(pid);
    close(log_fd);
    close(out[1]);

    // Startup line: "shard I/N serving on HOST:PORT (...)".
    std::string line;
    const double deadline = NowSeconds() + timeout_s;
    while (line.find('\n') == std::string::npos) {
      const double left = deadline - NowSeconds();
      pollfd pfd{out[0], POLLIN, 0};
      if (left <= 0 || poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) {
        break;
      }
      char buf[256];
      const ssize_t n = read(out[0], buf, sizeof(buf));
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    close(out[0]);
    const size_t on = line.find(" serving on ");
    const size_t colon = on == std::string::npos ? on : line.find(':', on);
    const int port =
        colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      return kamel::Status::Unavailable(
          "worker " + std::to_string(shard) +
          " did not report a port (see " + log + ")");
    }
    kamel::shard::ShardEndpoint endpoint;
    endpoint.port = static_cast<uint16_t>(port);
    endpoints_.push_back(endpoint);
  }
  return kamel::Status::OK();
}

void WorkerFleet::Stop() {
  for (pid_t pid : pids_) kill(pid, SIGTERM);
  for (pid_t pid : pids_) {
    if (!ReapWithin(pid, 5.0)) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    Unregister(pid);
  }
  pids_.clear();
  endpoints_.clear();
}

}  // namespace perfbench
