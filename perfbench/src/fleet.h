#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <string>
#include <sys/types.h>
#include <vector>

#include "common/status.h"
#include "shard/router.h"

namespace perfbench {

/// `kamel worker` processes on loopback, one per shard. Each worker binds
/// port 0 (the kernel picks a free port) and the port is read from its
/// startup line. Workers die with the benchmark: they get SIGKILL as the
/// parent-death signal, the fatal-signal handlers kill them, and Stop()
/// (also run by the destructor) terminates and reaps them.
class WorkerFleet {
 public:
  WorkerFleet() = default;
  ~WorkerFleet();
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Starts `num_shards` workers serving `snapshot`, each with `flags`
  /// appended; stderr goes to `log_dir`/worker-<i>.log. Call from the
  /// main thread (the parent-death signal follows the forking thread).
  kamel::Status Start(const std::string& kamel_bin,
                      const std::string& snapshot, int num_shards,
                      const std::vector<std::string>& flags,
                      const std::string& log_dir, double timeout_s);

  /// SIGTERM, a short grace period, then SIGKILL; reaps every worker.
  void Stop();

  const std::vector<kamel::shard::ShardEndpoint>& endpoints() const {
    return endpoints_;
  }

  /// Async-signal-safe: SIGKILLs and reaps every live worker.
  static void KillAllFromSignal();

 private:
  std::vector<pid_t> pids_;
  std::vector<kamel::shard::ShardEndpoint> endpoints_;
};

/// Installs handlers that kill the fleet's workers on SIGINT, SIGTERM,
/// SIGHUP, SIGALRM (the run watchdog) and fatal signals, then exit.
void InstallExitHandlers();

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
