#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/kamel_snapshot.h"
#include "core/options.h"
#include "geo/trajectory.h"

namespace perfbench {

enum class WorkloadKind { kBulk, kOnline, kRouted };

/// One named workload: which scenario it imputes, how sparse its inputs
/// are, how the snapshot is trained, and how requests reach the program.
/// The scenario (road network, trips, train/test split) and the training
/// schedule are fixed per workload; --seed drives the request stream
/// (order, arrival times), so every seed does the same work.
struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kBulk;
  std::string scenario;        // "porto" | "jakarta"
  uint64_t scenario_seed = 0;  // PortoLikeSpec / JakartaLikeSpec seed
  double sparse_m = 0.0;       // Sparsify distance of the inputs
  double delta_m = 0.0;        // Section 8 metric threshold
  int64_t train_steps = 0;     // MLM steps of the single root model
  double rate_per_s = 0.0;     // online: Poisson arrival rate
  size_t pool_limit = 0;       // first N test trips (0: the whole test split)
};

/// The workload table (README "Workloads"); null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// KamelOptions of a workload: the CLI's BenchKamelOptions with a
/// root-only pyramid and the workload's short training schedule. Every
/// serving knob stays at the program's default (no deadline, no
/// admission bound, no demand-load cache, fp32 weights).
kamel::KamelOptions BenchOptions(const WorkloadSpec& spec);

/// The `kamel worker` flags that reproduce BenchOptions' serving options
/// (the CLI does not read options from the snapshot).
std::vector<std::string> WorkerOptionFlags();

/// The request pool: dense ground truth and the sparsified inputs, index
/// aligned. Pure function of the spec.
struct Pool {
  kamel::TrajectoryDataset train;
  std::vector<kamel::Trajectory> dense;
  std::vector<kamel::Trajectory> sparse;
};
Pool MakePool(const WorkloadSpec& spec);

/// Trains a snapshot with KamelBuilder, saves it to `path`, loads it back
/// into a fresh builder, and returns the loaded snapshot (what a worker
/// process serves from the same file).
kamel::Result<std::shared_ptr<const kamel::KamelSnapshot>> TrainSaveLoad(
    const WorkloadSpec& spec, const Pool& pool, const std::string& path);

/// Seeded permutation of [0, n).
std::vector<size_t> SeededOrder(size_t n, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
