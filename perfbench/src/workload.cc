#include "workload.h"

#include <utility>

#include "eval/scenario.h"
#include "sim/datasets.h"
#include "sim/sparsifier.h"
#include "util.h"

namespace perfbench {

namespace {

// Root-only pyramid: one model per snapshot keeps cold set-up (which
// includes training) within a run's budget.
constexpr int kPyramidHeight = 0;
constexpr int kPyramidLevels = 1;
constexpr int64_t kModelThreshold = 100;

const std::vector<WorkloadSpec>& Table() {
  static const std::vector<WorkloadSpec> table = {
      {.name = "bulk-jakarta",
       .kind = WorkloadKind::kBulk,
       .scenario = "jakarta",
       .scenario_seed = 13,
       .sparse_m = 800.0,
       .delta_m = 25.0,
       .train_steps = 900,
       // 20 of the 30 test trips: a round takes ~2.5 s on 4 threads and
       // the one-thread reference check ~10 s, within a run's budget.
       .pool_limit = 20},
      {.name = "online-porto",
       .kind = WorkloadKind::kOnline,
       .scenario = "porto",
       .scenario_seed = 11,
       .sparse_m = 300.0,
       .delta_m = 50.0,
       .train_steps = 900,
       .rate_per_s = 18.0},
      {.name = "routed-porto",
       .kind = WorkloadKind::kRouted,
       .scenario = "porto",
       .scenario_seed = 11,
       .sparse_m = 250.0,
       .delta_m = 50.0,
       .train_steps = 900},
  };
  return table;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Table()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

kamel::KamelOptions BenchOptions(const WorkloadSpec& spec) {
  kamel::KamelOptions options = kamel::BenchKamelOptions();
  options.pyramid_height = kPyramidHeight;
  options.pyramid_levels = kPyramidLevels;
  options.model_token_threshold = kModelThreshold;
  // Training schedule: short, with a high peak rate and a short warmup,
  // on 12-token statement windows. Serving statements are segment-local
  // (S, the cells inserted so far, D), so the crop rarely bites at these
  // gap widths, and a step costs ~2.5x less than on 48-token windows.
  options.bert.encoder.max_seq_len = 12;
  options.bert.train.steps = spec.train_steps;
  options.bert.train.peak_lr = 3e-3;
  options.bert.train.warmup_steps = 30;
  return options;
}

std::vector<std::string> WorkerOptionFlags() {
  return {"--pyramid-height", std::to_string(kPyramidHeight),
          "--pyramid-levels", std::to_string(kPyramidLevels),
          "--model-threshold", std::to_string(kModelThreshold)};
}

Pool MakePool(const WorkloadSpec& spec) {
  const kamel::ScenarioSpec scenario =
      spec.scenario == "jakarta" ? kamel::JakartaLikeSpec(spec.scenario_seed)
                                 : kamel::PortoLikeSpec(spec.scenario_seed);
  kamel::SimScenario sim = kamel::BuildScenario(scenario);
  Pool pool;
  pool.train = std::move(sim.train);
  for (kamel::Trajectory& dense : sim.test.trajectories) {
    if (spec.pool_limit > 0 && pool.dense.size() == spec.pool_limit) break;
    if (dense.points.size() < 2) continue;
    pool.sparse.push_back(kamel::Sparsify(dense, spec.sparse_m));
    pool.dense.push_back(std::move(dense));
  }
  return pool;
}

kamel::Result<std::shared_ptr<const kamel::KamelSnapshot>> TrainSaveLoad(
    const WorkloadSpec& spec, const Pool& pool, const std::string& path) {
  const kamel::KamelOptions options = BenchOptions(spec);
  {
    kamel::KamelBuilder builder(options);
    KAMEL_RETURN_NOT_OK(builder.Train(pool.train));
    KAMEL_RETURN_NOT_OK(builder.SaveToFile(path));
  }
  kamel::KamelBuilder loaded(options);
  kamel::LoadReport report;
  KAMEL_RETURN_NOT_OK(loaded.LoadFromFile(path, &report));
  if (report.partial()) {
    return kamel::Status::IOError("snapshot reload was partial: " +
                                  report.Summary());
  }
  return loaded.Snapshot();
}

std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  SplitMix rng(seed ^ 0x5DEECE66DULL);
  for (size_t i = n; i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.Next() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

}  // namespace perfbench
