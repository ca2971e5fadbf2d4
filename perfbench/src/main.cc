// kamel_perfbench: runs one named workload against the KAMEL serving
// stack, checks every output, and prints one JSON result line.
//
//   kamel_perfbench --workload bulk-jakarta|online-porto|routed-porto
//                   --seed N --seconds S --trace 0|1
//                   --kamel PATH/TO/kamel --out DIR
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs the
// traced layer pass and prints the per-layer metrics. See README.md.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <list>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "common/logging.h"
#include "core/serving_engine.h"
#include "fleet.h"
#include "net/rpc.h"
#include "shard/partition.h"
#include "shard/router.h"
#include "shard/wire.h"
#include "trace.h"
#include "util.h"
#include "workload.h"

namespace perfbench {
namespace {

using kamel::ImputedTrajectory;
using kamel::KamelSnapshot;
using kamel::Trajectory;

// The whole run must end well inside the driver's 180 s limit.
constexpr unsigned kWatchdogSeconds = 170;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string kamel_bin;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--kamel") {
      args->kamel_bin = value;
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

/// Everything a measured phase produced: one output per request (in issue
/// order), per-request latency, and the pool index each request carried.
struct Phase {
  std::vector<size_t> pool_index;
  std::vector<ImputedTrajectory> outputs;
  std::vector<bool> ok;
  std::vector<double> latency_s;
  double wall_s = 0.0;
  // Online only.
  std::vector<double> lateness_s;
  std::vector<double> queue_wait_s;
  std::vector<double> service_s;
  int peak_pending = 0;
  // Routed only.
  kamel::shard::RouterStats router;
  std::vector<Span> spans;
};

/// Request sequence of `rounds` whole rounds over the pool, each round a
/// fresh seeded permutation.
std::vector<size_t> RoundSequence(size_t pool, int64_t rounds,
                                  uint64_t seed) {
  std::vector<size_t> sequence;
  for (int64_t r = 0; r < rounds; ++r) {
    const std::vector<size_t> order =
        SeededOrder(pool, seed * 1000003ULL + static_cast<uint64_t>(r));
    sequence.insert(sequence.end(), order.begin(), order.end());
  }
  return sequence;
}

// ---- bulk: ImputeBatch over the whole pool, whole rounds -----------------

/// Two callers each submit one round (the pool in a seeded order) per
/// ImputeBatch call, back to back, until `seconds` have passed: the engine
/// pool always holds the next round's work, so a round's straggler tail
/// overlaps the other caller's round instead of idling the pool.
Phase RunBulk(kamel::ServingEngine* engine, const std::vector<Trajectory>& pool,
              uint64_t seed, double seconds, bool trace) {
  Phase phase;
  std::mutex mu;  // guards the round counter and the phase vectors
  uint64_t next_round = 0;
  SpanBuffer spans(60);
  const double start = NowSeconds();
  auto caller = [&] {
    while (true) {
      uint64_t round = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (NowSeconds() - start >= seconds) return;
        round = next_round++;
      }
      const std::vector<size_t> order =
          SeededOrder(pool.size(), seed * 1000003ULL + round);
      kamel::TrajectoryDataset batch;
      for (size_t i : order) batch.trajectories.push_back(pool[i]);
      const double t0 = NowSeconds();
      auto result = engine->ImputeBatch(batch);
      const double t1 = NowSeconds();
      std::lock_guard<std::mutex> lock(mu);
      if (trace) spans.Add(round + 1, 0, "serving_engine.impute_batch", t0, t1);
      for (size_t k = 0; k < order.size(); ++k) {
        phase.pool_index.push_back(order[k]);
        phase.ok.push_back(result.ok());
        if (result.ok()) {
          phase.latency_s.push_back((*result)[k].stats.seconds);
          phase.outputs.push_back(std::move((*result)[k]));
        } else {
          phase.latency_s.push_back(0.0);
          phase.outputs.emplace_back();
        }
      }
    }
  };
  std::thread second(caller);
  caller();
  second.join();
  phase.wall_s = NowSeconds() - start;
  phase.spans = std::move(spans.spans());
  return phase;
}

// ---- online: open-loop Poisson arrivals through ImputeAsync ---------------

Phase RunOnline(kamel::ServingEngine* engine,
                const std::vector<Trajectory>& pool, double rate,
                uint64_t seed, double seconds, bool trace) {
  Phase phase;
  const int64_t rounds = std::max<int64_t>(
      1, std::llround(rate * seconds / static_cast<double>(pool.size())));
  phase.pool_index = RoundSequence(pool.size(), rounds, seed);
  const size_t n = phase.pool_index.size();
  std::vector<double> due(n);
  SplitMix arrivals(seed ^ 0xA5A5A5A5ULL);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(arrivals.NextUnit()) / rate;
    due[i] = t;
  }
  // Poisson gaps, rescaled so every seed offers exactly n requests over
  // n / rate seconds: seeds differ in burstiness, not in offered load.
  for (double& d : due) d *= (static_cast<double>(n) / rate) / t;
  phase.outputs.resize(n);
  phase.ok.assign(n, false);
  phase.latency_s.assign(n, 0.0);
  phase.lateness_s.assign(n, 0.0);
  phase.queue_wait_s.assign(n, 0.0);
  phase.service_s.assign(n, 0.0);
  std::vector<double> submitted(n, 0.0);

  struct InFlight {
    size_t index;
    std::future<kamel::Result<ImputedTrajectory>> future;
  };
  std::list<InFlight> in_flight;
  SpanBuffer spans(61);
  auto collect = [&](double now) {
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const size_t i = it->index;
      kamel::Result<ImputedTrajectory> result = it->future.get();
      phase.latency_s[i] = now - due[i];
      if (result.ok()) {
        phase.ok[i] = true;
        phase.service_s[i] = result->stats.seconds;
        phase.queue_wait_s[i] =
            std::max(0.0, now - submitted[i] - result->stats.seconds);
        phase.outputs[i] = std::move(result).value();
      }
      if (trace) {
        spans.Add(i + 1, 0, "serving_engine.submit_to_complete",
                  submitted[i], now);
      }
      it = in_flight.erase(it);
    }
  };

  const double start = NowSeconds() + 0.005;
  for (size_t i = 0; i < n; ++i) {
    due[i] += start;
    while (true) {
      const double now = NowSeconds();
      collect(now);
      if (now >= due[i]) break;
      const double wait = std::min(due[i] - now, 2e-4);
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    submitted[i] = NowSeconds();
    phase.lateness_s[i] = submitted[i] - due[i];
    in_flight.push_back(
        {i, engine->ImputeAsync(pool[phase.pool_index[i]])});
  }
  while (!in_flight.empty()) {
    collect(NowSeconds());
    if (!in_flight.empty()) {
      std::this_thread::sleep_for(std::chrono::duration<double>(2e-4));
    }
  }
  double last = start;
  for (size_t i = 0; i < n; ++i) {
    last = std::max(last, due[i] + phase.latency_s[i]);
  }
  phase.wall_s = last - start;
  phase.peak_pending = engine->stats().peak_pending;
  phase.spans = std::move(spans.spans());
  return phase;
}

// ---- routed: closed loop of callers through ShardRouter -------------------

Phase RunRouted(kamel::shard::ShardRouter* router,
                const std::vector<Trajectory>& pool, int callers,
                uint64_t seed, double seconds, bool trace) {
  Phase phase;
  const size_t n = pool.size();
  std::mutex mu;  // guards the request cursor and the phase vectors
  size_t next = 0;
  bool stopped = false;
  std::vector<size_t> order;
  const double start = NowSeconds();
  // Hands out the next request; the run stops only at a round boundary.
  auto take = [&](size_t* index, size_t* pool_index) {
    std::lock_guard<std::mutex> lock(mu);
    if (next % n == 0) {
      if (next > 0 && NowSeconds() - start >= seconds) stopped = true;
      if (!stopped) {
        order = SeededOrder(n, seed * 1000003ULL + next / n);
      }
    }
    if (stopped) return false;
    *index = next;
    *pool_index = order[next % n];
    ++next;
    phase.pool_index.push_back(*pool_index);
    phase.outputs.emplace_back();
    phase.ok.push_back(false);
    phase.latency_s.push_back(0.0);
    return true;
  };
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  for (int c = 0; c < callers; ++c) {
    buffers.push_back(std::make_unique<SpanBuffer>(70 + c));
  }
  auto caller = [&](int c) {
    size_t index = 0;
    size_t pool_index = 0;
    while (take(&index, &pool_index)) {
      const double t0 = NowSeconds();
      kamel::Result<ImputedTrajectory> result = router->Impute(pool[pool_index]);
      const double t1 = NowSeconds();
      if (trace) {
        buffers[static_cast<size_t>(c)]->Add(index + 1, 0,
                                             "shard.router_impute", t0, t1);
      }
      std::lock_guard<std::mutex> lock(mu);
      phase.latency_s[index] = t1 - t0;
      phase.ok[index] = result.ok();
      if (result.ok()) phase.outputs[index] = std::move(result).value();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < callers; ++c) threads.emplace_back(caller, c);
  caller(0);
  for (std::thread& th : threads) th.join();
  phase.wall_s = NowSeconds() - start;
  phase.router = router->stats();
  for (auto& b : buffers) {
    phase.spans.insert(phase.spans.end(), b->spans().begin(),
                       b->spans().end());
  }
  return phase;
}

// ---- checks shared by every workload -------------------------------------

struct Verdict {
  Failures failures;
  RunCheck run;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Checks a phase: each repeated input must give the same output as its
/// first serving; the first outputs of the distinct inputs go through
/// CheckRun (structure, stats, own metric vs Evaluator, vs linear).
Verdict CheckPhase(const KamelSnapshot& snapshot, const Pool& pool,
                   const WorkloadSpec& spec, const Phase& phase) {
  Verdict v;
  const CheckGeometry geometry = CheckGeometry::Of(snapshot);
  std::vector<const ImputedTrajectory*> first(pool.sparse.size(), nullptr);
  v.attempted = static_cast<int64_t>(phase.outputs.size());
  for (size_t i = 0; i < phase.outputs.size(); ++i) {
    if (!phase.ok[i]) {
      ++v.failed;
      continue;
    }
    const size_t p = phase.pool_index[i];
    if (first[p] == nullptr) {
      first[p] = &phase.outputs[i];
    } else {
      for (std::string& f :
           CheckSameOutput(phase.outputs[i], *first[p], "repeat")) {
        v.failures.push_back(std::move(f));
      }
    }
  }
  std::vector<Request> requests;
  for (size_t p = 0; p < first.size(); ++p) {
    if (first[p] != nullptr) {
      requests.push_back({&pool.dense[p], &pool.sparse[p], first[p]});
    }
  }
  v.run = CheckRun(geometry, requests, spec.delta_m);
  for (std::string& f : v.run.failures) v.failures.push_back(std::move(f));
  return v;
}

/// Pool outputs computed in-process with KamelSnapshot::Impute, on
/// `threads` threads (the same scheduling as the traced layer pass).
/// `busy_s`, if given, receives the summed time of the Impute calls.
std::vector<ImputedTrajectory> ReferenceOutputs(
    const KamelSnapshot& snapshot, const std::vector<Trajectory>& pool,
    int threads, Failures* failures, double* busy_s = nullptr) {
  std::vector<ImputedTrajectory> out(pool.size());
  std::vector<kamel::Status> status(pool.size());
  std::vector<double> seconds(pool.size(), 0.0);
  ParallelFor(pool.size(), threads, [&](int, size_t i) {
    const double t0 = NowSeconds();
    auto r = snapshot.Impute(pool[i]);
    seconds[i] = NowSeconds() - t0;
    if (r.ok()) {
      out[i] = std::move(r).value();
    } else {
      status[i] = r.status();
    }
  });
  for (const kamel::Status& s : status) {
    if (!s.ok()) failures->push_back("reference Impute failed: " + s.ToString());
  }
  if (busy_s != nullptr) {
    *busy_s = 0.0;
    for (double s : seconds) *busy_s += s;
  }
  return out;
}

int WorkersWithWork(const KamelSnapshot& snapshot,
                    const std::vector<Trajectory>& pool, int max_workers) {
  const kamel::Pyramid& pyramid = snapshot.repository().pyramid();
  const kamel::shard::ShardPartition keys =
      kamel::shard::MakePartition(pyramid, max_workers);
  std::set<std::pair<int, int>> cells;
  for (const Trajectory& t : pool) {
    auto plan = snapshot.PlanImpute(t);
    if (!plan.ok()) continue;
    for (const kamel::GapPlanEntry& gap : plan->gaps) {
      const kamel::PyramidCell cell = pyramid.CellAt(
          keys.level, kamel::GapMbr(gap.context).Center());
      cells.insert({cell.x, cell.y});
    }
  }
  return std::clamp(static_cast<int>(cells.size()), 1, max_workers);
}

double Ms(double seconds) { return seconds * 1e3; }

int Main(int argc, char** argv) {
  const double process_start = NowSeconds();
  InstallExitHandlers();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kamel_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --kamel PATH [--out DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  alarm(kWatchdogSeconds);
  kamel::SetLogLevel(kamel::LogLevel::kWarning);
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::string dir = args.out_dir + "/" + spec->name + "-seed" +
                          std::to_string(args.seed) + "-" +
                          std::to_string(getpid());
  mkdir(args.out_dir.c_str(), 0755);
  if (mkdir(dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }

  // ---- set-up: scenario, training, save + load, engine or fleet ----------
  const Pool pool = MakePool(*spec);
  auto trained = TrainSaveLoad(*spec, pool, dir + "/snapshot.kamel");
  if (!trained.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  const std::shared_ptr<const KamelSnapshot> snapshot = *trained;
  WorkerFleet fleet;
  std::unique_ptr<kamel::ServingEngine> engine;
  std::unique_ptr<kamel::shard::ShardRouter> router;
  int workers = 0;
  if (spec->kind == WorkloadKind::kRouted) {
    if (args.kamel_bin.empty() || access(args.kamel_bin.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "kamel CLI not found: '%s'\n",
                   args.kamel_bin.c_str());
      return 1;
    }
    workers = WorkersWithWork(*snapshot, pool.sparse, nproc);
    const kamel::Status started =
        fleet.Start(args.kamel_bin, dir + "/snapshot.kamel", workers,
                    WorkerOptionFlags(), dir, 60.0);
    if (!started.ok()) {
      std::fprintf(stderr, "fleet: %s\n", started.ToString().c_str());
      return 1;
    }
    kamel::shard::RouterOptions options;
    // Deadline, probe and retry paths out of reach: a request is served by
    // its owner or counted failed, never silently degraded by timing.
    options.call_deadline_s = 60.0;
    options.probe_deadline_s = 30.0;
    // WaitHealthy probes by itself; the background prober stays asleep
    // for the run, so a probe lost on an idle connection (see the worker
    // RPC note below) can never mark the worker unreachable and send
    // requests to the straight-line fallback.
    options.probe_interval_s = 3600.0;
    router = std::make_unique<kamel::shard::ShardRouter>(
        snapshot, fleet.endpoints(), options);
    const kamel::Status healthy = router->WaitHealthy(60.0);
    if (!healthy.ok()) {
      std::fprintf(stderr, "fleet: %s\n", healthy.ToString().c_str());
      return 1;
    }
  } else {
    kamel::ServingOptions serving;
    serving.num_threads = nproc;
    engine = std::make_unique<kamel::ServingEngine>(snapshot, serving);
  }
  const double setup_s = NowSeconds() - process_start;

  // ---- measured phase ------------------------------------------------------
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  Phase phase;
  switch (spec->kind) {
    case WorkloadKind::kBulk:
      phase = RunBulk(engine.get(), pool.sparse, args.seed, phase_seconds,
                      args.trace);
      break;
    case WorkloadKind::kOnline:
      phase = RunOnline(engine.get(), pool.sparse, spec->rate_per_s,
                        args.seed, phase_seconds, args.trace);
      break;
    case WorkloadKind::kRouted:
      // Half the cores: the worker runs each caller's request on its own
      // connection thread, and the other half absorbs hedges, router and
      // RPC threads, so the tail is service time rather than co-scheduling.
      phase = RunRouted(router.get(), pool.sparse, std::max(1, nproc / 2),
                        args.seed, phase_seconds, args.trace);
      break;
  }
  const double peak_rss_mb = PeakRssMb();

  // ---- checks ----------------------------------------------------------------
  Verdict verdict = CheckPhase(*snapshot, pool, *spec, phase);
  if (spec->kind == WorkloadKind::kBulk) {
    // Bulk output equals in-process Impute at one thread.
    const std::vector<ImputedTrajectory> reference =
        ReferenceOutputs(*snapshot, pool.sparse, 1, &verdict.failures);
    for (size_t i = 0; i < phase.outputs.size(); ++i) {
      if (!phase.ok[i]) continue;
      for (std::string& f : CheckSameOutput(
               phase.outputs[i], reference[phase.pool_index[i]], "bulk")) {
        verdict.failures.push_back(std::move(f));
      }
    }
  }
  if (spec->kind == WorkloadKind::kRouted) {
    // Routed output equals in-process output, for every request. Requests
    // the router served by failover or straight-line fallback count as
    // failed operations instead.
    const std::vector<ImputedTrajectory> reference =
        ReferenceOutputs(*snapshot, pool.sparse, nproc, &verdict.failures);
    const bool degraded = phase.router.failovers > 0 ||
                          phase.router.linear_fallback_gaps > 0;
    for (size_t i = 0; i < phase.outputs.size(); ++i) {
      if (!phase.ok[i]) continue;
      Failures diff = CheckSameOutput(
          phase.outputs[i], reference[phase.pool_index[i]], "routed");
      if (diff.empty()) continue;
      if (degraded) {
        ++verdict.failed;
      } else {
        for (std::string& f : diff) verdict.failures.push_back(std::move(f));
      }
    }
  }

  std::vector<Metric> metrics;
  std::vector<Span> all_spans = std::move(phase.spans);
  if (!args.trace) {
    std::vector<double> latency_ms;
    for (size_t i = 0; i < phase.latency_s.size(); ++i) {
      if (phase.ok[i]) latency_ms.push_back(Ms(phase.latency_s[i]));
    }
    const double served = static_cast<double>(verdict.attempted - verdict.failed);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_traj_per_s", served / phase.wall_s, "traj/s"},
        {"latency_p50_ms", Quantile(latency_ms, 0.50), "ms"},
        {"latency_p95_ms", Quantile(latency_ms, 0.95), "ms"},
        {"recall", verdict.run.kamel.recall(), "ratio"},
        {"precision", verdict.run.kamel.precision(), "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // Untraced pool pass, then the traced layer pass over the same pool
    // with the same scheduling. The tracing overhead compares their summed
    // per-trajectory times (immune to the pass's straggler tail).
    double untraced_busy_s = 0.0;
    (void)ReferenceOutputs(*snapshot, pool.sparse, nproc, &verdict.failures,
                           &untraced_busy_s);
    LayerPass layer = RunLayerPass(*snapshot, pool.sparse, nproc);
    for (std::string& f : layer.failures) {
      verdict.failures.push_back(std::move(f));
    }
    const OpReplay ops = ReplayForward(
        layer.config, layer.vocab_size,
        std::max(snapshot->options().top_k, snapshot->options().beam_size),
        layer.counters.seq_len_hist);
    all_spans.insert(all_spans.end(), layer.spans.begin(), layer.spans.end());

    const LayerCounters& c = layer.counters;
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    std::vector<uint64_t> hashes = c.context_hashes;
    std::sort(hashes.begin(), hashes.end());
    const double distinct = static_cast<double>(
        std::unique(hashes.begin(), hashes.end()) - hashes.begin());
    const double forward_us = per(c.predict_s * 1e6, double(c.predict_calls));
    metrics.push_back({"nn.forward_us", forward_us, "us"});
    for (const auto& [op, us] : ops.op_us) {
      metrics.push_back({"nn.op." + op + "_us", us, "us"});
    }
    metrics.push_back({"nn.op_coverage", per(ops.total_us, forward_us), "ratio"});
    metrics.push_back({"nn.mflop_per_forward", ops.mflop, "mflop"});
    metrics.push_back({"nn.kbytes_moved_per_forward", ops.kbytes, "kB"});
    metrics.push_back({"bert.predict_calls", double(c.predict_calls), "count"});
    metrics.push_back({"bert.predict_us_mean", forward_us, "us"});
    metrics.push_back(
        {"bert.predict_busy_share", per(c.predict_s, c.pipeline_s), "ratio"});
    metrics.push_back({"bert.distinct_context_ratio",
                       per(distinct, double(c.predict_calls)), "ratio"});
    metrics.push_back({"bert.seq_len_mean",
                       per(c.seq_len_sum, double(c.predict_calls)), "tokens"});
    metrics.push_back({"imputer.bert_calls_per_gap",
                       per(double(c.predict_calls), double(c.gaps)), "count"});
    metrics.push_back({"imputer.failed_gap_share",
                       per(double(c.failed_gaps), double(c.gaps)), "ratio"});
    metrics.push_back({"imputer.failed_gap_call_share",
                       per(double(c.failed_gap_calls), double(c.predict_calls)),
                       "ratio"});
    metrics.push_back(
        {"imputer.self_ms_per_gap",
         per(Ms(c.imputer_s - c.predict_s - c.filter_s), double(c.model_gaps)),
         "ms"});
    metrics.push_back(
        {"spatial_constraints.kept_ratio",
         per(double(c.candidates_kept), double(c.candidates_in)), "ratio"});
    metrics.push_back({"spatial_constraints.filter_us_per_call",
                       per(c.filter_s * 1e6, double(c.filter_calls)), "us"});
    metrics.push_back({"tokenizer.plan_us_per_traj",
                       per(c.plan_s * 1e6, double(c.trajectories)), "us"});
    metrics.push_back({"tokenizer.gaps_per_traj",
                       per(double(c.gaps), double(c.trajectories)), "count"});
    metrics.push_back({"model_repository.acquire_us_per_gap",
                       per(c.acquire_s * 1e6, double(c.gaps)), "us"});
    metrics.push_back({"detokenizer.us_per_gap",
                       per(c.detok_s * 1e6, double(c.detok_gaps)), "us"});
    // Engine queueing is observable from outside only through
    // ImputeAsync (online-porto); elsewhere these read 0.
    std::vector<double> wait_ms;
    std::vector<double> service_ms;
    for (size_t i = 0; i < phase.queue_wait_s.size(); ++i) {
      if (!phase.ok[i]) continue;
      wait_ms.push_back(Ms(phase.queue_wait_s[i]));
      service_ms.push_back(Ms(phase.service_s[i]));
    }
    metrics.push_back(
        {"serving_engine.queue_wait_ms_p50", Quantile(wait_ms, 0.5), "ms"});
    metrics.push_back(
        {"serving_engine.queue_wait_ms_p95", Quantile(wait_ms, 0.95), "ms"});
    metrics.push_back(
        {"serving_engine.service_ms_p50", Quantile(service_ms, 0.5), "ms"});
    metrics.push_back(
        {"serving_engine.peak_pending", double(phase.peak_pending), "count"});
    std::vector<double> lateness_ms;
    for (double s : phase.lateness_s) lateness_ms.push_back(Ms(s));
    metrics.push_back(
        {"generator.lateness_ms_p95", Quantile(lateness_ms, 0.95), "ms"});

    // Routed: RouterStats, plus router calls against direct worker RPCs
    // and in-process gap imputation for the same requests.
    double fanout_p50 = 0.0;
    double rpc_p50 = 0.0;
    double bytes_per_traj = 0.0;
    double calls_per_traj = 0.0;
    double hedges_per_100 = 0.0;
    double retries = 0.0;
    if (router != nullptr) {
      const kamel::shard::RouterStats& rs = phase.router;
      calls_per_traj = per(double(rs.remote_calls), double(rs.imputations));
      hedges_per_100 = per(100.0 * rs.hedges, double(rs.remote_calls));
      retries = double(rs.retries);
      const kamel::shard::ShardEndpoint& ep = fleet.endpoints().front();
      kamel::net::RpcClientOptions client_options;
      client_options.call_deadline_s = 60.0;
      kamel::net::RpcClient client(ep.host, ep.port, client_options);
      std::vector<double> fanout;
      std::vector<double> rpc;
      double bytes = 0.0;
      SpanBuffer spans(90);
      for (size_t i = 0; i < pool.sparse.size(); ++i) {
        auto plan = snapshot->PlanImpute(pool.sparse[i]);
        if (!plan.ok() || plan->gaps.empty()) continue;
        std::vector<kamel::SegmentContext> contexts;
        for (const auto& g : plan->gaps) contexts.push_back(g.context);
        const std::vector<uint8_t> body =
            kamel::shard::EncodeGapRequest(contexts);
        const double r0 = NowSeconds();
        auto routed = router->Impute(pool.sparse[i]);
        const double r1 = NowSeconds();
        // The worker's serve loop waits for a request in 0.2 s slices and
        // loses a frame whose payload is read after its slice ended, so a
        // request sent on a connection left idle for a while can be dropped.
        // A fresh connection and an untimed Ping just before the timed call
        // put the timed request at the start of a slice.
        client.Disconnect();
        auto ping = client.Call(kamel::shard::kMethodPing, {}, 60.0);
        const double r1_rpc = NowSeconds();
        auto direct = ping.ok() ? client.Call(kamel::shard::kMethodImputeGaps,
                                              body, 60.0)
                                : ping;
        const double r2 = NowSeconds();
        for (const auto& ctx : contexts) {
          (void)snapshot->ImputeGap(ctx, kamel::ImputeMode::kFull);
        }
        const double r3 = NowSeconds();
        spans.Add(i + 1, 0, "shard.router_impute", r0, r1);
        spans.Add(i + 1, 0, "net.worker_rpc", r1_rpc, r2);
        spans.Add(i + 1, 0, "snapshot.impute_gaps_local", r2, r3);
        if (!routed.ok() || !direct.ok()) {
          verdict.failures.push_back(
              "trajectory " + std::to_string(pool.sparse[i].id) + ": " +
              (routed.ok() ? std::string("router ok")
                           : "router: " + routed.status().ToString()) +
              ", " +
              (direct.ok() ? std::string("direct RPC ok")
                           : "direct RPC: " + direct.status().ToString()));
          continue;
        }
        fanout.push_back(Ms((r1 - r0) - (r2 - r1_rpc)));
        rpc.push_back(Ms((r2 - r1_rpc) - (r3 - r2)));
        bytes += double(body.size() + direct->size());
      }
      fanout_p50 = Quantile(fanout, 0.5);
      rpc_p50 = Quantile(rpc, 0.5);
      bytes_per_traj = per(bytes, double(pool.sparse.size()));
      all_spans.insert(all_spans.end(), spans.spans().begin(),
                       spans.spans().end());
    }
    metrics.push_back({"shard.remote_calls_per_traj", calls_per_traj, "count"});
    metrics.push_back(
        {"shard.hedges_per_100_calls", hedges_per_100, "count"});
    metrics.push_back({"shard.retries", retries, "count"});
    metrics.push_back({"shard.fanout_overhead_ms_p50", fanout_p50, "ms"});
    metrics.push_back({"net.rpc_overhead_ms_p50", rpc_p50, "ms"});
    metrics.push_back({"net.bytes_per_traj", bytes_per_traj, "bytes"});
    metrics.push_back({"trace.overhead_pct",
                       100.0 * (per(c.pipeline_s, untraced_busy_s) - 1.0),
                       "pct"});
    if (!WriteSpans(dir + "/trace.jsonl", all_spans, process_start)) {
      std::fprintf(stderr, "warning: could not write %s/trace.jsonl\n",
                   dir.c_str());
    }
  }

  // ---- summary on stderr, result on stdout -------------------------------
  std::fprintf(stderr,
               "%s seed=%llu: %lld requests, %lld failed, %lld gaps "
               "(%lld failed), %lld BERT calls, recall %.4f (linear %.4f) "
               "precision %.4f, workers=%d, setup %.2fs\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<long long>(verdict.attempted),
               static_cast<long long>(verdict.failed),
               static_cast<long long>(verdict.run.segments),
               static_cast<long long>(verdict.run.failed_segments),
               static_cast<long long>(verdict.run.bert_calls),
               verdict.run.kamel.recall(), verdict.run.linear.recall(),
               verdict.run.kamel.precision(), workers, setup_s);
  if (!phase.lateness_s.empty()) {
    std::vector<double> late;
    for (double s : phase.lateness_s) late.push_back(Ms(s));
    std::fprintf(stderr,
                 "generator lateness p50 %.3f ms, max %.3f ms; service p50 "
                 "%.1f ms p95 %.1f ms; queue wait p50 %.1f ms p95 %.1f ms\n",
                 Quantile(late, 0.5), Quantile(late, 1.0),
                 Ms(Quantile(phase.service_s, 0.5)),
                 Ms(Quantile(phase.service_s, 0.95)),
                 Ms(Quantile(phase.queue_wait_s, 0.5)),
                 Ms(Quantile(phase.queue_wait_s, 0.95)));
  }
  if (router != nullptr) {
    const kamel::shard::RouterStats& rs = phase.router;
    std::fprintf(stderr,
                 "router: %lld imputations, %lld remote calls, %lld hedges, "
                 "%lld retries, %lld failovers, %lld linear-fallback gaps\n",
                 static_cast<long long>(rs.imputations),
                 static_cast<long long>(rs.remote_calls),
                 static_cast<long long>(rs.hedges),
                 static_cast<long long>(rs.retries),
                 static_cast<long long>(rs.failovers),
                 static_cast<long long>(rs.linear_fallback_gaps));
  }
  for (size_t i = 0; i < verdict.failures.size() && i < 20; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", verdict.failures[i].c_str());
  }
  router.reset();
  fleet.Stop();
  std::remove((dir + "/snapshot.kamel").c_str());
  PrintResult(verdict.failures.empty(), verdict.attempted, verdict.failed,
              metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
