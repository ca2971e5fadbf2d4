#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady clock), the one time base of the benchmark.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs fn(thread, i) for every i in [0, n) on `threads` threads (the
/// calling thread included), handing out indices dynamically.
template <typename Fn>
void ParallelFor(size_t n, int threads, Fn&& fn) {
  std::atomic<size_t> next{0};
  auto run = [&](int t) {
    for (size_t i = next++; i < n; i = next++) fn(t, i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(run, t);
  run(0);
  for (std::thread& th : pool) th.join();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Quantile(std::vector<double> values, double q);

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// splitmix64, the benchmark's seeded stream (inputs are a pure function
/// of --seed).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in (0, 1].
  double NextUnit();

 private:
  uint64_t state_;
};

/// One named metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result object as the last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

/// Minimal JSON string escaping for trace and result output.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
