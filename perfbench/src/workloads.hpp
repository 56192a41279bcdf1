// The benchmark's workloads. Each one is a closed loop: it prepares its
// inputs (set-up, repeated and timed), then repeats a pass over its job
// until the requested seconds have elapsed, checking every run's output.
// An untraced run reports the end-to-end metrics; a traced run repeats the
// same passes untraced and traced (half the seconds each) and reports the
// per-layer metrics measured from outside the simulator (see layers.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Workload sizes. The defaults are what the benchmark runs; tiny() is for
/// the smoke tests.
struct Sizes {
  std::uint32_t figure_reps = 10;       ///< replications per figure point
  std::uint32_t figure_seeds = 6;       ///< master seeds per figure pass
  std::uint32_t city_nodes = 8192;      ///< large_scenario node count
  std::uint32_t city_flows = 8;         ///< large_flows flow count
  std::uint32_t city_load_per_flow = 16;
  std::uint32_t bloom_reps = 5;         ///< replications per load point
  std::uint32_t bloom_seeds = 8;        ///< traces per bloom pass
  unsigned setup_repeats = 3;           ///< set-ups timed per run

  [[nodiscard]] static Sizes tiny() { return {1, 2, 256, 4, 4, 1, 2, 1}; }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space for run stores and traced-run output; created if needed.
  std::filesystem::path work_dir;
  /// The committed BENCH_engine.json; city_stream at seed 42 and full size
  /// must reproduce its large8192 counter rows. Empty skips that check.
  std::filesystem::path engine_baseline;
  Sizes sizes;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;  ///< runs whose output was checked
  std::uint64_t failed = 0;     ///< runs that failed a check
  std::vector<std::string> failures;  ///< first few failure messages
  /// End-to-end metrics that apply to this workload (untraced numbers; a
  /// traced run measures them on its untraced passes).
  std::vector<Metric> end_to_end;
  /// Every per-layer metric (traced run only); 0 where the workload never
  /// calls into that layer.
  std::vector<Metric> per_layer;
  /// Human-readable notes: sample counts, percentiles chosen, files.
  std::vector<std::string> notes;
  std::string self_time_table;  ///< traced run only
};

/// Names of the workloads, in documentation order.
[[nodiscard]] std::span<const char* const> workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Result run_workload(const Options& options);

/// Every per-layer metric name with its unit, in report order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] std::span<const MetricSpec> per_layer_metrics();

}  // namespace perfbench
