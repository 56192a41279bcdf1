// perfbench: runs one named workload of the repo benchmark and prints every
// metric by name and unit, then one JSON result object as the last line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--engine-baseline BENCH_engine.json]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics (and writes spans plus a self-time table to DIR).
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error, 3 when timings were refused (non-Release or sanitized build).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "provenance.hpp"
#include "workloads.hpp"

namespace {

/// The end-to-end metrics BENCHMARK.json gates: the ones every workload
/// has. The others are printed above the result line where they apply.
constexpr const char* kGatedEndToEnd[] = {"setup_s", "runs_per_s",
                                          "peak_rss_mib"};

bool is_timing(const perfbench::Metric& m) {
  return m.unit == "s" || m.unit == "ms" || m.unit == "us" || m.unit == "ns" ||
         m.unit == "1/s" || m.name == "exp.pool_busy_frac" ||
         m.name == "obs.trace_overhead_frac";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--engine-baseline "
               "FILE]\n",
               why.c_str());
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(arg));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds >= 0.0)) {
        usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
      have_dir = true;
    } else if (arg == "--engine-baseline") {
      options.engine_baseline = value;
    } else {
      usage("unknown argument " + std::string(arg));
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_dir) usage("--work-dir is required");
  bool known = false;
  for (const char* name : perfbench::workload_names()) {
    known = known || options.workload == name;
  }
  if (!known) usage("unknown workload " + options.workload);

  const perfbench::Provenance prov = perfbench::current_provenance(options.seed);
  std::printf("# workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(prov.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# build %s  compiler %s  flags \"%s\"  source %s  nproc %u\n",
              prov.build_type.c_str(), prov.compiler.c_str(),
              prov.cxx_flags.c_str(), prov.git_describe.c_str(), prov.nproc);
  std::fflush(stdout);

  perfbench::Result result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const bool timings = prov.timings_valid();
  if (!timings) {
    std::printf("# timings refused: %s build%s; counts only\n",
                prov.build_type.c_str(), prov.sanitized ? " (sanitized)" : "");
  }
  const auto show = [&](const perfbench::Metric& m) {
    if (timings || !is_timing(m)) {
      std::printf("%-28s %22.9g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  std::printf("## end-to-end\n");
  for (const auto& m : result.end_to_end) show(m);
  if (options.trace) {
    std::printf("## per-layer\n");
    for (const auto& m : result.per_layer) show(m);
    std::printf("## self time per operation\n%s",
                result.self_time_table.c_str());
  }
  for (const auto& note : result.notes) std::printf("# %s\n", note.c_str());
  std::printf("# checks: %llu runs checked, %llu failed\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const auto& why : result.failures) {
    std::printf("# FAILED %s\n", why.c_str());
  }

  std::vector<perfbench::Metric> reported;
  if (options.trace) {
    reported = result.per_layer;
  } else {
    for (const char* name : kGatedEndToEnd) {
      for (const auto& m : result.end_to_end) {
        if (m.name == name) reported.push_back(m);
      }
    }
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& m : reported) {
    if (!timings && is_timing(m)) continue;
    line += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  if (!correct) return 1;
  return timings ? 0 : 3;
}
