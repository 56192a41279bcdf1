// Provenance of a benchmark result: which build, source revision and
// machine produced it. Timings from a non-Release or sanitized build are
// not comparable with anything, so they are refused; counts still are.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Provenance {
  std::string build_type;
  std::string compiler;
  std::string cxx_flags;
  std::string git_describe;
  unsigned nproc = 0;  ///< CPUs this process may run on
  std::uint64_t seed = 0;
  bool sanitized = false;

  /// True when timings from this build may be reported.
  [[nodiscard]] bool timings_valid() const noexcept {
    return build_type == "Release" && !sanitized;
  }
};

[[nodiscard]] Provenance current_provenance(std::uint64_t seed);

/// CPUs in this process's affinity mask (what `nproc` prints), at least 1.
[[nodiscard]] unsigned available_cpus();

}  // namespace perfbench
