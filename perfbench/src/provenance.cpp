#include "provenance.hpp"

#include <sched.h>

#include <thread>

namespace perfbench {

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Provenance current_provenance(std::uint64_t seed) {
  Provenance p;
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.compiler = PERFBENCH_COMPILER;
  p.cxx_flags = PERFBENCH_CXX_FLAGS;
  p.git_describe = PERFBENCH_GIT_DESCRIBE;
  p.nproc = available_cpus();
  p.seed = seed;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  p.sanitized = true;
#endif
  if (p.cxx_flags.find("-fsanitize") != std::string::npos) p.sanitized = true;
  return p;
}

}  // namespace perfbench
