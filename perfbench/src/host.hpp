// What a result must record to be comparable: the host and the build.
#pragma once

#include <string>

#include "trace/json.hpp"

namespace perfbench {

struct HostInfo {
  int nproc = 0;
  std::string cpuModel;
  std::string compiler;
  std::string buildType;
  std::string gitSha;

  /// Fingerprint of this host and of the build this binary came from.
  static HostInfo collect(const std::string& gitSha);

  /// Optimized, assertion-free build: the only kind the benchmark
  /// reports from.
  bool releaseBuild() const;

  cgpa::trace::JsonValue toJson() const;
};

} // namespace perfbench
