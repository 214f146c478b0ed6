#include "host.hpp"

#include <fstream>
#include <thread>

namespace perfbench {

HostInfo HostInfo::collect(const std::string& gitSha) {
  HostInfo info;
  info.nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos)
        info.cpuModel = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  if (info.cpuModel.empty())
    info.cpuModel = "unknown";
#if defined(__clang__)
  info.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  info.compiler = "gcc " __VERSION__;
#else
  info.compiler = "unknown";
#endif
  info.buildType = PERFBENCH_BUILD_TYPE;
  info.gitSha = gitSha.empty() ? "unknown" : gitSha;
  return info;
}

bool HostInfo::releaseBuild() const {
#ifdef NDEBUG
  return buildType == "Release";
#else
  return false;
#endif
}

cgpa::trace::JsonValue HostInfo::toJson() const {
  cgpa::trace::JsonValue doc = cgpa::trace::JsonValue::object();
  doc.set("nproc", nproc);
  doc.set("cpuModel", cpuModel);
  doc.set("compiler", compiler);
  doc.set("buildType", buildType);
  doc.set("gitSha", gitSha);
  return doc;
}

} // namespace perfbench
