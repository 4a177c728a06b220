// Compile-time provenance: which compiler, flags, and optional features a
// `trienum` binary was actually built with, so a report can tell a
// -march=native build from a portable one. Surfaced by the `trienum
// version` subcommand and the --metrics-json build_info block.
//
// The values are injected as compile definitions on the obs target by
// src/CMakeLists.txt (TRIENUM_BUILD_*); sensible fallbacks keep non-CMake
// builds compiling.
#ifndef TRIENUM_OBS_BUILD_INFO_H_
#define TRIENUM_OBS_BUILD_INFO_H_

#include <string>

namespace trienum::obs {

struct BuildInfo {
  std::string compiler;    // "GNU 12.2.0"
  std::string flags;       // base + build-type CXX flags
  std::string build_type;  // "Release", "RelWithDebInfo", ...
  bool native = false;     // TRIENUM_NATIVE (-march=native) build
  long cplusplus = 0;      // __cplusplus value
};

const BuildInfo& GetBuildInfo();

}  // namespace trienum::obs

#endif  // TRIENUM_OBS_BUILD_INFO_H_
