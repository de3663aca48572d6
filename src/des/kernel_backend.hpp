#pragma once
/// \file kernel_backend.hpp
/// \brief The kernel-backend knob: which drive loop of the packet kernel
///        advances a scheme's packets.
///
/// Every scheme runs on the event loop of the packet kernel
/// (des/packet_kernel.hpp) by default — it is the bit-exactness oracle the
/// parity suite pins.  Schemes with slotted-time structure additionally
/// accept `soa_batch`: the same kernel's batched loop, which advances whole
/// completion batches per tick through the scheme's advance/commit hooks,
/// proven bit-identical to the event loop (tests/test_kernel_parity.cpp,
/// tests/test_kernel_backend.cpp) and faster on heavy slotted traffic
/// (bench/micro_engine.cpp, BM_BackendSpeedup).
///
/// Backend selection is a first-class Scenario knob (`--set
/// backend=scalar|soa_batch`); a scheme lists the backends it runs besides
/// `scalar` in its SchemeInfo::backends column, and the engine rejects the
/// rest before compiling (docs/KERNEL.md).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace routesim {

/// The available kernel execution engines.
enum class KernelBackend : std::uint8_t {
  kScalar,    ///< event-driven scalar kernel (default; the parity oracle)
  kSoaBatch,  ///< the kernel's batched loop (slotted time only)
};

/// Every backend's CLI name, in enumerator order (the catalog renders this).
[[nodiscard]] inline const std::vector<std::string>& kernel_backend_names() {
  static const std::vector<std::string> names{"scalar", "soa_batch"};
  return names;
}

/// Parses a backend name; throws std::invalid_argument listing the valid
/// backends (Scenario::set wraps this into a ScenarioError, so `--set
/// backend=soabatch` suggests the spelling it wanted).
[[nodiscard]] inline KernelBackend parse_kernel_backend(
    const std::string& name) {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "soa_batch") return KernelBackend::kSoaBatch;
  std::string known;
  for (const auto& candidate : kernel_backend_names()) {
    if (!known.empty()) known += ", ";
    known += candidate;
  }
  throw std::invalid_argument("unknown kernel backend '" + name +
                              "' (valid backends: " + known + ")");
}

}  // namespace routesim
