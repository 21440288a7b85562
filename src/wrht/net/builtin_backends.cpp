// Wires every backend this library ships into the global registry.
//
// Lives in its own translation unit (and CMake module, wrht_backends)
// because the net core cannot link against the engine libraries that sit
// above it; anything that links wrht::all gets this definition.
#include <mutex>

#include "wrht/electrical/electrical_backend.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/net/schedule_only.hpp"
#include "wrht/optical/optical_backend.hpp"

namespace wrht::net {

void register_builtin_backends() {
  static std::once_flag once;
  std::call_once(once, [] {
    BackendRegistry& registry = BackendRegistry::instance();
    optics::register_optical_backends(registry);
    elec::register_electrical_backends(registry);
    registry.register_backend(
        "schedule-only", ScheduleOnlyBackend::kDescription,
        [](const BackendConfig& config) -> std::unique_ptr<Backend> {
          return std::make_unique<ScheduleOnlyBackend>(config.num_nodes);
        });
  });
}

}  // namespace wrht::net
