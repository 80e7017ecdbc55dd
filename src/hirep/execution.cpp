#include "hirep/execution.hpp"

#include <stdexcept>
#include <string>

#include "util/log.hpp"

namespace hirep::core {

namespace {

// Thread/shard counts parse through int64 on the CLI path, so a negative
// value wraps to a huge unsigned — bound both far above any real machine
// to catch the mistake at config time instead of inside the thread pool.
constexpr std::size_t kMaxThreads = 4096;
constexpr std::size_t kMaxShards = 4096;

}  // namespace

std::optional<ExecutionMode> execution_mode_by_name(std::string_view name) {
  if (name == "serial") return ExecutionMode::kSerial;
  if (name == "sharded") return ExecutionMode::kSharded;
  return std::nullopt;
}

const char* to_string(ExecutionMode mode) noexcept {
  switch (mode) {
    case ExecutionMode::kSerial:
      return "serial";
    case ExecutionMode::kSharded:
      return "sharded";
  }
  return "?";
}

Executor Executor::validate(const Environment& env) const {
  if (threads > kMaxThreads) {
    throw std::invalid_argument(
        "Executor: threads must be <= 4096 (negative values wrap)");
  }
  if (shards > kMaxShards) {
    throw std::invalid_argument(
        "Executor: shards must be <= 4096 (negative values wrap)");
  }
  if (shards != 0 && mode != ExecutionMode::kSharded) {
    throw std::invalid_argument(
        "Executor: shards requires sharded execution (got execution=" +
        std::string(to_string(mode)) + ")");
  }

  Executor resolved = *this;
  if (resolved.concurrent() && (!env.instant_delivery || env.chaos)) {
    // Lossy/delayed transports are delivery-order-dependent and chaos
    // schedules fault against the global transaction tick, which wave
    // boundaries do not preserve hop-for-hop; either forfeits concurrent
    // execution.  Serial execution produces the same records, one thread.
    HIREP_INFO("executor",
               "downgrading execution=" << to_string(resolved.mode)
                                        << " to serial: "
                                        << (env.chaos
                                                ? "a chaos schedule is attached"
                                                : "delivery is not instant")
                                        << " (order-dependent environment)");
    resolved.mode = ExecutionMode::kSerial;
    resolved.shards = 0;
  }
  return resolved;
}

}  // namespace hirep::core
