// core::Executor — the one description of how the scale engine runs a
// transaction batch.  Replaces the old two-field ExecutionPolicy struct
// that bench mains used to poke directly: an Executor names one of two
// engines (serial | sharded), carries the worker/shard knobs, and owns the
// single validation point that used to be scattered between
// Scenario::execution_policy() and run_transactions().
//
//   auto exec = sim::Scenario(p).execution_policy();   // the one builder
//   system.run_transactions(pairs, exec);
//
// Engines (DESIGN.md §9 + §14):
//   kSerial   — one thread, strict index order; the reference semantics.
//   kSharded  — agents partitioned into `shards` by node index; each wave
//               is split by the requestor's home shard, shards execute
//               their slices on their own lane/arena/event-queue, and
//               cross-shard report envelopes are exchanged deterministically
//               at the wave barrier.  Byte-identical to kSerial.
//
// validate() is the whole contract: it rejects nonsense (wrapped negative
// counts, shard knobs on the serial engine), downgrades the sharded engine
// to serial with a logged diagnostic when the environment is
// order-dependent (non-instant delivery, chaos), and resolves the
// zero-defaults, so run_transactions() receives a policy it can trust.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace hirep::core {

enum class ExecutionMode {
  kSerial,  ///< one thread, strict transaction-index order
  kSharded  ///< per-shard lanes + deterministic barrier exchange
};

/// "serial" | "sharded" -> mode (nullopt on anything else).
std::optional<ExecutionMode> execution_mode_by_name(std::string_view name);
const char* to_string(ExecutionMode mode) noexcept;

struct Executor {
  ExecutionMode mode = ExecutionMode::kSerial;
  /// Worker threads; 0 = hardware concurrency (resolved by the pool).
  std::size_t threads = 0;
  /// kSharded: shard count K (agents live on shard `ip % K`); 0 = one
  /// shard per worker thread.  Results are independent of K.
  std::size_t shards = 0;

  static Executor serial() noexcept { return {ExecutionMode::kSerial}; }
  static Executor sharded(std::size_t shards, std::size_t threads = 0) noexcept {
    return {ExecutionMode::kSharded, threads, shards};
  }

  /// True for the engine that runs transactions concurrently (and
  /// therefore requires instant delivery).
  bool concurrent() const noexcept { return mode != ExecutionMode::kSerial; }

  /// What the executor needs to know about the run it will drive.
  struct Environment {
    bool instant_delivery = true;  ///< delivery config AND installed policy
    bool chaos = false;            ///< a fault schedule is attached
  };

  /// The single validation point.  Throws std::invalid_argument on
  /// configurations that are nonsense under any environment (thread/shard
  /// counts that smell like wrapped negatives, shard knobs on the serial
  /// engine).  Downgrades kSharded to kSerial — with a logged diagnostic
  /// naming the reason — when the environment is order-dependent:
  /// lossy/delayed transports and chaos schedules make concurrent
  /// execution non-reproducible, and serial execution yields the same
  /// records anyway.  Returns the resolved executor.
  Executor validate(const Environment& env) const;
};

}  // namespace hirep::core
