// sim::ChaosEngine — deterministic fault schedules for robustness runs.
//
// The engine advances on the *transaction tick* (one tick per completed
// transaction), not the transport's millisecond clock, so a schedule like
// "crash 30% of the agents at tick 40, heal the partition at tick 80"
// replays bit-for-bit across runs: the tick sequence is a pure function of
// the workload, and every stochastic choice the engine makes draws from
// its own seeded Rng, never from the simulation's main stream.
//
// Faults are injected at two seams:
//   * node state — crashing a node takes its reputation agent offline
//     (core::HirepSystem::set_agent_online), which is what drives the
//     community's suspicion/quarantine failover;
//   * the wire — ChaosDelivery wraps the configured DeliveryPolicy and
//     overlays drops for hops touching crashed nodes or crossing an active
//     partition cut, burst-loss windows, and per-node slowdown delay.
//     The inner policy's decision is always drawn FIRST, so its private
//     fault stream stays aligned with the equivalent chaos-free run.
//
// Everything is opt-in through sim::Scenario (`chaos=on` plus the
// chaos_* knobs); with chaos=off install_chaos() returns nullptr and the
// run is untouched — that is the golden-safety guarantee.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "hirep/system.hpp"
#include "net/transport.hpp"
#include "sim/params.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace hirep::sim {

/// The chaos schedule, decoupled from the full Params bag.  Tick fields
/// use 0 as "never"; see Params for per-field documentation.
struct ChaosParams {
  std::uint64_t seed = 0;  ///< 0 = derive from the master seed
  double crash_rate = 0.0;
  double mean_downtime = 20.0;
  std::uint64_t crash_at = 0;
  std::uint64_t restart_at = 0;
  double agent_crash_fraction = 0.0;
  std::uint64_t partition_at = 0;
  std::uint64_t heal_at = 0;
  double partition_fraction = 0.0;
  std::uint64_t burst_at = 0;
  std::uint64_t burst_until = 0;  ///< 0 = window never closes
  double burst_drop = 0.0;
  double slowdown_fraction = 0.0;
  double slowdown_ms = 0.0;
};

/// Projects the chaos_* fields of a validated Params.
ChaosParams chaos_params_from(const Params& params);

class ChaosEngine {
 public:
  /// `master_seed` seeds the engine when params.seed == 0 (salted, so the
  /// chaos stream never collides with any other derived stream).
  ChaosEngine(core::HirepSystem* system, ChaosParams params,
              std::uint64_t master_seed);

  /// Advances the fault clock to `tick`, firing every scripted event and
  /// random churn step in (now, tick].  Call once per completed
  /// transaction (tick = transactions run so far); calling with a tick in
  /// the past is a no-op.
  void advance_to(std::uint64_t tick);
  std::uint64_t now() const {
    util::MutexLock lock(mu_);
    return now_;
  }

  // -- wire-level queries ---------------------------------------------------
  bool crashed(net::NodeIndex v) const;
  /// True when an active partition separates a and b.
  bool severed(net::NodeIndex a, net::NodeIndex b) const;
  bool burst_active() const {
    util::MutexLock lock(mu_);
    return burst_on_;
  }
  /// Extra per-hop delay contributed by node v (0 unless v is slowed).
  double slowdown_of(net::NodeIndex v) const;

  /// The overlay's verdict on one hop the inner policy let through.
  struct HopFault {
    bool drop = false;
    double delay_ms = 0.0;  ///< slowdown delay (0 when dropped)
  };
  /// ChaosDelivery's one call per hop, under one lock: a crashed endpoint
  /// drops the hop, else an active cut, else a burst-loss draw; a surviving
  /// hop picks up both endpoints' slowdown.  Tallies the outcome.
  HopFault hop_fault(net::NodeIndex from, net::NodeIndex to);

  /// Fault bookkeeping, mirrored into the obs registry under sim.chaos.*.
  struct Counters {
    std::uint64_t scripted_crashes = 0;  ///< agents downed by crash_at
    std::uint64_t random_crashes = 0;    ///< churn crashes (crash_rate)
    std::uint64_t restarts = 0;          ///< nodes brought back up
    std::uint64_t partitions = 0;        ///< partition cuts applied
    std::uint64_t heals = 0;             ///< partition cuts healed
    std::uint64_t crash_drops = 0;       ///< hops lost to a crashed endpoint
    std::uint64_t partition_drops = 0;   ///< hops lost across the cut
    std::uint64_t burst_drops = 0;       ///< hops lost in a burst window
    std::uint64_t slowdown_hops = 0;     ///< hops given slowdown delay
  };
  /// Returns a consistent copy taken under the engine lock (the tallies
  /// mutate per hop, so a reference would be a torn read under load).
  Counters counters() const {
    util::MutexLock lock(mu_);
    return counters_;
  }

 private:
  void step(std::uint64_t tick) HIREP_REQUIRES(mu_);
  void crash(net::NodeIndex v) HIREP_REQUIRES(mu_);
  void revive(net::NodeIndex v) HIREP_REQUIRES(mu_);
  bool is_crashed(net::NodeIndex v) const HIREP_REQUIRES(mu_) {
    return v < crashed_.size() && crashed_[v] != 0;
  }
  bool is_severed(net::NodeIndex a, net::NodeIndex b) const
      HIREP_REQUIRES(mu_);
  double slow_ms(net::NodeIndex v) const HIREP_REQUIRES(mu_) {
    return v < slow_.size() && slow_[v] != 0 ? params_.slowdown_ms : 0.0;
  }

  core::HirepSystem* system_;
  ChaosParams params_;
  /// One lock over the whole fault schedule: advance_to mutations and the
  /// per-hop ChaosDelivery queries are serialized against each other, so
  /// the schedule replays identically whether or not delivery interleaves.
  mutable util::Mutex mu_;
  util::Rng rng_
      HIREP_GUARDED_BY(mu_);  ///< schedule stream (crashes, downtimes, sides)
  util::Rng hop_rng_ HIREP_GUARDED_BY(mu_);  ///< per-hop burst-loss stream
  std::uint64_t now_ HIREP_GUARDED_BY(mu_) = 0;
  bool partition_on_ HIREP_GUARDED_BY(mu_) = false;
  bool burst_on_ HIREP_GUARDED_BY(mu_) = false;
  std::vector<std::uint8_t> crashed_ HIREP_GUARDED_BY(mu_);
  std::vector<std::uint64_t> restart_tick_
      HIREP_GUARDED_BY(mu_);  ///< 0 = no pending restart
  /// Due-queue of (restart tick, node), earliest first: one entry per churn
  /// crash, so a tick costs O(due restarts), not a scan of restart_tick_.
  /// An entry whose restart_tick_ no longer matches is stale and skipped.
  std::priority_queue<std::pair<std::uint64_t, net::NodeIndex>,
                      std::vector<std::pair<std::uint64_t, net::NodeIndex>>,
                      std::greater<>>
      restarts_ HIREP_GUARDED_BY(mu_);
  std::vector<std::uint8_t> side_
      HIREP_GUARDED_BY(mu_);  ///< partition side (1 = minority)
  std::vector<std::uint8_t> slow_
      HIREP_GUARDED_BY(mu_);  ///< slowdown membership
  std::vector<net::NodeIndex> scripted_down_
      HIREP_GUARDED_BY(mu_);  ///< awaiting restart_at
  Counters counters_ HIREP_GUARDED_BY(mu_);
};

/// Wraps the run's configured DeliveryPolicy with the engine's fault
/// overlay.  The inner decision is drawn first (stream alignment); chaos
/// then forces a drop for crashed/severed hops, draws burst loss, and adds
/// slowdown delay.
class ChaosDelivery final : public net::DeliveryPolicy {
 public:
  ChaosDelivery(std::unique_ptr<net::DeliveryPolicy> inner,
                std::shared_ptr<ChaosEngine> engine)
      : inner_(std::move(inner)), engine_(std::move(engine)) {}

  net::HopDecision on_hop(const net::Envelope& envelope, net::NodeIndex from,
                          net::NodeIndex to) override;
  const char* name() const noexcept override { return "chaos"; }

 private:
  std::unique_ptr<net::DeliveryPolicy> inner_;
  std::shared_ptr<ChaosEngine> engine_;
};

/// One-call opt-in: returns nullptr (run untouched) when params.chaos is
/// not "on"; otherwise builds the engine, rebuilds the configured delivery
/// policy with the same seed derivation the system used, and installs the
/// ChaosDelivery wrapper on the system's transport.  Call advance_to()
/// with the running transaction count to drive the schedule.
std::shared_ptr<ChaosEngine> install_chaos(core::HirepSystem& system,
                                           const Params& params);

}  // namespace hirep::sim
