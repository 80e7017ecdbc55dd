// sim::Adversary — deterministic, tick-driven attack campaigns against a
// live reputation system (paper §4 threat analysis, run as *sustained*
// strategies instead of the one-shot probes in sim/attacks.hpp).
//
// The engine mirrors the ChaosEngine design: it advances on the
// transaction tick, every stochastic choice draws from its own salted
// seeded Rng (never from the simulation's main stream), and the whole
// stack is opt-in through sim::Scenario (`adversary=on` plus the
// adversary_* knobs) — with adversary=off install_adversary() returns
// nullptr and the run is bit-identical to a build without the engine.
//
// Unlike chaos, the adversary never touches the wire: every campaign
// action is a *state* mutation (GroundTruth behavior modes, §3.5 key
// rotation, open-membership joins) applied inside advance_to() at a tick
// boundary between run_transactions() batches.  That is what makes
// adversarial runs byte-identical across the serial and sharded
// executors — no delivery-order dependence is ever introduced,
// so Scenario::execution_policy() performs no downgrade for adversary=on.
//
// Strategies (each armed by its count knob, composable, tick-scheduled):
//   * collusive bad-mouthing ring — a seeded clique that files
//     minimum-weight reports against good-provider targets and
//     ballot-stuffs its members (the sustained generalization of
//     attacks.hpp hostile_recommendations, exposed via
//     ring_recommendations());
//   * sybil floods — waves of fresh identities joining as malicious
//     evaluators/agents, plus corruption of the least-referenced
//     currently-good agents (attacks.hpp sybil_corrupt_agents);
//   * whitewashing — malicious peers that rotate their key (§3.5) once
//     the community's estimate of them collapses below a threshold; on
//     architectures without standing migration this degrades to wiping
//     the identity-keyed reputation store (reset_reputation);
//   * on-off oscillators — bad peers that play nice until trusted, then
//     defect in bursts;
//   * front peers — honest service, dishonest evaluation and reporting.
//
// The static Figure-7 strategy (a fixed malicious_ratio applied at world
// bootstrap) is deliberately degenerate: the engine records it in its
// params but performs no runtime action, so fig7 runs with the engine
// installed are byte-identical to engine-off runs at the same ratio.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hirep/system.hpp"
#include "net/graph.hpp"
#include "sim/params.hpp"
#include "trust/ground_truth.hpp"
#include "util/annotations.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace hirep::sim {

/// The campaign schedule, decoupled from the full Params bag.  *_at knobs
/// use 0 as "at install" (a strategy is off when its count is 0); see
/// Params for per-field documentation.
struct AdversaryParams {
  std::uint64_t seed = 0;  ///< 0 = derive from the master seed
  // Workload context: recruit/target selection pools (0 = population).
  std::size_t requestor_pool = 0;
  std::size_t provider_pool = 0;
  // Collusive bad-mouthing ring.
  std::size_t ring_size = 0;
  std::uint64_t ring_at = 0;
  std::size_t ring_targets = 4;
  // Sybil floods.
  std::size_t sybil_count = 0;
  std::uint64_t sybil_at = 0;
  std::uint64_t sybil_period = 0;  ///< 0 = a single wave
  std::size_t sybil_corrupt = 0;
  // Whitewashing via §3.5 key rotation.
  std::size_t whitewash_count = 0;
  double whitewash_threshold = 0.3;
  std::uint64_t whitewash_cooldown = 10;
  // On-off oscillators.
  std::size_t oscillator_count = 0;
  double oscillator_on = 0.7;
  std::uint64_t oscillator_burst = 5;
  // Front peers.
  std::size_t front_count = 0;
  std::uint64_t front_at = 0;
  /// The degenerate static Figure-7 strategy: the world's bootstrap
  /// malicious_ratio, mirrored for introspection only (no runtime action).
  double static_ratio = 0.0;
};

/// Projects the adversary_* fields of a validated Params.
AdversaryParams adversary_params_from(const Params& params);

/// The capability surface the engine drives.  HirepAdversaryHost
/// implements everything; baseline hosts (bench/adversary_curves.cpp)
/// implement what their architecture actually has, and the engine adapts:
/// sybil waves fall back to corrupting existing evaluators where there is
/// no open membership, whitewashing falls back to wiping the
/// identity-keyed store where there is no §3.5 standing migration.
class AdversaryHost {
 public:
  virtual ~AdversaryHost() = default;
  virtual trust::GroundTruth& truth() = 0;
  virtual std::size_t node_count() const = 0;
  /// Open membership: spawn one fresh identity (sybil waves).  Hosts
  /// without open membership return nullopt.
  virtual std::optional<net::NodeIndex> spawn_identity() {
    return std::nullopt;
  }
  /// §3.5 key rotation.  Returns true when the architecture migrates the
  /// peer's standing to the new key (hiREP); false sends the engine to
  /// reset_reputation() — what a fresh identity achieves in a store keyed
  /// by identity.
  virtual bool rotate_identity(net::NodeIndex /*v*/) { return false; }
  /// Forget every stored opinion about (and by) v.
  virtual void reset_reputation(net::NodeIndex /*v*/) {}
  /// Flip up to `count` least-referenced currently-good agents to
  /// malicious (attacks.hpp sybil_corrupt_agents); returns the converts.
  virtual std::vector<net::NodeIndex> corrupt_fringe_agents(
      std::size_t /*count*/) {
    return {};
  }
  /// Hostile recommendation lists bad-mouthing `targets` and
  /// ballot-stuffing `members` (attacks.hpp hostile_recommendations);
  /// empty on hosts without agent lists.
  virtual std::vector<std::vector<core::AgentEntry>> hostile_lists(
      const std::vector<net::NodeIndex>& /*targets*/,
      const std::vector<net::NodeIndex>& /*members*/,
      std::size_t /*list_count*/) {
    return {};
  }
};

/// Full-capability host over a live HirepSystem.
class HirepAdversaryHost final : public AdversaryHost {
 public:
  explicit HirepAdversaryHost(core::HirepSystem* system) : system_(system) {}
  trust::GroundTruth& truth() override { return system_->truth(); }
  std::size_t node_count() const override { return system_->node_count(); }
  std::optional<net::NodeIndex> spawn_identity() override;
  bool rotate_identity(net::NodeIndex v) override;
  std::vector<net::NodeIndex> corrupt_fringe_agents(
      std::size_t count) override;
  std::vector<std::vector<core::AgentEntry>> hostile_lists(
      const std::vector<net::NodeIndex>& targets,
      const std::vector<net::NodeIndex>& members,
      std::size_t list_count) override;

 private:
  core::HirepSystem* system_;
};

class Adversary {
 public:
  /// `master_seed` seeds the engine when params.seed == 0 (salted, so the
  /// adversary stream never collides with any other derived stream).
  /// Strategies whose *_at knob is 0 activate here, before the first
  /// transaction; recruitment draws happen in a fixed order (ring, fronts,
  /// whitewashers, oscillators, sybil wave) for deterministic replay.
  Adversary(std::unique_ptr<AdversaryHost> host, AdversaryParams params,
            std::uint64_t master_seed);

  /// Advances the campaign clock to `tick`, firing every scheduled
  /// activation and trigger-driven action in (now, tick].  Call at batch
  /// boundaries (tick = transactions run so far); a tick in the past is a
  /// no-op.
  void advance_to(std::uint64_t tick);
  std::uint64_t now() const {
    util::MutexLock lock(mu_);
    return now_;
  }

  /// Feedback channel: the community's estimate observed for `provider`
  /// in a completed transaction.  Drives the whitewash trigger (rotate
  /// once the estimate collapses) and the oscillator phase flip (defect
  /// once trusted).  Feed every record of a batch before advancing the
  /// clock past it.
  void observe(net::NodeIndex provider, double estimate);
  /// Convenience over any record type with provider/estimate fields.
  template <typename Records>
  void observe_records(const Records& records) {
    for (const auto& r : records) observe(r.provider, r.estimate);
  }

  /// Campaign bookkeeping, mirrored into the obs registry under
  /// sim.adversary.*.
  struct Counters {
    std::uint64_t ring_recruits = 0;      ///< clique members recruited
    std::uint64_t ring_targets_marked = 0;///< providers under bad-mouthing
    std::uint64_t sybil_joins = 0;        ///< fresh identities spawned
    std::uint64_t sybil_evaluator_corruptions = 0;  ///< no-membership fallback
    std::uint64_t sybil_agent_corruptions = 0;      ///< fringe agents flipped
    std::uint64_t whitewash_rotations = 0;///< §3.5 rotations performed
    std::uint64_t whitewash_resets = 0;   ///< identity-keyed stores wiped
    std::uint64_t oscillator_defections = 0;
    std::uint64_t oscillator_recoveries = 0;
    std::uint64_t front_recruits = 0;
  };
  /// A consistent copy taken under the engine lock.
  Counters counters() const {
    util::MutexLock lock(mu_);
    return counters_;
  }

  // -- introspection (tests / exhibits) ------------------------------------
  std::vector<net::NodeIndex> ring_members() const;
  std::vector<net::NodeIndex> ring_targets() const;
  std::vector<net::NodeIndex> whitewashers() const;
  std::vector<net::NodeIndex> oscillators() const;
  std::vector<net::NodeIndex> front_peers() const;
  /// Every node a sybil wave has touched so far: spawned identities and
  /// fringe agents flipped by corrupt_fringe_agents, in action order.
  std::vector<net::NodeIndex> sybil_converts() const;
  const AdversaryParams& params() const noexcept { return params_; }

  /// The ring's §4.2.1 manipulation payload: `list_count` hostile
  /// recommendation lists bad-mouthing the campaign targets and
  /// ballot-stuffing the clique (generalizes attacks.hpp
  /// hostile_recommendations to the live ring membership).  Empty before
  /// the ring forms or on hosts without agent lists.
  std::vector<std::vector<core::AgentEntry>> ring_recommendations(
      std::size_t list_count) const;

 private:
  void step(std::uint64_t tick) HIREP_REQUIRES(mu_);
  void form_ring() HIREP_REQUIRES(mu_);
  void recruit_fronts() HIREP_REQUIRES(mu_);
  void recruit_whitewashers() HIREP_REQUIRES(mu_);
  void recruit_oscillators() HIREP_REQUIRES(mu_);
  void sybil_wave() HIREP_REQUIRES(mu_);
  /// Samples `count` distinct unclaimed nodes satisfying `pred` from the
  /// first `pool` node indices (0 = whole population), in ascending-index
  /// candidate order, and claims them.
  template <typename Pred>
  std::vector<net::NodeIndex> recruit(std::size_t pool, std::size_t count,
                                      Pred pred) HIREP_REQUIRES(mu_);

  /// Per-peer trigger state for the estimate-driven strategies.
  struct Tracked {
    net::NodeIndex peer = net::kInvalidNode;
    double estimate = -1.0;  ///< last observed; < 0 = none since last action
    std::uint64_t last_action = 0;
    bool defecting = false;
    std::uint64_t defect_until = 0;
  };

  std::unique_ptr<AdversaryHost> host_;
  AdversaryParams params_;
  /// One lock over the whole campaign: advance_to mutations and observe()
  /// feedback are serialized, so a schedule replays identically however
  /// the caller interleaves them between batches.
  mutable util::Mutex mu_;
  util::Rng rng_ HIREP_GUARDED_BY(mu_);  ///< the engine's only RNG stream
  std::uint64_t now_ HIREP_GUARDED_BY(mu_) = 0;
  std::uint64_t next_sybil_ HIREP_GUARDED_BY(mu_);  ///< kNever = disarmed
  bool ring_formed_ HIREP_GUARDED_BY(mu_) = false;
  bool fronts_recruited_ HIREP_GUARDED_BY(mu_) = false;
  std::vector<std::uint8_t> claimed_ HIREP_GUARDED_BY(mu_);
  std::vector<net::NodeIndex> ring_members_ HIREP_GUARDED_BY(mu_);
  std::vector<net::NodeIndex> ring_targets_ HIREP_GUARDED_BY(mu_);
  std::vector<net::NodeIndex> fronts_ HIREP_GUARDED_BY(mu_);
  std::vector<net::NodeIndex> sybil_converts_ HIREP_GUARDED_BY(mu_);
  std::vector<Tracked> whitewash_ HIREP_GUARDED_BY(mu_);
  std::vector<Tracked> oscillators_ HIREP_GUARDED_BY(mu_);
  Counters counters_ HIREP_GUARDED_BY(mu_);
};

/// One-call opt-in: returns nullptr (run untouched) when params.adversary
/// is not "on"; otherwise builds the engine over a full-capability
/// HirepSystem host.  Call advance_to() with the running transaction
/// count — and feed records through observe_records() — at every batch
/// boundary.
std::shared_ptr<Adversary> install_adversary(core::HirepSystem& system,
                                             const Params& params);

}  // namespace hirep::sim
