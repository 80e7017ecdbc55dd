#include "sim/chaos.hpp"

#include <cmath>

#include "obs/metrics.hpp"

namespace hirep::sim {

namespace {

/// Salt for deriving the chaos stream from the master seed (chaos_seed=0).
constexpr std::uint64_t kChaosSeedSalt = 0xc4a05eedc4a05eedULL;
/// The transport-policy seed salt HirepSystem uses; the rebuilt inner
/// policy must draw the identical fault stream the bare run would have.
constexpr std::uint64_t kTransportSeedSalt = 0xfa017ca7ULL;

struct ChaosCells {
  obs::Counter* crashes;
  obs::Counter* restarts;
  obs::Counter* partitions;
  obs::Counter* heals;
  obs::Counter* crash_drops;
  obs::Counter* partition_drops;
  obs::Counter* burst_drops;
  obs::Counter* slowdown_hops;
};

const ChaosCells& chaos_cells() {
  static const ChaosCells cells = [] {
    auto& reg = obs::Registry::global();
    return ChaosCells{&reg.counter("sim.chaos.crashes"),
                      &reg.counter("sim.chaos.restarts"),
                      &reg.counter("sim.chaos.partitions"),
                      &reg.counter("sim.chaos.heals"),
                      &reg.counter("sim.chaos.crash_drops"),
                      &reg.counter("sim.chaos.partition_drops"),
                      &reg.counter("sim.chaos.burst_drops"),
                      &reg.counter("sim.chaos.slowdown_hops")};
  }();
  return cells;
}

std::size_t fraction_of(std::size_t n, double fraction) {
  const double k = std::round(fraction * static_cast<double>(n));
  return k <= 0.0 ? 0 : static_cast<std::size_t>(k) > n
                            ? n
                            : static_cast<std::size_t>(k);
}

}  // namespace

ChaosParams chaos_params_from(const Params& p) {
  ChaosParams c;
  c.seed = p.chaos_seed;
  c.crash_rate = p.chaos_crash_rate;
  c.mean_downtime = p.chaos_mean_downtime;
  c.crash_at = p.chaos_crash_at;
  c.restart_at = p.chaos_restart_at;
  c.agent_crash_fraction = p.chaos_agent_crash_fraction;
  c.partition_at = p.chaos_partition_at;
  c.heal_at = p.chaos_heal_at;
  c.partition_fraction = p.chaos_partition_fraction;
  c.burst_at = p.chaos_burst_at;
  c.burst_until = p.chaos_burst_until;
  c.burst_drop = p.chaos_burst_drop;
  c.slowdown_fraction = p.chaos_slowdown_fraction;
  c.slowdown_ms = p.chaos_slowdown_ms;
  return c;
}

ChaosEngine::ChaosEngine(core::HirepSystem* system, ChaosParams params,
                         std::uint64_t master_seed)
    : system_(system),
      params_(params),
      rng_(params.seed != 0 ? params.seed : master_seed ^ kChaosSeedSalt),
      hop_rng_(rng_.fork()) {
  const std::size_t n = system_->node_count();
  crashed_.assign(n, 0);
  restart_tick_.assign(n, 0);
  side_.assign(n, 0);
  slow_.assign(n, 0);
  if (params_.slowdown_fraction > 0.0 && params_.slowdown_ms > 0.0) {
    for (std::size_t i :
         rng_.sample_indices(n, fraction_of(n, params_.slowdown_fraction))) {
      slow_[i] = 1;
    }
  }
}

void ChaosEngine::advance_to(std::uint64_t tick) {
  util::MutexLock lock(mu_);
  while (now_ < tick) step(++now_);
}

void ChaosEngine::step(std::uint64_t tick) {
  // 1. Pending churn restarts come first so a node's downtime is exactly
  //    the drawn span regardless of what else fires this tick.  Every tick
  //    is stepped and a restart lands at least one tick out, so all due
  //    entries carry this tick and pop in ascending node order.
  while (!restarts_.empty() && restarts_.top().first <= tick) {
    const auto [at, v] = restarts_.top();
    restarts_.pop();
    if (restart_tick_[v] == at) revive(v);  // else stale: revived already
  }
  // 2. Scripted mass-crash of reputation agents.
  if (params_.crash_at != 0 && tick == params_.crash_at &&
      params_.agent_crash_fraction > 0.0) {
    std::vector<net::NodeIndex> agents;
    for (net::NodeIndex v = 0; v < crashed_.size(); ++v) {
      if (system_->agent_at(v) != nullptr && !crashed_[v]) agents.push_back(v);
    }
    const std::size_t k =
        fraction_of(agents.size(), params_.agent_crash_fraction);
    for (std::size_t i : rng_.sample_indices(agents.size(), k)) {
      crash(agents[i]);
      scripted_down_.push_back(agents[i]);
      ++counters_.scripted_crashes;
      if constexpr (obs::kEnabled) chaos_cells().crashes->add();
    }
  }
  // 3. Scripted mass-restart (exactly the set downed at crash_at).
  if (params_.restart_at != 0 && tick == params_.restart_at) {
    for (net::NodeIndex v : scripted_down_) {
      if (crashed_[v]) revive(v);
    }
    scripted_down_.clear();
  }
  // 4. Group partition: a sampled minority side is severed from the rest.
  if (params_.partition_at != 0 && tick == params_.partition_at) {
    std::fill(side_.begin(), side_.end(), 0);
    for (std::size_t i : rng_.sample_indices(
             side_.size(), fraction_of(side_.size(),
                                       params_.partition_fraction))) {
      side_[i] = 1;
    }
    partition_on_ = true;
    ++counters_.partitions;
    if constexpr (obs::kEnabled) chaos_cells().partitions->add();
  }
  if (params_.heal_at != 0 && tick == params_.heal_at && partition_on_) {
    partition_on_ = false;
    ++counters_.heals;
    if constexpr (obs::kEnabled) chaos_cells().heals->add();
  }
  // 5. Burst-loss window membership (until == 0 keeps the window open).
  burst_on_ = params_.burst_at != 0 && tick >= params_.burst_at &&
              (params_.burst_until == 0 || tick < params_.burst_until);
  // 6. Random churn: each live node crashes with crash_rate and comes back
  //    after an exponential downtime (at least one tick).  One draw per
  //    live node in index order, as rng_.chance(crash_rate) would make it
  //    (crash_rate >= 1 draws nothing).  The draws run on a local copy of
  //    the stream: the byte loads of crashed_ may alias a member, which
  //    would force the generator state through memory on every draw.
  if (params_.crash_rate > 0.0) {
    util::Rng rng = rng_;
    const bool certain = params_.crash_rate >= 1.0;
    const std::uint64_t threshold =
        util::Rng::chance_threshold(params_.crash_rate);
    for (net::NodeIndex v = 0; v < crashed_.size(); ++v) {
      if (crashed_[v] || !(certain || rng.below_threshold(threshold))) {
        continue;
      }
      crash(v);
      double downtime = 1.0;
      if (params_.mean_downtime > 0.0) {
        downtime += std::floor(rng.exponential(1.0 / params_.mean_downtime));
      }
      restart_tick_[v] = tick + static_cast<std::uint64_t>(downtime);
      restarts_.emplace(restart_tick_[v], v);
      ++counters_.random_crashes;
      if constexpr (obs::kEnabled) chaos_cells().crashes->add();
    }
    rng_ = rng;
  }
}

void ChaosEngine::crash(net::NodeIndex v) {
  crashed_[v] = 1;
  if (system_->agent_at(v) != nullptr) system_->set_agent_online(v, false);
}

void ChaosEngine::revive(net::NodeIndex v) {
  crashed_[v] = 0;
  restart_tick_[v] = 0;
  // A restarted agent is live again at the transport level, but a
  // quarantine it earned while down stays until a fresh probe clears it —
  // that is the recovery path under test.
  if (system_->agent_at(v) != nullptr) system_->set_agent_online(v, true);
  ++counters_.restarts;
  if constexpr (obs::kEnabled) chaos_cells().restarts->add();
}

bool ChaosEngine::crashed(net::NodeIndex v) const {
  util::MutexLock lock(mu_);
  return is_crashed(v);
}

bool ChaosEngine::is_severed(net::NodeIndex a, net::NodeIndex b) const {
  if (!partition_on_) return false;
  const std::uint8_t sa = a < side_.size() ? side_[a] : 0;
  const std::uint8_t sb = b < side_.size() ? side_[b] : 0;
  return sa != sb;
}

bool ChaosEngine::severed(net::NodeIndex a, net::NodeIndex b) const {
  util::MutexLock lock(mu_);
  return is_severed(a, b);
}

double ChaosEngine::slowdown_of(net::NodeIndex v) const {
  util::MutexLock lock(mu_);
  return slow_ms(v);
}

ChaosEngine::HopFault ChaosEngine::hop_fault(net::NodeIndex from,
                                             net::NodeIndex to) {
  util::MutexLock lock(mu_);
  if (is_crashed(from) || is_crashed(to)) {
    ++counters_.crash_drops;
    if constexpr (obs::kEnabled) chaos_cells().crash_drops->add();
    return {.drop = true};
  }
  if (is_severed(from, to)) {
    ++counters_.partition_drops;
    if constexpr (obs::kEnabled) chaos_cells().partition_drops->add();
    return {.drop = true};
  }
  if (burst_on_ && hop_rng_.chance(params_.burst_drop)) {
    ++counters_.burst_drops;
    if constexpr (obs::kEnabled) chaos_cells().burst_drops->add();
    return {.drop = true};
  }
  const double slow = slow_ms(from) + slow_ms(to);
  if (slow > 0.0) {
    ++counters_.slowdown_hops;
    if constexpr (obs::kEnabled) chaos_cells().slowdown_hops->add();
  }
  return {.delay_ms = slow};
}

net::HopDecision ChaosDelivery::on_hop(const net::Envelope& envelope,
                                       net::NodeIndex from, net::NodeIndex to) {
  // Draw the inner verdict unconditionally so the wrapped policy's private
  // fault stream stays aligned with the equivalent chaos-free run.
  net::HopDecision d = inner_->on_hop(envelope, from, to);
  if (d.drop) return d;
  const ChaosEngine::HopFault fault = engine_->hop_fault(from, to);
  d.drop = fault.drop;
  if (fault.delay_ms > 0.0) d.delay_ms += fault.delay_ms;
  return d;
}

std::shared_ptr<ChaosEngine> install_chaos(core::HirepSystem& system,
                                           const Params& params) {
  if (params.chaos != "on") return nullptr;
  auto engine = std::make_shared<ChaosEngine>(
      &system, chaos_params_from(params), params.seed);
  auto inner =
      net::make_policy(params.delivery_config(), &system.overlay().latency(),
                       params.seed ^ kTransportSeedSalt);
  system.transport().set_policy(
      std::make_unique<ChaosDelivery>(std::move(inner), engine));
  return engine;
}

}  // namespace hirep::sim
