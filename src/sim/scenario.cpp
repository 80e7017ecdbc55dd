#include "sim/scenario.hpp"

#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace hirep::sim {

// OptionSpec::Field folds std::uint64_t members into the std::size_t
// alternative and unsigned members into std::uint32_t; make the layout
// assumption loud rather than silently mis-binding on an exotic ABI.
static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "OptionSpec::Field expects size_t == uint64_t");
static_assert(std::is_same_v<unsigned, std::uint32_t>,
              "OptionSpec::Field expects unsigned == uint32_t");

namespace {

void apply_option(Params& p, const OptionSpec& spec, const util::Config& c) {
  std::visit(
      [&](auto field) {
        using T = std::remove_reference_t<decltype(p.*field)>;
        if constexpr (std::is_same_v<T, double>) {
          p.*field = c.get_double(spec.name, p.*field);
        } else if constexpr (std::is_same_v<T, std::string>) {
          p.*field = c.get_string(spec.name, p.*field);
        } else {
          p.*field = static_cast<T>(
              c.get_int(spec.name, static_cast<std::int64_t>(p.*field)));
        }
      },
      spec.field);
}

std::string type_and_default(const Params& defaults, const OptionSpec& spec) {
  std::ostringstream out;
  std::visit(
      [&](auto field) {
        using T = std::remove_cvref_t<decltype(defaults.*field)>;
        if constexpr (std::is_same_v<T, double>) {
          out << "float (" << defaults.*field << ")";
        } else if constexpr (std::is_same_v<T, std::string>) {
          out << "string (" << defaults.*field << ")";
        } else {
          out << "int (" << defaults.*field << ")";
        }
      },
      spec.field);
  return out.str();
}

void require(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

}  // namespace

const std::vector<OptionSpec>& Scenario::option_table() {
  static const std::vector<OptionSpec> table = {
      // ---- Table 1 -------------------------------------------------------
      {"network_size", &Params::network_size, "number of peers in the network"},
      {"neighbors_per_node", &Params::neighbors_per_node,
       "average overlay degree (Fig5 sweeps 2/3/4)"},
      {"good_rating_lo", &Params::good_rating_lo,
       "lower bound of a good peer's rating"},
      {"good_rating_hi", &Params::good_rating_hi,
       "upper bound of a good peer's rating"},
      {"bad_rating_lo", &Params::bad_rating_lo,
       "lower bound of a bad peer's rating"},
      {"bad_rating_hi", &Params::bad_rating_hi,
       "upper bound of a bad peer's rating"},
      {"relays_per_onion", &Params::relays_per_onion,
       "onion relays per circuit (Fig8 sweeps 5/7/10)"},
      {"trusted_agents", &Params::trusted_agents,
       "trusted agents per peer (c)"},
      {"malicious_ratio", &Params::malicious_ratio,
       "fraction of poor-performance agents"},
      {"voting_ttl", &Params::voting_ttl, "TTL of the pure-voting flood"},
      {"tokens", &Params::tokens, "discovery tokens per walk"},
      // ---- beyond Table 1 ------------------------------------------------
      {"trustable_ratio", &Params::trustable_ratio,
       "fraction of peers whose true trust is 1"},
      {"agent_capable_ratio", &Params::agent_capable_ratio,
       "fraction of peers with agent-grade bandwidth"},
      {"expertise_alpha", &Params::expertise_alpha,
       "EWMA weight of the agent-expertise update"},
      {"eviction_threshold", &Params::eviction_threshold,
       "expertise below this evicts an agent (Fig6: 0.4/0.6/0.8)"},
      {"discovery_ttl", &Params::discovery_ttl,
       "TTL of the trusted-agent-list request (§3.4.1)"},
      {"rsa_bits", &Params::rsa_bits, "RSA modulus size"},
      {"crypto", &Params::crypto_mode, "crypto mode: fast|full"},
      {"agent_model", &Params::agent_model,
       "agent-side computation model (ewma|average|beta)"},
      {"delivery", &Params::delivery,
       "envelope delivery: instant|latency|faulty"},
      {"drop_rate", &Params::drop_rate, "faulty: per-hop loss probability"},
      {"duplicate_rate", &Params::duplicate_rate,
       "faulty: per-hop duplication probability"},
      {"fault_delay_min_ms", &Params::fault_delay_min_ms,
       "faulty: minimum extra per-hop delay"},
      {"fault_delay_max_ms", &Params::fault_delay_max_ms,
       "faulty: maximum extra per-hop delay"},
      {"link_min_ms", &Params::link_min_ms, "latency: minimum link delay"},
      {"link_max_ms", &Params::link_max_ms, "latency: maximum link delay"},
      {"processing_ms", &Params::processing_ms,
       "latency: per-hop processing time"},
      {"seed", &Params::seed, "master RNG seed"},
      {"seeds", &Params::seeds, "independent repetitions to average"},
      {"transactions", &Params::transactions, "transaction horizon"},
      {"mse_window", &Params::mse_window,
       "sliding window of the MSE-vs-time curves"},
      {"requestor_pool", &Params::requestor_pool,
       "active requestor community size (0 = whole population)"},
      {"provider_pool", &Params::provider_pool,
       "active provider community size (0 = whole population)"},
      // ---- scale engine --------------------------------------------------
      {"execution", &Params::execution,
       "transaction engine: serial|sharded (sharded needs "
       "delivery=instant; byte-identical results either way)"},
      {"threads", &Params::threads,
       "worker threads for execution=sharded (0 = hardware)"},
      {"shards", &Params::shards,
       "agent partitions for execution=sharded (0 = thread count)"},
      // ---- reliable request channel --------------------------------------
      {"retry_max_attempts", &Params::retry_max_attempts,
       "attempts per reliable request (1 = fire once, no retry)"},
      {"retry_timeout_ms", &Params::retry_timeout_ms,
       "reliable-request reply deadline (0 = none)"},
      {"retry_backoff_ms", &Params::retry_backoff_ms,
       "exponential-backoff base between retries"},
      {"retry_jitter_ms", &Params::retry_jitter_ms,
       "seeded jitter added to each retry backoff"},
      // ---- agent failover / recovery -------------------------------------
      {"suspicion_threshold", &Params::suspicion_threshold,
       "consecutive exchange failures before an agent is quarantined"},
      {"min_quorum", &Params::min_quorum,
       "live trusted-agent quorum below which a query degrades to "
       "first-hand trust (0 = degradation off)"},
      // ---- chaos engine --------------------------------------------------
      {"chaos", &Params::chaos, "deterministic fault scheduler: off|on"},
      {"chaos_seed", &Params::chaos_seed,
       "chaos RNG seed (0 = derive from the master seed)"},
      {"chaos_crash_rate", &Params::chaos_crash_rate,
       "per-node per-tick random crash probability"},
      {"chaos_mean_downtime", &Params::chaos_mean_downtime,
       "mean ticks a randomly crashed node stays down"},
      {"chaos_crash_at", &Params::chaos_crash_at,
       "scripted mass-crash tick (0 = never)"},
      {"chaos_restart_at", &Params::chaos_restart_at,
       "scripted mass-restart tick (0 = never)"},
      {"chaos_agent_crash_fraction", &Params::chaos_agent_crash_fraction,
       "fraction of agent-capable nodes crashed at chaos_crash_at"},
      {"chaos_partition_at", &Params::chaos_partition_at,
       "group-partition start tick (0 = never)"},
      {"chaos_heal_at", &Params::chaos_heal_at,
       "partition heal tick (0 = never)"},
      {"chaos_partition_fraction", &Params::chaos_partition_fraction,
       "fraction of nodes severed onto the minority side"},
      {"chaos_burst_at", &Params::chaos_burst_at,
       "burst-loss window start tick (0 = never)"},
      {"chaos_burst_until", &Params::chaos_burst_until,
       "burst-loss window end tick"},
      {"chaos_burst_drop", &Params::chaos_burst_drop,
       "per-hop drop probability inside the burst window"},
      {"chaos_slowdown_fraction", &Params::chaos_slowdown_fraction,
       "fraction of nodes given extra per-hop delay"},
      {"chaos_slowdown_ms", &Params::chaos_slowdown_ms,
       "extra per-hop delay for slowed-down nodes"},
      // ---- adversary strategy engine --------------------------------------
      {"adversary", &Params::adversary,
       "deterministic attack-campaign scheduler: off|on"},
      {"adversary_seed", &Params::adversary_seed,
       "adversary RNG seed (0 = derive from the master seed)"},
      {"adversary_ring_size", &Params::adversary_ring_size,
       "collusive bad-mouthing ring members (0 = strategy off)"},
      {"adversary_ring_at", &Params::adversary_ring_at,
       "ring formation tick (0 = at install)"},
      {"adversary_ring_targets", &Params::adversary_ring_targets,
       "good providers the ring bad-mouths"},
      {"adversary_sybil_count", &Params::adversary_sybil_count,
       "fresh sybil identities per wave (0 = strategy off)"},
      {"adversary_sybil_at", &Params::adversary_sybil_at,
       "first sybil wave tick (0 = at install)"},
      {"adversary_sybil_period", &Params::adversary_sybil_period,
       "ticks between sybil waves (0 = a single wave)"},
      {"adversary_sybil_corrupt", &Params::adversary_sybil_corrupt,
       "least-referenced good agents corrupted per sybil wave"},
      {"adversary_whitewash_count", &Params::adversary_whitewash_count,
       "malicious peers that whitewash via §3.5 key rotation (0 = off)"},
      {"adversary_whitewash_threshold", &Params::adversary_whitewash_threshold,
       "observed estimate below which a whitewasher rotates its key"},
      {"adversary_whitewash_cooldown", &Params::adversary_whitewash_cooldown,
       "minimum ticks between one peer's key rotations"},
      {"adversary_oscillator_count", &Params::adversary_oscillator_count,
       "on-off oscillator peers (0 = strategy off)"},
      {"adversary_oscillator_on", &Params::adversary_oscillator_on,
       "observed estimate at which an oscillator starts defecting"},
      {"adversary_oscillator_burst", &Params::adversary_oscillator_burst,
       "defection burst length in ticks"},
      {"adversary_front_count", &Params::adversary_front_count,
       "front peers: honest service, dishonest reports (0 = off)"},
      {"adversary_front_at", &Params::adversary_front_at,
       "front-peer recruitment tick (0 = at install)"},
  };
  return table;
}

Scenario Scenario::from_config(const util::Config& config) {
  Scenario sc;
  for (const OptionSpec& spec : option_table()) {
    apply_option(sc.params_, spec, config);
  }
  sc.validate();
  return sc;
}

std::string Scenario::help_text() {
  const Params defaults;
  std::ostringstream out;
  out << "Parameters (key=value; every key below is recognized):\n";
  for (const OptionSpec& spec : option_table()) {
    out << "  " << spec.name << "=" << type_and_default(defaults, spec) << "  "
        << spec.help << '\n';
  }
  return out.str();
}

const Scenario& Scenario::validate() const {
  const Params& p = params_;
  require(p.network_size >= 8, "network_size must be >= 8");
  require(p.crypto_mode == "fast" || p.crypto_mode == "full",
          "crypto must be fast|full");
  require(net::policy_kind_by_name(p.delivery).has_value(),
          "delivery must be instant|latency|faulty");
  require(core::execution_mode_by_name(p.execution).has_value(),
          "execution must be serial|sharded");
  // threads/shards parse through int64, so a negative CLI value would
  // wrap to a huge uint64 — bound them above to catch that.
  require(p.threads <= 4096, "threads must be <= 4096 (negative values wrap)");
  require(p.shards <= 4096, "shards must be <= 4096 (negative values wrap)");
  require(p.shards == 0 || p.execution == "sharded",
          "shards requires execution=sharded");
  require(p.drop_rate >= 0.0 && p.drop_rate <= 1.0 &&
              p.duplicate_rate >= 0.0 && p.duplicate_rate <= 1.0,
          "drop_rate/duplicate_rate must be in [0,1]");
  require(p.malicious_ratio >= 0.0 && p.malicious_ratio <= 1.0,
          "malicious_ratio must be in [0,1]");
  require(p.trustable_ratio >= 0.0 && p.trustable_ratio <= 1.0,
          "trustable_ratio must be in [0,1]");
  require(p.agent_capable_ratio >= 0.0 && p.agent_capable_ratio <= 1.0,
          "agent_capable_ratio must be in [0,1]");
  require(p.good_rating_lo <= p.good_rating_hi &&
              p.bad_rating_lo <= p.bad_rating_hi,
          "rating ranges must satisfy lo <= hi");
  require(p.expertise_alpha > 0.0 && p.expertise_alpha <= 1.0,
          "expertise_alpha must be in (0,1]");
  require(p.eviction_threshold >= 0.0 && p.eviction_threshold <= 1.0,
          "eviction_threshold must be in [0,1]");
  require(p.seeds >= 1, "seeds must be >= 1");
  require(p.trusted_agents >= 1, "trusted_agents must be >= 1");
  require(p.mse_window >= 1, "mse_window must be >= 1");
  require(p.relays_per_onion < p.network_size,
          "relays_per_onion must be < network_size");
  require(p.requestor_pool <= p.network_size,
          "requestor_pool must be <= network_size (0 = whole population)");
  require(p.provider_pool <= p.network_size,
          "provider_pool must be <= network_size (0 = whole population)");
  require(p.fault_delay_min_ms <= p.fault_delay_max_ms,
          "fault_delay_min_ms must be <= fault_delay_max_ms");
  require(p.link_min_ms <= p.link_max_ms,
          "link_min_ms must be <= link_max_ms");
  // ---- reliable request channel -----------------------------------------
  // retry_max_attempts parses through int64, so a negative CLI value would
  // wrap to a huge uint32 — bound it above to catch that mistake.
  require(p.retry_max_attempts >= 1 && p.retry_max_attempts <= 1000,
          "retry_max_attempts must be in [1,1000] (negative values wrap)");
  require(p.retry_timeout_ms >= 0.0,
          "retry_timeout_ms must be >= 0 (0 = no deadline)");
  require(p.retry_backoff_ms >= 0.0, "retry_backoff_ms must be >= 0");
  require(p.retry_jitter_ms >= 0.0, "retry_jitter_ms must be >= 0");
  require(p.suspicion_threshold >= 1 && p.suspicion_threshold <= 1000000,
          "suspicion_threshold must be in [1,1e6] (negative values wrap)");
  // ---- chaos engine -------------------------------------------------------
  require(p.chaos == "off" || p.chaos == "on", "chaos must be off|on");
  require(p.chaos_crash_rate >= 0.0 && p.chaos_crash_rate <= 1.0,
          "chaos_crash_rate must be in [0,1]");
  require(p.chaos_mean_downtime >= 0.0, "chaos_mean_downtime must be >= 0");
  require(p.chaos_agent_crash_fraction >= 0.0 &&
              p.chaos_agent_crash_fraction <= 1.0,
          "chaos_agent_crash_fraction must be in [0,1]");
  require(p.chaos_partition_fraction >= 0.0 &&
              p.chaos_partition_fraction <= 1.0,
          "chaos_partition_fraction must be in [0,1]");
  require(p.chaos_burst_drop >= 0.0 && p.chaos_burst_drop <= 1.0,
          "chaos_burst_drop must be in [0,1]");
  require(p.chaos_slowdown_fraction >= 0.0 &&
              p.chaos_slowdown_fraction <= 1.0,
          "chaos_slowdown_fraction must be in [0,1]");
  require(p.chaos_slowdown_ms >= 0.0, "chaos_slowdown_ms must be >= 0");
  require(p.chaos_restart_at == 0 || p.chaos_crash_at == 0 ||
              p.chaos_restart_at >= p.chaos_crash_at,
          "chaos_restart_at must be >= chaos_crash_at (0 = never)");
  require(p.chaos_heal_at == 0 || p.chaos_partition_at == 0 ||
              p.chaos_heal_at >= p.chaos_partition_at,
          "chaos_heal_at must be >= chaos_partition_at (0 = never)");
  require(p.chaos_burst_until == 0 || p.chaos_burst_at == 0 ||
              p.chaos_burst_until >= p.chaos_burst_at,
          "chaos_burst_until must be >= chaos_burst_at (0 = never)");
  // ---- adversary strategy engine ------------------------------------------
  require(p.adversary == "off" || p.adversary == "on",
          "adversary must be off|on");
  require(p.adversary_ring_size <= p.network_size,
          "adversary_ring_size must be <= network_size");
  require(p.adversary_ring_targets <= p.network_size,
          "adversary_ring_targets must be <= network_size");
  require(p.adversary_whitewash_count <= p.network_size,
          "adversary_whitewash_count must be <= network_size");
  require(p.adversary_oscillator_count <= p.network_size,
          "adversary_oscillator_count must be <= network_size");
  require(p.adversary_front_count <= p.network_size,
          "adversary_front_count must be <= network_size");
  require(p.adversary_whitewash_threshold >= 0.0 &&
              p.adversary_whitewash_threshold <= 1.0,
          "adversary_whitewash_threshold must be in [0,1]");
  require(p.adversary_oscillator_on >= 0.0 && p.adversary_oscillator_on <= 1.0,
          "adversary_oscillator_on must be in [0,1]");
  require(p.adversary_whitewash_cooldown >= 1,
          "adversary_whitewash_cooldown must be >= 1");
  require(p.adversary_oscillator_burst >= 1,
          "adversary_oscillator_burst must be >= 1");
  // Sybil waves join fresh identities every period; bound the per-wave
  // size like the other counts (negative CLI values wrap to huge uint64).
  require(p.adversary_sybil_count <= p.network_size,
          "adversary_sybil_count must be <= network_size");
  require(p.adversary_sybil_corrupt <= p.network_size,
          "adversary_sybil_corrupt must be <= network_size");
  return *this;
}

core::Executor Scenario::execution_policy() const {
  core::Executor exec;
  exec.mode = *core::execution_mode_by_name(params_.execution);
  exec.threads = params_.threads;
  exec.shards = params_.shards;
  // Environment-driven downgrades (chaos schedules faults against the
  // global transaction tick; lossy/delayed transports are order-dependent)
  // live in Executor::validate, with a logged diagnostic.
  core::Executor::Environment env;
  env.instant_delivery = params_.delivery == "instant";
  env.chaos = params_.chaos == "on";
  // The adversary engine deliberately does NOT downgrade the executor:
  // unlike chaos it never touches the wire — every campaign action is a
  // state mutation applied at a tick boundary between batches — so
  // adversarial runs stay byte-identical across serial|sharded.
  return exec.validate(env);
}

}  // namespace hirep::sim
