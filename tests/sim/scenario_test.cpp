// sim::Scenario — table-driven parsing, whole-configuration validation,
// fluent builder, and the execution-policy projection for the scale engine.
#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "sim/scenario.hpp"

namespace hirep::sim {
namespace {

util::Config cfg(const std::string& line) {
  return util::Config::from_string(line);
}

TEST(ScenarioTable, EveryOptionParsesFromConfig) {
  // One representative per field type, plus spot checks that values land
  // in the right Params member.
  const auto sc = Scenario::from_config(
      cfg("network_size=500 neighbors_per_node=3.5 crypto=full seed=42 "
          "voting_ttl=6 execution=serial threads=3 malicious_ratio=0.25"));
  EXPECT_EQ(sc.params().network_size, 500u);
  EXPECT_DOUBLE_EQ(sc.params().neighbors_per_node, 3.5);
  EXPECT_EQ(sc.params().crypto_mode, "full");
  EXPECT_EQ(sc.params().seed, 42u);
  EXPECT_EQ(sc.params().voting_ttl, 6u);
  EXPECT_EQ(sc.params().execution, "serial");
  EXPECT_EQ(sc.params().threads, 3u);
  EXPECT_DOUBLE_EQ(sc.params().malicious_ratio, 0.25);
}

TEST(ScenarioTable, NamesAreUniqueAndHelpCoversThemAll) {
  std::unordered_set<std::string> names;
  for (const auto& spec : Scenario::option_table()) {
    EXPECT_TRUE(names.insert(spec.name).second)
        << "duplicate option " << spec.name;
    EXPECT_NE(std::string(spec.help), "") << spec.name;
  }
  const auto help = Scenario::help_text();
  for (const auto& spec : Scenario::option_table()) {
    EXPECT_NE(help.find(spec.name), std::string::npos)
        << spec.name << " missing from --help";
  }
  // Each key is labelled with its Params member's type and default.
  EXPECT_NE(help.find("  crypto=string (fast)"), std::string::npos) << help;
  EXPECT_NE(help.find("  eviction_threshold=float (0.4)"), std::string::npos)
      << help;
  EXPECT_NE(help.find("  execution=string (serial)"), std::string::npos)
      << help;
  EXPECT_NE(help.find("  threads=int ("), std::string::npos) << help;
}

TEST(ScenarioTable, UnknownKeysAreLeftForTheUnusedScan) {
  const auto config = cfg("network_size=300 not_a_param=1");
  Scenario::from_config(config);
  const auto unused = config.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "not_a_param");
}

TEST(ScenarioValidate, RejectsImpossibleCombinations) {
  EXPECT_THROW(Scenario::from_config(cfg("network_size=4")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("crypto=quantum")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("delivery=pigeon")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("execution=warp")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("malicious_ratio=1.5")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("good_rating_lo=0.9 "
                                         "good_rating_hi=0.2")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("expertise_alpha=0")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("seeds=0")), std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("network_size=100 "
                                         "relays_per_onion=100 "
                                         "provider_pool=100")),
               std::invalid_argument);
  // The headline case: a provider pool larger than the network.
  EXPECT_THROW(Scenario::from_config(cfg("network_size=50")),
               std::invalid_argument);  // default provider_pool=100 > 50
  EXPECT_THROW(
      Scenario::from_config(cfg("network_size=200 provider_pool=300")),
      std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("fault_delay_min_ms=5 "
                                         "fault_delay_max_ms=1")),
               std::invalid_argument);
}

TEST(ScenarioValidate, RejectsBrokenRetryAndRecoveryKnobs) {
  // retry_max_attempts parses through int64: 0 and negative (which would
  // wrap the uint32) are both rejected at the validation layer.
  EXPECT_THROW(Scenario::from_config(cfg("retry_max_attempts=0")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("retry_max_attempts=-1")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("retry_max_attempts=100000")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("retry_timeout_ms=-1")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("retry_backoff_ms=-0.5")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("retry_jitter_ms=-2")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("suspicion_threshold=0")),
               std::invalid_argument);
  EXPECT_NO_THROW(Scenario::from_config(
      cfg("retry_max_attempts=5 retry_timeout_ms=10 retry_backoff_ms=1 "
          "retry_jitter_ms=0.5 suspicion_threshold=2 min_quorum=3")));
}

TEST(ScenarioValidate, RejectsImpossibleChaosSchedules) {
  EXPECT_THROW(Scenario::from_config(cfg("chaos=sometimes")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("chaos_crash_rate=1.5")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("chaos_agent_crash_fraction=-0.1")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("chaos_partition_fraction=2")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("chaos_burst_drop=1.01")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("chaos_slowdown_fraction=7")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("chaos_mean_downtime=-1")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("chaos_slowdown_ms=-3")),
               std::invalid_argument);
  // A restart/heal/burst-close scheduled before its opening event can
  // never fire as intended.
  EXPECT_THROW(
      Scenario::from_config(cfg("chaos_crash_at=10 chaos_restart_at=5")),
      std::invalid_argument);
  EXPECT_THROW(
      Scenario::from_config(cfg("chaos_partition_at=10 chaos_heal_at=5")),
      std::invalid_argument);
  EXPECT_THROW(
      Scenario::from_config(cfg("chaos_burst_at=10 chaos_burst_until=5")),
      std::invalid_argument);
  // 0 means "never"/"stay open", so one-sided schedules are fine.
  EXPECT_NO_THROW(Scenario::from_config(
      cfg("chaos=on chaos_crash_at=10 chaos_agent_crash_fraction=0.3 "
          "chaos_burst_at=4 chaos_burst_until=0")));
}

TEST(ScenarioValidate, RejectsImpossibleAdversaryCampaigns) {
  EXPECT_THROW(Scenario::from_config(cfg("adversary=sometimes")),
               std::invalid_argument);
  EXPECT_THROW(
      Scenario::from_config(cfg("adversary_whitewash_threshold=1.5")),
      std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("adversary_oscillator_on=-0.1")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("adversary_whitewash_cooldown=0")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(cfg("adversary_oscillator_burst=0")),
               std::invalid_argument);
  // Recruitment counts can never exceed the population.
  EXPECT_THROW(
      Scenario::from_config(cfg("network_size=100 adversary_ring_size=101")),
      std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(
                   cfg("network_size=100 adversary_ring_targets=101")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(
                   cfg("network_size=100 adversary_whitewash_count=101")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(
                   cfg("network_size=100 adversary_oscillator_count=101")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(
                   cfg("network_size=100 adversary_front_count=101")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(
                   cfg("network_size=100 adversary_sybil_count=101")),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_config(
                   cfg("network_size=100 adversary_sybil_corrupt=101")),
               std::invalid_argument);
  // A full campaign with every strategy armed parses cleanly.
  EXPECT_NO_THROW(Scenario::from_config(
      cfg("adversary=on adversary_ring_size=8 adversary_ring_at=5 "
          "adversary_sybil_count=4 adversary_sybil_period=10 "
          "adversary_whitewash_count=6 adversary_oscillator_count=3 "
          "adversary_front_count=2")));
}

TEST(ScenarioValidate, AcceptsPoolsDisabledOrWithinBounds) {
  EXPECT_NO_THROW(Scenario::from_config(
      cfg("network_size=50 requestor_pool=0 provider_pool=0")));
  EXPECT_NO_THROW(Scenario::from_config(
      cfg("network_size=200 requestor_pool=50 provider_pool=200")));
}

TEST(ScenarioBuilder, FluentChainProjectsIntoEngineOptions) {
  auto sc = Scenario()
                .network_size(300)
                .transactions(40)
                .seed(9)
                .crypto("full")
                .trusted_agents(6)
                .malicious_ratio(0.2)
                .validate();
  const auto o = sc.hirep_options();
  EXPECT_EQ(o.nodes, 300u);
  EXPECT_EQ(o.seed, 9u);
  EXPECT_EQ(o.crypto, core::CryptoMode::kFull);
  EXPECT_EQ(o.trusted_agents, 6u);
  EXPECT_DOUBLE_EQ(o.world.malicious_ratio, 0.2);
  EXPECT_EQ(sc.voting_options().nodes, 300u);
  EXPECT_EQ(sc.trustme_options().nodes, 300u);
}

TEST(ScenarioExecutionPolicy, ParallelOnlyUnderInstantDelivery) {
  // The default engine is the serial reference.
  EXPECT_EQ(Scenario().execution_policy().mode, core::ExecutionMode::kSerial);

  auto sc = Scenario().execution("sharded").threads(4);
  EXPECT_EQ(sc.execution_policy().mode, core::ExecutionMode::kSharded);
  EXPECT_EQ(sc.execution_policy().threads, 4u);

  // Lossy/delayed transports are order-dependent: downgrade to serial.
  sc.delivery("latency");
  EXPECT_EQ(sc.execution_policy().mode, core::ExecutionMode::kSerial);
  sc.delivery("instant");
  EXPECT_EQ(sc.execution_policy().mode, core::ExecutionMode::kSharded);

  sc.execution("serial");
  EXPECT_EQ(sc.execution_policy().mode, core::ExecutionMode::kSerial);
}

TEST(ScenarioExecutionPolicy, ShardedKnobsProjectAndValidate) {
  auto sc = Scenario().execution("sharded").shards(4).threads(2);
  sc.validate();
  const auto exec = sc.execution_policy();
  EXPECT_EQ(exec.mode, core::ExecutionMode::kSharded);
  EXPECT_EQ(exec.shards, 4u);
  EXPECT_EQ(exec.threads, 2u);

  // Downgrade clears the shard count with the mode.
  sc.delivery("latency");
  const auto downgraded = sc.execution_policy();
  EXPECT_EQ(downgraded.mode, core::ExecutionMode::kSerial);
  EXPECT_EQ(downgraded.shards, 0u);
}

TEST(ScenarioValidate, RejectsNonsenseEngineKnobs) {
  // A negative CLI value wraps through int64 into a huge uint64; validate()
  // rejects it at config time rather than OOMing in the thread pool.
  EXPECT_THROW(Scenario(Params{.threads = 5000}).validate(),
               std::invalid_argument);
  EXPECT_THROW(
      Scenario(Params{.execution = "sharded", .shards = 5000}).validate(),
      std::invalid_argument);
  EXPECT_THROW(Scenario(Params{.execution = "bogus"}).validate(),
               std::invalid_argument);
  // "parallel" names no engine: it is rejected, not aliased, and both the
  // message and --help name the engines there are.
  const auto rejection = [](const auto& build) -> std::string {
    try {
      build();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(rejection([] { Scenario::from_config(cfg("execution=parallel")); })
                .find("serial|sharded"),
            std::string::npos);
  EXPECT_NE(rejection([] {
              Scenario(Params{.execution = "parallel"}).validate();
            }).find("serial|sharded"),
            std::string::npos);
  EXPECT_NE(Scenario::help_text().find("serial|sharded"), std::string::npos);
  EXPECT_EQ(Scenario::help_text().find("parallel"), std::string::npos);
  // shards only makes sense under the sharded engine.
  EXPECT_THROW(Scenario(Params{.execution = "serial", .shards = 2}).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(
      Scenario(Params{.execution = "sharded", .shards = 8}).validate());
}

TEST(ScenarioBackCompat, ParamsFromConfigDelegatesToScenario) {
  const auto p = Params::from_config(
      cfg("network_size=400 crypto=full execution=serial"));
  EXPECT_EQ(p.network_size, 400u);
  EXPECT_EQ(p.crypto_mode, "full");
  EXPECT_EQ(p.execution, "serial");
  EXPECT_THROW(Params::from_config(cfg("network_size=2")),
               std::invalid_argument);
}

}  // namespace
}  // namespace hirep::sim
