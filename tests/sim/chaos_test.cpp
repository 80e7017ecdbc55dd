// sim::ChaosEngine — the deterministic fault scheduler: scripted crash /
// restart, group partitions, burst-loss windows, per-node slowdown, random
// churn, the ChaosDelivery wire overlay, golden safety (chaos=off touches
// nothing), bit-identical replay of a chaotic run, and the due-queue churn
// schedule against the full-scan schedule it replaced.
#include "sim/chaos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"

namespace hirep::sim {
namespace {

Params small_params() {
  Params p;
  p.network_size = 64;
  p.transactions = 40;
  p.requestor_pool = 0;  // whole-network workload at this size
  p.provider_pool = 0;
  p.seed = 11;
  return p;
}

TEST(ChaosInstall, OffLeavesTheRunUntouched) {
  const Params p = small_params();  // chaos defaults to "off"
  core::HirepSystem sys(p.hirep_options());
  EXPECT_EQ(install_chaos(sys, p), nullptr);
  EXPECT_STREQ(sys.transport().policy().name(), "instant");
}

TEST(ChaosInstall, OnWrapsTheConfiguredDeliveryPolicy) {
  Params p = small_params();
  p.chaos = "on";
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_chaos(sys, p);
  ASSERT_NE(engine, nullptr);
  EXPECT_STREQ(sys.transport().policy().name(), "chaos");
  EXPECT_EQ(engine->now(), 0u);
}

TEST(ChaosParamsFrom, ProjectsEveryScheduleKnob) {
  Params p = small_params();
  p.chaos_seed = 77;
  p.chaos_crash_rate = 0.1;
  p.chaos_mean_downtime = 5.0;
  p.chaos_crash_at = 3;
  p.chaos_restart_at = 6;
  p.chaos_agent_crash_fraction = 0.4;
  p.chaos_partition_at = 9;
  p.chaos_heal_at = 12;
  p.chaos_partition_fraction = 0.2;
  p.chaos_burst_at = 15;
  p.chaos_burst_until = 18;
  p.chaos_burst_drop = 0.6;
  p.chaos_slowdown_fraction = 0.3;
  p.chaos_slowdown_ms = 2.5;
  const auto c = chaos_params_from(p);
  EXPECT_EQ(c.seed, 77u);
  EXPECT_DOUBLE_EQ(c.crash_rate, 0.1);
  EXPECT_DOUBLE_EQ(c.mean_downtime, 5.0);
  EXPECT_EQ(c.crash_at, 3u);
  EXPECT_EQ(c.restart_at, 6u);
  EXPECT_DOUBLE_EQ(c.agent_crash_fraction, 0.4);
  EXPECT_EQ(c.partition_at, 9u);
  EXPECT_EQ(c.heal_at, 12u);
  EXPECT_DOUBLE_EQ(c.partition_fraction, 0.2);
  EXPECT_EQ(c.burst_at, 15u);
  EXPECT_EQ(c.burst_until, 18u);
  EXPECT_DOUBLE_EQ(c.burst_drop, 0.6);
  EXPECT_DOUBLE_EQ(c.slowdown_fraction, 0.3);
  EXPECT_DOUBLE_EQ(c.slowdown_ms, 2.5);
}

TEST(ChaosSchedule, ScriptedCrashDownsAgentsAndRestartRevivesThem) {
  Params p = small_params();
  p.chaos = "on";
  p.chaos_crash_at = 2;
  p.chaos_restart_at = 4;
  p.chaos_agent_crash_fraction = 1.0;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_chaos(sys, p);
  ASSERT_NE(engine, nullptr);

  engine->advance_to(1);
  EXPECT_EQ(engine->counters().scripted_crashes, 0u);

  engine->advance_to(2);
  EXPECT_EQ(engine->counters().scripted_crashes, sys.agent_count());
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (sys.agent_at(v) != nullptr) {
      EXPECT_TRUE(engine->crashed(v)) << "agent " << v;
      EXPECT_FALSE(sys.agent_online(v)) << "agent " << v;
    }
  }

  engine->advance_to(4);
  EXPECT_EQ(engine->counters().restarts, sys.agent_count());
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (sys.agent_at(v) != nullptr) {
      EXPECT_FALSE(engine->crashed(v)) << "agent " << v;
      EXPECT_TRUE(sys.agent_online(v)) << "agent " << v;
    }
  }
  // Ticks already in the past are a no-op.
  engine->advance_to(2);
  EXPECT_EQ(engine->now(), 4u);
}

TEST(ChaosSchedule, PartitionSeversExactlyTheCutAndHealsClean) {
  Params p = small_params();
  p.chaos = "on";
  p.chaos_partition_at = 1;
  p.chaos_heal_at = 3;
  p.chaos_partition_fraction = 0.25;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_chaos(sys, p);
  ASSERT_NE(engine, nullptr);

  EXPECT_FALSE(engine->severed(0, 1));  // no cut before the schedule fires
  engine->advance_to(1);
  EXPECT_EQ(engine->counters().partitions, 1u);

  // A fraction-0.25 cut of 64 nodes severs a 16-node side: exactly
  // 16 * 48 unordered pairs cross the cut, every one symmetrically.
  const auto n = static_cast<net::NodeIndex>(sys.node_count());
  std::size_t severed_pairs = 0;
  for (net::NodeIndex a = 0; a < n; ++a) {
    for (net::NodeIndex b = a + 1; b < n; ++b) {
      if (engine->severed(a, b)) {
        ++severed_pairs;
        EXPECT_TRUE(engine->severed(b, a));
      }
    }
  }
  EXPECT_EQ(severed_pairs, 16u * 48u);

  engine->advance_to(3);
  EXPECT_EQ(engine->counters().heals, 1u);
  for (net::NodeIndex a = 0; a < n; ++a) {
    for (net::NodeIndex b = a + 1; b < n; ++b) {
      EXPECT_FALSE(engine->severed(a, b));
    }
  }
}

TEST(ChaosSchedule, BurstWindowOpensAndClosesOnSchedule) {
  Params p = small_params();
  p.chaos = "on";
  p.chaos_burst_at = 2;
  p.chaos_burst_until = 4;
  p.chaos_burst_drop = 1.0;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_chaos(sys, p);
  ASSERT_NE(engine, nullptr);

  engine->advance_to(1);
  EXPECT_FALSE(engine->burst_active());
  engine->advance_to(2);
  EXPECT_TRUE(engine->burst_active());
  EXPECT_TRUE(engine->hop_fault(0, 1).drop);  // drop=1: every hop loses
  engine->advance_to(3);
  EXPECT_TRUE(engine->burst_active());
  engine->advance_to(4);
  EXPECT_FALSE(engine->burst_active());
}

TEST(ChaosSchedule, BurstUntilZeroNeverCloses) {
  Params p = small_params();
  p.chaos = "on";
  p.chaos_burst_at = 1;
  p.chaos_burst_until = 0;
  p.chaos_burst_drop = 0.5;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_chaos(sys, p);
  engine->advance_to(100);
  EXPECT_TRUE(engine->burst_active());
}

TEST(ChaosSchedule, SlowdownTaxesExactlyTheSampledFraction) {
  Params p = small_params();
  p.chaos = "on";
  p.chaos_slowdown_fraction = 0.5;
  p.chaos_slowdown_ms = 2.5;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_chaos(sys, p);
  std::size_t slowed = 0;
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    const double s = engine->slowdown_of(v);
    EXPECT_TRUE(s == 0.0 || s == 2.5);
    slowed += s > 0.0;
  }
  EXPECT_EQ(slowed, sys.node_count() / 2);
}

TEST(ChaosChurn, RandomCrashesAreDeterministicPerSeed) {
  const auto trace = [](std::uint64_t chaos_seed) {
    Params p = small_params();
    p.chaos = "on";
    p.chaos_seed = chaos_seed;
    p.chaos_crash_rate = 0.05;
    p.chaos_mean_downtime = 3.0;
    core::HirepSystem sys(p.hirep_options());
    const auto engine = install_chaos(sys, p);
    std::vector<std::pair<std::uint64_t, std::vector<bool>>> snapshots;
    for (std::uint64_t t = 1; t <= 30; ++t) {
      engine->advance_to(t);
      std::vector<bool> down;
      for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
        down.push_back(engine->crashed(v));
      }
      snapshots.emplace_back(engine->counters().random_crashes,
                             std::move(down));
    }
    return snapshots;
  };
  const auto a = trace(5);
  EXPECT_EQ(a, trace(5));
  EXPECT_NE(a, trace(6));
  // The churn actually fires at this rate and nodes do come back.
  EXPECT_GT(a.back().first, 0u);
}

/// The full-scan churn schedule the due-queue replaced, kept as the oracle:
/// it scans every restart tick and draws churn through Rng::chance on every
/// tick.  It mirrors the schedule state only (crashed set and counters) and
/// reads the system's agent set without touching the system.  Needs an
/// explicit (non-zero) chaos seed.
class FullScanSchedule {
 public:
  FullScanSchedule(core::HirepSystem& system, const ChaosParams& params)
      : system_(system), params_(params), rng_(params.seed) {
    rng_.fork();  // the engine's hop stream
    const std::size_t n = system_.node_count();
    crashed_.assign(n, 0);
    restart_tick_.assign(n, 0);
    side_.assign(n, 0);
    if (params_.slowdown_fraction > 0.0 && params_.slowdown_ms > 0.0) {
      rng_.sample_indices(n, fraction_of(n, params_.slowdown_fraction));
    }
  }

  void advance_to(std::uint64_t tick) {
    while (now_ < tick) step(++now_);
  }
  bool crashed(net::NodeIndex v) const { return crashed_[v] != 0; }
  const ChaosEngine::Counters& counters() const { return counters_; }

 private:
  static std::size_t fraction_of(std::size_t n, double fraction) {
    const double k = std::round(fraction * static_cast<double>(n));
    return k <= 0.0 ? 0 : static_cast<std::size_t>(k) > n
                              ? n
                              : static_cast<std::size_t>(k);
  }

  void step(std::uint64_t tick) {
    for (net::NodeIndex v = 0; v < restart_tick_.size(); ++v) {
      if (restart_tick_[v] != 0 && restart_tick_[v] <= tick) revive(v);
    }
    if (params_.crash_at != 0 && tick == params_.crash_at &&
        params_.agent_crash_fraction > 0.0) {
      std::vector<net::NodeIndex> agents;
      for (net::NodeIndex v = 0; v < crashed_.size(); ++v) {
        if (system_.agent_at(v) != nullptr && !crashed_[v]) {
          agents.push_back(v);
        }
      }
      const std::size_t k =
          fraction_of(agents.size(), params_.agent_crash_fraction);
      for (std::size_t i : rng_.sample_indices(agents.size(), k)) {
        crashed_[agents[i]] = 1;
        scripted_down_.push_back(agents[i]);
        ++counters_.scripted_crashes;
      }
    }
    if (params_.restart_at != 0 && tick == params_.restart_at) {
      for (net::NodeIndex v : scripted_down_) {
        if (crashed_[v]) revive(v);
      }
      scripted_down_.clear();
    }
    if (params_.partition_at != 0 && tick == params_.partition_at) {
      rng_.sample_indices(
          side_.size(), fraction_of(side_.size(), params_.partition_fraction));
      partition_on_ = true;
      ++counters_.partitions;
    }
    if (params_.heal_at != 0 && tick == params_.heal_at && partition_on_) {
      partition_on_ = false;
      ++counters_.heals;
    }
    if (params_.crash_rate > 0.0) {
      for (net::NodeIndex v = 0; v < crashed_.size(); ++v) {
        if (crashed_[v] || !rng_.chance(params_.crash_rate)) continue;
        crashed_[v] = 1;
        double downtime = 1.0;
        if (params_.mean_downtime > 0.0) {
          downtime +=
              std::floor(rng_.exponential(1.0 / params_.mean_downtime));
        }
        restart_tick_[v] = tick + static_cast<std::uint64_t>(downtime);
        ++counters_.random_crashes;
      }
    }
  }

  void revive(net::NodeIndex v) {
    crashed_[v] = 0;
    restart_tick_[v] = 0;
    ++counters_.restarts;
  }

  core::HirepSystem& system_;
  ChaosParams params_;
  util::Rng rng_;
  std::uint64_t now_ = 0;
  bool partition_on_ = false;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint64_t> restart_tick_;
  std::vector<std::uint8_t> side_;
  std::vector<net::NodeIndex> scripted_down_;
  ChaosEngine::Counters counters_;
};

TEST(ChaosChurn, DueQueueMatchesFullScan) {
  struct Case {
    const char* name;
    std::uint64_t seed;
    double crash_rate;
    double mean_downtime;
    std::uint64_t crash_at = 0;
    std::uint64_t restart_at = 0;
  };
  const Case cases[] = {
      {"light churn", 1, 0.01, 5.0},
      {"light churn", 2, 0.01, 5.0},
      {"light churn", 3, 0.002, 40.0},
      // Every restart lands on the very next tick.
      {"zero downtime", 4, 0.05, 0.0},
      // Many nodes down at once, so many restarts fall due on one tick.
      {"heavy churn", 5, 0.3, 1.0},
      {"heavy churn", 6, 0.5, 0.0},
      // chance(1) draws nothing, so only the downtimes consume the stream.
      {"certain churn", 9, 1.0, 3.0},
      // Scripted mass crash and restart on top of churn.
      {"scripted overlap", 7, 0.02, 8.0, 300, 900},
      {"scripted overlap", 8, 0.2, 0.5, 1000, 1001},
  };
  constexpr std::uint64_t kTicks = 2000;
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.name << ", seed " << c.seed);
    Params p = small_params();
    p.chaos = "on";
    p.chaos_seed = c.seed;
    p.chaos_crash_rate = c.crash_rate;
    p.chaos_mean_downtime = c.mean_downtime;
    p.chaos_crash_at = c.crash_at;
    p.chaos_restart_at = c.restart_at;
    p.chaos_agent_crash_fraction = c.crash_at != 0 ? 0.6 : 0.0;
    p.chaos_partition_at = 50;
    p.chaos_heal_at = 70;
    p.chaos_partition_fraction = 0.3;
    p.chaos_slowdown_fraction = 0.25;
    p.chaos_slowdown_ms = 2.0;
    core::HirepSystem sys(p.hirep_options());
    const auto engine = install_chaos(sys, p);
    ASSERT_NE(engine, nullptr);
    FullScanSchedule reference(sys, chaos_params_from(p));
    std::uint64_t max_restarts_per_tick = 0;
    for (std::uint64_t t = 1; t <= kTicks; ++t) {
      const std::uint64_t restarts_before = reference.counters().restarts;
      engine->advance_to(t);
      reference.advance_to(t);
      max_restarts_per_tick =
          std::max(max_restarts_per_tick,
                   reference.counters().restarts - restarts_before);
      const ChaosEngine::Counters got = engine->counters();
      const ChaosEngine::Counters& want = reference.counters();
      ASSERT_EQ(got.scripted_crashes, want.scripted_crashes) << "tick " << t;
      ASSERT_EQ(got.random_crashes, want.random_crashes) << "tick " << t;
      ASSERT_EQ(got.restarts, want.restarts) << "tick " << t;
      ASSERT_EQ(got.partitions, want.partitions) << "tick " << t;
      ASSERT_EQ(got.heals, want.heals) << "tick " << t;
      for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
        ASSERT_EQ(engine->crashed(v), reference.crashed(v))
            << "tick " << t << " node " << v;
      }
    }
    // The churn really fired and restarted, and the heavy cases stack
    // several restarts on one tick.
    EXPECT_GT(reference.counters().random_crashes, 0u);
    EXPECT_GT(reference.counters().restarts, 0u);
    if (c.crash_rate >= 0.3) {
      EXPECT_GE(max_restarts_per_tick, 10u);
    }
    if (c.crash_at != 0) {
      EXPECT_GT(reference.counters().scripted_crashes, 0u);
    }
  }
}

/// FNV-1a over every field of every record, doubles by their bits.
std::uint64_t records_digest(
    const std::vector<core::HirepSystem::TransactionRecord>& records) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& r : records) {
    mix(r.requestor);
    mix(r.provider);
    mix(std::bit_cast<std::uint64_t>(r.estimate));
    mix(std::bit_cast<std::uint64_t>(r.truth_value));
    mix(std::bit_cast<std::uint64_t>(r.outcome));
    mix(r.responses);
    mix(r.trust_messages);
  }
  return h;
}

// A churn run over lossy delivery with retries, a burst-loss window and
// slowed nodes: every path of the fault schedule, the hop overlay and the
// at-most-once ledger.  The expected values were captured from the
// full-scan schedule with the six-lock overlay and the node-based ledger,
// so a change to any of them that moves a single record or tally fails.
TEST(ChaosReplay, ChurnRunMatchesItsGolden) {
  Params p;
  p.network_size = 200;
  p.transactions = 600;
  p.seed = 7;
  p.delivery = "faulty";
  p.drop_rate = 0.02;
  p.retry_max_attempts = 3;
  p.retry_timeout_ms = 12;  // slowed hops run late, so retries duplicate
  p.retry_backoff_ms = 20;
  p.chaos = "on";
  p.chaos_crash_rate = 0.002;
  p.chaos_mean_downtime = 20;
  p.chaos_burst_at = 100;
  p.chaos_burst_until = 140;
  p.chaos_burst_drop = 0.1;
  p.chaos_slowdown_fraction = 0.1;
  p.chaos_slowdown_ms = 5;

  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_chaos(sys, p);
  ASSERT_NE(engine, nullptr);
  const auto n = static_cast<net::NodeIndex>(sys.node_count());
  std::vector<core::HirepSystem::TransactionRecord> records;
  for (std::size_t i = 0; i < p.transactions; ++i) {
    const auto r = static_cast<net::NodeIndex>((i * 37) % n);
    const auto q =
        static_cast<net::NodeIndex>((r + 1 + (i * 11) % (n - 1)) % n);
    const std::pair<net::NodeIndex, net::NodeIndex> pair{r, q};
    records.push_back(
        sys.run_transactions({&pair, 1}, core::Executor::serial())[0]);
    engine->advance_to(i + 1);
  }
  const ChaosEngine::Counters c = engine->counters();
  EXPECT_EQ(records_digest(records), 0x17fd497668e0d286ULL);
  EXPECT_EQ(c.random_crashes, 229u);
  EXPECT_EQ(c.restarts, 220u);
  EXPECT_EQ(c.crash_drops, 5197u);
  EXPECT_EQ(c.partition_drops, 0u);
  EXPECT_EQ(c.burst_drops, 460u);
  EXPECT_EQ(c.slowdown_hops, 17332u);
  EXPECT_EQ(sys.reliable().stats().retries, 6637u);
  EXPECT_EQ(sys.reliable().stats().dup_suppressed, 1438u);
}

TEST(ChaosDeliveryOverlay, CrashedEndpointDropsTheHop) {
  Params p = small_params();
  p.chaos = "on";
  p.chaos_crash_at = 1;
  p.chaos_agent_crash_fraction = 1.0;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_chaos(sys, p);
  engine->advance_to(1);

  net::NodeIndex agent_ip = net::kInvalidNode;
  net::NodeIndex plain_ip = net::kInvalidNode;
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (sys.agent_at(v) != nullptr && agent_ip == net::kInvalidNode) {
      agent_ip = v;
    }
    if (sys.agent_at(v) == nullptr && plain_ip == net::kInvalidNode) {
      plain_ip = v;
    }
  }
  ASSERT_NE(agent_ip, net::kInvalidNode);
  ASSERT_NE(plain_ip, net::kInvalidNode);

  const auto to_crashed =
      sys.transport().send(net::EnvelopeType::kProbe, plain_ip, {agent_ip});
  EXPECT_FALSE(to_crashed.delivered);
  EXPECT_GE(engine->counters().crash_drops, 1u);

  // Hops between two live nodes still go through untouched.
  net::NodeIndex other_plain = net::kInvalidNode;
  for (net::NodeIndex v = plain_ip + 1; v < sys.node_count(); ++v) {
    if (sys.agent_at(v) == nullptr) {
      other_plain = v;
      break;
    }
  }
  ASSERT_NE(other_plain, net::kInvalidNode);
  EXPECT_TRUE(sys.transport()
                  .send(net::EnvelopeType::kProbe, plain_ip, {other_plain})
                  .delivered);
}

TEST(ChaosExecution, ParallelBatchesAreRejectedUnderChaos) {
  Params p = small_params();
  p.chaos = "on";
  core::HirepSystem sys(p.hirep_options());
  install_chaos(sys, p);
  const std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs{{0, 1}};
  // The concurrent engine is rejected whatever its shard count.
  EXPECT_THROW(sys.run_transactions(pairs, core::Executor::sharded(0)),
               std::invalid_argument);
  EXPECT_THROW(sys.run_transactions(pairs, core::Executor::sharded(2)),
               std::invalid_argument);
}

TEST(ChaosExecution, ScenarioDowngradesToSerialWhenChaosIsOn) {
  Params p = small_params();
  p.execution = "sharded";
  p.chaos = "on";
  EXPECT_EQ(Scenario(p).execution_policy().mode,
            core::ExecutionMode::kSerial);
  p.chaos = "off";
  EXPECT_EQ(Scenario(p).execution_policy().mode,
            core::ExecutionMode::kSharded);
  // An explicit shard count downgrades the same way, and is cleared.
  p.shards = 4;
  p.chaos = "on";
  const auto downgraded = Scenario(p).execution_policy();
  EXPECT_EQ(downgraded.mode, core::ExecutionMode::kSerial);
  EXPECT_EQ(downgraded.shards, 0u);
  p.chaos = "off";
  EXPECT_EQ(Scenario(p).execution_policy().mode,
            core::ExecutionMode::kSharded);
}

TEST(ChaosReplay, FullChaoticRunIsBitIdentical) {
  Params p = small_params();
  p.chaos = "on";
  p.chaos_crash_at = 10;
  p.chaos_restart_at = 20;
  p.chaos_agent_crash_fraction = 0.5;
  p.chaos_partition_at = 25;
  p.chaos_heal_at = 30;
  p.chaos_partition_fraction = 0.3;
  p.retry_max_attempts = 2;
  p.retry_backoff_ms = 0.5;
  p.min_quorum = 4;

  std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs;
  for (std::size_t i = 0; i < p.transactions; ++i) {
    pairs.emplace_back(static_cast<net::NodeIndex>(i % 32),
                       static_cast<net::NodeIndex>(32 + (i * 7) % 32));
  }

  const auto run = [&] {
    core::HirepSystem sys(p.hirep_options());
    const auto engine = install_chaos(sys, p);
    std::vector<core::HirepSystem::TransactionRecord> records;
    const std::span<const std::pair<net::NodeIndex, net::NodeIndex>> all(
        pairs);
    const auto exec = core::Executor::serial();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      records.push_back(sys.run_transactions(all.subspan(i, 1), exec)[0]);
      engine->advance_to(i + 1);
    }
    return std::make_pair(std::move(records), engine->counters());
  };

  const auto first = run();
  const auto second = run();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(first.first.size(), second.first.size());
  for (std::size_t i = 0; i < first.first.size(); ++i) {
    const auto& a = first.first[i];
    const auto& b = second.first[i];
    EXPECT_EQ(a.requestor, b.requestor) << i;
    EXPECT_EQ(a.provider, b.provider) << i;
    EXPECT_EQ(bits(a.estimate), bits(b.estimate)) << i;
    EXPECT_EQ(bits(a.outcome), bits(b.outcome)) << i;
    EXPECT_EQ(a.responses, b.responses) << i;
    EXPECT_EQ(a.trust_messages, b.trust_messages) << i;
  }
  EXPECT_EQ(first.second.scripted_crashes, second.second.scripted_crashes);
  EXPECT_EQ(first.second.restarts, second.second.restarts);
  EXPECT_EQ(first.second.crash_drops, second.second.crash_drops);
  EXPECT_EQ(first.second.partition_drops, second.second.partition_drops);
  // The schedule genuinely fired (this is a chaos run, not a calm one).
  EXPECT_GT(first.second.scripted_crashes, 0u);
  EXPECT_GT(first.second.crash_drops, 0u);
}

}  // namespace
}  // namespace hirep::sim
