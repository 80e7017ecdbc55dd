// sim::Adversary — the deterministic attack-campaign engine: opt-in
// install (adversary=off touches nothing, an idle adversary=on run is
// byte-identical to off), knob projection, the five strategy schedules
// (collusion ring, sybil floods, whitewashing, on-off oscillators, front
// peers), the §3.4.3 quarantine ladder evicting sybil-corrupted agents,
// and bit-identical replay of a full campaign across runs and across the
// serial and sharded executors (two shard counts).
#include "sim/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "hirep/execution.hpp"
#include "sim/attacks.hpp"
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

std::vector<std::pair<net::NodeIndex, net::NodeIndex>> draw_pairs(
    std::size_t count) {
  std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<net::NodeIndex>(i % 32),
                       static_cast<net::NodeIndex>(32 + (i * 7) % 32));
  }
  return pairs;
}

using Records = std::vector<core::HirepSystem::TransactionRecord>;

void expect_records_bit_identical(const Records& a, const Records& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].requestor, b[i].requestor) << i;
    EXPECT_EQ(a[i].provider, b[i].provider) << i;
    EXPECT_EQ(bits(a[i].estimate), bits(b[i].estimate)) << i;
    EXPECT_EQ(bits(a[i].truth_value), bits(b[i].truth_value)) << i;
    EXPECT_EQ(bits(a[i].outcome), bits(b[i].outcome)) << i;
    EXPECT_EQ(a[i].responses, b[i].responses) << i;
    EXPECT_EQ(a[i].trust_messages, b[i].trust_messages) << i;
  }
}

TEST(AdversaryInstall, OffReturnsNullptr) {
  const Params p = small_params();  // adversary defaults to "off"
  core::HirepSystem sys(p.hirep_options());
  EXPECT_EQ(install_adversary(sys, p), nullptr);
}

TEST(AdversaryInstall, IdleEngineIsByteIdenticalToOff) {
  // adversary=on with every strategy count at 0 installs the engine but
  // schedules nothing: the run must not move a single bit.
  const auto run = [](const char* mode) {
    Params p = small_params();
    p.adversary = mode;
    core::HirepSystem sys(p.hirep_options());
    const auto engine = install_adversary(sys, p);
    EXPECT_EQ(engine != nullptr, std::string(mode) == "on");
    const auto pairs = draw_pairs(p.transactions);
    Records records;
    const std::span<const std::pair<net::NodeIndex, net::NodeIndex>> all(
        pairs);
    const auto exec = core::Executor::serial();
    for (std::size_t i = 0; i < pairs.size(); i += 8) {
      const auto n = std::min<std::size_t>(8, pairs.size() - i);
      const auto batch = sys.run_transactions(all.subspan(i, n), exec);
      records.insert(records.end(), batch.begin(), batch.end());
      if (engine != nullptr) {
        engine->observe_records(batch);
        engine->advance_to(i + n);
      }
    }
    return records;
  };
  expect_records_bit_identical(run("on"), run("off"));
}

TEST(AdversaryParamsFrom, ProjectsEveryKnob) {
  Params p = small_params();
  p.adversary_seed = 99;
  p.requestor_pool = 20;
  p.provider_pool = 40;
  p.adversary_ring_size = 5;
  p.adversary_ring_at = 3;
  p.adversary_ring_targets = 2;
  p.adversary_sybil_count = 7;
  p.adversary_sybil_at = 4;
  p.adversary_sybil_period = 6;
  p.adversary_sybil_corrupt = 3;
  p.adversary_whitewash_count = 8;
  p.adversary_whitewash_threshold = 0.25;
  p.adversary_whitewash_cooldown = 12;
  p.adversary_oscillator_count = 9;
  p.adversary_oscillator_on = 0.8;
  p.adversary_oscillator_burst = 4;
  p.adversary_front_count = 10;
  p.adversary_front_at = 5;
  p.malicious_ratio = 0.2;
  const auto a = adversary_params_from(p);
  EXPECT_EQ(a.seed, 99u);
  EXPECT_EQ(a.requestor_pool, 20u);
  EXPECT_EQ(a.provider_pool, 40u);
  EXPECT_EQ(a.ring_size, 5u);
  EXPECT_EQ(a.ring_at, 3u);
  EXPECT_EQ(a.ring_targets, 2u);
  EXPECT_EQ(a.sybil_count, 7u);
  EXPECT_EQ(a.sybil_at, 4u);
  EXPECT_EQ(a.sybil_period, 6u);
  EXPECT_EQ(a.sybil_corrupt, 3u);
  EXPECT_EQ(a.whitewash_count, 8u);
  EXPECT_DOUBLE_EQ(a.whitewash_threshold, 0.25);
  EXPECT_EQ(a.whitewash_cooldown, 12u);
  EXPECT_EQ(a.oscillator_count, 9u);
  EXPECT_DOUBLE_EQ(a.oscillator_on, 0.8);
  EXPECT_EQ(a.oscillator_burst, 4u);
  EXPECT_EQ(a.front_count, 10u);
  EXPECT_EQ(a.front_at, 5u);
  EXPECT_DOUBLE_EQ(a.static_ratio, 0.2);
}

TEST(AdversaryRing, FormsOnScheduleAndMarksTheWorld) {
  Params p = small_params();
  p.adversary = "on";
  p.adversary_ring_size = 4;
  p.adversary_ring_at = 3;
  p.adversary_ring_targets = 2;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_adversary(sys, p);
  ASSERT_NE(engine, nullptr);

  engine->advance_to(2);
  EXPECT_TRUE(engine->ring_members().empty());
  EXPECT_EQ(engine->counters().ring_recruits, 0u);

  engine->advance_to(3);
  const auto members = engine->ring_members();
  const auto targets = engine->ring_targets();
  ASSERT_EQ(members.size(), 4u);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(engine->counters().ring_recruits, 4u);
  EXPECT_EQ(engine->counters().ring_targets_marked, 2u);
  for (net::NodeIndex m : members) {
    EXPECT_EQ(sys.truth().behavior(m), trust::Behavior::kBadmouth);
    EXPECT_TRUE(sys.truth().ring_member(m));
  }
  for (net::NodeIndex t : targets) {
    // Bad-mouthing only damages peers with standing to lose.
    EXPECT_TRUE(sys.truth().trustable(t));
    EXPECT_TRUE(sys.truth().ring_target(t));
  }
  // A ring member min-rates targets and ballot-stuffs fellow members in
  // its reports, regardless of what it observed.
  EXPECT_EQ(sys.truth().reported_outcome(members[0], targets[0], 1.0), 0.0);
  EXPECT_EQ(sys.truth().reported_outcome(members[0], members[1], 0.0), 1.0);

  // The §4.2.1 manipulation payload is available once the ring is live.
  const auto lists = engine->ring_recommendations(3);
  ASSERT_EQ(lists.size(), 3u);
  for (const auto& list : lists) EXPECT_FALSE(list.empty());
}

TEST(AdversarySybil, WavesJoinIdentitiesAndCorruptFringeAgents) {
  Params p = small_params();
  p.adversary = "on";
  p.adversary_sybil_count = 3;
  p.adversary_sybil_at = 0;   // first wave at install
  p.adversary_sybil_period = 5;
  p.adversary_sybil_corrupt = 2;
  core::HirepSystem sys(p.hirep_options());
  const std::size_t base_nodes = sys.node_count();
  const auto engine = install_adversary(sys, p);
  ASSERT_NE(engine, nullptr);

  // Install wave: three fresh identities joined the running system as
  // malicious evaluators, and two fringe agents were flipped.
  EXPECT_EQ(sys.node_count(), base_nodes + 3);
  EXPECT_EQ(engine->counters().sybil_joins, 3u);
  EXPECT_EQ(engine->counters().sybil_agent_corruptions, 2u);
  const auto converts = engine->sybil_converts();
  ASSERT_EQ(converts.size(), 5u);
  for (net::NodeIndex v : converts) {
    EXPECT_TRUE(sys.truth().poor_evaluator(v)) << "node " << v;
  }

  engine->advance_to(4);
  EXPECT_EQ(engine->counters().sybil_joins, 3u);  // next wave is at 5
  engine->advance_to(5);
  EXPECT_EQ(engine->counters().sybil_joins, 6u);
  EXPECT_EQ(sys.node_count(), base_nodes + 6);
  engine->advance_to(10);
  EXPECT_EQ(engine->counters().sybil_joins, 9u);
}

TEST(AdversaryWhitewash, RotatesOnCollapseAndHonorsTheCooldown) {
  Params p = small_params();
  p.adversary = "on";
  p.adversary_whitewash_count = 1;
  p.adversary_whitewash_threshold = 0.3;
  p.adversary_whitewash_cooldown = 10;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_adversary(sys, p);
  ASSERT_NE(engine, nullptr);
  const auto washers = engine->whitewashers();
  ASSERT_EQ(washers.size(), 1u);
  const net::NodeIndex peer = washers[0];
  // Whitewashers earn the reputation they shed: untrustable by seed.
  EXPECT_FALSE(sys.truth().trustable(peer));

  // No observation yet: nothing to react to.
  engine->advance_to(12);
  EXPECT_EQ(engine->counters().whitewash_rotations, 0u);

  // The community's estimate collapses; the §3.5 rotation fires on the
  // next tick (hiREP migrates standing, so it counts as a rotation, never
  // a reset).
  engine->observe(peer, 0.1);
  engine->advance_to(13);
  EXPECT_EQ(engine->counters().whitewash_rotations, 1u);
  EXPECT_EQ(engine->counters().whitewash_resets, 0u);

  // A fresh collapse inside the cooldown window must wait it out.
  engine->observe(peer, 0.05);
  engine->advance_to(22);  // last_action=13, cooldown=10: too early
  EXPECT_EQ(engine->counters().whitewash_rotations, 1u);
  engine->advance_to(23);
  EXPECT_EQ(engine->counters().whitewash_rotations, 2u);

  // An estimate at or above the threshold never triggers.
  engine->observe(peer, 0.3);
  engine->advance_to(40);
  EXPECT_EQ(engine->counters().whitewash_rotations, 2u);
}

TEST(AdversaryOscillator, DefectsOnceTrustedThenRecovers) {
  Params p = small_params();
  p.adversary = "on";
  p.adversary_oscillator_count = 1;
  p.adversary_oscillator_on = 0.7;
  p.adversary_oscillator_burst = 5;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_adversary(sys, p);
  ASSERT_NE(engine, nullptr);
  const auto oscillators = engine->oscillators();
  ASSERT_EQ(oscillators.size(), 1u);
  const net::NodeIndex peer = oscillators[0];

  // Opens in the play-nice phase: an untrustable peer serving well.
  EXPECT_FALSE(sys.truth().trustable(peer));
  EXPECT_TRUE(sys.truth().effective_trustable(peer));
  EXPECT_EQ(sys.truth().true_trust(peer), 1.0);

  // Not trusted yet: stays nice.
  engine->observe(peer, 0.5);
  engine->advance_to(1);
  EXPECT_TRUE(sys.truth().effective_trustable(peer));
  EXPECT_EQ(engine->counters().oscillator_defections, 0u);

  // Community trust crosses the trigger: defect for `burst` ticks.
  engine->observe(peer, 0.9);
  engine->advance_to(2);
  EXPECT_FALSE(sys.truth().effective_trustable(peer));
  EXPECT_EQ(engine->counters().oscillator_defections, 1u);
  engine->advance_to(6);  // defect_until = 2 + 5 = 7: still in the burst
  EXPECT_FALSE(sys.truth().effective_trustable(peer));
  engine->advance_to(7);
  EXPECT_TRUE(sys.truth().effective_trustable(peer));
  EXPECT_EQ(engine->counters().oscillator_recoveries, 1u);
}

TEST(AdversaryFronts, ServeHonestlyAndReportDishonestly) {
  Params p = small_params();
  p.adversary = "on";
  p.adversary_front_count = 2;
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_adversary(sys, p);
  ASSERT_NE(engine, nullptr);
  const auto fronts = engine->front_peers();
  ASSERT_EQ(fronts.size(), 2u);
  EXPECT_EQ(engine->counters().front_recruits, 2u);
  for (net::NodeIndex v : fronts) {
    EXPECT_EQ(sys.truth().behavior(v), trust::Behavior::kFront);
    // Honest service…
    EXPECT_TRUE(sys.truth().effective_trustable(v));
    // …dishonest reporting: every report is inverted.
    EXPECT_EQ(sys.truth().reported_outcome(v, 1, 1.0), 0.0);
    EXPECT_EQ(sys.truth().reported_outcome(v, 1, 0.0), 1.0);
  }
}

TEST(AdversaryQuarantine, FailoverLadderEvictsSybilCorruptedAgents) {
  // The §3.4.3 negative guarantee: a sybil identity that has captured
  // fringe agents does not hold its seat forever — once its agents stop
  // answering, the suspicion ladder quarantines exactly them, and re-entry
  // would demand a fresh successful probe.
  Params p = small_params();
  p.adversary = "on";
  p.adversary_sybil_count = 1;
  p.adversary_sybil_corrupt = 4;
  p.suspicion_threshold = 1;  // one failed exchange quarantines
  core::HirepSystem sys(p.hirep_options());
  const auto engine = install_adversary(sys, p);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->counters().sybil_agent_corruptions, 4u);

  // The captured fringe agents go dark (the sybil operator milks them and
  // walks away — the classic hit-and-run).  Only agents some peer actually
  // lists can climb the suspicion ladder, so restrict the assertion to the
  // referenced captures.
  const auto popularity = agent_popularity(sys);
  const auto referenced = [&](net::NodeIndex v) {
    for (const auto& [agent, count] : popularity) {
      if (agent == v) return count > 0;
    }
    return false;
  };
  std::vector<net::NodeIndex> dark;
  std::vector<net::NodeIndex> captured;
  for (net::NodeIndex v : engine->sybil_converts()) {
    if (sys.agent_at(v) == nullptr) continue;
    sys.set_agent_online(v, false);
    dark.push_back(v);
    if (referenced(v)) captured.push_back(v);
  }
  ASSERT_FALSE(captured.empty());
  for (net::NodeIndex v : captured) {
    EXPECT_FALSE(sys.agent_quarantined(v)) << "agent " << v;
  }

  // Every node takes a turn as requestor, so every referenced agent's
  // silence is eventually witnessed.
  std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs;
  for (std::size_t i = 0; i < 512; ++i) {
    const auto requestor = static_cast<net::NodeIndex>(i % 64);
    const auto provider =
        static_cast<net::NodeIndex>((requestor + 1 + (i * 7) % 63) % 64);
    pairs.emplace_back(requestor, provider);
  }
  const std::span<const std::pair<net::NodeIndex, net::NodeIndex>> all(pairs);
  const auto exec = core::Executor::serial();
  const auto all_quarantined = [&] {
    return std::all_of(captured.begin(), captured.end(), [&](net::NodeIndex v) {
      return sys.agent_quarantined(v);
    });
  };
  for (std::size_t i = 0; i < pairs.size() && !all_quarantined(); i += 8) {
    const auto batch =
        sys.run_transactions(all.subspan(i, 8), exec);
    engine->observe_records(batch);
    engine->advance_to(i + 8);
  }
  for (net::NodeIndex v : captured) {
    EXPECT_TRUE(sys.agent_quarantined(v)) << "agent " << v;
  }
  // Only the dark sybil agents earned quarantine; the rest of the
  // community is untouched.
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (sys.agent_at(v) == nullptr || !sys.agent_quarantined(v)) continue;
    EXPECT_NE(std::find(dark.begin(), dark.end(), v), dark.end())
        << "agent " << v << " quarantined without being captured";
  }
  EXPECT_GE(sys.recovery_counters().quarantines, captured.size());
}

TEST(AdversaryReplay, FullCampaignIsBitIdenticalAcrossRunsAndExecutors) {
  // Every strategy armed at once; the engine only acts at batch
  // boundaries, so the same seed must replay byte-identically however the
  // batches execute.
  Params p = small_params();
  p.adversary = "on";
  p.adversary_ring_size = 4;
  p.adversary_ring_at = 8;
  p.adversary_ring_targets = 2;
  p.adversary_sybil_count = 2;
  p.adversary_sybil_at = 16;
  p.adversary_sybil_corrupt = 1;
  p.adversary_whitewash_count = 2;
  p.adversary_whitewash_threshold = 0.4;
  p.adversary_whitewash_cooldown = 4;
  p.adversary_oscillator_count = 2;
  p.adversary_oscillator_on = 0.6;
  p.adversary_oscillator_burst = 4;
  p.adversary_front_count = 2;

  const auto pairs = draw_pairs(48);
  const auto run = [&](const core::Executor& exec) {
    core::HirepSystem sys(p.hirep_options());
    const auto engine = install_adversary(sys, p);
    Records records;
    const std::span<const std::pair<net::NodeIndex, net::NodeIndex>> all(
        pairs);
    for (std::size_t i = 0; i < pairs.size(); i += 8) {
      const auto batch = sys.run_transactions(all.subspan(i, 8), exec);
      records.insert(records.end(), batch.begin(), batch.end());
      engine->observe_records(batch);
      engine->advance_to(i + 8);
    }
    return std::make_pair(std::move(records), engine->counters());
  };

  const auto serial = run(core::Executor::serial());
  const auto serial_again = run(core::Executor::serial());
  const auto sharded3 = run(core::Executor::sharded(3, 2));
  const auto sharded = run(core::Executor::sharded(4));

  expect_records_bit_identical(serial.first, serial_again.first);
  expect_records_bit_identical(serial.first, sharded3.first);
  expect_records_bit_identical(serial.first, sharded.first);
  const auto expect_counters_equal = [](const Adversary::Counters& a,
                                        const Adversary::Counters& b) {
    EXPECT_EQ(a.ring_recruits, b.ring_recruits);
    EXPECT_EQ(a.ring_targets_marked, b.ring_targets_marked);
    EXPECT_EQ(a.sybil_joins, b.sybil_joins);
    EXPECT_EQ(a.sybil_evaluator_corruptions, b.sybil_evaluator_corruptions);
    EXPECT_EQ(a.sybil_agent_corruptions, b.sybil_agent_corruptions);
    EXPECT_EQ(a.whitewash_rotations, b.whitewash_rotations);
    EXPECT_EQ(a.whitewash_resets, b.whitewash_resets);
    EXPECT_EQ(a.oscillator_defections, b.oscillator_defections);
    EXPECT_EQ(a.oscillator_recoveries, b.oscillator_recoveries);
    EXPECT_EQ(a.front_recruits, b.front_recruits);
  };
  expect_counters_equal(serial.second, serial_again.second);
  expect_counters_equal(serial.second, sharded3.second);
  expect_counters_equal(serial.second, sharded.second);
  // The campaign genuinely fired.
  EXPECT_EQ(serial.second.ring_recruits, 4u);
  EXPECT_EQ(serial.second.sybil_joins, 2u);
  EXPECT_EQ(serial.second.front_recruits, 2u);
}

TEST(AdversaryExecution, ScenarioPerformsNoExecutorDowngrade) {
  // Unlike chaos, the adversary never touches the wire, so adversary=on
  // keeps the configured executor.
  Params p = small_params();
  p.execution = "sharded";
  p.adversary = "on";
  EXPECT_EQ(Scenario(p).execution_policy().mode,
            core::ExecutionMode::kSharded);
  p.shards = 4;
  EXPECT_EQ(Scenario(p).execution_policy().mode,
            core::ExecutionMode::kSharded);
}

}  // namespace
}  // namespace hirep::sim
