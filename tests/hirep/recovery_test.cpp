// §3.4.3 failover hardening: the suspicion ladder shared across
// requestors, quarantine entry and its probe-only exit, the backup-cache
// promotion path, and graceful degradation to first-hand trust under a
// live-rating quorum.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "hirep/system.hpp"

namespace hirep::core {
namespace {

HirepOptions small_options() {
  HirepOptions o;
  o.nodes = 64;
  o.rsa_bits = 64;
  o.trusted_agents = 5;
  o.onion_relays = 3;
  o.crypto = CryptoMode::kFast;
  o.seed = 11;
  o.world.malicious_ratio = 0.0;
  return o;
}

/// Peers whose trusted list holds `agent_id` (excluding the agent itself).
std::vector<net::NodeIndex> requestors_of(HirepSystem& sys,
                                          const crypto::NodeId& agent_id) {
  std::vector<net::NodeIndex> out;
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (sys.peer(v).node_id() == agent_id) continue;
    if (sys.peer(v).agents().contains(agent_id)) out.push_back(v);
  }
  return out;
}

/// An agent listed by at least `min_requestors` distinct peers, with its
/// overlay index and those peers.
struct SharedAgent {
  crypto::NodeId id;
  net::NodeIndex ip = net::kInvalidNode;
  std::vector<net::NodeIndex> requestors;
};
SharedAgent find_shared_agent(HirepSystem& sys, std::size_t min_requestors) {
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    for (const auto& entry : sys.peer(v).agents().entries()) {
      auto reqs = requestors_of(sys, entry.agent_id);
      if (reqs.size() >= min_requestors) {
        return {entry.agent_id, *sys.ip_of(entry.agent_id), std::move(reqs)};
      }
    }
  }
  return {};
}

net::NodeIndex subject_other_than(const HirepSystem& sys, net::NodeIndex a,
                                  net::NodeIndex b) {
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (v != a && v != b) return v;
  }
  return net::kInvalidNode;
}

TEST(Recovery, SharedSuspicionCrossesTheThresholdAndQuarantines) {
  HirepOptions o = small_options();
  o.recovery.suspicion_threshold = 2;
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 2);
  ASSERT_NE(shared.ip, net::kInvalidNode);

  sys.set_agent_online(shared.ip, false);
  const auto subject = subject_other_than(sys, shared.requestors[0], shared.ip);
  sys.query_trust(shared.requestors[0], subject);
  EXPECT_FALSE(sys.agent_quarantined(shared.ip));  // one strike, not two
  EXPECT_GE(sys.recovery_counters().suspicions, 1u);

  // A second requestor's failed exchange crosses the shared threshold.
  sys.query_trust(shared.requestors[1],
                  subject_other_than(sys, shared.requestors[1], shared.ip));
  EXPECT_TRUE(sys.agent_quarantined(shared.ip));
  EXPECT_GE(sys.recovery_counters().quarantines, 1u);
}

TEST(Recovery, SuccessfulExchangeResetsTheSuspicionLadder) {
  HirepOptions o = small_options();
  o.recovery.suspicion_threshold = 2;
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 3);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  ASSERT_GE(shared.requestors.size(), 3u);

  // Strike one while the agent is down...
  sys.set_agent_online(shared.ip, false);
  sys.query_trust(shared.requestors[0],
                  subject_other_than(sys, shared.requestors[0], shared.ip));
  ASSERT_FALSE(sys.agent_quarantined(shared.ip));

  // ...then a successful exchange wipes the ladder clean...
  sys.set_agent_online(shared.ip, true);
  sys.query_trust(shared.requestors[1],
                  subject_other_than(sys, shared.requestors[1], shared.ip));

  // ...so a later single failure is strike one again, not strike two.
  sys.set_agent_online(shared.ip, false);
  sys.query_trust(shared.requestors[2],
                  subject_other_than(sys, shared.requestors[2], shared.ip));
  EXPECT_FALSE(sys.agent_quarantined(shared.ip));
}

TEST(Recovery, QuarantinedAgentIsNeverContacted) {
  HirepSystem sys(small_options());
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];
  const std::size_t listed = sys.peer(r).agents().size();
  ASSERT_GE(listed, 1u);

  sys.quarantine_agent(shared.ip);  // agent itself stays online
  const auto before =
      sys.transport().envelopes().of(net::EnvelopeType::kTrustRequest).sent;
  const auto result =
      sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  const auto after =
      sys.transport().envelopes().of(net::EnvelopeType::kTrustRequest).sent;

  // The community has given up: no request even leaves the requestor for
  // the quarantined agent, while every other listed agent is still asked.
  EXPECT_EQ(after - before, listed - 1);
  EXPECT_EQ(result.ratings.size(), listed - 1);
}

class QuarantineSkip : public ::testing::TestWithParam<CryptoMode> {};

TEST_P(QuarantineSkip, SkippedAgentLeavesOtherAgentsSqsAlone) {
  // Skipping a quarantined agent must not shift the onion sqs the other
  // listed agents issue: the same transaction as a one-pair batch and as
  // a run_transaction call leaves every held onion at the same sq, and
  // the §3.3 monotonicity checks stay silent.
  HirepOptions o = small_options();
  o.crypto = GetParam();
  HirepSystem batched(o);
  HirepSystem single(o);
  net::NodeIndex r = net::kInvalidNode;
  for (net::NodeIndex v = 0; v < batched.node_count(); ++v) {
    if (batched.peer(v).agents().size() >= 3) {
      r = v;
      break;
    }
  }
  ASSERT_NE(r, net::kInvalidNode);
  const auto first =
      *batched.ip_of(batched.peer(r).agents().entries().front().agent_id);
  ASSERT_TRUE(batched.agent_online(first));
  batched.quarantine_agent(first);  // agent itself stays online
  single.quarantine_agent(first);
  const auto p = subject_other_than(batched, r, first);

  const std::size_t violations = check::violation_count();
  const std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs{{r, p}};
  batched.run_transactions(pairs);
  single.run_transaction(r, p);
  EXPECT_EQ(check::violation_count(), violations);

  for (net::NodeIndex v = 0; v < batched.node_count(); ++v) {
    const auto& a = batched.peer(v).agents().entries();
    const auto& b = single.peer(v).agents().entries();
    ASSERT_EQ(a.size(), b.size()) << "peer " << v;
    for (std::size_t k = 0; k < a.size(); ++k) {
      SCOPED_TRACE("peer " + std::to_string(v) + " entry " +
                   std::to_string(k));
      EXPECT_EQ(a[k].agent_id, b[k].agent_id);
      EXPECT_EQ(a[k].onion.sq, b[k].onion.sq);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Crypto, QuarantineSkip,
    ::testing::Values(CryptoMode::kFast, CryptoMode::kFull),
    [](const ::testing::TestParamInfo<CryptoMode>& info) {
      return info.param == CryptoMode::kFast ? std::string("fast")
                                             : std::string("full");
    });

TEST(Recovery, QuarantineSurvivesRestartUntilProbed) {
  HirepOptions o = small_options();
  o.recovery.suspicion_threshold = 1;
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];

  sys.set_agent_online(shared.ip, false);
  sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  ASSERT_TRUE(sys.agent_quarantined(shared.ip));
  ASSERT_FALSE(sys.peer(r).agents().contains(shared.id));

  // Refill while the agent is still dark: the probe reaches the node but
  // finds no live agent, so the quarantine stands and the list refills
  // from discovery — which must skip the quarantined agent (the
  // hirep.quarantine.fresh_probe gate stays silent throughout).
  check::ScopedCapture capture;
  sys.refill(r);
  EXPECT_TRUE(sys.agent_quarantined(shared.ip));
  EXPECT_FALSE(sys.peer(r).agents().contains(shared.id));
  EXPECT_EQ(capture.count(), 0u);

  // A bare restart is not fresh evidence either: still quarantined.
  sys.set_agent_online(shared.ip, true);
  EXPECT_TRUE(sys.agent_quarantined(shared.ip));
}

TEST(Recovery, FreshProbeLiftsQuarantineAndPromotesTheBackup) {
  HirepOptions o = small_options();
  o.recovery.suspicion_threshold = 1;
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];

  sys.set_agent_online(shared.ip, false);
  sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  ASSERT_TRUE(sys.agent_quarantined(shared.ip));
  ASSERT_GE(sys.peer(r).agents().backup_size(), 1u);

  sys.set_agent_online(shared.ip, true);
  check::ScopedCapture capture;
  sys.refill(r);
  // The delivered probe to the live agent is exactly the fresh evidence
  // that lifts the quarantine and readmits the backup entry.
  EXPECT_FALSE(sys.agent_quarantined(shared.ip));
  EXPECT_TRUE(sys.peer(r).agents().contains(shared.id));
  EXPECT_GE(sys.recovery_counters().probations_cleared, 1u);
  EXPECT_GE(sys.recovery_counters().backup_promotions, 1u);
  EXPECT_EQ(capture.count(), 0u);  // probe-backed admission passes the gate
}

TEST(Recovery, BelowQuorumQueryDegradesToFirstHandTrust) {
  HirepOptions o = small_options();
  o.recovery.min_quorum = o.nodes;  // unreachable: every query degrades
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];

  const auto result = sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  EXPECT_TRUE(result.degraded);
  EXPECT_GE(sys.recovery_counters().degraded_queries, 1u);
  EXPECT_GE(result.estimate, 0.0);
  EXPECT_LE(result.estimate, 1.0);
}

TEST(Recovery, QuorumZeroDisablesDegradation) {
  HirepSystem sys(small_options());  // min_quorum defaults to 0
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];

  // Even a total blackout produces an undegraded (neutral) estimate.
  for (const auto& entry : sys.peer(r).agents().entries()) {
    sys.set_agent_online(*sys.ip_of(entry.agent_id), false);
  }
  const auto result = sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  EXPECT_TRUE(result.ratings.empty());
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(sys.recovery_counters().degraded_queries, 0u);
}

TEST(Recovery, QuarantineHookValidatesAndCountsOnce) {
  HirepSystem sys(small_options());
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);

  sys.quarantine_agent(shared.ip);
  sys.quarantine_agent(shared.ip);  // idempotent: one tally
  EXPECT_TRUE(sys.agent_quarantined(shared.ip));
  EXPECT_EQ(sys.recovery_counters().quarantines, 1u);

  // Non-agent nodes are rejected outright.
  net::NodeIndex non_agent = net::kInvalidNode;
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (sys.agent_at(v) == nullptr) {
      non_agent = v;
      break;
    }
  }
  ASSERT_NE(non_agent, net::kInvalidNode);
  EXPECT_THROW(sys.quarantine_agent(non_agent), std::invalid_argument);
}

}  // namespace
}  // namespace hirep::core
