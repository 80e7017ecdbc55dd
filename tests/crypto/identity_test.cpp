#include "crypto/identity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace hirep::crypto {
namespace {

TEST(NodeId, IsHashOfSignatureKey) {
  util::Rng rng(1);
  const auto id = Identity::generate(rng, 96);
  const auto expected = Sha1::hash(id.signature_public().serialize());
  EXPECT_EQ(id.node_id().bytes, expected);
}

TEST(NodeId, DistinctIdentitiesDistinctIds) {
  util::Rng rng(2);
  const auto a = Identity::generate(rng, 96);
  const auto b = Identity::generate(rng, 96);
  EXPECT_NE(a.node_id(), b.node_id());
}

TEST(NodeId, HexRendering) {
  util::Rng rng(3);
  const auto id = Identity::generate(rng, 64);
  EXPECT_EQ(id.node_id().to_hex().size(), 40u);  // 160 bits
  EXPECT_EQ(id.node_id().short_hex(8).size(), 8u + std::string("…").size());
}

TEST(NodeId, OfKeyBindsKey) {
  util::Rng rng(4);
  const auto a = Identity::generate(rng, 96);
  const auto b = Identity::generate(rng, 96);
  EXPECT_EQ(NodeId::of_key(a.signature_public()), a.node_id());
  // An attacker cannot claim a's nodeId with b's key.
  EXPECT_NE(NodeId::of_key(b.signature_public()), a.node_id());
}

// operator== compares machine words; it must agree with byte-wise
// equality everywhere, including ids that differ only at a word's edge.
TEST(NodeId, WordEqualityMatchesBytewise) {
  const auto bytewise = [](const NodeId& a, const NodeId& b) {
    return std::equal(a.bytes.begin(), a.bytes.end(), b.bytes.begin());
  };
  util::Rng rng(10);
  const auto random_id = [&] {
    NodeId id;
    for (auto& b : id.bytes) b = static_cast<std::uint8_t>(rng.below(256));
    return id;
  };
  for (int i = 0; i < 2000; ++i) {
    const NodeId a = random_id();
    // Half the pairs are equal, so both outcomes are exercised.
    const NodeId b = (i % 2 == 0) ? a : random_id();
    EXPECT_EQ(a == b, bytewise(a, b));
    EXPECT_EQ(a != b, !bytewise(a, b));
  }

  NodeId zero, ones;
  ones.bytes.fill(0xff);
  for (const NodeId& base : {zero, ones, random_id()}) {
    EXPECT_TRUE(base == base);
    for (const std::size_t at : {0, 7, 8, 15, 16, 19}) {
      for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
        NodeId other = base;
        other.bytes[at] ^= flip;
        EXPECT_FALSE(base == other) << "byte " << at;
        EXPECT_FALSE(other == base) << "byte " << at;
        EXPECT_EQ(base == other, bytewise(base, other));
      }
    }
  }
  EXPECT_FALSE(zero == ones);
}

// Ordered users (discovery's candidate map) rely on <=> staying byte-wise
// lexicographic.
TEST(NodeId, OrderingIsLexicographic) {
  util::Rng rng(11);
  std::vector<NodeId> ids(16);
  for (auto& id : ids) {
    for (auto& b : id.bytes) b = static_cast<std::uint8_t>(rng.below(4));
  }
  // Variants of one id that first differ at every position, including the
  // word boundaries, in both directions.
  const NodeId base = ids[0];
  for (std::size_t at = 0; at < base.bytes.size(); ++at) {
    for (const std::uint8_t v : {0x00, 0x80, 0xff}) {
      NodeId id = base;
      id.bytes[at] = v;
      ids.push_back(id);
    }
  }
  for (const NodeId& a : ids) {
    for (const NodeId& b : ids) {
      const bool lex = std::lexicographical_compare(
          a.bytes.begin(), a.bytes.end(), b.bytes.begin(), b.bytes.end());
      EXPECT_EQ(a < b, lex);
      EXPECT_EQ((a <=> b) == 0, a == b);
    }
  }
}

TEST(NodeIdHash, UsableInUnorderedContainers) {
  util::Rng rng(5);
  const auto a = Identity::generate(rng, 64);
  NodeIdHash h;
  EXPECT_EQ(h(a.node_id()), h(a.node_id()));
}

TEST(Identity, SignVerifyOwn) {
  util::Rng rng(6);
  const auto id = Identity::generate(rng, 128);
  const util::Bytes msg{1, 2, 3};
  const auto sig = id.sign(msg);
  EXPECT_TRUE(id.verify_own(msg, sig));
  EXPECT_FALSE(id.verify_own(util::Bytes{1, 2, 4}, sig));
}

TEST(Identity, AnonymityAndSignatureKeysDiffer) {
  util::Rng rng(7);
  const auto id = Identity::generate(rng, 96);
  EXPECT_NE(id.signature_public(), id.anonymity_public());
}

TEST(Identity, RotationProducesVerifiableAnnouncement) {
  util::Rng rng(8);
  auto id = Identity::generate(rng, 96);
  const auto old_key = id.signature_public();
  const auto old_id = id.node_id();

  const auto ann = id.rotate_signature_key(rng, 96);
  EXPECT_EQ(ann.old_id, old_id);
  EXPECT_TRUE(Identity::verify_rotation(old_key, ann));
  // The identity has moved to the new key.
  EXPECT_EQ(id.node_id(), NodeId::of_key(ann.new_signature_public));
  EXPECT_NE(id.node_id(), old_id);
}

TEST(Identity, RotationForgedByOtherKeyRejected) {
  util::Rng rng(9);
  auto victim = Identity::generate(rng, 96);
  auto attacker = Identity::generate(rng, 96);
  // Attacker crafts an announcement claiming the victim rotates to the
  // attacker's key — but can only sign with its own SR.
  Identity::RotationAnnouncement forged;
  forged.old_id = victim.node_id();
  forged.new_signature_public = attacker.signature_public();
  forged.signature = attacker.sign(attacker.signature_public().serialize());
  EXPECT_FALSE(Identity::verify_rotation(victim.signature_public(), forged));
}

TEST(Identity, RotationAnnouncementSerializationRoundTrip) {
  util::Rng rng(10);
  auto id = Identity::generate(rng, 96);
  const auto old_key = id.signature_public();
  const auto ann = id.rotate_signature_key(rng, 96);
  const auto bytes = ann.serialize();
  const auto restored = Identity::RotationAnnouncement::deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->old_id, ann.old_id);
  EXPECT_EQ(restored->new_signature_public, ann.new_signature_public);
  EXPECT_TRUE(Identity::verify_rotation(old_key, *restored));
}

TEST(Identity, RotationDeserializeRejectsGarbage) {
  EXPECT_FALSE(Identity::RotationAnnouncement::deserialize(util::Bytes{1, 2})
                   .has_value());
}

TEST(Identity, ChainedRotations) {
  util::Rng rng(11);
  auto id = Identity::generate(rng, 96);
  auto key0 = id.signature_public();
  const auto ann1 = id.rotate_signature_key(rng, 96);
  auto key1 = id.signature_public();
  const auto ann2 = id.rotate_signature_key(rng, 96);
  // Each link verifies against its predecessor's key.
  EXPECT_TRUE(Identity::verify_rotation(key0, ann1));
  EXPECT_TRUE(Identity::verify_rotation(key1, ann2));
  // But not across links.
  EXPECT_FALSE(Identity::verify_rotation(key0, ann2));
}

}  // namespace
}  // namespace hirep::crypto
