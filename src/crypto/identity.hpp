// Peer identity layer (§3.3): every peer owns a signature key pair (SP, SR)
// and an anonymity key pair (AP, AR).  The self-certifying identifier is
//
//     nodeId = SHA-1(serialize(SP))
//
// which binds the public signature key to the identifier without any
// third-party certificate authority: an attacker cannot substitute its own
// key under an existing nodeId without inverting the hash.
//
// Key rotation (§3.5, "allowing peers to update their public key pair
// periodically") is supported: a rotation announcement carries the new SP
// signed by the *current* SR, so receivers can migrate the mapping
// old-nodeId → new-nodeId.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "crypto/rsa.hpp"
#include "crypto/sha1.hpp"
#include "util/rng.hpp"

namespace hirep::crypto {

/// 160-bit self-certifying peer identifier.
struct NodeId {
  std::array<std::uint8_t, Sha1::kDigestSize> bytes{};

  /// Two u64 words and one u32: ids are compared on every agent lookup,
  /// and a 20-byte memcmp call costs more than the three loads.
  bool operator==(const NodeId& other) const noexcept {
    std::uint64_t a[2] = {}, b[2] = {};
    std::uint32_t c = 0, d = 0;
    std::memcpy(a, bytes.data(), sizeof(a));
    std::memcpy(b, other.bytes.data(), sizeof(b));
    std::memcpy(&c, bytes.data() + sizeof(a), sizeof(c));
    std::memcpy(&d, other.bytes.data() + sizeof(b), sizeof(d));
    return ((a[0] ^ b[0]) | (a[1] ^ b[1]) | (c ^ d)) == 0;
  }
  auto operator<=>(const NodeId&) const = default;
  std::string to_hex() const;
  /// Short prefix for logs ("a3f09c…").
  std::string short_hex(std::size_t nibbles = 8) const;

  static NodeId of_key(const RsaPublicKey& signature_public_key);
};
static_assert(sizeof(NodeId) == 2 * sizeof(std::uint64_t) + sizeof(std::uint32_t));

struct NodeIdHash {
  std::size_t operator()(const NodeId& id) const noexcept {
    // The id is already a cryptographic hash; fold the first 8 bytes.
    std::uint64_t v = 0;
    std::memcpy(&v, id.bytes.data(), sizeof(v));
    return static_cast<std::size_t>(v);
  }
};

/// A peer's complete cryptographic identity.
class Identity {
 public:
  /// Generates both key pairs. `bits` is the RSA modulus size.
  static Identity generate(util::Rng& rng, unsigned bits);

  const NodeId& node_id() const noexcept { return node_id_; }
  const RsaPublicKey& signature_public() const noexcept { return signature_.pub; }
  const RsaPrivateKey& signature_private() const noexcept { return signature_.priv; }
  const RsaPublicKey& anonymity_public() const noexcept { return anonymity_.pub; }
  const RsaPrivateKey& anonymity_private() const noexcept { return anonymity_.priv; }

  util::Bytes sign(std::span<const std::uint8_t> data) const;
  bool verify_own(std::span<const std::uint8_t> data,
                  std::span<const std::uint8_t> sig) const;

  /// Key rotation: produce an announcement {new SP, signature under old SR},
  /// then adopt the new pair.  Returns the announcement.
  struct RotationAnnouncement {
    NodeId old_id;
    RsaPublicKey new_signature_public;
    util::Bytes signature;  ///< old SR over serialize(new SP)

    util::Bytes serialize() const;
    static std::optional<RotationAnnouncement> deserialize(
        std::span<const std::uint8_t> data);
  };
  RotationAnnouncement rotate_signature_key(util::Rng& rng, unsigned bits);

  /// Verifies that `ann` legitimately migrates `old_key`'s identity.
  static bool verify_rotation(const RsaPublicKey& old_key,
                              const RotationAnnouncement& ann);

 private:
  Identity() = default;
  RsaKeyPair signature_;
  RsaKeyPair anonymity_;
  NodeId node_id_;
};

}  // namespace hirep::crypto
