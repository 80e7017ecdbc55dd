#include "crypto/identity.hpp"

#include "check/invariants.hpp"
#include "crypto/verify_cache.hpp"
#include "util/bytes.hpp"

namespace hirep::crypto {

std::string NodeId::to_hex() const { return util::to_hex(bytes); }

std::string NodeId::short_hex(std::size_t nibbles) const {
  auto hex = to_hex();
  if (hex.size() > nibbles) hex.resize(nibbles);
  return hex + "…";
}

NodeId NodeId::of_key(const RsaPublicKey& signature_public_key) {
  NodeId id;
  id.bytes = Sha1::hash(signature_public_key.serialize());
  return id;
}

Identity Identity::generate(util::Rng& rng, unsigned bits) {
  Identity id;
  id.signature_ = rsa_generate(rng, bits);
  id.anonymity_ = rsa_generate(rng, bits);
  id.node_id_ = NodeId::of_key(id.signature_.pub);
  if constexpr (check::kEnabled) {
    check::binding("crypto.identity.binding",
                   NodeId::of_key(id.signature_.pub) == id.node_id_,
                   NodeIdHash{}(id.node_id_));
  }
  return id;
}

util::Bytes Identity::sign(std::span<const std::uint8_t> data) const {
  return rsa_sign(signature_.priv, data);
}

bool Identity::verify_own(std::span<const std::uint8_t> data,
                          std::span<const std::uint8_t> sig) const {
  return rsa_verify(signature_.pub, data, sig);
}

util::Bytes Identity::RotationAnnouncement::serialize() const {
  util::ByteWriter w;
  w.raw(old_id.bytes);
  w.blob(new_signature_public.serialize());
  w.blob(signature);
  return w.take();
}

std::optional<Identity::RotationAnnouncement>
Identity::RotationAnnouncement::deserialize(std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    RotationAnnouncement ann;
    const auto idb = r.raw(Sha1::kDigestSize);
    std::copy(idb.begin(), idb.end(), ann.old_id.bytes.begin());
    ann.new_signature_public = RsaPublicKey::deserialize(r.blob());
    ann.signature = r.blob();
    if (!r.done()) return std::nullopt;
    return ann;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

Identity::RotationAnnouncement Identity::rotate_signature_key(util::Rng& rng,
                                                              unsigned bits) {
  const RsaKeyPair next = rsa_generate(rng, bits);
  RotationAnnouncement ann;
  ann.old_id = node_id_;
  ann.new_signature_public = next.pub;
  ann.signature = rsa_sign(signature_.priv, next.pub.serialize());
  signature_ = next;
  node_id_ = NodeId::of_key(signature_.pub);
  if constexpr (check::kEnabled) {
    check::binding("crypto.identity.binding",
                   NodeId::of_key(signature_.pub) == node_id_,
                   NodeIdHash{}(node_id_));
  }
  return ann;
}

bool Identity::verify_rotation(const RsaPublicKey& old_key,
                               const RotationAnnouncement& ann) {
  // The announcement must (a) name the id derived from the old key and
  // (b) carry a valid old-key signature over the new key.
  if (node_id_of_cached(old_key) != ann.old_id) return false;
  return verify_cached(old_key, ann.new_signature_public.serialize(),
                       ann.signature);
}

}  // namespace hirep::crypto
