// SHA-256 (FIPS 180-4) from scratch.  Used as the PRF/KDF underlying the
// hybrid onion-layer cipher and everywhere a modern hash is preferable to
// the paper's SHA-1 nodeId binding.  The compression function is chosen
// once per process (crypto/sha256_kernel.hpp); every kernel gives the
// same digests.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.hpp"

namespace hirep::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  void update(std::span<const std::uint8_t> data);
  void update(const std::string& s);
  Digest finish();

  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(const std::string& s);

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

/// HMAC-SHA256 (RFC 2104) with the key absorbed once: the constructor
/// compresses the ipad and opad blocks into two keyed states, and each
/// mac() starts from copies of them.  A MAC over a message of at most 55
/// bytes then costs two compressions instead of four.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);

  Sha256::Digest mac(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// One-shot HMAC-SHA256 — keys the onion layer's MAC.
Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message);

}  // namespace hirep::crypto
