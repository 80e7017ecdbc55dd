#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "crypto/sha256_kernel.hpp"

namespace hirep::crypto {

namespace {

// Big-endian 32-bit store.  It compiles to one byte swap and one 4-byte
// store, which the kernel's 16-byte loads can forward from; byte-at-a-time
// stores stall them.
void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = (v >> 24) | ((v >> 8) & 0xff00u) | ((v << 8) & 0xff0000u) | (v << 24);
  }
  std::memcpy(p, &v, sizeof(v));
}

void compress(sha256_kernel::State& state, const std::uint8_t* blocks,
              std::size_t n_blocks) {
  static const sha256_kernel::CompressFn kernel =
      sha256_kernel::active().compress;
  kernel(state, blocks, n_blocks);
}

}  // namespace

Sha256::Sha256()
    : h_{0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
         0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u} {}

void Sha256::update(std::span<const std::uint8_t> data) {
  assert(!finished_);
  // An empty span may carry a null data(); memcpy from it is undefined
  // even for zero bytes.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ < kBlockSize) return;
    compress(h_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t blocks = (data.size() - offset) / kBlockSize;
  if (blocks > 0) {
    compress(h_, data.data() + offset, blocks);
    offset += blocks * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::update(const std::string& s) {
  update(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Sha256::Digest Sha256::finish() {
  assert(!finished_);
  finished_ = true;
  // Pad in place: 0x80, zeros to 56 mod 64, then the bit length big-endian.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    compress(h_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  const std::uint64_t bit_len = total_len_ * 8;
  store_be32(buffer_.data() + kBlockSize - 8, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(buffer_.data() + kBlockSize - 4, static_cast<std::uint32_t>(bit_len));
  compress(h_, buffer_.data(), 1);

  Digest out;
  for (std::size_t i = 0; i < h_.size(); ++i) store_be32(out.data() + 4 * i, h_[i]);
  return out;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 s;
  s.update(data);
  return s.finish();
}

Sha256::Digest Sha256::hash(const std::string& s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, Sha256::kBlockSize> block{};
  if (key.size() > block.size()) {
    const auto digest = Sha256::hash(key);
    std::memcpy(block.data(), digest.data(), digest.size());
  } else if (!key.empty()) {  // an empty key's data() may be null
    std::memcpy(block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, Sha256::kBlockSize> ipad, opad;
  for (std::size_t i = 0; i < block.size(); ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Sha256::Digest HmacSha256::mac(std::span<const std::uint8_t> message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const auto inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finish();
}

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message) {
  return HmacSha256(key).mac(message);
}

}  // namespace hirep::crypto
