#include "crypto/stream_cipher.hpp"

#include <algorithm>

namespace hirep::crypto {

StreamCipher::StreamCipher(const Key& key, std::uint64_t nonce)
    : prf_(key), nonce_(nonce) {}

void StreamCipher::refill() {
  // block = HMAC(key, u64le(nonce) || u64le(counter)); HMAC as PRF in
  // counter mode.  The layout is ByteWriter::u64's, built on the stack.
  std::array<std::uint8_t, 16> msg{};
  for (int i = 0; i < 8; ++i) {
    msg[i] = static_cast<std::uint8_t>(nonce_ >> (8 * i));
    msg[8 + i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
  }
  ++counter_;
  block_ = prf_.mac(msg);
  block_used_ = 0;
}

void StreamCipher::apply(std::span<std::uint8_t> data) {
  while (!data.empty()) {
    if (block_used_ == block_.size()) refill();
    const std::size_t n = std::min(data.size(), block_.size() - block_used_);
    for (std::size_t i = 0; i < n; ++i) data[i] ^= block_[block_used_ + i];
    block_used_ += n;
    data = data.subspan(n);
  }
}

util::Bytes StreamCipher::transform(std::span<const std::uint8_t> data) {
  util::Bytes out(data.begin(), data.end());
  apply(out);
  return out;
}

}  // namespace hirep::crypto
