// Byte-buffer serialization used by the wire-protocol layers (crypto keys,
// onion payloads, hiREP protocol messages).  Little-endian fixed-width
// integers plus length-prefixed blobs; a reader that throws on truncated
// input so malformed packets are rejected loudly.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace hirep::util {

using Bytes = std::vector<std::uint8_t>;

/// Thrown by ByteReader when a packet is shorter than its framing claims.
class TruncatedInput : public std::runtime_error {
 public:
  TruncatedInput() : std::runtime_error("truncated byte stream") {}
};

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  /// Raw bytes, no framing.
  void raw(std::span<const std::uint8_t> data);
  /// u32 length prefix + bytes.
  void blob(std::span<const std::uint8_t> data);
  void str(const std::string& s);

  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  Bytes raw(std::size_t n);
  Bytes blob();
  /// Like blob(), but views the input instead of copying; the span lives
  /// as long as the buffer the reader was built over.
  std::span<const std::uint8_t> blob_view();
  std::string str();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw TruncatedInput();
  }
  std::span<const std::uint8_t> raw_view(std::size_t n);
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Constant-time equality, as one would use for MACs/nonces.
bool ct_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) noexcept;

/// Lowercase hex rendering (for nodeIds in logs and examples).
std::string to_hex(std::span<const std::uint8_t> data);

/// Inverse of to_hex; throws std::invalid_argument on odd length/non-hex.
Bytes from_hex(const std::string& hex);

}  // namespace hirep::util
