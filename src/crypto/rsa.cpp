#include "crypto/rsa.hpp"

#include <optional>
#include <stdexcept>

#include "crypto/prime.hpp"
#include "crypto/sha256.hpp"
#include "crypto/stream_cipher.hpp"
#include "obs/metrics.hpp"

namespace hirep::crypto {

namespace {

// Registry-backed op count + latency histogram per RSA primitive.  These
// sit on real RSA paths only, so in crypto=fast runs (which bypass RSA
// entirely) the counters stay 0 — the registry snapshot itself shows the
// fast-vs-full split.  Instrument references resolve once per primitive.
struct RsaOpCells {
  obs::Counter& ops;
  obs::Histogram& latency_ms;
};

#define HIREP_RSA_OP_CELLS(op_name)                                         \
  []() -> RsaOpCells {                                                      \
    auto& reg = obs::Registry::global();                                    \
    return RsaOpCells{reg.counter("crypto.rsa." op_name ".ops"),            \
                      reg.histogram("crypto.rsa." op_name ".ms",            \
                                    obs::latency_buckets_ms())};            \
  }()

}  // namespace

util::Bytes RsaPublicKey::serialize() const {
  util::ByteWriter w;
  const auto nb = n.to_bytes();
  const auto eb = e.to_bytes();
  w.blob(nb);
  w.blob(eb);
  return w.take();
}

RsaPublicKey RsaPublicKey::deserialize(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  RsaPublicKey key;
  key.n = BigInt::from_bytes(r.blob());
  key.e = BigInt::from_bytes(r.blob());
  return key;
}

void RsaPrivateKey::derive_crt() {
  if (p.is_zero() || q.is_zero() || d.is_zero()) return;
  d_p = d % (p - BigInt(1));
  d_q = d % (q - BigInt(1));
  q_inv = BigInt::modinv(q, p);
}

namespace {

// CRT pays only when it shrinks the limb count: for a single-limb modulus
// the halves still occupy one limb each, so Garner's bookkeeping (two
// context lookups, the recombination multiply) costs more than the halved
// exponent saves.  Measured crossover is exactly the limb boundary.
bool crt_profitable(const RsaPrivateKey& key) {
  return key.has_crt() && key.n.bit_length() > 64;
}

// Garner recombination: two half-width exponentiations instead of one
// full-width one — ~4x fewer limb operations per private-key op.
BigInt crt_powmod(const RsaPrivateKey& key, const BigInt& c) {
  if constexpr (obs::kEnabled) {
    obs::Registry::global().counter("crypto.rsa.crt.ops").add();
  }
  BigInt m1 = BigInt::powmod(c % key.p, key.d_p, key.p);
  const BigInt m2 = BigInt::powmod(c % key.q, key.d_q, key.q);
  // h = q_inv * (m1 - m2) mod p, with the subtraction lifted into p's
  // residue ring since BigInt is unsigned.
  const BigInt m2p = m2 < key.p ? m2 : m2 % key.p;
  if (m1 < m2p) m1 = m1 + key.p;
  const BigInt h = BigInt::mulmod(key.q_inv, m1 - m2p, key.p);
  // m = m2 + h*q < q + (p-1)q = pq, so no final reduction is needed.
  return m2 + h * key.q;
}

}  // namespace

RsaKeyPair rsa_generate(util::Rng& rng, unsigned bits) {
  std::optional<obs::ScopedOp> op;
  if constexpr (obs::kEnabled) {
    static RsaOpCells cells = HIREP_RSA_OP_CELLS("generate");
    op.emplace(cells.ops, cells.latency_ms);
  }
  if (bits < 32) throw std::invalid_argument("rsa_generate: bits must be >= 32");
  const unsigned half = bits / 2;
  const BigInt e_preferred(65537);

  for (;;) {
    // For tiny demo moduli 65537 may not be coprime to phi or may exceed it;
    // random_rsa_prime enforces gcd(p-1, e) == 1 against the chosen e.
    const BigInt e = (half > 17) ? e_preferred : BigInt(3);
    const BigInt p = random_rsa_prime(rng, half, e);
    BigInt q = random_rsa_prime(rng, bits - half, e);
    if (p == q) continue;
    const BigInt n = p * q;
    const BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (BigInt::gcd(e, phi) != BigInt(1)) continue;
    const BigInt d = BigInt::modinv(e, phi);
    RsaKeyPair pair;
    pair.priv = RsaPrivateKey{n, e, d, p, q, {}, {}, {}};
    pair.priv.derive_crt();
    pair.pub = pair.priv.public_key();
    return pair;
  }
}

BigInt rsa_encrypt_raw(const RsaPublicKey& key, const BigInt& m) {
  if (m >= key.n) throw std::invalid_argument("rsa message >= modulus");
  return BigInt::powmod(m, key.e, key.n);
}

BigInt rsa_decrypt_raw(const RsaPrivateKey& key, const BigInt& c) {
  if (c >= key.n) throw std::invalid_argument("rsa ciphertext >= modulus");
  if (crt_profitable(key)) return crt_powmod(key, c);
  return BigInt::powmod(c, key.d, key.n);
}

namespace {

// Domain-separated KDF: cipher key (domain 0) and MAC key (domain 1), each
// SHA256(bytes(r) || domain).
StreamCipher::Key kem_key(std::span<const std::uint8_t> r_bytes,
                          std::uint8_t domain) {
  Sha256 h;
  h.update(r_bytes);
  h.update(std::span(&domain, 1));
  return h.finish();
}

constexpr std::size_t kMacBytes = 16;

Sha256::Digest mac_of(std::span<const std::uint8_t> r_bytes,
                      std::span<const std::uint8_t> ct) {
  return hmac_sha256(kem_key(r_bytes, 1), ct);
}

}  // namespace

util::Bytes rsa_encrypt_bytes(util::Rng& rng, const RsaPublicKey& key,
                              std::span<const std::uint8_t> data) {
  std::optional<obs::ScopedOp> op;
  if constexpr (obs::kEnabled) {
    static RsaOpCells cells = HIREP_RSA_OP_CELLS("encrypt");
    op.emplace(cells.ops, cells.latency_ms);
  }
  // KEM: wrap a random r; the symmetric key is SHA256(r).  r >= 2 so the
  // trivial fixed points 0 and 1 never leak the key.
  BigInt r;
  do {
    r = BigInt::random_below(rng, key.n);
  } while (r < BigInt(2));
  const BigInt c0 = rsa_encrypt_raw(key, r);
  const util::Bytes rb = r.to_bytes();

  StreamCipher cipher(kem_key(rb, 0));
  util::Bytes ct(data.begin(), data.end());
  cipher.apply(ct);
  const auto mac = mac_of(rb, ct);

  util::ByteWriter w;
  const auto c0b = c0.to_bytes();
  w.blob(c0b);
  w.blob(ct);
  w.blob(std::span(mac).first(kMacBytes));
  return w.take();
}

std::optional<util::Bytes> rsa_decrypt_bytes(const RsaPrivateKey& key,
                                             std::span<const std::uint8_t> data) {
  std::optional<obs::ScopedOp> op;
  if constexpr (obs::kEnabled) {
    static RsaOpCells cells = HIREP_RSA_OP_CELLS("decrypt");
    op.emplace(cells.ops, cells.latency_ms);
  }
  try {
    util::ByteReader reader(data);
    const auto c0b = reader.blob_view();
    const auto ct_in = reader.blob_view();
    const auto mac = reader.blob_view();
    if (!reader.done()) return std::nullopt;
    const BigInt c0 = BigInt::from_bytes(c0b);
    if (c0 >= key.n) return std::nullopt;
    const util::Bytes rb = rsa_decrypt_raw(key, c0).to_bytes();
    // Authenticate before decrypting: a wrong private key (or tampering)
    // fails here deterministically instead of yielding garbage plaintext.
    const auto expected = mac_of(rb, ct_in);
    if (!util::ct_equal(mac, std::span(expected).first(kMacBytes))) {
      return std::nullopt;
    }
    util::Bytes ct(ct_in.begin(), ct_in.end());
    StreamCipher cipher(kem_key(rb, 0));
    cipher.apply(ct);
    return ct;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

util::Bytes rsa_sign(const RsaPrivateKey& key, std::span<const std::uint8_t> data) {
  std::optional<obs::ScopedOp> op;
  if constexpr (obs::kEnabled) {
    static RsaOpCells cells = HIREP_RSA_OP_CELLS("sign");
    op.emplace(cells.ops, cells.latency_ms);
  }
  const auto digest = Sha256::hash(data);
  const BigInt m = BigInt::from_bytes(digest) % key.n;
  if (crt_profitable(key)) return crt_powmod(key, m).to_bytes();
  return BigInt::powmod(m, key.d, key.n).to_bytes();
}

bool rsa_verify(const RsaPublicKey& key, std::span<const std::uint8_t> data,
                std::span<const std::uint8_t> signature) {
  std::optional<obs::ScopedOp> op;
  if constexpr (obs::kEnabled) {
    static RsaOpCells cells = HIREP_RSA_OP_CELLS("verify");
    op.emplace(cells.ops, cells.latency_ms);
  }
  const BigInt s = BigInt::from_bytes(signature);
  if (s >= key.n) return false;
  const auto digest = Sha256::hash(data);
  const BigInt m = BigInt::from_bytes(digest) % key.n;
  return BigInt::powmod(s, key.e, key.n) == m;
}

}  // namespace hirep::crypto
