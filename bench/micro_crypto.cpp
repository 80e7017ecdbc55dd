// Micro-benchmarks for the crypto substrate: hashes, RSA primitives,
// hybrid encryption, and onion build/peel — the per-message costs behind
// the full-crypto simulation mode.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "crypto/prime.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernel.hpp"
#include "crypto/stream_cipher.hpp"
#include "onion/onion.hpp"

namespace {

using namespace hirep;

util::Bytes random_bytes(util::Rng& rng, std::size_t n) {
  util::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

void BM_Sha1(benchmark::State& state) {
  util::Rng rng(1);
  const auto data = random_bytes(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha256(benchmark::State& state) {
  util::Rng rng(2);
  const auto data = random_bytes(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

// One 64-byte compression per iteration through one kernel; registered
// once per kernel this CPU can run, labelled with the kernel's name.
void BM_Sha256Compress(benchmark::State& state,
                       const crypto::sha256_kernel::Kernel& kernel) {
  util::Rng rng(2);
  const auto block = random_bytes(rng, 64);
  crypto::sha256_kernel::State h{};
  for (auto _ : state) {
    kernel.compress(h, block.data(), 1);
    benchmark::DoNotOptimize(h);
  }
  state.SetLabel(kernel.name);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
const bool kSha256CompressRegistered = [] {
  for (const auto& kernel : crypto::sha256_kernel::available()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Sha256Compress/") + kernel.name).c_str(),
        BM_Sha256Compress, kernel);
  }
  return true;
}();

void BM_HmacSha256(benchmark::State& state) {
  util::Rng rng(3);
  const auto key = random_bytes(rng, 32);
  const auto msg = random_bytes(rng, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, msg));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_StreamCipher(benchmark::State& state) {
  util::Rng rng(4);
  crypto::StreamCipher::Key key{};
  auto data = random_bytes(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::StreamCipher cipher(key, 7);
    cipher.apply(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StreamCipher)->Arg(1024)->Arg(16384);

void BM_RsaKeygen(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::rsa_generate(rng, static_cast<unsigned>(state.range(0))));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_RsaSign(benchmark::State& state) {
  util::Rng rng(6);
  const auto pair = crypto::rsa_generate(rng, static_cast<unsigned>(state.range(0)));
  const auto msg = random_bytes(rng, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign(pair.priv, msg));
  }
  state.SetItemsProcessed(state.iterations());  // signatures per second
}
BENCHMARK(BM_RsaSign)->Arg(64)->Arg(128)->Arg(256);

// CRT-off exhibit: the same seeded key as BM_RsaSign with its CRT residues
// stripped, so the pair of rows isolates the Garner two-half-exponentiation
// win from everything else (same primes, same digest, same codec).
void BM_RsaSignNoCrt(benchmark::State& state) {
  util::Rng rng(6);
  auto pair = crypto::rsa_generate(rng, static_cast<unsigned>(state.range(0)));
  pair.priv.d_p = crypto::BigInt();
  pair.priv.d_q = crypto::BigInt();
  pair.priv.q_inv = crypto::BigInt();
  const auto msg = random_bytes(rng, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign(pair.priv, msg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RsaSignNoCrt)->Arg(64)->Arg(128)->Arg(256);

void BM_RsaVerify(benchmark::State& state) {
  util::Rng rng(7);
  const auto pair = crypto::rsa_generate(rng, static_cast<unsigned>(state.range(0)));
  const auto msg = random_bytes(rng, 64);
  const auto sig = crypto::rsa_sign(pair.priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_verify(pair.pub, msg, sig));
  }
  state.SetItemsProcessed(state.iterations());  // verifications per second
}
BENCHMARK(BM_RsaVerify)->Arg(64)->Arg(128)->Arg(256);

void BM_RsaHybridEncrypt(benchmark::State& state) {
  util::Rng rng(8);
  const auto pair = crypto::rsa_generate(rng, 128);
  const auto msg = random_bytes(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_encrypt_bytes(rng, pair.pub, msg));
  }
}
BENCHMARK(BM_RsaHybridEncrypt)->Arg(64)->Arg(1024);

// Onion exhibits at two key sizes: 64 bits is Params::rsa_bits' default
// (what the simulations mint), 128 bits the earlier exhibits' size.
struct Circuit {
  crypto::Identity owner;
  std::vector<crypto::Identity> relay_ids;
  std::vector<onion::RelayInfo> relays;
};

Circuit make_circuit(util::Rng& rng, unsigned bits, std::int64_t hops) {
  Circuit c{crypto::Identity::generate(rng, bits), {}, {}};
  for (std::int64_t i = 0; i < hops; ++i) {
    c.relay_ids.push_back(crypto::Identity::generate(rng, bits));
    c.relays.push_back({static_cast<net::NodeIndex>(i + 1),
                        c.relay_ids.back().anonymity_public()});
  }
  return c;
}

void BM_OnionBuild(benchmark::State& state, unsigned bits) {
  util::Rng rng(9);
  const Circuit c = make_circuit(rng, bits, state.range(0));
  std::uint64_t sq = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(onion::build_onion(rng, c.owner, 0, c.relays, sq++));
  }
}
BENCHMARK_CAPTURE(BM_OnionBuild, rsa64, 64u)->Arg(3)->Arg(5)->Arg(10);
BENCHMARK_CAPTURE(BM_OnionBuild, rsa128, 128u)->Arg(3)->Arg(5)->Arg(10);

void BM_OnionPeelFullCircuit(benchmark::State& state, unsigned bits) {
  util::Rng rng(10);
  const Circuit c = make_circuit(rng, bits, state.range(0));
  const auto onion = onion::build_onion(rng, c.owner, 0, c.relays, 1);
  for (auto _ : state) {
    util::Bytes blob = onion.blob;
    for (std::size_t i = c.relay_ids.size(); i-- > 0;) {
      auto peeled = onion::peel(blob, c.relay_ids[i].anonymity_private());
      blob = std::move(peeled->inner);
    }
    benchmark::DoNotOptimize(onion::peel(blob, c.owner.anonymity_private()));
  }
}
BENCHMARK_CAPTURE(BM_OnionPeelFullCircuit, rsa64, 64u)->Arg(3)->Arg(5)->Arg(10);
BENCHMARK_CAPTURE(BM_OnionPeelFullCircuit, rsa128, 128u)->Arg(3)->Arg(5)->Arg(10);

void BM_BigIntMul(benchmark::State& state) {
  util::Rng rng(11);
  const auto a = crypto::BigInt::random_bits(rng, static_cast<unsigned>(state.range(0)));
  const auto b = crypto::BigInt::random_bits(rng, static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(128)->Arg(512)->Arg(2048);

void BM_BigIntPowmod(benchmark::State& state) {
  util::Rng rng(12);
  const auto bits = static_cast<unsigned>(state.range(0));
  const auto m = crypto::BigInt::random_bits(rng, bits);
  const auto base = crypto::BigInt::random_below(rng, m);
  const auto exp = crypto::BigInt::random_bits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigInt::powmod(base, exp, m));
  }
}
BENCHMARK(BM_BigIntPowmod)->Arg(64)->Arg(128)->Arg(256);

void BM_MillerRabin(benchmark::State& state) {
  util::Rng rng(13);
  const auto p = crypto::random_prime(rng, static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::is_probable_prime(p, rng, 8));
  }
}
BENCHMARK(BM_MillerRabin)->Arg(32)->Arg(64)->Arg(128);

}  // namespace
