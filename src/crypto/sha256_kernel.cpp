#include "crypto/sha256_kernel.hpp"

#include <iterator>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HIREP_SHA256_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define HIREP_SHA256_SHANI 0
#endif

namespace hirep::crypto::sha256_kernel {

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int k) noexcept {
  return (x >> k) | (x << (32 - k));
}

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

#if HIREP_SHA256_SHANI

#define HIREP_SHANI_TARGET __attribute__((target("sha,sse4.1")))

// Four rounds (group G of 16) plus the message-schedule work that overlaps
// them.  m[G % 4] holds W[4G..4G+3]; msg2 finishes W for group G+1 and
// msg1 starts it for group G+3, as in Intel's reference sequence.
template <int G>
HIREP_SHANI_TARGET __attribute__((always_inline)) inline void shani_rounds(
    __m128i& abef, __m128i& cdgh, __m128i (&m)[4], const std::uint8_t* block,
    __m128i byte_swap) {
  __m128i& cur = m[G % 4];
  if constexpr (G < 4) {
    cur = _mm_shuffle_epi8(
        _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(block + G * std::size_t{16})),
        byte_swap);
  }
  __m128i wk = _mm_add_epi32(
      cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
               kRoundConstants.data() + G * std::size_t{4})));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if constexpr (G >= 3 && G <= 14) {
    __m128i& next = m[(G + 1) % 4];
    next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(G + 3) % 4], 4));
    next = _mm_sha256msg2_epu32(next, cur);
  }
  wk = _mm_shuffle_epi32(wk, 0x0e);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  if constexpr (G >= 1 && G <= 12) {
    __m128i& prev = m[(G + 3) % 4];
    prev = _mm_sha256msg1_epu32(prev, cur);
  }
}

HIREP_SHANI_TARGET void compress_shani(State& state, const std::uint8_t* blocks,
                                       std::size_t n_blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // rnds2 wants the state split as ABEF / CDGH (high lane first).
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4] = {};
    shani_rounds<0>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<1>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<2>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<3>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<4>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<5>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<6>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<7>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<8>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<9>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<10>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<11>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<12>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<13>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<14>(abef, cdgh, m, blocks, byte_swap);
    shani_rounds<15>(abef, cdgh, m, blocks, byte_swap);
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef HIREP_SHANI_TARGET

// SHA-NI (leaf 7 EBX bit 29) plus the SSSE3 byte shuffle and the SSE4.1
// blend the kernel uses (leaf 1 ECX bits 9 and 19).
bool cpu_has_shani() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

constexpr Kernel kKernels[] = {{"portable", compress_portable},
                               {"sha-ni", compress_shani}};

#else

bool cpu_has_shani() noexcept { return false; }

constexpr Kernel kKernels[] = {{"portable", compress_portable}};

#endif

}  // namespace

void compress_portable(State& state, const std::uint8_t* blocks,
                       std::size_t n_blocks) {
  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

std::span<const Kernel> available() noexcept {
  static const std::span<const Kernel> usable(
      kKernels, cpu_has_shani() ? std::size(kKernels) : 1);
  return usable;
}

const Kernel& active() noexcept { return available().back(); }

}  // namespace hirep::crypto::sha256_kernel
