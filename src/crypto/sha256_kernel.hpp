// SHA-256 compression kernels, internal to src/crypto.  A kernel absorbs n
// consecutive 64-byte blocks into the eight-word chaining state, so a
// multi-block update keeps the state in registers across blocks.
//
// Two kernels exist: the portable FIPS 180-4 round loop, and an x86-64
// SHA-NI kernel (`sha256rnds2/msg1/msg2`) compiled in on GCC/Clang and
// usable when cpuid reports SHA, SSSE3 and SSE4.1.  `active()` picks the
// fastest usable one once per process; there is no knob.  Both produce
// identical states for every input — tests call each kernel directly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace hirep::crypto::sha256_kernel {

using State = std::array<std::uint32_t, 8>;
using CompressFn = void (*)(State& state, const std::uint8_t* blocks,
                            std::size_t n_blocks);

struct Kernel {
  const char* name;  ///< "portable" or "sha-ni"
  CompressFn compress;
};

/// The portable round loop; available everywhere.
void compress_portable(State& state, const std::uint8_t* blocks,
                       std::size_t n_blocks);

/// Every kernel this build and this CPU can run, portable first.
std::span<const Kernel> available() noexcept;

/// The kernel Sha256 uses: the last (fastest) entry of available().
const Kernel& active() noexcept;

}  // namespace hirep::crypto::sha256_kernel
