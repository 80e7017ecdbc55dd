// Fixture header: the unordered member container is declared here, not in
// the .cpp that loops over it.  hirep-lint resolves a TU's member names
// through its same-stem header, so bad_unordered_member.cpp is flagged.
#pragma once

#include <cstdint>
#include <unordered_map>

struct FakeRng {
  std::uint64_t below(std::uint64_t bound) { return bound - 1; }
};

class Ledger {
 public:
  std::uint64_t pick(FakeRng& rng);

 private:
  std::unordered_map<std::uint32_t, std::uint64_t> weights_;
};
