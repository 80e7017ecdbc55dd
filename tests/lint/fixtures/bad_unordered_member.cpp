// Fixture: iterates a member unordered_map declared in the companion
// header and draws from an RNG inside the loop body.  hirep-lint must flag
// the loop (rule: unordered-iteration): bucket order decides which entry
// consumes which draw, so the stream alignment would depend on the
// standard library and the table's growth history.
#include "bad_unordered_member.hpp"

std::uint64_t Ledger::pick(FakeRng& rng) {
  std::uint64_t total = 0;
  for (const auto& [node, weight] : weights_) {  // <-- finding (RNG draw)
    total += rng.below(weight + 1) + node;
  }
  return total;
}
