// Reliable request/response channel over the typed transport.
//
// Transport::send is fire-and-observe: a dropped hop simply comes back as
// `delivered == false`.  ReliableChannel wraps it with the retry discipline
// a real deployment needs — a per-attempt deadline, bounded retransmission,
// deterministic exponential backoff with seeded jitter — while keeping the
// determinism contract of the rest of the stack: the same (seed, policy,
// call sequence) produces the same wire behaviour, and the zero-retry
// default policy is call-for-call identical to a bare Transport::send (no
// extra RNG draws, no clock movement), which is what keeps the fig5/fig6
// goldens bit-identical.
//
// Duplicate suppression happens at two layers.  On the wire, the transport
// itself suppresses policy-duplicated copies by envelope id (the second
// copy lands and is discarded, see transport.cpp).  At the channel layer,
// retransmissions of one logical request are also applied at most once at
// the destination: a retry after a *late* delivery (deadline exceeded but
// the envelope did arrive) counts as a suppressed duplicate rather than a
// second application.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "net/transport.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace hirep::net {

/// Bounded at-most-once ledger: remembers which logical request ids have
/// already been applied at a destination so a retransmission of an already
/// landed request is suppressed rather than applied twice.
///
/// State is bounded by two-generation compaction keyed on the sim clock: ids
/// live in a current and a previous generation; when the current generation
/// fills (`capacity` ids) or a clock window elapses, it becomes the previous
/// generation and the old previous one is discarded.  Retained state never
/// exceeds 2 * capacity ids regardless of run length.  An id seen again is
/// refreshed into the current generation, so a request that is actively
/// being retried cannot age out between its own attempts.
///
/// Each generation is one flat open-addressed array of bit_ceil(2 *
/// capacity) slots, so its load stays at most 1/2: the ledger holds
/// 2 * 8 * bit_ceil(2 * capacity) bytes, 128 KiB at the default capacity,
/// and a lookup or insert allocates nothing.
class DedupTable {
 public:
  explicit DedupTable(std::size_t capacity = 4096,
                      double window_ms = 60'000.0)
      : capacity_(capacity == 0 ? 1 : capacity),
        window_ms_(window_ms),
        current_(std::bit_ceil(2 * capacity_)),
        prev_(std::bit_ceil(2 * capacity_)) {}

  /// True exactly once per id: the first call records the id and returns
  /// true; later calls (within the retention bound) return false.
  bool first_application(std::uint64_t id, double now_ms);

  std::size_t size() const {
    util::MutexLock lock(mu_);
    return current_.size + prev_.size;
  }
  /// Hard bound on size(): two generations of `capacity` ids each.
  std::size_t capacity() const noexcept { return 2 * capacity_; }

 private:
  /// One generation: a linear-probing id set that is only ever cleared
  /// whole.  Slot value 0 marks an empty slot, so id 0 lives in a flag.
  struct Generation {
    explicit Generation(std::size_t slot_count) : slots(slot_count, 0) {}

    std::vector<std::uint64_t> slots;  ///< power-of-two size
    std::size_t size = 0;
    bool has_zero = false;

    bool contains(std::uint64_t id) const noexcept;
    /// Inserts an id not yet present.
    void insert(std::uint64_t id) noexcept;
    void clear() noexcept;
  };

  void maybe_rotate(double now_ms) HIREP_REQUIRES(mu_);

  std::size_t capacity_;
  double window_ms_;
  /// Engine lanes each own a channel, so the table sees one thread in
  /// steady state; the mutex makes the at-most-once ledger safe to share
  /// and gives the thread-safety analysis a capability to check against.
  mutable util::Mutex mu_;
  double window_start_ HIREP_GUARDED_BY(mu_) = 0.0;
  Generation current_ HIREP_GUARDED_BY(mu_);
  Generation prev_ HIREP_GUARDED_BY(mu_);
};

/// Retry discipline for one channel.  Defaults are the zero-retry identity
/// wrapper; anything stronger is opt-in per scenario.
struct ReliablePolicy {
  std::uint32_t max_attempts = 1;  ///< total tries (1 = no retries)
  double timeout_ms = 0.0;  ///< per-attempt deadline; 0 = loss-signal only
  double backoff_ms = 0.0;  ///< base backoff; attempt k waits base * 2^(k-2)
  double jitter_ms = 0.0;   ///< + uniform [0, jitter) drawn from the channel rng
};

/// What the caller learns about one logical request.
struct RequestOutcome {
  bool ok = false;       ///< a copy arrived within the deadline; payload valid
  bool applied = false;  ///< destination received >= 1 copy (side effects
                         ///< apply exactly once even when ok is false)
  std::uint32_t attempts = 0;   ///< transmissions tried (>= 1)
  std::uint32_t timeouts = 0;   ///< attempts lost or past the deadline
  std::uint64_t messages = 0;   ///< wire transmissions across all attempts
  double completion_ms = 0.0;   ///< sim clock when the accepted copy landed
  NodeIndex destination = kInvalidNode;
  util::Bytes payload;          ///< destination-side bytes (ok only)
};

class ReliableChannel {
 public:
  /// Cumulative per-channel counters (mirrored into the obs registry under
  /// net.reliable.* at count time).
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t retries = 0;         ///< attempts beyond the first
    std::uint64_t timeouts = 0;        ///< per-attempt losses/deadline misses
    std::uint64_t gave_up = 0;         ///< requests that exhausted attempts
    std::uint64_t dup_suppressed = 0;  ///< retransmissions applied-then-dropped
  };

  /// The channel draws backoff jitter from its own Rng (seeded here) so
  /// retries never perturb the simulation's main random stream.
  ReliableChannel(Transport* transport, ReliablePolicy policy,
                  std::uint64_t seed)
      : transport_(transport), policy_(policy), rng_(seed) {}

  /// Sends one logical request along `path`, retrying per the policy.
  /// Backoff is realised on the transport's EventSim clock, so retried
  /// traffic is correctly ordered against everything else in the run.
  RequestOutcome request(EnvelopeType type, NodeIndex sender,
                         const std::vector<NodeIndex>& path,
                         util::Bytes payload = {});

  /// One logical request of a batch; `path` must outlive the
  /// request_batch() call, `payload` is copied into the transport arena at
  /// enqueue time.
  struct BatchRequest {
    NodeIndex sender = kInvalidNode;
    const std::vector<NodeIndex>* path = nullptr;
    std::span<const std::uint8_t> payload;
  };

  /// Sends many logical requests through the batched transport path.
  /// Attempts advance in waves: wave 1 enqueues every request into one
  /// EnvelopeBatch; each later wave waits one backoff (a single jitter
  /// draw per wave, not per request) and retransmits every still-pending
  /// request in the batch of that attempt tick.  With the default
  /// zero-retry policy this is request-for-request identical to sequential
  /// request() calls (per-request deadlines are measured from the
  /// receipt's own start_ms); under retries, coalescing the backoff into
  /// per-wave ticks is the intended behaviour change of the batched path.
  std::vector<RequestOutcome> request_batch(
      EnvelopeType type, std::span<const BatchRequest> requests);

  Transport& transport() noexcept { return *transport_; }
  const ReliablePolicy& policy() const noexcept { return policy_; }
  const Stats& stats() const noexcept { return stats_; }

  std::size_t dedup_size() const { return dedup_.size(); }
  std::size_t dedup_capacity() const noexcept { return dedup_.capacity(); }

 private:
  /// Folds one delivery receipt into `out` (at-most-once ledger, deadline
  /// check, stats); true when the request is now satisfied.
  bool settle(const DeliveryReceipt& receipt, std::uint64_t request_id,
              RequestOutcome& out);

  Transport* transport_;
  ReliablePolicy policy_;
  util::Rng rng_;
  Stats stats_;
  DedupTable dedup_;
  std::uint64_t next_request_id_ = 0;
};

}  // namespace hirep::net
