#include "net/reliable.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace hirep::net {

namespace {

struct ReliableCells {
  obs::Counter* requests;
  obs::Counter* retries;
  obs::Counter* timeouts;
  obs::Counter* gave_up;
  obs::Counter* dup_suppressed;
};

const ReliableCells& reliable_cells() {
  static const ReliableCells cells = [] {
    auto& reg = obs::Registry::global();
    return ReliableCells{&reg.counter("net.reliable.requests"),
                         &reg.counter("net.reliable.retries"),
                         &reg.counter("net.reliable.timeouts"),
                         &reg.counter("net.reliable.gave_up"),
                         &reg.counter("net.reliable.dup_suppressed")};
  }();
  return cells;
}

/// Backoff before retry wave `attempt` (>= 2): base * 2^(attempt-2), plus
/// one uniform jitter draw from `rng` when configured.
double backoff_wait(const ReliablePolicy& policy, std::uint32_t attempt,
                    util::Rng& rng) {
  const std::uint32_t doublings = attempt - 2 < 30U ? attempt - 2 : 30U;
  double wait = policy.backoff_ms * static_cast<double>(1U << doublings);
  if (policy.jitter_ms > 0.0) wait += rng.uniform(0.0, policy.jitter_ms);
  return wait;
}

/// Fibonacci hashing onto a power-of-two table: request ids are
/// sequential, and the multiply spreads consecutive ids across the slots.
std::size_t slot_of(std::uint64_t id, std::size_t mask) noexcept {
  return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
}

}  // namespace

bool DedupTable::Generation::contains(std::uint64_t id) const noexcept {
  if (id == 0) return has_zero;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = slot_of(id, mask);; i = (i + 1) & mask) {
    if (slots[i] == id) return true;
    if (slots[i] == 0) return false;
  }
}

void DedupTable::Generation::insert(std::uint64_t id) noexcept {
  ++size;
  if (id == 0) {
    has_zero = true;
    return;
  }
  const std::size_t mask = slots.size() - 1;
  std::size_t i = slot_of(id, mask);
  while (slots[i] != 0) i = (i + 1) & mask;
  slots[i] = id;
}

void DedupTable::Generation::clear() noexcept {
  std::fill(slots.begin(), slots.end(), 0);
  size = 0;
  has_zero = false;
}

bool DedupTable::first_application(std::uint64_t id, double now_ms) {
  util::MutexLock lock(mu_);
  // maybe_rotate empties a full generation first, so one never holds more
  // than capacity_ ids and its probe chains always reach an empty slot.
  maybe_rotate(now_ms);
  if (current_.contains(id)) return false;
  if (prev_.contains(id)) {
    // Refresh an actively retried id into the current generation so it
    // cannot age out between its own attempts.
    current_.insert(id);
    return false;
  }
  current_.insert(id);
  return true;
}

void DedupTable::maybe_rotate(double now_ms) {
  const bool full = current_.size >= capacity_;
  const bool stale = current_.size != 0 && now_ms - window_start_ >= window_ms_;
  if (full || stale) {
    std::swap(prev_, current_);
    current_.clear();
    window_start_ = now_ms;
  }
}

bool ReliableChannel::settle(const DeliveryReceipt& receipt,
                            std::uint64_t request_id, RequestOutcome& out) {
  out.messages += receipt.messages;
  if (!receipt.delivered) return false;
  if (dedup_.first_application(request_id, receipt.completion_ms)) {
    out.applied = true;
  } else {
    // A retransmission of a request whose earlier (late) copy already
    // reached the destination: applied at most once.
    ++stats_.dup_suppressed;
    if constexpr (obs::kEnabled) reliable_cells().dup_suppressed->add();
  }
  const bool late =
      policy_.timeout_ms > 0.0 &&
      receipt.completion_ms - receipt.start_ms > policy_.timeout_ms;
  if (late) return false;
  out.ok = true;
  out.destination = receipt.destination;
  out.completion_ms = receipt.completion_ms;
  out.payload = receipt.payload;
  return true;
}

RequestOutcome ReliableChannel::request(EnvelopeType type, NodeIndex sender,
                                        const std::vector<NodeIndex>& path,
                                        util::Bytes payload) {
  RequestOutcome out;
  ++stats_.requests;
  if constexpr (obs::kEnabled) reliable_cells().requests->add();
  const std::uint64_t request_id = next_request_id_++;

  const std::uint32_t max_attempts =
      policy_.max_attempts == 0 ? 1 : policy_.max_attempts;
  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      // Deterministic exponential backoff before each retry, realised on
      // the transport clock so retried traffic timestamps correctly.
      const double wait = backoff_wait(policy_, attempt, rng_);
      if (wait > 0.0) {
        transport_->sim().schedule_in(wait, [] {});
        transport_->sim().run();
      }
      ++stats_.retries;
      if constexpr (obs::kEnabled) reliable_cells().retries->add();
    }
    // Retries need the original bytes again, so only the final attempt may
    // surrender the buffer.
    const DeliveryReceipt receipt =
        attempt == max_attempts
            ? transport_->send(type, sender, path, std::move(payload))
            : transport_->send(type, sender, path, payload);
    out.attempts = attempt;
    if (settle(receipt, request_id, out)) break;
    // Lost in transit, or delivered past the deadline: the sender's timer
    // fires either way.
    ++out.timeouts;
    ++stats_.timeouts;
    if constexpr (obs::kEnabled) reliable_cells().timeouts->add();
  }
  if (!out.ok) {
    ++stats_.gave_up;
    if constexpr (obs::kEnabled) reliable_cells().gave_up->add();
  }
  return out;
}

std::vector<RequestOutcome> ReliableChannel::request_batch(
    EnvelopeType type, std::span<const BatchRequest> requests) {
  std::vector<RequestOutcome> outs(requests.size());
  if (requests.empty()) return outs;
  stats_.requests += requests.size();
  if constexpr (obs::kEnabled) {
    reliable_cells().requests->add(requests.size());
  }
  std::vector<std::uint64_t> ids(requests.size());
  for (auto& id : ids) id = next_request_id_++;

  std::vector<std::uint32_t> pending(requests.size());
  for (std::uint32_t i = 0; i < pending.size(); ++i) pending[i] = i;
  std::vector<std::uint32_t> still_pending;

  EnvelopeBatch batch = transport_->make_batch();
  const std::uint32_t max_attempts =
      policy_.max_attempts == 0 ? 1 : policy_.max_attempts;
  for (std::uint32_t attempt = 1; attempt <= max_attempts && !pending.empty();
       ++attempt) {
    if (attempt > 1) {
      // One backoff tick per wave — a single jitter draw covers every
      // pending request, and their retransmissions ride in one batch.
      const double wait = backoff_wait(policy_, attempt, rng_);
      if (wait > 0.0) {
        transport_->sim().schedule_in(wait, [] {});
        transport_->sim().run();
      }
      stats_.retries += pending.size();
      if constexpr (obs::kEnabled) {
        reliable_cells().retries->add(pending.size());
      }
    }
    batch.clear();
    for (std::uint32_t i : pending) {
      batch.push(type, requests[i].sender, *requests[i].path,
                 requests[i].payload);
    }
    const auto receipts = transport_->send_batch(batch);
    still_pending.clear();
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const std::uint32_t i = pending[k];
      RequestOutcome& out = outs[i];
      out.attempts = attempt;
      if (settle(receipts[k], ids[i], out)) continue;
      ++out.timeouts;
      ++stats_.timeouts;
      if constexpr (obs::kEnabled) reliable_cells().timeouts->add();
      still_pending.push_back(i);
    }
    pending.swap(still_pending);
  }
  for (const RequestOutcome& out : outs) {
    if (!out.ok) {
      ++stats_.gave_up;
      if constexpr (obs::kEnabled) reliable_cells().gave_up->add();
    }
  }
  return outs;
}

}  // namespace hirep::net
