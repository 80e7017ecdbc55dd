#include "net/transport.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "check/invariants.hpp"
#include "obs/metrics.hpp"

namespace hirep::net {

namespace {

// Flat phase timers for the batched pipeline (bench/micro_transport reads
// their means).  Resolved once; record() is two relaxed atomics.
struct TransportTimers {
  obs::Timer* send;         ///< one batch-of-one send(), end to end
  obs::Timer* batch_build;  ///< one EnvelopeBatch::push()
  obs::Timer* drain;        ///< one send_batch() pass
};

const TransportTimers& transport_timers() {
  static const TransportTimers timers = [] {
    auto& reg = obs::Registry::global();
    return TransportTimers{&reg.timer("transport/send"),
                           &reg.timer("transport/batch_build"),
                           &reg.timer("transport/drain")};
  }();
  return timers;
}

}  // namespace

HopDecision LatencyDelivery::on_hop(const Envelope&, NodeIndex from,
                                    NodeIndex to) {
  HopDecision decision;
  decision.delay_ms = model_->link_ms(from, to) + model_->processing_ms();
  return decision;
}

HopDecision FaultyDelivery::on_hop(const Envelope&, NodeIndex, NodeIndex) {
  // Always draw the same number of variates per hop so the fault stream
  // stays aligned regardless of earlier outcomes.
  const bool drop = rng_.chance(params_.drop_rate);
  const bool duplicate = rng_.chance(params_.duplicate_rate);
  const double delay =
      params_.delay_max_ms > params_.delay_min_ms
          ? rng_.uniform(params_.delay_min_ms, params_.delay_max_ms)
          : params_.delay_min_ms;
  HopDecision decision;
  decision.drop = drop;
  decision.duplicate = !drop && duplicate;
  decision.delay_ms = delay;
  return decision;
}

std::optional<DeliveryPolicyKind> policy_kind_by_name(std::string_view name) {
  if (name == "instant") return DeliveryPolicyKind::kInstant;
  if (name == "latency") return DeliveryPolicyKind::kLatency;
  if (name == "faulty") return DeliveryPolicyKind::kFaulty;
  return std::nullopt;
}

std::unique_ptr<DeliveryPolicy> make_policy(const DeliveryConfig& config,
                                            const LatencyModel* latency,
                                            std::uint64_t seed) {
  switch (config.policy) {
    case DeliveryPolicyKind::kInstant:
      return std::make_unique<InstantDelivery>();
    case DeliveryPolicyKind::kLatency:
      if (latency == nullptr) {
        throw std::invalid_argument("latency policy needs a LatencyModel");
      }
      return std::make_unique<LatencyDelivery>(latency);
    case DeliveryPolicyKind::kFaulty:
      return std::make_unique<FaultyDelivery>(config.faults, seed);
  }
  throw std::invalid_argument("unknown delivery policy");
}

// ---------------------------------------------------------------------------
// EnvelopeBatch

EnvelopeBatch::EnvelopeBatch(PayloadArena* arena) : arena_(arena) {
  if (arena_ == nullptr) {
    throw std::invalid_argument("EnvelopeBatch needs a PayloadArena");
  }
  mark_ = arena_->mark();
}

void EnvelopeBatch::clear() {
  // LIFO discipline: everything above mark_ belongs to this batch, so an
  // unsent batch releases its arena bytes here.
  if (!entries_.empty()) arena_->rewind(mark_);
  entries_.clear();
  path_pool_.clear();
  receipts_.clear();
  mark_ = arena_->mark();
}

std::size_t EnvelopeBatch::push(EnvelopeType type, NodeIndex sender,
                                std::span<const NodeIndex> path,
                                std::span<const std::uint8_t> payload) {
  std::uint64_t t0 = 0;
  if constexpr (obs::kEnabled) t0 = obs::now_ns();
  Entry entry;
  entry.type = type;
  entry.sender = sender;
  entry.path_offset = static_cast<std::uint32_t>(path_pool_.size());
  entry.path_size = static_cast<std::uint32_t>(path.size());
  path_pool_.insert(path_pool_.end(), path.begin(), path.end());
  const auto interned = arena_->store(payload);
  entry.payload = interned.data();
  entry.payload_size = static_cast<std::uint32_t>(interned.size());
  entries_.push_back(entry);
  if constexpr (obs::kEnabled) {
    transport_timers().batch_build->record(obs::now_ns() - t0);
  }
  return entries_.size() - 1;
}

void visit_groups(std::size_t count,
                  const std::function<bool(std::uint32_t)>& filter,
                  const std::function<std::uint64_t(std::uint32_t)>& key_of,
                  std::vector<std::uint32_t>& order,
                  const std::function<void(const ReceiptGroup&)>& fn) {
  order.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    if (filter(i)) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&key_of](std::uint32_t a, std::uint32_t b) {
                     return key_of(a) < key_of(b);
                   });
  std::size_t at = 0;
  while (at < order.size()) {
    const std::uint64_t key = key_of(order[at]);
    std::size_t end = at + 1;
    while (end < order.size() && key_of(order[end]) == key) ++end;
    fn(ReceiptGroup{key, std::span(order).subspan(at, end - at)});
    at = end;
  }
}

void EnvelopeBatch::drain_groups(
    const std::function<std::uint64_t(std::size_t, const DeliveryReceipt&)>&
        key_of,
    const std::function<void(const ReceiptGroup&)>& fn) const {
  visit_groups(
      receipts_.size(),
      [this](std::uint32_t i) { return receipts_[i].delivered; },
      [this, &key_of](std::uint32_t i) { return key_of(i, receipts_[i]); },
      order_, fn);
}

// ---------------------------------------------------------------------------
// Transport

/// Per-flush metric deltas: everything transmit_one counts lands here and
/// is folded into EnvelopeMetrics / TrafficMetrics once per send() or
/// send_batch().  Totals are exactly what per-hop counting would have
/// produced — only the update granularity changes, which no consumer can
/// observe (counters are read between sends, never inside one).
struct Transport::Acc {
  std::array<EnvelopeMetrics::Counters,
             static_cast<std::size_t>(EnvelopeType::kCount)>
      env{};
  std::array<std::uint64_t, static_cast<std::size_t>(MessageKind::kCount)>
      traffic{};
};

Transport::Transport(Overlay* overlay, const DeliveryConfig& config,
                     std::uint64_t seed)
    : overlay_(overlay),
      policy_(make_policy(config, &overlay->latency(), seed)) {}

Transport::Transport(Overlay* overlay, std::unique_ptr<DeliveryPolicy> policy)
    : overlay_(overlay), policy_(std::move(policy)) {}

Transport::~Transport() {
  if constexpr (check::kEnabled) {
    // send() drains its event queue before returning, so at teardown no
    // envelope can still be in flight and the per-type ledger must balance
    // exactly: sent == delivered + dropped.  Pending events cannot be
    // attributed to a type, so with a non-empty queue only the total is
    // checked.
    const std::uint64_t in_flight = sim_.pending();
    if (in_flight == 0) {
      for (std::size_t i = 0;
           i < static_cast<std::size_t>(EnvelopeType::kCount); ++i) {
        const auto type = static_cast<EnvelopeType>(i);
        const EnvelopeMetrics::Counters& c = envelopes_.of(type);
        check::conserved("net.envelope.conservation", c.sent, c.delivered,
                         c.dropped, 0, to_string(type));
      }
    } else {
      check::conserved("net.envelope.conservation", envelopes_.total_sent(),
                       envelopes_.total_delivered(),
                       envelopes_.total_dropped(), in_flight, "total");
    }
  }
}

void Transport::set_policy(std::unique_ptr<DeliveryPolicy> policy) {
  policy_ = std::move(policy);
}

void Transport::transmit_one(EnvelopeType type, NodeIndex sender,
                             std::span<const NodeIndex> path,
                             std::span<const std::uint8_t> payload,
                             DeliveryReceipt& receipt, Acc& acc) {
  receipt = DeliveryReceipt{};
  receipt.start_ms = sim_.now();
  if (path.empty()) return;

  Envelope envelope;
  envelope.type = type;
  envelope.origin = sender;
  envelope.destination = path.back();
  envelope.id = next_id_++;
  envelope.payload = payload;
  EnvelopeMetrics::Counters& ec = acc.env[static_cast<std::size_t>(type)];
  std::uint64_t& traffic =
      acc.traffic[static_cast<std::size_t>(kind_of(type))];
  ++ec.sent;
  ec.payload_bytes_sent += payload.size();

  // Tight loop while hops land instantly — the batched fast path: no
  // event allocation, no queue, no clock movement.  A zero-delay landing
  // processed inline is indistinguishable from the event-driven form (the
  // landing would fire immediately, FIFO, at the same now()); the policy
  // sees the identical on_hop() sequence either way, which is the RNG
  // stream-alignment contract.
  std::size_t index = 0;
  NodeIndex from = sender;
  for (;;) {
    const NodeIndex to = path[index];
    const HopDecision decision = policy_->on_hop(envelope, from, to);
    const std::uint64_t copies = decision.duplicate ? 2 : 1;
    traffic += copies;
    receipt.messages += copies;
    ec.hop_messages += copies;
    if (decision.duplicate) ++ec.duplicated;
    if (decision.drop) {
      ++ec.dropped;  // the copy left the sender but never lands
      ec.payload_bytes_dropped += payload.size();
      return;
    }
    if (decision.delay_ms > 0.0) {
      transmit_delayed(envelope, path, index, decision, receipt, acc);
      return;
    }
    ++receipt.hops;
    // The duplicated copy lands right behind the primary at the same
    // (zero) delay and is discarded by envelope id.
    if (decision.duplicate) ++ec.suppressed;
    if (index + 1 == path.size()) {
      receipt.delivered = true;
      receipt.destination = to;
      receipt.completion_ms = sim_.now();
      receipt.payload.assign(payload.begin(), payload.end());
      ++ec.delivered;
      ec.payload_bytes_delivered += payload.size();
      return;
    }
    from = to;
    ++index;
  }
}

void Transport::transmit_delayed(const Envelope& envelope,
                                 std::span<const NodeIndex> path,
                                 std::size_t start, const HopDecision& first,
                                 DeliveryReceipt& receipt, Acc& acc) {
  EnvelopeMetrics::Counters& ec =
      acc.env[static_cast<std::size_t>(envelope.type)];
  std::uint64_t& traffic =
      acc.traffic[static_cast<std::size_t>(kind_of(envelope.type))];

  // Hop chain as a self-scheduling event sequence, picking up at hop
  // `start` whose decision is already drawn.  All events fire inside this
  // call's sim_.run(), so reference captures of locals are safe.
  std::function<void(std::size_t, NodeIndex)> transmit;
  std::function<void(std::size_t, NodeIndex)> land;
  land = [&](std::size_t index, NodeIndex to) {
    ++receipt.hops;
    if (index + 1 == path.size()) {
      receipt.delivered = true;
      receipt.destination = to;
      receipt.completion_ms = sim_.now();
      receipt.payload.assign(envelope.payload.begin(),
                             envelope.payload.end());
      ++ec.delivered;
      ec.payload_bytes_delivered += envelope.payload.size();
      return;
    }
    transmit(index + 1, to);
  };
  transmit = [&](std::size_t index, NodeIndex from) {
    const NodeIndex to = path[index];
    const HopDecision decision = policy_->on_hop(envelope, from, to);
    const std::uint64_t copies = decision.duplicate ? 2 : 1;
    traffic += copies;
    receipt.messages += copies;
    ec.hop_messages += copies;
    if (decision.duplicate) ++ec.duplicated;
    if (decision.drop) {
      ++ec.dropped;
      ec.payload_bytes_dropped += envelope.payload.size();
      return;
    }
    sim_.schedule_in(decision.delay_ms,
                     [&, index, to] { land(index, to); });
    if (decision.duplicate) {
      // The second copy lands too, but the receiver has already seen this
      // envelope id (the primary copy was scheduled first at the same
      // delay, so FIFO ordering lands it first): the duplicate is
      // discarded without re-forwarding or re-applying any side effect.
      sim_.schedule_in(decision.delay_ms, [&ec] { ++ec.suppressed; });
    }
  };
  const NodeIndex to = path[start];
  sim_.schedule_in(first.delay_ms, [&, start, to] { land(start, to); });
  if (first.duplicate) {
    sim_.schedule_in(first.delay_ms, [&ec] { ++ec.suppressed; });
  }
  sim_.run();
}

void Transport::flush(const Acc& acc) {
  // Every envelope a send touches counts as sent, so a type with no sends
  // carries an all-zero delta and is skipped.
  for (std::size_t i = 0; i < acc.env.size(); ++i) {
    if (acc.env[i].sent != 0) {
      envelopes_.add(static_cast<EnvelopeType>(i), acc.env[i]);
    }
  }
  for (std::size_t k = 0; k < acc.traffic.size(); ++k) {
    if (acc.traffic[k] != 0) {
      overlay_->count_send(static_cast<MessageKind>(k), acc.traffic[k]);
    }
  }
}

DeliveryReceipt Transport::send(EnvelopeType type, NodeIndex sender,
                                const std::vector<NodeIndex>& path,
                                util::Bytes payload) {
  std::uint64_t t0 = 0;
  if constexpr (obs::kEnabled) t0 = obs::now_ns();
  // Batch-of-one: the same per-envelope engine and one metric flush; the
  // payload is viewed in place (no arena round trip).
  DeliveryReceipt receipt;
  Acc acc{};
  transmit_one(type, sender, path, payload, receipt, acc);
  flush(acc);
  if constexpr (obs::kEnabled) {
    transport_timers().send->record(obs::now_ns() - t0);
  }
  return receipt;
}

std::span<const DeliveryReceipt> Transport::send_batch(EnvelopeBatch& batch) {
  std::uint64_t t0 = 0;
  if constexpr (obs::kEnabled) t0 = obs::now_ns();
  batch.receipts_.resize(batch.entries_.size());
  Acc acc{};
  for (std::size_t i = 0; i < batch.entries_.size(); ++i) {
    const EnvelopeBatch::Entry& entry = batch.entries_[i];
    transmit_one(
        entry.type, entry.sender,
        std::span<const NodeIndex>(batch.path_pool_.data() + entry.path_offset,
                                   entry.path_size),
        std::span<const std::uint8_t>(entry.payload, entry.payload_size),
        batch.receipts_[i], acc);
  }
  flush(acc);
  // Delivered payloads have been copied into the receipts; release the
  // batch's arena bytes and leave the batch empty (receipts readable,
  // capacity retained) for the caller's next round.
  batch.arena_->rewind(batch.mark_);
  batch.entries_.clear();
  batch.path_pool_.clear();
  batch.mark_ = batch.arena_->mark();
  if constexpr (obs::kEnabled) {
    transport_timers().drain->record(obs::now_ns() - t0);
  }
  return batch.receipts();
}

}  // namespace hirep::net
