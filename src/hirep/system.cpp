#include "hirep/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "check/invariants.hpp"
#include "crypto/verify_cache.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace hirep::core {

namespace {

trust::WorldParams world_with_nodes(trust::WorldParams world, std::size_t nodes) {
  world.nodes = nodes;
  return world;
}

ListParams list_params_from(const HirepOptions& o) {
  ListParams lp;
  lp.alpha = o.expertise_alpha;
  lp.eviction_threshold = o.eviction_threshold;
  lp.capacity = o.trusted_agents;
  lp.backup_capacity = o.backup_capacity;
  lp.refill_fraction = o.refill_fraction;
  return lp;
}

/// Whether an envelope type lands in one of the buckets
/// trust_message_total() sums (kOnionRelay is never produced by the
/// transport, so the three request/response/report kinds are exhaustive).
bool trust_counted(net::EnvelopeType type) noexcept {
  switch (net::kind_of(type)) {
    case net::MessageKind::kTrustRequest:
    case net::MessageKind::kTrustResponse:
    case net::MessageKind::kReport:
      return true;
    default:
      return false;
  }
}

// Stream salts for the scale engine: transaction streams and deferred
// maintenance draw from disjoint (seed, salt) families.
constexpr std::uint64_t kTxnStreamSalt = 0x5ca1ab1e0ddba11dULL;
constexpr std::uint64_t kMaintenanceSalt = 0xdecafbadf00dfeedULL;
constexpr std::uint64_t kLaneSeedSalt = 0x1a5e5eedULL;
constexpr std::uint64_t kChannelSeedSalt = 0xbadc0ffee0dba11ULL;

}  // namespace

HirepSystem::HirepSystem(HirepOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      truth_(rng_, world_with_nodes(options_.world, options_.nodes)),
      overlay_(net::power_law(rng_, options_.nodes, options_.average_degree),
               options_.latency, options_.seed ^ 0x1eafcafeULL),
      transport_(&overlay_, options_.delivery, options_.seed ^ 0xfa017ca7ULL),
      reliable_(&transport_, options_.reliable,
                options_.seed ^ kChannelSeedSalt),
      router_(&overlay_, [this](net::NodeIndex v) -> const crypto::Identity* {
        return v < identities_.size() ? &identities_[v] : nullptr;
      }) {
  if (options_.nodes < 8) throw std::invalid_argument("need >= 8 nodes");

  // Identities: two RSA key pairs per node; nodeId = SHA1(SP).
  id_to_ip_.reserve(options_.nodes);
  for (std::size_t v = 0; v < options_.nodes; ++v) {
    identities_.push_back(crypto::Identity::generate(rng_, options_.rsa_bits));
    id_to_ip_.insert_or_assign(identities_.back().node_id(),
                               static_cast<net::NodeIndex>(v));
  }

  // Peers, each with its verified onion relays.
  const ListParams lp = list_params_from(options_);
  peers_.reserve(options_.nodes);
  for (std::size_t v = 0; v < options_.nodes; ++v) {
    const auto ip = static_cast<net::NodeIndex>(v);
    peers_.emplace_back(&identities_[v], ip, lp);
    peers_.back().set_relays(pick_and_verify_relays(ip));
  }

  // Agent community: every bandwidth-qualified node claims agent-hood.
  agent_runtimes_.resize(options_.nodes);
  agent_online_.assign(options_.nodes, 0);
  for (net::NodeIndex v : truth_.agent_capable_nodes()) {
    make_agent(v, &identities_[v]);
  }

  // Community formation: each peer discovers its trusted agents.  Peers
  // run in random order; early responders only know agent self-entries,
  // later ones inherit curated lists — the emergent hierarchy of §3.4.
  std::vector<net::NodeIndex> order(options_.nodes);
  for (std::size_t v = 0; v < options_.nodes; ++v) {
    order[v] = static_cast<net::NodeIndex>(v);
  }
  rng_.shuffle(order);
  for (net::NodeIndex v : order) discover_agents(v);
}

void HirepSystem::make_agent(net::NodeIndex v,
                             const crypto::Identity* identity) {
  AgentRuntime& rt = agent_runtimes_[v];
  rt.agent = std::make_unique<ReputationAgent>(
      identity, v, &truth_, trust::model_factory_by_name(options_.agent_model),
      options_.min_reports_for_model);
  rt.relays = peers_[v].relays();  // agents reuse their verified relays
  rt.recovery = std::make_unique<AgentRecovery>();
  agent_online_[v] = 1;
  ++agent_count_;
}

ReputationAgent* HirepSystem::agent_at(net::NodeIndex v) {
  if (v >= agent_runtimes_.size()) return nullptr;
  return agent_runtimes_[v].agent.get();
}

std::optional<net::NodeIndex> HirepSystem::ip_of(const crypto::NodeId& id) const {
  const auto it = id_to_ip_.find(id);
  if (it == id_to_ip_.end()) return std::nullopt;
  return it->second;
}

bool HirepSystem::agent_online(net::NodeIndex v) const {
  return v < agent_online_.size() && agent_online_[v] != 0;
}

void HirepSystem::set_agent_online(net::NodeIndex v, bool online) {
  if (v >= agent_runtimes_.size() || agent_runtimes_[v].agent == nullptr) {
    throw std::invalid_argument("node is not an agent");
  }
  agent_online_[v] = online ? 1 : 0;
}

bool HirepSystem::agent_quarantined(net::NodeIndex v) const {
  return v < agent_runtimes_.size() &&
         agent_runtimes_[v].recovery != nullptr &&
         agent_runtimes_[v].recovery->quarantined.load(
             std::memory_order_relaxed);
}

void HirepSystem::quarantine_agent(net::NodeIndex v) {
  if (v >= agent_runtimes_.size() || agent_runtimes_[v].agent == nullptr) {
    throw std::invalid_argument("node is not an agent");
  }
  if (!agent_runtimes_[v].recovery->quarantined.exchange(
          true, std::memory_order_relaxed)) {
    recovery_tallies_.quarantines.fetch_add(1, std::memory_order_relaxed);
  }
}

HirepSystem::RecoveryCounters HirepSystem::recovery_counters() const {
  const auto get = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  RecoveryCounters c;
  c.suspicions = get(recovery_tallies_.suspicions);
  c.quarantines = get(recovery_tallies_.quarantines);
  c.probations_cleared = get(recovery_tallies_.probations_cleared);
  c.backup_promotions = get(recovery_tallies_.backup_promotions);
  c.rediscoveries = get(recovery_tallies_.rediscoveries);
  c.degraded_queries = get(recovery_tallies_.degraded_queries);
  return c;
}

void HirepSystem::note_exchange_failure(AgentRuntime& rt) {
  recovery_tallies_.suspicions.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    static obs::Counter& suspicions =
        obs::Registry::global().counter("hirep.recovery.suspicions");
    suspicions.add();
  }
  const std::uint32_t after =
      rt.recovery->suspicion.fetch_add(1, std::memory_order_relaxed) + 1;
  // Exactly one incrementer observes the threshold crossing, so the
  // quarantine transition (and its tally) happens once no matter how many
  // lanes report failures concurrently.
  if (after == options_.recovery.suspicion_threshold &&
      !rt.recovery->quarantined.exchange(true, std::memory_order_relaxed)) {
    recovery_tallies_.quarantines.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      static obs::Counter& quarantines =
          obs::Registry::global().counter("hirep.recovery.quarantines");
      quarantines.add();
    }
  }
}

void HirepSystem::note_exchange_success(AgentRuntime& rt) {
  rt.recovery->suspicion.store(0, std::memory_order_relaxed);
}

bool HirepSystem::admit_entry(Peer& p, AgentEntry entry, bool fresh_probe) {
  if constexpr (check::kEnabled) {
    const auto* rt = runtime_of(entry.agent_id);
    const bool quarantined =
        rt != nullptr && rt->recovery->quarantined.load(
                             std::memory_order_relaxed);
    check::gate("hirep.quarantine.fresh_probe", fresh_probe || !quarantined,
                "trusted-list admission",
                crypto::NodeIdHash{}(entry.agent_id), p.ip());
  }
  return p.agents().add(std::move(entry));
}

HirepSystem::AgentRef HirepSystem::resolve_agent(const crypto::NodeId& id) {
  const auto it = id_to_ip_.find(id);
  if (it == id_to_ip_.end()) return {};
  AgentRef ref;
  ref.ip = it->second;  // set for any known id, agent or not
  if (ref.ip < agent_runtimes_.size() &&
      agent_runtimes_[ref.ip].agent != nullptr) {
    ref.rt = &agent_runtimes_[ref.ip];
  }
  return ref;
}

template <typename Body>
auto HirepSystem::run_alone(Body&& body) {
  std::vector<AgentWrite> writes;
  TxnCtx ctx{.rng = &rng_,
             .transport = &transport_,
             .channel = &reliable_,
             .sq = ++sq_clock_,
             .writes = &writes};
  const auto apply_writes = [&] {
    for (const AgentWrite& write : writes) apply_write(write);
  };
  if constexpr (std::is_void_v<std::invoke_result_t<Body&, TxnCtx&>>) {
    body(ctx);
    apply_writes();
  } else {
    auto result = body(ctx);
    apply_writes();
    return result;
  }
}

std::vector<net::NodeIndex> HirepSystem::path_of(
    const std::vector<onion::RelayInfo>& relays, net::NodeIndex owner) const {
  std::vector<net::NodeIndex> path;
  path.reserve(relays.size() + 1);
  for (auto it = relays.rbegin(); it != relays.rend(); ++it) {
    path.push_back(it->ip);
  }
  path.push_back(owner);
  return path;
}

std::vector<onion::RelayInfo> HirepSystem::pick_and_verify_relays(
    net::NodeIndex owner) {
  // Current overlay population (the graph is authoritative even during
  // bootstrap and after joins): joiners relay too.
  const auto ips = onion::pick_relay_ips(rng_, overlay_.node_count(),
                                         options_.onion_relays, owner);
  std::vector<onion::RelayInfo> relays;
  relays.reserve(ips.size());
  for (net::NodeIndex ip : ips) {
    if (options_.crypto == CryptoMode::kFull) {
      onion::HonestRelay endpoint(ip, &identities_[ip]);
      auto info = onion::fetch_anonymity_key(overlay_, rng_,
                                             identities_[owner], owner,
                                             endpoint);
      if (info) relays.push_back(std::move(*info));
    } else {
      // Same four handshake messages (Figure 3: two request/response round
      // trips), key taken on faith; the transport may lose any of them, in
      // which case the relay fails verification and is skipped.
      bool handshake_ok = true;
      for (int message = 0; message < 4 && handshake_ok; ++message) {
        const net::NodeIndex from = message % 2 == 0 ? owner : ip;
        const net::NodeIndex to = message % 2 == 0 ? ip : owner;
        handshake_ok =
            transport_.send(net::EnvelopeType::kKeyExchange, from, {to})
                .delivered;
      }
      if (handshake_ok) {
        relays.push_back({ip, identities_[ip].anonymity_public()});
      }
    }
  }
  return relays;
}

onion::Onion HirepSystem::issue_agent_onion(TxnCtx& ctx,
                                            net::NodeIndex agent_ip,
                                            AgentRuntime& rt) {
  router_.note_issued(identities_[agent_ip].node_id(), ctx.sq);
  if (options_.crypto == CryptoMode::kFull) {
    return onion::build_onion(*ctx.rng, identities_[agent_ip], agent_ip,
                              rt.relays, ctx.sq);
  }
  onion::Onion onion;
  onion.entry = rt.relays.empty() ? agent_ip : rt.relays.back().ip;
  onion.sq = ctx.sq;
  onion.relay_count = static_cast<std::uint32_t>(rt.relays.size());
  onion.owner_sig_key = identities_[agent_ip].signature_public();
  return onion;
}

AgentEntry HirepSystem::self_entry(TxnCtx& ctx, net::NodeIndex agent_ip,
                                   AgentRuntime& rt) {
  AgentEntry entry;
  entry.weight = 1.0;
  entry.agent_id = identities_[agent_ip].node_id();
  entry.agent_key = identities_[agent_ip].signature_public();
  entry.onion = issue_agent_onion(ctx, agent_ip, rt);
  entry.relay_path = path_of(rt.relays, agent_ip);
  return entry;
}

std::vector<AgentEntry> HirepSystem::shareable_list(TxnCtx& ctx,
                                                    net::NodeIndex v) {
  const auto& list = peers_.at(v).agents();
  if (!list.empty()) return list.entries();
  if (agent_online(v)) {
    return {self_entry(ctx, v, agent_runtimes_[v])};
  }
  return {};
}

std::vector<AgentEntry> HirepSystem::shareable_list(net::NodeIndex v) {
  return run_alone([&](TxnCtx& ctx) { return shareable_list(ctx, v); });
}

std::size_t HirepSystem::discover_agents(TxnCtx& ctx, net::NodeIndex peer_ip) {
  Peer& p = peers_.at(peer_ip);
  if (p.agents().full()) return 0;
  if constexpr (obs::kEnabled) {
    static obs::Counter& walks =
        obs::Registry::global().counter("hirep.discovery.walks");
    walks.add();
  }

  const auto lists = collect_agent_lists(
      *ctx.transport, *ctx.rng, peer_ip, options_.discovery_tokens,
      options_.discovery_ttl,
      [this, &ctx, peer_ip](net::NodeIndex v) {
        return v == peer_ip ? std::vector<AgentEntry>{}
                            : shareable_list(ctx, v);
      });

  std::vector<std::vector<AgentEntry>> raw;
  raw.reserve(lists.size());
  for (const auto& l : lists) raw.push_back(l.entries);

  std::size_t added = 0;
  for (AgentEntry& e :
       rank_and_select(raw, p.agents().params().capacity, *ctx.rng)) {
    if (p.agents().full()) break;
    // A peer does not pick itself, and re-verification of the nodeId/key
    // binding rejects forged recommendations.
    if (e.agent_id == p.node_id()) continue;
    if (crypto::node_id_of_cached(e.agent_key) != e.agent_id) continue;
    // A quarantined agent cannot re-enter any trusted list from a
    // recommendation; only a fresh probe (refill) readmits it.
    {
      const auto* rt = runtime_of(e.agent_id);
      if (rt != nullptr && rt->recovery->quarantined.load(
                               std::memory_order_relaxed)) {
        continue;
      }
    }
    if (admit_entry(p, std::move(e), /*fresh_probe=*/false)) ++added;
  }
  if constexpr (obs::kEnabled) {
    static obs::Counter& agents_added =
        obs::Registry::global().counter("hirep.discovery.agents_added");
    agents_added.add(added);
  }
  return added;
}

std::size_t HirepSystem::discover_agents(net::NodeIndex peer_ip) {
  return run_alone(
      [&](TxnCtx& ctx) { return discover_agents(ctx, peer_ip); });
}

void HirepSystem::refill(TxnCtx& ctx, net::NodeIndex peer_ip) {
  Peer& p = peers_.at(peer_ip);
  // Probe the backup cache, most recent first (§3.4.3).
  while (!p.agents().full()) {
    auto backup = p.agents().pop_backup();
    if (!backup) break;
    const AgentRef ref = resolve_agent(backup->agent_id);
    if (ref.ip == net::kInvalidNode) continue;
    const auto probed =
        ctx.channel->request(net::EnvelopeType::kProbe, peer_ip, {ref.ip});
    if (!probed.ok) continue;  // probe lost: treated as offline
    AgentRuntime* rt = ref.rt;
    if (rt != nullptr && agent_online_[ref.ip]) {
      // A delivered probe to a live agent is exactly the fresh evidence
      // that lifts a standing quarantine (§3.4.3 re-entry rule).
      rt->recovery->suspicion.store(0, std::memory_order_relaxed);
      if (rt->recovery->quarantined.exchange(false,
                                             std::memory_order_relaxed)) {
        recovery_tallies_.probations_cleared.fetch_add(
            1, std::memory_order_relaxed);
        if constexpr (obs::kEnabled) {
          static obs::Counter& cleared = obs::Registry::global().counter(
              "hirep.recovery.probations_cleared");
          cleared.add();
        }
      }
      if (admit_entry(p, std::move(*backup), /*fresh_probe=*/true)) {
        recovery_tallies_.backup_promotions.fetch_add(
            1, std::memory_order_relaxed);
        if constexpr (obs::kEnabled) {
          static obs::Counter& promotions = obs::Registry::global().counter(
              "hirep.recovery.backup_promotions");
          promotions.add();
        }
      }
    }
  }
  if (p.agents().needs_refill()) {
    recovery_tallies_.rediscoveries.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      static obs::Counter& rediscoveries =
          obs::Registry::global().counter("hirep.recovery.rediscoveries");
      rediscoveries.add();
    }
    discover_agents(ctx, peer_ip);
  }
}

void HirepSystem::refill(net::NodeIndex peer_ip) {
  run_alone([&](TxnCtx& ctx) { refill(ctx, peer_ip); });
}

net::NodeIndex HirepSystem::join_peer() {
  // Transport level: preferential-attachment links, as a joining servent
  // bootstrapping off well-known high-degree hosts would get.
  const auto m = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.average_degree / 2.0));
  std::vector<net::NodeIndex> neighbors;
  while (neighbors.size() < m) {
    const auto candidate = overlay_.sample_by_degree(rng_);
    if (std::find(neighbors.begin(), neighbors.end(), candidate) ==
        neighbors.end()) {
      neighbors.push_back(candidate);
    }
  }
  const net::NodeIndex v = overlay_.add_node(neighbors);

  // World + identity level.
  const auto truth_index = truth_.add_node(rng_);
  (void)truth_index;  // same index by construction
  identities_.push_back(crypto::Identity::generate(rng_, options_.rsa_bits));
  id_to_ip_.insert_or_assign(identities_.back().node_id(), v);

  // Peer state: verified relays, then trusted-agent discovery (§3.4.1).
  peers_.emplace_back(&identities_.back(), v, list_params_from(options_));
  peers_.back().set_relays(pick_and_verify_relays(v));
  agent_runtimes_.resize(peers_.size());
  agent_online_.resize(peers_.size(), 0);
  if (truth_.agent_capable(v)) {
    make_agent(v, &identities_.back());
  }
  discover_agents(v);
  return v;
}

crypto::NodeId HirepSystem::rotate_peer_key(net::NodeIndex v) {
  crypto::Identity& identity = identities_.at(v);
  const crypto::NodeId old_id = identity.node_id();
  const auto announcement =
      identity.rotate_signature_key(rng_, options_.rsa_bits);

  // Simulation-side reverse mapping follows the identity.
  id_to_ip_.erase(old_id);
  id_to_ip_.insert_or_assign(identity.node_id(), v);

  // "New public keys signed by current private key can be sent out using
  // the most recently received onions" (§3.5): the announcement travels to
  // every trusted agent over the freshest Onion_e the peer holds.
  Peer& p = peers_.at(v);
  if (options_.crypto == CryptoMode::kFast) {
    // All announcements of one rotation ride in one envelope batch.
    // Announcements need no acknowledgement: any copy that arrived is
    // applied (at most once).
    std::vector<net::ReliableChannel::BatchRequest> requests;
    std::vector<AgentRuntime*> targets;
    for (auto& entry : p.agents().entries()) {
      const AgentRef ref = resolve_agent(entry.agent_id);
      if (!ref || !agent_online_[ref.ip]) continue;
      requests.push_back({v, &entry.relay_path, {}});
      targets.push_back(ref.rt);
    }
    const auto routed =
        reliable_.request_batch(net::EnvelopeType::kKeyRotation, requests);
    for (std::size_t i = 0; i < routed.size(); ++i) {
      if (!routed[i].applied) continue;  // announcement lost: agent keeps SP
      targets[i]->agent->migrate_key(old_id, announcement);
    }
    return identity.node_id();
  }
  const util::Bytes wire = announcement.serialize();
  run_alone([&](TxnCtx& ctx) {
    for (auto& entry : p.agents().entries()) {
      const AgentRef ref = resolve_agent(entry.agent_id);
      if (!ref || !agent_online_[ref.ip]) continue;
      const auto routed = route_envelope(ctx, v, entry.onion, wire,
                                         net::EnvelopeType::kKeyRotation);
      if (!routed.delivered) continue;
      const auto parsed =
          crypto::Identity::RotationAnnouncement::deserialize(routed.payload);
      if (!parsed) continue;
      ref.rt->agent->migrate_key(old_id, *parsed);
    }
  });
  return identity.node_id();
}

HirepSystem::RoutedEnvelope HirepSystem::route_envelope(
    TxnCtx& ctx, net::NodeIndex sender, const onion::Onion& onion,
    util::Bytes wire, net::EnvelopeType type) {
  RoutedEnvelope result;
  const auto path = router_.peel_path(onion);
  if (!path) return result;  // bad signature / stale sq / corrupt layer
  auto outcome = ctx.channel->request(type, sender, *path, std::move(wire));
  if (trust_counted(type)) ctx.trust_messages += outcome.messages;
  result.delivered = outcome.ok;
  result.destination = outcome.destination;
  result.payload = std::move(outcome.payload);
  return result;
}

std::optional<double> HirepSystem::exchange_with_agent(
    TxnCtx& ctx, Peer& requestor, AgentEntry& entry, net::NodeIndex subject_ip,
    const crypto::NodeId& subject_id) {
  const AgentRef ref = resolve_agent(entry.agent_id);
  if (!ref || !agent_online_[ref.ip]) return std::nullopt;
  AgentRuntime* rt = ref.rt;
  // The community has given up on a quarantined agent: no request is even
  // sent until a fresh probe (refill) readmits it.
  if (rt->recovery->quarantined.load(std::memory_order_relaxed)) {
    return std::nullopt;
  }
  const auto agent_ip = ref.ip;
  const std::uint64_t nonce = (*ctx.rng)();

  if (options_.crypto == CryptoMode::kFast) {
    // Identical message counts, protocol work elided.  A lost request means
    // the agent never hears the question; a lost response means the agent
    // answered but the requestor treats it as unreachable (§3.4.3).
    const auto to_agent = ctx.channel->request(net::EnvelopeType::kTrustRequest,
                                               requestor.ip(), entry.relay_path);
    ctx.trust_messages += to_agent.messages;
    if (!to_agent.ok) return std::nullopt;
    log_registration(ctx, agent_ip, requestor.node_id(),
                     requestor.identity().signature_public());
    const double value =
        rt->agent->trust_value(subject_id, subject_ip, *ctx.rng);
    if constexpr (obs::kEnabled) {
      static obs::Counter& votes =
          obs::Registry::global().counter("hirep.trust.votes_sent");
      votes.add();  // the agent answered, even if the response is then lost
    }
    onion::Onion fresh = issue_agent_onion(ctx, agent_ip, *rt);
    const auto to_peer = ctx.channel->request(net::EnvelopeType::kTrustResponse,
                                              agent_ip, requestor.relay_path());
    ctx.trust_messages += to_peer.messages;
    if (!to_peer.ok) return std::nullopt;
    if constexpr (check::kEnabled) {
      // Holder-side §3.3 invariant: within an entry's lifetime, the onion a
      // holder keeps for an issuer is only ever replaced by a fresher one.
      if (fresh.sq < entry.onion.sq) {
        check::report({"onion.sq.holder_monotone",
                       "refreshed onion sq " + std::to_string(fresh.sq) +
                           " < held sq " + std::to_string(entry.onion.sq),
                       -1.0, crypto::NodeIdHash{}(entry.agent_id),
                       requestor.ip()});
      }
    }
    entry.onion = std::move(fresh);
    entry.relay_path = path_of(rt->relays, agent_ip);
    return value;
  }

  // --- full crypto path ---
  auto onion_p = requestor.issue_onion(*ctx.rng);
  const TrustValueRequest request = build_trust_request(
      *ctx.rng, entry.agent_key, requestor.identity(), subject_id, nonce,
      std::move(onion_p));
  const auto to_agent =
      route_envelope(ctx, requestor.ip(), entry.onion, request.serialize(),
                     net::EnvelopeType::kTrustRequest);
  if (!to_agent.delivered || to_agent.destination != agent_ip) {
    return std::nullopt;
  }

  // Agent side.
  const auto parsed = TrustValueRequest::deserialize(to_agent.payload);
  if (!parsed) return std::nullopt;
  const auto opened = open_trust_request(rt->agent->identity(), *parsed);
  if (!opened) return std::nullopt;
  log_registration(ctx, agent_ip, crypto::node_id_of_cached(parsed->sp_p),
                   parsed->sp_p);
  const double value =
      rt->agent->trust_value(opened->subject, subject_ip, *ctx.rng);
  if constexpr (obs::kEnabled) {
    static obs::Counter& votes =
        obs::Registry::global().counter("hirep.trust.votes_sent");
    votes.add();  // the agent answered, even if the response is then lost
  }
  const TrustValueResponse response = build_trust_response(
      *ctx.rng, parsed->sp_p, rt->agent->identity(), value, opened->nonce,
      issue_agent_onion(ctx, agent_ip, *rt));
  const auto to_peer =
      route_envelope(ctx, agent_ip, parsed->reply_onion, response.serialize(),
                     net::EnvelopeType::kTrustResponse);
  if (!to_peer.delivered || to_peer.destination != requestor.ip()) {
    return std::nullopt;
  }

  // Back at the requestor.
  const auto parsed_resp = TrustValueResponse::deserialize(to_peer.payload);
  if (!parsed_resp) return std::nullopt;
  const auto opened_resp = open_trust_response(requestor.identity(), *parsed_resp);
  if (!opened_resp || opened_resp->nonce != nonce) return std::nullopt;
  if constexpr (check::kEnabled) {
    if (parsed_resp->report_onion.sq < entry.onion.sq) {
      check::report({"onion.sq.holder_monotone",
                     "refreshed onion sq " +
                         std::to_string(parsed_resp->report_onion.sq) +
                         " < held sq " + std::to_string(entry.onion.sq),
                     -1.0, crypto::NodeIdHash{}(entry.agent_id),
                     requestor.ip()});
    }
  }
  // Refresh the reply path with the agent's newest onion.
  entry.onion = parsed_resp->report_onion;
  entry.relay_path = path_of(rt->relays, agent_ip);
  return opened_resp->value;
}

HirepSystem::QueryResult HirepSystem::query_trust(TxnCtx& ctx,
                                                  net::NodeIndex requestor_ip,
                                                  net::NodeIndex subject_ip) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& queries =
        obs::Registry::global().counter("hirep.trust.queries");
    queries.add();
  }
  Peer& p = peers_.at(requestor_ip);
  const crypto::NodeId subject_id = identities_.at(subject_ip).node_id();

  QueryResult result;
  std::vector<crypto::NodeId> offline;
  for (auto& entry : p.agents().entries()) {
    ++result.contacted;
    const auto value =
        exchange_with_agent(ctx, p, entry, subject_ip, subject_id);
    AgentRuntime* rt = runtime_of(entry.agent_id);
    if (!value) {
      if (rt != nullptr) note_exchange_failure(*rt);
      offline.push_back(entry.agent_id);
      continue;
    }
    if (rt != nullptr) note_exchange_success(*rt);
    result.ratings.push_back({entry.agent_id, *value, entry.weight});
  }
  for (const auto& id : offline) p.agents().handle_offline(id);

  std::vector<std::pair<double, double>> vw;
  vw.reserve(result.ratings.size());
  for (const auto& r : result.ratings) vw.emplace_back(r.value, r.weight);
  result.estimate = Peer::aggregate(vw);

  // Graceful degradation: below the live-rating quorum the requestor stops
  // trusting the thinned community outright and falls back to (or blends
  // in) its own first-hand experience with the subject.
  if (options_.recovery.min_quorum > 0 &&
      result.ratings.size() < options_.recovery.min_quorum) {
    result.degraded = true;
    const auto local = p.first_hand(subject_id);
    if (local) {
      result.estimate = result.ratings.empty()
                            ? *local
                            : 0.5 * (result.estimate + *local);
    }
    recovery_tallies_.degraded_queries.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      static obs::Counter& degraded =
          obs::Registry::global().counter("hirep.recovery.degraded_queries");
      degraded.add();
    }
  }
  return result;
}

HirepSystem::QueryResult HirepSystem::query_trust(net::NodeIndex requestor_ip,
                                                  net::NodeIndex subject_ip) {
  return run_alone([&](TxnCtx& ctx) {
    return query_trust(ctx, requestor_ip, subject_ip);
  });
}

void HirepSystem::send_report(TxnCtx& ctx, Peer& reporter, AgentEntry& entry,
                              const crypto::NodeId& subject_id,
                              double outcome) {
  const AgentRef ref = resolve_agent(entry.agent_id);
  if (!ref || !agent_online_[ref.ip]) return;
  const TransactionReport report =
      build_report(reporter.identity(), subject_id, outcome, (*ctx.rng)());
  auto routed = route_envelope(ctx, reporter.ip(), entry.onion,
                               report.serialize(), net::EnvelopeType::kReport);
  if (!routed.delivered) return;
  ctx.writes->push_back({.agent_ip = ref.ip,
                         .kind = AgentWrite::Kind::kWireReport,
                         .wire = std::move(routed.payload)});
}

void HirepSystem::log_registration(TxnCtx& ctx, net::NodeIndex agent_ip,
                                   const crypto::NodeId& id,
                                   const crypto::RsaPublicKey& key) {
  if (agent_runtimes_[agent_ip].agent->lists_key(id, key)) return;
  ctx.writes->push_back({.agent_ip = agent_ip,
                         .kind = AgentWrite::Kind::kRegisterKey,
                         .id = id,
                         .key = key});
}

void HirepSystem::apply_write(const AgentWrite& write) {
  ReputationAgent& agent = *agent_runtimes_[write.agent_ip].agent;
  switch (write.kind) {
    case AgentWrite::Kind::kRegisterKey:
      agent.register_key(write.id, write.key);
      return;
    case AgentWrite::Kind::kReport:
      agent.accept_report(write.id, write.outcome);
      return;
    case AgentWrite::Kind::kWireReport: {
      const auto parsed = TransactionReport::deserialize(write.wire);
      if (!parsed) return;
      const auto sp = agent.lookup_key(parsed->reporter);
      if (!sp) return;  // unknown reporter: §3.5.3 drop
      const auto opened = verify_report(*sp, *parsed);
      if (!opened) return;  // bad signature: drop
      agent.accept_report(opened->subject, opened->outcome);
      return;
    }
  }
}

void HirepSystem::report_batch(TxnCtx& ctx, Peer& reporter,
                               const crypto::NodeId& subject_id,
                               double outcome) {
  // Fast-crypto fan-out: every §3.6 report of this transaction rides in
  // one envelope batch through the reliable channel.  Reports need no
  // acknowledgement — any copy that arrived is logged once — so logging
  // after the batch is equivalent to the per-entry sequential form.
  std::vector<net::ReliableChannel::BatchRequest> requests;
  std::vector<net::NodeIndex> targets;
  for (auto& entry : reporter.agents().entries()) {
    const AgentRef ref = resolve_agent(entry.agent_id);
    if (!ref || !agent_online_[ref.ip]) continue;
    requests.push_back({reporter.ip(), &entry.relay_path, {}});
    targets.push_back(ref.ip);
  }
  const auto routed =
      ctx.channel->request_batch(net::EnvelopeType::kReport, requests);
  for (std::size_t i = 0; i < routed.size(); ++i) {
    ctx.trust_messages += routed[i].messages;
    if (!routed[i].applied) continue;  // report lost: agent never learns
    ctx.writes->push_back({.agent_ip = targets[i],
                           .id = subject_id,
                           .outcome = outcome});
  }
}

HirepSystem::TransactionRecord HirepSystem::run_transaction() {
  const std::size_t population = peers_.size();
  const auto requestor = static_cast<net::NodeIndex>(rng_.below(population));
  // Candidate providers (paper default: one random candidate).
  net::NodeIndex provider = requestor;
  if (options_.provider_candidates <= 1) {
    while (provider == requestor) {
      provider = static_cast<net::NodeIndex>(rng_.below(population));
    }
    return run_transaction(requestor, provider);
  }
  // Multi-candidate selection: query each candidate, pick the best estimate.
  double best = -1.0;
  for (std::size_t i = 0; i < options_.provider_candidates; ++i) {
    net::NodeIndex candidate = requestor;
    while (candidate == requestor) {
      candidate = static_cast<net::NodeIndex>(rng_.below(population));
    }
    const auto q = query_trust(requestor, candidate);
    if (q.estimate > best) {
      best = q.estimate;
      provider = candidate;
    }
  }
  return run_transaction(requestor, provider);
}

HirepSystem::TransactionRecord HirepSystem::run_transaction(
    net::NodeIndex requestor, net::NodeIndex provider) {
  return run_alone([&](TxnCtx& ctx) {
    const QueryResult query = query_trust(ctx, requestor, provider);
    TransactionRecord record =
        complete_transaction(ctx, requestor, provider, query);
    record.trust_messages = ctx.trust_messages;
    return record;
  });
}

HirepSystem::TransactionRecord HirepSystem::complete_transaction(
    TxnCtx& ctx, net::NodeIndex requestor, net::NodeIndex provider,
    const QueryResult& query) {
  const std::uint64_t before = ctx.trust_messages;
  Peer& p = peers_.at(requestor);
  const crypto::NodeId subject_id = identities_.at(provider).node_id();

  TransactionRecord record;
  record.requestor = requestor;
  record.provider = provider;
  record.estimate = query.estimate;
  record.truth_value = truth_.true_trust(provider);
  record.responses = query.ratings.size();
  record.outcome = truth_.transaction_outcome(provider);
  p.note_transaction();
  p.note_outcome(subject_id, record.outcome);

  // Expertise update: A_c = 1 iff the agent's evaluation matched the result.
  for (const auto& rating : query.ratings) {
    p.agents().update_expertise(rating.agent,
                                Peer::consistent(rating.value, record.outcome));
  }

  // Signed transaction reports to all remaining trusted agents (§3.6).
  // Reports carry the reporter's *claimed* outcome: honest peers forward
  // the observation verbatim (bit-identical to the pre-hook path), while
  // adversary-recruited reporters — front peers, bad-mouthing rings — may
  // falsify it.  The peer's own first-hand memory and expertise updates
  // above keep the true observation: liars know the truth, they just
  // don't report it.
  const double reported =
      truth_.reported_outcome(requestor, provider, record.outcome);
  if (options_.crypto == CryptoMode::kFast) {
    report_batch(ctx, p, subject_id, reported);
  } else {
    for (auto& entry : p.agents().entries()) {
      send_report(ctx, p, entry, subject_id, reported);
    }
  }

  // Maintenance (§3.4.3).  Batched execution defers it to the wave barrier:
  // discovery touches peers outside this transaction's conflict set.  A
  // degraded query is itself a re-discovery trigger: the live community
  // has thinned below what the peer can work with.
  if (p.agents().needs_refill() || query.degraded) {
    if (ctx.defer_refill) {
      ctx.wants_refill = true;
    } else {
      refill(ctx, requestor);
    }
  }

  record.trust_messages = ctx.trust_messages - before;
  return record;
}

HirepSystem::TransactionRecord HirepSystem::complete_transaction(
    net::NodeIndex requestor, net::NodeIndex provider,
    const QueryResult& query) {
  return run_alone([&](TxnCtx& ctx) {
    return complete_transaction(ctx, requestor, provider, query);
  });
}

util::Rng HirepSystem::txn_stream(std::uint64_t index) const {
  // Distinct, decorrelated stream per transaction — the determinism
  // backbone of the scale engine: a transaction's draws depend only on
  // (options.seed, lifetime index), never on scheduling.
  std::uint64_t s = options_.seed ^ kTxnStreamSalt;
  s += (index + 1) * 0x9e3779b97f4a7c15ULL;
  return util::Rng(util::splitmix64(s));
}

std::vector<HirepSystem::TransactionRecord> HirepSystem::run_transactions(
    std::span<const std::pair<net::NodeIndex, net::NodeIndex>> pairs,
    const Executor& exec) {
  // Judge the policy actually installed, not just the configured kind: a
  // chaos wrapper (sim::ChaosDelivery) swapped in over an instant config
  // still drops and delays, so it forfeits concurrent execution.
  const bool instant =
      options_.delivery.policy == net::DeliveryPolicyKind::kInstant &&
      std::string_view(transport_.policy().name()) == "instant";
  if (exec.concurrent() && !instant) {
    throw std::invalid_argument(
        "run_transactions: sharded execution requires instant delivery "
        "(lossy/delayed/chaotic transports are order-dependent)");
  }
  if (exec.shards != 0 && exec.mode != ExecutionMode::kSharded) {
    throw std::invalid_argument(
        "run_transactions: shards requires ExecutionMode::kSharded");
  }
  for (const auto& [r, p] : pairs) {
    if (r >= peers_.size() || p >= peers_.size() || r == p) {
      throw std::invalid_argument(
          "run_transactions: invalid requestor/provider pair");
    }
  }
  if (!maintenance_rng_) {
    std::uint64_t s = options_.seed ^ kMaintenanceSalt;
    maintenance_rng_.emplace(util::splitmix64(s));
  }

  const bool sharded = exec.mode == ExecutionMode::kSharded;
  std::size_t shard_count = 1;
  if (sharded) {
    if (!pool_ || (exec.threads != 0 && pool_->size() != exec.threads)) {
      pool_ = std::make_unique<util::ThreadPool>(exec.threads);
    }
    // One lane per shard, keyed by shard id, stable across waves.  Lane
    // transports draw nothing under instant delivery, so the shard count
    // cannot perturb a single byte.
    shard_count = exec.shards != 0 ? exec.shards : pool_->size();
    while (lanes_.size() < shard_count) {
      lanes_.push_back(std::make_unique<net::Transport>(
          &overlay_, options_.delivery,
          options_.seed ^ (kLaneSeedSalt + lanes_.size())));
      lane_channels_.push_back(std::make_unique<net::ReliableChannel>(
          lanes_.back().get(), options_.reliable,
          options_.seed ^ (kChannelSeedSalt + lanes_.size())));
    }
  }

  std::vector<TransactionRecord> records(pairs.size());
  std::vector<std::uint8_t> wants_refill(pairs.size(), 0);
  if (wave_busy_.size() < peers_.size()) wave_busy_.resize(peers_.size(), 0);
  std::vector<std::size_t> wave;
  // Per-slice and per-member scratch, reused across waves (DESIGN.md §14):
  // wave member j logs its agent writes into write_slots[j].
  std::vector<std::vector<std::size_t>> slots;
  std::vector<std::vector<AgentWrite>> write_slots;
  std::vector<AgentWrite> writes;
  std::vector<std::uint32_t> write_order;
  std::vector<net::ReceiptGroup> write_groups;
  std::size_t next = 0;

  while (next < pairs.size()) {
    // Wave formation: the maximal conflict-free PREFIX of the remaining
    // transactions.  A transaction joins until one shows up whose
    // requestor or provider node is already claimed — those are the only
    // peers a transaction mutates, so wave members touch disjoint peer
    // state (agents are shared but read-only until the barrier, DESIGN
    // §9).  The prefix rule — rather than skipping ahead past conflicts —
    // keeps execution equivalent to strict index-order serial execution,
    // so splitting a batch at any boundary yields byte-identical records
    // (checkpointed experiments compose).
    wave.clear();
    std::size_t stop = next;
    for (; stop < pairs.size(); ++stop) {
      const auto [r, p] = pairs[stop];
      if (wave_busy_[r] || wave_busy_[p]) break;
      wave_busy_[r] = wave_busy_[p] = 1;
      wave.push_back(stop);
    }
    for (const std::size_t i : wave) {
      wave_busy_[pairs[i].first] = wave_busy_[pairs[i].second] = 0;
    }

    // One sq-clock tick for the whole wave.  A requestor appears once per
    // wave and lists each agent once, so no holder sees two onions of one
    // agent inside it: equal sqs there are harmless, and the next serial
    // point ticks past them however the wave was scheduled.
    const std::uint64_t wave_sq = ++sq_clock_;
    if (write_slots.size() < wave.size()) write_slots.resize(wave.size());

    // Slices: a transaction's home slice is its requestor's
    // `node % slices`, and ascending j keeps each slice in transaction
    // order.  The sharded engine fans a wave out to one slice per shard,
    // each on its own lane; the serial engine (and a one-transaction
    // wave, which has nothing to split) is the one-slice case on the
    // primary transport.
    const bool fan_out = sharded && wave.size() > 1;
    const std::size_t slices = fan_out ? shard_count : 1;
    slots.assign(slices, {});
    for (std::size_t j = 0; j < wave.size(); ++j) {
      slots[pairs[wave[j]].first % slices].push_back(j);
    }
    const auto each_slice = [&](std::size_t count, const auto& fn) {
      if (fan_out) {
        pool_->parallel_for(count, fn);
      } else {
        for (std::size_t s = 0; s < count; ++s) fn(s);
      }
    };

    each_slice(slices, [&](std::size_t s) {
      for (const std::size_t j : slots[s]) {
        const std::size_t i = wave[j];
        util::Rng rng = txn_stream(txn_counter_ + i);
        TxnCtx ctx;
        ctx.rng = &rng;
        ctx.transport = fan_out ? lanes_[s].get() : &transport_;
        ctx.channel = fan_out ? lane_channels_[s].get() : &reliable_;
        ctx.sq = wave_sq;
        ctx.defer_refill = true;
        ctx.writes = &write_slots[j];
        const auto [r, p] = pairs[i];
        const QueryResult query = query_trust(ctx, r, p);
        records[i] = complete_transaction(ctx, r, p, query);
        records[i].trust_messages = ctx.trust_messages;
        wants_refill[i] = ctx.wants_refill ? 1 : 0;
      }
    });

    // Barrier step 1 — apply the wave's agent writes: flatten the write
    // slots in j order, which is serial transaction order with each
    // transaction's writes in send order (registrations before the reports
    // that need them), then group by destination shard through the same
    // grouped-visit engine the envelope batches drain with.  Groups touch
    // disjoint agents, so they apply in parallel, each in serial order.
    writes.clear();
    std::uint64_t cross_shard = 0;
    for (std::size_t j = 0; j < wave.size(); ++j) {
      const std::size_t home = pairs[wave[j]].first % slices;
      for (AgentWrite& write : write_slots[j]) {
        cross_shard += write.kind != AgentWrite::Kind::kRegisterKey &&
                       write.agent_ip % slices != home;
        writes.push_back(std::move(write));
      }
      write_slots[j].clear();
    }
    if constexpr (obs::kEnabled) {
      if (cross_shard != 0) {
        static obs::Counter& cross_shard_reports = obs::Registry::global()
            .counter("hirep.engine.cross_shard_reports");
        cross_shard_reports.add(cross_shard);
      }
    }
    write_groups.clear();
    net::visit_groups(
        writes.size(), [](std::uint32_t) { return true; },
        [&](std::uint32_t w) {
          return static_cast<std::uint64_t>(writes[w].agent_ip) % slices;
        },
        write_order,
        [&](const net::ReceiptGroup& g) { write_groups.push_back(g); });
    each_slice(write_groups.size(), [&](std::size_t g) {
      for (const std::uint32_t w : write_groups[g].entries) {
        apply_write(writes[w]);
      }
    });

    if (fan_out) {
      // Barrier step 2 — fold lane envelope counters back into the primary
      // transport so its totals match a serial run, release each lane's
      // payload arena (batches never outlive a wave, so lane memory stays
      // flat), and align every shard's event clock to the latest shard
      // (a no-op under instant delivery, where clocks never move).
      double latest = transport_.sim().now();
      for (std::size_t s = 0; s < shard_count; ++s) {
        transport_.absorb_envelopes(*lanes_[s]);
        lanes_[s]->arena().reset();
        latest = std::max(latest, lanes_[s]->sim().now());
      }
      transport_.sim().advance_to(latest);
      for (std::size_t s = 0; s < shard_count; ++s) {
        lanes_[s]->sim().advance_to(latest);
      }
    }

    // Deferred §3.4.3 maintenance: serial, in transaction order, on its
    // own stream — refills never perturb any transaction's draws.  Runs
    // after the agent writes, so every report of a wave precedes every
    // refill of that wave.
    for (std::size_t j = 0; j < wave.size(); ++j) {
      const std::size_t i = wave[j];
      if (!wants_refill[i]) continue;
      TxnCtx ctx{.rng = &*maintenance_rng_,
                 .transport = &transport_,
                 .channel = &reliable_,
                 .sq = ++sq_clock_};
      refill(ctx, pairs[i].first);
    }
    next = stop;
  }
  txn_counter_ += pairs.size();
  return records;
}

std::uint64_t HirepSystem::trust_message_total() const {
  const auto& m = overlay_.metrics();
  return m.of(net::MessageKind::kTrustRequest) +
         m.of(net::MessageKind::kTrustResponse) +
         m.of(net::MessageKind::kReport) +
         m.of(net::MessageKind::kOnionRelay);
}

}  // namespace hirep::core
