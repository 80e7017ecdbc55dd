// HirepSystem — the public API facade wiring every substrate together:
// power-law overlay, per-node identities, onion routing, the reputation
// agent community, and the per-transaction hiREP protocol.
//
// Typical use (see examples/quickstart.cpp):
//
//   hirep::core::HirepOptions opts;
//   opts.nodes = 1000;
//   hirep::core::HirepSystem system(opts);
//   auto record = system.run_transaction();
//   // record.estimate vs record.truth_value, record.trust_messages, ...
//
// Crypto modes: kFull runs every onion layer, signature and encryption for
// real; kFast executes the identical protocol/state machine and counts the
// identical messages but skips the cipher work (large parameter sweeps).
//
// Scale engine: run_transactions() executes a pre-drawn batch of
// requestor/provider pairs in conflict-free waves, serially or split into
// shards on a thread pool.  Every transaction owns a deterministic RNG
// stream derived from (seed, index), so serial and sharded execution
// produce byte-identical records; see DESIGN.md §9 for the batching rule
// and the determinism argument, §14 for the shard barrier.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hirep/agent.hpp"
#include "hirep/discovery.hpp"
#include "hirep/execution.hpp"
#include "hirep/peer.hpp"
#include "hirep/protocol.hpp"
#include "net/overlay.hpp"
#include "net/reliable.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "onion/router.hpp"
#include "trust/ground_truth.hpp"
#include "util/thread_pool.hpp"

namespace hirep::core {

enum class CryptoMode {
  kFull,  ///< real RSA/onion work end to end
  kFast   ///< same protocol flow + message counts, ciphers skipped
};

struct HirepOptions {
  std::size_t nodes = 1000;        ///< network size (Table 1)
  double average_degree = 4.0;     ///< neighbors per node (Table 1)
  unsigned rsa_bits = 128;         ///< RSA modulus size (scale up at will)
  std::size_t trusted_agents = 10; ///< c — trusted agents per peer (Table 1)
  std::size_t onion_relays = 5;    ///< o — relays per onion (Table 1)
  std::uint32_t discovery_tokens = 10;  ///< token number (Table 1)
  std::uint32_t discovery_ttl = 7;      ///< agent-list request TTL (§3.4.1)
  double expertise_alpha = 0.3;    ///< EWMA alpha for agent expertise
  double eviction_threshold = 0.4; ///< hirep-4/6/8 = 0.4/0.6/0.8 (Figure 6)
  double refill_fraction = 0.5;    ///< refill when list < fraction*capacity
  std::size_t backup_capacity = 20;
  std::size_t provider_candidates = 1;  ///< candidates per query (paper: 1)
  std::string agent_model = "ewma";     ///< agent-side computation model
  /// Reports a good agent needs about a subject before it answers from its
  /// computation model instead of its own evaluation (§4.2.3).
  std::size_t min_reports_for_model = 1;
  CryptoMode crypto = CryptoMode::kFull;
  /// How protocol envelopes are delivered (instant / latency / faulty).
  net::DeliveryConfig delivery;
  /// Retry discipline for request/response traffic (trust requests,
  /// responses, reports, §3.4.3 probes).  The zero-retry default is
  /// call-for-call identical to bare transport sends, so it cannot perturb
  /// a single golden bit.
  net::ReliablePolicy reliable;
  /// §3.4.3 hardening: when the community gives up on an unresponsive
  /// agent, and when a query degrades to first-hand trust.
  struct RecoveryOptions {
    /// Consecutive failed exchanges (any requestor) before an agent is
    /// quarantined; re-entry then requires a fresh successful probe.
    std::uint32_t suspicion_threshold = 3;
    /// Degrade a query to local first-hand trust when fewer live agent
    /// ratings than this arrive; 0 disables degradation.
    std::size_t min_quorum = 0;
  };
  RecoveryOptions recovery;
  trust::WorldParams world;        ///< .nodes is overridden by `nodes`
  net::LatencyParams latency;
  std::uint64_t seed = 1;
};

class HirepSystem {
 public:
  explicit HirepSystem(HirepOptions options);

  const HirepOptions& options() const noexcept { return options_; }
  net::Overlay& overlay() noexcept { return overlay_; }
  const net::Overlay& overlay() const noexcept { return overlay_; }
  trust::GroundTruth& truth() noexcept { return truth_; }
  const trust::GroundTruth& truth() const noexcept { return truth_; }
  onion::Router& router() noexcept { return router_; }
  /// The typed message path every protocol interaction travels through.
  net::Transport& transport() noexcept { return transport_; }
  const net::Transport& transport() const noexcept { return transport_; }
  util::Rng& rng() noexcept { return rng_; }

  std::size_t node_count() const noexcept { return peers_.size(); }
  Peer& peer(net::NodeIndex v) { return peers_.at(v); }
  const Peer& peer(net::NodeIndex v) const { return peers_.at(v); }
  /// nullptr when node v is not a reputation agent.
  ReputationAgent* agent_at(net::NodeIndex v);
  std::size_t agent_count() const noexcept { return agent_count_; }
  /// A deque so references stay stable while peers join a running system.
  const std::deque<crypto::Identity>& identities() const noexcept {
    return identities_;
  }
  /// Reverse lookup nodeId -> overlay index (simulation-side only).
  std::optional<net::NodeIndex> ip_of(const crypto::NodeId& id) const;

  // -- agent community ------------------------------------------------------

  /// True when the node is a live reputation agent.
  bool agent_online(net::NodeIndex v) const;
  /// Takes an agent down / brings it back (churn & DoS experiments).
  void set_agent_online(net::NodeIndex v, bool online);

  /// True when the community currently quarantines agent v (too many
  /// consecutive failed exchanges; lifted only by a successful probe).
  bool agent_quarantined(net::NodeIndex v) const;
  /// Test/chaos hook: places agent v straight into quarantine.
  void quarantine_agent(net::NodeIndex v);

  /// The retry channel request/response traffic travels through.
  net::ReliableChannel& reliable() noexcept { return reliable_; }
  const net::ReliableChannel& reliable() const noexcept { return reliable_; }

  /// Failover bookkeeping, mirrored into the obs registry under
  /// hirep.recovery.* at count time.
  struct RecoveryCounters {
    std::uint64_t suspicions = 0;         ///< failed exchanges observed
    std::uint64_t quarantines = 0;        ///< agents placed in quarantine
    std::uint64_t probations_cleared = 0; ///< quarantines lifted by a probe
    std::uint64_t backup_promotions = 0;  ///< backup entries probed back in
    std::uint64_t rediscoveries = 0;      ///< refills that fell through to discovery
    std::uint64_t degraded_queries = 0;   ///< queries under the quorum floor
  };
  RecoveryCounters recovery_counters() const;

  /// The trusted-agent list a node shares with discovery requests; an agent
  /// with no list of its own answers with its self-entry (§3.4.1).
  std::vector<AgentEntry> shareable_list(net::NodeIndex v);

  /// Runs the token+TTL discovery walk for `peer_ip` and installs up to
  /// (capacity - current) newly selected agents.  Returns agents added.
  std::size_t discover_agents(net::NodeIndex peer_ip);

  /// §3.4.3 maintenance: probe the backup cache first, then re-discover.
  void refill(net::NodeIndex peer_ip);

  /// Open membership: a brand-new peer joins the RUNNING system — fresh
  /// identity (two key pairs), preferential-attachment links into the
  /// overlay, verified onion relays, agent-capability roll, and the
  /// §3.4.1 trusted-agent discovery.  Returns the new node's index.
  net::NodeIndex join_peer();

  /// §3.5 key rotation: peer v generates a fresh signature key pair and
  /// sends the old-key-signed announcement to every agent that knows it
  /// (via the freshest onions, as the paper prescribes).  Agents verify
  /// the announcement and migrate the public-key-list entry, so the peer
  /// keeps its standing under the new nodeId.  Returns the new nodeId.
  crypto::NodeId rotate_peer_key(net::NodeIndex v);

  // -- protocol -------------------------------------------------------------

  struct AgentRating {
    crypto::NodeId agent;
    double value = 0.0;
    double weight = 0.0;
  };
  struct QueryResult {
    double estimate = 0.5;
    std::vector<AgentRating> ratings;
    std::size_t contacted = 0;  ///< online agents queried
    /// Fewer live ratings than options.recovery.min_quorum arrived and the
    /// estimate fell back to (or blended with) local first-hand trust.
    bool degraded = false;
  };
  /// Full trust-value query: request -> every trusted agent -> responses,
  /// expertise-weighted aggregation.  Offline agents fall to backup.
  QueryResult query_trust(net::NodeIndex requestor_ip,
                          net::NodeIndex subject_ip);

  struct TransactionRecord {
    net::NodeIndex requestor = net::kInvalidNode;
    net::NodeIndex provider = net::kInvalidNode;
    double estimate = 0.5;     ///< aggregated pre-transaction trust estimate
    double truth_value = 0.0;  ///< the provider's true trust (0/1)
    double outcome = 0.0;      ///< observed transaction result
    std::size_t responses = 0; ///< agent ratings received
    std::uint64_t trust_messages = 0;  ///< messages this transaction spent
  };
  /// One full transaction between random peers (paper §3.6): query,
  /// download, expertise update, signed reports, maintenance.
  TransactionRecord run_transaction();
  TransactionRecord run_transaction(net::NodeIndex requestor,
                                    net::NodeIndex provider);

  /// Scale engine: executes a pre-drawn batch of requestor/provider pairs
  /// with the same per-transaction semantics as run_transaction(r, p).
  ///
  /// Each transaction draws from its own RNG stream derived from
  /// (options.seed, lifetime transaction index), never from rng(), so the
  /// result is a pure function of the transaction sequence: serial and
  /// sharded execution return byte-identical records, and splitting a
  /// sequence into consecutive batches (checkpointed experiments) yields
  /// the same records as one big batch.  Execution proceeds in
  /// conflict-free prefix waves — a wave grows while its transactions'
  /// requestor/provider nodes are all distinct.  Agents are read-only
  /// inside a wave; its key registrations and reports apply at the barrier
  /// in transaction order, then the deferred §3.4.3 refills run.
  ///
  /// Under ExecutionMode::kSharded, agents are partitioned into
  /// exec.shards shards by node index; each wave splits by the requestor's
  /// home shard, shards execute their slices on their own transport
  /// lane/arena/event queue, and the barrier applies each destination
  /// shard's writes on a pool thread (DESIGN.md §14).
  ///
  /// Throws std::invalid_argument on an out-of-range or requestor==provider
  /// pair, and when exec is concurrent while the delivery policy is not
  /// instant (lossy/delayed transports are inherently order-dependent).
  std::vector<TransactionRecord> run_transactions(
      std::span<const std::pair<net::NodeIndex, net::NodeIndex>> pairs,
      const Executor& exec = {});

  /// Second half of a transaction when the trust query already happened
  /// (e.g. the requestor compared several QueryHit candidates): download,
  /// expertise update, signed reports, maintenance.  `query` must be the
  /// result of query_trust(requestor, provider).  trust_messages covers
  /// only this call's traffic (the caller already paid for the query).
  TransactionRecord complete_transaction(net::NodeIndex requestor,
                                         net::NodeIndex provider,
                                         const QueryResult& query);

  /// Trust-related message count so far (requests+responses+reports+relay).
  std::uint64_t trust_message_total() const;

 private:
  /// Community-side failure bookkeeping for one agent.  Atomics: engine
  /// lanes note failures for shared agents concurrently, and
  /// increments/threshold-crossings commute, so the post-wave state is
  /// scheduling-independent.  Heap-allocated to keep AgentRuntime movable.
  struct AgentRecovery {
    std::atomic<std::uint32_t> suspicion{0};  ///< consecutive failures
    std::atomic<bool> quarantined{false};
  };

  /// One node's agent-side state.  Transactions only read `agent`; its
  /// writes go through the write log (AgentWrite), so a wave may share an
  /// agent between lanes without a lock.
  struct AgentRuntime {
    std::unique_ptr<ReputationAgent> agent;  ///< null: node is not an agent
    std::vector<onion::RelayInfo> relays;
    std::unique_ptr<AgentRecovery> recovery;  ///< allocated for agents only
  };

  /// A resolved agent: the runtime record plus its overlay index, from one
  /// nodeId lookup.
  struct AgentRef {
    AgentRuntime* rt = nullptr;  ///< null: unknown id or not an agent
    net::NodeIndex ip = net::kInvalidNode;  ///< set for any known id
    explicit operator bool() const noexcept { return rt != nullptr; }
  };
  AgentRef resolve_agent(const crypto::NodeId& id);
  AgentRuntime* runtime_of(const crypto::NodeId& id) {
    return resolve_agent(id).rt;
  }
  /// Installs agent state for node v (relays shared with its peer).
  void make_agent(net::NodeIndex v, const crypto::Identity* identity);

  /// One write a transaction makes to an agent's state.  Its wire traffic
  /// already happened on the transaction's lane; the write itself is
  /// logged in send order and applied after the transaction body — at the
  /// wave barrier, in transaction order (DESIGN.md §14.3).
  struct AgentWrite {
    enum class Kind : std::uint8_t {
      kRegisterKey,  ///< list `key` under `id` (first trust request)
      kReport,       ///< fast crypto: record `outcome` about subject `id`
      kWireReport,   ///< full crypto: verify, then accept, the report `wire`
    };
    net::NodeIndex agent_ip = net::kInvalidNode;
    Kind kind = Kind::kReport;
    crypto::NodeId id{};
    double outcome = 0.0;
    crypto::RsaPublicKey key{};
    util::Bytes wire{};
  };

  /// Everything one in-flight transaction threads through the protocol
  /// stack: its RNG stream, the transport lane it sends on, the onion
  /// sequence number its agents issue under, and its own
  /// message/maintenance accounting.
  struct TxnCtx {
    util::Rng* rng = nullptr;
    net::Transport* transport = nullptr;
    /// Retry channel over `transport`; carries trust requests/responses,
    /// reports, and §3.4.3 probes (discovery walks and key handshakes stay
    /// on the bare transport — they are not request/response exchanges).
    net::ReliableChannel* channel = nullptr;
    /// The sq of every agent onion issued under this context: one tick of
    /// sq_clock_, taken at the serial point that made the context.
    std::uint64_t sq = 0;
    /// Transmissions under kTrustRequest/kTrustResponse/kReport kinds —
    /// the same buckets trust_message_total() sums globally.
    std::uint64_t trust_messages = 0;
    /// Engine mode: record that a refill is due instead of running it
    /// inside the wave (it mutates shared discovery state).
    bool defer_refill = false;
    bool wants_refill = false;
    /// This transaction's agent writes, appended in send order.
    std::vector<AgentWrite>* writes = nullptr;
  };
  /// Runs `body(ctx)` as a single transaction outside any wave — on the
  /// primary transport and rng(), under its own sq-clock tick — then
  /// applies its write log.
  template <typename Body>
  auto run_alone(Body&& body);
  /// The (seed, index)-derived RNG stream for lifetime transaction `index`.
  util::Rng txn_stream(std::uint64_t index) const;

  /// Full-crypto envelope routing: enumerates the onion's relay hops
  /// (Router::peel_path) and carries `wire` along them through the
  /// transport, so drops/delays/duplication apply per hop.
  struct RoutedEnvelope {
    bool delivered = false;
    net::NodeIndex destination = net::kInvalidNode;
    util::Bytes payload;
  };
  RoutedEnvelope route_envelope(TxnCtx& ctx, net::NodeIndex sender,
                                const onion::Onion& onion, util::Bytes wire,
                                net::EnvelopeType type);

  onion::Onion issue_agent_onion(TxnCtx& ctx, net::NodeIndex agent_ip,
                                 AgentRuntime& rt);
  AgentEntry self_entry(TxnCtx& ctx, net::NodeIndex agent_ip, AgentRuntime& rt);
  std::vector<AgentEntry> shareable_list(TxnCtx& ctx, net::NodeIndex v);
  std::size_t discover_agents(TxnCtx& ctx, net::NodeIndex peer_ip);
  void refill(TxnCtx& ctx, net::NodeIndex peer_ip);
  std::vector<onion::RelayInfo> pick_and_verify_relays(net::NodeIndex owner);
  std::vector<net::NodeIndex> path_of(const std::vector<onion::RelayInfo>& relays,
                                      net::NodeIndex owner) const;

  /// Runs one request/response round with a single agent entry; returns the
  /// rating, or nullopt when the agent is offline/unreachable (the entry is
  /// then handled per §3.4.3).  Updates entry.onion to the fresh Onion_e.
  std::optional<double> exchange_with_agent(TxnCtx& ctx, Peer& requestor,
                                            AgentEntry& entry,
                                            net::NodeIndex subject_ip,
                                            const crypto::NodeId& subject_id);

  /// Full-crypto §3.6 report to one trusted agent: a signed envelope
  /// routed over the agent's onion.  (Fast crypto sends report_batch.)
  void send_report(TxnCtx& ctx, Peer& reporter, AgentEntry& entry,
                   const crypto::NodeId& subject_id, double outcome);

  /// Logs a registration unless the agent already lists `key` under `id`.
  void log_registration(TxnCtx& ctx, net::NodeIndex agent_ip,
                        const crypto::NodeId& id,
                        const crypto::RsaPublicKey& key);
  /// Applies one logged write.  A full-crypto report takes the receiving
  /// agent's §3.5.3 path: deserialize, lookup_key, verify, accept;
  /// malformed, unknown-reporter and bad-signature reports are dropped.
  void apply_write(const AgentWrite& write);

  /// Fast-crypto §3.6 fan-out: all of one transaction's reports in one
  /// envelope batch through ctx.channel.
  void report_batch(TxnCtx& ctx, Peer& reporter,
                    const crypto::NodeId& subject_id, double outcome);

  /// Suspicion ladder: a failed exchange bumps the agent's counter and
  /// quarantines it at the threshold; a success resets the counter.
  void note_exchange_failure(AgentRuntime& rt);
  void note_exchange_success(AgentRuntime& rt);
  /// Single admission point for trusted-list entries; runs the
  /// hirep.quarantine.fresh_probe gate (a quarantined agent may only enter
  /// via a fresh successful probe).
  bool admit_entry(Peer& p, AgentEntry entry, bool fresh_probe);

  QueryResult query_trust(TxnCtx& ctx, net::NodeIndex requestor_ip,
                          net::NodeIndex subject_ip);
  TransactionRecord complete_transaction(TxnCtx& ctx, net::NodeIndex requestor,
                                         net::NodeIndex provider,
                                         const QueryResult& query);

  HirepOptions options_;
  util::Rng rng_;
  trust::GroundTruth truth_;
  net::Overlay overlay_;
  net::Transport transport_;
  net::ReliableChannel reliable_;  ///< retry channel over transport_
  std::deque<crypto::Identity> identities_;  // reference-stable on growth
  onion::Router router_;
  std::vector<Peer> peers_;
  /// Flat agent storage, one slot per node (agent == nullptr for non-agent
  /// nodes): index-based hot-path lookups instead of map pointer chasing.
  std::vector<AgentRuntime> agent_runtimes_;
  /// Per-node liveness, split out of AgentRuntime so the engine's hottest
  /// check touches one dense array instead of striding 100+-byte runtime
  /// records.
  std::vector<std::uint8_t> agent_online_; ///< 1 = live agent (0 otherwise)
  std::size_t agent_count_ = 0;
  /// Reverse nodeId -> index mapping; updated on join/rotation, never
  /// iterated.
  std::unordered_map<crypto::NodeId, net::NodeIndex, crypto::NodeIdHash>
      id_to_ip_;

  /// Onion sequence clock (§3.3 only needs sq non-decreasing per owner).
  /// It ticks at serial points only: once per wave, shared by all its
  /// transactions, once per run_alone call and once per deferred refill.
  std::uint64_t sq_clock_ = 0;

  // -- scale-engine state ---------------------------------------------------
  std::uint64_t txn_counter_ = 0;  ///< lifetime transactions batched so far
  /// Wave-formation marks, one per peer: all zero between waves, because
  /// each wave clears exactly the marks it set, so a call costs O(batch),
  /// not O(peers).
  std::vector<std::uint8_t> wave_busy_;
  /// Stream for deferred §3.4.3 maintenance (separate salt, so refills do
  /// not perturb any transaction's stream); created on first batch.
  std::optional<util::Rng> maintenance_rng_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< lazily created, persistent
  /// One transport lane per shard, all over the shared overlay; envelope
  /// counters fold back into transport_ at each wave barrier.
  std::vector<std::unique_ptr<net::Transport>> lanes_;
  /// One retry channel per lane (jitter streams stay per-lane).
  std::vector<std::unique_ptr<net::ReliableChannel>> lane_channels_;

  /// Failover tallies; atomics because lanes note failures concurrently.
  struct RecoveryTallies {
    std::atomic<std::uint64_t> suspicions{0};
    std::atomic<std::uint64_t> quarantines{0};
    std::atomic<std::uint64_t> probations_cleared{0};
    std::atomic<std::uint64_t> backup_promotions{0};
    std::atomic<std::uint64_t> rediscoveries{0};
    std::atomic<std::uint64_t> degraded_queries{0};
  };
  RecoveryTallies recovery_tallies_;
};

}  // namespace hirep::core
