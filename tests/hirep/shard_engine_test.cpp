// The sharded scale engine's acceptance bar (DESIGN.md §14): a K-shard run
// must be byte-identical to the serial reference — records, message
// totals, envelope counters, protocol-level obs counters, and every
// agent's key list and report tallies — across many seeds and shard
// counts, including workloads where every transaction crosses a shard
// boundary.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "hirep/system.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace hirep {
namespace {

using core::Executor;
using core::HirepOptions;
using core::HirepSystem;
using Record = core::HirepSystem::TransactionRecord;
using Pair = std::pair<net::NodeIndex, net::NodeIndex>;

HirepOptions fast_options(std::uint64_t seed, std::size_t nodes) {
  HirepOptions opts;
  opts.nodes = nodes;
  opts.crypto = core::CryptoMode::kFast;
  opts.seed = seed;
  return opts;
}

std::vector<Pair> draw_pairs(std::uint64_t seed, std::size_t nodes,
                             std::size_t count) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<Pair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const auto r = static_cast<net::NodeIndex>(rng.below(nodes));
    const auto p = static_cast<net::NodeIndex>(rng.below(nodes));
    if (r != p) pairs.emplace_back(r, p);
  }
  return pairs;
}

/// At least `count` pairs whose conflict-free prefix waves all hold
/// exactly `wave` transactions.  Every node within a block of `wave` pairs
/// is distinct, and each block opens with the previous block's first
/// provider as its requestor, which ends the previous wave there.
std::vector<Pair> forced_wave_pairs(std::uint64_t seed, std::size_t nodes,
                                    std::size_t wave, std::size_t count) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<Pair> pairs;
  net::NodeIndex carry = net::kInvalidNode;
  while (pairs.size() < count) {
    std::vector<std::uint8_t> used(nodes, 0);
    const auto fresh = [&] {
      auto v = static_cast<net::NodeIndex>(rng.below(nodes));
      while (used[v]) v = static_cast<net::NodeIndex>(rng.below(nodes));
      used[v] = 1;
      return v;
    };
    for (std::size_t j = 0; j < wave; ++j) {
      net::NodeIndex r;
      if (j == 0 && carry != net::kInvalidNode) {
        r = carry;
        used[r] = 1;
      } else {
        r = fresh();
      }
      pairs.emplace_back(r, fresh());
    }
    carry = pairs[pairs.size() - wave].second;
  }
  return pairs;
}

/// The engine's wave rule (DESIGN.md §9), restated: a wave is the longest
/// prefix of the remaining pairs in which no node appears twice.
std::vector<std::size_t> prefix_wave_sizes(std::span<const Pair> pairs) {
  std::vector<std::size_t> sizes;
  std::size_t next = 0;
  while (next < pairs.size()) {
    std::vector<net::NodeIndex> claimed;
    std::size_t stop = next;
    for (; stop < pairs.size(); ++stop) {
      const auto [r, p] = pairs[stop];
      if (std::find(claimed.begin(), claimed.end(), r) != claimed.end() ||
          std::find(claimed.begin(), claimed.end(), p) != claimed.end()) {
        break;
      }
      claimed.push_back(r);
      claimed.push_back(p);
    }
    sizes.push_back(stop - next);
    next = stop;
  }
  return sizes;
}

void expect_records_identical(const std::vector<Record>& a,
                              const std::vector<Record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].requestor, b[i].requestor);
    EXPECT_EQ(a[i].provider, b[i].provider);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].estimate),
              std::bit_cast<std::uint64_t>(b[i].estimate));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].truth_value),
              std::bit_cast<std::uint64_t>(b[i].truth_value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].outcome),
              std::bit_cast<std::uint64_t>(b[i].outcome));
    EXPECT_EQ(a[i].responses, b[i].responses);
    EXPECT_EQ(a[i].trust_messages, b[i].trust_messages);
  }
}

/// One agent's state as the determinism contract sees it: the size of its
/// public-key list and, for every node id, how many reports it holds.
struct AgentState {
  net::NodeIndex ip = net::kInvalidNode;
  std::size_t keys = 0;
  std::vector<std::size_t> reports;
};

std::vector<AgentState> agent_states(HirepSystem& system) {
  std::vector<AgentState> states;
  for (std::size_t v = 0; v < system.node_count(); ++v) {
    const auto ip = static_cast<net::NodeIndex>(v);
    const core::ReputationAgent* agent = system.agent_at(ip);
    if (agent == nullptr) continue;
    AgentState state{ip, agent->key_list_size(), {}};
    for (const auto& identity : system.identities()) {
      state.reports.push_back(agent->report_count(identity.node_id()));
    }
    states.push_back(std::move(state));
  }
  return states;
}

void expect_agent_states_identical(const std::vector<AgentState>& a,
                                   const std::vector<AgentState>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("agent " + std::to_string(a[k].ip));
    EXPECT_EQ(a[k].ip, b[k].ip);
    EXPECT_EQ(a[k].keys, b[k].keys);
    EXPECT_EQ(a[k].reports, b[k].reports);
  }
}

/// Everything one engine run leaves behind that the determinism contract
/// covers: the record stream, message totals, per-type envelope counters,
/// the protocol-level obs counters, every agent's state, every held onion
/// sq, and the invariant violations the run raised.
struct RunTrace {
  std::vector<Record> records;
  std::uint64_t trust_messages = 0;
  std::uint64_t overlay_total = 0;
  std::vector<net::EnvelopeMetrics::Counters> envelopes;
  /// hirep.* counters except hirep.engine.* (cross-shard bookkeeping is
  /// engine-internal and legitimately differs between engines).
  std::vector<obs::Snapshot::CounterEntry> protocol_counters;
  /// Catches a dropped or duplicated write that no record shows, e.g. a
  /// report about a subject that is never queried again.
  std::vector<AgentState> agents;
  /// Each peer's held onion sqs, entry by entry.
  std::vector<std::vector<std::uint64_t>> held_sqs;
  /// Growth of the global check::violation_count() over the run (a
  /// ScopedCapture is not safe under concurrent slices).
  std::size_t violations = 0;
};

/// Quarantines the first listed agent of every `every`-th requestor in
/// `pairs`.  The agents stay online, so exchanges skip them mid-list.
void quarantine_listed_agents(HirepSystem& system, std::span<const Pair> pairs,
                              std::size_t every) {
  for (std::size_t i = 0; i < pairs.size(); i += every) {
    const auto& entries = system.peer(pairs[i].first).agents().entries();
    if (entries.empty()) continue;
    const auto ip = system.ip_of(entries.front().agent_id);
    if (ip && system.agent_online(*ip)) system.quarantine_agent(*ip);
  }
}

RunTrace run_trace(const HirepOptions& opts, std::span<const Pair> pairs,
                   const Executor& exec, std::size_t quarantine_every = 0) {
  if constexpr (obs::kEnabled) obs::Registry::global().reset();
  HirepSystem system(opts);
  if (quarantine_every != 0) {
    quarantine_listed_agents(system, pairs, quarantine_every);
  }
  RunTrace trace;
  const std::size_t violations_before = check::violation_count();
  trace.records = system.run_transactions(pairs, exec);
  trace.violations = check::violation_count() - violations_before;
  trace.trust_messages = system.trust_message_total();
  trace.overlay_total = system.overlay().metrics().total();
  const auto count = static_cast<std::size_t>(net::EnvelopeType::kCount);
  for (std::size_t t = 0; t < count; ++t) {
    trace.envelopes.push_back(
        system.transport().envelopes().of(static_cast<net::EnvelopeType>(t)));
  }
  if constexpr (obs::kEnabled) {
    for (auto& entry : obs::Registry::global().snapshot().counters) {
      if (entry.name.rfind("hirep.", 0) != 0) continue;
      if (entry.name.rfind("hirep.engine.", 0) == 0) continue;
      trace.protocol_counters.push_back(std::move(entry));
    }
  }
  trace.agents = agent_states(system);
  for (std::size_t v = 0; v < system.node_count(); ++v) {
    std::vector<std::uint64_t> sqs;
    for (const auto& entry :
         system.peer(static_cast<net::NodeIndex>(v)).agents().entries()) {
      sqs.push_back(entry.onion.sq);
    }
    trace.held_sqs.push_back(std::move(sqs));
  }
  return trace;
}

void expect_traces_identical(const RunTrace& serial, const RunTrace& other) {
  expect_records_identical(serial.records, other.records);
  EXPECT_EQ(serial.trust_messages, other.trust_messages);
  EXPECT_EQ(serial.overlay_total, other.overlay_total);
  ASSERT_EQ(serial.envelopes.size(), other.envelopes.size());
  for (std::size_t t = 0; t < serial.envelopes.size(); ++t) {
    SCOPED_TRACE("envelope type " + std::to_string(t));
    const auto& a = serial.envelopes[t];
    const auto& b = other.envelopes[t];
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.hop_messages, b.hop_messages);
    EXPECT_EQ(a.payload_bytes_sent, b.payload_bytes_sent);
    EXPECT_EQ(a.payload_bytes_delivered, b.payload_bytes_delivered);
  }
  ASSERT_EQ(serial.protocol_counters.size(), other.protocol_counters.size());
  for (std::size_t i = 0; i < serial.protocol_counters.size(); ++i) {
    EXPECT_EQ(serial.protocol_counters[i].name,
              other.protocol_counters[i].name);
    EXPECT_EQ(serial.protocol_counters[i].value,
              other.protocol_counters[i].value)
        << serial.protocol_counters[i].name;
  }
  expect_agent_states_identical(serial.agents, other.agents);
  EXPECT_EQ(serial.held_sqs, other.held_sqs);
  EXPECT_EQ(serial.violations, 0u);
  EXPECT_EQ(other.violations, 0u);
}

TEST(ShardEngine, ShardedMatchesSerialAcrossSeedsAndShardCounts) {
  // The pinned golden property: for >= 20 seeds and K in {2, 4, 7}, the
  // K-shard engine reproduces the serial reference to the bit.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto opts = fast_options(seed, 96);
    const auto pairs = draw_pairs(seed, opts.nodes, 48);
    const auto serial = run_trace(opts, pairs, Executor::serial());
    for (std::size_t shards : {2UL, 4UL, 7UL}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " shards " +
                   std::to_string(shards));
      const auto sharded =
          run_trace(opts, pairs, Executor::sharded(shards, 2));
      expect_traces_identical(serial, sharded);
    }
  }
}

TEST(ShardEngine, EveryTransactionCrossingShardsStaysIdentical) {
  // Boundary stress: requestor and provider always live on different
  // shards (r % K != p % K for K = 4), and the tiny network guarantees
  // most trusted agents are foreign too, so most barrier writes cross a
  // shard boundary.
  constexpr std::size_t kShards = 4;
  const auto opts = fast_options(23, 64);
  util::Rng rng(0xcafef00dULL);
  std::vector<Pair> pairs;
  while (pairs.size() < 96) {
    const auto r = static_cast<net::NodeIndex>(rng.below(opts.nodes));
    const auto p = static_cast<net::NodeIndex>(rng.below(opts.nodes));
    if (r == p || r % kShards == p % kShards) continue;
    pairs.emplace_back(r, p);
  }

  const auto serial = run_trace(opts, pairs, Executor::serial());
  if constexpr (obs::kEnabled) obs::Registry::global().reset();
  HirepSystem sharded_system(opts);
  const auto sharded_records =
      sharded_system.run_transactions(pairs, Executor::sharded(kShards, 4));
  expect_records_identical(serial.records, sharded_records);
  EXPECT_EQ(serial.trust_messages, sharded_system.trust_message_total());
  expect_agent_states_identical(serial.agents, agent_states(sharded_system));
  if constexpr (obs::kEnabled) {
    // The exchange actually exercised the cross-shard path.
    EXPECT_GT(obs::Registry::global()
                  .counter("hirep.engine.cross_shard_reports")
                  .value(),
              0);
  }
}

TEST(ShardEngine, ShardedMatchesSerialFullCrypto) {
  // Every other requestor finds its first listed agent quarantined, so
  // the exchanges skip an online agent before the others issue onions.
  HirepOptions opts;
  opts.nodes = 48;
  opts.crypto = core::CryptoMode::kFull;
  opts.seed = 3;
  const auto pairs = draw_pairs(3, opts.nodes, 8);
  expect_traces_identical(run_trace(opts, pairs, Executor::serial(), 2),
                          run_trace(opts, pairs, Executor::sharded(3, 2), 2));
}

TEST(ShardEngine, EqualWaveWindowsCompareAcrossEngines) {
  // Wave size sets how much each barrier exchanges and when deferred
  // maintenance runs.  Pair streams built to force waves of exactly 1, 5
  // and 16 transactions must still give serial and sharded runs that
  // agree to the bit.
  const auto opts = fast_options(31, 96);
  for (std::size_t wave : {1UL, 5UL, 16UL}) {
    SCOPED_TRACE("wave " + std::to_string(wave));
    const auto pairs = forced_wave_pairs(31 + wave, opts.nodes, wave, 64);
    const auto waves = prefix_wave_sizes(pairs);
    ASSERT_GT(waves.size(), 1u);
    for (const std::size_t size : waves) EXPECT_EQ(size, wave);

    const auto serial = run_trace(opts, pairs, Executor::serial());
    const auto sharded = run_trace(opts, pairs, Executor::sharded(4, 2));
    expect_traces_identical(serial, sharded);
  }
}

TEST(ShardEngine, CheckpointedShardedBatchesCompose) {
  // Splitting a sharded run into consecutive batches (experiment
  // checkpointing) yields the same records as one big batch.
  const auto opts = fast_options(17, 96);
  const auto pairs = draw_pairs(17, opts.nodes, 60);

  HirepSystem whole(opts);
  HirepSystem chunked(opts);
  const auto whole_records =
      whole.run_transactions(pairs, Executor::sharded(4, 2));
  std::vector<Record> chunk_records;
  for (std::size_t at = 0; at < pairs.size(); at += 20) {
    const std::size_t n = std::min<std::size_t>(20, pairs.size() - at);
    const auto part = chunked.run_transactions(
        std::span(pairs).subspan(at, n), Executor::sharded(4, 2));
    chunk_records.insert(chunk_records.end(), part.begin(), part.end());
  }
  expect_records_identical(whole_records, chunk_records);
  EXPECT_EQ(whole.trust_message_total(), chunked.trust_message_total());
}

TEST(ShardEngine, ShardedRequiresInstantDeliveryAndShardedMode) {
  auto opts = fast_options(1, 64);
  opts.delivery.policy = net::DeliveryPolicyKind::kFaulty;
  HirepSystem faulty(opts);
  const std::vector<Pair> pairs = {{0, 1}};
  EXPECT_THROW(faulty.run_transactions(pairs, Executor::sharded(2)),
               std::invalid_argument);

  // A shard count on the serial executor is rejected at the engine too
  // (Executor::validate would have caught it earlier on the Scenario path).
  HirepSystem instant(fast_options(1, 64));
  Executor misplaced = Executor::serial();
  misplaced.shards = 2;
  EXPECT_THROW(instant.run_transactions(pairs, misplaced),
               std::invalid_argument);
}

class WriteLogOrder : public ::testing::TestWithParam<core::CryptoMode> {};

TEST_P(WriteLogOrder, FirstContactRegistersBeforeItsReports) {
  // A fresh system lists no keys, so every trust request below is a first
  // contact.  Under full crypto, a report verifies only against the key
  // its own transaction registered, so the write log must apply that
  // registration first: in a multi-transaction wave (serial or sharded)
  // and in single run_transaction calls alike.
  HirepOptions opts = fast_options(7, 48);
  opts.crypto = GetParam();
  const auto pairs = forced_wave_pairs(7, opts.nodes, 6, 6);
  ASSERT_EQ(prefix_wave_sizes(pairs), std::vector<std::size_t>{6});

  enum class Run { kSerialWave, kShardedWave, kOneCallEach };
  for (const Run run :
       {Run::kSerialWave, Run::kShardedWave, Run::kOneCallEach}) {
    SCOPED_TRACE("run " + std::to_string(static_cast<int>(run)));
    HirepSystem system(opts);
    for (std::size_t v = 0; v < system.node_count(); ++v) {
      const auto* agent = system.agent_at(static_cast<net::NodeIndex>(v));
      if (agent != nullptr) {
        ASSERT_EQ(agent->key_list_size(), 0u);
      }
    }
    // Each requestor's trusted agents as the transaction finds them.
    std::vector<std::vector<net::NodeIndex>> contacted(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& entries = system.peer(pairs[i].first).agents().entries();
      for (const auto& entry : entries) {
        const auto ip = system.ip_of(entry.agent_id);
        ASSERT_TRUE(ip.has_value());
        ASSERT_TRUE(system.agent_online(*ip));
        ASSERT_EQ(system.agent_at(*ip)->report_count(
                      system.identities()[pairs[i].second].node_id()),
                  0u);
        contacted[i].push_back(*ip);
      }
    }

    if (run == Run::kOneCallEach) {
      for (const auto& [r, p] : pairs) system.run_transaction(r, p);
    } else {
      system.run_transactions(pairs, run == Run::kSerialWave
                                         ? Executor::serial()
                                         : Executor::sharded(3, 2));
    }

    std::size_t reports_checked = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& requestor = system.identities()[pairs[i].first];
      const auto& provider_id = system.identities()[pairs[i].second].node_id();
      for (const net::NodeIndex ip : contacted[i]) {
        SCOPED_TRACE("txn " + std::to_string(i) + " agent " +
                     std::to_string(ip));
        const core::ReputationAgent& agent = *system.agent_at(ip);
        EXPECT_EQ(agent.lookup_key(requestor.node_id()),
                  requestor.signature_public());
        // Poor agents drop evidence (§4.2.3); good ones keep every report.
        if (system.truth().poor_evaluator(ip)) continue;
        EXPECT_EQ(agent.report_count(provider_id), 1u);
        ++reports_checked;
      }
    }
    EXPECT_GT(reports_checked, pairs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Crypto, WriteLogOrder,
    ::testing::Values(core::CryptoMode::kFast, core::CryptoMode::kFull),
    [](const ::testing::TestParamInfo<core::CryptoMode>& info) {
      return info.param == core::CryptoMode::kFast ? std::string("fast")
                                                   : std::string("full");
    });

}  // namespace
}  // namespace hirep
