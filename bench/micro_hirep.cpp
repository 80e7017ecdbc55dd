// Micro-benchmarks for the hiREP core: bootstrap, transactions in both
// crypto modes, trust queries, NodeId-keyed lookups, agent ranking,
// EigenTrust, and the fault path (chaos churn ticks, the at-most-once
// ledger).
#include <benchmark/benchmark.h>

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "hirep/system.hpp"
#include "net/reliable.hpp"
#include "sim/chaos.hpp"
#include "trust/eigentrust.hpp"

namespace {

using namespace hirep;

core::HirepOptions options(std::size_t nodes, core::CryptoMode mode) {
  core::HirepOptions o;
  o.nodes = nodes;
  o.rsa_bits = 64;
  o.crypto = mode;
  o.seed = 1;
  return o;
}

void BM_SystemBootstrapFast(benchmark::State& state) {
  for (auto _ : state) {
    core::HirepSystem system(
        options(static_cast<std::size_t>(state.range(0)), core::CryptoMode::kFast));
    benchmark::DoNotOptimize(system.agent_count());
  }
}
BENCHMARK(BM_SystemBootstrapFast)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_SystemBootstrapFullCrypto(benchmark::State& state) {
  for (auto _ : state) {
    core::HirepSystem system(
        options(static_cast<std::size_t>(state.range(0)), core::CryptoMode::kFull));
    benchmark::DoNotOptimize(system.agent_count());
  }
}
BENCHMARK(BM_SystemBootstrapFullCrypto)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_TransactionFast(benchmark::State& state) {
  core::HirepSystem system(options(500, core::CryptoMode::kFast));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.run_transaction());
  }
}
BENCHMARK(BM_TransactionFast)->Unit(benchmark::kMicrosecond);

void BM_TransactionFullCrypto(benchmark::State& state) {
  core::HirepSystem system(options(200, core::CryptoMode::kFull));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.run_transaction());
  }
}
BENCHMARK(BM_TransactionFullCrypto)->Unit(benchmark::kMillisecond);

void BM_QueryTrustFast(benchmark::State& state) {
  core::HirepSystem system(options(500, core::CryptoMode::kFast));
  net::NodeIndex subject = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.query_trust(0, subject));
    subject = (subject % 400) + 1;
  }
}
BENCHMARK(BM_QueryTrustFast)->Unit(benchmark::kMicrosecond);

// Cold NodeId-keyed lookups: an agent's key list and trust store, and the
// system's nodeId -> ip map, are probed once per trusted agent per query.
// Ids are visited in random order, so a large table misses cache the way a
// long run does.

std::vector<crypto::NodeId> random_ids(util::Rng& rng, std::size_t n) {
  std::vector<crypto::NodeId> ids(n);
  for (auto& id : ids) {
    for (auto& b : id.bytes) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return ids;
}

struct AgentTables {
  explicit AgentTables(std::size_t nodes) : rng(4), truth(rng, world(nodes)) {
    identities.push_back(crypto::Identity::generate(rng, 64));
    agent = std::make_unique<core::ReputationAgent>(
        &identities[0], 0, &truth, trust::ewma_model_factory(), 1);
  }
  static trust::WorldParams world(std::size_t nodes) {
    trust::WorldParams w;
    w.nodes = nodes;
    w.malicious_ratio = 0.0;
    return w;
  }

  util::Rng rng;
  trust::GroundTruth truth;
  std::deque<crypto::Identity> identities;
  std::unique_ptr<core::ReputationAgent> agent;
};

void BM_AgentTrustValue(benchmark::State& state) {
  const auto subjects = static_cast<std::size_t>(state.range(0));
  AgentTables t(subjects);
  const auto ids = random_ids(t.rng, subjects);
  for (const auto& id : ids) t.agent->accept_report(id, 1.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.agent->trust_value(
        ids[i], static_cast<net::NodeIndex>(i), t.rng));
    if (++i == ids.size()) i = 0;
  }
}
BENCHMARK(BM_AgentTrustValue)->ArgName("subjects")->Arg(100)->Arg(2000);

void BM_AgentRegisterKnownKey(benchmark::State& state) {
  constexpr std::size_t kRequestors = 2000;
  AgentTables t(kRequestors);
  std::vector<std::size_t> order(kRequestors);
  for (std::size_t v = 0; v < kRequestors; ++v) {
    t.identities.push_back(crypto::Identity::generate(t.rng, 64));
    t.agent->register_key(t.identities.back().node_id(),
                          t.identities.back().signature_public());
    order[v] = v + 1;
  }
  t.rng.shuffle(order);
  std::size_t i = 0;
  for (auto _ : state) {
    const crypto::Identity& id = t.identities[order[i]];
    benchmark::DoNotOptimize(
        t.agent->register_key(id.node_id(), id.signature_public()));
    if (++i == order.size()) i = 0;
  }
}
BENCHMARK(BM_AgentRegisterKnownKey);

/// One fast-crypto system per size, built on first use: the harness may
/// call a benchmark more than once per argument, and bootstrap dominates.
core::HirepSystem& cached_system(std::size_t nodes) {
  static std::map<std::size_t, std::unique_ptr<core::HirepSystem>> systems;
  auto& system = systems[nodes];
  if (!system) {
    system = std::make_unique<core::HirepSystem>(
        options(nodes, core::CryptoMode::kFast));
  }
  return *system;
}

void BM_IpOf(benchmark::State& state) {
  core::HirepSystem& system =
      cached_system(static_cast<std::size_t>(state.range(0)));
  std::vector<crypto::NodeId> ids;
  ids.reserve(system.node_count());
  for (const auto& identity : system.identities()) {
    ids.push_back(identity.node_id());
  }
  util::Rng rng(5);
  rng.shuffle(ids);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.ip_of(ids[i]));
    if (++i == ids.size()) i = 0;
  }
}
BENCHMARK(BM_IpOf)->ArgName("nodes")->Arg(2000)->Arg(20000);

// One tick of the chaos schedule at churn_faulty_2k's churn rates: a churn
// draw per live node plus the restarts that fall due.  The engine downs
// agents of the cached system and leaves them down; ip_of does not care.
void BM_ChaosStep(benchmark::State& state) {
  core::HirepSystem& system =
      cached_system(static_cast<std::size_t>(state.range(0)));
  sim::ChaosParams params;
  params.seed = 7;
  params.crash_rate = 0.0002;
  params.mean_downtime = 100;
  sim::ChaosEngine engine(&system, params, /*master_seed=*/1);
  std::uint64_t tick = 0;
  for (auto _ : state) engine.advance_to(++tick);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChaosStep)->ArgName("nodes")->Arg(2000)->Arg(20000);

// The at-most-once ledger as a retrying channel drives it: sequential
// request ids, one in eight a retransmission of one of the last 16, so the
// current generation fills and rotates every 4096 new ids.
void BM_DedupFirstApplication(benchmark::State& state) {
  util::Rng rng(6);
  std::vector<std::uint64_t> ids(1 << 16);
  std::uint64_t next = 0;
  for (auto& id : ids) {
    id = next > 16 && rng.below(8) == 0 ? next - 1 - rng.below(16) : next++;
  }
  net::DedupTable table;
  double now = 0.0;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.first_application(ids[i], now += 0.5));
    if (++i == ids.size()) i = 0;
  }
}
BENCHMARK(BM_DedupFirstApplication);

void BM_RankAndSelect(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<std::vector<core::AgentEntry>> lists;
  for (int l = 0; l < state.range(0); ++l) {
    std::vector<core::AgentEntry> list;
    for (int e = 0; e < 10; ++e) {
      core::AgentEntry entry;
      entry.agent_id.bytes[0] = static_cast<std::uint8_t>(rng.below(64));
      entry.agent_id.bytes[1] = static_cast<std::uint8_t>(l);
      entry.weight = rng.uniform();
      list.push_back(entry);
    }
    lists.push_back(std::move(list));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rank_and_select(lists, 10, rng));
  }
}
BENCHMARK(BM_RankAndSelect)->Arg(10)->Arg(100);

void BM_ExpertiseUpdate(benchmark::State& state) {
  core::ListParams params;
  params.capacity = 10;
  core::TrustedAgentList list(params);
  crypto::NodeId id;
  id.bytes[0] = 1;
  core::AgentEntry entry;
  entry.agent_id = id;
  list.add(entry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.update_expertise(id, true));
  }
}
BENCHMARK(BM_ExpertiseUpdate);

void BM_EigenTrustCompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  trust::EigenTrust et(n);
  for (std::size_t i = 0; i < n * 8; ++i) {
    et.add_local_trust(rng.below(n), rng.below(n), rng.uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(et.compute());
  }
}
BENCHMARK(BM_EigenTrustCompute)->Arg(100)->Arg(500)->Unit(benchmark::kMicrosecond);

}  // namespace
