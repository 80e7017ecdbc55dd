// Property tests for the batched transaction engine: concurrent (sharded)
// execution must be byte-identical to serial execution (DESIGN.md §9,
// §14), batches must compose, and invalid inputs must be rejected up
// front.
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hirep/system.hpp"
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

// Byte-level equality: doubles are compared by bit pattern, so the test
// fails on any drift a tolerance-based comparison would mask.
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

TEST(ScaleEngine, ParallelMatchesSerialFastCrypto) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    for (std::size_t threads : {2UL, 4UL}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      const auto opts = fast_options(seed, 200);
      const auto pairs = draw_pairs(seed, opts.nodes, 80);

      HirepSystem serial(opts);
      HirepSystem sharded(opts);
      const auto serial_records =
          serial.run_transactions(pairs, Executor::serial());
      const auto sharded_records = sharded.run_transactions(
          pairs, Executor::sharded(threads, threads));

      expect_records_identical(serial_records, sharded_records);
      EXPECT_EQ(serial.trust_message_total(), sharded.trust_message_total());
    }
  }
}

TEST(ScaleEngine, ParallelMatchesSerialFullCrypto) {
  const HirepOptions opts = [] {
    HirepOptions o;
    o.nodes = 48;
    o.crypto = core::CryptoMode::kFull;
    o.seed = 3;
    return o;
  }();
  const auto pairs = draw_pairs(3, opts.nodes, 8);

  HirepSystem serial(opts);
  HirepSystem sharded(opts);
  const auto serial_records =
      serial.run_transactions(pairs, Executor::serial());
  const auto sharded_records =
      sharded.run_transactions(pairs, Executor::sharded(4, 4));

  expect_records_identical(serial_records, sharded_records);
  EXPECT_EQ(serial.trust_message_total(), sharded.trust_message_total());
}

TEST(ScaleEngine, ChunkedBatchesMatchOneBatch) {
  const auto opts = fast_options(11, 200);
  const auto pairs = draw_pairs(11, opts.nodes, 60);

  HirepSystem whole(opts);
  HirepSystem chunked(opts);
  const auto whole_records =
      whole.run_transactions(pairs, Executor::sharded(4, 4));

  std::vector<Record> chunk_records;
  for (std::size_t at = 0; at < pairs.size(); at += 25) {
    const std::size_t n = std::min<std::size_t>(25, pairs.size() - at);
    const auto part = chunked.run_transactions(
        std::span(pairs).subspan(at, n), Executor::sharded(4, 4));
    chunk_records.insert(chunk_records.end(), part.begin(), part.end());
  }

  // The lifetime transaction counter carries the stream index across
  // batches, so checkpointed execution (fig5/fig6 style) is equivalent to
  // one big batch.
  expect_records_identical(whole_records, chunk_records);
  EXPECT_EQ(whole.trust_message_total(), chunked.trust_message_total());
}

TEST(ScaleEngine, SharedAgentsAcrossDistinctPairsStayConsistent) {
  // Tiny network: every peer trusts mostly the same agents, so waves
  // share agents between lanes and the barrier applies many writes per
  // agent.
  const auto opts = fast_options(5, 32);
  const auto pairs = draw_pairs(5, opts.nodes, 64);

  HirepSystem serial(opts);
  HirepSystem sharded(opts);
  expect_records_identical(
      serial.run_transactions(pairs, Executor::serial()),
      sharded.run_transactions(pairs, Executor::sharded(4, 4)));
}

TEST(ScaleEngine, ParallelRequiresInstantDelivery) {
  auto opts = fast_options(1, 64);
  opts.delivery.policy = net::DeliveryPolicyKind::kFaulty;
  HirepSystem system(opts);
  const std::vector<Pair> pairs = {{0, 1}};
  EXPECT_THROW(system.run_transactions(pairs, Executor::sharded(0)),
               std::invalid_argument);
  // Serial batched execution over a faulty transport is still legal.
  EXPECT_NO_THROW(system.run_transactions(pairs, Executor::serial()));
}

TEST(ScaleEngine, RejectsInvalidPairs) {
  HirepSystem system(fast_options(1, 64));
  const std::vector<Pair> self = {{3, 3}};
  EXPECT_THROW(system.run_transactions(self, {}), std::invalid_argument);
  const std::vector<Pair> oob = {{0, 64}};
  EXPECT_THROW(system.run_transactions(oob, {}), std::invalid_argument);
}

TEST(ScaleEngine, SerialEngineAdvancesSystemLikeLegacyLoop) {
  // The engine must leave the system in a usable state: records are sane
  // and the legacy single-transaction API still works afterwards.
  HirepSystem system(fast_options(9, 100));
  const auto pairs = draw_pairs(9, 100, 20);
  const auto records =
      system.run_transactions(pairs, Executor::sharded(2, 2));
  ASSERT_EQ(records.size(), pairs.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].requestor, pairs[i].first);
    EXPECT_EQ(records[i].provider, pairs[i].second);
    EXPECT_GE(records[i].estimate, 0.0);
    EXPECT_LE(records[i].estimate, 1.0);
  }
  const auto after = system.run_transaction();
  EXPECT_NE(after.requestor, after.provider);
}

}  // namespace
}  // namespace hirep
