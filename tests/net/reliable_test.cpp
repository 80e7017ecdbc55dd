// ReliableChannel: the retry discipline over the typed transport — the
// zero-retry identity contract (golden safety), loss recovery through
// bounded retransmission, per-attempt deadlines, deterministic exponential
// backoff with seeded jitter, and at-most-once application of retried
// copies at the destination.
#include "net/reliable.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "net/topology.hpp"

namespace hirep::net {
namespace {

Overlay make_overlay(std::size_t nodes = 12, std::uint64_t seed = 1) {
  return Overlay(ring_lattice(nodes, 2), LatencyParams{}, seed);
}

DeliveryConfig faulty(double drop_rate) {
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kFaulty;
  config.faults.drop_rate = drop_rate;
  return config;
}

TEST(ReliableZeroRetry, DefaultPolicyIsCallForCallIdenticalToBareSend) {
  // The golden-safety contract: with the default (1 attempt, no deadline)
  // policy, a lossy transport driven through the channel sees the exact
  // same per-request outcomes as the same transport driven bare — no extra
  // RNG draws, no clock movement.
  const auto outcomes = [](bool through_channel) {
    Overlay overlay = make_overlay();
    Transport transport(&overlay, faulty(0.3), 42);
    ReliableChannel channel(&transport, ReliablePolicy{}, 99);
    std::vector<std::tuple<bool, std::uint64_t, NodeIndex>> seen;
    for (int i = 0; i < 50; ++i) {
      if (through_channel) {
        const auto r =
            channel.request(EnvelopeType::kTrustRequest, 0, {1, 2, 3});
        seen.emplace_back(r.ok, r.messages, r.destination);
      } else {
        const auto r =
            transport.send(EnvelopeType::kTrustRequest, 0, {1, 2, 3});
        seen.emplace_back(r.delivered, r.messages, r.destination);
      }
    }
    // The wrapper never advances the event clock under the default policy.
    EXPECT_DOUBLE_EQ(transport.sim().now(), 0.0);
    return seen;
  };
  EXPECT_EQ(outcomes(true), outcomes(false));
}

TEST(ReliableZeroRetry, StatsCountRequestsButNoRetries) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  ReliableChannel channel(&transport, ReliablePolicy{}, 1);
  const auto r = channel.request(EnvelopeType::kProbe, 0, {1, 2});
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(channel.stats().requests, 1u);
  EXPECT_EQ(channel.stats().retries, 0u);
  EXPECT_EQ(channel.stats().timeouts, 0u);
  EXPECT_EQ(channel.stats().gave_up, 0u);
}

TEST(ReliableRetry, BoundedRetransmissionRecoversLoss) {
  const auto successes = [](std::uint32_t max_attempts, std::uint64_t* retries) {
    Overlay overlay = make_overlay();
    Transport transport(&overlay, faulty(0.5), 7);
    ReliablePolicy policy;
    policy.max_attempts = max_attempts;
    ReliableChannel channel(&transport, policy, 11);
    std::size_t ok = 0;
    for (int i = 0; i < 100; ++i) {
      ok += channel.request(EnvelopeType::kTrustRequest, 0, {1, 2}).ok;
    }
    if (retries != nullptr) *retries = channel.stats().retries;
    return ok;
  };
  std::uint64_t retries = 0;
  const auto one_shot = successes(1, nullptr);
  const auto retried = successes(5, &retries);
  // P(deliver a 2-hop path) = 0.25 per attempt vs 1 - 0.75^5 ~ 0.76.
  EXPECT_GT(retried, one_shot);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(retried, 50u);
  EXPECT_LT(one_shot, 50u);
}

TEST(ReliableRetry, ExhaustedAttemptsAreCountedAsGivingUp) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, faulty(1.0), 3);
  ReliablePolicy policy;
  policy.max_attempts = 3;
  ReliableChannel channel(&transport, policy, 3);
  const auto r = channel.request(EnvelopeType::kReport, 0, {1, 2});
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.applied);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.timeouts, 3u);
  EXPECT_EQ(channel.stats().retries, 2u);
  EXPECT_EQ(channel.stats().timeouts, 3u);
  EXPECT_EQ(channel.stats().gave_up, 1u);
}

TEST(ReliableDeadline, LateDeliveryFailsTheRequestButStillApplies) {
  // Latency delivery lands the envelope after a positive delay; a deadline
  // below that makes every attempt "late": the destination received the
  // copy (side effects applied), but the requestor treats it as lost.
  Overlay overlay = make_overlay();
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kLatency;
  Transport transport(&overlay, config, 1);
  ReliablePolicy policy;
  policy.max_attempts = 1;
  policy.timeout_ms = 1e-6;
  ReliableChannel channel(&transport, policy, 5);
  const auto r = channel.request(EnvelopeType::kTrustRequest, 0, {1, 2});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(r.timeouts, 1u);
  EXPECT_EQ(channel.stats().timeouts, 1u);
  EXPECT_EQ(channel.stats().gave_up, 1u);
}

TEST(ReliableBackoff, ExponentialScheduleIsExactOnTheSimClock) {
  // drop=1 forces every attempt to fail; with backoff 2ms and no jitter the
  // waits before attempts 2, 3, 4 are 2, 4, 8 ms — the clock must land on
  // exactly 14 ms, nothing stochastic about it.
  Overlay overlay = make_overlay();
  Transport transport(&overlay, faulty(1.0), 9);
  ReliablePolicy policy;
  policy.max_attempts = 4;
  policy.backoff_ms = 2.0;
  ReliableChannel channel(&transport, policy, 17);
  channel.request(EnvelopeType::kTrustRequest, 0, {1});
  EXPECT_DOUBLE_EQ(transport.sim().now(), 14.0);
}

TEST(ReliableBackoff, JitterIsDrawnFromTheChannelSeed) {
  const auto clock_after = [](std::uint64_t channel_seed) {
    Overlay overlay = make_overlay();
    Transport transport(&overlay, faulty(1.0), 9);
    ReliablePolicy policy;
    policy.max_attempts = 3;
    policy.backoff_ms = 1.0;
    policy.jitter_ms = 5.0;
    ReliableChannel channel(&transport, policy, channel_seed);
    channel.request(EnvelopeType::kTrustRequest, 0, {1});
    return transport.sim().now();
  };
  EXPECT_EQ(clock_after(21), clock_after(21));  // deterministic per seed
  EXPECT_NE(clock_after(21), clock_after(22));  // but genuinely seeded
  // Base waits are 1 + 2 = 3ms; jitter adds [0, 5) per retry.
  EXPECT_GE(clock_after(21), 3.0);
  EXPECT_LT(clock_after(21), 13.0);
}

TEST(ReliableDuplicates, RetransmissionsApplyAtMostOnce) {
  // Every attempt is delivered but late (deadline below the latency floor),
  // so the channel retries after copies already landed: the first copy
  // applies, every retransmission that lands afterwards is suppressed.
  Overlay overlay = make_overlay();
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kLatency;
  Transport transport(&overlay, config, 1);
  ReliablePolicy policy;
  policy.max_attempts = 3;
  policy.timeout_ms = 1e-6;
  ReliableChannel channel(&transport, policy, 5);
  const auto r = channel.request(EnvelopeType::kReport, 0, {1, 2});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(channel.stats().dup_suppressed, 2u);
}

TEST(DedupTable, FirstApplicationIsTrueExactlyOnce) {
  DedupTable table;
  EXPECT_TRUE(table.first_application(1, 0.0));
  EXPECT_FALSE(table.first_application(1, 0.0));
  EXPECT_TRUE(table.first_application(2, 0.0));
  EXPECT_FALSE(table.first_application(2, 0.0));
  EXPECT_EQ(table.size(), 2u);
}

TEST(DedupTable, SizeStaysBoundedByTwiceTheGenerationCapacity) {
  DedupTable table(/*capacity=*/64, /*window_ms=*/60'000.0);
  for (std::uint64_t id = 0; id < 10'000; ++id) {
    EXPECT_TRUE(table.first_application(id, 0.0));
    EXPECT_LE(table.size(), table.capacity());
  }
  EXPECT_EQ(table.capacity(), 128u);
}

TEST(DedupTable, ActivelyRetriedIdsSurviveGenerationRotation) {
  // A duplicate check refreshes the id into the current generation, so an
  // id that keeps being retried never ages out even while the table churns
  // through thousands of other ids.
  DedupTable table(/*capacity=*/64, /*window_ms=*/60'000.0);
  EXPECT_TRUE(table.first_application(999'999, 0.0));
  for (std::uint64_t id = 0; id < 2'000; ++id) {
    table.first_application(id, 0.0);
    EXPECT_FALSE(table.first_application(999'999, 0.0));
  }
}

TEST(DedupTable, IdleIdsAgeOutAfterTheTimeWindow) {
  DedupTable table(/*capacity=*/1024, /*window_ms=*/100.0);
  EXPECT_TRUE(table.first_application(7, 0.0));
  // Two window rotations with no touches in between: the id is forgotten.
  EXPECT_TRUE(table.first_application(8, 150.0));
  EXPECT_TRUE(table.first_application(9, 300.0));
  EXPECT_TRUE(table.first_application(7, 450.0));
}

/// The two-generation ledger as it was first written, over node-based
/// sets: the oracle for the flat open-addressed table.
class SetDedupModel {
 public:
  SetDedupModel(std::size_t capacity, double window_ms)
      : capacity_(capacity == 0 ? 1 : capacity), window_ms_(window_ms) {}

  bool first_application(std::uint64_t id, double now_ms) {
    const bool full = current_.size() >= capacity_;
    const bool stale =
        !current_.empty() && now_ms - window_start_ >= window_ms_;
    if (full || stale) {
      prev_ = std::move(current_);
      current_.clear();
      window_start_ = now_ms;
    }
    if (current_.contains(id)) return false;
    if (prev_.contains(id)) {
      current_.insert(id);
      return false;
    }
    current_.insert(id);
    return true;
  }
  std::size_t size() const { return current_.size() + prev_.size(); }

 private:
  std::size_t capacity_;
  double window_ms_;
  double window_start_ = 0.0;
  std::unordered_set<std::uint64_t> current_;
  std::unordered_set<std::uint64_t> prev_;
};

TEST(DedupTable, MatchesTheTwoGenerationSetModel) {
  struct Case {
    std::size_t capacity;
    double window_ms;
  };
  // Capacity 0 and 1 rotate on every new id; the small windows expire
  // generations between bursts; the large one never expires.
  const Case cases[] = {{0, 1e9},  {1, 1e9},   {1, 5.0},    {7, 1e9},
                        {64, 40.0}, {64, 1e9}, {4096, 60'000.0}};
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "capacity " << c.capacity
                                      << ", window " << c.window_ms
                                      << ", seed " << seed);
      DedupTable table(c.capacity, c.window_ms);
      SetDedupModel model(c.capacity, c.window_ms);
      util::Rng rng(seed);
      std::vector<std::uint64_t> seen;
      double now = 0.0;
      for (int step = 0; step < 20'000; ++step) {
        now += rng.chance(0.01) ? rng.uniform(0.0, 100.0) : rng.uniform();
        std::uint64_t id = 0;
        const double kind = rng.uniform();
        if (kind < 0.05) {
          id = rng.chance(0.5) ? 0 : kMax;  // both ends of the id space
        } else if (kind < 0.45 && !seen.empty()) {
          // Repeats, biased to recent ids so refresh-from-prev fires.
          const std::size_t back =
              rng.below(std::min<std::size_t>(seen.size(), 2 * c.capacity + 8));
          id = seen[seen.size() - 1 - back];
        } else if (kind < 0.75) {
          id = seen.size();  // sequential, like request ids
        } else {
          id = rng();
        }
        seen.push_back(id);
        ASSERT_EQ(table.first_application(id, now),
                  model.first_application(id, now))
            << "step " << step << " id " << id;
        ASSERT_EQ(table.size(), model.size()) << "step " << step;
        ASSERT_LE(table.size(), table.capacity());
      }
    }
  }
}

TEST(DedupTable, SentinelIdsRefreshFromThePreviousGeneration) {
  // Id 0 and UINT64_MAX are ordinary ids, including across a rotation:
  // seen again from the previous generation they are refreshed, so they
  // survive the next rotation too.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  DedupTable table(/*capacity=*/2, /*window_ms=*/1e9);
  EXPECT_TRUE(table.first_application(0, 0.0));
  EXPECT_TRUE(table.first_application(kMax, 0.0));
  EXPECT_TRUE(table.first_application(5, 0.0));  // rotates {0, max} to prev
  EXPECT_FALSE(table.first_application(0, 0.0));  // refreshed
  EXPECT_TRUE(table.first_application(6, 0.0));  // rotates {5, 0} to prev
  EXPECT_FALSE(table.first_application(0, 0.0));
  EXPECT_TRUE(table.first_application(kMax, 0.0));  // aged out: new again
}

TEST(ReliableDuplicates, SuppressionTableStaysBoundedUnderSustainedRetries) {
  // S1 regression: 10k logical requests, every one retried (latency floor
  // above the deadline forces a timeout per attempt), must not grow the
  // duplicate-suppression state without bound.
  Overlay overlay = make_overlay();
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kLatency;
  Transport transport(&overlay, config, 1);
  ReliablePolicy policy;
  policy.max_attempts = 2;
  policy.timeout_ms = 1e-6;
  ReliableChannel channel(&transport, policy, 5);
  for (int i = 0; i < 10'000; ++i) {
    channel.request(EnvelopeType::kReport, 0, {1});
    ASSERT_LE(channel.dedup_size(), channel.dedup_capacity());
  }
  EXPECT_GT(channel.stats().dup_suppressed, 0u);
}

TEST(ReliableBatch, DefaultPolicyIsRequestForRequestIdenticalToSequential) {
  // The batched form of the zero-retry identity: with the default policy a
  // request_batch over N requests must match N sequential request() calls
  // outcome for outcome on the same lossy transport.
  const std::vector<NodeIndex> path_a{1, 2, 3};
  const std::vector<NodeIndex> path_b{4, 5};
  const auto outcomes = [&](bool batched) {
    Overlay overlay = make_overlay();
    Transport transport(&overlay, faulty(0.3), 42);
    ReliableChannel channel(&transport, ReliablePolicy{}, 99);
    std::vector<std::tuple<bool, bool, std::uint64_t, NodeIndex>> seen;
    const auto note = [&](const RequestOutcome& r) {
      seen.emplace_back(r.ok, r.applied, r.messages, r.destination);
    };
    for (int round = 0; round < 25; ++round) {
      if (batched) {
        const ReliableChannel::BatchRequest requests[] = {
            {.sender = 0, .path = &path_a, .payload = {}},
            {.sender = 0, .path = &path_b, .payload = {}},
        };
        for (const auto& r :
             channel.request_batch(EnvelopeType::kTrustRequest, requests)) {
          note(r);
        }
      } else {
        note(channel.request(EnvelopeType::kTrustRequest, 0, path_a));
        note(channel.request(EnvelopeType::kTrustRequest, 0, path_b));
      }
    }
    EXPECT_DOUBLE_EQ(transport.sim().now(), 0.0);
    return seen;
  };
  EXPECT_EQ(outcomes(true), outcomes(false));
}

TEST(ReliableBatch, RetriedWavesRecoverLossAndCountStats) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, faulty(0.5), 7);
  ReliablePolicy policy;
  policy.max_attempts = 5;
  policy.backoff_ms = 1.0;
  ReliableChannel channel(&transport, policy, 11);
  const std::vector<NodeIndex> path{1, 2};
  std::vector<ReliableChannel::BatchRequest> requests(
      100, ReliableChannel::BatchRequest{.sender = 0, .path = &path,
                                         .payload = {}});
  const auto outcomes =
      channel.request_batch(EnvelopeType::kTrustRequest, requests);
  ASSERT_EQ(outcomes.size(), 100u);
  std::size_t ok = 0;
  for (const auto& r : outcomes) ok += r.ok;
  // P(deliver the 2-hop path) = 0.25 per attempt, ~0.76 across five.
  EXPECT_GT(ok, 50u);
  EXPECT_EQ(channel.stats().requests, 100u);
  EXPECT_GT(channel.stats().retries, 0u);
  EXPECT_EQ(channel.stats().gave_up, 100u - ok);
  // Waves only retry the still-pending requests, so the retry total is far
  // below the worst case of every request burning all four retries.
  EXPECT_LT(channel.stats().retries, 400u);
}

TEST(ReliableBatch, PayloadsReachTheirDestinations) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  ReliableChannel channel(&transport, ReliablePolicy{}, 1);
  const std::vector<NodeIndex> path_a{1};
  const std::vector<NodeIndex> path_b{2};
  const util::Bytes payload_a{0xAA, 0xAB};
  const util::Bytes payload_b{0xBB};
  const ReliableChannel::BatchRequest requests[] = {
      {.sender = 0, .path = &path_a, .payload = payload_a},
      {.sender = 0, .path = &path_b, .payload = payload_b},
  };
  const auto outcomes = channel.request_batch(EnvelopeType::kReport, requests);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].destination, 1u);
  EXPECT_EQ(outcomes[0].payload, payload_a);
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].destination, 2u);
  EXPECT_EQ(outcomes[1].payload, payload_b);
}

}  // namespace
}  // namespace hirep::net
