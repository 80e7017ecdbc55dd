// Golden-value pins for the figure pipelines.  The tables below were
// captured at full double precision from the batched scale engine
// (per-transaction RNG streams, pre-drawn workload, Neumaier-compensated
// MSE windows); both executors (serial and sharded) and any future
// refactor must keep reproducing them bit for bit — message counts AND
// estimates.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/pure_voting.hpp"
#include "sim/experiment.hpp"
#include "sim/response_time.hpp"

namespace hirep::sim {
namespace {

Params golden_params() {
  Params p;
  p.network_size = 200;
  p.transactions = 60;
  p.seeds = 1;
  p.seed = 7;
  p.mse_window = 20;
  p.requestor_pool = 20;
  p.provider_pool = 40;
  return p;
}

// transactions, voting-2, voting-3, voting-4, hirep
const std::vector<std::vector<double>> kFig5Golden = {
    {6, 1118, 3924, 6611, 1080},
    {12, 2627, 8203, 12410, 2160},
    {18, 3762, 12278, 19016, 3186},
    {24, 5334, 16558, 25595, 4230},
    {30, 6219, 20164, 31807, 5310},
    {36, 7811, 24060, 38173, 6390},
    {42, 9691, 28273, 44625, 7434},
    {48, 11027, 31677, 50950, 8496},
    {54, 13104, 35265, 57253, 9540},
    {60, 14510, 39553, 63114, 10602},
};

// transactions, voting, hirep-4, hirep-6, hirep-8
const std::vector<std::vector<double>> kFig6Golden = {
    {10, 0.065214480445090123, 0.05508763509368194, 0.052465014763679797,
     0.050683057404128942},
    {20, 0.066617504433397451, 0.056722056685676113, 0.055410746520675035,
     0.049215727834424114},
    {30, 0.068760310759109072, 0.055083403087215176, 0.052087824363662508,
     0.046783784357187004},
    {40, 0.069004387412457818, 0.045235900272596739, 0.042240321549044071,
     0.034547557987852751},
    {50, 0.068954216591999976, 0.041036754185416552, 0.039190185769198416,
     0.030742185205088111},
    {60, 0.068990047087019321, 0.035968456127620438, 0.03106494425688262,
     0.029481741961594827},
    {70, 0.068849215668431246, 0.037432651265569009, 0.031601239766079536,
     0.026959620362453963},
    {80, 0.068820776620601487, 0.033536857060491948, 0.030762389015522168,
     0.026625112387190526},
    {90, 0.066016384600233471, 0.027511702333610027, 0.026033926706891149,
     0.024962281866082653},
    {100, 0.065284440396730786, 0.020954497939377356, 0.019476722312658477,
     0.018728699988924864},
};

// Full-crypto pins, captured from the base-2^32 schoolbook bignum before
// the word-limb Montgomery + CRT rewrite.  RSA is deterministic math and
// the random draw pattern (one 32-bit word per rng() call) is part of the
// BigInt contract, so the rewrite — and any future exponentiation-strategy
// change — must reproduce every count and estimate bit for bit; only
// walltime may move.
// transactions, voting-2, voting-3, voting-4, hirep
const std::vector<std::vector<double>> kFig5FullCryptoGolden = {
    {6, 1118, 3924, 6611, 1080},
    {12, 2627, 8203, 12410, 2142},
    {18, 3762, 12278, 19016, 3150},
    {24, 5334, 16558, 25595, 4230},
    {30, 6219, 20164, 31807, 5292},
    {36, 7811, 24060, 38173, 6372},
    {42, 9691, 28273, 44625, 7416},
    {48, 11027, 31677, 50950, 8424},
    {54, 13104, 35265, 57253, 9468},
    {60, 14510, 39553, 63114, 10512},
};

// transactions, voting, hirep-4, hirep-6, hirep-8
const std::vector<std::vector<double>> kFig6FullCryptoGolden = {
    {10, 0.065214480445090123, 0.064557153544964302, 0.064557153544964302,
     0.064557153544964302},
    {20, 0.066617504433397451, 0.062143217813308983, 0.062143217813308983,
     0.06004917227054065},
    {30, 0.068760310759109072, 0.053356021097825945, 0.049466478920644319,
     0.044776928199562721},
    {40, 0.069004387412457818, 0.039149038235274589, 0.035259496058092962,
     0.028922168993577614},
    {50, 0.068954216591999976, 0.032100909309034684, 0.031556253178500283,
     0.027005304049157314},
    {60, 0.068990047087019321, 0.026455837717664722, 0.024556078862603581,
     0.023746951619462699},
    {70, 0.068849215668431246, 0.026803130716015745, 0.024745396289175679,
     0.023250579218913683},
    {80, 0.068820776620601487, 0.025462440185696999, 0.024159540498910281,
     0.02176241618458355},
    {90, 0.066016384600233471, 0.016668987624261482, 0.014795867085309073,
     0.013697995831036236},
    {100, 0.065284440396730786, 0.012091743437725525, 0.010818890883246508,
     0.010623326873038404},
};

void expect_table_equals(const util::Table& table,
                         const std::vector<std::vector<double>>& golden) {
  ASSERT_EQ(table.rows(), golden.size());
  for (std::size_t r = 0; r < golden.size(); ++r) {
    ASSERT_EQ(table.columns(), golden[r].size());
    for (std::size_t c = 0; c < golden[r].size(); ++c) {
      // Bit-for-bit: InstantDelivery must not perturb a single count or
      // rng draw relative to the pre-transport implementation.
      EXPECT_EQ(table.number_at(r, c), golden[r][c])
          << "row " << r << " col " << c;
    }
  }
}

TEST(GoldenValues, Fig5TrafficIsUnchangedByTheScaleEngine) {
  const auto result = run_fig5_traffic(golden_params());
  expect_table_equals(result.table, kFig5Golden);
}

TEST(GoldenValues, Fig6AccuracyIsUnchangedByTheScaleEngine) {
  const auto result = run_fig6_accuracy(golden_params());
  expect_table_equals(result.table, kFig6Golden);
}

TEST(GoldenValues, Fig5FullCryptoIsUnchangedByTheBignumKernel) {
  Params p = golden_params();
  p.crypto_mode = "full";
  expect_table_equals(run_fig5_traffic(p).table, kFig5FullCryptoGolden);
}

TEST(GoldenValues, Fig6FullCryptoIsUnchangedByTheBignumKernel) {
  Params p = golden_params();
  p.crypto_mode = "full";
  expect_table_equals(run_fig6_accuracy(p).table, kFig6FullCryptoGolden);
}

TEST(GoldenValues, SerialExecutorReproducesTheSameFigures) {
  // The pins above run with Params' default execution=serial; the sharded
  // engine must land on every golden bit as well.
  Params p = golden_params();
  p.execution = "sharded";
  expect_table_equals(run_fig5_traffic(p).table, kFig5Golden);
  expect_table_equals(run_fig6_accuracy(p).table, kFig6Golden);
}

TEST(GoldenValues, ChaosStackDisabledLeavesEveryGoldenBitAlone) {
  // The robustness layer's golden-safety contract, spelled out: with the
  // chaos engine compiled in but off, the zero-retry reliable channel, and
  // recovery at its defaults (quorum disabled), the figure pipelines —
  // which now route every request through ReliableChannel and call
  // install_chaos() unconditionally — reproduce the pre-chaos pins bit for
  // bit.  Every knob is pinned explicitly so a future default change that
  // would silently perturb the goldens fails here, by name.
  Params p = golden_params();
  p.chaos = "off";
  p.retry_max_attempts = 1;
  p.retry_timeout_ms = 0.0;
  p.retry_backoff_ms = 0.0;
  p.retry_jitter_ms = 0.0;
  p.suspicion_threshold = 3;
  p.min_quorum = 0;
  expect_table_equals(run_fig5_traffic(p).table, kFig5Golden);
  expect_table_equals(run_fig6_accuracy(p).table, kFig6Golden);
}

TEST(GoldenValues, AdversaryStackDisabledLeavesEveryGoldenBitAlone) {
  // The adversary engine's golden-safety contract: with the engine
  // compiled in but off, the figure pipelines — which now call
  // install_adversary() unconditionally (fig7) and share GroundTruth's
  // behavior/override vectors — reproduce the pins bit for bit.  Every
  // adversary knob is pinned explicitly, by name, so a future default
  // change that would silently perturb the goldens fails here.
  Params p = golden_params();
  p.adversary = "off";
  p.adversary_seed = 0;
  p.adversary_ring_size = 0;
  p.adversary_ring_at = 0;
  p.adversary_ring_targets = 4;
  p.adversary_sybil_count = 0;
  p.adversary_sybil_at = 0;
  p.adversary_sybil_period = 0;
  p.adversary_sybil_corrupt = 0;
  p.adversary_whitewash_count = 0;
  p.adversary_whitewash_threshold = 0.3;
  p.adversary_whitewash_cooldown = 10;
  p.adversary_oscillator_count = 0;
  p.adversary_oscillator_on = 0.7;
  p.adversary_oscillator_burst = 5;
  p.adversary_front_count = 0;
  p.adversary_front_at = 0;
  expect_table_equals(run_fig5_traffic(p).table, kFig5Golden);
  expect_table_equals(run_fig6_accuracy(p).table, kFig6Golden);
}

TEST(AverageOverSeeds, ParallelMatchesSerialBitForBit) {
  Params p = golden_params();
  p.seeds = 4;
  const auto series = [&](std::uint64_t seed) {
    Params q = p;
    q.seed = seed;
    baselines::PureVotingSystem system(q.voting_options());
    std::vector<double> ys;
    for (int t = 0; t < 10; ++t) {
      ys.push_back(system.run_transaction().estimate);
    }
    return ys;
  };
  const auto parallel =
      average_over_seeds(p, series, SeedExecution::kParallel);
  const auto serial = average_over_seeds(p, series, SeedExecution::kSerial);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "index " << i;
  }
}

TEST(AverageOverSeeds, Fig8ResponseParallelMatchesSerialBitForBit) {
  // The whole fig8 pipeline (three hirep relay configurations + the timed
  // voting baseline) through average_over_seeds both ways.  Tiny params:
  // the property is scheduling-independence, not the figure itself.
  Params p = golden_params();
  p.network_size = 64;
  p.transactions = 20;
  p.seeds = 2;
  const auto parallel = run_fig8_response(p, SeedExecution::kParallel);
  const auto serial = run_fig8_response(p, SeedExecution::kSerial);
  ASSERT_EQ(parallel.table.rows(), serial.table.rows());
  ASSERT_EQ(parallel.table.columns(), serial.table.columns());
  for (std::size_t r = 0; r < parallel.table.rows(); ++r) {
    for (std::size_t c = 0; c < parallel.table.columns(); ++c) {
      EXPECT_EQ(parallel.table.number_at(r, c), serial.table.number_at(r, c))
          << "row " << r << " col " << c;
    }
  }
  ASSERT_EQ(parallel.checks.size(), serial.checks.size());
  for (std::size_t i = 0; i < parallel.checks.size(); ++i) {
    EXPECT_EQ(parallel.checks[i].holds, serial.checks[i].holds) << "check " << i;
    EXPECT_EQ(parallel.checks[i].detail, serial.checks[i].detail) << "check " << i;
  }
}

}  // namespace
}  // namespace hirep::sim
