// core::Executor — the unified execution policy: named constructors,
// name/mode round-trips, and validate() as the single gate (nonsense
// rejection + environment-driven downgrade to serial).
#include <stdexcept>

#include <gtest/gtest.h>

#include "hirep/execution.hpp"

namespace hirep::core {
namespace {

TEST(Executor, NamedConstructorsSetTheObviousFields) {
  EXPECT_EQ(Executor::serial().mode, ExecutionMode::kSerial);
  EXPECT_FALSE(Executor::serial().concurrent());

  const Executor sh = Executor::sharded(4, 2);
  EXPECT_EQ(sh.mode, ExecutionMode::kSharded);
  EXPECT_EQ(sh.shards, 4u);
  EXPECT_EQ(sh.threads, 2u);
  EXPECT_TRUE(sh.concurrent());

  // The default is the serial reference engine, 0 = hardware threads.
  EXPECT_EQ(Executor{}.mode, ExecutionMode::kSerial);
  EXPECT_EQ(Executor{}.threads, 0u);
  EXPECT_EQ(Executor{}.shards, 0u);
}

TEST(Executor, ModeNamesRoundTrip) {
  for (ExecutionMode mode : {ExecutionMode::kSerial, ExecutionMode::kSharded}) {
    const auto back = execution_mode_by_name(to_string(mode));
    ASSERT_TRUE(back.has_value()) << to_string(mode);
    EXPECT_EQ(*back, mode);
  }
  EXPECT_FALSE(execution_mode_by_name("bogus").has_value());
  EXPECT_FALSE(execution_mode_by_name("").has_value());
  EXPECT_FALSE(execution_mode_by_name("Sharded").has_value());  // exact match
  // "parallel" names no engine and is not an alias for one.
  EXPECT_FALSE(execution_mode_by_name("parallel").has_value());
}

TEST(ExecutorValidate, PassesThroughUnderInstantDelivery) {
  const Executor::Environment instant;  // defaults: instant, no chaos
  const Executor resolved = Executor::sharded(4, 2).validate(instant);
  EXPECT_EQ(resolved.mode, ExecutionMode::kSharded);
  EXPECT_EQ(resolved.shards, 4u);
  EXPECT_EQ(resolved.threads, 2u);
  EXPECT_EQ(Executor::sharded(0).validate(instant).mode,
            ExecutionMode::kSharded);
  EXPECT_EQ(Executor::serial().validate(instant).mode, ExecutionMode::kSerial);
}

TEST(ExecutorValidate, DowngradesConcurrentEnginesToSerial) {
  Executor::Environment lossy;
  lossy.instant_delivery = false;
  Executor::Environment chaotic;
  chaotic.chaos = true;

  for (const auto& env : {lossy, chaotic}) {
    for (const Executor exec :
         {Executor::sharded(0, 4), Executor::sharded(4, 2)}) {
      const Executor resolved = exec.validate(env);
      EXPECT_EQ(resolved.mode, ExecutionMode::kSerial);
      EXPECT_EQ(resolved.shards, 0u);  // shard knob cleared with the mode
    }
    // Serial stays serial — nothing to downgrade.
    EXPECT_EQ(Executor::serial().validate(env).mode, ExecutionMode::kSerial);
  }
}

TEST(ExecutorValidate, RejectsWrappedNegativesAndMisplacedShardKnob) {
  const Executor::Environment env;
  EXPECT_THROW(Executor::sharded(0, 5000).validate(env), std::invalid_argument);
  EXPECT_THROW(Executor::sharded(5000).validate(env), std::invalid_argument);

  // shards on the serial engine is a configuration error, not a silent
  // ignore.
  Executor misplaced = Executor::serial();
  misplaced.shards = 4;
  EXPECT_THROW(misplaced.validate(env), std::invalid_argument);

  // Boundary values stay legal.
  EXPECT_NO_THROW(Executor::sharded(0, 4096).validate(env));
  EXPECT_NO_THROW(Executor::sharded(4096).validate(env));
}

}  // namespace
}  // namespace hirep::core
