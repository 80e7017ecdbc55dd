// Scale engine — serial vs sharded run_transactions() on identical
// systems (DESIGN.md §9, §14).  A fig5-shaped workload (whole-population
// random pairs) is pre-drawn once, then executed twice from identical
// bootstrap states: once serially, once through the sharded engine with
// one shard per worker thread.  Reported: wall-clock per mode,
// throughput, speedup — and the record streams are compared element by
// element, because the engine's contract is byte-identical results, not
// approximately-equal ones.
//
//   ./build/bench/micro_scale network_size=10000 transactions=2000
//       crypto=fast threads=0 json=out.json
#include <bit>
#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "hirep/system.hpp"

namespace {

using namespace hirep;

constexpr std::uint64_t kWorkloadSalt = 0x5eedba5eca11f00dULL;

std::vector<std::pair<net::NodeIndex, net::NodeIndex>> draw_pairs(
    const sim::Params& p) {
  util::Rng rng(p.seed ^ kWorkloadSalt);
  std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs;
  pairs.reserve(p.transactions);
  for (std::size_t i = 0; i < p.transactions; ++i) {
    const auto r = static_cast<net::NodeIndex>(rng.below(p.network_size));
    auto q = r;
    while (q == r) {
      q = static_cast<net::NodeIndex>(rng.below(p.network_size));
    }
    pairs.emplace_back(r, q);
  }
  return pairs;
}

struct ModeRun {
  std::vector<core::HirepSystem::TransactionRecord> records;
  double seconds = 0.0;
};

ModeRun run_mode(const sim::Scenario& sc,
                 std::span<const std::pair<net::NodeIndex, net::NodeIndex>>
                     pairs,
                 const core::Executor& exec) {
  core::HirepSystem system(sc.hirep_options());
  const auto start = std::chrono::steady_clock::now();
  ModeRun run;
  run.records = system.run_transactions(pairs, exec);
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

bool identical(const core::HirepSystem::TransactionRecord& a,
               const core::HirepSystem::TransactionRecord& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.requestor == b.requestor && a.provider == b.provider &&
         bits(a.estimate) == bits(b.estimate) &&
         bits(a.truth_value) == bits(b.truth_value) &&
         bits(a.outcome) == bits(b.outcome) && a.responses == b.responses &&
         a.trust_messages == b.trust_messages;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_exhibit(
      argc, argv,
      "Scale engine — serial vs sharded transaction batches "
      "(byte-identical records, wall-clock speedup)",
      [](sim::Scenario& sc, const util::Config& cfg) {
        if (!cfg.has("network_size")) sc.network_size(10'000);
        if (!cfg.has("transactions")) sc.transactions(2'000);
        // Fig5-shaped whole-population workload; the figure pools are a
        // workload knob for the accuracy curves, not for this engine bench.
        sc.params().requestor_pool = 0;
        sc.params().provider_pool = 0;
      },
      [](const sim::Scenario& sc) -> sim::ExperimentResult {
        const sim::Params& p = sc.params();
        const auto pairs = draw_pairs(p);

        // Executors come from Scenario (the one construction path), so the
        // same downgrade/validation diagnostics apply as everywhere else.
        // shards(0): the serial executor rejects a shard knob, and the
        // sharded one then runs one shard per worker thread.
        const auto serial_exec = sim::Scenario(sc)
                                     .execution("serial")
                                     .shards(0)
                                     .validate()
                                     .execution_policy();
        const auto sharded_exec = sim::Scenario(sc)
                                      .execution("sharded")
                                      .shards(0)
                                      .threads(p.threads)
                                      .validate()
                                      .execution_policy();

        const auto serial = run_mode(sc, pairs, serial_exec);
        const auto sharded = run_mode(sc, pairs, sharded_exec);

        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < serial.records.size(); ++i) {
          mismatches += !identical(serial.records[i], sharded.records[i]);
        }
        const double txns = static_cast<double>(p.transactions);
        const double speedup =
            sharded.seconds > 0.0 ? serial.seconds / sharded.seconds : 0.0;
        const unsigned hw = std::thread::hardware_concurrency();
        const std::size_t workers =
            p.threads ? p.threads : (hw ? hw : 1);

        util::Table table({"mode", "threads", "seconds", "txns_per_sec"});
        table.add_row({std::string("serial"), static_cast<std::int64_t>(1),
                       serial.seconds, txns / serial.seconds});
        table.add_row({std::string("sharded"),
                       static_cast<std::int64_t>(workers), sharded.seconds,
                       txns / sharded.seconds});
        table.add_row({std::string("speedup"),
                       static_cast<std::int64_t>(workers), speedup, 0.0});

        sim::ExperimentResult result{std::move(table), {}};
        result.checks.push_back(
            {"sharded records are byte-identical to serial",
             mismatches == 0,
             std::to_string(mismatches) + " of " +
                 std::to_string(serial.records.size()) + " records differ"});
        // The speedup target applies on real multi-core hardware; a box
        // with fewer than 4 threads cannot express it, so record the
        // measurement and pass the claim vacuously there.
        const bool enough_cores = hw >= 4;
        result.checks.push_back(
            {"sharded is >= 3x faster than serial (on >= 4 hardware "
             "threads)",
             !enough_cores || speedup >= 3.0,
             "speedup=" + std::to_string(speedup) + " hardware_threads=" +
                 std::to_string(hw) +
                 (enough_cores ? "" : " (< 4: measurement recorded, "
                                      "threshold not applicable)")});
        return result;
      });
}
