// sim::Scenario — the one way to configure a simulation run.
//
// Unifies the former split between sim::Params (bench-side key=value bag)
// and core::HirepOptions (engine-side struct): a Scenario owns the full
// parameter set, validates it as a whole, and projects it into every
// per-system option struct plus the scale engine's core::Executor.
//
//   auto sc = sim::Scenario()
//                 .network_size(10'000)
//                 .crypto("fast")
//                 .execution("sharded")
//                 .validate();
//   core::HirepSystem system(sc.hirep_options());
//   auto records = system.run_transactions(pairs, sc.execution_policy());
//
// CLI parsing is table-driven: every option is declared once in
// option_table() (name, typed member binding, help text), and the same
// table generates from_config(), --help rendering, and the known-key set
// for the unused-parameter detector in bench_common.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sim/params.hpp"

namespace hirep::sim {

/// One declaratively-registered simulation option: CLI key, typed member
/// binding into Params, and help text.  Adding a field = adding one row.
struct OptionSpec {
  // std::size_t also covers the std::uint64_t fields and std::uint32_t the
  // unsigned ones (enforced by static_asserts in scenario.cpp) — listing
  // them separately would duplicate variant alternatives on LP64.
  using Field =
      std::variant<std::size_t Params::*, double Params::*,
                   std::uint32_t Params::*, std::string Params::*>;
  const char* name;
  Field field;
  const char* help;
};

class Scenario {
 public:
  Scenario() = default;
  explicit Scenario(Params params) : params_(std::move(params)) {}

  /// The full declarative option table (one row per Params field).
  static const std::vector<OptionSpec>& option_table();

  /// Builds a Scenario from key=value overrides and validates it.
  /// Throws std::invalid_argument on unparsable values or invalid
  /// combinations.
  static Scenario from_config(const util::Config& config);

  /// Auto-generated from option_table(): one "name=<type> (default) help"
  /// line per option, for bench --help output.
  static std::string help_text();

  /// Whole-configuration semantic validation: rejects impossible
  /// combinations (e.g. provider_pool > network_size, relays >= network
  /// size, rating ranges inverted).  Returns *this for chaining.
  const Scenario& validate() const;
  Scenario& validate() {
    static_cast<const Scenario&>(*this).validate();
    return *this;
  }

  // -- fluent builder (most-used knobs; params() reaches everything) -------
  Scenario& network_size(std::size_t n) { params_.network_size = n; return *this; }
  Scenario& transactions(std::size_t n) { params_.transactions = n; return *this; }
  Scenario& seed(std::uint64_t s) { params_.seed = s; return *this; }
  Scenario& seeds(std::size_t n) { params_.seeds = n; return *this; }
  Scenario& crypto(std::string mode) { params_.crypto_mode = std::move(mode); return *this; }
  Scenario& delivery(std::string policy) { params_.delivery = std::move(policy); return *this; }
  Scenario& execution(std::string mode) { params_.execution = std::move(mode); return *this; }
  Scenario& threads(std::size_t n) { params_.threads = n; return *this; }
  Scenario& shards(std::size_t n) { params_.shards = n; return *this; }
  Scenario& trusted_agents(std::size_t c) { params_.trusted_agents = c; return *this; }
  Scenario& malicious_ratio(double r) { params_.malicious_ratio = r; return *this; }

  Params& params() noexcept { return params_; }
  const Params& params() const noexcept { return params_; }

  // -- projections ---------------------------------------------------------
  core::HirepOptions hirep_options() const { return params_.hirep_options(); }
  baselines::VotingOptions voting_options() const {
    return params_.voting_options();
  }
  baselines::TrustMeOptions trustme_options() const {
    return params_.trustme_options();
  }
  net::DeliveryConfig delivery_config() const {
    return params_.delivery_config();
  }
  /// The scale engine's Executor, fully validated: execution=sharded
  /// applies under delivery=instant with chaos=off; lossy/delayed
  /// transports and chaos fault schedules are order-dependent, so either
  /// downgrades to serial execution with a logged diagnostic (same
  /// results, one thread).  This is the ONLY construction path bench mains
  /// and examples should use — never hand-build a core::Executor.
  core::Executor execution_policy() const;
  util::Table table1() const { return params_.table1(); }

 private:
  Params params_;
};

}  // namespace hirep::sim
