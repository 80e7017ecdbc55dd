// hirep-bench: runs one workload for one seed in one process and prints its
// metrics.  Normally launched by run.py, which builds this binary from the
// checkout's sources and adds the metrics only the parent process can see
// (peak RSS).
//
//   hirep_bench --workload full_crypto_serial_2k --seed 1 --seconds 30 --trace 0
//
// It drives only the public API: sim::Scenario, the core::HirepSystem
// constructor and run_transactions, and sim::install_chaos /
// install_adversary with their advance_to / observe.  Every layer number is
// taken from outside the program: spans this file opens around each call
// into a layer, plus deltas of obs::Registry::global().
//
// The workload is closed-loop and offline: requestor/provider pairs are
// drawn from `seed ^ kWorkloadSalt` (the micro_scale idiom) one chunk ahead
// of the clock.  --seconds sets the input size, not a deadline: the run
// phase executes seconds x the workload's nominal rate transactions, which
// last about that long on the reference box.  So a seed and a length name
// one input, the deterministic metrics and records_digest cover every
// record, and a faster program does the same work (and holds the same
// state, which keeps peak RSS comparable) in less time.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs the same work
// twice on two fresh systems, untraced then traced, and prints the
// per-layer metrics, the reconciliation residual and the tracing overhead.
// The last stdout line is one JSON object.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/verify_cache.hpp"
#include "hirep/system.hpp"
#include "obs/metrics.hpp"
#include "sim/adversary.hpp"
#include "sim/chaos.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

#ifndef HIREP_BENCH_BUILD_TYPE
#define HIREP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HIREP_BENCH_COMPILER
#define HIREP_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace hirep;
using Pair = std::pair<net::NodeIndex, net::NodeIndex>;
using Record = core::HirepSystem::TransactionRecord;

constexpr std::uint64_t kWorkloadSalt = 0x5eedba5eca11f00dULL;

// ---------------------------------------------------------------------------
// Workloads.  Why each one exists, and why BENCHMARK.json declares only two
// of them, is in README.md; sizes are fixed here so that a seed names one
// input.

struct Workload {
  std::string_view name;
  std::size_t nodes;
  double rate;         ///< nominal txn/s: transactions per --seconds
  std::size_t chunk;   ///< transactions per timed chunk
  std::size_t step;    ///< transactions per run_transactions call
  std::size_t setups;  ///< constructions timed for setup_s (median)
  void (*configure)(sim::Params&);
};

void sharded4(sim::Params& p) {
  p.execution = "sharded";
  p.threads = 4;
  p.shards = 4;
  p.requestor_pool = 0;  // whole-population pairs, as fig5 draws them
  p.provider_pool = 0;
}

void serial(sim::Params& p) {
  p.execution = "serial";
  p.requestor_pool = 0;
  p.provider_pool = 0;
}

const Workload kWorkloads[] = {
    {"fast_serial_10k", 10'000, 9'000, 250, 250, 3,
     [](sim::Params& p) {
       serial(p);
       p.crypto_mode = "fast";
     }},
    {"full_crypto_serial_2k", 2'000, 120, 20, 20, 3,
     [](sim::Params& p) {
       serial(p);
       p.crypto_mode = "full";
     }},
    {"fast_sharded_10k", 10'000, 10'000, 250, 250, 3,
     [](sim::Params& p) {
       sharded4(p);
       p.crypto_mode = "fast";
     }},
    {"full_crypto_2k", 2'000, 300, 50, 50, 3,
     [](sim::Params& p) {
       sharded4(p);
       p.crypto_mode = "full";
     }},
    // Chaos and a lossy transport downgrade the executor to serial; the
    // schedules tick once per transaction, so every call is a batch of one.
    {"churn_faulty_2k", 2'000, 8'000, 200, 1, 5,
     [](sim::Params& p) {
       sharded4(p);
       p.crypto_mode = "fast";
       p.delivery = "faulty";
       p.drop_rate = 0.02;
       p.retry_max_attempts = 3;
       p.retry_timeout_ms = 500;
       p.retry_backoff_ms = 20;
       p.chaos = "on";
       p.chaos_crash_rate = 0.0002;
       p.chaos_mean_downtime = 100;
       p.adversary = "on";
       p.adversary_sybil_count = 5;
       p.adversary_sybil_period = 400;
       p.adversary_whitewash_count = 20;
     }},
};

// ---------------------------------------------------------------------------
// Clocks.

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of all threads of this process.
std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Time the hypervisor has taken from this machine's virtual CPUs so far, in
/// USER_HZ ticks (the steal column of /proc/stat); 0 where it is not
/// reported.  On a shared host, stolen CPU stalls every wave barrier of the
/// concurrent engine, so it moves throughput far more than the program does.
std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

struct Chunk {
  double rate = 0.0;       ///< transactions / wall-clock seconds
  std::uint64_t steal = 0; ///< steal ticks while it ran
};

/// The q-quantile of v, interpolating between order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

/// txn_per_s: the first decile of the chunk rates, over the chunks the
/// hypervisor disturbed least (those whose steal is at most the first
/// quartile of per-chunk steal; with no steal at all, every chunk).  The
/// host moves between calm and contended phases that last tens of seconds;
/// a high or middle quantile reads whichever phase a run happened to hit,
/// while the first decile reads the rate the program sustains through the
/// contended phases that nearly every run contains.
double throughput(const std::vector<Chunk>& chunks) {
  std::vector<double> steal;
  for (const auto& c : chunks) steal.push_back(static_cast<double>(c.steal));
  const double limit = quantile(steal, 0.25);
  std::vector<double> rates;
  for (const auto& c : chunks) {
    if (static_cast<double>(c.steal) <= limit) rates.push_back(c.rate);
  }
  return quantile(rates, 0.10);
}

// ---------------------------------------------------------------------------
// Registry cells whose busy time is read around every span.  Looking them
// up here registers them with the same names and bounds the library uses.

constexpr const char* kRsaOps[] = {"sign", "verify", "encrypt", "decrypt",
                                   "generate"};
constexpr const char* kNetTimers[] = {"send", "batch_build", "drain"};

struct BusyCells {
  std::vector<obs::Histogram*> rsa_ms;
  std::vector<obs::Timer*> net;

  BusyCells() {
    auto& reg = obs::Registry::global();
    for (const char* op : kRsaOps) {
      rsa_ms.push_back(&reg.histogram(std::string("crypto.rsa.") + op + ".ms",
                                      obs::latency_buckets_ms()));
    }
    for (const char* t : kNetTimers) {
      net.push_back(&reg.timer(std::string("transport/") + t));
    }
  }
};

/// Busy time the registry attributes to crypto and net, summed across
/// threads.  RSA ops and transport passes never nest inside each other.
struct Busy {
  double crypto_ms = 0.0;
  double net_ms = 0.0;
};

Busy read_busy(const BusyCells& cells) {
  Busy b;
  for (const auto* h : cells.rsa_ms) b.crypto_ms += h->sum();
  for (const auto* t : cells.net) {
    b.net_ms += static_cast<double>(t->total_ns()) * 1e-6;
  }
  return b;
}

/// One layer's spans: wall and process-CPU time inside them, plus the
/// crypto/net busy time the registry recorded while they were open.
struct Span {
  std::uint64_t calls = 0;
  std::uint64_t wall = 0;
  std::uint64_t cpu = 0;
  Busy child;
};

/// Wraps every call into a layer in its own span when tracing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  template <typename F>
  void span(Span& s, F&& f) {
    if (!on_) {
      f();
      return;
    }
    const Busy b0 = read_busy(cells_);
    const std::uint64_t c0 = cpu_ns();
    const std::uint64_t w0 = wall_ns();
    f();
    const std::uint64_t w1 = wall_ns();
    const std::uint64_t c1 = cpu_ns();
    const Busy b1 = read_busy(cells_);
    ++s.calls;
    s.wall += w1 - w0;
    s.cpu += c1 - c0;
    s.child.crypto_ms += b1.crypto_ms - b0.crypto_ms;
    s.child.net_ms += b1.net_ms - b0.net_ms;
  }

 private:
  bool on_;
  BusyCells cells_;
};

// ---------------------------------------------------------------------------
// Output check and deterministic metrics.

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

std::uint64_t record_hash(std::uint64_t h, const Record& r) {
  h = mix(h, r.requestor);
  h = mix(h, r.provider);
  h = mix(h, std::bit_cast<std::uint64_t>(r.estimate));
  h = mix(h, std::bit_cast<std::uint64_t>(r.truth_value));
  h = mix(h, std::bit_cast<std::uint64_t>(r.outcome));
  h = mix(h, r.responses);
  return mix(h, r.trust_messages);
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0x243f6a8885a308d3ULL;
  double sq_err = 0.0;
  std::uint64_t trust_messages = 0;
  std::size_t no_response = 0;
  std::string first_error;

  void fail(std::size_t index, const std::string& why) {
    ++failed;
    if (first_error.empty()) {
      first_error = "txn " + std::to_string(index) + ": " + why;
    }
  }

  /// Validates one chunk's records against the pairs that produced them.
  void check(std::span<const Pair> pairs, const std::vector<Record>& records,
             std::size_t trusted_agents) {
    const std::size_t base = attempted;
    attempted += pairs.size();
    if (records.size() != pairs.size()) {
      failed += pairs.size();
      first_error = "chunk at txn " + std::to_string(base) + " returned " +
                    std::to_string(records.size()) + " records for " +
                    std::to_string(pairs.size()) + " pairs";
      return;
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      if (r.requestor != pairs[i].first || r.provider != pairs[i].second) {
        fail(base + i, "record does not match its pair");
      } else if (r.requestor == r.provider) {
        fail(base + i, "requestor == provider");
      } else if (!(r.estimate >= 0.0 && r.estimate <= 1.0)) {
        fail(base + i, "estimate outside [0,1]");
      } else if (r.responses > trusted_agents) {
        fail(base + i, "more responses than trusted agents");
      }
      digest = record_hash(digest, r);
      const double e = r.estimate - r.truth_value;
      sq_err += e * e;
      trust_messages += r.trust_messages;
      no_response += r.responses == 0;
    }
  }
};

// ---------------------------------------------------------------------------
// One system: set-up and run phase.

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::optional<std::size_t> nodes;
  std::optional<std::size_t> transactions;
  std::optional<std::size_t> setups;
  std::optional<std::string> execution;
};

struct Bench {
  sim::Params params;
  core::Executor exec;
  std::size_t transactions = 0;
};

Bench make_bench(const Options& o) {
  sim::Scenario sc;
  sc.seed(o.seed).network_size(o.nodes.value_or(o.workload->nodes));
  o.workload->configure(sc.params());
  if (o.execution) {
    sc.execution(*o.execution);
    if (*o.execution == "serial") sc.threads(0).shards(0);
  }
  sc.validate();
  const Workload& w = *o.workload;
  const auto chunks = static_cast<std::size_t>(
      std::llround(w.rate * o.seconds / static_cast<double>(w.chunk)));
  return {sc.params(), sc.execution_policy(),
          o.transactions.value_or(std::max<std::size_t>(1, chunks) * w.chunk)};
}

struct Live {
  std::unique_ptr<core::HirepSystem> system;
  std::shared_ptr<sim::ChaosEngine> chaos;
  std::shared_ptr<sim::Adversary> adversary;
};

/// Set-up as setup_s times it: construction plus chaos/adversary install.
/// The process-wide verify cache is emptied first so every construction
/// starts as cold as the first one in a fresh process.
Live set_up(const sim::Params& p) {
  crypto::VerifyCache::global().clear();
  Live live;
  live.system = std::make_unique<core::HirepSystem>(p.hirep_options());
  live.chaos = sim::install_chaos(*live.system, p);
  live.adversary = sim::install_adversary(*live.system, p);
  return live;
}

struct RunSpans {
  Span engine, chaos, adversary;
};

struct RunResult {
  Tally tally;
  std::vector<Chunk> chunks;
  std::uint64_t wall = 0;           ///< run-phase wall (sum of chunks)
  std::uint64_t cpu = 0;            ///< run-phase process CPU
  RunSpans spans;
};

/// Runs the workload's transactions in timed chunks.
RunResult run_phase(Live& live, const Bench& b, const Workload& w,
                    Tracer& tracer) {
  RunResult out;
  util::Rng rng(b.params.seed ^ kWorkloadSalt);
  const std::size_t n = b.params.network_size;
  std::vector<Pair> pairs;
  std::vector<Record> records;
  records.reserve(w.chunk);
  for (std::size_t done = 0; done < b.transactions; done += pairs.size()) {
    pairs.resize(std::min(w.chunk, b.transactions - done));
    for (auto& [r, q] : pairs) {
      r = static_cast<net::NodeIndex>(rng.below(n));
      q = r;
      while (q == r) q = static_cast<net::NodeIndex>(rng.below(n));
    }
    records.clear();
    const std::uint64_t s0 = steal_ticks();
    const std::uint64_t c0 = cpu_ns();
    const std::uint64_t t0 = wall_ns();
    for (std::size_t i = 0; i < pairs.size(); i += w.step) {
      const auto step = std::span<const Pair>(pairs).subspan(
          i, std::min(w.step, pairs.size() - i));
      const std::size_t first = records.size();
      tracer.span(out.spans.engine, [&] {
        auto recs = live.system->run_transactions(step, b.exec);
        records.insert(records.end(), recs.begin(), recs.end());
      });
      const std::size_t tick = done + i + step.size();
      if (live.chaos) {
        tracer.span(out.spans.chaos, [&] { live.chaos->advance_to(tick); });
      }
      if (live.adversary) {
        tracer.span(out.spans.adversary, [&] {
          for (std::size_t k = first; k < records.size(); ++k) {
            live.adversary->observe(records[k].provider, records[k].estimate);
          }
          live.adversary->advance_to(tick);
        });
      }
    }
    const std::uint64_t dt = wall_ns() - t0;
    out.cpu += cpu_ns() - c0;
    out.wall += dt;
    out.chunks.push_back({static_cast<double>(pairs.size()) /
                              (static_cast<double>(dt) * 1e-9),
                          steal_ticks() - s0});
    out.tally.check(pairs, records, b.params.trusted_agents);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void emit(const Options& o, const Bench& b, const RunResult& run,
          const std::vector<Metric>& metrics, const std::string& extra_error) {
  const Tally& t = run.tally;
  const std::size_t failed = t.failed + (extra_error.empty() ? 0 : 1);
  const std::string& error =
      t.first_error.empty() ? extra_error : t.first_error;
  for (const auto& m : metrics) {
    std::printf("%-36s %22.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("records_digest %s over %zu transactions\n",
              hex(t.digest).c_str(), t.attempted);
  if (!error.empty()) std::printf("output check FAILED: %s\n", error.c_str());

  std::string j = "{\"workload\": \"" + std::string(o.workload->name) +
                  "\", \"seed\": " + std::to_string(o.seed) +
                  ", \"trace\": " + (o.trace ? "1" : "0") +
                  ", \"correct\": " + (failed == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(t.attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"records_digest\": \"" + hex(t.digest) +
                  "\", \"chunks\": " + std::to_string(run.chunks.size()) +
                  ", \"nodes\": " + std::to_string(b.params.network_size) +
                  ", \"execution\": \"" +
                  std::string(core::to_string(b.exec.mode)) +
                  "\", \"compiler\": \"" HIREP_BENCH_COMPILER
                  "\", \"build_type\": \"" HIREP_BENCH_BUILD_TYPE
                  "\", \"obs\": " + (obs::kEnabled ? "true" : "false") +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    j += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
}

std::vector<Metric> deterministic_metrics(const Tally& t) {
  const double m = t.attempted ? static_cast<double>(t.attempted) : 1.0;
  return {{"trust_mse", t.sq_err / m, "sq_err"},
          {"trust_msgs_per_txn", static_cast<double>(t.trust_messages) / m,
           "msg/txn"},
          // served = 1 - failed; the end-to-end set keeps the form that is
          // never 0, so its bound stays a share of a nonzero median.
          {"served_txn_ratio", 1.0 - static_cast<double>(t.no_response) / m,
           "ratio"},
          {"failed_txn_ratio", static_cast<double>(t.no_response) / m,
           "ratio"}};
}

int run_untraced(const Options& o, const Bench& b) {
  const std::size_t setups = o.setups.value_or(o.workload->setups);
  std::vector<double> setup_s;
  Live live;
  for (std::size_t i = 0; i < setups; ++i) {
    live = {};  // one system alive at a time
    const std::uint64_t t0 = wall_ns();
    live = set_up(b.params);
    setup_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
  }
  Tracer off(false);
  const RunResult run = run_phase(live, b, *o.workload, off);
  std::vector<Metric> metrics = {
      {"txn_per_s", throughput(run.chunks), "txn/s"},
      {"setup_s", median(setup_s), "s"}};
  for (auto& m : deterministic_metrics(run.tally)) metrics.push_back(m);
  std::uint64_t steal = 0;
  for (const auto& c : run.chunks) steal += c.steal;
  std::printf("run phase: %zu transactions in %zu chunks, %.3f s wall, "
              "%.3f s cpu, %llu host steal ticks; setups %zu\n",
              run.tally.attempted, run.chunks.size(),
              static_cast<double>(run.wall) * 1e-9,
              static_cast<double>(run.cpu) * 1e-9,
              static_cast<unsigned long long>(steal), setups);
  emit(o, b, run, metrics, "");
  return run.tally.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run.

struct SnapView {
  std::map<std::string, double, std::less<>> v;

  explicit SnapView(const obs::Snapshot& s) {
    for (const auto& c : s.counters) v[c.name] = static_cast<double>(c.value);
    for (const auto& h : s.histograms) {
      v[h.name + "#count"] = static_cast<double>(h.count);
      v[h.name + "#sum"] = h.sum;
    }
    for (const auto& t : s.timers) {
      v[t.name + "#count"] = static_cast<double>(t.count);
      v[t.name + "#ms"] = static_cast<double>(t.total_ns) * 1e-6;
    }
  }
  double operator()(std::string_view name) const {
    const auto it = v.find(name);
    return it == v.end() ? 0.0 : it->second;
  }
  /// Sums every entry named "<prefix>*<suffix>".
  double sum(std::string_view prefix, std::string_view suffix) const {
    double total = 0.0;
    for (const auto& [name, value] : v) {
      if (name.size() >= prefix.size() + suffix.size() &&
          name.starts_with(prefix) && name.ends_with(suffix)) {
        total += value;
      }
    }
    return total;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_traced(const Options& o, const Bench& b) {
  const Workload& w = *o.workload;
  auto& reg = obs::Registry::global();

  // Untraced reference: the same work without spans, for the overhead.
  RunResult plain;
  {
    Live live = set_up(b.params);
    Tracer off(false);
    plain = run_phase(live, b, w, off);
  }

  // Traced: a bootstrap span over set-up, then reset() so the run phase's
  // registry deltas start at zero.
  Tracer tracer(true);
  reg.reset();
  const std::uint64_t bw0 = wall_ns();
  const std::uint64_t bc0 = cpu_ns();
  Live live = set_up(b.params);
  const double boot_wall = static_cast<double>(wall_ns() - bw0) * 1e-9;
  const double boot_cpu = static_cast<double>(cpu_ns() - bc0) * 1e-9;
  const SnapView boot(reg.snapshot());
  reg.reset();

  const RunResult run = run_phase(live, b, w, tracer);
  const SnapView r(reg.snapshot());
  const RunSpans& s = run.spans;

  // Reconciliation: each span's self time is its time minus the crypto and
  // net busy time recorded inside it.  Serial runs are reconciled against
  // wall-clock; sharded runs against process CPU, because busy time is
  // summed across worker threads.
  const bool serial = b.exec.mode == core::ExecutionMode::kSerial;
  const auto span_ms = [serial](const Span& sp) {
    return static_cast<double>(serial ? sp.wall : sp.cpu) * 1e-6;
  };
  const auto self_ms = [&](const Span& sp) {
    return span_ms(sp) - sp.child.crypto_ms - sp.child.net_ms;
  };
  const double crypto_ms = s.engine.child.crypto_ms + s.chaos.child.crypto_ms +
                           s.adversary.child.crypto_ms;
  const double net_ms = s.engine.child.net_ms + s.chaos.child.net_ms +
                        s.adversary.child.net_ms;
  const double basis_ms =
      static_cast<double>(serial ? run.wall : run.cpu) * 1e-6;
  const double residual_ms = basis_ms - self_ms(s.engine) - self_ms(s.chaos) -
                             self_ms(s.adversary) - crypto_ms - net_ms;
  const double overhead_s =
      static_cast<double>(static_cast<std::int64_t>(run.wall) -
                          static_cast<std::int64_t>(plain.wall)) *
      1e-9;

  const double engine_wall = static_cast<double>(s.engine.wall) * 1e-9;
  const double engine_cpu = static_cast<double>(s.engine.cpu) * 1e-9;
  const double sent = r.sum("net.envelope.", ".sent");
  const double requests = r("net.reliable.requests");

  std::vector<Metric> m = {
      {"bootstrap.wall_s", boot_wall, "s"},
      {"bootstrap.cpu_s", boot_cpu, "s"},
      {"bootstrap.rsa_generate_ops", boot("crypto.rsa.generate.ops"), "count"},
      {"bootstrap.rsa_generate_ms", boot("crypto.rsa.generate.ms#sum"), "ms"},
      {"bootstrap.rsa_encrypt_ms", boot("crypto.rsa.encrypt.ms#sum"), "ms"},
      {"bootstrap.rsa_decrypt_ms", boot("crypto.rsa.decrypt.ms#sum"), "ms"},
      {"bootstrap.discovery_walks", boot("hirep.discovery.walks"), "count"},
      {"engine.wall_s", engine_wall, "s"},
      {"engine.cpu_s", engine_cpu, "s"},
      {"engine.busy_cores", ratio(engine_cpu, engine_wall), "cores"},
      {"engine.calls", static_cast<double>(s.engine.calls), "count"},
      {"engine.self_ms", self_ms(s.engine), "ms"},
  };
  for (const char* op : kRsaOps) {
    const std::string cell = std::string("crypto.rsa.") + op;
    const std::string name = std::string("crypto.rsa_") + op;
    m.push_back({name + "_ops", r(cell + ".ops"), "count"});
    m.push_back({name + "_ms", r(cell + ".ms#sum"), "ms"});
  }
  const double vh = r("crypto.verify_cache.hits");
  const double bh = r("crypto.binding_cache.hits");
  m.insert(m.end(), {
      {"crypto.verify_cache_hit_ratio",
       ratio(vh, vh + r("crypto.verify_cache.misses")), "ratio"},
      {"crypto.binding_cache_hit_ratio",
       ratio(bh, bh + r("crypto.binding_cache.misses")), "ratio"},
      {"crypto.busy_ms", crypto_ms, "ms"},
      {"crypto.busy_share", ratio(crypto_ms, basis_ms), "ratio"},
      {"onion.built", r("onion.built"), "count"},
      {"onion.layers_built", r("onion.layers_built"), "count"},
      {"onion.layers_peeled", r("onion.layers_peeled"), "count"},
      {"onion.sq_refreshes", r("onion.sq.refreshes"), "count"},
      {"onion.peel_failures", r("onion.peel.failures"), "count"},
      {"net.send_ms", r("transport/send#ms"), "ms"},
      {"net.send_count", r("transport/send#count"), "count"},
      {"net.batch_build_ms", r("transport/batch_build#ms"), "ms"},
      {"net.batch_build_count", r("transport/batch_build#count"), "count"},
      {"net.drain_ms", r("transport/drain#ms"), "ms"},
      {"net.drain_count", r("transport/drain#count"), "count"},
      {"net.busy_ms", net_ms, "ms"},
      {"net.hop_messages", r.sum("net.envelope.", ".hop_messages"), "count"},
      {"net.payload_bytes_sent", r.sum("net.envelope.", ".payload_bytes_sent"),
       "bytes"},
      {"net.delivered_ratio", ratio(r.sum("net.envelope.", ".delivered"), sent),
       "ratio"},
      {"net.reliable_requests", requests, "count"},
      {"net.reliable_retries", r("net.reliable.retries"), "count"},
      {"net.reliable_timeouts", r("net.reliable.timeouts"), "count"},
      {"net.reliable_gave_up", r("net.reliable.gave_up"), "count"},
      {"net.reliable_success_ratio",
       ratio(requests - r("net.reliable.gave_up"), requests), "ratio"},
      {"hirep.trust_queries", r("hirep.trust.queries"), "count"},
      {"hirep.votes_sent", r("hirep.trust.votes_sent"), "count"},
      {"hirep.evictions", r("hirep.agent.evictions"), "count"},
      {"hirep.discovery_walks", r("hirep.discovery.walks"), "count"},
      {"hirep.recovery_suspicions", r("hirep.recovery.suspicions"), "count"},
      {"hirep.recovery_quarantines", r("hirep.recovery.quarantines"), "count"},
      {"hirep.recovery_backup_promotions",
       r("hirep.recovery.backup_promotions"), "count"},
      {"hirep.recovery_rediscoveries", r("hirep.recovery.rediscoveries"),
       "count"},
      {"sim.chaos_advance_ms", span_ms(s.chaos), "ms"},
      {"sim.adversary_advance_ms", span_ms(s.adversary), "ms"},
      {"sim.chaos_self_ms", self_ms(s.chaos), "ms"},
      {"sim.adversary_self_ms", self_ms(s.adversary), "ms"},
      {"sim.span_share",
       ratio(span_ms(s.chaos) + span_ms(s.adversary), basis_ms), "ratio"},
      {"sim.sybil_joins", r("sim.adversary.sybil_joins"), "count"},
      {"sim.whitewash_rotations", r("sim.adversary.whitewash_rotations"),
       "count"},
      {"sim.chaos_crashes", r("sim.chaos.crashes"), "count"},
      {"trace.basis_ms", basis_ms, "ms"},
      {"trace.residual_ms", residual_ms, "ms"},
      {"trace.residual_ratio", ratio(residual_ms, basis_ms), "ratio"},
      {"trace.overhead_s", overhead_s, "s"},
      {"trace.overhead_ratio",
       ratio(overhead_s, static_cast<double>(plain.wall) * 1e-9), "ratio"},
  });

  std::printf("traced run: %zu transactions, %zu chunks; reconciled against "
              "%s\n",
              run.tally.attempted, run.chunks.size(),
              serial ? "wall-clock" : "process CPU time");
  std::printf("  %-22s %14s %8s\n", "layer (self)", "ms", "share");
  const std::pair<const char*, double> rows[] = {
      {"engine", self_ms(s.engine)},     {"crypto", crypto_ms},
      {"net", net_ms},                   {"sim.chaos", self_ms(s.chaos)},
      {"sim.adversary", self_ms(s.adversary)},
      {"outside spans", residual_ms}};
  for (const auto& [name, ms] : rows) {
    std::printf("  %-22s %14.3f %7.2f%%\n", name, ms,
                100.0 * ratio(ms, basis_ms));
  }
  std::printf("  %-22s %14.3f\n", "basis", basis_ms);
  std::printf("tracing overhead: %.4f s on %.4f s untraced\n", overhead_s,
              static_cast<double>(plain.wall) * 1e-9);

  // Tracing must not change what the program computes.
  std::string error;
  if (run.tally.digest != plain.tally.digest) {
    error = "traced records differ from untraced records";
  }
  if (plain.tally.failed != 0) {
    error = "untraced run: " + plain.tally.first_error;
  }
  emit(o, b, run, m, error);
  return run.tally.failed == 0 && error.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: hirep_bench --workload NAME --seed N "
               "--seconds S --trace 0|1\n"
               "       [--nodes N] [--transactions N] [--setups N] "
               "[--execution serial|sharded]\nworkloads:",
               why.c_str());
  for (const auto& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::size_t parse_count(std::string_view key, const std::string& v) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') {
    usage("bad value for " + std::string(key) + ": " + v);
  }
  return static_cast<std::size_t>(n);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(key));
    const std::string v = argv[++i];
    if (key == "--workload") {
      for (const auto& w : kWorkloads) {
        if (w.name == v) o.workload = &w;
      }
      if (!o.workload) usage("unknown workload " + v);
    } else if (key == "--seed") {
      o.seed = parse_count(key, v);
    } else if (key == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds >= 0.0 && o.seconds <= 3600.0)) {
        usage("--seconds takes 0..3600, got " + v);
      }
    } else if (key == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (key == "--nodes") {
      o.nodes = parse_count(key, v);
    } else if (key == "--transactions") {
      o.transactions = std::max<std::size_t>(1, parse_count(key, v));
    } else if (key == "--setups") {
      o.setups = std::max<std::size_t>(1, parse_count(key, v));
    } else if (key == "--execution") {
      if (v != "serial" && v != "sharded") usage("bad --execution " + v);
      o.execution = v;
    } else {
      usage("unknown argument " + std::string(key));
    }
  }
  if (!o.workload) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    const Bench b = make_bench(o);
    return o.trace ? run_traced(o, b) : run_untraced(o, b);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
