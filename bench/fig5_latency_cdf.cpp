// Figure 5: CDF of command latency for the mix workload (85% timeline /
// 15% post) on different partition counts, DynaStar vs S-SMR*.
//
// Shape to check: S-SMR* sits left of (below) DynaStar for ~80% of the
// distribution — DynaStar's multi-partition commands pay the extra
// variable-return round trip — while both tails stretch with partition
// count.
// A second entry point, `fig5_latency_cdf --bench-lease [out.json]`, reuses
// the latency-CDF machinery for the read-lease gate: the same seeded KV
// workload runs leases-off then leases-on and the multi-partition read-only
// median must drop by >= 20% while the single-partition median stays within
// 2% (gates declared in run_lease_bench, on the emitted BENCH_lease.json).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/chirper_common.h"
#include "common/metric_names.h"
#include "workloads/kv_drivers.h"

using namespace dynastar;

namespace {

std::vector<Histogram::CdfPoint> run_cdf(core::ExecutionMode mode,
                                         std::uint32_t partitions) {
  auto config = mode == core::ExecutionMode::kDynaStar
                    ? baselines::config_for("dynastar", partitions)
                    : baselines::config_for("ssmr", partitions);
  config.repartition_hint_threshold = 1'000'000'000;
  bench::ChirperParams params;
  params.clients_per_partition = 7;  // ~75% of saturation
  auto setup = bench::make_chirper(config, bench::chirper::Placement::kOptimized,
                                   params);
  setup.system->run_until(seconds(4));
  const auto* latency = setup.system->metrics().find_histogram("latency");
  return latency ? latency->cdf() : std::vector<Histogram::CdfPoint>{};
}

void print_cdf(const char* label,
               const std::vector<Histogram::CdfPoint>& cdf) {
  std::printf("# %s: latency_ms cumulative_fraction (decile samples)\n", label);
  double next = 0.1;
  for (const auto& point : cdf) {
    if (point.fraction + 1e-12 < next) continue;
    while (next <= point.fraction + 1e-12) {
      std::printf("  %8.3f  %.2f\n", to_millis(point.value), next);
      next += 0.1;
    }
    if (next > 0.999) break;
  }
}

// ---------------------------------------------------------------------------
// --bench-lease: leases-off vs leases-on latency on a read-heavy KV mix.

constexpr std::uint32_t kLeasePartitions = 4;
constexpr std::size_t kLeaseClients = 12;
// Keys k map to partition k % 4 (the static preload plan). The shared
// read-mostly region lives on partitions 0 and 1 (kSharedSlots keys on
// each); every client also owns one private key on partition 2 or 3, so the
// single-partition population shares no server group with the leased one
// and the gate isolates the lease effect from load coupling.
constexpr std::uint64_t kSharedSlots = 1;
constexpr std::uint64_t kLeaseKeys = 4 * kLeaseClients;
constexpr std::uint64_t kLeaseSeed = 7;
constexpr double kLeaseMultiFraction = 0.8;
constexpr double kSharedWriteFraction = 0.04;
constexpr double kPrivateWriteFraction = 0.2;
constexpr std::int64_t kLeaseWarmupS = 1;
constexpr std::int64_t kLeaseHorizonS = 6;

struct OpSample {
  bool multi = false;
  bool read_only = false;
  double ms = 0.0;
};

/// Wraps a driver and records, per kOk completion after warmup, whether the
/// command spanned partitions, whether it was read-only, and its latency.
/// Pure observation: `next` forwards untouched, so the command sequence is
/// identical leases-off and leases-on (same seed, no chaos).
class LeaseProbeDriver final : public core::ClientDriver {
 public:
  LeaseProbeDriver(std::unique_ptr<core::ClientDriver> inner,
                   std::vector<OpSample>* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override {
    return inner_->next(rng, now);
  }

  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override {
    inner_->on_result(spec, status, payload, issued_at, completed_at);
    if (status != core::ReplyStatus::kOk) return;
    if (issued_at < seconds(kLeaseWarmupS)) return;
    // The plan is static (repartitioning off), so vertex -> partition is the
    // preload layout: key % partitions.
    bool seen[kLeasePartitions] = {};
    std::uint32_t distinct = 0;
    for (const auto& [object, vertex] : spec.objects) {
      bool& slot = seen[vertex.value() % kLeasePartitions];
      if (!slot) ++distinct;
      slot = true;
    }
    sink_->push_back(
        {distinct > 1, spec.read_only, to_millis(completed_at - issued_at)});
  }

 private:
  std::unique_ptr<core::ClientDriver> inner_;
  std::vector<OpSample>* sink_;
};

/// The lease workload proper:
///   * multi-partition ops (kLeaseMultiFraction): one shared key on
///     partition 0 plus one on partition 1, issued back-to-back so the hot
///     pair actually contends — read-only except a kSharedWriteFraction
///     sliver of puts that exercises revocation;
///   * single-partition ops otherwise: the client's private key on
///     partition 2 or 3, kPrivateWriteFraction puts, followed by a 3 ms
///     think pause so partitions 2/3 stay uncongested and the single
///     population measures fixed costs, not load coupling.
/// All randomness comes from the per-client RNG handed to next(), so the
/// leases-off and leases-on runs issue identical command sequences.
class LeaseMixDriver final : public core::ClientDriver {
 public:
  explicit LeaseMixDriver(std::uint64_t private_key)
      : private_key_(private_key) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime /*now*/) override {
    if (pause_next_ != 0) {
      const SimTime pause = pause_next_;
      pause_next_ = 0;
      return core::CommandSpec::pause_for(pause);
    }
    core::CommandSpec spec;
    bool write = false;
    if (rng.chance(kLeaseMultiFraction)) {
      const std::uint64_t a = 4 * rng.uniform(0, kSharedSlots - 1);      // p0
      const std::uint64_t b = 4 * rng.uniform(0, kSharedSlots - 1) + 1;  // p1
      spec.objects.emplace_back(ObjectId{a}, core::VertexId{a});
      spec.objects.emplace_back(ObjectId{b}, core::VertexId{b});
      write = rng.chance(kSharedWriteFraction);
    } else {
      pause_next_ = milliseconds(3);
      spec.objects.emplace_back(ObjectId{private_key_},
                                core::VertexId{private_key_});
      write = rng.chance(kPrivateWriteFraction);
    }
    spec.payload = sim::make_message<workloads::KvOp>(
        write ? workloads::KvOp::Kind::kPut : workloads::KvOp::Kind::kGet,
        rng.uniform(0, 1u << 30));
    spec.read_only = !write;
    return spec;
  }

 private:
  std::uint64_t private_key_;
  SimTime pause_next_ = 0;
};

/// Private key for client `i`: partition 2 or 3, disjoint across clients.
constexpr std::uint64_t private_key_for(std::size_t i) {
  return 4 * static_cast<std::uint64_t>(i) + 2 + (i % 2);
}

struct LeaseRun {
  std::vector<OpSample> samples;
  double lease_reads = 0.0;
  double lease_fallbacks = 0.0;
  double ok_commands = 0.0;
};

LeaseRun run_lease(bool leases_on) {
  LeaseRun run;
  auto system =
      core::ScenarioBuilder()
          .execution_mode(core::ExecutionMode::kDynaStar)
          .partitions(kLeasePartitions)
          .seed(kLeaseSeed)
          .repartitioning(false)
          .read_leases(leases_on)
          .app(workloads::kv_app_factory())
          .preload_kv(kLeaseKeys, workloads::KvObject(0))
          .clients(kLeaseClients,
                   [&run](std::size_t i) {
                     return std::make_unique<LeaseProbeDriver>(
                         std::make_unique<LeaseMixDriver>(private_key_for(i)),
                         &run.samples);
                   })
          .build();
  system->run_until(seconds(kLeaseHorizonS));
  run.lease_reads = system->metrics().counter(metric::kServerLeaseReads);
  run.lease_fallbacks =
      system->metrics().counter(metric::kServerLeaseFallbacks);
  run.ok_commands = static_cast<double>(run.samples.size());
  return run;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

using bench::BenchDoc;

/// Records one latency population of one run: its size, median and
/// deciles (`p100_ms` is the maximum).
double record_population(BenchDoc& doc, const std::string& prefix,
                         std::vector<double> values) {
  const double median = median_of(values);
  doc.metric(prefix + ".count", static_cast<double>(values.size()), "count",
             BenchDoc::kHigher, BenchDoc::kDeterministic);
  doc.metric(prefix + ".median_ms", median, "ms", BenchDoc::kLower,
             BenchDoc::kDeterministic);
  std::sort(values.begin(), values.end());
  for (std::size_t d = 1; d <= 10 && !values.empty(); ++d) {
    std::size_t idx = values.size() * d / 10;
    if (idx > 0) --idx;
    doc.metric(prefix + ".p" + std::to_string(10 * d) + "_ms", values[idx],
               "ms", BenchDoc::kLower, BenchDoc::kDeterministic);
  }
  return median;
}

/// One run's samples split into the three gated populations:
/// multi-partition read-only (the leased path), single-partition (must not
/// move), multi-partition writes (still borrow/return). Returns their
/// medians in that order.
std::array<double, 3> record_lease_run(BenchDoc& doc, const std::string& side,
                                       const LeaseRun& run) {
  std::vector<double> multi_ro;
  std::vector<double> single;
  std::vector<double> multi_write;
  for (const OpSample& s : run.samples) {
    if (!s.multi)
      single.push_back(s.ms);
    else if (s.read_only)
      multi_ro.push_back(s.ms);
    else
      multi_write.push_back(s.ms);
  }
  doc.metric(side + ".ok_commands", run.ok_commands, "count",
             BenchDoc::kHigher, BenchDoc::kDeterministic);
  doc.metric(side + ".lease_fallbacks", run.lease_fallbacks, "count",
             BenchDoc::kLower, BenchDoc::kDeterministic);
  // The leased path must run only when leases are on.
  auto reads = doc.metric(side + ".lease_reads", run.lease_reads, "count",
                          BenchDoc::kHigher, BenchDoc::kDeterministic);
  if (side == "on") {
    reads.min(1);
    // ...and mostly validate.
    doc.metric("on.lease_fallback_share",
               run.lease_fallbacks / run.lease_reads, "ratio",
               BenchDoc::kLower, BenchDoc::kDeterministic)
        .max(0.1);
  } else {
    reads.max(0);
  }
  return {record_population(doc, side + ".multi_ro", multi_ro),
          record_population(doc, side + ".single", single),
          record_population(doc, side + ".multi_write", multi_write)};
}

int run_lease_bench(const char* out_arg) {
  const std::string out_path = out_arg != nullptr ? out_arg : "BENCH_lease.json";
  std::printf("=== Read-lease latency gate: DynaStar, %u partitions, "
              "%zu clients, %.0f%% multi (shared keys on p0+p1), "
              "private singles on p2/p3 ===\n",
              kLeasePartitions, kLeaseClients, kLeaseMultiFraction * 100);

  BenchDoc doc("fig5_latency_cdf --bench-lease",
               Json::Object{
                   {"partitions", static_cast<std::uint64_t>(kLeasePartitions)},
                   {"keys", kLeaseKeys},
                   {"clients", static_cast<std::uint64_t>(kLeaseClients)},
                   {"seed", kLeaseSeed},
                   {"shared_keys", 2 * kSharedSlots},
                   {"multi_fraction", kLeaseMultiFraction},
                   {"shared_write_fraction", kSharedWriteFraction},
                   {"private_write_fraction", kPrivateWriteFraction},
                   {"warmup_s", kLeaseWarmupS},
                   {"horizon_s", kLeaseHorizonS},
               });
  const LeaseRun off = run_lease(false);
  const LeaseRun on = run_lease(true);
  const auto [off_median, off_single, off_write] =
      record_lease_run(doc, "off", off);
  const auto [on_median, on_single, on_write] = record_lease_run(doc, "on", on);

  const double reduction = 1.0 - on_median / off_median;
  const double single_shift = (on_single - off_single) / off_single;
  // Leases must pay for themselves on the population they serve...
  doc.metric("multi_ro_median_reduction", reduction, "ratio",
             BenchDoc::kHigher, BenchDoc::kDeterministic)
      .min(0.2);
  // ...without perturbing traffic that never touches them...
  doc.metric("single_median_shift", single_shift, "ratio", BenchDoc::kLower,
             BenchDoc::kDeterministic)
      .min(-0.02)
      .max(0.02);
  // ...and without slowing the write path, which still borrows/returns (it
  // may well get faster: writes no longer queue behind blocked reads).
  doc.metric("multi_write_median_ratio", on_write / off_write, "ratio",
             BenchDoc::kLower, BenchDoc::kDeterministic)
      .max(1.02);

  std::printf("  multi-partition read-only median: %.3f ms -> %.3f ms "
              "(%.1f%% reduction)\n",
              off_median, on_median, reduction * 100);
  std::printf("  single-partition median         : %.3f ms -> %.3f ms "
              "(%+.2f%%)\n",
              off_single, on_single, single_shift * 100);
  std::printf("  leases-on: %.0f leased reads, %.0f fallbacks, %.0f ok "
              "commands measured\n",
              on.lease_reads, on.lease_fallbacks, on.ok_commands);
  return doc.write(out_path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--bench-lease") == 0)
    return run_lease_bench(argc > 2 ? argv[2] : nullptr);

  std::vector<std::uint32_t> sweep{2, 4, 8};
  if (bench::full_mode()) sweep.push_back(16);

  std::printf("=== Figure 5: latency CDFs, mix workload ===\n");
  for (std::uint32_t k : sweep) {
    std::printf("\n--- %u partitions ---\n", k);
    print_cdf("DynaStar", run_cdf(core::ExecutionMode::kDynaStar, k));
    print_cdf("S-SMR*", run_cdf(core::ExecutionMode::kSSMR, k));
  }
  std::printf(
      "\nReading guide (vs paper Fig. 5): S-SMR* achieves lower latency than\n"
      "DynaStar for ~80%% of the load; DynaStar's tail reflects the extra\n"
      "data returned to the source partitions after each borrow.\n");
  return 0;
}
