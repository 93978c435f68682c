// Overload goodput benchmark: drives the full DynaStar stack through a
// scripted 2x client surge — with a crash-recovery snapshot install landing
// inside the surge window — and reports goodput (kOk completions/sec) over
// three windows:
//
//   baseline  [1s,  6s)  steady closed-loop clients only
//   surge     [6s, 10s)  2x extra surge clients; one replica crashes at
//                        6.2s and recovers at 8.2s via snapshot install
//   recovery  [11s, 15s) surge over, all replicas up
//
// The metastable-failure gates, declared where the ratios are recorded:
//   surge_ratio    = surge goodput    / baseline goodput  >= 0.5
//   recovery_ratio = recovery goodput / baseline goodput  >= 0.9
// i.e. bounded admission queues + Busy shedding keep the system doing useful
// work at half its calm rate under 2x-saturation-plus-fault pressure, and it
// returns to its calm rate instead of collapsing into a retry storm.
//
// The steady population is sized so that the baseline window already runs
// near saturation: in a client sweep of this configuration without surge or
// crash, 48 clients reach 28.0k/s of the ≈ 33.0k/s that 192 clients reach
// (85%), so the surge overloads the system instead of just adding work.
//
// Everything is scripted (fixed seed, fixed crash/surge instants), so the
// emitted BENCH_overload.json is reproducible run-to-run.
//
// Usage: overload_goodput [output.json]   (default BENCH_overload.json)
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/metric_names.h"
#include "core/scenario.h"
#include "core/system.h"
#include "sim/world.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

constexpr std::uint64_t kKeys = 12;
constexpr std::size_t kSteadyClients = 48;
constexpr std::size_t kSurgeClients = 2 * kSteadyClients;
constexpr std::uint64_t kServerQueueCap = 8;
constexpr std::uint64_t kOracleInflightCap = 16;
constexpr std::uint64_t kSeed = 42;

constexpr std::int64_t kBaselineFrom = 1, kBaselineTo = 6;
constexpr std::int64_t kSurgeFrom = 6, kSurgeTo = 10;
constexpr std::int64_t kRecoveryFrom = 11, kRecoveryTo = 15;

}  // namespace
}  // namespace dynastar

int main(int argc, char** argv) {
  using namespace dynastar;
  using bench::BenchDoc;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_overload.json";

  std::vector<SimTime> oks;
  const auto driver_factory = [&oks](std::size_t) {
    return std::make_unique<bench::GoodputDriver>(
        std::make_unique<workloads::RandomKvDriver>(kKeys, 0.5, 0.2), &oks);
  };

  auto system =
      core::ScenarioBuilder()
          .execution_mode(core::ExecutionMode::kDynaStar)
          .partitions(3)
          .seed(kSeed)
          .queue_cap(kServerQueueCap)
          .tune([](core::SystemConfig& c) {
            c.oracle_inflight_cap = kOracleInflightCap;
            // A 2-second outage outruns peers' retained logs, so the
            // recovery inside the surge window REQUIRES a snapshot install.
            c.paxos.checkpoint_interval = 32;
            c.paxos.catchup_window = 8;
          })
          .app(workloads::kv_app_factory())
          .preload_kv(kKeys, workloads::KvObject(0))
          .clients(kSteadyClients, driver_factory)
          .surge_clients(kSurgeClients, driver_factory)
          .build();

  auto& world = system->world();
  world.sim().schedule_at(seconds(kSurgeFrom), [&world] {
    world.begin_surge();
  });
  world.sim().schedule_at(seconds(kSurgeTo), [&world] { world.end_surge(); });
  // Crash a partition-0 follower 200 ms into the surge; it recovers while
  // the surge is still running and must install a snapshot under load.
  const ProcessId victim =
      system->topology().group(core::group_of(PartitionId{0})).replicas[1];
  world.sim().schedule_at(seconds(kSurgeFrom) + milliseconds(200),
                          [&world, victim] { world.crash(victim); });
  world.sim().schedule_at(seconds(kSurgeFrom) + milliseconds(2200),
                          [&world, victim] { world.recover(victim); });

  std::printf("overload_goodput: %zu steady + %zu surge clients, "
              "caps server=%llu oracle=%llu, crash+recover inside surge...\n",
              kSteadyClients, kSurgeClients,
              static_cast<unsigned long long>(kServerQueueCap),
              static_cast<unsigned long long>(kOracleInflightCap));
  system->run_until(seconds(kRecoveryTo));

  const bench::GoodputWindow baseline(oks, kBaselineFrom, kBaselineTo);
  const bench::GoodputWindow surge(oks, kSurgeFrom, kSurgeTo);
  const bench::GoodputWindow recovery(oks, kRecoveryFrom, kRecoveryTo);
  const double surge_ratio = surge.goodput() / baseline.goodput();
  const double recovery_ratio = recovery.goodput() / baseline.goodput();

  const double server_shed = system->metrics().counter(metric::kServerShed);
  const double oracle_shed = system->metrics().counter(metric::kOracleShed);
  const double snapshot_installs =
      system->metrics().counter(metric::kServerSnapshotInstalls);

  std::printf("  baseline : %6llu ok = %8.1f/s\n",
              static_cast<unsigned long long>(baseline.ok_commands),
              baseline.goodput());
  std::printf("  surge    : %6llu ok = %8.1f/s  (ratio %.2f)\n",
              static_cast<unsigned long long>(surge.ok_commands),
              surge.goodput(), surge_ratio);
  std::printf("  recovery : %6llu ok = %8.1f/s  (ratio %.2f)\n",
              static_cast<unsigned long long>(recovery.ok_commands),
              recovery.goodput(), recovery_ratio);
  std::printf("  shed     : server %.0f, oracle %.0f; snapshot installs %.0f\n",
              server_shed, oracle_shed, snapshot_installs);

  BenchDoc doc("overload_goodput",
               Json::Object{
                   {"steady_clients",
                    static_cast<std::uint64_t>(kSteadyClients)},
                   {"surge_clients",
                    static_cast<std::uint64_t>(kSurgeClients)},
                   {"server_queue_cap", kServerQueueCap},
                   {"oracle_inflight_cap", kOracleInflightCap},
                   {"keys", kKeys},
                   {"seed", kSeed},
                   {"windows_s", Json::Array{
                       Json::Array{kBaselineFrom, kBaselineTo},
                       Json::Array{kSurgeFrom, kSurgeTo},
                       Json::Array{kRecoveryFrom, kRecoveryTo}}},
               });
  doc.metric("baseline.goodput_per_sec", baseline.goodput(), "1/s",
             BenchDoc::kHigher, BenchDoc::kDeterministic);
  doc.metric("surge.goodput_per_sec", surge.goodput(), "1/s",
             BenchDoc::kHigher, BenchDoc::kDeterministic);
  doc.metric("recovery.goodput_per_sec", recovery.goodput(), "1/s",
             BenchDoc::kHigher, BenchDoc::kDeterministic);
  // Shedding must keep goodput up during the surge (no metastable collapse)
  // and let it recover afterwards.
  doc.metric("surge_ratio", surge_ratio, "ratio", BenchDoc::kHigher,
             BenchDoc::kDeterministic)
      .min(0.5);
  doc.metric("recovery_ratio", recovery_ratio, "ratio", BenchDoc::kHigher,
             BenchDoc::kDeterministic)
      .min(0.9);
  doc.metric("shed.server", server_shed, "count", BenchDoc::kLower,
             BenchDoc::kDeterministic);
  doc.metric("shed.oracle", oracle_shed, "count", BenchDoc::kLower,
             BenchDoc::kDeterministic);
  // A 2x surge over a saturated system must engage the admission gates.
  doc.metric("shed.total", server_shed + oracle_shed, "count",
             BenchDoc::kLower, BenchDoc::kDeterministic)
      .min(1);
  // One scripted crash needs at most one install; more means the replica
  // fell below its peers' log floor again.
  doc.metric("snapshot_installs", snapshot_installs, "count",
             BenchDoc::kLower, BenchDoc::kDeterministic)
      .max(1);
  return doc.write(out_path);
}
