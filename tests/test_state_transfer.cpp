// Chunked state transfer under faults: a recovering replica whose gap
// outruns its peers' retained logs pulls the last stable checkpoint as
// fixed-size chunks (paxos/messages.h §Chunked snapshot transfer). These
// tests drive the ISSUE's migration-under-fault scenarios end to end:
// multi-chunk installs complete and stay linearizable, a mid-transfer
// bandwidth collapse on a WAN topology delays but never wedges the pull,
// a sender crash mid-transfer is survived by redirecting chunk requests to
// another up-to-date peer, and the whole machinery is bit-deterministic
// per seed.
#include <gtest/gtest.h>

#include <iostream>
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/linearizability.h"
#include "common/metric_names.h"
#include "common/trace.h"
#include "core/system.h"
#include "sim/network.h"
#include "tests/lin_harness.h"
#include "tests/test_util.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

using testutil::config_for;

constexpr std::uint64_t kKeys = 16;
constexpr std::uint64_t kBaseValue = 1000;

// Per-key initial values matching testutil::with_initial_puts (key k starts
// at kBaseValue + k); testutil::preload would seed every key with the same
// value and make the seeded history lie about the initial state.
void preload(core::System& system) {
  core::Assignment assignment;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const PartitionId p{k % system.config().num_partitions};
    assignment[core::VertexId{k}] = p;
    system.preload_object(ObjectId{k}, core::VertexId{k}, p,
                          workloads::KvObject(kBaseValue + k));
  }
  system.preload_assignment(assignment);
}

// Small checkpoints and no catch-up window beyond them: a peer's log floor
// is its last stable checkpoint, so a replica that misses a few dozen
// decisions is below it and must pull that checkpoint as chunks. Tiny
// chunks force real multi-chunk transfers out of the few-KiB test
// snapshots.
core::SystemConfig transfer_config(std::uint64_t seed,
                                   std::uint32_t replicas = 2) {
  auto config = config_for(core::ExecutionMode::kDynaStar, /*partitions=*/2);
  config.seed = seed;
  config.replicas_per_partition = replicas;
  config.paxos.checkpoint_interval = 16;
  config.paxos.catchup_window = 0;
  config.paxos.transfer_chunk_bytes = 256;
  // Unbounded retries: commands issued into the crash window must retry
  // until they land (a bounded budget would orphan executed-but-unacked
  // puts, which is an at-most-once question, not a transfer one).
  config.client_timeout_base = milliseconds(300);
  config.client_timeout_jitter = milliseconds(20);
  config.client_timeout_cap = seconds(2);
  config.client_max_attempts = 0;
  return config;
}

// Asserts linearizability; on failure, dumps the stuck operation and every
// operation touching its keys so the anomaly is diagnosable from the log.
void expect_linearizable(const std::vector<KvOperation>& full) {
  const auto res = check_kv_linearizable(full);
  EXPECT_TRUE(res.linearizable);
  if (res.linearizable || !res.stuck_operation) return;
  const auto dump = [&](std::size_t i) {
    const KvOperation& op = full[i];
    std::cerr << "  #" << i << (op.is_put ? " put " : " get ") << "keys=";
    for (auto k : op.keys) std::cerr << k << ",";
    std::cerr << " value=" << op.value << " observed=";
    for (const auto& o : op.observed)
      std::cerr << (o ? std::to_string(*o) : std::string("absent")) << ",";
    std::cerr << " t=[" << op.invoke_time << "," << op.response_time << "]\n";
  };
  const KvOperation& stuck = full[*res.stuck_operation];
  std::cerr << "stuck operation:\n";
  dump(*res.stuck_operation);
  std::cerr << "operations sharing a key:\n";
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (i == *res.stuck_operation) continue;
    bool shares = false;
    for (auto k : full[i].keys)
      for (auto sk : stuck.keys)
        if (k == sk) shares = true;
    if (shares) dump(i);
  }
}

struct CrashRecoverRun {
  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  std::uint64_t expected = 0;
};

void add_recording_clients(core::System& system, CrashRecoverRun& run,
                           int clients, int ops) {
  run.expected = static_cast<std::uint64_t>(clients) * ops;
  for (int c = 0; c < clients; ++c) {
    system.add_client(std::make_unique<testutil::RecordingKvDriver>(
        kKeys, ops, &run.history, &run.tally));
  }
}

TEST(StateTransfer, ChunkedInstallCompletesAndIsLinearizable) {
  core::System system(transfer_config(/*seed=*/11),
                      workloads::kv_app_factory());
  system.world().trace().enable();
  preload(system);
  CrashRecoverRun run;
  add_recording_clients(system, run, /*clients=*/6, /*ops=*/150);

  // Take the follower down while commands are in flight, let its peers
  // decide far past checkpoint + catch-up window, then bring it back.
  system.run_until(milliseconds(20));
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[1];
  system.world().crash(victim);
  system.run_until(milliseconds(80));
  system.world().recover(victim);
  system.run_until(seconds(8));

  // The recovery went through the chunk protocol: multiple chunks served,
  // the transfer completed, and the trace carries the state_transfer span.
  EXPECT_GE(system.metrics().counter(metric::kServerSnapshotInstalls), 1.0);
  EXPECT_GT(system.metrics().counter(metric::kTransferChunksSent), 1.0);
  bool saw_start = false, saw_end = false;
  for (const TraceEvent& ev : system.world().trace().events()) {
    if (ev.point == TracePoint::kStateTransferStart) saw_start = true;
    if (ev.point == TracePoint::kStateTransferEnd) saw_end = true;
  }
  EXPECT_TRUE(saw_start) << "no state_transfer_start trace event";
  EXPECT_TRUE(saw_end) << "no state_transfer_end trace event";

  EXPECT_EQ(run.tally.completions, run.expected) << "clients hung";
  const auto full =
      testutil::with_initial_puts(run.history, kKeys, kBaseValue);
  expect_linearizable(full);
}

TEST(StateTransfer, BandwidthCollapseMidTransferStillCompletes) {
  // WAN topology (2 sites, replicas striped across them) with the
  // inter-site bandwidth collapsed 10x over a window that spans the
  // recovery: the chunked install must finish anyway, and commands on the
  // unaffected partition must keep executing through the collapse.
  auto config = transfer_config(/*seed=*/12);
  config.net_sites = 2;
  core::System system(config, workloads::kv_app_factory());
  preload(system);
  CrashRecoverRun run;
  add_recording_clients(system, run, /*clients=*/6, /*ops=*/150);

  system.run_until(milliseconds(20));
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[1];
  system.world().crash(victim);
  system.run_until(milliseconds(80));
  // Collapse every profiled link right as the transfer starts; restore
  // two simulated seconds later.
  system.world().sim().schedule_at(milliseconds(85), [&system] {
    system.world().network().set_bandwidth_scale(0.1);
  });
  system.world().sim().schedule_at(seconds(2), [&system] {
    system.world().network().set_bandwidth_scale(1.0);
  });
  system.world().recover(victim);
  system.run_until(seconds(12));

  EXPECT_GE(system.metrics().counter(metric::kServerSnapshotInstalls), 1.0)
      << "the bandwidth collapse wedged the chunked install";
  EXPECT_GT(system.metrics().counter(metric::kTransferChunksSent), 1.0);
  // The link-capacity model engaged: inter-site traffic is accounted per
  // site pair.
  EXPECT_NE(system.metrics().find_series(metric::kNetworkBytesSent,
                                         {{"link", "s0->s1"}}),
            nullptr)
      << "no labeled inter-site byte accounting";

  EXPECT_EQ(run.tally.completions, run.expected) << "clients hung";
  const auto full =
      testutil::with_initial_puts(run.history, kKeys, kBaseValue);
  expect_linearizable(full);
}

TEST(StateTransfer, SenderCrashMidTransferResumesFromDifferentPeer) {
  // 3 replicas per group: the recovering replica's first chunk requests
  // probe the bootstrap leader (untried peers score +inf, topology order
  // breaks the tie) — which is down. The per-chunk retransmit timers must
  // penalize the silent peer and redirect to the surviving replica, which
  // serves an interchangeable manifest because checkpoint slots are
  // deterministic across the group.
  core::System system(transfer_config(/*seed=*/13, /*replicas=*/3),
                      workloads::kv_app_factory());
  preload(system);
  CrashRecoverRun run;
  add_recording_clients(system, run, /*clients=*/6, /*ops=*/150);

  const auto& group =
      system.topology().group(core::group_of(PartitionId{0}));
  const ProcessId victim = group.replicas[2];
  const ProcessId sender = group.replicas[0];

  system.run_until(milliseconds(20));
  system.world().crash(victim);
  system.run_until(milliseconds(80));
  // Kill the natural transfer source before the victim returns; the group
  // keeps deciding (acceptor majority is untouched, replica 1 leads).
  system.world().crash(sender);
  system.run_until(milliseconds(90));
  system.world().recover(victim);
  system.run_until(seconds(2));
  system.world().recover(sender);
  system.run_until(seconds(12));

  EXPECT_GE(system.metrics().counter(metric::kServerSnapshotInstalls), 1.0)
      << "recovery never completed a snapshot install";
  EXPECT_GE(system.metrics().counter(metric::kTransferChunksRetransmitted),
            1.0)
      << "no chunk was ever re-requested — the dead-sender redirect path "
         "was not exercised";

  EXPECT_EQ(run.tally.completions, run.expected) << "clients hung";
  const auto full =
      testutil::with_initial_puts(run.history, kKeys, kBaseValue);
  expect_linearizable(full);
}

TEST(StateTransfer, LogFloorNeverPassesStableCheckpoint) {
  // The rule behind the single install path: a replica trims its log only
  // up to its stable checkpoint, so a peer below the floor can always be
  // sent that checkpoint plus the decisions retained above it. Sampled on
  // every live replica of every group while a follower crashes, rejoins
  // and installs under load, with a window smaller than the interval.
  auto config = transfer_config(/*seed=*/15);
  config.paxos.checkpoint_interval = 32;
  config.paxos.catchup_window = 8;
  core::System system(config, workloads::kv_app_factory());
  preload(system);
  CrashRecoverRun run;
  add_recording_clients(system, run, /*clients=*/6, /*ops=*/200);

  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[1];
  std::uint64_t samples = 0, violations = 0;
  paxos::Slot highest_floor = 0;
  const auto check = [&](ProcessId id, const paxos::ReplicaCore& replica) {
    ++samples;
    highest_floor = std::max(highest_floor, replica.floor_slot());
    if (replica.floor_slot() <= replica.last_checkpoint_slot()) return;
    if (violations++ == 0)
      ADD_FAILURE() << "process " << id.value() << " trimmed to slot "
                    << replica.floor_slot() << ", past its checkpoint at "
                    << replica.last_checkpoint_slot();
  };
  for (SimTime t = 0; t < seconds(3);) {
    t += milliseconds(10);
    system.run_until(t);
    if (t == milliseconds(20)) system.world().crash(victim);
    if (t == milliseconds(80)) system.world().recover(victim);
    const auto& oracles = system.topology().group(core::kOracleGroup).replicas;
    for (std::size_t r = 0; r < oracles.size(); ++r)
      check(oracles[r], system.oracle(r).member().replica());
    for (std::uint32_t p = 0; p < config.num_partitions; ++p) {
      const auto& group =
          system.topology().group(core::group_of(PartitionId{p})).replicas;
      for (std::size_t r = 0; r < group.size(); ++r) {
        if (system.world().find(group[r])->crashed()) continue;
        check(group[r], system.server(PartitionId{p}, r).member().replica());
      }
    }
  }

  EXPECT_GT(samples, 0u);
  EXPECT_EQ(violations, 0u) << "samples with the floor past the checkpoint";
  EXPECT_GT(highest_floor, 0u) << "no log was ever trimmed";
  EXPECT_GE(system.metrics().counter(metric::kServerSnapshotInstalls), 1.0)
      << "the outage never outran the peers' log floor";
  EXPECT_EQ(run.tally.completions, run.expected) << "clients hung";
}

TEST(StateTransfer, RecoveredReplicaServesItsDurableCheckpoint) {
  // A crash-recovered replica serves the durable checkpoint it restored
  // from: a peer below its log floor is sent a manifest of that checkpoint
  // before the recovered replica reaches another checkpoint boundary.
  // Replica 2 goes down early and replica 0, the bootstrap leader, later;
  // replica 1 takes over. Both return at once, and replica 2's catch-up
  // request goes to replica 0, the leader of the ballot it restored.
  core::System system(transfer_config(/*seed=*/16, /*replicas=*/3),
                      workloads::kv_app_factory());
  system.world().trace().enable();
  preload(system);
  CrashRecoverRun run;
  add_recording_clients(system, run, /*clients=*/6, /*ops=*/150);

  const auto& group =
      system.topology().group(core::group_of(PartitionId{0})).replicas;
  const ProcessId server = group[0];
  const ProcessId puller = group[2];
  system.run_until(milliseconds(20));
  system.world().crash(puller);
  system.run_until(milliseconds(60));
  system.world().crash(server);
  system.run_until(milliseconds(90));
  system.world().recover(server);
  system.world().recover(puller);
  system.run_until(seconds(8));

  std::optional<std::uint64_t> restored_slot;
  std::optional<SimTime> next_boundary;
  std::optional<TraceEvent> first_pull;
  for (const TraceEvent& ev : system.world().trace().events()) {
    if (ev.time < milliseconds(90)) continue;
    if (ev.point == TracePoint::kRecoveryRestore && ev.node == server.value())
      restored_slot = ev.key;
    if (ev.point == TracePoint::kCheckpoint && ev.node == server.value() &&
        !next_boundary)
      next_boundary = ev.time;
    if (ev.point == TracePoint::kStateTransferStart &&
        ev.node == puller.value() && !first_pull)
      first_pull = ev;
  }
  ASSERT_TRUE(restored_slot.has_value());
  ASSERT_TRUE(first_pull.has_value()) << "replica 2 never pulled a snapshot";
  EXPECT_GT(*restored_slot, 0u) << "replica 0 restored only the slot-0 state";
  EXPECT_EQ(first_pull->key, *restored_slot)
      << "replica 2 was not offered replica 0's durable checkpoint";
  if (next_boundary)
    EXPECT_LT(first_pull->time, *next_boundary)
        << "the offer came after replica 0 checkpointed again";

  EXPECT_EQ(run.tally.completions, run.expected) << "clients hung";
  const auto full =
      testutil::with_initial_puts(run.history, kKeys, kBaseValue);
  expect_linearizable(full);
}

// --- harness-driven sweeps: chunked recovery + WAN under chaos ---

testutil::LinScenario chunked_chaos_scenario(std::uint64_t seed) {
  testutil::LinScenario s;
  s.partitions = 2;
  s.system_seed = seed;
  s.chaos_seed = seed * 31 + 7;
  s.chaos = true;
  s.long_crashes = true;  // outages that outrun the catch-up window
  s.run_for = seconds(60);
  s.tune = [](core::SystemConfig& config) {
    config.paxos.checkpoint_interval = 16;
    config.paxos.catchup_window = 0;
    config.paxos.transfer_chunk_bytes = 512;
    config.net_sites = 2;
  };
  return s;
}

TEST(StateTransfer, ChunkedRecoveryUnderChaosMultiSeedSweep) {
  for (std::uint64_t seed : {3ull, 17ull, 29ull}) {
    const auto run = run_lin_scenario(chunked_chaos_scenario(seed));
    EXPECT_EQ(run.tally.completions, run.expected_ops)
        << "seed " << seed << ": clients hung under chaos";
    EXPECT_TRUE(run.lin.linearizable) << "seed " << seed;
    EXPECT_GE(run.snapshot_installs, 1.0)
        << "seed " << seed
        << ": the long crashes never forced a snapshot install";
  }
}

TEST(StateTransfer, SameSeedGivesBitIdenticalRuns) {
  // Chunk timers, EWMA updates, WAN queueing and the chaos nemesis all
  // draw from seeded streams: the full fingerprint (event count, series,
  // chaos log, history hash) must match across runs.
  const auto a = run_lin_scenario(chunked_chaos_scenario(17));
  const auto b = run_lin_scenario(chunked_chaos_scenario(17));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_TRUE(a.lin.linearizable);
}

TEST(StateTransfer, ExecutionContinuesOnUnaffectedPartitionDuringTransfer) {
  // While partition 0's follower pulls chunks, partition 1 must keep
  // executing: its per-partition executed series may not go quiet for the
  // transfer's duration.
  core::System system(transfer_config(/*seed=*/14),
                      workloads::kv_app_factory());
  system.world().trace().enable();
  preload(system);
  CrashRecoverRun run;
  add_recording_clients(system, run, /*clients=*/6, /*ops=*/200);

  system.run_until(milliseconds(20));
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[1];
  system.world().crash(victim);
  system.run_until(milliseconds(80));
  system.world().recover(victim);
  system.run_until(seconds(8));

  SimTime start = 0, end = 0;
  for (const TraceEvent& ev : system.world().trace().events()) {
    if (ev.point == TracePoint::kStateTransferStart && start == 0)
      start = ev.time;
    if (ev.point == TracePoint::kStateTransferEnd && end == 0) end = ev.time;
  }
  ASSERT_GT(start, 0) << "no chunked transfer happened";
  ASSERT_GE(end, start) << "the transfer never completed";

  // The whole-system completed series keeps moving across the transfer
  // window: the second containing the transfer still completed commands.
  const auto* completed = system.metrics().find_series("completed");
  ASSERT_NE(completed, nullptr);
  const auto bucket =
      static_cast<std::size_t>(start / completed->bucket_width());
  ASSERT_LT(bucket, completed->num_buckets());
  EXPECT_GT(completed->at(bucket), 0.0)
      << "command execution stalled during the state transfer";
}

}  // namespace
}  // namespace dynastar
