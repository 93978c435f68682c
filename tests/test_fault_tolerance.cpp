// Fault tolerance of the full system: replicas and acceptors are fail-stop
// (the paper deploys 2 replicas + 3 acceptors per partition; the system
// must survive one replica and one acceptor failure per group), and crashed
// replicas may later recover and rejoin their group.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/linearizability.h"
#include "common/metric_names.h"
#include "core/system.h"
#include "tests/test_util.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

using testutil::config_for;
using testutil::preload;
using testutil::tail_throughput;

TEST(FaultTolerance, PartitionSurvivesReplicaCrash) {
  core::System system(config_for(core::ExecutionMode::kDynaStar),
                      workloads::kv_app_factory());
  preload(system, 16);
  for (int c = 0; c < 6; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.3));
  }
  system.run_until(seconds(3));
  const double before = system.metrics().series("completed").total();
  EXPECT_GT(before, 100.0);

  // Crash replica 0 (the bootstrap leader) of partition 0.
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[0];
  system.world().crash(victim);

  system.run_until(seconds(12));
  EXPECT_GT(tail_throughput(system, 3), 50.0)
      << "system did not resume after replica failover";
}

TEST(FaultTolerance, PartitionSurvivesAcceptorCrash) {
  core::System system(config_for(core::ExecutionMode::kDynaStar),
                      workloads::kv_app_factory());
  preload(system, 16);
  for (int c = 0; c < 6; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.3));
  }
  system.run_until(seconds(3));
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{1})).acceptors[1];
  system.world().crash(victim);
  system.run_until(seconds(8));
  EXPECT_GT(tail_throughput(system, 3), 100.0);
}

TEST(FaultTolerance, OracleSurvivesReplicaCrash) {
  auto config = config_for(core::ExecutionMode::kDynaStar);
  core::System system(config, workloads::kv_app_factory());
  preload(system, 16);
  // Drivers that create new vertices force ongoing oracle involvement.
  for (int c = 0; c < 4; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.3));
  }
  system.run_until(seconds(2));
  const ProcessId victim =
      system.topology().group(core::kOracleGroup).replicas[0];
  system.world().crash(victim);
  system.run_until(seconds(4));

  // Fresh clients (empty caches) must still resolve through the oracle.
  std::vector<workloads::ScriptedKvDriver::Record> records;
  std::vector<core::CommandSpec> script;
  core::CommandSpec spec;
  spec.objects.emplace_back(ObjectId{3}, core::VertexId{3});
  spec.payload =
      sim::make_message<workloads::KvOp>(workloads::KvOp::Kind::kGet, 0);
  script.push_back(spec);
  system.add_client(
      std::make_unique<workloads::ScriptedKvDriver>(script, &records));
  system.run_until(seconds(10));
  ASSERT_EQ(records.size(), 1u) << "oracle did not answer after failover";
  EXPECT_EQ(records[0].status, core::ReplyStatus::kOk);
}

TEST(FaultTolerance, CrashDuringCrossPartitionTrafficIsLive) {
  core::System system(config_for(core::ExecutionMode::kDynaStar),
                      workloads::kv_app_factory());
  preload(system, 16);
  for (int c = 0; c < 8; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.8));
  }
  system.run_until(milliseconds(2500));
  // Crash one replica in EACH partition group mid-traffic.
  system.world().crash(
      system.topology().group(core::group_of(PartitionId{0})).replicas[1]);
  system.world().crash(
      system.topology().group(core::group_of(PartitionId{1})).replicas[0]);
  system.run_until(seconds(15));
  EXPECT_GT(tail_throughput(system, 3), 30.0);
}

TEST(FaultTolerance, PartitionReplicaRecoversAndRejoins) {
  core::System system(config_for(core::ExecutionMode::kDynaStar),
                      workloads::kv_app_factory());
  preload(system, 16);
  for (int c = 0; c < 6; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.3));
  }
  system.run_until(seconds(3));
  EXPECT_GT(system.metrics().series("completed").total(), 100.0);

  // Crash the bootstrap leader of partition 0, let the follower take over,
  // then bring the crashed replica back. It must rejoin as follower without
  // destabilising the group (no dueling-leader livelock).
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[0];
  system.world().crash(victim);
  system.run_until(seconds(9));
  system.world().recover(victim);
  system.run_until(seconds(16));
  EXPECT_GT(tail_throughput(system, 3), 50.0)
      << "throughput did not hold after the crashed replica rejoined";
}

TEST(FaultTolerance, OracleReplicaRecoversAndRejoins) {
  core::System system(config_for(core::ExecutionMode::kDynaStar),
                      workloads::kv_app_factory());
  preload(system, 16);
  for (int c = 0; c < 4; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.3));
  }
  system.run_until(seconds(2));
  const ProcessId victim =
      system.topology().group(core::kOracleGroup).replicas[0];
  system.world().crash(victim);
  system.run_until(seconds(6));
  system.world().recover(victim);
  system.run_until(seconds(10));

  // Fresh clients (empty caches) must resolve through the oracle after the
  // recovered replica has rejoined its group.
  std::vector<workloads::ScriptedKvDriver::Record> records;
  std::vector<core::CommandSpec> script;
  core::CommandSpec spec;
  spec.objects.emplace_back(ObjectId{5}, core::VertexId{5});
  spec.payload =
      sim::make_message<workloads::KvOp>(workloads::KvOp::Kind::kGet, 0);
  script.push_back(spec);
  system.add_client(
      std::make_unique<workloads::ScriptedKvDriver>(script, &records));
  system.run_until(seconds(16));
  ASSERT_EQ(records.size(), 1u) << "oracle did not answer after recovery";
  EXPECT_EQ(records[0].status, core::ReplyStatus::kOk);
  EXPECT_GT(tail_throughput(system, 3), 30.0);
}

// --- crash-restart: checkpoints, replay, and bounded logs ---

/// Preloads `keys` KV objects valued 1000+k (so "absent" never aliases a
/// legal read); pair with with_initial_puts(history, keys, 1000).
void preload_lin(core::System& system, std::uint64_t keys) {
  core::Assignment assignment;
  for (std::uint64_t k = 0; k < keys; ++k) {
    const PartitionId p{k % system.config().num_partitions};
    assignment[core::VertexId{k}] = p;
    system.preload_object(ObjectId{k}, core::VertexId{k}, p,
                          workloads::KvObject(1000 + k));
  }
  system.preload_assignment(assignment);
}

TEST(FaultTolerance, RecoveredReplicaStateComesFromCheckpointNotHeap) {
  // Volatile-state leak regression: crash must wipe the heap; recovery must
  // rebuild exclusively from the durable checkpoint plus log replay. Poison
  // the victim's in-memory store with an object that is in no checkpoint and
  // no decided command — if any pre-crash heap survives the crash/recover
  // cycle, the poison object survives with it.
  core::System system(config_for(core::ExecutionMode::kDynaStar),
                      workloads::kv_app_factory());
  preload(system, 16);
  for (int c = 0; c < 4; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.3));
  }
  system.run_until(seconds(3));

  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[1];
  system.server(PartitionId{0}, 1)
      .preload_object(ObjectId{999}, core::VertexId{999},
                      core::ObjectPtr(workloads::KvObject(999).clone()));
  ASSERT_TRUE(system.server(PartitionId{0}, 1).store().contains(ObjectId{999}));

  system.world().crash(victim);
  system.run_until(seconds(5));
  system.world().recover(victim);
  system.run_until(seconds(12));

  const auto& recovered = system.server(PartitionId{0}, 1).store();
  EXPECT_FALSE(recovered.contains(ObjectId{999}))
      << "pre-crash heap state leaked through recovery";
  // The legitimate state converges with the surviving sibling replica.
  const auto& sibling = system.server(PartitionId{0}, 0).store();
  for (std::uint64_t k = 0; k < 16; k += 2)  // partition 0's preloaded keys
    EXPECT_EQ(recovered.contains(ObjectId{k}), sibling.contains(ObjectId{k}))
        << "key " << k << " differs from the surviving replica";
  EXPECT_GT(tail_throughput(system, 3), 50.0);
}

TEST(FaultTolerance, RecoveredOracleStateComesFromCheckpointNotHeap) {
  core::System system(config_for(core::ExecutionMode::kDynaStar),
                      workloads::kv_app_factory());
  preload(system, 16);
  for (int c = 0; c < 4; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.3));
  }
  system.run_until(seconds(2));

  const ProcessId victim =
      system.topology().group(core::kOracleGroup).replicas[1];
  // Poison the victim oracle replica's workload graph with a vertex no
  // delivered hint or create ever added.
  system.oracle(1).preload_vertex(core::VertexId{777777}, 5);
  ASSERT_TRUE(system.oracle(1).graph().contains(777777));

  system.world().crash(victim);
  system.run_until(seconds(4));
  system.world().recover(victim);
  system.run_until(seconds(10));

  EXPECT_FALSE(system.oracle(1).graph().contains(777777))
      << "pre-crash oracle heap state leaked through recovery";
  EXPECT_GT(tail_throughput(system, 3), 30.0);
}

TEST(FaultTolerance, CrashAtCheckpointBoundary) {
  // checkpoint_interval=1: every delivered slot is a checkpoint boundary, so
  // whenever the crash lands it coincides with a just-captured checkpoint.
  // Recovery must replay a (possibly empty) suffix without double-applying
  // the checkpointed prefix.
  auto config = config_for(core::ExecutionMode::kDynaStar);
  config.paxos.checkpoint_interval = 1;
  core::System system(config, workloads::kv_app_factory());
  preload_lin(system, 16);

  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  for (int c = 0; c < 4; ++c) {
    system.add_client(std::make_unique<testutil::RecordingKvDriver>(
        16, 30, &history, &tally));
  }
  system.run_until(milliseconds(1500));
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[0];
  system.world().crash(victim);
  system.run_until(seconds(4));
  system.world().recover(victim);
  system.run_until(seconds(20));

  EXPECT_EQ(tally.completions, 4u * 30u) << "clients hung across the crash";
  EXPECT_EQ(tally.ok, 4u * 30u);
  EXPECT_GE(system.metrics().counter(metric::kServerCheckpoints), 1.0);
  const auto full = testutil::with_initial_puts(history, 16, 1000);
  EXPECT_TRUE(check_kv_linearizable(full).linearizable);
}

TEST(FaultTolerance, CrashDuringInFlightBorrow) {
  // Heavy multi-partition traffic guarantees borrows are in flight at the
  // crash instant; the wiped replica must reconverge (retained VarTransfers
  // / VarReturns are re-driven via the reliable link's ResendReq) and the
  // history must stay linearizable.
  auto config = config_for(core::ExecutionMode::kDynaStar);
  config.paxos.checkpoint_interval = 64;
  core::System system(config, workloads::kv_app_factory());
  preload_lin(system, 16);

  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  for (int c = 0; c < 6; ++c) {
    system.add_client(std::make_unique<testutil::RecordingKvDriver>(
        16, 40, &history, &tally));
  }
  system.run_until(milliseconds(1200));
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{1})).replicas[0];
  system.world().crash(victim);
  system.run_until(milliseconds(3200));
  system.world().recover(victim);
  system.run_until(seconds(25));

  EXPECT_EQ(tally.completions, 6u * 40u)
      << "commands wedged across a crash during borrow/return traffic";
  EXPECT_EQ(tally.ok, 6u * 40u);
  const auto full = testutil::with_initial_puts(history, 16, 1000);
  const auto result = check_kv_linearizable(full);
  EXPECT_TRUE(result.linearizable)
      << "non-linearizable history; stuck op "
      << (result.stuck_operation ? static_cast<long>(*result.stuck_operation)
                                 : -1);
}

TEST(FaultTolerance, AppliedLogBoundedByCheckpointInterval) {
  // With a small checkpoint interval and catch-up window, the applied-log
  // suffix each replica retains must stay bounded by those knobs — not grow
  // with the run length.
  auto config = config_for(core::ExecutionMode::kDynaStar);
  config.paxos.checkpoint_interval = 16;
  config.paxos.catchup_window = 16;
  core::System system(config, workloads::kv_app_factory());
  preload(system, 16);
  for (int c = 0; c < 4; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.3));
  }
  system.run_until(seconds(4));

  for (std::uint32_t p = 0; p < system.config().num_partitions; ++p) {
    for (std::size_t r = 0; r < 2; ++r) {
      auto& replica = system.server(PartitionId{p}, r).member().replica();
      EXPECT_GT(replica.next_deliver_slot(), 64u)
          << "partition " << p << " delivered too little to exercise bounds";
      EXPECT_GT(replica.floor_slot(), 0u)
          << "log of partition " << p << " replica " << r
          << " was never truncated";
      // Retained suffix: at most the catch-up window plus one full
      // checkpoint interval of not-yet-stable slots (plus decided-ahead
      // gaps, which quiesce to zero).
      EXPECT_LE(replica.applied_log_size(),
                4 * static_cast<std::size_t>(config.paxos.checkpoint_interval))
          << "partition " << p << " replica " << r
          << " retains an unbounded applied log";
    }
  }
  EXPECT_GE(system.metrics().counter(metric::kServerCheckpoints), 1.0);
  EXPECT_GE(system.metrics().counter(metric::kOracleCheckpoints), 1.0);
}

TEST(FaultTolerance, SnapshotInstallRacingPlanEpochBump) {
  // A replica that recovers after its peers truncated past its gap pulls a
  // full snapshot — while repartitioning keeps bumping the plan epoch. The
  // installed snapshot carries the map/epoch of its capture instant; the
  // epoch-gated command validation must keep the history linearizable
  // through the race.
  core::SystemConfig config;
  config.mode = core::ExecutionMode::kDynaStar;
  config.num_partitions = 2;
  config.repartitioning_enabled = true;
  config.repartition_hint_threshold = 100;
  config.min_repartition_interval = milliseconds(20);
  config.hint_batch_commands = 50;
  config.paxos.checkpoint_interval = 32;
  config.paxos.catchup_window = 8;
  core::System system(config, workloads::kv_app_factory());
  preload_lin(system, 16);

  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  // Enough traffic that hints keep arriving well past the repartition
  // cooldown and the crash/recovery window — the trigger is re-evaluated
  // on hint arrival, so a burst that ends inside the cooldown never plans.
  for (int c = 0; c < 6; ++c) {
    system.add_client(std::make_unique<testutil::RecordingKvDriver>(
        16, 150, &history, &tally));
  }
  // The whole burst spans ~100 simulated milliseconds, so the crash window
  // sits at that granularity: take the follower down while commands are in
  // flight, give its peers time to decide far more than catchup_window
  // slots, then bring it back mid-traffic.
  system.run_until(milliseconds(20));
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[1];
  system.world().crash(victim);
  system.run_until(milliseconds(60));
  system.world().recover(victim);
  system.run_until(seconds(5));

  EXPECT_GE(system.metrics().series(metric::kOraclePlansApplied).total(), 1.0)
      << "no plan epoch bump happened; the race was not exercised";
  EXPECT_GE(system.metrics().counter(metric::kServerSnapshotInstalls), 1.0)
      << "the recovered replica caught up without a snapshot install";
  EXPECT_EQ(tally.completions, 6u * 150u);
  EXPECT_EQ(tally.ok, 6u * 150u);
  const auto full = testutil::with_initial_puts(history, 16, 1000);
  EXPECT_TRUE(check_kv_linearizable(full).linearizable);
}

TEST(FaultTolerance, RecoveringFollowerConvergesUnderLoad) {
  // A follower that rejoins under sustained load, after its peers truncated
  // far past its gap, needs one snapshot install. Decisions keep arriving
  // while the transfer runs; the install must keep the ones above the
  // snapshot slot and replay them. Discarding them left the follower below
  // the leader's log floor after every install: a loop of installs that
  // ended only when the load stopped. Asking for the rest only at the next
  // heartbeat let the leader checkpoint past the installed slot first, so
  // a second install followed.
  auto config = config_for(core::ExecutionMode::kDynaStar,
                           /*num_partitions=*/1);
  config.paxos.checkpoint_interval = 32;
  config.paxos.catchup_window = 8;
  core::System system(config, workloads::kv_app_factory());
  preload(system, 256);
  for (int c = 0; c < 16; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(256, 0.5, 0.0));
  }
  const ProcessId follower =
      system.topology().group(core::group_of(PartitionId{0})).replicas[1];
  system.run_until(seconds(1));
  system.world().crash(follower);
  system.run_until(seconds(2));
  system.world().recover(follower);

  // Sample the follower's lag behind the leader every 10 ms while the load
  // runs; `converged` is the first sample from which it stays within the
  // catch-up window.
  const std::uint64_t window = config.paxos.catchup_window;
  std::optional<SimTime> converged;
  for (SimTime t = seconds(2); t < seconds(3);) {
    t += milliseconds(10);
    system.run_until(t);
    const std::uint64_t leader =
        system.server(PartitionId{0}, 0).member().replica().next_deliver_slot();
    const std::uint64_t mine =
        system.server(PartitionId{0}, 1).member().replica().next_deliver_slot();
    if (mine + window < leader) {
      converged.reset();
    } else if (!converged) {
      converged = t;
    }
  }
  const double installs =
      system.metrics().counter(metric::kServerSnapshotInstalls);
  EXPECT_GE(installs, 1.0) << "the outage never outran the catch-up window";
  EXPECT_LE(installs, 1.0) << "recovery took more than one snapshot install";
  ASSERT_TRUE(converged.has_value())
      << "the follower was still lagging at the end of the run";
  EXPECT_LE(*converged, seconds(2) + milliseconds(200))
      << "the follower took too long to catch up";
}

}  // namespace
}  // namespace dynastar
