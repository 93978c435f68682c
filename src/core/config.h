// System-wide configuration for a DynaStar (or baseline) deployment.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "core/execution.h"
#include "partitioning/partitioner.h"
#include "paxos/replica.h"
#include "sim/network.h"

namespace dynastar::core {

struct SystemConfig {
  ExecutionMode mode = ExecutionMode::kDynaStar;

  std::uint32_t num_partitions = 4;
  std::uint32_t replicas_per_partition = 2;   // paper §6.1
  std::uint32_t acceptors_per_partition = 3;  // paper §6.1

  // --- DynaStar repartitioning ---
  /// False disables plans entirely (S-SMR always; DS-SMR has no plans).
  bool repartitioning_enabled = true;
  /// Algorithm 2 Task 4: recompute once `changes > threshold` hints arrive.
  std::uint64_t repartition_hint_threshold = 50'000;
  SimTime min_repartition_interval = seconds(20);
  /// Partitions a-mcast accumulated hints to the oracle every N executed
  /// commands. Count-based (not timer-based) so the report stream is a
  /// deterministic function of the partition's delivery order — all
  /// replicas emit identical reports.
  std::uint64_t hint_batch_commands = 200;
  /// Eager (Algorithm 3 Task 3) vs on-demand (§7) object relocation after a
  /// plan is delivered.
  bool eager_plan_transfer = true;
  /// Strict epoch validation: any command addressed under an older epoch is
  /// retried, even if its addressing is still correct (reproduces the
  /// paper's full cache invalidation on repartition, Fig. 8).
  bool strict_epoch_validation = true;
  /// Multiplies the workload graph's weights by this factor at every plan
  /// computation, so stale access patterns fade (1.0 = never forget).
  double workload_graph_decay = 1.0;

  // --- STAR asymmetric execution (mode == kStar only) ---
  /// The partition holding the full replica and executing deferred
  /// multi-partition commands at each epoch switch.
  std::uint32_t star_master_partition = 0;
  /// Master replicas poll their deferred queue at this interval and emit an
  /// epoch-switch marker when work is pending. Shorter = lower multi-command
  /// latency, more marker/update traffic.
  SimTime star_epoch_interval = milliseconds(1);

  // --- Client ---
  /// Maximum entries in a client's location cache (0 = unbounded). When
  /// full, a random resident entry is evicted.
  std::size_t client_cache_capacity = 0;

  // --- Client command timeouts / retransmission ---
  /// Timeout armed per outstanding command attempt; grows exponentially:
  /// min(cap, base * multiplier^(attempt-1)) + U[0, jitter].
  SimTime client_timeout_base = milliseconds(500);
  double client_timeout_multiplier = 2.0;
  SimTime client_timeout_jitter = milliseconds(50);
  SimTime client_timeout_cap = seconds(4);
  /// Attempts before the command completes with kTimeout (0 = retry forever).
  std::uint32_t client_max_attempts = 10;

  // --- Overload protection (0 = disabled; defaults keep behavior
  // bit-identical to a build without this subsystem) ---
  /// High-water mark for a partition server's admission queue (inbox +
  /// execution queue). Above it, the group leader orders client-facing
  /// ExecCommands as shed entries answered with kBusy instead of executing
  /// them. Protocol-internal traffic (borrows, returns, Paxos, multicast
  /// coordination, snapshots, plans) is never gated.
  std::size_t server_queue_cap = 0;
  /// High-water mark for the oracle's inflight set (inbox + unacked relays +
  /// pending creates). Above it, cache-miss lookups are shed before
  /// classification with a kBusy prophecy that still carries any cached
  /// locations, so a hot oracle degrades to a location cache.
  std::size_t oracle_inflight_cap = 0;
  /// Retry-after hint carried in Busy replies: base + depth * per_item.
  SimTime busy_retry_after_base = milliseconds(2);
  SimTime busy_retry_after_per_item = microseconds(50);
  /// Client retry budget for Busy replies: a token bucket holding at most
  /// `client_retry_budget` tokens, refilled one per
  /// `client_retry_token_interval`. Each Busy-triggered retry spends one
  /// token; an empty bucket completes the command kOverloaded. 0 disables
  /// (Busy retries are then unbounded, like timeouts with max_attempts=0).
  std::uint32_t client_retry_budget = 0;
  SimTime client_retry_token_interval = milliseconds(250);

  // --- Read leases (DynaStar / DS-SMR; off by default so runs are
  // bit-identical to a build without the subsystem) ---
  /// Serve read-only multi-partition commands from epoch-validated leased
  /// copies instead of borrow/return: lenders grant (and keep serving),
  /// readers validate lender epoch + per-vertex version at execute time and
  /// fall back to the borrow path via kRetry on any mismatch. Leases are
  /// volatile (cleared by plan epochs and crash-recovery).
  bool read_leases = false;

  // --- Oracle plan computation model ---
  /// Simulated METIS runtime: base + per (V+E) element cost.
  SimTime plan_compute_base = milliseconds(50);
  double plan_compute_ns_per_element = 200.0;
  partitioning::PartitionerConfig partitioner;

  // --- Intra-partition parallel execution (core/parallel_exec.h) ---
  // Defaults keep behavior bit-identical to the serial apply path.
  /// Worker lanes for the deterministic conflict-graph executor; 1 disables
  /// batching entirely (the serial path is untouched).
  std::uint32_t exec_lanes = 1;
  /// Micro-batch window: a delivered command waits at most this long for
  /// companions before the executor flushes.
  SimTime exec_batch_window = microseconds(200);
  /// Flush as soon as this many commands are pending.
  std::size_t exec_batch_max = 64;

  // --- WAN topology (0 sites = the uniform latency-only LAN model, which
  // keeps every existing run bit-identical) ---
  /// Number of simulated datacenters. When > 0, System stripes each group's
  /// replicas and acceptors (and clients, in spawn order) across sites
  /// round-robin and installs the two site-pair profiles below, so every
  /// Paxos group spans sites — quorums and state transfers cross the WAN.
  std::uint32_t net_sites = 0;
  /// Links between processes in the same datacenter: fat and near.
  /// Default 10 Gb/s, 50 us propagation, 16 MiB queue.
  sim::LinkProfile intra_site_profile{/*bandwidth_bytes_per_sec=*/1'250'000'000,
                                      /*propagation=*/microseconds(50),
                                      /*queue_bytes=*/16 * 1024 * 1024};
  /// Links between datacenters: thin and far. Default 100 Mb/s, 20 ms
  /// propagation, 4 MiB queue.
  sim::LinkProfile inter_site_profile{/*bandwidth_bytes_per_sec=*/12'500'000,
                                      /*propagation=*/milliseconds(20),
                                      /*queue_bytes=*/4 * 1024 * 1024};

  // --- Node CPU costs (drive saturation / peak throughput) ---
  SimTime server_service_time = microseconds(4);
  SimTime oracle_service_time = microseconds(3);
  SimTime acceptor_service_time = microseconds(2);
  SimTime client_service_time = microseconds(1);

  paxos::ReplicaConfig paxos;
  sim::NetworkConfig network;
  std::uint64_t seed = 1;
};

}  // namespace dynastar::core
