// Multi-Paxos replica: proposer + learner role, one instance per group
// member. A stable leader (the owner of the highest seen ballot) batches
// submitted values, runs phase 2 against the group's acceptors, and
// disseminates decisions to the other replicas; leadership changes via
// phase 1 when heartbeats stop. Values are delivered to the upper layer
// (the atomic multicast member) in a single total order per group.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "paxos/messages.h"
#include "paxos/topology.h"
#include "sim/env.h"

namespace dynastar::paxos {

struct ReplicaConfig {
  /// Leader-side batching window; values submitted within it share a slot.
  SimTime batch_delay = microseconds(100);
  std::size_t max_batch = 64;
  SimTime heartbeat_interval = milliseconds(20);
  /// Base follower patience before starting an election (jitter is added).
  SimTime election_timeout = milliseconds(100);
  /// Phase-1 retry if no quorum of promises arrives.
  SimTime phase1_timeout = milliseconds(50);
  /// Follower delay before requesting missing decisions from the leader.
  SimTime catchup_delay = milliseconds(10);
  /// Recent decisions kept behind the tip beyond the stable snapshot, for
  /// serving CatchupReq. The log floor is min(stable snapshot slot,
  /// next_deliver - catchup_window): it never passes the snapshot a replica
  /// below it must install, so any such replica can be sent a manifest.
  Slot catchup_window = 0;
  /// Take an application checkpoint every this many applied slots (0
  /// disables). The applied log is truncated up to the stable snapshot, so
  /// log memory is bounded by checkpoint_interval + catchup_window retained
  /// entries once checkpoints start landing; with no snapshot nothing is
  /// truncated.
  Slot checkpoint_interval = 4096;

  // --- chunked snapshot transfer (see messages.h §Chunked snapshot
  // transfer) ---
  /// Chunk payload size in bytes (> 0).
  std::size_t transfer_chunk_bytes = 64 * 1024;
  /// Outstanding chunk requests per transfer (pipeline depth).
  std::size_t transfer_window = 4;
  /// Per-chunk retransmit timer; doubles per retry up to the cap. A timeout
  /// also halves the EWMA bandwidth estimate of the peer that went silent,
  /// steering the re-request toward a faster (or at least alive) peer.
  SimTime transfer_retry_base = milliseconds(25);
  SimTime transfer_retry_cap = milliseconds(400);
  /// Weight of the newest per-peer bandwidth sample in the EWMA.
  double transfer_ewma_alpha = 0.4;
};

/// The Paxos-level position captured in a checkpoint and restored on
/// recovery: everything a replica needs to resume learning after its
/// volatile state (log suffix, proposer bookkeeping) is discarded.
struct ReplicaRestart {
  Slot next_deliver_slot = 0;
  std::uint64_t next_seq = 0;
  Ballot ballot = 0;
  Slot last_checkpoint_slot = 0;
};

class ReplicaCore {
 public:
  /// Called once per delivered value, in delivery order; `seq` increases by
  /// one per value with no gaps.
  using DeliverFn = std::function<void(std::uint64_t seq, const sim::MessagePtr&)>;

  ReplicaCore(sim::Env& env, const Topology& topology, GroupId group,
              ReplicaConfig config = {});

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Optional lifecycle trace sink; records one kPaxosDecided event per
  /// delivered value. Null (the default) disables the hook entirely.
  void set_trace(TraceCollector* trace) { trace_ = trace; }

  /// Invoked every time this replica completes phase 1 and starts leading.
  /// Upper layers use it to re-emit coordination messages a failed leader
  /// may have dropped.
  void set_on_lead(std::function<void()> fn) { on_lead_ = std::move(fn); }

  /// Invoked right after the replica crosses a checkpoint boundary
  /// (`last_checkpoint_slot()` is already advanced); the upper layer
  /// captures its durable checkpoint synchronously and returns it. The
  /// replica keeps that snapshot as the *stable* one chunked transfers
  /// serve: checkpoint boundaries are deterministic slots, so every peer
  /// checkpointed at the same slot serves an interchangeable manifest and a
  /// receiver can resume a transfer from a different peer mid-flight. The
  /// hook must not consume CPU, RNG draws, or timers.
  void set_checkpoint_hook(std::function<sim::MessagePtr()> fn) {
    checkpoint_hook_ = std::move(fn);
  }

  /// Installs a peer snapshot; must restore every layer including this
  /// replica's position (via restore()). Returns false to reject a payload
  /// it does not recognise.
  void set_snapshot_installer(std::function<bool(const sim::MessagePtr&)> fn) {
    snapshot_installer_ = std::move(fn);
  }

  /// Optional metrics sink for transfer counters (chunks sent /
  /// retransmitted). Null disables.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Starts timers; leader bootstrap for replica index 0.
  void start();

  /// Resets all volatile state to a checkpointed position. Proposer
  /// bookkeeping, stashed values, the stable snapshot and the log below
  /// `s.next_deliver_slot` are dropped; decisions at or above it are kept
  /// and delivered next, and any gap is re-learned via catch-up or another
  /// snapshot install. The caller re-establishes a stable snapshot: a peer
  /// install checkpoints right away, a crash recovery adopts its durable
  /// checkpoint via adopt_stable_snapshot().
  void restore(const ReplicaRestart& s);

  /// Serves `snapshot` — the durable checkpoint restore() just installed,
  /// taken at last_checkpoint_slot() — as the stable snapshot, so a
  /// crash-recovered replica can answer below-floor peers before its next
  /// checkpoint boundary.
  void adopt_stable_snapshot(sim::MessagePtr snapshot) {
    stable_snapshot_ = std::move(snapshot);
  }

  /// Captures the Paxos-level position for a checkpoint.
  [[nodiscard]] ReplicaRestart checkpoint_state() const {
    return ReplicaRestart{next_deliver_slot_, next_seq_, ballot_,
                          last_checkpoint_slot_};
  }

  /// Rejoins the group after restore(): arms liveness timers as a follower
  /// and proactively asks the presumptive leader for the missing suffix.
  /// Unlike start(), never bootstraps phase 1 immediately — a recovered
  /// bootstrap replica must not duel the established leader.
  void start_recovered();

  /// Submits a value for total ordering within this group. May be called by
  /// the co-located upper layer at any time.
  void submit(sim::MessagePtr value);

  /// Processes a Paxos message; returns false if the message is not a Paxos
  /// message of this group.
  bool handle(ProcessId from, const sim::MessagePtr& msg);

  [[nodiscard]] bool is_leader() const { return state_ == State::kLeading; }
  [[nodiscard]] Ballot ballot() const { return ballot_; }
  [[nodiscard]] ProcessId leader_hint() const;
  [[nodiscard]] std::uint64_t delivered_count() const { return next_seq_; }
  [[nodiscard]] GroupId group() const { return group_; }
  [[nodiscard]] Slot next_deliver_slot() const { return next_deliver_slot_; }
  /// Slots below this have been truncated from the applied log.
  [[nodiscard]] Slot floor_slot() const { return floor_slot_; }
  [[nodiscard]] Slot last_checkpoint_slot() const {
    return last_checkpoint_slot_;
  }
  /// Retained applied-log entries (bounded-memory assertion hook).
  [[nodiscard]] std::size_t applied_log_size() const { return log_.size(); }

 private:
  enum class State { kFollower, kPhase1, kLeading };

  void on_propose(const ProposeReq& msg);
  void on_promise(ProcessId from, const Promise& msg);
  void on_nack(const Nack& msg);
  void on_accepted(ProcessId from, const Accepted& msg);
  void on_decision(const Decision& msg);
  void on_heartbeat(const Heartbeat& msg);
  void on_catchup(ProcessId from, const CatchupReq& msg);
  void take_checkpoint();

  // Chunked transfer: sender side.
  /// Answers a below-floor request with a ChunkManifest of the stable
  /// snapshot when it is newer than `have_slot`.
  void offer_snapshot(ProcessId to, Slot have_slot);
  void on_chunk_req(ProcessId from, const StateChunkReq& msg);
  // Chunked transfer: receiver side.
  void on_chunk_manifest(ProcessId from, const ChunkManifest& msg);
  void on_chunk(ProcessId from, const StateChunk& msg);
  void request_chunk(std::uint32_t index, std::uint32_t tries);
  void pump_chunk_requests();
  void complete_transfer();
  void abandon_transfer();
  /// Asks the presumptive leader for the decisions from next_deliver_slot_.
  void request_catchup();
  void note_peer_bandwidth(ProcessId peer, double bytes_per_sec);
  [[nodiscard]] ProcessId best_transfer_peer() const;

  void start_phase1();
  void become_leader();
  void step_down(Ballot higher);
  void flush_batch();
  void propose_slot(Slot slot, sim::MessagePtr value);
  void record_decision(Slot slot, sim::MessagePtr value);
  void try_deliver();
  void arm_election_timer();
  void arm_heartbeat_timer();
  void arm_stash_retry();
  void maybe_request_catchup(Slot leader_next, Slot leader_floor);
  [[nodiscard]] Ballot next_owned_ballot(Ballot at_least) const;
  [[nodiscard]] std::size_t my_index() const { return my_index_; }

  sim::Env& env_;
  const Topology& topology_;
  GroupId group_;
  ReplicaConfig config_;
  DeliverFn deliver_;
  TraceCollector* trace_ = nullptr;
  std::function<void()> on_lead_;
  std::function<sim::MessagePtr()> checkpoint_hook_;
  std::function<bool(const sim::MessagePtr&)> snapshot_installer_;
  std::size_t my_index_ = 0;

  State state_ = State::kFollower;
  Ballot ballot_ = 0;

  // Phase 1 bookkeeping.
  std::unordered_set<std::uint64_t> promises_;
  std::map<Slot, AcceptedEntry> recovered_;
  std::uint64_t phase1_epoch_ = 0;

  // Leader phase 2 bookkeeping.
  struct InFlight {
    sim::MessagePtr value;
    std::unordered_set<std::uint64_t> votes;
    SimTime proposed_at = 0;
  };
  std::map<Slot, InFlight> in_flight_;
  Slot next_slot_ = 0;
  std::vector<sim::MessagePtr> batch_;
  bool flush_scheduled_ = false;

  // Learner state. `floor_slot_` is the lowest slot still in log_; slots
  // below it are only recoverable via snapshot transfer, and it never
  // exceeds the stable snapshot's slot.
  std::map<Slot, sim::MessagePtr> log_;
  Slot next_deliver_slot_ = 0;
  std::uint64_t next_seq_ = 0;
  Slot floor_slot_ = 0;
  Slot last_checkpoint_slot_ = 0;
  /// What the checkpoint hook returned at last_checkpoint_slot_, or the
  /// adopted durable checkpoint (null until the first boundary and between
  /// restore() and the next boundary or adoption); chunk requests are
  /// served from it without copying state.
  sim::MessagePtr stable_snapshot_;

  // Liveness.
  SimTime last_leader_contact_ = 0;
  bool catchup_pending_ = false;

  // --- chunked transfer state (receiver side) ---
  struct OutstandingChunk {
    ProcessId peer{0};
    SimTime sent_at = 0;
    std::uint32_t tries = 0;
  };
  struct Transfer {
    Slot next_slot = 0;
    std::uint32_t total_chunks = 0;
    std::uint32_t chunk_bytes = 0;
    std::vector<bool> have;
    std::uint32_t have_count = 0;
    /// Next chunk index never requested (requested-and-lost chunks re-enter
    /// via their retransmit timers, not this cursor).
    std::uint32_t next_index = 0;
    /// Snapshot ref from the first chunk that arrived. Peers checkpointed at
    /// the same slot hold state covering the same applied prefix, so chunks
    /// from other peers only contribute wire progress (the sim's stand-in
    /// for byte-range reassembly).
    sim::MessagePtr state;
    std::map<std::uint32_t, OutstandingChunk> outstanding;
    /// Guards retransmit timers across transfer restarts.
    std::uint64_t epoch = 0;
    std::uint32_t retransmits = 0;
  };
  std::optional<Transfer> transfer_;
  std::uint64_t transfer_epochs_ = 0;
  /// Observed per-peer bandwidth EWMA (bytes/sec), learned from chunk
  /// request->arrival times; untried peers score +inf so they get probed.
  std::unordered_map<std::uint64_t, double> peer_bandwidth_;
  MetricsRegistry* metrics_ = nullptr;

  // Values awaiting a known leader (buffered during elections).
  std::deque<sim::MessagePtr> stashed_;
  bool stash_retry_armed_ = false;
};

}  // namespace dynastar::paxos
