// Wire messages of the Multi-Paxos protocol.
//
// Log positions are `Slot` (0-based), ballots are totally ordered integers
// whose owner rotates over the group's replicas (owner = ballot % replicas).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "sim/message.h"

namespace dynastar::paxos {

using Slot = std::uint64_t;
using Ballot = std::uint64_t;

constexpr Ballot kNoBallot = UINT64_MAX;

/// A slot the acceptor has voted on (used in Promise to recover values).
struct AcceptedEntry {
  Slot slot;
  Ballot ballot;
  sim::MessagePtr value;
};

/// Client/replica -> leader: please order this value.
struct ProposeReq final : sim::Message {
  explicit ProposeReq(sim::MessagePtr v) : value(std::move(v)) {}
  const char* type_name() const override { return "paxos.ProposeReq"; }
  std::size_t size_bytes() const override { return 64 + value->size_bytes(); }
  sim::MessagePtr value;
};

/// Phase 1a: leader -> acceptors.
struct Prepare final : sim::Message {
  Prepare(GroupId g, Ballot b, Slot from) : group(g), ballot(b), from_slot(from) {}
  const char* type_name() const override { return "paxos.Prepare"; }
  GroupId group;
  Ballot ballot;
  Slot from_slot;
};

/// Phase 1b: acceptor -> leader, with every vote at slot >= from_slot.
struct Promise final : sim::Message {
  Promise(GroupId g, Ballot b, std::vector<AcceptedEntry> acc)
      : group(g), ballot(b), accepted(std::move(acc)) {}
  const char* type_name() const override { return "paxos.Promise"; }
  std::size_t size_bytes() const override { return 64 + accepted.size() * 64; }
  GroupId group;
  Ballot ballot;
  std::vector<AcceptedEntry> accepted;
};

/// Acceptor -> proposer: your ballot is stale (promised is higher).
struct Nack final : sim::Message {
  Nack(GroupId g, Ballot b, Ballot promised_b)
      : group(g), ballot(b), promised(promised_b) {}
  const char* type_name() const override { return "paxos.Nack"; }
  GroupId group;
  Ballot ballot;
  Ballot promised;
};

/// Phase 2a: leader -> acceptors. `committed` piggybacks the leader's
/// applied prefix so acceptors can trim votes below it.
struct Accept final : sim::Message {
  Accept(GroupId g, Ballot b, Slot s, Slot committed_prefix, sim::MessagePtr v)
      : group(g),
        ballot(b),
        slot(s),
        committed(committed_prefix),
        value(std::move(v)) {}
  const char* type_name() const override { return "paxos.Accept"; }
  std::size_t size_bytes() const override { return 64 + value->size_bytes(); }
  GroupId group;
  Ballot ballot;
  Slot slot;
  Slot committed;
  sim::MessagePtr value;
};

/// Phase 2b: acceptor -> leader.
struct Accepted final : sim::Message {
  Accepted(GroupId g, Ballot b, Slot s) : group(g), ballot(b), slot(s) {}
  const char* type_name() const override { return "paxos.Accepted"; }
  GroupId group;
  Ballot ballot;
  Slot slot;
};

/// Leader -> other replicas: slot is chosen.
struct Decision final : sim::Message {
  Decision(GroupId g, Slot s, sim::MessagePtr v)
      : group(g), slot(s), value(std::move(v)) {}
  const char* type_name() const override { return "paxos.Decision"; }
  std::size_t size_bytes() const override { return 64 + value->size_bytes(); }
  GroupId group;
  Slot slot;
  sim::MessagePtr value;
};

/// Leader -> replicas: liveness heartbeat (suppresses elections).
/// `floor_slot` advertises the leader's log floor: slots below it have been
/// truncated and can only be recovered via snapshot transfer. The floor
/// never passes the slot of the leader's stable snapshot.
struct Heartbeat final : sim::Message {
  Heartbeat(GroupId g, Ballot b, Slot next, Slot floor)
      : group(g), ballot(b), next_slot(next), floor_slot(floor) {}
  const char* type_name() const override { return "paxos.Heartbeat"; }
  GroupId group;
  Ballot ballot;
  Slot next_slot;
  Slot floor_slot;
};

/// Lagging replica -> leader: resend decisions starting at from_slot. When
/// from_slot is below the leader's log floor, the answer is a ChunkManifest
/// instead.
struct CatchupReq final : sim::Message {
  CatchupReq(GroupId g, Slot from) : group(g), from_slot(from) {}
  const char* type_name() const override { return "paxos.CatchupReq"; }
  GroupId group;
  Slot from_slot;
};

// --- Chunked snapshot transfer (receiver-driven pull) -----------------------
//
// The only way a replica installs a peer's state. A lagging replica whose
// CatchupReq starts below the peer's log floor is answered with a
// ChunkManifest of the peer's *stable* (checkpoint-boundary) snapshot; the
// floor never passes that snapshot's slot, so such a snapshot always exists.
// The receiver then pulls fixed-size chunks — windowed, with per-chunk
// retransmit timers — from whichever group peer its observed-bandwidth EWMA
// ranks best, and splices the state in only once every chunk has arrived.
// Each StateChunkReq also acknowledges the chunks before it. Checkpoints
// land at deterministic slot boundaries, so every peer whose last checkpoint
// is at `next_slot` serves the same manifest: a transfer survives its
// original sender crashing by re-pulling the remaining chunks from someone
// else (Chiba/Ohmura/Nakamura, arXiv:2110.04448 + arXiv:2204.08656).

/// One chunk of a `total_bytes` payload cut into `chunk_bytes` pieces.
struct ChunkSlice {
  std::uint32_t total_chunks;   // at least 1, even for an empty payload
  std::uint32_t payload_bytes;  // the last chunk may be shorter; 0 past it
};

/// Shared by snapshot manifests/chunks and plan handoff chunks.
inline ChunkSlice chunk_slice(std::size_t total_bytes, std::size_t chunk_bytes,
                              std::uint32_t index) {
  const std::size_t total =
      std::max<std::size_t>(1, (total_bytes + chunk_bytes - 1) / chunk_bytes);
  const std::size_t offset = static_cast<std::size_t>(index) * chunk_bytes;
  const std::size_t payload =
      index < total ? std::min(chunk_bytes, total_bytes - offset) : 0;
  return {static_cast<std::uint32_t>(total),
          static_cast<std::uint32_t>(payload)};
}

/// Peer -> lagging replica: my stable snapshot covers slots < next_slot, cut
/// into total_chunks pieces of chunk_bytes (the last one possibly shorter).
struct ChunkManifest final : sim::Message {
  ChunkManifest(GroupId g, Slot next, std::uint32_t chunks, std::uint32_t bytes)
      : group(g), next_slot(next), total_chunks(chunks), chunk_bytes(bytes) {}
  const char* type_name() const override { return "paxos.ChunkManifest"; }
  GroupId group;
  Slot next_slot;
  std::uint32_t total_chunks;
  std::uint32_t chunk_bytes;
};

/// Receiver -> peer: send chunk `index` of the manifest at `next_slot`.
struct StateChunkReq final : sim::Message {
  StateChunkReq(GroupId g, Slot next, std::uint32_t idx)
      : group(g), next_slot(next), index(idx) {}
  const char* type_name() const override { return "paxos.StateChunkReq"; }
  GroupId group;
  Slot next_slot;
  std::uint32_t index;
};

/// Peer -> receiver: one chunk. The simulator substitutes a shared ref for
/// serialized bytes, so the chunk carries the whole snapshot object while
/// only `payload_bytes` occupy the wire; the receiver reads the payload
/// exclusively at manifest completion (the splice point).
struct StateChunk final : sim::Message {
  StateChunk(GroupId g, Slot next, std::uint32_t idx, std::uint32_t chunks,
             std::uint32_t bytes, sim::MessagePtr st)
      : group(g),
        next_slot(next),
        index(idx),
        total_chunks(chunks),
        payload_bytes(bytes),
        state(std::move(st)) {}
  const char* type_name() const override { return "paxos.StateChunk"; }
  std::size_t size_bytes() const override { return 64 + payload_bytes; }
  GroupId group;
  Slot next_slot;
  std::uint32_t index;
  std::uint32_t total_chunks;
  std::uint32_t payload_bytes;
  sim::MessagePtr state;
};

/// Values proposed by the leader are batches of submitted values; the
/// replica unwraps them on delivery. Empty batches act as no-ops when a new
/// leader fills log gaps.
struct Batch final : sim::Message {
  explicit Batch(std::vector<sim::MessagePtr> vs) : values(std::move(vs)) {}
  const char* type_name() const override { return "paxos.Batch"; }
  std::size_t size_bytes() const override {
    std::size_t total = 32;
    for (const auto& v : values) total += v->size_bytes();
    return total;
  }
  std::vector<sim::MessagePtr> values;
};

}  // namespace dynastar::paxos
