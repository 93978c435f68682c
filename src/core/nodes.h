// Simulated nodes hosting the DynaStar cores: partition server replicas,
// oracle replicas, and clients. Each node is one sim::Process (one queueing
// CPU) whose messages are dispatched into the layered cores.
#pragma once

#include <functional>
#include <memory>

#include "core/client.h"
#include "core/config.h"
#include "core/oracle.h"
#include "core/server.h"
#include "sim/process.h"

namespace dynastar::core {

/// Carrier for a core's snapshot inside the replica layer: the stable
/// snapshot chunked transfers serve. The snapshot is immutable; receivers
/// copy on install.
template <class Snapshot>
struct SnapshotMsg final : sim::Message {
  explicit SnapshotMsg(std::shared_ptr<const Snapshot> s)
      : state(std::move(s)) {}
  const char* type_name() const override { return "core.Snapshot"; }
  std::size_t size_bytes() const override { return state->size_bytes(); }
  std::shared_ptr<const Snapshot> state;
};

/// Hosts one replica core (PartitionServerCore or OracleCore) plus the
/// replica's *durable* checkpoint (modeled like paxos::AcceptorStorage: the
/// one thing that survives a crash). The core itself is volatile — on_crash
/// destroys it, and recovery rebuilds a fresh core from the checkpoint plus
/// log replay. The node wires the core's snapshots into its Paxos replica:
/// each checkpoint boundary's snapshot becomes both the durable checkpoint
/// and the stable snapshot chunked transfers serve, and a recovered
/// incarnation serves the durable checkpoint it restored from.
template <class Core>
class ReplicaNode final : public sim::Process {
 public:
  using SnapshotPtr = typename Core::SnapshotPtr;
  /// Builds the core of one incarnation.
  using CoreFactory = std::function<std::unique_ptr<Core>(ReplicaNode&)>;

  ReplicaNode(ProcessId id, sim::World& world, SimTime service_time,
              CoreFactory make_core)
      : sim::Process(id, world), make_core_(std::move(make_core)) {
    set_message_service_time(service_time);
    rebuild();
  }

  void on_start() override {
    // Durable slot-0 checkpoint: covers preloaded objects/assignment, so a
    // crash before the first boundary still restores the initial state.
    checkpoint_ = core_->capture_snapshot();
    core_->start();
  }

  void on_crash() override { core_.reset(); }

  void on_recover() override {
    rebuild();
    if (checkpoint_) {
      core_->restore_snapshot(*checkpoint_);
      core_->member().replica().adopt_stable_snapshot(
          sim::make_message<Carrier>(checkpoint_));
    }
    core_->start_recovered();
  }

  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    core_->handle(from, msg);
  }

  Core& core() { return *core_; }
  [[nodiscard]] SnapshotPtr checkpoint() const { return checkpoint_; }

 private:
  using Carrier = SnapshotMsg<typename Core::Snapshot>;

  void rebuild() {
    core_ = make_core_(*this);
    paxos::ReplicaCore& replica = core_->member().replica();
    replica.set_checkpoint_hook([this]() -> sim::MessagePtr {
      checkpoint_ = core_->on_checkpoint_boundary();
      return sim::make_message<Carrier>(checkpoint_);
    });
    replica.set_snapshot_installer([this](const sim::MessagePtr& m) {
      const auto* carrier = dynamic_cast<const Carrier*>(m.get());
      if (carrier == nullptr) return false;
      core_->install_snapshot(*carrier->state);
      return true;
    });
  }

  CoreFactory make_core_;
  std::unique_ptr<Core> core_;  // volatile (dies on crash)
  SnapshotPtr checkpoint_;      // durable
};

using ServerNode = ReplicaNode<PartitionServerCore>;
using OracleNode = ReplicaNode<OracleCore>;

class ClientNode final : public sim::Process {
 public:
  ClientNode(ProcessId id, sim::World& world, const paxos::Topology& topology,
             const SystemConfig& config, std::unique_ptr<ClientDriver> driver,
             bool surge_only = false)
      : sim::Process(id, world),
        core_(*this, topology, config, std::move(driver), &world.metrics(),
              &world.trace(), surge_only) {
    set_message_service_time(config.client_service_time);
  }

  void on_start() override { core_.start(); }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    core_.handle(from, msg);
  }

  ClientCore& core() { return core_; }

 private:
  ClientCore core_;
};

}  // namespace dynastar::core
