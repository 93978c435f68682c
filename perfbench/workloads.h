// The perfbench workloads and the probes that measure them from outside the
// system: an AppStateMachine wrapper and a ClientDriver wrapper that count
// (and, in a traced pass, time) every call into the application layer, plus
// an in-memory span log. Nothing here changes what the simulation does; a
// traced pass is checked to be event-for-event equal to an untraced one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "core/app.h"
#include "core/client.h"
#include "core/system.h"

namespace dynastar::perfbench {

/// Host nanoseconds on the monotonic clock.
std::int64_t steady_ns();
/// Host nanoseconds of CPU used by this process (all threads).
std::int64_t process_cpu_ns();

enum class SpanName : std::uint8_t {
  kPass,             // one traced simulation, set-up excluded
  kSlice,            // one System::run_until slice
  kExecute,          // AppStateMachine::execute
  kDriverNext,       // ClientDriver::next
  kDriverResult,     // ClientDriver::on_result
  kPartitionGraph,   // WorkloadGraph::compact + partition_graph
  kCaptureSnapshot,  // PartitionServerCore::capture_snapshot
};
const char* span_name(SpanName name);

/// One host-time span. `parent` indexes the enclosing span (kNoParent at the
/// root); spans of one command share `cmd` (the client's command id, 0 when
/// the span belongs to no command).
struct Span {
  std::uint64_t cmd = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;
  SpanName name = SpanName::kPass;
};
inline constexpr std::uint32_t kNoParent = UINT32_MAX;

/// Spans kept in memory during a traced pass and written once at the end.
class SpanLog {
 public:
  /// Opens a span under the current parent and makes it the parent of the
  /// spans recorded until close().
  std::uint32_t open(SpanName name, std::uint64_t cmd = 0);
  void close(std::uint32_t index);
  void record(SpanName name, std::uint64_t cmd, std::int64_t start_ns,
              std::int64_t end_ns) {
    spans_.push_back(Span{cmd, start_ns, end_ns, parent_, name});
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// CSV: index,name,parent,cmd,start_ns,end_ns (parent -1 at the root).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t parent_ = kNoParent;
};

/// One client completion as the driver wrapper observed it.
struct Completion {
  SimTime at = 0;
  SimTime latency = 0;
  core::ReplyStatus status = core::ReplyStatus::kOk;
};

/// Shared by every wrapper of one pass.
struct Probe {
  /// Traced pass: time wrapped calls and record spans into `spans`.
  SpanLog* spans = nullptr;
  /// Clients stop issuing commands at or after this instant, so the run
  /// can be drained to a quiescent state before the output checks.
  SimTime stop_at = INT64_MAX;

  std::uint64_t exec_calls = 0;
  std::int64_t exec_ns = 0;
  std::uint64_t driver_calls = 0;
  std::int64_t driver_ns = 0;
  std::vector<Completion> completions;
};

/// Wraps the application factory: every replica's state machine is a
/// TimedApp around the real one.
core::AppFactory wrap_app(core::AppFactory inner, Probe& probe);

/// Wraps a client driver. The client's process id in the high word plus the
/// driver's own count of issued commands reproduces ClientCore's command ids
/// for the spans.
class TimedDriver final : public core::ClientDriver {
 public:
  TimedDriver(std::unique_ptr<core::ClientDriver> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void set_process(ProcessId pid) { cmd_base_ = pid.value() << 32; }

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override;
  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override;

 private:
  std::unique_ptr<core::ClientDriver> inner_;
  Probe& probe_;
  std::uint64_t cmd_base_ = 0;
  std::uint64_t issued_ = 0;
};

/// A scripted intervention at a fixed simulated instant.
enum class ActionKind : std::uint8_t {
  kCrashLeader,  // crash partition 0's current Paxos leader
  kRecover,      // recover the replica crashed by kCrashLeader
  kReplan,       // request_repartition() on both oracle replicas
};
struct Action {
  SimTime at = 0;
  ActionKind kind = ActionKind::kReplan;
};

struct Workload {
  std::string name;
  /// Completions before `warmup` are excluded from the simulated metrics.
  SimTime warmup = 0;
  /// Load stops here; the run then drains for the output checks.
  SimTime horizon = 0;
  std::vector<Action> actions;
  /// Objects that exist from the start and must end at exactly one
  /// partition, in ascending id order.
  std::vector<ObjectId> preloaded;
  /// Builds the deployment (preload and clients included) from a seed.
  std::function<std::unique_ptr<core::System>(std::uint64_t seed,
                                              Probe& probe)>
      build;
};

/// The workload named `name`, or nullopt.
std::optional<Workload> find_workload(const std::string& name);

}  // namespace dynastar::perfbench
