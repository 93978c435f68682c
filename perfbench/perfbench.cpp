// perfbench: the repository benchmark's measuring binary. For one workload
// and seed it builds the full DynaStar stack (ScenarioBuilder -> System),
// runs it, checks its outputs and prints every metric by name.
//
//   perfbench --workload kv-order --seed 1 --seconds 10 --trace 0
//
// --trace 0 repeats untraced passes of the workload for about --seconds
// wall seconds and reports the end-to-end metrics (host-time ones
// as medians over the passes, in reference seconds of the SpeedGauge read
// during each pass; simulated ones from the passes, which must all be
// equal). --trace 1 runs one untraced pass and one traced pass (lifecycle
// trace armed, benchmark spans recorded, replica slots sampled between
// 10 ms run_until slices), checks that both produced the same simulated
// results, and reports the per-layer metrics. See README.md for what each
// metric means and which end-to-end metric it should move.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// Exit status is 0 only when every output check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/metric_names.h"
#include "common/report.h"
#include "core/object.h"
#include "core/server.h"
#include "partitioning/partitioner.h"
#include "workloads.h"

namespace dynastar::perfbench {
namespace {

constexpr SimTime kSlice = milliseconds(10);
constexpr SimTime kDrain = seconds(1);
constexpr std::size_t kSetups = 50;
constexpr std::size_t kSetupsPerReading = 5;
// An untraced pass reads the speed gauge at least this often (simulated).
constexpr SimTime kGaugeEvery = milliseconds(200);
// One reference second of host time is this many gauge readings.
constexpr double kGaugeReadingsPerRefSecond = 100;

double ns_to_s(double ns) { return ns / 1e9; }
double sim_s(SimTime t) { return static_cast<double>(t) / 1e9; }
double sim_ms(SimTime t) { return static_cast<double>(t) / 1e6; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of an ascending vector.
SimTime percentile(const std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return core::digest_mix(h, v);
}

double metric_total(const MetricsRegistry& m, const char* name) {
  if (const TimeSeries* s = m.find_series(name)) return s->total();
  return m.counter(name);
}

/// The machine's current speed for the code the simulator runs: node
/// allocation, pointer chasing and freeing. A reading is the process CPU
/// time of copying and destroying a fixed 100,000-entry std::set.
///
/// On a shared 4-vCPU Xeon virtual machine the same pass took up to three
/// times longer within minutes, and the workloads with the largest working
/// sets slowed the most. Over 78 passes of kv-failover and kv-order on it,
/// while readings ranged over 1.8x, log(pass CPU time) against log(reading)
/// had slope 1.0-1.2 and r = 0.97, and dividing by the reading cut the
/// standard deviation of log(pass CPU time) from 0.19 to 0.05 (kv-failover)
/// and from 0.16 to 0.04 (kv-order). So end-to-end host times are reported
/// in reference seconds of kGaugeReadingsPerRefSecond readings taken in
/// the same process, close in time.
class SpeedGauge {
 public:
  SpeedGauge() {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    while (set_.size() < 100000) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      set_.insert(x);
    }
  }

  /// Takes one reading and keeps it.
  void read() {
    const std::int64_t t0 = process_cpu_ns();
    {
      const std::set<std::uint64_t> copy = set_;
      sink_ += copy.size();
    }
    readings_.push_back(process_cpu_ns() - t0);
  }

  /// Median reading since the last take(), in ns; clears the readings.
  double take() {
    std::vector<double> v(readings_.begin(), readings_.end());
    readings_.clear();
    return median(std::move(v));
  }

 private:
  std::set<std::uint64_t> set_;
  std::vector<std::int64_t> readings_;
  std::size_t sink_ = 0;
};

/// Everything simulated a pass produces up to the horizon. Two passes of
/// one workload and seed must agree on all of it, traced or not, sliced or
/// not.
struct SimSummary {
  std::uint64_t completions = 0;
  std::uint64_t ok = 0;
  std::uint64_t fingerprint = 0;  // over every completion record
  std::uint64_t events = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t window_ok = 0;
  SimTime p50 = 0;
  SimTime p99 = 0;
  SimTime max_gap = 0;
  // Layer counters read at the horizon.
  double slots = 0;        // sum over groups of the highest live slot
  double deliveries = 0;   // sum over groups of the highest a-delivery count
  double executed = 0;
  double mpart = 0;
  double objects_exchanged = 0;
  double oracle_queries = 0;
  double client_retries = 0;
  double client_timeouts = 0;
  double checkpoints = 0;
  double snapshot_installs = 0;
  double chunks_sent = 0;
  double chunks_retransmitted = 0;
  double vertices_moved = 0;

  bool operator==(const SimSummary&) const = default;
};

/// Host-side and sampled results of one pass.
struct Pass {
  SimSummary sim;
  std::int64_t run_cpu_ns = 0;  // CPU time inside run_until up to horizon
  double gauge_ns = 0;          // median SpeedGauge reading (untraced)
  std::vector<std::string> failures;

  // Traced pass only.
  std::int64_t slice_ns = 0;  // steady-clock time inside run_until slices
  std::int64_t exec_ns = 0;
  std::uint64_t exec_calls = 0;
  std::int64_t driver_ns = 0;
  std::uint64_t driver_calls = 0;
  std::map<std::int64_t, std::int64_t> slice_ns_by_second;
  std::map<std::int64_t, std::uint64_t> completions_by_second;
  std::uint64_t max_lag_slots = 0;
  std::uint64_t applied_log_max = 0;
  std::optional<SimTime> recovered_at;
  std::optional<SimTime> caught_up_at;
  std::optional<SimTime> replan_at;
  std::optional<SimTime> replan_settled_at;
  PhaseBreakdown phases;
  double dedup_entries = 0;
  double snapshot_capture_ms = 0;  // mean per partition
  std::size_t snapshot_captures = 0;
  std::size_t graph_vertices = 0;
  std::size_t graph_edges = 0;
  double partition_ms = 0;
  double edge_cut_frac = 0;
  double imbalance = 0;
};

class PassRunner {
 public:
  PassRunner(const Workload& workload, std::uint64_t seed, SpanLog* spans,
             SpeedGauge* gauge)
      : w_(workload), seed_(seed), spans_(spans), gauge_(gauge) {
    probe_.spans = spans;
    probe_.stop_at = workload.horizon;
  }

  Pass run() {
    const std::unique_ptr<core::System> system = w_.build(seed_, probe_);
    sys_ = system.get();
    catchup_window_ = sys_->config().paxos.catchup_window;

    std::vector<SimTime> stops{w_.horizon};
    for (const Action& a : w_.actions) stops.push_back(a.at);
    if (traced()) {
      sys_->world().trace().enable();
      for (SimTime t = kSlice; t < w_.horizon; t += kSlice) stops.push_back(t);
    }
    if (gauge_ != nullptr) {
      for (SimTime t = kGaugeEvery; t < w_.horizon; t += kGaugeEvery)
        stops.push_back(t);
    }
    std::sort(stops.begin(), stops.end());
    stops.erase(std::unique(stops.begin(), stops.end()), stops.end());

    const std::uint32_t pass_span =
        traced() ? spans_->open(SpanName::kPass) : kNoParent;
    for (SimTime t : stops) {
      advance_to(t);
      if (traced()) sample_replicas(t);
      for (const Action& a : w_.actions)
        if (a.at == t) apply(a);
    }
    read_summary();
    check_at_horizon();
    if (gauge_ != nullptr) pass_.gauge_ns = gauge_->take();

    // Drain: clients have stopped issuing; let in-flight work finish so
    // every replica reaches the same slot before the state checks. A traced
    // pass keeps sampling, so a catch-up that completes here is timed.
    if (traced()) {
      for (SimTime t = w_.horizon + kSlice; t <= w_.horizon + kDrain;
           t += kSlice) {
        sys_->run_until(t);
        sample_replicas(t);
      }
    }
    sys_->run_until(w_.horizon + kDrain);
    check_quiescent_state();
    if (traced()) finish_traced();
    if (traced()) spans_->close(pass_span);
    return std::move(pass_);
  }

 private:
  [[nodiscard]] bool traced() const { return spans_ != nullptr; }

  void advance_to(SimTime t) {
    const std::int64_t cpu_start = process_cpu_ns();
    if (!traced()) {
      sys_->run_until(t);
      pass_.run_cpu_ns += process_cpu_ns() - cpu_start;
      if (gauge_ != nullptr) gauge_->read();
      return;
    }
    const std::uint32_t span = spans_->open(SpanName::kSlice);
    sys_->run_until(t);
    spans_->close(span);
    pass_.run_cpu_ns += process_cpu_ns() - cpu_start;
    const Span& s = spans_->spans()[span];
    pass_.slice_ns += s.end_ns - s.start_ns;
    // Slices cover (t - kSlice, t]; bucket by whole seconds after warm-up.
    if (t > w_.warmup)
      pass_.slice_ns_by_second[(t - 1 - w_.warmup) / seconds(1)] +=
          s.end_ns - s.start_ns;
  }

  [[nodiscard]] ProcessId replica_pid(GroupId g, std::size_t r) const {
    return sys_->topology().group(g).replicas[r];
  }
  [[nodiscard]] bool alive(ProcessId pid) const {
    const sim::Process* p = sys_->world().find(pid);
    return p != nullptr && !p->crashed();
  }
  [[nodiscard]] std::size_t replicas(GroupId g) const {
    return sys_->topology().group(g).replicas.size();
  }
  [[nodiscard]] std::uint32_t partitions() const {
    return sys_->config().num_partitions;
  }

  /// Paxos state of every live replica of group g, re-fetched on each call:
  /// a crash destroys the core a reference would point into.
  template <typename Fn>
  void for_live_replicas(GroupId g, Fn&& fn) {
    for (std::size_t r = 0; r < replicas(g); ++r) {
      if (!alive(replica_pid(g, r))) continue;
      multicast::MemberCore& member =
          g == GroupId{0} ? sys_->oracle(r).member()
                          : sys_->server(PartitionId{g.value() - 1}, r).member();
      fn(r, member);
    }
  }

  void sample_replicas(SimTime t) {
    for (std::uint32_t p = 0; p < partitions(); ++p) {
      const GroupId g = core::group_of(PartitionId{p});
      paxos::Slot top = 0;
      for_live_replicas(g, [&](std::size_t, multicast::MemberCore& m) {
        top = std::max(top, m.replica().next_deliver_slot());
        pass_.applied_log_max = std::max<std::uint64_t>(
            pass_.applied_log_max, m.replica().applied_log_size());
      });
      for_live_replicas(g, [&](std::size_t r, multicast::MemberCore& m) {
        const paxos::Slot lag = top - m.replica().next_deliver_slot();
        pass_.max_lag_slots = std::max<std::uint64_t>(pass_.max_lag_slots, lag);
        if (!crashed_ || replica_pid(g, r) != *crashed_ ||
            !pass_.recovered_at)
          return;
        if (lag <= catchup_window_) {
          if (!pass_.caught_up_at) pass_.caught_up_at = t;
        } else {
          pass_.caught_up_at.reset();  // caught up only if it stays caught up
        }
      });
    }
  }

  void apply(const Action& a) {
    switch (a.kind) {
      case ActionKind::kCrashLeader: {
        const GroupId g = core::group_of(PartitionId{0});
        for_live_replicas(g, [&](std::size_t r, multicast::MemberCore& m) {
          if (!crashed_ && m.is_leader()) crashed_ = replica_pid(g, r);
        });
        if (!crashed_) {
          pass_.failures.push_back("no live leader to crash at " +
                                   std::to_string(sim_s(a.at)) + " s");
          return;
        }
        sys_->world().crash(*crashed_);
        return;
      }
      case ActionKind::kRecover:
        if (!crashed_) return;
        sys_->world().recover(*crashed_);
        pass_.recovered_at = a.at;
        return;
      case ActionKind::kReplan:
        if (traced()) time_partitioner();
        for (std::size_t r = 0; r < replicas(GroupId{0}); ++r)
          sys_->oracle(r).request_repartition();
        pass_.replan_at = a.at;
        return;
    }
  }

  /// Runs the partitioner on the oracle's workload graph as the plan
  /// computation would see it at the trigger (the result is discarded).
  void time_partitioner() {
    const std::uint32_t span = spans_->open(SpanName::kPartitionGraph);
    const std::int64_t start = steady_ns();
    const partitioning::WorkloadGraph::Compact compact =
        sys_->oracle(0).graph().compact();
    const partitioning::PartitionResult result = partitioning::partition_graph(
        compact.graph, partitions(), sys_->config().partitioner);
    pass_.partition_ms = static_cast<double>(steady_ns() - start) / 1e6;
    spans_->close(span);
    pass_.graph_vertices = compact.graph.num_vertices();
    pass_.graph_edges = compact.graph.num_edges();
    std::int64_t total_weight = 0;
    for (std::int64_t w : compact.graph.edge_weights) total_weight += w;
    total_weight /= 2;  // CSR lists each edge from both ends
    pass_.edge_cut_frac =
        total_weight == 0 ? 0
                          : static_cast<double>(result.edge_cut) /
                                static_cast<double>(total_weight);
    pass_.imbalance = result.achieved_imbalance;
  }

  void read_summary() {
    SimSummary& s = pass_.sim;
    std::vector<SimTime> latencies;
    SimTime last_ok = w_.warmup;
    for (const Completion& c : probe_.completions) {
      if (c.at >= w_.horizon) break;
      ++s.completions;
      s.fingerprint = mix(mix(mix(s.fingerprint, static_cast<std::uint64_t>(c.at)),
                              static_cast<std::uint64_t>(c.latency)),
                          static_cast<std::uint64_t>(c.status));
      if (c.status != core::ReplyStatus::kOk) continue;
      ++s.ok;
      if (c.at < w_.warmup) continue;
      if (traced()) ++pass_.completions_by_second[(c.at - w_.warmup) / seconds(1)];
      ++s.window_ok;
      latencies.push_back(c.latency);
      s.max_gap = std::max(s.max_gap, c.at - last_ok);
      last_ok = c.at;
    }
    s.max_gap = std::max(s.max_gap, w_.horizon - last_ok);
    std::sort(latencies.begin(), latencies.end());
    s.p50 = percentile(latencies, 0.50);
    s.p99 = percentile(latencies, 0.99);

    sim::World& world = sys_->world();
    s.events = world.sim().executed_events();
    s.msgs_sent = world.network().messages_sent();
    s.msgs_dropped = world.network().messages_dropped();
    for (std::uint32_t g = 0; g <= partitions(); ++g) {
      paxos::Slot top = 0;
      std::uint64_t delivered = 0;
      for_live_replicas(GroupId{g}, [&](std::size_t, multicast::MemberCore& m) {
        top = std::max(top, m.replica().next_deliver_slot());
        delivered = std::max(delivered, m.delivered_count());
      });
      s.slots += static_cast<double>(top);
      s.deliveries += static_cast<double>(delivered);
    }
    const MetricsRegistry& m = sys_->metrics();
    s.executed = metric_total(m, metric::kExecuted);
    s.mpart = metric_total(m, metric::kMultiPartition);
    s.objects_exchanged = metric_total(m, metric::kObjectsExchanged);
    s.oracle_queries = metric_total(m, metric::kOracleQueries);
    s.client_retries = metric_total(m, metric::kClientRetries);
    s.client_timeouts = metric_total(m, metric::kClientTimeouts);
    s.checkpoints = metric_total(m, metric::kServerCheckpoints);
    s.snapshot_installs = metric_total(m, metric::kServerSnapshotInstalls);
    s.chunks_sent = metric_total(m, metric::kTransferChunksSent);
    s.chunks_retransmitted = metric_total(m, metric::kTransferChunksRetransmitted);
    s.vertices_moved = metric_total(m, metric::kVerticesMovedIn);
  }

  void check_at_horizon() {
    if (pass_.sim.window_ok == 0)
      pass_.failures.push_back("no command completed kOk in the window");
    if (pass_.replan_at) {
      for (std::uint32_t p = 0; p < partitions(); ++p) {
        const GroupId g = core::group_of(PartitionId{p});
        for_live_replicas(g, [&](std::size_t r, multicast::MemberCore&) {
          if (sys_->server(PartitionId{p}, r).epoch() == 0)
            pass_.failures.push_back("partition " + std::to_string(p) +
                                     " never applied the plan");
        });
      }
    }
  }

  [[nodiscard]] std::uint64_t store_digest(const core::ObjectStore& store) const {
    std::uint64_t h = mix(0xcbf29ce484222325ull, store.size());
    for (ObjectId id : w_.preloaded) {
      const core::PRObject* obj = store.find(id);
      h = mix(mix(h, id.value()), obj == nullptr ? 0 : obj->digest() | 1);
    }
    return h;
  }

  void check_quiescent_state() {
    std::vector<const core::ObjectStore*> homes;  // one live replica each
    for (std::uint32_t p = 0; p < partitions(); ++p) {
      const PartitionId part{p};
      const GroupId g = core::group_of(part);
      std::optional<paxos::Slot> slot;
      std::optional<std::uint64_t> digest;
      const core::ObjectStore* home = nullptr;
      for_live_replicas(g, [&](std::size_t r, multicast::MemberCore& m) {
        const core::ObjectStore& store = sys_->server(part, r).store();
        if (home == nullptr) home = &store;
        const paxos::Slot s = m.replica().next_deliver_slot();
        const std::uint64_t d = store_digest(store);
        if (!slot) {
          slot = s;
          digest = d;
        } else if (s != *slot) {
          pass_.failures.push_back("partition " + std::to_string(p) +
                                   ": replicas at slots " +
                                   std::to_string(*slot) + " and " +
                                   std::to_string(s) + " after the drain");
        } else if (d != *digest) {
          pass_.failures.push_back("partition " + std::to_string(p) +
                                   ": replicas at slot " + std::to_string(s) +
                                   " have different store digests");
        }
      });
      if (home == nullptr) {
        pass_.failures.push_back("partition " + std::to_string(p) +
                                 " has no live replica");
        return;
      }
      homes.push_back(home);
    }
    std::size_t misplaced = 0;
    for (ObjectId id : w_.preloaded) {
      std::size_t owners = 0;
      for (const core::ObjectStore* store : homes)
        if (store->contains(id)) ++owners;
      if (owners != 1) ++misplaced;
    }
    if (misplaced > 0)
      pass_.failures.push_back(std::to_string(misplaced) + " of " +
                               std::to_string(w_.preloaded.size()) +
                               " preloaded objects are not at exactly one "
                               "partition");
  }

  void finish_traced() {
    pass_.exec_ns = probe_.exec_ns;
    pass_.exec_calls = probe_.exec_calls;
    pass_.driver_ns = probe_.driver_ns;
    pass_.driver_calls = probe_.driver_calls;
    pass_.phases = compute_phase_breakdown(sys_->world().trace());
    std::map<std::uint64_t, SimTime> first_plan;  // partition -> first apply
    for (const TraceEvent& e : sys_->world().trace().events()) {
      if (e.point != TracePoint::kPlanApplied || e.detail == UINT64_MAX ||
          !pass_.replan_at || e.time < *pass_.replan_at)
        continue;
      first_plan.emplace(e.detail, e.time);  // events are in time order
    }
    if (pass_.replan_at && first_plan.size() == partitions()) {
      SimTime last = 0;
      for (const auto& [p, t] : first_plan) last = std::max(last, t);
      pass_.replan_settled_at = last;
    }
    for (std::uint32_t g = 0; g <= partitions(); ++g) {
      std::size_t seen = 0;
      for_live_replicas(GroupId{g}, [&](std::size_t, multicast::MemberCore& m) {
        seen = std::max(seen, m.capture_state().seen.size());
      });
      pass_.dedup_entries += static_cast<double>(seen);
    }
    double capture_ms = 0;
    for (std::uint32_t p = 0; p < partitions(); ++p) {
      const GroupId g = core::group_of(PartitionId{p});
      for (std::size_t r = 0; r < replicas(g); ++r) {
        if (!alive(replica_pid(g, r))) continue;
        const std::uint32_t span = spans_->open(SpanName::kCaptureSnapshot);
        const std::int64_t start = steady_ns();
        auto snapshot = sys_->server(PartitionId{p}, r).capture_snapshot();
        capture_ms += static_cast<double>(steady_ns() - start) / 1e6;
        spans_->close(span);
        ++pass_.snapshot_captures;
        break;
      }
    }
    if (pass_.snapshot_captures > 0)
      pass_.snapshot_capture_ms =
          capture_ms / static_cast<double>(pass_.snapshot_captures);
  }

  const Workload& w_;
  std::uint64_t seed_;
  SpanLog* spans_;
  SpeedGauge* gauge_;  // read between run_until stops when set
  Probe probe_;
  Pass pass_;
  core::System* sys_ = nullptr;
  paxos::Slot catchup_window_ = 0;
  std::optional<ProcessId> crashed_;
};

Pass run_pass(const Workload& w, std::uint64_t seed, SpanLog* spans,
              SpeedGauge* gauge = nullptr) {
  return PassRunner(w, seed, spans, gauge).run();
}

/// Metrics in emission order, each with the base it was computed from.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& base) {
    entries_.push_back(Entry{name, value, unit, base});
  }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<std::string>& failures) const {
    for (const Entry& e : entries_)
      std::printf("# %-40s %16.6f %-6s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.base.c_str());
    for (const std::string& f : failures)
      std::printf("# CHECK FAILED: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", entries_[i].name.c_str(),
                  entries_[i].value, entries_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string base;
  };
  std::vector<Entry> entries_;
};

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

double per(double num, double den) { return den == 0 ? 0 : num / den; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Reference seconds of `cpu_ns` CPU time at a median gauge reading of
/// `gauge_ns`.
double ref_s(double cpu_ns, double gauge_ns) {
  return cpu_ns / (kGaugeReadingsPerRefSecond * gauge_ns);
}

/// Passes of `w` while another one would end within half a pass of
/// `seconds` of wall time (at least one), so a run takes about `seconds`.
/// Reports the end-to-end metrics.
int run_untraced(const Workload& w, std::uint64_t seed, double run_seconds) {
  const std::int64_t start = steady_ns();
  SpeedGauge gauge;
  // Set-up takes about a millisecond, so it is timed on its own first, in
  // the fresh process a user's set-up runs in: one untimed build (cold
  // caches, first page faults), then kSetups builds, each made and
  // destroyed on its own. After a pass the heap is fragmented and a build
  // takes up to 1.5 times longer.
  { Probe probe; w.build(seed, probe); }
  std::vector<double> setup_cpu_ns;
  for (std::size_t i = 0; i < kSetups; ++i) {
    if (i % kSetupsPerReading == 0) gauge.read();
    Probe probe;
    const std::int64_t t0 = process_cpu_ns();
    const std::unique_ptr<core::System> system = w.build(seed, probe);
    setup_cpu_ns.push_back(static_cast<double>(process_cpu_ns() - t0));
  }
  const double setup_gauge_ns = gauge.take();

  std::vector<Pass> passes;
  std::vector<std::string> failures;
  std::int64_t longest_pass_ns = 0;
  do {
    const std::int64_t pass_start = steady_ns();
    passes.push_back(run_pass(w, seed, nullptr, &gauge));
    for (const std::string& f : passes.back().failures)
      failures.push_back("pass " + std::to_string(passes.size()) + ": " + f);
    if (!(passes.back().sim == passes.front().sim))
      failures.push_back("pass " + std::to_string(passes.size()) +
                         " simulated different results than pass 1 (same "
                         "seed): the run is not deterministic");
    longest_pass_ns = std::max(longest_pass_ns, steady_ns() - pass_start);
  } while (ns_to_s(static_cast<double>(steady_ns() - start +
                                       longest_pass_ns / 2)) < run_seconds);

  std::vector<double> rates, gauges;
  std::uint64_t attempted = 0, failed = 0;
  for (const Pass& p : passes) {
    rates.push_back(static_cast<double>(p.sim.completions) /
                    ref_s(static_cast<double>(p.run_cpu_ns), p.gauge_ns));
    gauges.push_back(p.gauge_ns / 1e6);
    attempted += p.sim.completions;
    failed += p.sim.completions - p.sim.ok;
  }

  const SimSummary& s = passes.front().sim;
  const double window_s = sim_s(w.horizon - w.warmup);
  const std::string window =
      fmt("[%.1f s, %.1f s)", sim_s(w.warmup), sim_s(w.horizon));
  Report report;
  report.add("host_cmds_per_s", median(rates), "1/s",
             fmt("median of %zu passes; %llu completions per pass / "
                 "reference s of process CPU in run_until (gauge median "
                 "%.3f ms)",
                 passes.size(), static_cast<unsigned long long>(s.completions),
                 median(gauges)));
  report.add("setup_s", ref_s(median(setup_cpu_ns), setup_gauge_ns), "s",
             fmt("median of %zu builds after a warm-up build, reference s "
                 "of process CPU (gauge median %.3f ms)",
                 setup_cpu_ns.size(), setup_gauge_ns / 1e6));
  report.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
  report.add("sim_cmds_per_s", static_cast<double>(s.window_ok) / window_s,
             "1/s",
             fmt("%llu kOk completions in %s",
                 static_cast<unsigned long long>(s.window_ok), window.c_str()));
  report.add("sim_p50_ms", sim_ms(s.p50), "ms",
             fmt("n=%llu kOk latencies in %s",
                 static_cast<unsigned long long>(s.window_ok), window.c_str()));
  report.add("sim_p99_ms", sim_ms(s.p99), "ms",
             fmt("n=%llu kOk latencies in %s",
                 static_cast<unsigned long long>(s.window_ok), window.c_str()));
  const bool correct = failures.empty();
  report.print(correct, attempted, failed, failures);
  return correct ? 0 : 1;
}

/// One untraced and one traced pass; reports the per-layer metrics.
int run_traced(const Workload& w, std::uint64_t seed,
               const std::string& spans_path) {
  SpeedGauge gauge;
  const Pass plain = run_pass(w, seed, nullptr, &gauge);
  SpanLog spans;
  const Pass traced = run_pass(w, seed, &spans);
  std::vector<std::string> failures;
  for (const std::string& f : plain.failures)
    failures.push_back("untraced pass: " + f);
  for (const std::string& f : traced.failures)
    failures.push_back("traced pass: " + f);
  if (!(plain.sim == traced.sim))
    failures.push_back(
        "the traced, sliced pass simulated different results than the "
        "untraced one");
  if (!spans_path.empty() && !spans.write_csv(spans_path))
    failures.push_back("cannot write spans to " + spans_path);

  const SimSummary& s = traced.sim;
  const double cmds = static_cast<double>(s.completions);
  const auto u = [](double v) { return static_cast<unsigned long long>(v); };
  const std::string per_cmd = fmt("÷ %llu completions", u(cmds));
  Report r;
  r.add("sim.events_per_cmd", per(static_cast<double>(s.events), cmds), "count",
        fmt("%llu events %s", u(static_cast<double>(s.events)), per_cmd.c_str()));
  r.add("sim.msgs_per_cmd", per(static_cast<double>(s.msgs_sent), cmds),
        "count",
        fmt("%llu messages %s", u(static_cast<double>(s.msgs_sent)),
            per_cmd.c_str()));
  r.add("sim.host_ns_per_event",
        per(static_cast<double>(plain.run_cpu_ns), static_cast<double>(s.events)),
        "ns",
        fmt("untraced pass: %.3f CPU s ÷ %llu events",
            ns_to_s(static_cast<double>(plain.run_cpu_ns)),
            u(static_cast<double>(s.events))));
  r.add("sim.msgs_dropped", static_cast<double>(s.msgs_dropped), "count",
        "Network::messages_dropped at the horizon");
  r.add("paxos.slots_per_cmd", per(s.slots, cmds), "count",
        fmt("%llu slots (sum of each group's highest live slot) %s",
            u(s.slots), per_cmd.c_str()));
  r.add("paxos.checkpoints", s.checkpoints, "count", "server.checkpoints");
  r.add("paxos.applied_log_max", static_cast<double>(traced.applied_log_max),
        "count",
        fmt("max applied_log_size over %lld slices of 10 ms",
            static_cast<long long>(w.horizon / kSlice)));
  r.add("paxos.snapshot_installs", s.snapshot_installs, "count",
        "server.snapshot_installs");
  r.add("paxos.transfer_chunks_sent", s.chunks_sent, "count",
        "transfer.chunks_sent");
  r.add("paxos.transfer_chunks_retransmitted", s.chunks_retransmitted, "count",
        "transfer.chunks_retransmitted");
  r.add("paxos.max_lag_slots", static_cast<double>(traced.max_lag_slots),
        "count", "max live-replica slot lag over the 10 ms samples");
  r.add("multicast.deliveries_per_cmd", per(s.deliveries, cmds), "count",
        fmt("%llu a-deliveries (sum of each group's highest) %s",
            u(s.deliveries), per_cmd.c_str()));
  r.add("multicast.dedup_entries", traced.dedup_entries, "count",
        "sum over groups of capture_state().seen.size() after the drain");

  const auto phase = [&](const char* name) {
    for (const PhaseStats& p : traced.phases.phases)
      if (p.name == name) return p;
    return PhaseStats{};
  };
  const auto add_phase = [&](const std::string& metric, const char* name) {
    const PhaseStats p = phase(name);
    r.add(metric, p.mean_ns() / 1e3, "us",
          fmt("mean over n=%llu traced commands",
              static_cast<unsigned long long>(p.count)));
  };
  add_phase("multicast.order_us", "order");
  add_phase("core.resolve_us", "resolve");
  add_phase("core.coordinate_us", "coordinate");
  add_phase("workloads.execute_us", "execute");
  add_phase("core.reply_us", "reply");
  add_phase("core.retry_us", "retry");

  r.add("core.mpart_frac", per(s.mpart, s.executed), "ratio",
        fmt("%llu mpart ÷ %llu executed", u(s.mpart), u(s.executed)));
  r.add("core.objects_exchanged_per_cmd", per(s.objects_exchanged, cmds),
        "count",
        fmt("%llu objects_exchanged %s", u(s.objects_exchanged),
            per_cmd.c_str()));
  r.add("core.oracle_queries_per_cmd", per(s.oracle_queries, cmds), "count",
        fmt("%llu oracle.queries %s", u(s.oracle_queries), per_cmd.c_str()));
  r.add("core.client_retries_per_cmd", per(s.client_retries, cmds), "count",
        fmt("%llu client.retries %s", u(s.client_retries), per_cmd.c_str()));
  r.add("core.client_timeouts", s.client_timeouts, "count", "client.timeouts");
  r.add("core.vertices_moved", s.vertices_moved, "count", "vertices_moved_in");
  r.add("core.snapshot_capture_host_ms", traced.snapshot_capture_ms, "ms",
        fmt("mean of %zu capture_snapshot() calls, one per partition",
            traced.snapshot_captures));

  const double app_driver_ns =
      static_cast<double>(traced.exec_ns + traced.driver_ns);
  r.add("core.stack_host_ns_per_cmd",
        per(static_cast<double>(traced.slice_ns) - app_driver_ns, cmds), "ns",
        fmt("(%.3f s in run_until - %.3f s app - %.3f s driver) %s",
            ns_to_s(static_cast<double>(traced.slice_ns)),
            ns_to_s(static_cast<double>(traced.exec_ns)),
            ns_to_s(static_cast<double>(traced.driver_ns)), per_cmd.c_str()));
  // Host ns per kOk completion in the last whole simulated second of the
  // measured window over its first second.
  const std::int64_t first_s = 0;
  const std::int64_t last_s = (w.horizon - w.warmup) / seconds(1) - 1;
  const auto ns_per_cmd_in = [&](std::int64_t sec) {
    const auto ns = traced.slice_ns_by_second.find(sec);
    const auto done = traced.completions_by_second.find(sec);
    if (ns == traced.slice_ns_by_second.end() ||
        done == traced.completions_by_second.end())
      return 0.0;
    return per(static_cast<double>(ns->second),
               static_cast<double>(done->second));
  };
  const bool drift_defined = last_s > first_s;
  r.add("core.host_cost_drift",
        drift_defined ? per(ns_per_cmd_in(last_s), ns_per_cmd_in(first_s)) : 1.0,
        "ratio",
        drift_defined
            ? fmt("host ns/kOk cmd in window second %lld (%.0f) ÷ second "
                  "%lld (%.0f)",
                  static_cast<long long>(last_s), ns_per_cmd_in(last_s),
                  static_cast<long long>(first_s), ns_per_cmd_in(first_s))
            : std::string("window shorter than two seconds: 1 by definition"));
  r.add("workloads.exec_host_ns_per_call",
        per(static_cast<double>(traced.exec_ns),
            static_cast<double>(traced.exec_calls)),
        "ns",
        fmt("%.3f s ÷ %llu execute calls",
            ns_to_s(static_cast<double>(traced.exec_ns)),
            static_cast<unsigned long long>(traced.exec_calls)));
  r.add("workloads.exec_calls_per_cmd",
        per(static_cast<double>(traced.exec_calls), cmds), "count",
        fmt("%llu execute calls %s",
            static_cast<unsigned long long>(traced.exec_calls),
            per_cmd.c_str()));
  r.add("workloads.driver_host_ns_per_cmd",
        per(static_cast<double>(traced.driver_ns), cmds), "ns",
        fmt("%.3f s in %llu driver calls %s",
            ns_to_s(static_cast<double>(traced.driver_ns)),
            static_cast<unsigned long long>(traced.driver_calls),
            per_cmd.c_str()));
  r.add("partitioning.graph_vertices",
        static_cast<double>(traced.graph_vertices), "count",
        "oracle(0).graph().compact() at the replan trigger (0: no replan)");
  r.add("partitioning.graph_edges", static_cast<double>(traced.graph_edges),
        "count", "at the replan trigger (0: no replan)");
  r.add("partitioning.partition_host_ms", traced.partition_ms, "ms",
        "one compact() + partition_graph() at the trigger (0: no replan)");
  r.add("partitioning.edge_cut_frac", traced.edge_cut_frac, "ratio",
        "edge cut ÷ total edge weight of that partitioning (0: no replan)");
  r.add("partitioning.imbalance", traced.imbalance, "ratio",
        "max part weight ÷ mean part weight (0: no replan)");
  r.add("failed_frac", per(cmds - static_cast<double>(s.ok), cmds), "ratio",
        fmt("%llu non-kOk %s", u(cmds - static_cast<double>(s.ok)),
            per_cmd.c_str()));
  r.add("failover_gap_ms", sim_ms(s.max_gap), "ms",
        fmt("longest interval without a kOk completion in [%.1f s, %.1f s)",
            sim_s(w.warmup), sim_s(w.horizon)));
  r.add("recovery_catchup_s",
        traced.recovered_at && traced.caught_up_at
            ? sim_s(*traced.caught_up_at - *traced.recovered_at)
            : 0.0,
        "s",
        traced.recovered_at
            ? std::string("recover() to lag <= catchup_window for good, "
                          "10 ms samples")
            : std::string("0: nothing recovers in this workload"));
  r.add("replan_settle_s",
        traced.replan_at && traced.replan_settled_at
            ? sim_s(*traced.replan_settled_at - *traced.replan_at)
            : 0.0,
        "s",
        traced.replan_at
            ? std::string("trigger to the last partition's first plan_applied")
            : std::string("0: no replan in this workload"));
  if (traced.replan_at && !traced.replan_settled_at)
    failures.push_back("traced pass: not every partition applied the plan");
  if (traced.recovered_at && !traced.caught_up_at)
    failures.push_back("traced pass: the recovered replica never caught up");

  const double untraced_rate =
      cmds / ns_to_s(static_cast<double>(plain.run_cpu_ns));
  const double traced_rate =
      cmds / ns_to_s(static_cast<double>(traced.run_cpu_ns));
  r.add("perfbench.untraced_host_cmds_per_s", untraced_rate, "1/s",
        "one untraced pass, process CPU s in run_until");
  r.add("perfbench.traced_host_cmds_per_s", traced_rate, "1/s",
        fmt("one traced pass, %zu spans", spans.spans().size()));
  r.add("perfbench.trace_overhead_frac", per(untraced_rate, traced_rate) - 1,
        "ratio", "untraced ÷ traced host_cmds_per_s - 1");
  r.add("perfbench.gauge_ms", plain.gauge_ns / 1e6, "ms",
        "median SpeedGauge reading of the untraced pass; host_cmds_per_s "
        "and setup_s count 100 readings as one second");

  const bool correct = failures.empty();
  const std::uint64_t attempted = plain.sim.completions + s.completions;
  const std::uint64_t failed =
      attempted - plain.sim.ok - s.ok;
  r.print(correct, attempted, failed, failures);
  return correct ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace dynastar::perfbench

int main(int argc, char** argv) {
  using namespace dynastar::perfbench;
  std::string workload, spans_path;
  std::optional<std::uint64_t> seed;
  double run_seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      run_seconds = std::strtod(value, &end);
      if (*end != '\0' || run_seconds < 0) usage("--seconds takes a number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      trace = value[0] - '0';
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!seed || run_seconds < 0 || trace < 0) usage("missing a required flag");
  const std::optional<Workload> w = find_workload(workload);
  if (!w) usage(("unknown workload '" + workload + "'").c_str());
  std::printf("# perfbench %s seed=%llu trace=%d horizon=%.1f s\n",
              w->name.c_str(), static_cast<unsigned long long>(*seed), trace,
              static_cast<double>(w->horizon) / 1e9);
  return trace == 1 ? run_traced(*w, *seed, spans_path)
                    : run_untraced(*w, *seed, run_seconds);
}
