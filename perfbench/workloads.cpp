#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "core/scenario.h"
#include "workloads/chirper.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"
#include "workloads/social_graph.h"
#include "workloads/tpcc.h"

namespace dynastar::perfbench {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kPass: return "pass";
    case SpanName::kSlice: return "sim.run_until";
    case SpanName::kExecute: return "workloads.execute";
    case SpanName::kDriverNext: return "workloads.driver_next";
    case SpanName::kDriverResult: return "workloads.driver_on_result";
    case SpanName::kPartitionGraph: return "partitioning.partition_graph";
    case SpanName::kCaptureSnapshot: return "core.capture_snapshot";
  }
  return "?";
}

std::uint32_t SpanLog::open(SpanName name, std::uint64_t cmd) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{cmd, steady_ns(), 0, parent_, name});
  parent_ = index;
  return index;
}

void SpanLog::close(std::uint32_t index) {
  spans_[index].end_ns = steady_ns();
  parent_ = spans_[index].parent;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,name,parent,cmd,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%lld,%llu,%lld,%lld\n", i, span_name(s.name),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.cmd),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

class TimedApp final : public core::AppStateMachine {
 public:
  TimedApp(std::unique_ptr<core::AppStateMachine> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  core::ExecResult execute(const core::Command& cmd,
                           core::ObjectStore& store) override {
    ++probe_.exec_calls;
    if (probe_.spans == nullptr) return inner_->execute(cmd, store);
    const std::int64_t start = steady_ns();
    core::ExecResult result = inner_->execute(cmd, store);
    const std::int64_t end = steady_ns();
    probe_.exec_ns += end - start;
    probe_.spans->record(SpanName::kExecute, cmd.cmd_id, start, end);
    return result;
  }

  core::ObjectPtr make_object(const core::Command& cmd) override {
    return inner_->make_object(cmd);
  }

 private:
  std::unique_ptr<core::AppStateMachine> inner_;
  Probe& probe_;
};

}  // namespace

core::AppFactory wrap_app(core::AppFactory inner, Probe& probe) {
  return [inner = std::move(inner), &probe] {
    return std::make_unique<TimedApp>(inner(), probe);
  };
}

std::optional<core::CommandSpec> TimedDriver::next(Rng& rng, SimTime now) {
  if (now >= probe_.stop_at) return std::nullopt;
  ++probe_.driver_calls;
  if (probe_.spans == nullptr) return inner_->next(rng, now);
  const std::int64_t start = steady_ns();
  auto spec = inner_->next(rng, now);
  const std::int64_t end = steady_ns();
  probe_.driver_ns += end - start;
  // A spec without objects is a pause and issues no command.
  const bool issues = spec.has_value() && !spec->objects.empty();
  probe_.spans->record(SpanName::kDriverNext,
                       issues ? cmd_base_ | (issued_ + 1) : 0, start, end);
  if (issues) ++issued_;
  return spec;
}

void TimedDriver::on_result(const core::CommandSpec& spec,
                            core::ReplyStatus status,
                            const sim::MessagePtr& payload, SimTime issued_at,
                            SimTime completed_at) {
  probe_.completions.push_back(
      Completion{completed_at, completed_at - issued_at, status});
  ++probe_.driver_calls;
  if (probe_.spans == nullptr) {
    inner_->on_result(spec, status, payload, issued_at, completed_at);
    return;
  }
  const std::int64_t start = steady_ns();
  inner_->on_result(spec, status, payload, issued_at, completed_at);
  const std::int64_t end = steady_ns();
  probe_.driver_ns += end - start;
  probe_.spans->record(SpanName::kDriverResult, cmd_base_ | issued_, start,
                       end);
}

namespace {

/// Builds the scenario with every client driver wrapped, then tells each
/// wrapper its client's process id (clients are added in factory order).
std::unique_ptr<core::System> build_system(
    core::ScenarioBuilder builder, std::size_t clients,
    const core::ScenarioBuilder::DriverFactory& inner, Probe& probe) {
  std::vector<TimedDriver*> drivers;
  builder.clients(clients, [&](std::size_t i) {
    auto driver = std::make_unique<TimedDriver>(inner(i), probe);
    drivers.push_back(driver.get());
    return driver;
  });
  auto system = builder.build();
  for (std::size_t i = 0; i < drivers.size(); ++i)
    drivers[i]->set_process(system->client(i).id());
  return system;
}

std::vector<ObjectId> object_range(std::uint64_t n) {
  std::vector<ObjectId> ids;
  ids.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) ids.push_back(ObjectId{i});
  return ids;
}

constexpr std::uint64_t kKvKeys = 1024;
constexpr std::uint32_t kChirperUsers = 2'500;
/// The data and its placement are fixed per workload (the graph seed
/// bench/chirper_common.h uses, the setup functions' default placement
/// seeds); a run's seed varies the command stream and network jitter.
constexpr std::uint64_t kChirperGraphSeed = 21;
constexpr std::uint32_t kWarehouses = 4;

Workload kv_order() {
  Workload w;
  w.name = "kv-order";
  w.warmup = milliseconds(200);
  w.horizon = milliseconds(2200);
  w.preloaded = object_range(kKvKeys);
  w.build = [](std::uint64_t seed, Probe& probe) {
    auto builder = core::ScenarioBuilder()
                       .execution_mode(core::ExecutionMode::kDynaStar)
                       .partitions(4)
                       .seed(seed)
                       .repartitioning(false)
                       .app(wrap_app(workloads::kv_app_factory(), probe))
                       .preload_kv(kKvKeys, workloads::KvObject(0));
    return build_system(std::move(builder), 32, [](std::size_t) {
      return std::make_unique<workloads::RandomKvDriver>(kKvKeys, 0.5, 0.0);
    }, probe);
  };
  return w;
}

Workload chirper_borrow() {
  namespace chirper = workloads::chirper;
  Workload w;
  w.name = "chirper-borrow";
  w.warmup = milliseconds(200);
  w.horizon = milliseconds(2200);
  for (std::uint32_t u = 0; u < kChirperUsers; ++u)
    w.preloaded.push_back(chirper::user_object(u));
  w.build = [](std::uint64_t seed, Probe& probe) {
    auto graph = std::make_shared<workloads::SocialGraph>(
        workloads::generate_social_graph(kChirperUsers, 4, kChirperGraphSeed));
    auto directory = chirper::make_directory(*graph);
    auto zipf = std::make_shared<ZipfGenerator>(kChirperUsers, 0.95);
    chirper::WorkloadMix mix;
    mix.timeline_fraction = 0.85;
    auto builder =
        core::ScenarioBuilder()
            .execution_mode(core::ExecutionMode::kDynaStar)
            .partitions(4)
            .seed(seed)
            .repartitioning(false)
            .app(wrap_app(chirper::chirper_app_factory(), probe))
            .preload([graph](core::System& system) {
              chirper::setup(system, *graph, chirper::Placement::kRandom);
            });
    return build_system(std::move(builder), 40, [=](std::size_t) {
      return std::make_unique<chirper::ChirperDriver>(directory, mix, zipf);
    }, probe);
  };
  return w;
}

Workload tpcc_replan() {
  namespace tpcc = workloads::tpcc;
  const tpcc::Scale scale;
  Workload w;
  w.name = "tpcc-replan";
  w.warmup = milliseconds(200);
  w.horizon = milliseconds(2200);
  w.actions = {Action{milliseconds(700), ActionKind::kReplan}};
  for (std::uint32_t wh = 1; wh <= kWarehouses; ++wh) {
    w.preloaded.push_back(tpcc::oid(tpcc::Table::kWarehouse, wh, 0, 0));
    for (std::uint32_t i = 1; i <= scale.items; ++i)
      w.preloaded.push_back(tpcc::oid(tpcc::Table::kStock, wh, 0, i));
    for (std::uint32_t d = 1; d <= scale.districts_per_warehouse; ++d) {
      w.preloaded.push_back(tpcc::oid(tpcc::Table::kDistrict, wh, d, 0));
      w.preloaded.push_back(tpcc::oid(tpcc::Table::kHistory, wh, d, 0));
      for (std::uint32_t c = 1; c <= scale.customers_per_district; ++c)
        w.preloaded.push_back(tpcc::oid(tpcc::Table::kCustomer, wh, d, c));
    }
  }
  std::sort(w.preloaded.begin(), w.preloaded.end());
  w.build = [scale](std::uint64_t seed, Probe& probe) {
    auto builder =
        core::ScenarioBuilder()
            .execution_mode(core::ExecutionMode::kDynaStar)
            .partitions(kWarehouses)
            .seed(seed)
            .tune([](core::SystemConfig& c) {
              // Plans come only from the scripted trigger (Fig. 2 setup).
              c.repartitioning_enabled = true;
              c.repartition_hint_threshold =
                  std::numeric_limits<std::uint64_t>::max();
            })
            .app(wrap_app(tpcc::tpcc_app_factory(scale), probe))
            .preload([scale](core::System& system) {
              tpcc::setup(system, scale, kWarehouses, tpcc::Placement::kRandom);
            });
    return build_system(std::move(builder), 48, [scale](std::size_t c) {
      const auto i = static_cast<std::uint32_t>(c);
      return std::make_unique<tpcc::TpccDriver>(
          scale, kWarehouses, i % kWarehouses + 1, i / kWarehouses % 10 + 1);
    }, probe);
  };
  return w;
}

Workload kv_failover() {
  Workload w;
  w.name = "kv-failover";
  w.warmup = milliseconds(200);
  // Under load the recovered replica's install loop lasts a seed-dependent
  // time (seconds); load stops at 3 s and convergence is checked after the
  // drain, so the loop shows in the install count on every seed.
  w.horizon = milliseconds(3000);
  w.actions = {Action{seconds(1), ActionKind::kCrashLeader},
               Action{seconds(2), ActionKind::kRecover}};
  w.preloaded = object_range(kKvKeys);
  w.build = [](std::uint64_t seed, Probe& probe) {
    auto builder = core::ScenarioBuilder()
                       .execution_mode(core::ExecutionMode::kDynaStar)
                       .partitions(1)
                       .seed(seed)
                       .repartitioning(false)
                       // The recovery settings of bench/overload_goodput.
                       .checkpoint_interval(32)
                       .catchup_window(8)
                       .app(wrap_app(workloads::kv_app_factory(), probe))
                       .preload_kv(kKvKeys, workloads::KvObject(0));
    return build_system(std::move(builder), 16, [](std::size_t) {
      return std::make_unique<workloads::RandomKvDriver>(kKvKeys, 0.5, 0.0);
    }, probe);
  };
  return w;
}

}  // namespace

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "kv-order") return kv_order();
  if (name == "chirper-borrow") return chirper_borrow();
  if (name == "tpcc-replan") return tpcc_replan();
  if (name == "kv-failover") return kv_failover();
  return std::nullopt;
}

}  // namespace dynastar::perfbench
