// Shared helpers for the figure/table reproduction binaries.
//
// Conventions:
//  * Every binary prints the series/rows of one paper artifact, then a short
//    reading guide relating the output to the paper's claim.
//  * Default scales finish in tens of seconds on one core; set
//    DYNASTAR_BENCH_FULL=1 for paper-sized sweeps.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "core/client.h"
#include "core/system.h"

namespace dynastar::bench {

inline bool full_mode() {
  const char* env = std::getenv("DYNASTAR_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  return env == nullptr ? fallback : std::strtoull(env, nullptr, 10);
}

/// Sum of a series over simulated-seconds [from, to).
inline double window_total(const TimeSeries& series, std::size_t from,
                           std::size_t to) {
  double total = 0;
  for (std::size_t b = from; b < to && b < series.num_buckets(); ++b)
    total += series.at(b);
  return total;
}

/// Average per-second rate over [from, to).
inline double window_rate(const TimeSeries& series, std::size_t from,
                          std::size_t to) {
  if (to <= from) return 0;
  return window_total(series, from, to) / static_cast<double>(to - from);
}

/// Peak 1-second bucket in [from, to).
inline double window_peak(const TimeSeries& series, std::size_t from,
                          std::size_t to) {
  double peak = 0;
  for (std::size_t b = from; b < to && b < series.num_buckets(); ++b)
    peak = std::max(peak, series.at(b));
  return peak;
}

/// Prints one time series as "t value" rows (bucket = 1 simulated second).
inline void print_series(const char* label, const TimeSeries& series,
                         std::size_t seconds) {
  std::printf("# %s (per simulated second)\n", label);
  for (std::size_t b = 0; b < seconds; ++b)
    std::printf("%3zu  %.0f\n", b, series.at(b));
}

struct Measured {
  double throughput = 0;     // avg cmds / sim-second over the window
  double peak = 0;           // best 1s bucket
  double latency_avg_ms = 0;
  double latency_p95_ms = 0;
  double mpart_fraction = 0;
};

/// Steady-state measurement over [warmup, warmup+measure) sim-seconds.
inline Measured measure(core::System& system, std::size_t warmup_s,
                        std::size_t measure_s) {
  system.run_until(seconds(static_cast<std::int64_t>(warmup_s + measure_s)));
  Measured m;
  const auto& completed = system.metrics().series(metric::kCompleted);
  m.throughput = window_rate(completed, warmup_s, warmup_s + measure_s);
  m.peak = window_peak(completed, warmup_s, warmup_s + measure_s);
  if (const auto* latency = system.metrics().find_histogram(metric::kLatency)) {
    m.latency_avg_ms = to_millis(static_cast<SimTime>(latency->mean()));
    m.latency_p95_ms = to_millis(latency->percentile(0.95));
  }
  const auto& executed = system.metrics().series(metric::kExecuted);
  const auto& mpart = system.metrics().series(metric::kMultiPartition);
  const double exec_total = window_total(executed, warmup_s, warmup_s + measure_s);
  if (exec_total > 0)
    m.mpart_fraction =
        window_total(mpart, warmup_s, warmup_s + measure_s) / exec_total;
  return m;
}

/// Wraps a driver and records every kOk completion instant; `completed`
/// alone would also count kTimeout / kOverloaded completions, which are not
/// goodput.
class GoodputDriver final : public core::ClientDriver {
 public:
  GoodputDriver(std::unique_ptr<core::ClientDriver> inner,
                std::vector<SimTime>* oks)
      : inner_(std::move(inner)), oks_(oks) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override {
    return inner_->next(rng, now);
  }

  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override {
    if (status == core::ReplyStatus::kOk) oks_->push_back(completed_at);
    inner_->on_result(spec, status, payload, issued_at, completed_at);
  }

 private:
  std::unique_ptr<core::ClientDriver> inner_;
  std::vector<SimTime>* oks_;
};

/// kOk completions over simulated seconds [from_s, to_s).
struct GoodputWindow {
  std::int64_t from_s = 0;
  std::int64_t to_s = 0;
  std::uint64_t ok_commands = 0;

  GoodputWindow(const std::vector<SimTime>& oks, std::int64_t from,
                std::int64_t to)
      : from_s(from), to_s(to) {
    for (SimTime t : oks)
      if (t >= seconds(from_s) && t < seconds(to_s)) ++ok_commands;
  }
  [[nodiscard]] double goodput() const {
    return static_cast<double>(ok_commands) /
           static_cast<double>(to_s - from_s);
  }
};

/// One `dynastar-bench-v1` document (docs/OBSERVABILITY.md): the metrics a
/// gated bench measured and the gates `scripts/check_report.py --bench`
/// enforces on them. Declare each gate on the line that records its metric:
///
///   doc.metric("surge_ratio", surge / base, "ratio", kHigher, kDeterministic)
///       .min(0.5);
class BenchDoc {
 public:
  enum Better { kHigher, kLower };
  /// kDeterministic: bit-identical per seed on every machine, so a baseline
  /// comparison is exact. kWall: host-timed, compared with the baseline only
  /// through a declared budget().
  enum Kind { kDeterministic, kWall };

  /// Adds bounds to the metric it was returned for.
  class Gates {
   public:
    Gates& min(double bound) { return add("min", bound); }
    Gates& max(double bound) { return add("max", bound); }
    /// Worse than the baseline value by at most this fraction.
    Gates& budget(double fraction) { return add("budget", fraction); }

   private:
    friend class BenchDoc;
    Gates(Json* gates, std::string metric)
        : gates_(gates), metric_(std::move(metric)) {}
    Gates& add(const char* bound, double value) {
      Json gate;
      gate["metric"] = metric_;
      gate[bound] = value;
      gates_->as_array().push_back(std::move(gate));
      return *this;
    }
    Json* gates_;
    std::string metric_;
  };

  BenchDoc(std::string bench, Json config) {
    doc_["schema"] = "dynastar-bench-v1";
    doc_["bench"] = std::move(bench);
    doc_["config"] = std::move(config);
    doc_["metrics"] = Json::Object{};
    doc_["gates"] = Json::Array{};
  }

  Gates metric(const std::string& name, double value, const char* unit,
               Better better, Kind kind) {
    doc_["metrics"][name] = Json::Object{
        {"value", value},
        {"unit", unit},
        {"better", better == kHigher ? "higher" : "lower"},
        {"kind", kind == kDeterministic ? "deterministic" : "wall"},
    };
    return Gates(&doc_["gates"], name);
  }

  /// Writes the document to `path`; returns the process exit code.
  [[nodiscard]] int write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    const std::string text = doc_.dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

 private:
  Json doc_;
};

}  // namespace dynastar::bench
