// Shared vocabulary of the mpbench workloads: timing, latency summaries,
// named metrics, correctness bookkeeping and engine-counter deltas.
//
// A workload is a function that sets itself up several times (set-up time is
// a metric of its own), then repeats one operation through a public entry
// point of the library for a fixed number of seconds, timing every call from
// the benchmark's own code and checking every output against a reference
// computed at set-up. Its probe runs only in the traced run: pinned-strategy
// direct engine calls and a fresh plan build on the same inputs.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace mpbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point after_seconds(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

/// Median plus the highest of p90/p99/p99.9 that has at least ten samples
/// beyond it. With fewer than 100 samples no percentile qualifies and `tail`
/// is the p90 anyway; `beyond` then says how few samples lie past it.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  const char* tail_label = "p90";
  std::size_t beyond = 0;
};
Summary summarize(std::vector<double> samples);
double median(std::vector<double> samples);
/// Nearest-rank q-quantile (0 for no samples).
double percentile(std::vector<double> samples, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) list; set() overwrites an existing name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  double value(const std::string& name) const;
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Correctness bookkeeping: every failed check is counted, the first few
/// messages are kept for the report.
class Checker {
 public:
  void fail(const std::string& what);
  void merge(const Checker& other);
  bool ok() const { return failures_ == 0; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

class SpanRecorder;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Tiny inputs and short windows: every check on, timings meaningless.
  bool smoke = false;
  /// Where file-backed workloads write their inputs; removed afterwards.
  std::string data_dir;
  /// Null in the untraced run. Otherwise every timed public call is also
  /// recorded as a span.
  SpanRecorder* spans = nullptr;
};

/// Engine dispatch and plan-cache counters summed over a measured window,
/// possibly across several engines (mesh_cmfd makes a fresh one per solve).
struct EngineTally {
  std::uint64_t calls = 0;
  std::array<std::uint64_t, mp::kStrategyCount> runs{};
  std::array<std::uint64_t, mp::kStrategyCount> auto_picks{};
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t oversize_bypasses = 0;
  std::uint64_t lock_contended = 0;

  void report(Metrics& out, double ops) const;
};

/// Counter snapshot of one engine; add_since() folds the delta into a tally.
class EngineWatch {
 public:
  explicit EngineWatch(const mp::Engine& engine);
  void add_since(EngineTally& tally) const;

 private:
  const mp::Engine* engine_;
  mp::Engine::CountersSnapshot counters_;
  mp::PlanCache::Stats plan_;
};

/// What one run of a workload measured.
struct Outcome {
  Checker check;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    // failed, refused or wrong operations
  std::vector<double> setup_s;  // one per set-up repetition
  std::vector<double> op_ms;    // one per measured operation
  double ops_per_s = 0.0;
  std::vector<double> entry_us;  // time inside the workload's entry call
  double entry_calls_per_op = 0.0;
  double bytes_per_s = 0.0;  // computed bytes moved per second of measured time
  /// The working set exceeds the LLC, so bytes_per_s must stay under the
  /// measured copy ceiling.
  bool bounded_by_memory = false;
  EngineTally engine;
  Metrics layer;    // workload-specific per-layer metrics
  Metrics details;  // further numbers for the result file only
};

/// What a workload's traced-only probe measured.
struct ProbeResult {
  Checker check;
  Metrics layer;    // engine.ref.*, plan_cache.build_ms and the like
  Metrics details;  // further numbers for the result file only
};

struct Workload {
  std::string name;
  std::function<Outcome(const RunOptions&)> run;
  std::function<ProbeResult(const RunOptions&)> probe;
};

std::vector<Workload> bulk_workloads();
std::vector<Workload> serve_workloads();
std::vector<Workload> stream_workloads();
std::vector<Workload> mesh_workloads();

/// Copy and read-only bandwidth over warmed arrays, all pool lanes.
struct MemCeiling {
  double copy_gbps = 0.0;  // read plus written bytes
  double read_gbps = 0.0;
  std::size_t array_bytes = 0;
};
MemCeiling measure_memory_ceiling(bool smoke);
/// Median of one empty fork/join across every lane of the global pool.
double measure_forkjoin_us();

/// Median milliseconds of `reps` calls of fn after one untimed warm-up call.
double median_ms(int reps, const std::function<void()>& fn);

/// Seeded generator per (seed, stream) pair, so each workload's inputs depend
/// on the seed alone.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace mpbench
