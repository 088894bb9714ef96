#include "suite.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace mpbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

// Nearest rank: the q-quantile is the ceil(q * n)-th smallest of n samples.
std::size_t rank_index(double q, std::size_t n) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::max<std::size_t>(rank, 1) - 1;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t i = rank_index(q, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(i);
  std::nth_element(samples.begin(), nth, samples.end());
  return samples[i];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = median(samples);
  static constexpr std::array<std::pair<double, const char*>, 3> kTails = {
      {{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}}};
  for (const auto& [q, label] : kTails) {
    const std::size_t i = rank_index(q, s.count);
    s.tail = samples[i];
    s.tail_label = label;
    s.beyond = s.count - 1 - i;
    if (s.beyond >= 10) break;
  }
  return s;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& m : items_)
    if (m.name == name) return &m;
  return nullptr;
}

double Metrics::value(const std::string& name) const {
  const Metric* m = find(name);
  return m != nullptr ? m->value : 0.0;
}

void Checker::fail(const std::string& what) {
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Checker::merge(const Checker& other) {
  failures_ += other.failures_;
  for (const std::string& m : other.messages_)
    if (messages_.size() < 8) messages_.push_back(m);
}

void EngineTally::report(Metrics& out, double ops) const {
  out.set("engine.calls_per_op", ops > 0 ? static_cast<double>(calls) / ops : 0.0, "count");
  for (std::size_t s = 0; s < mp::kStrategyCount; ++s) {
    // Metric names use '_' where the wire name has '-' (sort-based).
    std::string name = mp::kStrategyInfo[s].name;
    std::replace(name.begin(), name.end(), '-', '_');
    out.set("engine.runs." + name, static_cast<double>(runs[s]), "count");
    out.set("engine.auto_picks." + name, static_cast<double>(auto_picks[s]), "count");
  }
  out.set("plan_cache.hits", static_cast<double>(hits), "count");
  out.set("plan_cache.misses", static_cast<double>(misses), "count");
  out.set("plan_cache.oversize_bypasses", static_cast<double>(oversize_bypasses), "count");
  out.set("plan_cache.lock_contended", static_cast<double>(lock_contended), "count");
  const std::uint64_t lookups = hits + misses;
  out.set("plan_cache.hit_rate",
          lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
          "fraction");
}

EngineWatch::EngineWatch(const mp::Engine& engine)
    : engine_(&engine), counters_(engine.counters()), plan_(engine.plan_stats()) {}

void EngineWatch::add_since(EngineTally& tally) const {
  const mp::Engine::CountersSnapshot now = engine_->counters();
  const mp::PlanCache::Stats plan = engine_->plan_stats();
  tally.calls += now.calls - counters_.calls;
  for (std::size_t s = 0; s < mp::kStrategyCount; ++s) {
    tally.runs[s] += now.runs[s] - counters_.runs[s];
    tally.auto_picks[s] += now.auto_picks[s] - counters_.auto_picks[s];
  }
  tally.hits += plan.hits - plan_.hits;
  tally.misses += plan.misses - plan_.misses;
  tally.oversize_bypasses += plan.oversize_bypasses - plan_.oversize_bypasses;
  tally.lock_contended += plan.lock_contended - plan_.lock_contended;
}

double median_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  return median(ms);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  mp::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + stream);
  return sm.next();
}

}  // namespace mpbench
