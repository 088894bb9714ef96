// bulk_dense and bulk_sparse: resident int32 Plus multiprefix_into at
// n = 2^24 under kAuto, one call per operation on a label vector that recurs
// on every call.
//
// Why: strategy choice, the SIMD kernels, the thread pool and plan-cache
// residency do nearly all the work here, on a 192 MiB working set (values,
// labels, prefix) beyond the LLC. Recurring labels are what kAuto's
// promotion to a plan-based strategy keys on, and the two label densities
// sit in opposite regimes of the paper's load-factor analysis (§4.3, Fig 10):
// dense (m = 2^10, load factor 2^14) caches its plan, sparse (m = 2^20, load
// factor 16) has a plan over the cache's byte budget, rebuilt on every call.
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "spans.hpp"
#include "suite.hpp"

namespace mpbench {
namespace {

struct BulkInputs {
  std::size_t m = 0;
  std::vector<std::int32_t> values;
  std::vector<mp::label_t> labels;
  std::vector<std::int32_t> ref_prefix;
  std::vector<std::int32_t> ref_reduction;
};

std::size_t bulk_n(bool smoke) { return smoke ? std::size_t{1} << 16 : std::size_t{1} << 24; }

// Smoke runs shrink n by 2^8 and m with it, keeping the load factor.
std::size_t bulk_m(std::size_t m_log2, bool smoke) {
  return std::size_t{1} << (smoke ? m_log2 - 8 : m_log2);
}

BulkInputs make_inputs(std::size_t m_log2, const RunOptions& opts) {
  BulkInputs in;
  const std::size_t n = bulk_n(opts.smoke);
  in.m = bulk_m(m_log2, opts.smoke);
  mp::Xoshiro256 rng(mix_seed(opts.seed, 0x62756c6b00 + m_log2));
  in.values.resize(n);
  in.labels.resize(n);
  // Values in [-1000, 1000]: no per-label partial sum can overflow int32.
  for (std::size_t i = 0; i < n; ++i) {
    in.values[i] = static_cast<std::int32_t>(rng.below(2001)) - 1000;
    in.labels[i] = static_cast<mp::label_t>(rng.below(in.m));
  }
  in.ref_prefix.resize(n);
  in.ref_reduction.resize(in.m);
  mp::Engine reference;
  reference.multiprefix_into<std::int32_t>(in.values, in.labels, std::span(in.ref_prefix),
                                           std::span(in.ref_reduction), mp::Plus{},
                                           mp::Strategy::kSerial);
  return in;
}

bool matches(const BulkInputs& in, const std::vector<std::int32_t>& prefix,
             const std::vector<std::int32_t>& reduction) {
  return std::memcmp(prefix.data(), in.ref_prefix.data(), prefix.size() * 4) == 0 &&
         std::memcmp(reduction.data(), in.ref_reduction.data(), reduction.size() * 4) == 0;
}

Outcome run_bulk(std::size_t m_log2, const RunOptions& opts) {
  Outcome out;
  SpanRecorder::Lane* lane = lane_for(opts, "main");
  std::unique_ptr<mp::Engine> engine;
  BulkInputs in;
  std::vector<std::int32_t> prefix;
  std::vector<std::int32_t> reduction;
  const auto call = [&] {
    engine->multiprefix_into<std::int32_t>(in.values, in.labels, std::span(prefix),
                                           std::span(reduction));
  };

  // Set-up: inputs, the kSerial reference, a fresh engine, and the two calls
  // after which kAuto's choice is settled (the first only sights the labels,
  // the second is promoted and builds the plan).
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SpanScope span(lane, "bench.setup");
    const Clock::time_point t0 = Clock::now();
    engine.reset();
    in = make_inputs(m_log2, opts);
    engine = std::make_unique<mp::Engine>();
    prefix.assign(in.values.size(), 0);
    reduction.assign(in.m, 0);
    for (int warm = 0; warm < 2; ++warm) {
      call();
      if (!matches(in, prefix, reduction))
        out.check.fail(opts.workload + ": warm-up call differs from kSerial");
    }
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const EngineWatch watch(*engine);
  double busy_s = 0.0;
  const Clock::time_point end = after_seconds(Clock::now(), opts.seconds);
  while (out.attempted == 0 || Clock::now() < end) {
    SpanScope iteration(lane, "bench.iteration");
    ++out.attempted;
    const Clock::time_point t0 = Clock::now();
    try {
      call();
    } catch (const std::exception& e) {
      ++out.failed;
      out.check.fail(opts.workload + ": " + e.what());
      continue;
    }
    const Clock::time_point t1 = Clock::now();
    record(lane, "core.multiprefix_into", t0, t1, iteration.id());
    const double s = seconds_between(t0, t1);
    busy_s += s;
    out.op_ms.push_back(1e3 * s);
    out.entry_us.push_back(1e6 * s);
    SpanScope check(lane, "bench.check", iteration.id());
    if (!matches(in, prefix, reduction)) {
      ++out.failed;
      out.check.fail(opts.workload + ": prefix or reduction differs from the kSerial reference");
    }
  }
  watch.add_since(out.engine);

  const double ops = static_cast<double>(out.op_ms.size());
  const double n = static_cast<double>(in.values.size());
  out.ops_per_s = ops / busy_s;
  out.entry_calls_per_op = 1.0;
  // Computed bytes: values and labels read, prefix written, reduction written.
  out.bytes_per_s = ops * (12.0 * n + 4.0 * static_cast<double>(in.m)) / busy_s;
  out.bounded_by_memory = true;
  out.details.set("bulk.n", n, "count");
  out.details.set("bulk.m", static_cast<double>(in.m), "count");
  return out;
}

ProbeResult probe_bulk(std::size_t m_log2, const RunOptions& opts) {
  ProbeResult probe;
  const BulkInputs in = make_inputs(m_log2, opts);
  std::vector<std::int32_t> prefix(in.values.size());
  std::vector<std::int32_t> reduction(in.m);
  mp::Engine engine;
  for (const mp::Strategy s :
       {mp::Strategy::kSerial, mp::Strategy::kChunked, mp::Strategy::kParallel}) {
    probe.layer.set(std::string("engine.ref.") + mp::to_string(s) + "_ms", median_ms(3, [&] {
                      engine.multiprefix_into<std::int32_t>(in.values, in.labels,
                                                            std::span(prefix),
                                                            std::span(reduction), mp::Plus{}, s);
                    }),
                    "ms");
    if (!matches(in, prefix, reduction))
      probe.check.fail(opts.workload + ": pinned " + mp::to_string(s) + " differs from kSerial");
  }
  mp::Engine::Options uncached;
  uncached.use_plan_cache = false;
  mp::Engine fresh(uncached);
  probe.layer.set("plan_cache.build_ms", median_ms(3, [&] { fresh.plan(in.labels, in.m); }),
                  "ms");
  return probe;
}

Workload bulk(const char* name, std::size_t m_log2) {
  return Workload{name, [m_log2](const RunOptions& o) { return run_bulk(m_log2, o); },
                  [m_log2](const RunOptions& o) { return probe_bulk(m_log2, o); }};
}

}  // namespace

std::vector<Workload> bulk_workloads() { return {bulk("bulk_dense", 10), bulk("bulk_sparse", 20)}; }

}  // namespace mpbench
