// mpbench — one benchmark for the whole library.
//
//   mpbench [--workload=<name>] [--seed=N] [--seconds=S] [--json=<file>]
//           [--trace=<chrome.json>] [--data-dir=<dir>] [--smoke]
//
// Without --workload every workload runs in turn. Untraced, each workload
// reports the end-to-end metrics (setup_s, p50_ms, ops_per_s).
// With --trace the run is split: the first half of the window untraced, the
// second half with a span around every timed public call, then the traced-
// only probes (memory ceilings, fork/join, pinned-strategy references, plan
// builds); it reports the per-layer metrics, including trace.overhead.* (the
// traced minus the untraced value of each end-to-end metric), and writes the
// spans as Chrome trace JSON. --smoke runs every workload traced on tiny
// inputs with every correctness check on.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is nonzero when
// any correctness check failed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "simd/dispatch.hpp"
#include "spans.hpp"
#include "suite.hpp"

namespace mpbench {
namespace {

struct Fingerprint {
  unsigned nproc = 0;
  std::string simd_detected;
  std::string simd_active;
  bool native = MPBENCH_NATIVE != 0;
  long l2_bytes = 0;
  long llc_bytes = 0;
  std::string build_type = MPBENCH_BUILD_TYPE;
  std::uint64_t seed = 0;
};

Fingerprint host_fingerprint(std::uint64_t seed) {
  Fingerprint f;
  f.nproc = std::thread::hardware_concurrency();
  f.simd_detected = mp::simd::to_string(mp::simd::detected_level());
  f.simd_active = mp::simd::to_string(mp::simd::active_level());
  f.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  f.llc_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (f.llc_bytes <= 0) f.llc_bytes = f.l2_bytes;
  f.seed = seed;
  return f;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fingerprint_json(const Fingerprint& f) {
  return "{\"nproc\": " + std::to_string(f.nproc) +
         ", \"simd_detected\": " + json_string(f.simd_detected) +
         ", \"simd_active\": " + json_string(f.simd_active) +
         ", \"native\": " + (f.native ? "true" : "false") +
         ", \"l2_bytes\": " + std::to_string(f.l2_bytes) +
         ", \"llc_bytes\": " + std::to_string(f.llc_bytes) +
         ", \"build_type\": " + json_string(f.build_type) +
         ", \"seed\": " + std::to_string(f.seed) + "}";
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const Metric& x : m.all()) {
    if (out.size() > 1) out += ", ";
    out += json_string(x.name) + ": {\"value\": " + json_number(x.value) +
           ", \"unit\": " + json_string(x.unit) + "}";
  }
  return out + "}";
}

// The tail latency is not among these: multi-millisecond host stalls make it
// too unsteady between runs to carry a regression bound (see README), so it
// is reported with the per-layer metrics as op.tail_ms.
Metrics end_to_end(const Outcome& o) {
  Metrics m;
  m.set("setup_s", median(o.setup_s), "s");
  m.set("p50_ms", median(o.op_ms), "ms");
  m.set("ops_per_s", o.ops_per_s, "1/s");
  return m;
}

/// Workload-specific layer metrics, reported by every workload (0 where the
/// layer is not exercised) so every run prints the same names.
const std::vector<std::pair<const char*, const char*>> kModuleMetrics = {
    {"serve.coalesced_share", "fraction"}, {"serve.single_dispatches", "count"},
    {"serve.coalesced_batches", "count"},  {"serve.shed_queue_full", "count"},
    {"serve.shed_bytes", "count"},         {"serve.shed_tenant", "count"},
    {"serve.expired_in_queue", "count"},   {"serve.peak_queued", "count"},
    {"serve.budget_leaks", "count"},       {"serve.max_rps", "1/s"},
    {"stream.chunks_per_session", "count"},
    {"stream.checkpoint_bytes", "count"},  {"mesh.outers", "count"},
    {"mesh.inners", "count"},              {"mesh.keff_rel_err", "fraction"},
    {"mesh.tally_share", "fraction"},
};

struct Host {
  MemCeiling mem;
  double forkjoin_us = 0.0;
};

Metrics per_layer(const Outcome& untraced, const Outcome& traced, const Metrics& probe,
                  const Host& host, Checker& check, const RunOptions& opts) {
  Metrics m;
  m.set("mem.copy_gbps", host.mem.copy_gbps, "GB/s");
  m.set("mem.read_gbps", host.mem.read_gbps, "GB/s");
  const double fraction = traced.bytes_per_s / (host.mem.copy_gbps * 1e9);
  m.set("mem.bw_fraction", fraction, "fraction");
  // Smoke arrays fit in cache, so their ceiling says nothing about DRAM.
  if (traced.bounded_by_memory && !opts.smoke && fraction > 1.0)
    check.fail(opts.workload + ": computed bandwidth exceeds the measured copy ceiling");
  m.set("pool.forkjoin_us", host.forkjoin_us, "us");

  const double ops = static_cast<double>(traced.op_ms.size());
  m.set("ops", ops, "count");
  m.set("op.tail_ms", summarize(untraced.op_ms).tail, "ms");
  traced.engine.report(m, ops);
  for (const Metric& x : probe.all()) m.set(x.name, x.value, x.unit);
  const double serial_ms = probe.value("engine.ref.serial_ms");
  m.set("engine.overhead_vs_serial",
        serial_ms > 0 ? summarize(untraced.op_ms).p50 / serial_ms : 0.0, "ratio");

  const Summary entry = summarize(traced.entry_us);
  m.set("entry.call_us.p50", entry.p50, "us");
  m.set("entry.call_us.tail", entry.tail, "us");
  m.set("entry.calls_per_op", traced.entry_calls_per_op, "count");
  for (const auto& [name, unit] : kModuleMetrics)
    if (m.find(name) == nullptr) m.set(name, traced.layer.value(name), unit);

  const Metrics plain = end_to_end(untraced);
  const Metrics with_spans = end_to_end(traced);
  for (const Metric& x : with_spans.all())
    m.set("trace.overhead." + x.name, x.value - plain.value(x.name), x.unit);
  return m;
}

void print_metrics(const std::string& workload, const Metrics& m) {
  for (const Metric& x : m.all())
    std::printf("%-14s %-34s %18.6f %s\n", workload.c_str(), x.name.c_str(), x.value,
                x.unit.c_str());
}

struct RunRecord {
  std::string workload;
  bool traced = false;
  Checker check;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Metrics details;
  Summary latency;  // of the reported operations
};

void note_latency(RunRecord& r, const Outcome& o) {
  r.latency = summarize(o.op_ms);
  const Summary& s = r.latency;
  std::printf("%-14s latency: p50 and %s over %zu operations, %zu beyond the tail%s\n",
              r.workload.c_str(), s.tail_label, s.count, s.beyond,
              s.beyond < 10 ? " (fewer than 10: too few operations for a tail)" : "");
}

RunRecord run_workload(const Workload& w, RunOptions opts, const Host* host) {
  RunRecord r;
  r.workload = w.name;
  r.traced = opts.spans != nullptr;
  opts.workload = w.name;
  if (!r.traced) {
    const Outcome o = w.run(opts);
    r.check = o.check;
    r.attempted = o.attempted;
    r.failed = o.failed;
    r.metrics = end_to_end(o);
    r.details = o.details;
    note_latency(r, o);
  } else {
    SpanRecorder* spans = opts.spans;
    opts.seconds /= 2;
    opts.spans = nullptr;
    const Outcome untraced = w.run(opts);
    opts.spans = spans;
    const Outcome traced = w.run(opts);
    opts.spans = nullptr;
    const ProbeResult probe = w.probe(opts);
    r.check = untraced.check;
    r.check.merge(traced.check);
    r.check.merge(probe.check);
    r.attempted = untraced.attempted + traced.attempted;
    r.failed = untraced.failed + traced.failed;
    r.metrics = per_layer(untraced, traced, probe.layer, *host, r.check, opts);
    r.details = traced.details;
    for (const Metric& x : probe.details.all()) r.details.set(x.name, x.value, x.unit);
    for (const auto& [name, s] : spans->self_seconds(w.name + "/"))
      if (name != "bench.setup" && !traced.op_ms.empty())
        r.details.set("self_ms_per_op." + name,
                      1e3 * s / static_cast<double>(traced.op_ms.size()), "ms");
    note_latency(r, traced);
  }
  // A run whose every operation failed divides by zero; it is already a
  // failure, and JSON has no NaN.
  for (const Metric& x : r.metrics.all()) {
    if (std::isfinite(x.value)) continue;
    r.check.fail(w.name + ": metric " + x.name + " is not finite");
    r.metrics.set(x.name, 0.0, x.unit);
  }
  print_metrics(w.name, r.metrics);
  print_metrics(w.name, r.details);
  for (const std::string& msg : r.check.messages()) std::printf("FAILED %s\n", msg.c_str());
  std::fflush(stdout);
  return r;
}

bool write_results(const std::string& path, const Fingerprint& f, double seconds,
                   const std::vector<RunRecord>& runs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"fingerprint\": %s,\n \"runs\": [", fingerprint_json(f).c_str());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    std::string errors = "[";
    for (const std::string& m : r.check.messages())
      errors += (errors.size() > 1 ? ", " : "") + json_string(m);
    errors += "]";
    std::fprintf(out,
                 "%s\n  {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %s, "
                 "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"errors\": %s, "
                 "\"operations\": %zu, \"tail\": %s, \"beyond_tail\": %zu,\n"
                 "   \"metrics\": %s,\n   \"details\": %s}",
                 i == 0 ? "" : ",", json_string(r.workload).c_str(),
                 static_cast<unsigned long long>(f.seed), json_number(seconds).c_str(),
                 r.traced ? "true" : "false", r.check.ok() ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed), errors.c_str(), r.latency.count,
                 json_string(r.latency.tail_label).c_str(), r.latency.beyond,
                 metrics_json(r.metrics).c_str(), metrics_json(r.details).c_str());
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

int run_main(int argc, char** argv) {
  const mp::CliArgs args(argc, argv);
  const bool smoke = args.get("smoke", false);
  RunOptions opts;
  opts.smoke = smoke;
  opts.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  opts.seconds = args.get("seconds", smoke ? 0.4 : 10.0);
  std::filesystem::path exe_dir = std::filesystem::path(argv[0]).parent_path();
  if (exe_dir.empty()) exe_dir = ".";
  opts.data_dir = args.get("data-dir", (exe_dir / "mpbench-data").string());
  std::string trace_path = args.get("trace", std::string());
  if (smoke && trace_path.empty()) trace_path = opts.data_dir + "/smoke-trace.json";
  const std::string json_path = args.get("json", std::string());
  const std::string only = args.get("workload", std::string());
  if (!(opts.seconds > 0.0)) {
    std::fprintf(stderr, "mpbench: --seconds must be positive\n");
    return 2;
  }

  std::vector<Workload> all;
  for (auto* group : {&bulk_workloads, &serve_workloads, &stream_workloads, &mesh_workloads})
    for (Workload& w : (*group)()) all.push_back(std::move(w));
  std::vector<const Workload*> selected;
  for (const Workload& w : all)
    if (only.empty() || only == w.name) selected.push_back(&w);
  if (selected.empty()) {
    std::fprintf(stderr, "mpbench: unknown --workload=%s (known:", only.c_str());
    for (const Workload& w : all) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }

  const Fingerprint fp = host_fingerprint(opts.seed);
  std::printf("# mpbench host %s\n", fingerprint_json(fp).c_str());
  std::filesystem::create_directories(opts.data_dir);

  SpanRecorder spans;
  Host host;
  if (!trace_path.empty()) {
    opts.spans = &spans;
    host.mem = measure_memory_ceiling(smoke);
    host.forkjoin_us = measure_forkjoin_us();
    std::printf("# memory ceiling over %zu MiB arrays (LLC %ld MiB): "
                "copy %.2f GB/s, read %.2f GB/s\n",
                host.mem.array_bytes >> 20, fp.llc_bytes >> 20, host.mem.copy_gbps,
                host.mem.read_gbps);
  }

  std::vector<RunRecord> runs;
  for (const Workload* w : selected) runs.push_back(run_workload(*w, opts, &host));

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  for (const RunRecord& r : runs) {
    correct = correct && r.check.ok();
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& x : r.metrics.all())
      metrics.set(selected.size() == 1 ? x.name : r.workload + "." + x.name, x.value, x.unit);
  }
  if (!trace_path.empty() && !spans.write_chrome(trace_path, 100000)) {
    std::fprintf(stderr, "mpbench: cannot write %s\n", trace_path.c_str());
    correct = false;
  }
  if (!json_path.empty() && !write_results(json_path, fp, opts.seconds, runs)) {
    std::fprintf(stderr, "mpbench: cannot write %s\n", json_path.c_str());
    correct = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mpbench

int main(int argc, char** argv) {
  try {
    return mpbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpbench: %s\n", e.what());
    return 1;
  }
}
