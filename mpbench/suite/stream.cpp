// stream_prefix and stream_reduce: out-of-core StreamSession runs over value
// and label files written at set-up (n = 2^25 int32, m = 64), one whole
// session per operation.
//
// Why: the chunk loop, the per-chunk fork/join, the carry fold and
// checkpointing do the work here. stream_prefix writes every chunk's prefix
// to a caller buffer through the sink and takes a carry snapshot every 256
// chunks (each restored into a second session); stream_reduce only reads.
// The pair separates output traffic from the carry path.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "common/rng.hpp"
#include "spans.hpp"
#include "stream/session.hpp"
#include "suite.hpp"

namespace mpbench {
namespace {

using Session = mp::stream::StreamSession<std::int32_t>;
using mp::stream::StreamKind;

constexpr std::size_t kStreamM = 64;
constexpr std::size_t kSnapshotEvery = 256;

std::size_t stream_n(bool smoke) { return smoke ? std::size_t{1} << 18 : std::size_t{1} << 25; }

struct StreamInputs {
  std::vector<std::int32_t> values;
  std::vector<mp::label_t> labels;
};

StreamInputs make_inputs(const RunOptions& opts) {
  StreamInputs in;
  const std::size_t n = stream_n(opts.smoke);
  mp::Xoshiro256 rng(mix_seed(opts.seed, 0x73747265616d));
  in.values.resize(n);
  in.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    in.values[i] = static_cast<std::int32_t>(rng.below(2001)) - 1000;
    in.labels[i] = static_cast<mp::label_t>(rng.below(kStreamM));
  }
  return in;
}

void write_file(const std::string& path, const void* data, std::size_t bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot create " + path);
  const bool written = std::fwrite(data, 1, bytes, f) == bytes;
  if (std::fclose(f) != 0 || !written) throw std::runtime_error("cannot write " + path);
}

/// Where a workload's input files live; the files are removed when the
/// workload ends, however it ends.
struct FilePaths {
  std::string values;
  std::string labels;

  explicit FilePaths(const RunOptions& opts)
      : values(opts.data_dir + "/" + opts.workload + "-values.bin"),
        labels(opts.data_dir + "/" + opts.workload + "-labels.bin") {}
  FilePaths(const FilePaths&) = delete;
  FilePaths& operator=(const FilePaths&) = delete;
  ~FilePaths() {
    std::error_code ignored;
    std::filesystem::remove(values, ignored);
    std::filesystem::remove(labels, ignored);
  }
};

/// The files' extent plus the resident kSerial reference of their contents.
struct StreamFiles {
  std::size_t n = 0;
  std::vector<std::int32_t> ref_prefix;  // empty for stream_reduce
  std::vector<std::int32_t> ref_reduction;
};

StreamFiles write_inputs(StreamKind kind, const FilePaths& paths, const RunOptions& opts) {
  const StreamInputs in = make_inputs(opts);
  StreamFiles files;
  files.n = in.values.size();
  std::filesystem::create_directories(opts.data_dir);
  write_file(paths.values, in.values.data(), files.n * sizeof(std::int32_t));
  write_file(paths.labels, in.labels.data(), files.n * sizeof(mp::label_t));
  files.ref_reduction.resize(kStreamM);
  mp::Engine reference;
  if (kind == StreamKind::kMultiprefix) {
    files.ref_prefix.resize(files.n);
    reference.multiprefix_into<std::int32_t>(in.values, in.labels, std::span(files.ref_prefix),
                                             std::span(files.ref_reduction), mp::Plus{},
                                             mp::Strategy::kSerial);
  } else {
    reference.multireduce_into<std::int32_t>(in.values, in.labels,
                                             std::span(files.ref_reduction), mp::Plus{},
                                             mp::Strategy::kSerial);
  }
  return files;
}

struct SessionTimes {
  std::vector<double> step_us;
  std::vector<double> snapshot_us;
  std::vector<double> restore_us;
  std::size_t chunks = 0;
  std::size_t checkpoint_bytes = 0;
};

struct SessionResult {
  double seconds = 0.0;  // not counting the final check
  bool ok = false;
};

/// One whole session: open the files, step through every chunk, check the
/// output.
SessionResult run_session(StreamKind kind, const FilePaths& paths, const StreamFiles& files,
                          mp::Engine& engine, std::vector<std::int32_t>& out_prefix,
                          SessionTimes& times, Checker& check, const RunOptions& opts,
                          SpanRecorder::Lane* lane, std::uint64_t parent) {
  const Clock::time_point start = Clock::now();
  mp::stream::FileChunkSource<std::int32_t> source(paths.values, paths.labels, files.n);
  Session::Options so;
  so.engine = &engine;
  so.kind = kind;
  Session session(source, kStreamM, so);
  Session shadow(source, kStreamM, so);
  Session::Sink sink;
  if (kind == StreamKind::kMultiprefix) {
    sink = [&out_prefix](std::size_t, std::size_t offset, std::span<const std::int32_t> prefix) {
      std::memcpy(out_prefix.data() + offset, prefix.data(), prefix.size_bytes());
    };
  }
  while (!session.done()) {
    const Clock::time_point t0 = Clock::now();
    session.step(sink);
    const Clock::time_point t1 = Clock::now();
    record(lane, "stream.step", t0, t1, parent);
    times.step_us.push_back(1e6 * seconds_between(t0, t1));
    if (kind != StreamKind::kMultiprefix || session.chunks_done() % kSnapshotEvery != 0) continue;
    const Clock::time_point s0 = Clock::now();
    const std::vector<std::byte> checkpoint = session.snapshot();
    const Clock::time_point s1 = Clock::now();
    shadow.restore(checkpoint);
    const Clock::time_point s2 = Clock::now();
    record(lane, "stream.snapshot", s0, s1, parent);
    record(lane, "stream.restore", s1, s2, parent);
    times.snapshot_us.push_back(1e6 * seconds_between(s0, s1));
    times.restore_us.push_back(1e6 * seconds_between(s1, s2));
    times.checkpoint_bytes = checkpoint.size();
    if (shadow.chunks_done() != session.chunks_done())
      check.fail(opts.workload + ": restored checkpoint is at the wrong chunk");
  }
  SessionResult result;
  result.seconds = seconds_between(start, Clock::now());
  times.chunks = session.chunks_done();
  const auto reduction = session.reduction();
  result.ok = std::memcmp(reduction.data(), files.ref_reduction.data(), kStreamM * 4) == 0;
  if (kind == StreamKind::kMultiprefix)
    result.ok = result.ok &&
                std::memcmp(out_prefix.data(), files.ref_prefix.data(), files.n * 4) == 0;
  if (!result.ok)
    check.fail(opts.workload + ": streamed output differs from the resident kSerial reference");
  return result;
}

Outcome run_stream(StreamKind kind, const RunOptions& opts) {
  Outcome out;
  SpanRecorder::Lane* lane = lane_for(opts, "main");
  const FilePaths paths(opts);
  StreamFiles files;
  std::unique_ptr<mp::Engine> engine;
  std::vector<std::int32_t> out_prefix;
  SessionTimes warm;

  // Set-up: inputs, both files, the resident reference, a fresh engine and
  // one warm-up session (page cache and workspace filled).
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SpanScope span(lane, "bench.setup");
    const Clock::time_point t0 = Clock::now();
    engine.reset();
    files = write_inputs(kind, paths, opts);
    engine = std::make_unique<mp::Engine>();
    if (kind == StreamKind::kMultiprefix) out_prefix.assign(files.n, 0);
    run_session(kind, paths, files, *engine, out_prefix, warm, out.check, opts, nullptr, 0);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const EngineWatch watch(*engine);
  SessionTimes times;
  double busy_s = 0.0;
  const Clock::time_point end = after_seconds(Clock::now(), opts.seconds);
  while (out.attempted == 0 || Clock::now() < end) {
    SpanScope iteration(lane, "bench.iteration");
    ++out.attempted;
    SessionResult r;
    try {
      r = run_session(kind, paths, files, *engine, out_prefix, times, out.check, opts, lane,
                      iteration.id());
    } catch (const std::exception& e) {
      ++out.failed;
      out.check.fail(opts.workload + ": " + e.what());
      continue;
    }
    if (!r.ok) ++out.failed;
    busy_s += r.seconds;
    out.op_ms.push_back(1e3 * r.seconds);
  }
  watch.add_since(out.engine);

  const double ops = static_cast<double>(out.op_ms.size());
  const double n = static_cast<double>(files.n);
  out.ops_per_s = ops / busy_s;
  out.entry_us = times.step_us;
  out.entry_calls_per_op = static_cast<double>(times.chunks);
  // Computed bytes: values and labels read from the files, plus the prefix
  // written (stream_prefix only).
  const double bytes = n * (kind == StreamKind::kMultiprefix ? 12.0 : 8.0);
  out.bytes_per_s = ops * bytes / busy_s;
  out.bounded_by_memory = true;
  out.layer.set("stream.chunks_per_session", static_cast<double>(times.chunks), "count");
  out.layer.set("stream.checkpoint_bytes", static_cast<double>(times.checkpoint_bytes), "count");
  out.details.set("stream.snapshot_us.p50", median(times.snapshot_us), "us");
  out.details.set("stream.restore_us.p50", median(times.restore_us), "us");
  return out;
}

/// The same data resident, one direct engine call per pinned strategy; each
/// output is checked against the kSerial one, which runs first.
ProbeResult probe_stream(StreamKind kind, const RunOptions& opts) {
  ProbeResult probe;
  const StreamInputs in = make_inputs(opts);
  std::vector<std::int32_t> prefix(kind == StreamKind::kMultiprefix ? in.values.size() : 0);
  std::vector<std::int32_t> reduction(kStreamM);
  std::vector<std::int32_t> serial_prefix;
  std::vector<std::int32_t> serial_reduction;
  mp::Engine engine;
  for (const mp::Strategy s :
       {mp::Strategy::kSerial, mp::Strategy::kChunked, mp::Strategy::kParallel}) {
    probe.layer.set(std::string("engine.ref.") + mp::to_string(s) + "_ms", median_ms(3, [&] {
                      if (kind == StreamKind::kMultiprefix)
                        engine.multiprefix_into<std::int32_t>(in.values, in.labels,
                                                              std::span(prefix),
                                                              std::span(reduction), mp::Plus{}, s);
                      else
                        engine.multireduce_into<std::int32_t>(in.values, in.labels,
                                                              std::span(reduction), mp::Plus{}, s);
                    }),
                    "ms");
    if (s == mp::Strategy::kSerial) {
      serial_prefix = prefix;
      serial_reduction = reduction;
    } else if (prefix != serial_prefix || reduction != serial_reduction) {
      probe.check.fail(opts.workload + ": resident " + mp::to_string(s) + " differs from kSerial");
    }
  }
  // A plan-based per-chunk dispatch would build one plan per chunk.
  const std::size_t chunk = mp::stream::default_chunk_elements(sizeof(std::int32_t));
  mp::Engine::Options uncached;
  uncached.use_plan_cache = false;
  mp::Engine fresh(uncached);
  const std::span<const mp::label_t> first(in.labels.data(), std::min(chunk, in.labels.size()));
  probe.layer.set("plan_cache.build_ms", median_ms(3, [&] { fresh.plan(first, kStreamM); }),
                  "ms");
  return probe;
}

Workload stream(const char* name, StreamKind kind) {
  return Workload{name, [kind](const RunOptions& o) { return run_stream(kind, o); },
                  [kind](const RunOptions& o) { return probe_stream(kind, o); }};
}

}  // namespace

std::vector<Workload> stream_workloads() {
  return {stream("stream_prefix", StreamKind::kMultiprefix),
          stream("stream_reduce", StreamKind::kMultireduce)};
}

}  // namespace mpbench
