// serve_low and serve_high: an open loop of small mixed requests into one
// default serve::Frontend at a fixed rate. The traced run also searches for
// the highest rate the frontend sustains within a 1 ms p99 (serve.max_rps).
//
// Why: admission, the queue, coalescing, the batched tiny-n kernel and the
// governed dispatch do the work here, while the big-n kernels and the plan
// cache sit idle. The traffic mixes multireduce and multiprefix, int32 and
// double, typed and type-erased submit, and 10% of requests carry a timeout
// (those never coalesce), so one layer is used several ways and a gain for
// one use that costs another shows up.
//
// Arrivals are Poisson at a fixed rate, as from independent users; each
// request is timed from when it was due, so a stall also charges the wait it
// imposes on later requests. Load comes from two threads: this one generates
// and submits, a collector polls the outstanding futures (one slow request
// cannot delay the timestamps of later ones) and checks every result against
// a reference computed at set-up.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <variant>

#include "common/rng.hpp"
#include "serve/frontend.hpp"
#include "spans.hpp"
#include "suite.hpp"

namespace mpbench {
namespace {

using mp::serve::Frontend;
using mp::serve::FrontendStats;

constexpr double kLowRate = 10000.0;
constexpr double kHighRate = 50000.0;
constexpr double kLatencyLimitMs = 1.0;
constexpr std::size_t kTenants = 4;
// A served request's timeout: long enough that no request in these
// workloads expires, so the 10% that carry one exercise only the
// no-coalescing path.
constexpr auto kTimeout = std::chrono::seconds(1);
// The client keeps at most this many requests unresolved. A request that
// falls due while this many are out waits in the generator, and the wait
// counts in its latency. It is half the default frontend's queue depth and
// tenant caps (1024 and 4 x 256), so a host stall of tens of milliseconds
// delays requests instead of getting them shed.
constexpr std::uint64_t kMaxOutstanding = 512;

struct Payload {
  mp::serve::TenantId tenant = 0;
  mp::RequestDesc desc;
  bool erased = false;
  bool with_timeout = false;
  std::size_t m = 0;
  std::vector<std::int32_t> vi;
  std::vector<double> vd;
  std::vector<mp::label_t> labels;
  std::vector<std::byte> ref_prefix;  // empty for multireduce
  std::vector<std::byte> ref_reduction;

  std::size_t n() const { return labels.size(); }
  const void* values() const {
    return desc.dtype == mp::DType::kInt32 ? static_cast<const void*>(vi.data())
                                           : static_cast<const void*>(vd.data());
  }
  std::size_t bytes() const {
    const std::size_t elem = mp::dtype_size(desc.dtype);
    return n() * (elem + sizeof(mp::label_t)) + ref_prefix.size() + ref_reduction.size();
  }
};

std::vector<Payload> make_pool(const RunOptions& opts) {
  mp::Xoshiro256 rng(mix_seed(opts.seed, 0x7365727665));
  std::vector<Payload> pool(opts.smoke ? 256 : 4096);
  mp::Engine reference;
  for (Payload& p : pool) {
    p.tenant = static_cast<mp::serve::TenantId>(rng.below(kTenants));
    p.desc.op = mp::OpKind::kPlus;
    p.desc.kind = rng.below(2) == 0 ? mp::RequestOp::kMultireduce : mp::RequestOp::kMultiprefix;
    p.desc.dtype = rng.below(2) == 0 ? mp::DType::kInt32 : mp::DType::kFloat64;
    p.erased = rng.below(2) == 0;
    p.with_timeout = rng.below(10) == 0;
    // Mostly under the 1024-element tiny-batch gate, a fifth up to 8192.
    const std::size_t n = rng.below(5) < 4 ? 16 + rng.below(1024 - 16)
                                           : 1024 + rng.below(8192 - 1024 + 1);
    p.m = 1 + rng.below(64);
    p.labels.resize(n);
    // Integer values (doubles included) keep every partial sum exact, so any
    // association the frontend picks must reproduce the serial bytes.
    std::vector<std::int32_t> ints(n);
    for (std::size_t i = 0; i < n; ++i) {
      ints[i] = static_cast<std::int32_t>(rng.below(2001)) - 1000;
      p.labels[i] = static_cast<mp::label_t>(rng.below(p.m));
    }
    if (p.desc.dtype == mp::DType::kInt32)
      p.vi = std::move(ints);
    else
      p.vd.assign(ints.begin(), ints.end());
    const std::size_t elem = mp::dtype_size(p.desc.dtype);
    p.ref_reduction.resize(p.m * elem);
    if (p.desc.kind == mp::RequestOp::kMultiprefix) p.ref_prefix.resize(n * elem);
    reference.run(p.desc, p.values(), p.labels.data(),
                  p.ref_prefix.empty() ? nullptr : p.ref_prefix.data(), p.ref_reduction.data(),
                  n, p.m, mp::Strategy::kSerial);
  }
  return pool;
}

template <class T>
bool same_bytes(const std::vector<T>& got, const std::vector<std::byte>& want) {
  // memcmp may not be handed the null data() of an empty vector.
  return got.size() * sizeof(T) == want.size() &&
         (want.empty() || std::memcmp(got.data(), want.data(), want.size()) == 0);
}

using Future = std::variant<std::future<std::vector<std::int32_t>>,
                            std::future<std::vector<double>>,
                            std::future<mp::MultiprefixResult<std::int32_t>>,
                            std::future<mp::MultiprefixResult<double>>,
                            std::future<mp::serve::ErasedResult>>;

/// A typed submit takes its payload by value; the copies are made before the
/// timed call, as a caller building a fresh request would.
template <class T>
Future submit_typed(Frontend& fe, const Payload& p, const std::vector<T>& values,
                    const mp::serve::SubmitOptions& so, Clock::time_point& t0) {
  std::vector<T> v(values);
  std::vector<mp::label_t> l(p.labels);
  t0 = Clock::now();
  if (p.desc.kind == mp::RequestOp::kMultireduce)
    return fe.submit_multireduce<T>(std::move(v), std::move(l), p.m, mp::Plus{}, so);
  return fe.submit_multiprefix<T>(std::move(v), std::move(l), p.m, mp::Plus{}, so);
}

Future submit(Frontend& fe, const Payload& p, Clock::time_point& t0) {
  mp::serve::SubmitOptions so;
  so.tenant = p.tenant;
  if (p.with_timeout) so.timeout = kTimeout;
  if (p.erased) {
    t0 = Clock::now();
    return fe.submit(p.desc, p.values(), p.labels.data(), p.n(), p.m, so);
  }
  if (p.desc.dtype == mp::DType::kInt32) return submit_typed(fe, p, p.vi, so, t0);
  return submit_typed(fe, p, p.vd, so, t0);
}

enum class Resolution { kOk, kWrong, kShed, kExpired, kError };

Resolution resolve(Future& future, const Payload& p, std::string& error) {
  try {
    return std::visit(
        [&](auto& f) {
          auto r = f.get();
          using R = decltype(r);
          bool ok = false;
          if constexpr (std::is_same_v<R, mp::serve::ErasedResult>) {
            ok = same_bytes(r.prefix, p.ref_prefix) && same_bytes(r.reduction, p.ref_reduction);
          } else if constexpr (requires { r.prefix; }) {
            ok = same_bytes(r.prefix, p.ref_prefix) && same_bytes(r.reduction, p.ref_reduction);
          } else {
            ok = same_bytes(r, p.ref_reduction);
          }
          return ok ? Resolution::kOk : Resolution::kWrong;
        },
        future);
  } catch (const mp::MpError& e) {
    error = e.what();
    if (e.code() == mp::ErrorCode::kOverloaded) return Resolution::kShed;
    if (e.code() == mp::ErrorCode::kDeadlineExceeded) return Resolution::kExpired;
    return Resolution::kError;
  } catch (const std::exception& e) {
    // Anything else a future carries is a failed request, not a reason to
    // end the collector thread.
    error = e.what();
    return Resolution::kError;
  }
}

bool ready(Future& future) {
  return std::visit(
      [](auto& f) { return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready; },
      future);
}

/// Latency class of a payload, for the typed/erased and timeout splits.
const char* latency_class(const Payload& p) {
  if (p.with_timeout) return "timeout";
  return p.erased ? "erased" : "typed";
}

struct Window {
  double rate = 0.0;
  double seconds = 0.0;  // from the window's start to the last resolution
  std::vector<double> latency_ms;
  std::vector<double> submit_us;
  std::vector<double> late_ms;
  std::vector<double> poll_us;
  std::map<std::string, std::vector<double>> class_latency_ms;
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t wrong = 0;
  std::uint64_t errors = 0;
  double ok_bytes = 0.0;
  // Unresolved requests at the window's midpoint and end.
  std::uint64_t backlog_mid = 0;
  std::uint64_t backlog_end = 0;

  // The 0.1 s slice of the window each latency sample was due in.
  std::vector<std::uint32_t> slice;

  std::uint64_t failed() const { return shed + expired + wrong + errors; }
  /// Median over the window's 0.1 s slices of each slice's p99. The virtual
  /// machines this runs on stall a vCPU for milliseconds a few times a
  /// second; such a stall decides the p99 of a whole window but only of the
  /// slices it falls in, so the median slice shows the latency the frontend
  /// itself sustains at this rate.
  double slice_p99() const {
    std::map<std::uint32_t, std::vector<double>> by_slice;
    for (std::size_t i = 0; i < latency_ms.size(); ++i)
      by_slice[slice[i]].push_back(latency_ms[i]);
    std::vector<double> p99s;
    for (auto& [s, ms] : by_slice) p99s.push_back(percentile(std::move(ms), 0.99));
    return median(p99s);
  }
  /// The max-rate acceptance rule: the median slice p99 within the limit,
  /// nothing shed or failed, and no backlog growth over the second half of
  /// the window. The backlog may end higher by at most the requests that
  /// arrive within the latency limit, which absorbs its instantaneous jitter.
  /// A backlog that reaches kMaxOutstanding shows as latency instead.
  bool meets_limit() const {
    const double margin = rate * kLatencyLimitMs / 1e3;
    return failed() == 0 && !latency_ms.empty() &&
           slice_p99() <= kLatencyLimitMs &&
           static_cast<double>(backlog_end) <= static_cast<double>(backlog_mid) + margin;
  }
};

struct Pending {
  Future future;
  std::uint32_t payload = 0;
  Clock::time_point due;
  std::uint64_t request = 0;
};

/// Runs one open-loop window at `rate` for `seconds` of schedule.
Window open_loop(Frontend& fe, const std::vector<Payload>& pool, double rate, double seconds,
                 mp::Xoshiro256& rng, Checker& check, const RunOptions& opts) {
  Window w;
  w.rate = rate;
  SpanRecorder::Lane* gen_lane = lane_for(opts, "generator");
  SpanRecorder::Lane* col_lane = lane_for(opts, "collector");
  SpanScope window_span(gen_lane, "bench.window");
  const std::uint64_t parent = window_span.id();

  std::mutex inbox_mu;
  std::vector<Pending> inbox;
  std::atomic<bool> generating{true};
  std::atomic<std::uint64_t> resolved{0};
  Checker collector_check;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  Clock::time_point last_done = start;

  std::jthread collector([&] {
    // Sleeps of a few microseconds need a tight timer slack to stay short.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    std::vector<Pending> live;
    std::vector<Pending> arrived;
    Clock::time_point last = Clock::now();
    for (;;) {
      const bool finished = !generating.load(std::memory_order_acquire);
      {
        std::lock_guard<std::mutex> lock(inbox_mu);
        arrived.swap(inbox);
      }
      for (Pending& p : arrived) live.push_back(std::move(p));
      arrived.clear();
      if (finished && live.empty()) break;
      const Clock::time_point pass = Clock::now();
      w.poll_us.push_back(1e6 * seconds_between(last, pass));
      last = pass;
      std::size_t keep = 0;
      bool any = false;
      for (Pending& p : live) {
        if (!ready(p.future)) {
          live[keep++] = std::move(p);
          continue;
        }
        any = true;
        const Clock::time_point done = Clock::now();
        last_done = done;
        const Payload& payload = pool[p.payload];
        std::string error;
        const Resolution r = resolve(p.future, payload, error);
        record(col_lane, "serve.resolve", p.due, done, parent, p.request);
        resolved.fetch_add(1, std::memory_order_relaxed);
        const double ms = 1e3 * seconds_between(p.due, done);
        switch (r) {
          case Resolution::kOk:
            ++w.ok;
            w.ok_bytes += static_cast<double>(payload.bytes());
            w.latency_ms.push_back(ms);
            w.slice.push_back(static_cast<std::uint32_t>(10.0 * seconds_between(start, p.due)));
            w.class_latency_ms[latency_class(payload)].push_back(ms);
            break;
          case Resolution::kWrong:
            ++w.wrong;
            collector_check.fail(opts.workload +
                                 ": served result differs from the kSerial reference");
            break;
          case Resolution::kShed: ++w.shed; break;
          case Resolution::kExpired: ++w.expired; break;
          case Resolution::kError:
            ++w.errors;
            collector_check.fail(opts.workload + ": " + error);
            break;
        }
      }
      live.resize(keep);
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(5));
    }
  });

  // Releases the collector even if generation throws; it joins only after
  // `generating` drops.
  struct StopCollector {
    std::atomic<bool>& generating;
    ~StopCollector() { generating.store(false, std::memory_order_release); }
  } stop{generating};

  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  std::exponential_distribution<double> gap(rate);
  const Clock::time_point mid = after_seconds(start, seconds / 2);
  double t = 0.0;
  bool mid_sampled = false;
  const auto backlog = [&] { return w.submitted - resolved.load(std::memory_order_relaxed); };
  for (;;) {
    t += gap(rng);
    if (t >= seconds) break;
    const Clock::time_point due = after_seconds(start, t);
    if (!mid_sampled && due >= mid) {
      w.backlog_mid = backlog();
      mid_sampled = true;
    }
    // Sleep through long gaps, spin the last stretch: a wake-up alone can be
    // tens of microseconds late.
    if (due - Clock::now() > std::chrono::microseconds(200))
      std::this_thread::sleep_until(due - std::chrono::microseconds(100));
    while (Clock::now() < due) {
    }
    while (backlog() >= kMaxOutstanding) std::this_thread::sleep_for(std::chrono::microseconds(20));
    w.late_ms.push_back(1e3 * seconds_between(due, Clock::now()));
    const auto index = static_cast<std::uint32_t>(rng.below(pool.size()));
    Clock::time_point t0;
    Future future = submit(fe, pool[index], t0);
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t request = w.submitted + 1;
    record(gen_lane, "serve.submit", t0, t1, parent, request);
    w.submit_us.push_back(1e6 * seconds_between(t0, t1));
    ++w.submitted;
    std::lock_guard<std::mutex> lock(inbox_mu);
    inbox.push_back(Pending{std::move(future), index, due, request});
  }
  w.backlog_end = backlog();
  generating.store(false, std::memory_order_release);
  collector.join();
  w.seconds = seconds_between(start, last_done);
  check.merge(collector_check);
  return w;
}

struct Served {
  std::vector<Payload> pool;
  std::unique_ptr<Frontend> frontend;
};

/// One set-up: payload pool and references, a fresh default frontend (the
/// previous one is drained first), and a short warm-up window.
void set_up(Served& s, const RunOptions& opts, double warm_rate, Outcome& out,
            mp::Xoshiro256& rng) {
  SpanScope span(lane_for(opts, "generator"), "bench.setup");
  const Clock::time_point t0 = Clock::now();
  s.frontend.reset();
  s.pool = make_pool(opts);
  s.frontend = std::make_unique<Frontend>();
  RunOptions warm = opts;
  warm.spans = nullptr;  // the per-request spans describe measured windows only
  open_loop(*s.frontend, s.pool, warm_rate, opts.smoke ? 0.05 : 0.25, rng, out.check, warm);
  s.frontend->wait_idle();
  out.setup_s.push_back(seconds_between(t0, Clock::now()));
}

double scaled_rate(double rate, const RunOptions& opts) { return opts.smoke ? rate / 25.0 : rate; }

Outcome run_fixed_rate(double rate, const RunOptions& opts) {
  Outcome out;
  mp::Xoshiro256 rng(mix_seed(opts.seed, 0x6c6f6164));
  rate = scaled_rate(rate, opts);
  Served s;
  for (int rep = 0; rep < kSetupReps; ++rep) set_up(s, opts, rate, out, rng);
  Frontend& fe = *s.frontend;
  const EngineWatch watch(fe.engine());
  const FrontendStats before = fe.stats();
  const Window w = open_loop(fe, s.pool, rate, opts.seconds, rng, out.check, opts);
  fe.wait_idle();
  watch.add_since(out.engine);
  const FrontendStats after = fe.stats();
  if (after.budget_leaks != 0) out.check.fail(opts.workload + ": frontend reports budget leaks");

  out.attempted = w.submitted;
  out.failed = w.failed();
  out.op_ms = w.latency_ms;
  out.ops_per_s = static_cast<double>(w.ok) / w.seconds;
  out.entry_us = w.submit_us;
  out.entry_calls_per_op = 1.0;
  out.bytes_per_s = w.ok_bytes / w.seconds;
  const auto delta = [&](std::uint64_t FrontendStats::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  out.layer.set("serve.coalesced_share",
                delta(&FrontendStats::coalesced_requests) / delta(&FrontendStats::admitted),
                "fraction");
  out.layer.set("serve.single_dispatches", delta(&FrontendStats::single_dispatches), "count");
  out.layer.set("serve.coalesced_batches", delta(&FrontendStats::coalesced_batches), "count");
  out.layer.set("serve.shed_queue_full", delta(&FrontendStats::shed_queue_full), "count");
  out.layer.set("serve.shed_bytes", delta(&FrontendStats::shed_bytes), "count");
  out.layer.set("serve.shed_tenant", delta(&FrontendStats::shed_tenant), "count");
  out.layer.set("serve.expired_in_queue", delta(&FrontendStats::expired_in_queue), "count");
  out.layer.set("serve.peak_queued", static_cast<double>(after.peak_queued), "count");
  out.layer.set("serve.budget_leaks", static_cast<double>(after.budget_leaks), "count");

  // The open loop is valid only while the generator keeps to its schedule.
  out.details.set("serve.gen_late_ms.p50", median(w.late_ms), "ms");
  out.details.set("serve.gen_late_ms.p99", percentile(w.late_ms, 0.99), "ms");
  out.details.set("serve.gen_late_ms.max", percentile(w.late_ms, 1.0), "ms");
  out.details.set("serve.collector_poll_us.p50", median(w.poll_us), "us");
  out.details.set("serve.latency_ms.p99", percentile(w.latency_ms, 0.99), "ms");
  out.details.set("serve.latency_ms.p999", percentile(w.latency_ms, 0.999), "ms");
  for (const auto& [cls, ms] : w.class_latency_ms)
    out.details.set("serve.latency_ms.p50." + cls, median(ms), "ms");
  return out;
}

/// Highest rate whose window meets the limit, bisected in log space between
/// 25k rps (taken to pass) and 400k rps (taken to fail) with ten probes on a
/// fresh frontend; the result is the geometric middle of the final bracket.
/// It is a per-layer metric, not an end-to-end one: between runs on the
/// virtual machines this was calibrated on it spread by 16%, more than any
/// regression bound could absorb.
double max_rate(const RunOptions& opts, ProbeResult& probe) {
  mp::Xoshiro256 rng(mix_seed(opts.seed, 0x6d6178));
  double lo = scaled_rate(25000.0, opts);
  double hi = scaled_rate(400000.0, opts);
  Served s;
  Outcome warm;
  set_up(s, opts, lo, warm, rng);
  probe.check.merge(warm.check);
  constexpr int kProbes = 10;
  for (int p = 0; p < kProbes; ++p) {
    const double rate = std::sqrt(lo * hi);
    const Window w =
        open_loop(*s.frontend, s.pool, rate, opts.seconds / kProbes, rng, probe.check, opts);
    s.frontend->wait_idle();
    const bool pass = w.meets_limit();
    const std::string key = "serve.max_rps.probe" + std::to_string(p);
    probe.details.set(key + ".rate", rate, "1/s");
    probe.details.set(key + ".slice_p99_ms", w.slice_p99(), "ms");
    probe.details.set(key + ".pass", pass ? 1.0 : 0.0, "count");
    (pass ? lo : hi) = rate;
  }
  return std::sqrt(lo * hi);
}

/// Checks one pinned-strategy output of `p` against its kSerial reference.
void check_against_reference(const Payload& p, const std::vector<std::byte>& prefix,
                             const std::vector<std::byte>& reduction, mp::Strategy s,
                             Checker& check) {
  if (prefix != p.ref_prefix || reduction != p.ref_reduction)
    check.fail(std::string("serve: direct engine run with ") + mp::to_string(s) +
               " differs from kSerial");
}

ProbeResult probe_serve(const RunOptions& opts) {
  ProbeResult probe;
  const std::vector<Payload> pool = make_pool(opts);
  std::vector<std::vector<std::byte>> prefix(pool.size());
  std::vector<std::vector<std::byte>> reduction(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    prefix[i].resize(pool[i].ref_prefix.size());
    reduction[i].resize(pool[i].ref_reduction.size());
  }
  // The same requests run one after another on an engine directly, per
  // pinned strategy: the frontend's overhead is measured against these.
  mp::Engine engine;
  const double requests = static_cast<double>(pool.size());
  for (const mp::Strategy s :
       {mp::Strategy::kSerial, mp::Strategy::kChunked, mp::Strategy::kParallel}) {
    const double ms = median_ms(3, [&] {
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const Payload& p = pool[i];
        engine.run(p.desc, p.values(), p.labels.data(),
                   prefix[i].empty() ? nullptr : prefix[i].data(), reduction[i].data(), p.n(),
                   p.m, s);
      }
    });
    for (std::size_t i = 0; i < pool.size(); ++i)
      check_against_reference(pool[i], prefix[i], reduction[i], s, probe.check);
    probe.layer.set(std::string("engine.ref.") + mp::to_string(s) + "_ms", ms / requests, "ms");
  }
  mp::Engine::Options uncached;
  uncached.use_plan_cache = false;
  mp::Engine fresh(uncached);
  const double build_ms = median_ms(3, [&] {
    for (const Payload& p : pool) fresh.plan(p.labels, p.m);
  });
  probe.layer.set("plan_cache.build_ms", build_ms / requests, "ms");
  probe.layer.set("serve.max_rps", max_rate(opts, probe), "1/s");
  return probe;
}

}  // namespace

std::vector<Workload> serve_workloads() {
  return {
      Workload{"serve_low", [](const RunOptions& o) { return run_fixed_rate(kLowRate, o); },
               probe_serve},
      Workload{"serve_high", [](const RunOptions& o) { return run_fixed_rate(kHighRate, o); },
               probe_serve},
  };
}

}  // namespace mpbench
