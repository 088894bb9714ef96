// mesh_cmfd: repeated full solves of the mesh-tally CMFD application
// (64 x 64 mesh, track_repeat 8, unperturbed), each with a fresh Engine and
// solver; an operation is construction plus solve().
//
// Why: this is the flagship application. Each solve makes about 13k small
// engine calls over two recurring, cache-resident plans (the tally labels and
// the CMFD operator's row labels), so it measures dispatch overhead and plan
// residency at small n, where big-n kernel work is near zero. Every solve
// must converge to the analytic eigenvalue within a relative error of 1e-5.
// The mesh is fixed: the seed changes nothing here.
#include <cmath>
#include <memory>

#include "apps/mesh_tally.hpp"
#include "spans.hpp"
#include "suite.hpp"

namespace mpbench {
namespace {

constexpr double kKeffTolerance = 1e-5;

mp::apps::MeshTallyConfig mesh_config(const RunOptions& opts, mp::Engine& engine) {
  mp::apps::MeshTallyConfig config;
  config.nx = config.ny = opts.smoke ? 16 : 64;
  config.track_repeat = opts.smoke ? 1 : 8;
  config.engine = &engine;
  return config;
}

/// A solver and the engine it dispatches through (declared first, so it
/// outlives the solver).
struct MeshRun {
  std::unique_ptr<mp::Engine> engine;
  std::unique_ptr<mp::apps::MeshTallySolver> solver;
};

struct Solve {
  double construct_s = 0.0;
  double solve_s = 0.0;
  mp::apps::MeshTallyStats stats;
  double keff_rel_err = 0.0;
};

/// Builds a fresh engine and solver into `run` and solves once.
Solve solve_once(const RunOptions& opts, MeshRun& run, EngineTally* tally,
                 SpanRecorder::Lane* lane, std::uint64_t parent) {
  Solve s;
  const Clock::time_point t0 = Clock::now();
  run.solver.reset();
  run.engine = std::make_unique<mp::Engine>();
  run.solver = std::make_unique<mp::apps::MeshTallySolver>(mesh_config(opts, *run.engine));
  const Clock::time_point t1 = Clock::now();
  const EngineWatch watch(*run.engine);
  s.stats = run.solver->solve();
  const Clock::time_point t2 = Clock::now();
  if (tally != nullptr) watch.add_since(*tally);
  record(lane, "apps.construct", t0, t1, parent);
  record(lane, "apps.solve", t1, t2, parent);
  s.construct_s = seconds_between(t0, t1);
  s.solve_s = seconds_between(t1, t2);
  const double analytic = run.solver->analytic_keff();
  s.keff_rel_err = std::abs(s.stats.keff - analytic) / analytic;
  return s;
}

bool converged(const Solve& s) { return s.stats.converged && s.keff_rel_err <= kKeffTolerance; }

Outcome run_mesh(const RunOptions& opts) {
  Outcome out;
  SpanRecorder::Lane* lane = lane_for(opts, "main");
  MeshRun run;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SpanScope span(lane, "bench.setup");
    const Clock::time_point t0 = Clock::now();
    if (!converged(solve_once(opts, run, nullptr, nullptr, 0)))
      out.check.fail("mesh_cmfd: warm-up solve did not reach the analytic k-eff");
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<double> outers;
  std::vector<double> inners;
  double worst_err = 0.0;
  double busy_s = 0.0;
  const Clock::time_point end = after_seconds(Clock::now(), opts.seconds);
  while (out.attempted == 0 || Clock::now() < end) {
    SpanScope iteration(lane, "bench.iteration");
    ++out.attempted;
    Solve s;
    try {
      s = solve_once(opts, run, &out.engine, lane, iteration.id());
    } catch (const std::exception& e) {
      ++out.failed;
      out.check.fail(std::string("mesh_cmfd: ") + e.what());
      continue;
    }
    if (!converged(s)) {
      ++out.failed;
      out.check.fail("mesh_cmfd: solve did not reach the analytic k-eff within 1e-5");
    }
    const double op_s = s.construct_s + s.solve_s;
    busy_s += op_s;
    out.op_ms.push_back(1e3 * op_s);
    out.entry_us.push_back(1e6 * s.solve_s);
    outers.push_back(static_cast<double>(s.stats.outers));
    inners.push_back(static_cast<double>(s.stats.inners));
    worst_err = std::max(worst_err, s.keff_rel_err);
  }

  // One tally sweep (tally_currents) timed on the last converged solver.
  mp::apps::MeshTallySolver* solver = run.solver.get();
  std::vector<double> currents(solver->surfaces());
  const std::vector<double> flux(solver->flux().begin(), solver->flux().end());
  const double tally_ms = median_ms(50, [&] { solver->tally_currents(flux, currents); });

  const double ops = static_cast<double>(out.op_ms.size());
  out.ops_per_s = ops / busy_s;
  out.entry_calls_per_op = 1.0;
  const double cells = static_cast<double>(solver->cells());
  const double side = std::sqrt(cells);
  const double nnz = 5.0 * cells - 4.0 * side;  // five-point stencil, zero-flux edges
  const double tally_calls = median(outers);
  const double spmv_calls = ops > 0 ? static_cast<double>(out.engine.calls) / ops - tally_calls : 0;
  // Computed bytes per solve: each tally reads segment values and labels,
  // each SpMV multireduce reads products and row labels (8 + 4 bytes each).
  const double bytes = 12.0 * (tally_calls * static_cast<double>(solver->segments()) +
                               spmv_calls * nnz);
  out.bytes_per_s = ops * bytes / busy_s;
  out.layer.set("mesh.outers", median(outers), "count");
  out.layer.set("mesh.inners", median(inners), "count");
  out.layer.set("mesh.keff_rel_err", worst_err, "fraction");
  out.layer.set("mesh.tally_share", tally_calls * tally_ms / median(out.op_ms), "fraction");
  out.details.set("mesh.tally_sweep_ms", tally_ms, "ms");
  out.details.set("mesh.segments", static_cast<double>(solver->segments()), "count");
  out.details.set("mesh.surfaces", static_cast<double>(solver->surfaces()), "count");
  return out;
}

/// One full solve per pinned strategy (the plain single-threaded kSerial
/// solve is the baseline), each checked to converge; and a fresh plan build
/// over the tally labels.
ProbeResult probe_mesh(const RunOptions& opts) {
  ProbeResult probe;
  for (const mp::Strategy s :
       {mp::Strategy::kSerial, mp::Strategy::kChunked, mp::Strategy::kParallel}) {
    probe.layer.set(std::string("engine.ref.") + mp::to_string(s) + "_ms", median_ms(3, [&] {
                      mp::Engine engine;
                      mp::apps::MeshTallyConfig config = mesh_config(opts, engine);
                      config.strategy = s;
                      mp::apps::MeshTallySolver solver(config);
                      const mp::apps::MeshTallyStats stats = solver.solve();
                      const double analytic = solver.analytic_keff();
                      if (!stats.converged ||
                          std::abs(stats.keff - analytic) / analytic > kKeffTolerance)
                        probe.check.fail(std::string("mesh_cmfd: pinned ") + mp::to_string(s) +
                                         " solve did not reach the analytic k-eff");
                    }),
                    "ms");
  }
  mp::Engine engine;
  const mp::apps::MeshTallySolver solver(mesh_config(opts, engine));
  mp::Engine::Options uncached;
  uncached.use_plan_cache = false;
  mp::Engine fresh(uncached);
  probe.layer.set("plan_cache.build_ms",
                  median_ms(3, [&] { fresh.plan(solver.tally_labels(), solver.surfaces()); }),
                  "ms");
  return probe;
}

}  // namespace

std::vector<Workload> mesh_workloads() { return {Workload{"mesh_cmfd", run_mesh, probe_mesh}}; }

}  // namespace mpbench
