#include "core/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/driver_impl.h"
#include "core/flow.h"
#include "msim/batched_modulator.h"

namespace vcoadc::core {

double MonteCarloResult::yield(double spec_db) const {
  if (sndr_db.empty()) return 0.0;
  int pass = 0;
  for (double s : sndr_db) pass += (s >= spec_db);
  return static_cast<double>(pass) / static_cast<double>(sndr_db.size());
}

MonteCarloResult detail::monte_carlo_impl(const ExecContext& ctx,
                                          const AdcDesign& design,
                                          const MonteCarloOptions& opts) {
  MonteCarloResult result;
  if (opts.runs <= 0) return result;

  // Boundary checks before fanning out: a design that never built or
  // rejected simulation options would fail identically in every worker.
  if (!design.ok()) {
    emit_diag(ctx, util::Diagnostic{util::Severity::kError, "monte_carlo",
                                    "", "design was not built (invalid "
                                        "spec); no runs executed"});
    return result;
  }
  {
    const auto diags = validate_sim_options(opts.sim);
    emit_diags(ctx, diags);
    if (has_errors(diags)) return result;
  }
  Flow flow(ctx);

  // Lane-group partition for the batched SoA engine: draws [gW, gW+W) run
  // in SIMD lockstep as one task, the remainder draws run scalar, one task
  // each. batch_width 1 (or an unsupported width) degenerates to the
  // all-scalar partition; fault plans also force it so per-draw fault
  // triggers fire exactly as before.
  int width = opts.batch_width == 0 ? msim::BatchedModulator::preferred_width()
                                    : opts.batch_width;
  if (!msim::BatchedModulator::width_supported(width) ||
      ctx.faults != nullptr) {
    width = 1;
  }
  const std::size_t runs = static_cast<std::size_t>(opts.runs);
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t n_groups = width > 1 ? runs / w : 0;
  const std::size_t grouped = n_groups * w;
  const std::size_t n_tasks = n_groups + (runs - grouped);

  BatchOptions bopts;
  bopts.threads = ctx.threads;
  bopts.seed0 = opts.seed0;
  BatchRunner runner(bopts);
  const std::vector<std::vector<double>> per_task = runner.map(
      n_tasks, [&](std::size_t task, std::uint64_t) -> std::vector<double> {
        // Each draw is a SimRun stage: distinct seed, distinct key, so the
        // first batch populates the cache and a repeat batch is all hits.
        // Group tasks issue their W keys through sim_run_batch (cold
        // entries simulate together in lockstep); remainder tasks are the
        // scalar stage. A refused run (only reachable under fault
        // injection here, since the options were validated above) reports
        // through the context and contributes an explicit NaN rather than
        // crashing the batch.
        if (task < n_groups) {
          std::vector<std::uint64_t> seeds(w);
          for (std::size_t k = 0; k < w; ++k) {
            seeds[k] = opts.seed0 + task * w + k;
          }
          const auto group = flow.sim_run_batch(design, opts.sim, seeds);
          std::vector<double> sndr(w);
          for (std::size_t k = 0; k < w; ++k) {
            sndr[k] = group[k] != nullptr
                          ? group[k]->sndr.sndr_db
                          : std::numeric_limits<double>::quiet_NaN();
          }
          return sndr;
        }
        SimulationOptions sim = opts.sim;
        sim.seed = opts.seed0 + grouped + (task - n_groups);
        const auto r = flow.sim_run(design, sim);
        return {r ? r->sndr.sndr_db
                  : std::numeric_limits<double>::quiet_NaN()};
      });
  result.sndr_db.reserve(runs);
  for (const auto& t : per_task) {
    result.sndr_db.insert(result.sndr_db.end(), t.begin(), t.end());
  }
  result.batch = runner.last_stats();
  // Stats stay per draw (the engine timed per task): a group's wall time
  // is amortized uniformly over its lanes.
  if (result.batch.task_wall_s.size() == n_tasks && n_tasks != runs) {
    std::vector<double> per_draw;
    per_draw.reserve(runs);
    for (std::size_t task = 0; task < n_tasks; ++task) {
      const std::size_t lanes = task < n_groups ? w : 1;
      for (std::size_t k = 0; k < lanes; ++k) {
        per_draw.push_back(result.batch.task_wall_s[task] /
                           static_cast<double>(lanes));
      }
    }
    result.batch.task_wall_s = std::move(per_draw);
  }

  const double n = static_cast<double>(result.sndr_db.size());
  double sum = 0, sum2 = 0;
  result.min_db = result.sndr_db.front();
  result.max_db = result.sndr_db.front();
  for (double s : result.sndr_db) {
    sum += s;
    sum2 += s * s;
    result.min_db = std::min(result.min_db, s);
    result.max_db = std::max(result.max_db, s);
  }
  result.mean_db = sum / n;
  result.stddev_db =
      std::sqrt(std::max(0.0, sum2 / n - result.mean_db * result.mean_db));
  return result;
}

std::vector<CornerResult> detail::corner_sweep_impl(const ExecContext& ctx,
                                                    const AdcDesign& design,
                                                    std::size_t n_samples,
                                                    int batch_width) {
  struct Corner {
    const char* name;
    PvtCorner pvt;
  };
  static constexpr Corner kCorners[] = {
      {"TT  1.00V  27C", {1.00, 1.00, 300.0}},
      {"FF  1.05V  -40C", {0.85, 1.05, 233.0}},
      {"SS  0.95V  125C", {1.20, 0.95, 398.0}},
      {"TT  0.90V  27C", {1.00, 0.90, 300.0}},
      {"TT  1.10V  27C", {1.00, 1.10, 300.0}},
      {"TT  1.00V  125C", {1.00, 1.00, 398.0}},
  };
  if (!design.ok()) {
    emit_diag(ctx, util::Diagnostic{util::Severity::kError, "corner_sweep",
                                    "", "design was not built (invalid "
                                        "spec); no corners evaluated"});
    return {};
  }
  Flow flow(ctx);

  // Width resolution mirrors monte_carlo_impl; fault plans force the
  // scalar partition so per-corner fault triggers fire exactly as before.
  int width = batch_width == 0 ? msim::BatchedModulator::preferred_width()
                               : batch_width;
  if (!msim::BatchedModulator::width_supported(width) ||
      ctx.faults != nullptr) {
    width = 1;
  }
  // Greedy partition of the corner table into lane groups: each chunk is
  // the largest supported width that fits both the chosen width and the
  // remaining corners (6 corners at width >= 4 become a 4-lane group plus
  // a 2-lane group; width 2 gives three pairs; width 1, six scalar
  // stages). Corners differ only in PVT — a run-value change the
  // heterogeneous batched engine takes directly.
  struct Chunk {
    std::size_t start;
    std::size_t len;
  };
  std::vector<Chunk> chunks;
  for (std::size_t at = 0; at < std::size(kCorners);) {
    const std::size_t left = std::size(kCorners) - at;
    std::size_t len = 1;
    for (int w : {8, 4, 2}) {
      const std::size_t sw = static_cast<std::size_t>(w);
      if (w <= width && sw <= left) {
        len = sw;
        break;
      }
    }
    chunks.push_back({at, len});
    at += len;
  }

  BatchOptions bopts;
  bopts.threads = ctx.threads;
  BatchRunner runner(bopts);
  const std::vector<std::vector<CornerResult>> per_chunk = runner.map(
      chunks.size(), [&](std::size_t ci, std::uint64_t) {
        const Chunk& chunk = chunks[ci];
        // Corners keep the spec's own seed (sim.seed = 0 means "no
        // override"): a corner changes the operating point, not the draw.
        std::vector<SimulationOptions> sims(chunk.len);
        for (std::size_t k = 0; k < chunk.len; ++k) {
          sims[k].n_samples = n_samples;
          sims[k].fin_target_hz = design.spec().bandwidth_hz / 5.0;
          sims[k].pvt = kCorners[chunk.start + k].pvt;
        }
        // Per-corner cache keys are the scalar sim_run() keys, so mixing
        // batched and scalar sweeps over one store never double-builds.
        const auto runs = chunk.len > 1
                              ? flow.sim_run_batch(design, sims)
                              : std::vector<std::shared_ptr<const RunResult>>{
                                    flow.sim_run(design, sims.front())};
        std::vector<CornerResult> crs(chunk.len);
        for (std::size_t k = 0; k < chunk.len; ++k) {
          const Corner& c = kCorners[chunk.start + k];
          crs[k].name = c.name;
          crs[k].pvt = c.pvt;
          if (runs[k] != nullptr) {
            crs[k].sndr_db = runs[k]->sndr.sndr_db;
            crs[k].power_w = runs[k]->power.total_w();
          } else {
            // Refused run (fault injection / bad per-corner options): the
            // flow already reported why; mark the corner unusable.
            crs[k].sndr_db = std::numeric_limits<double>::quiet_NaN();
            crs[k].power_w = std::numeric_limits<double>::quiet_NaN();
          }
        }
        return crs;
      });
  std::vector<CornerResult> out;
  out.reserve(std::size(kCorners));
  for (const auto& crs : per_chunk) {
    out.insert(out.end(), crs.begin(), crs.end());
  }
  return out;
}

}  // namespace vcoadc::core
