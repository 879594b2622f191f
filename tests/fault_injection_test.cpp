// Deterministic fault-injection harness over the flow's stage boundaries
// (DESIGN.md §3f): a util::FaultPlan armed for a stage makes that stage
// corrupt its own input before validation, so these tests prove that
//   * every stage surfaces structured diagnostics instead of crashing,
//   * a faulted build never reaches the artifact cache (the same cache
//     serves clean, bit-identical artifacts immediately afterwards),
//   * every batch driver (Monte Carlo, corner sweep, datasheet, optimizer)
//     degrades gracefully when a run underneath it is refused.
#include <gtest/gtest.h>

#include <cmath>

#include "core/adc.h"
#include "core/artifact_cache.h"
#include "core/eval.h"
#include "core/flow.h"
#include "util/diag.h"

namespace {

using namespace vcoadc;
using core::AdcSpec;
using core::ExecContext;
using core::Flow;
using core::SimulationOptions;

AdcSpec small_spec() {
  AdcSpec spec = AdcSpec::paper_40nm();
  spec.num_slices = 4;
  return spec;
}

SimulationOptions small_sim() {
  SimulationOptions sim;
  sim.n_samples = 1 << 10;
  return sim;
}

core::EvalRequest corner_request(const AdcSpec& spec) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kCornerSweep;
  req.spec = spec;
  req.corners.n_samples = 1 << 10;
  return req;
}

core::EvalRequest datasheet_request(const AdcSpec& spec) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kDatasheet;
  req.spec = spec;
  req.datasheet.n_samples = 1 << 10;
  return req;
}

/// One isolated execution environment per test: its own cache (so no state
/// leaks between tests), its own sink and its own fault plan.
struct Harness {
  core::ArtifactCache cache{64};
  util::DiagSink sink;
  util::FaultPlan plan;
  ExecContext ctx;

  Harness() {
    ctx.cache = &cache;
    ctx.diag = &sink;
    ctx.faults = &plan;
  }
};

// ---------------------------------------------------------------------------
// FaultPlan mechanics

TEST(FaultPlanTest, ArmsConsumesAndCounts) {
  util::FaultPlan plan;
  EXPECT_FALSE(plan.armed("netlist"));
  EXPECT_FALSE(plan.consume("netlist"));
  EXPECT_EQ(plan.injected(), 0u);

  plan.arm("netlist", 2);
  EXPECT_TRUE(plan.armed("netlist"));
  EXPECT_TRUE(plan.consume("netlist"));
  EXPECT_TRUE(plan.consume("netlist"));
  EXPECT_FALSE(plan.consume("netlist"));  // charges spent
  EXPECT_FALSE(plan.armed("netlist"));
  EXPECT_EQ(plan.injected(), 2u);

  plan.arm("sim_run");  // -1 = unlimited
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(plan.consume("sim_run"));
  EXPECT_TRUE(plan.armed("sim_run"));
  EXPECT_EQ(plan.injected(), 7u);

  // Arming one stage never fires another.
  EXPECT_FALSE(plan.consume("route"));
}

// ---------------------------------------------------------------------------
// Every stage boundary: fault -> diagnostics -> clean recovery

TEST(FaultInjection, EveryStageSurfacesDiagnosticsAndRecovers) {
  const AdcSpec spec = small_spec();
  const SimulationOptions sim = small_sim();
  Harness h;
  Flow flow(h.ctx);

  // Warm the cache with a clean end-to-end pass and pin reference values.
  const core::NodeReport ref = flow.report(spec, sim);
  ASSERT_TRUE(ref.complete) << h.sink.render();
  ASSERT_FALSE(h.sink.has_errors()) << h.sink.render();

  // For each stage: one armed charge must make the stage's own entry point
  // fail with diagnostics, and the very next (un-faulted) call over the
  // same cache must succeed — proving the poisoned build was never cached.
  auto check = [&](const char* stage, auto fails, auto succeeds) {
    SCOPED_TRACE(stage);
    h.sink.clear();
    const auto before = h.plan.injected();
    h.plan.arm(stage, 1);
    EXPECT_TRUE(fails());
    EXPECT_EQ(h.plan.injected(), before + 1);
    EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
    h.sink.clear();
    EXPECT_TRUE(succeeds()) << h.sink.render();
    EXPECT_FALSE(h.sink.has_errors()) << h.sink.render();
  };

  check(
      "tech_library", [&] { return flow.tech_library(spec) == nullptr; },
      [&] { return flow.tech_library(spec) != nullptr; });
  check(
      "netlist", [&] { return flow.netlist(spec).design == nullptr; },
      [&] { return flow.netlist(spec).design != nullptr; });
  check(
      "floorplan", [&] { return flow.floorplan(spec) == nullptr; },
      [&] { return flow.floorplan(spec) != nullptr; });
  check(
      "placement", [&] { return flow.placement(spec) == nullptr; },
      [&] { return flow.placement(spec) != nullptr; });
  check(
      "route", [&] { return flow.synthesis(spec) == nullptr; },
      [&] {
        const auto s = flow.synthesis(spec);
        return s != nullptr && s->layout != nullptr;
      });
  check(
      "sim_run", [&] { return flow.sim_run(spec, sim) == nullptr; },
      [&] { return flow.sim_run(spec, sim) != nullptr; });
  check(
      "report", [&] { return !flow.report(spec, sim).complete; },
      [&] { return flow.report(spec, sim).complete; });
  core::EvalRequest migrate;
  migrate.kind = core::EvalKind::kMigrate;
  migrate.spec = spec;
  migrate.migrate_target_node_nm = 22.0;
  auto target_lib = [&] {
    return core::evaluate(migrate, h.ctx).migrated->target_lib;
  };
  check(
      "migrate", [&] { return target_lib() == nullptr; },
      [&] { return target_lib() != nullptr; });
  check(
      "hdl_emit", [&] { return flow.hdl_emit(spec) == nullptr; },
      [&] { return flow.hdl_emit(spec) != nullptr; });
  core::GateSimOptions gopts;
  gopts.sim.n_samples = 64;
  check(
      "gate_sim", [&] { return flow.gate_sim(spec, gopts) == nullptr; },
      [&] { return flow.gate_sim(spec, gopts) != nullptr; });

  // After all ten injections, the warm cache still serves the original
  // artifacts: the final report is bit-identical to the pre-fault one.
  h.sink.clear();
  const core::NodeReport again = flow.report(spec, sim);
  ASSERT_TRUE(again.complete) << h.sink.render();
  EXPECT_EQ(again.run.sndr.sndr_db, ref.run.sndr.sndr_db);
  EXPECT_EQ(again.run.power.total_w(), ref.run.power.total_w());
  EXPECT_EQ(again.area_mm2, ref.area_mm2);
}

TEST(FaultInjection, FaultedBuildsNeverPopulateTheCache) {
  const AdcSpec spec = small_spec();
  Harness h;
  Flow flow(h.ctx);

  // A faulted SimRun fails validation before the lookup: no miss, no entry.
  h.plan.arm("sim_run", 1);
  EXPECT_EQ(flow.sim_run(spec, small_sim()), nullptr);
  EXPECT_EQ(h.cache.stats().misses, 0u);
  EXPECT_EQ(h.cache.stats().entries, 0u);

  // A faulted Netlist builds its corrupted design outside the cache; the
  // netlist key must stay vacant afterwards (a dummy build returning null
  // is how the cache API probes without inserting).
  h.plan.arm("netlist", 1);
  EXPECT_EQ(flow.netlist(spec).design, nullptr);
  bool hit = true;
  const auto probe = h.cache.get_or_build<core::DesignBundle>(
      core::netlist_key(spec),
      []() { return std::shared_ptr<const core::DesignBundle>(); }, {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(probe, nullptr);

  // A faulted HdlEmit corrupts the emitted text outside the cache path:
  // the equivalence check refuses it and the hdl_emit key stays vacant.
  h.plan.arm("hdl_emit", 1);
  EXPECT_EQ(flow.hdl_emit(spec), nullptr);
  hit = true;
  const auto hdl_probe = h.cache.get_or_build<core::HdlEmitResult>(
      core::hdl_emit_key(spec),
      []() { return std::shared_ptr<const core::HdlEmitResult>(); }, {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(hdl_probe, nullptr);

  // A faulted GateSim fails top-module resolution before the lookup.
  core::GateSimOptions gopts;
  gopts.sim.n_samples = 64;
  h.plan.arm("gate_sim", 1);
  EXPECT_EQ(flow.gate_sim(spec, gopts), nullptr);
  core::GateSimOptions canon = gopts;
  canon.sim.record_bits = true;
  hit = true;
  const auto gate_probe = h.cache.get_or_build<core::GateSimResult>(
      core::gate_sim_key(spec, canon),
      []() { return std::shared_ptr<const core::GateSimResult>(); }, {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(gate_probe, nullptr);
}

// ---------------------------------------------------------------------------
// Drivers: per-run faults degrade, they don't crash the batch

TEST(FaultInjection, MonteCarloSurvivesPerRunFaults) {
  Harness h;
  const core::AdcDesign adc(small_spec(), h.ctx);
  ASSERT_TRUE(adc.ok());

  core::EvalRequest mc;
  mc.kind = core::EvalKind::kMonteCarlo;
  mc.spec = small_spec();
  mc.monte_carlo.runs = 4;
  mc.monte_carlo.sim.n_samples = 1 << 10;
  h.plan.arm("sim_run", 2);  // exactly two of the four draws are refused
  const auto res = core::evaluate(mc, h.ctx).monte_carlo;

  ASSERT_EQ(res.sndr_db.size(), 4u);
  int nans = 0;
  for (double s : res.sndr_db) nans += std::isnan(s) ? 1 : 0;
  EXPECT_EQ(nans, 2);
  EXPECT_EQ(h.sink.error_count(), 2u) << h.sink.render();
  EXPECT_EQ(h.plan.injected(), 2u);
}

TEST(FaultInjection, CornerSweepSurvivesPerCornerFaults) {
  Harness h;
  const core::AdcDesign adc(small_spec(), h.ctx);
  ASSERT_TRUE(adc.ok());

  h.plan.arm("sim_run", 1);
  const auto corners = core::evaluate(corner_request(small_spec()), h.ctx)
                           .corners;
  ASSERT_EQ(corners.size(), 6u);
  int nans = 0;
  for (const auto& c : corners) nans += std::isnan(c.sndr_db) ? 1 : 0;
  EXPECT_EQ(nans, 1);
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

// ---------------------------------------------------------------------------
// Drivers: malformed input yields diagnostics + empty results, never a crash

TEST(FaultInjection, MonteCarloRejectsInvalidInput) {
  Harness h;

  // An invalid spec never builds a design; the driver refuses to fan out.
  core::EvalRequest mc;
  mc.kind = core::EvalKind::kMonteCarlo;
  mc.spec = small_spec();
  mc.spec.num_slices = 1;
  const auto res = core::evaluate(mc, h.ctx).monte_carlo;
  EXPECT_TRUE(res.sndr_db.empty());
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();

  // Bad per-run options are rejected once, before the batch.
  h.sink.clear();
  core::EvalRequest badsim;
  badsim.kind = core::EvalKind::kMonteCarlo;
  badsim.spec = small_spec();
  badsim.monte_carlo.sim.n_samples = 1000;  // not a power of two
  const auto res2 = core::evaluate(badsim, h.ctx).monte_carlo;
  EXPECT_TRUE(res2.sndr_db.empty());
  bool names_the_knob = false;
  for (const auto& d : h.sink.all()) {
    if (d.item == "n_samples") names_the_knob = true;
  }
  EXPECT_TRUE(names_the_knob) << h.sink.render();
}

TEST(FaultInjection, CornerSweepRejectsUnbuiltDesign) {
  Harness h;
  AdcSpec bad = small_spec();
  bad.fs_hz = 0;
  const core::AdcDesign adc(bad, h.ctx);
  EXPECT_FALSE(adc.ok());
  h.sink.clear();  // keep only the sweep's own refusal
  const auto corners = core::evaluate(corner_request(bad), h.ctx).corners;
  EXPECT_TRUE(corners.empty());
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

TEST(FaultInjection, DatasheetIncompleteOnInvalidSpec) {
  Harness h;
  AdcSpec bad = small_spec();
  bad.num_slices = 100;  // beyond the 64-slice packing limit
  const core::Datasheet ds =
      core::evaluate(datasheet_request(bad), h.ctx).datasheet;
  EXPECT_FALSE(ds.complete);
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
  // The incomplete datasheet still renders without crashing.
  EXPECT_FALSE(ds.render().empty());
}

TEST(FaultInjection, DatasheetIncompleteWhenSynthesisIsFaulted) {
  Harness h;
  h.plan.arm("route", 1);
  const core::Datasheet ds =
      core::evaluate(datasheet_request(small_spec()), h.ctx).datasheet;
  EXPECT_FALSE(ds.complete);
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

TEST(FaultInjection, OptimizerRejectsMalformedTargetAndGrid) {
  Harness h;
  core::EvalRequest req;
  req.kind = core::EvalKind::kOptimize;
  req.optimize_target.bandwidth_hz = -1.0;
  const auto res = core::evaluate(req, h.ctx).optimize;
  EXPECT_FALSE(res.best.has_value());
  EXPECT_TRUE(res.evaluated.empty());
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();

  h.sink.clear();
  core::EvalRequest empty_grid;
  empty_grid.kind = core::EvalKind::kOptimize;
  empty_grid.optimize.slice_choices.clear();
  const auto res2 = core::evaluate(empty_grid, h.ctx).optimize;
  EXPECT_FALSE(res2.best.has_value());
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

TEST(FaultInjection, OptimizerRecordsFaultedCandidatesAsUnevaluated) {
  Harness h;
  core::EvalRequest req;
  req.kind = core::EvalKind::kOptimize;
  req.optimize_target.min_sndr_db = 20.0;
  req.optimize.n_samples = 1 << 10;
  req.optimize.slice_choices = {4};
  req.optimize.osr_choices = {50, 75};
  h.plan.arm("sim_run", 1);  // the first candidate's run is refused
  const auto res = core::evaluate(req, h.ctx).optimize;
  ASSERT_EQ(res.evaluated.size(), 2u);
  EXPECT_FALSE(res.evaluated.front().valid);
  EXPECT_TRUE(res.evaluated.back().valid);
  EXPECT_TRUE(h.sink.has_errors()) << h.sink.render();
}

// ---------------------------------------------------------------------------
// Diagnostics reach stderr when no sink is attached (never silent)

TEST(FaultInjection, ErrorsFallBackToStderrWithoutASink) {
  core::ArtifactCache cache(16);
  util::FaultPlan plan;
  plan.arm("sim_run", 1);
  ExecContext ctx;
  ctx.cache = &cache;
  ctx.diag = nullptr;  // stderr fallback path
  ctx.faults = &plan;
  // Must not crash; the refusal lands on stderr (visible in test logs).
  EXPECT_EQ(Flow(ctx).sim_run(small_spec(), small_sim()), nullptr);
  EXPECT_EQ(plan.injected(), 1u);
}

}  // namespace
