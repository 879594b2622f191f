#include <gtest/gtest.h>

#include "core/eval.h"

namespace vcoadc::core {
namespace {

MonteCarloResult run_mc(const AdcSpec& spec, const MonteCarloOptions& opts,
                        const ExecContext& ctx = {}) {
  EvalRequest req;
  req.kind = EvalKind::kMonteCarlo;
  req.spec = spec;
  req.monte_carlo = opts;
  return evaluate(req, ctx).monte_carlo;
}

std::vector<CornerResult> run_corners(const AdcSpec& spec,
                                      std::size_t n_samples) {
  EvalRequest req;
  req.kind = EvalKind::kCornerSweep;
  req.spec = spec;
  req.corners.n_samples = n_samples;
  return evaluate(req, ExecContext{}).corners;
}

TEST(MonteCarlo, DistributionIsTightAroundNominal) {
  // The robustness claim, statistically: across independent mismatch draws
  // the SNDR spread stays small and the worst case stays near the mean.
  AdcSpec spec = AdcSpec::paper_40nm();
  MonteCarloOptions opts;
  opts.runs = 8;
  opts.sim.n_samples = 1 << 13;
  const MonteCarloResult res = run_mc(spec, opts);
  ASSERT_EQ(res.sndr_db.size(), 8u);
  EXPECT_GT(res.mean_db, 60.0);
  EXPECT_LT(res.stddev_db, 3.0);
  EXPECT_GT(res.min_db, res.mean_db - 8.0);
  EXPECT_LE(res.min_db, res.max_db);
}

TEST(MonteCarlo, YieldSemantics) {
  AdcSpec spec = AdcSpec::paper_40nm();
  MonteCarloOptions opts;
  opts.runs = 6;
  opts.sim.n_samples = 1 << 12;
  const MonteCarloResult res = run_mc(spec, opts);
  EXPECT_DOUBLE_EQ(res.yield(-1000.0), 1.0);   // everything passes
  EXPECT_DOUBLE_EQ(res.yield(1000.0), 0.0);    // nothing passes
  const double y = res.yield(res.mean_db);
  EXPECT_GE(y, 0.0);
  EXPECT_LE(y, 1.0);
}

TEST(MonteCarlo, RunsAreIndependentDraws) {
  AdcSpec spec = AdcSpec::paper_40nm();
  MonteCarloOptions opts;
  opts.runs = 4;
  opts.sim.n_samples = 1 << 12;
  const MonteCarloResult res = run_mc(spec, opts);
  // With mismatch enabled, different seeds cannot yield identical SNDRs.
  for (std::size_t i = 1; i < res.sndr_db.size(); ++i) {
    EXPECT_NE(res.sndr_db[i], res.sndr_db[0]);
  }
}

TEST(MonteCarlo, ParallelIsBitIdenticalToSerial) {
  // The engine's determinism contract: run i always simulates with
  // seed0 + i and results are ordered by index, so the thread count can
  // never change a single bit of the output.
  AdcSpec spec = AdcSpec::paper_40nm();
  MonteCarloOptions opts;
  opts.runs = 6;
  opts.sim.n_samples = 1 << 12;
  ExecContext ctx;

  ctx.threads = 1;
  const MonteCarloResult serial = run_mc(spec, opts, ctx);
  ctx.threads = 4;
  const MonteCarloResult parallel = run_mc(spec, opts, ctx);

  ASSERT_EQ(serial.sndr_db.size(), parallel.sndr_db.size());
  for (std::size_t i = 0; i < serial.sndr_db.size(); ++i) {
    EXPECT_EQ(serial.sndr_db[i], parallel.sndr_db[i]) << "run " << i;
  }
  EXPECT_EQ(serial.mean_db, parallel.mean_db);
  EXPECT_EQ(serial.stddev_db, parallel.stddev_db);
}

TEST(MonteCarlo, BatchInstrumentationIsPopulated) {
  AdcSpec spec = AdcSpec::paper_40nm();
  MonteCarloOptions opts;
  opts.runs = 4;
  opts.sim.n_samples = 1 << 12;
  ExecContext ctx;
  ctx.threads = 2;
  const MonteCarloResult res = run_mc(spec, opts, ctx);
  EXPECT_EQ(res.batch.threads, 2);
  EXPECT_GT(res.batch.wall_s, 0.0);
  EXPECT_GT(res.batch.busy_s, 0.0);
  ASSERT_EQ(res.batch.task_wall_s.size(), 4u);
  for (double t : res.batch.task_wall_s) EXPECT_GT(t, 0.0);
  EXPECT_GE(res.batch.utilization, 0.0);
  EXPECT_LE(res.batch.utilization, 1.0 + 1e-9);
  EXPECT_GT(res.batch.effective_parallelism(), 0.0);
}

TEST(MonteCarlo, BatchedEngineIsBitIdenticalToScalarPath) {
  // The batched SoA engine's whole-pipeline contract: grouping draws into
  // SIMD lanes (default width) changes nothing but wall time versus the
  // forced per-draw scalar path — the SNDR vector matches bit for bit.
  AdcSpec spec = AdcSpec::paper_40nm();
  MonteCarloOptions opts;
  opts.runs = 6;
  opts.sim.n_samples = 1 << 12;
  ExecContext ctx;
  ctx.threads = 1;

  opts.batch_width = 1;  // scalar per-draw reference
  const MonteCarloResult scalar = run_mc(spec, opts, ctx);
  opts.batch_width = 0;  // host-preferred lane width
  const MonteCarloResult batched = run_mc(spec, opts, ctx);

  ASSERT_EQ(scalar.sndr_db.size(), batched.sndr_db.size());
  for (std::size_t i = 0; i < scalar.sndr_db.size(); ++i) {
    EXPECT_EQ(scalar.sndr_db[i], batched.sndr_db[i]) << "run " << i;
  }
  EXPECT_EQ(scalar.mean_db, batched.mean_db);
  EXPECT_EQ(scalar.stddev_db, batched.stddev_db);
}

TEST(MonteCarlo, BatchedRemainderPartitionCoversEveryDraw) {
  // runs = 7 at a forced width of 4 partitions into one lane group plus
  // three scalar remainder draws; every draw must land at its own index
  // with its own seed, identical to the all-scalar partition, and the
  // per-draw wall times must stay populated (group time amortized).
  AdcSpec spec = AdcSpec::paper_40nm();
  MonteCarloOptions opts;
  opts.runs = 7;
  opts.sim.n_samples = 1 << 12;
  ExecContext ctx;
  ctx.threads = 1;

  opts.batch_width = 1;
  const MonteCarloResult scalar = run_mc(spec, opts, ctx);
  opts.batch_width = 4;
  const MonteCarloResult batched = run_mc(spec, opts, ctx);

  ASSERT_EQ(scalar.sndr_db.size(), 7u);
  ASSERT_EQ(batched.sndr_db.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(scalar.sndr_db[i], batched.sndr_db[i]) << "run " << i;
  }
  ASSERT_EQ(batched.batch.task_wall_s.size(), 7u);
  for (double t : batched.batch.task_wall_s) EXPECT_GT(t, 0.0);
}

TEST(MonteCarlo, ZeroRunsIsEmptyNotUndefined) {
  AdcSpec spec = AdcSpec::paper_40nm();
  MonteCarloOptions opts;
  opts.runs = 0;
  const MonteCarloResult res = run_mc(spec, opts);
  EXPECT_TRUE(res.sndr_db.empty());
  EXPECT_DOUBLE_EQ(res.yield(60.0), 0.0);
}

TEST(Corners, AllCornersStayFunctional) {
  AdcSpec spec = AdcSpec::paper_40nm();
  const auto corners = run_corners(spec, 1 << 13);
  ASSERT_EQ(corners.size(), 6u);
  double tt_sndr = 0;
  for (const auto& c : corners) {
    EXPECT_GT(c.sndr_db, 55.0) << c.name;
    EXPECT_GT(c.power_w, 0.0);
    if (c.name.find("TT  1.00V  27C") != std::string::npos) {
      tt_sndr = c.sndr_db;
    }
  }
  // No corner collapses more than 10 dB below typical.
  for (const auto& c : corners) {
    EXPECT_GT(c.sndr_db, tt_sndr - 10.0) << c.name;
  }
}

TEST(Corners, VoltageScalesPower) {
  AdcSpec spec = AdcSpec::paper_40nm();
  const auto corners = run_corners(spec, 1 << 12);
  double p_low = 0, p_high = 0;
  for (const auto& c : corners) {
    if (c.name.find("0.90V") != std::string::npos) p_low = c.power_w;
    if (c.name.find("1.10V") != std::string::npos) p_high = c.power_w;
  }
  ASSERT_GT(p_low, 0.0);
  EXPECT_GT(p_high, p_low);  // CV^2f and static terms both rise with VDD
}

TEST(Corners, ProcessShiftsRingRate) {
  AdcSpec fast = AdcSpec::paper_40nm();
  fast.pvt.process = 0.85;
  AdcSpec slow = AdcSpec::paper_40nm();
  slow.pvt.process = 1.20;
  const auto cfg_fast = fast.to_sim_config();
  const auto cfg_slow = slow.to_sim_config();
  EXPECT_GT(cfg_fast.vco_center_hz, cfg_slow.vco_center_hz);
  EXPECT_GT(cfg_fast.kvco_hz_per_v, cfg_slow.kvco_hz_per_v);
}

}  // namespace
}  // namespace vcoadc::core
