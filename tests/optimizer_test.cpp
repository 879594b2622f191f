#include <gtest/gtest.h>

#include "core/eval.h"

namespace vcoadc::core {
namespace {

OptimizeResult run_optimize(const OptimizeTarget& target,
                            const OptimizeOptions& opts) {
  EvalRequest req;
  req.kind = EvalKind::kOptimize;
  req.optimize_target = target;
  req.optimize = opts;
  return evaluate(req, ExecContext{}).optimize;
}

OptimizeOptions fast_opts() {
  OptimizeOptions o;
  o.slice_choices = {8, 16};
  o.osr_choices = {50, 75};
  o.n_samples = 1 << 12;
  return o;
}

TEST(Optimizer, FindsDesignForModestTarget) {
  OptimizeTarget t;
  t.min_sndr_db = 55.0;
  t.bandwidth_hz = 2e6;
  const auto res = run_optimize(t, fast_opts());
  ASSERT_TRUE(res.best.has_value());
  EXPECT_GT(res.best_sndr_db, 55.0);
  EXPECT_GT(res.best_power_w, 0.0);
  EXPECT_TRUE(res.best->validate().empty());
  EXPECT_DOUBLE_EQ(res.best->bandwidth_hz, 2e6);
}

TEST(Optimizer, PicksMinimumPowerAmongMeeting) {
  OptimizeTarget t;
  t.min_sndr_db = 55.0;
  t.bandwidth_hz = 2e6;
  const auto res = run_optimize(t, fast_opts());
  ASSERT_TRUE(res.best.has_value());
  for (const auto& cr : res.evaluated) {
    if (cr.meets) {
      EXPECT_GE(cr.power_w, res.best_power_w - 1e-12);
    }
  }
}

TEST(Optimizer, ImpossibleTargetReturnsEmpty) {
  OptimizeTarget t;
  t.min_sndr_db = 120.0;  // not reachable with first-order shaping here
  t.bandwidth_hz = 2e6;
  const auto res = run_optimize(t, fast_opts());
  EXPECT_FALSE(res.best.has_value());
  // Every candidate was still evaluated and recorded.
  EXPECT_EQ(res.evaluated.size(), 4u);
}

TEST(Optimizer, TighterTargetCostsMorePower) {
  OptimizeTarget loose;
  loose.min_sndr_db = 50.0;
  loose.bandwidth_hz = 2e6;
  OptimizeTarget tight = loose;
  tight.min_sndr_db = 65.0;
  OptimizeOptions opts;
  opts.slice_choices = {4, 8, 16};
  opts.osr_choices = {32, 75, 150};
  opts.n_samples = 1 << 12;
  const auto r_loose = run_optimize(loose, opts);
  const auto r_tight = run_optimize(tight, opts);
  ASSERT_TRUE(r_loose.best.has_value());
  ASSERT_TRUE(r_tight.best.has_value());
  EXPECT_LE(r_loose.best_power_w, r_tight.best_power_w);
}

TEST(Optimizer, InvalidCandidatesSkippedNotCrashed) {
  OptimizeTarget t;
  t.node_nm = 180;         // slow node: high-OSR/high-slices rings invalid
  t.min_sndr_db = 55.0;
  t.bandwidth_hz = 2e6;
  OptimizeOptions opts;
  opts.slice_choices = {16, 32};
  opts.osr_choices = {75, 300};  // OSR 300 -> 1.2 GHz fs: unrealizable ring
  opts.n_samples = 1 << 12;
  const auto res = run_optimize(t, opts);
  int invalid = 0;
  for (const auto& cr : res.evaluated) invalid += !cr.valid;
  EXPECT_GT(invalid, 0);
}

}  // namespace
}  // namespace vcoadc::core
