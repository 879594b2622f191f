// Pinned digests of whole simulation draws: the modulator run and the full
// analysis tail (spectrum, SNDR, shaping slope, idle tones, power, FOM).
//
//   * the stored bytes (run_result_codec) of the scalar simulate() and of
//     each lane of simulate_batch() for the paper's 40 nm and 180 nm specs
//     at 2^12 samples;
//   * the serve protocol's result_fp of one 2^14-sample monte_carlo,
//     corner_sweep and datasheet request through core::evaluate.
//
// A failure means some result bit changed, not just its speed. A change
// that means to move results re-pins these with the printed values and
// says why; a speed-up must leave them alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/adc.h"
#include "core/artifact_cache.h"
#include "core/artifact_serde.h"
#include "core/eval.h"
#include "core/serde.h"

namespace vcoadc::core {
namespace {

std::string digest(const RunResult& r) {
  serde::Writer w;
  run_result_codec().encode(r, w);
  KeyHasher h;
  h.bytes(w.bytes().data(), w.bytes().size());
  return h.digest().hex();
}

std::string result_fp(const EvalRequest& req) {
  const EvalResponse resp = evaluate(req, ExecContext{});
  EXPECT_TRUE(resp.ok) << eval_kind_name(req.kind);
  return eval_result_fingerprint(eval_result_to_json(resp));
}

struct DrawCase {
  const char* name;
  AdcSpec spec;
  const char* scalar;                 // digest of simulate(seed 11)
  std::vector<const char*> batched;   // digests of simulate_batch lanes
};

std::vector<DrawCase> draw_cases() {
  return {
      {"40nm", AdcSpec::paper_40nm(), "f52e0162922bd1979e3e6e6b31f75a89",
       {"f52e0162922bd1979e3e6e6b31f75a89", "04d8ef14b100a0cafe12914553ffc0d8",
        "14301ff49420d1a163801870c2891a53",
        "53b887cbb94cf373c58a64f1153d4241"}},
      {"180nm", AdcSpec::paper_180nm(), "f2d844a8418a227ed68d83ca1e9d7e4c",
       {"f2d844a8418a227ed68d83ca1e9d7e4c", "de5ddc92f5a96bc2d0ec35986ae5318c",
        "512cbc4601c4f20c513665897d0be772",
        "c4e4d90d6b9f905e37118a16026fb2fc"}},
  };
}

TEST(WholeDrawDigest, ScalarAndBatchedRunResultsMatchThePins) {
  for (const DrawCase& c : draw_cases()) {
    const AdcDesign design(c.spec);
    ASSERT_TRUE(design.ok()) << c.name;
    SimulationOptions opts;
    opts.n_samples = 1 << 12;
    opts.wire_cap_f = 2e-13;
    opts.seed = 11;
    EXPECT_EQ(digest(design.simulate(opts)), c.scalar) << c.name << " scalar";

    // Four lanes, seeds 11..14: lane 0 is the scalar draw above.
    msim::BatchedWorkspace ws;
    const std::vector<RunResult> lanes =
        design.simulate_batch(opts, {11, 12, 13, 14}, ws);
    ASSERT_EQ(lanes.size(), c.batched.size()) << c.name;
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      EXPECT_EQ(digest(lanes[k]), c.batched[k]) << c.name << " lane " << k;
    }
  }
}

TEST(WholeDrawDigest, EvaluateResultFingerprintsMatchThePins) {
  EvalRequest mc;
  mc.kind = EvalKind::kMonteCarlo;
  mc.spec = AdcSpec::paper_40nm();
  mc.monte_carlo.runs = 10;
  mc.monte_carlo.sim.n_samples = 1 << 14;
  EXPECT_EQ(result_fp(mc), "9874682829b1effdc8a833cc76d52293")
      << "monte_carlo";

  EvalRequest corners;
  corners.kind = EvalKind::kCornerSweep;
  corners.spec = AdcSpec::paper_180nm();
  corners.corners.n_samples = 1 << 14;
  EXPECT_EQ(result_fp(corners), "4f9500f9974deac41ef9e393180526fd")
      << "corner_sweep";

  EvalRequest ds;
  ds.kind = EvalKind::kDatasheet;
  ds.spec = AdcSpec::paper_40nm();
  ds.datasheet.n_samples = 1 << 14;
  ds.datasheet.mc_runs = 3;
  ds.datasheet.amp_sweep_points = 3;
  EXPECT_EQ(result_fp(ds), "6ce3e2571051eda22c2563b6e3433944")
      << "datasheet";
}

}  // namespace
}  // namespace vcoadc::core
