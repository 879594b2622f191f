#include <gtest/gtest.h>

#include "core/eval.h"

namespace vcoadc::core {
namespace {

Datasheet run_datasheet(const AdcSpec& spec, const DatasheetOptions& opts) {
  EvalRequest req;
  req.kind = EvalKind::kDatasheet;
  req.spec = spec;
  req.datasheet = opts;
  return evaluate(req, ExecContext{}).datasheet;
}

TEST(Datasheet, FullFlowProducesConsistentNumbers) {
  DatasheetOptions opts;
  opts.n_samples = 1 << 13;
  opts.mc_runs = 0;
  const Datasheet ds = run_datasheet(AdcSpec::paper_40nm(), opts);
  EXPECT_GT(ds.nominal.sndr.sndr_db, 60.0);
  EXPECT_GT(ds.area_mm2, 1e-3);
  EXPECT_TRUE(ds.drc.clean());
  EXPECT_TRUE(ds.power_grid.clean());
  EXPECT_EQ(ds.routing.failed_nets, 0);
  EXPECT_GT(ds.timing.slack_s, 0.0);
  EXPECT_TRUE(ds.mc.sndr_db.empty());
  // Wire load reached the power model.
  EXPECT_GT(ds.nominal.power.wire_w, 0.0);
}

TEST(Datasheet, RenderContainsEverySection) {
  DatasheetOptions opts;
  opts.n_samples = 1 << 12;
  opts.mc_runs = 2;
  const Datasheet ds = run_datasheet(AdcSpec::paper_40nm(), opts);
  const std::string text = ds.render();
  for (const char* needle :
       {"dynamic performance", "SNDR", "ENOB", "Walden FOM", "die area",
        "power grid", "critical path", "slack", "SNDR (MC"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Datasheet, MonteCarloSectionOptional) {
  DatasheetOptions opts;
  opts.n_samples = 1 << 12;
  opts.mc_runs = 0;
  const Datasheet ds = run_datasheet(AdcSpec::paper_40nm(), opts);
  EXPECT_EQ(ds.render().find("SNDR (MC"), std::string::npos);
}

}  // namespace
}  // namespace vcoadc::core
