// core::evaluate(): the unified request/response driver entry point. The
// contract under test: diagnostics are request-local (collected into the
// response, not leaked between requests); the JSON bridge parses the serve
// protocol's vocabulary, lands every key in its EvalRequest field and
// refuses integer keys it cannot convert exactly; and results fingerprint
// stably.
#include "core/eval.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "core/artifact_cache.h"
#include "core/datasheet.h"
#include "core/flow.h"
#include "core/monte_carlo.h"
#include "util/json.h"

using namespace vcoadc;
namespace json = util::json;

namespace {

core::AdcSpec small_spec() {
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.num_slices = 6;
  spec.fs_hz = 400e6;
  spec.bandwidth_hz = 2e6;
  return spec;
}

TEST(EvalKindTest, NamesRoundTrip) {
  const core::EvalKind kinds[] = {
      core::EvalKind::kDatasheet,  core::EvalKind::kMonteCarlo,
      core::EvalKind::kCornerSweep, core::EvalKind::kSynthesize,
      core::EvalKind::kMigrate,    core::EvalKind::kOptimize,
      core::EvalKind::kHdlEmit,    core::EvalKind::kGateSim,
  };
  for (core::EvalKind k : kinds) {
    core::EvalKind back{};
    ASSERT_TRUE(core::eval_kind_from_name(core::eval_kind_name(k), &back))
        << core::eval_kind_name(k);
    EXPECT_EQ(back, k);
  }
  core::EvalKind dummy{};
  EXPECT_FALSE(core::eval_kind_from_name("frobnicate", &dummy));
  EXPECT_FALSE(core::eval_kind_from_name("", &dummy));
}

TEST(EvalRequestJsonTest, ParsesSpecAndOptions) {
  const char* text =
      "{\"id\": 42, \"cmd\": \"monte_carlo\","
      " \"spec\": {\"slices\": 6, \"fs\": 4e8, \"bw\": 2e6, \"seed\": 9},"
      " \"options\": {\"runs\": 3, \"n_samples\": 2048}}";
  json::ParseResult pr = json::parse(text);
  ASSERT_TRUE(pr.ok) << pr.error;

  core::EvalRequest req;
  std::string err;
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.kind, core::EvalKind::kMonteCarlo);
  EXPECT_EQ(req.id, "42");
  EXPECT_EQ(req.spec.num_slices, 6);
  EXPECT_EQ(req.spec.fs_hz, 4e8);
  EXPECT_EQ(req.spec.bandwidth_hz, 2e6);
  EXPECT_EQ(req.spec.seed, 9u);
  EXPECT_EQ(req.monte_carlo.runs, 3);
  EXPECT_EQ(req.monte_carlo.sim.n_samples, 2048u);
}

TEST(EvalRequestJsonTest, RejectsMissingOrUnknownCmd) {
  core::EvalRequest req;
  std::string err;
  json::ParseResult pr = json::parse("{\"spec\": {}}");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));
  EXPECT_FALSE(err.empty());

  pr = json::parse("{\"cmd\": \"launch_rocket\"}");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));

  pr = json::parse("[1, 2, 3]");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));
}

TEST(EvalRequestJsonTest, UnknownKeysAreIgnoredForForwardCompat) {
  json::ParseResult pr = json::parse(
      "{\"cmd\": \"synthesize\", \"spec\": {\"slices\": 8},"
      " \"options\": {\"target_utilization\": 0.5},"
      " \"future_field\": {\"nested\": true}}");
  ASSERT_TRUE(pr.ok);
  core::EvalRequest req;
  std::string err;
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.kind, core::EvalKind::kSynthesize);
  EXPECT_EQ(req.spec.num_slices, 8);
  EXPECT_EQ(req.synthesis.target_utilization, 0.5);
}

TEST(EvalRequestJsonTest, ParsesBackendAndGateSimOptions) {
  json::ParseResult pr = json::parse(
      "{\"cmd\": \"gate_sim\", \"backend\": \"gate_level\","
      " \"spec\": {\"slices\": 4},"
      " \"options\": {\"n_samples\": 256, \"ring_period_tol\": 0.5,"
      " \"top\": \"ADC_slice\"}}");
  ASSERT_TRUE(pr.ok) << pr.error;
  core::EvalRequest req;
  std::string err;
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.kind, core::EvalKind::kGateSim);
  EXPECT_EQ(req.backend, core::SimBackend::kGateLevel);
  EXPECT_EQ(req.gate_sim.sim.n_samples, 256u);
  EXPECT_EQ(req.gate_sim.ring_period_tol, 0.5);
  EXPECT_EQ(req.gate_sim.top, "ADC_slice");

  // Default backend is behavioral; a malformed selector is refused.
  pr = json::parse("{\"cmd\": \"hdl_emit\"}");
  ASSERT_TRUE(pr.ok);
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.backend, core::SimBackend::kBehavioral);
  pr = json::parse("{\"cmd\": \"hdl_emit\", \"backend\": \"spice\"}");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));
  EXPECT_NE(err.find("backend"), std::string::npos);
}

// --- Every key the JSON bridge reads lands in its EvalRequest field -------

using Req = core::EvalRequest;

/// One key of the serve vocabulary: a request setting it to a non-default
/// value, and a check that the value reached the matching field.
struct KeyCase {
  const char* name;
  const char* request;
  bool (*lands)(const Req&);
};

const KeyCase kKeyCases[] = {
    {"id", R"({"cmd":"hdl_emit","id":"abc"})",
     [](const Req& r) { return r.id == "abc"; }},
    {"backend", R"({"cmd":"hdl_emit","backend":"gate_level"})",
     [](const Req& r) { return r.backend == core::SimBackend::kGateLevel; }},
    // Spec keys (read for every kind).
    {"spec_node", R"({"cmd":"hdl_emit","spec":{"node":65}})",
     [](const Req& r) { return r.spec.node_nm == 65; }},
    {"spec_slices", R"({"cmd":"hdl_emit","spec":{"slices":12}})",
     [](const Req& r) { return r.spec.num_slices == 12; }},
    {"spec_fs", R"({"cmd":"hdl_emit","spec":{"fs":5e8}})",
     [](const Req& r) { return r.spec.fs_hz == 5e8; }},
    {"spec_bw", R"({"cmd":"hdl_emit","spec":{"bw":3e6}})",
     [](const Req& r) { return r.spec.bandwidth_hz == 3e6; }},
    {"spec_loop_gain", R"({"cmd":"hdl_emit","spec":{"loop_gain":0.5}})",
     [](const Req& r) { return r.spec.loop_gain == 0.5; }},
    {"spec_dac_fragments", R"({"cmd":"hdl_emit","spec":{"dac_fragments":3}})",
     [](const Req& r) { return r.spec.dac_fragments == 3; }},
    {"spec_vco_center_over_fs",
     R"({"cmd":"hdl_emit","spec":{"vco_center_over_fs":3.1}})",
     [](const Req& r) { return r.spec.vco_center_over_fs == 3.1; }},
    {"spec_with_nonidealities",
     R"({"cmd":"hdl_emit","spec":{"with_nonidealities":false}})",
     [](const Req& r) { return !r.spec.with_nonidealities; }},
    {"spec_seed", R"({"cmd":"hdl_emit","spec":{"seed":2199023255552}})",
     [](const Req& r) { return r.spec.seed == (std::uint64_t{1} << 41); }},
    {"spec_pvt_process", R"({"cmd":"hdl_emit","spec":{"pvt":{"process":1.2}}})",
     [](const Req& r) { return r.spec.pvt.process == 1.2; }},
    {"spec_pvt_voltage", R"({"cmd":"hdl_emit","spec":{"pvt":{"voltage":0.9}}})",
     [](const Req& r) { return r.spec.pvt.voltage == 0.9; }},
    {"spec_pvt_temperature_k",
     R"({"cmd":"hdl_emit","spec":{"pvt":{"temperature_k":350}}})",
     [](const Req& r) { return r.spec.pvt.temperature_k == 350; }},
    // datasheet
    {"datasheet_n_samples",
     R"({"cmd":"datasheet","options":{"n_samples":4096}})",
     [](const Req& r) { return r.datasheet.n_samples == 4096; }},
    {"datasheet_mc_runs", R"({"cmd":"datasheet","options":{"mc_runs":3}})",
     [](const Req& r) { return r.datasheet.mc_runs == 3; }},
    {"datasheet_amp_sweep_points",
     R"({"cmd":"datasheet","options":{"amp_sweep_points":4}})",
     [](const Req& r) { return r.datasheet.amp_sweep_points == 4; }},
    {"datasheet_batch_width",
     R"({"cmd":"datasheet","options":{"batch_width":2}})",
     [](const Req& r) { return r.datasheet.batch_width == 2; }},
    // monte_carlo
    {"monte_carlo_runs", R"({"cmd":"monte_carlo","options":{"runs":3}})",
     [](const Req& r) { return r.monte_carlo.runs == 3; }},
    {"monte_carlo_n_samples",
     R"({"cmd":"monte_carlo","options":{"n_samples":2048}})",
     [](const Req& r) { return r.monte_carlo.sim.n_samples == 2048; }},
    {"monte_carlo_fin", R"({"cmd":"monte_carlo","options":{"fin":2e5}})",
     [](const Req& r) { return r.monte_carlo.sim.fin_target_hz == 2e5; }},
    {"monte_carlo_amplitude_dbfs",
     R"({"cmd":"monte_carlo","options":{"amplitude_dbfs":-9}})",
     [](const Req& r) { return r.monte_carlo.sim.amplitude_dbfs == -9; }},
    {"monte_carlo_seed0", R"({"cmd":"monte_carlo","options":{"seed0":77}})",
     [](const Req& r) { return r.monte_carlo.seed0 == 77; }},
    {"monte_carlo_batch_width",
     R"({"cmd":"monte_carlo","options":{"batch_width":4}})",
     [](const Req& r) { return r.monte_carlo.batch_width == 4; }},
    // corner_sweep
    {"corner_sweep_n_samples",
     R"({"cmd":"corner_sweep","options":{"n_samples":2048}})",
     [](const Req& r) { return r.corners.n_samples == 2048; }},
    {"corner_sweep_batch_width",
     R"({"cmd":"corner_sweep","options":{"batch_width":1}})",
     [](const Req& r) { return r.corners.batch_width == 1; }},
    // synthesize
    {"synthesize_target_utilization",
     R"({"cmd":"synthesize","options":{"target_utilization":0.5}})",
     [](const Req& r) { return r.synthesis.target_utilization == 0.5; }},
    {"synthesize_aspect_ratio",
     R"({"cmd":"synthesize","options":{"aspect_ratio":2}})",
     [](const Req& r) { return r.synthesis.aspect_ratio == 2; }},
    {"synthesize_seed", R"({"cmd":"synthesize","options":{"seed":99}})",
     [](const Req& r) { return r.synthesis.seed == 99; }},
    {"synthesize_detailed_route",
     R"({"cmd":"synthesize","options":{"detailed_route":false}})",
     [](const Req& r) { return !r.synthesis.detailed_route; }},
    // migrate
    {"migrate_target_node", R"({"cmd":"migrate","options":{"target_node":90}})",
     [](const Req& r) { return r.migrate_target_node_nm == 90; }},
    // optimize
    {"optimize_node", R"({"cmd":"optimize","options":{"node":65}})",
     [](const Req& r) { return r.optimize_target.node_nm == 65; }},
    {"optimize_min_sndr_db",
     R"({"cmd":"optimize","options":{"min_sndr_db":70}})",
     [](const Req& r) { return r.optimize_target.min_sndr_db == 70; }},
    {"optimize_bandwidth_hz",
     R"({"cmd":"optimize","options":{"bandwidth_hz":1e6}})",
     [](const Req& r) { return r.optimize_target.bandwidth_hz == 1e6; }},
    {"optimize_margin_db", R"({"cmd":"optimize","options":{"margin_db":2}})",
     [](const Req& r) { return r.optimize_target.margin_db == 2; }},
    {"optimize_n_samples", R"({"cmd":"optimize","options":{"n_samples":2048}})",
     [](const Req& r) { return r.optimize.n_samples == 2048; }},
    {"optimize_seed", R"({"cmd":"optimize","options":{"seed":5}})",
     [](const Req& r) { return r.optimize.seed == 5; }},
    // gate_sim options (parsed for every kind)
    {"gate_sim_n_samples", R"({"cmd":"gate_sim","options":{"n_samples":256}})",
     [](const Req& r) { return r.gate_sim.sim.n_samples == 256; }},
    {"gate_sim_ring_period_tol",
     R"({"cmd":"gate_sim","options":{"ring_period_tol":0.5}})",
     [](const Req& r) { return r.gate_sim.ring_period_tol == 0.5; }},
    {"gate_sim_top", R"({"cmd":"gate_sim","options":{"top":"ADC_slice"}})",
     [](const Req& r) { return r.gate_sim.top == "ADC_slice"; }},
};

// Prints the case name: test discovery names each case by its printed
// value, so the name stays stable across runs.
void PrintTo(const KeyCase& c, std::ostream* os) { *os << c.name; }

class EvalRequestJsonKeyTest : public ::testing::TestWithParam<KeyCase> {};

TEST_P(EvalRequestJsonKeyTest, NonDefaultValueLandsInItsField) {
  const KeyCase& c = GetParam();
  ASSERT_FALSE(c.lands(Req{})) << "the case must set a non-default value";
  json::ParseResult pr = json::parse(c.request);
  ASSERT_TRUE(pr.ok) << pr.error;
  Req req;
  std::string err;
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_TRUE(c.lands(req)) << c.request;
}

INSTANTIATE_TEST_SUITE_P(
    EveryKey, EvalRequestJsonKeyTest, ::testing::ValuesIn(kKeyCases));

// --- Integer keys convert exactly or are refused ---------------------------

/// An integer key set to a number no field of its type can hold exactly.
struct BadIntCase {
  const char* name;
  const char* request;
  const char* key;
};

const BadIntCase kBadIntCases[] = {
    {"n_samples_negative",
     R"({"cmd":"monte_carlo","options":{"n_samples":-1}})", "n_samples"},
    {"n_samples_fraction",
     R"({"cmd":"monte_carlo","options":{"n_samples":2.5}})", "n_samples"},
    {"n_samples_huge", R"({"cmd":"monte_carlo","options":{"n_samples":1e30}})",
     "n_samples"},
    {"runs_negative", R"({"cmd":"monte_carlo","options":{"runs":-1}})", "runs"},
    {"runs_fraction", R"({"cmd":"monte_carlo","options":{"runs":2.5}})",
     "runs"},
    {"runs_huge", R"({"cmd":"monte_carlo","options":{"runs":1e30}})", "runs"},
    {"slices_negative", R"({"cmd":"synthesize","spec":{"slices":-1}})",
     "slices"},
    {"slices_fraction", R"({"cmd":"synthesize","spec":{"slices":2.5}})",
     "slices"},
    {"slices_huge", R"({"cmd":"synthesize","spec":{"slices":1e30}})",
     "slices"},
    {"seed_infinite", R"({"cmd":"synthesize","spec":{"seed":1e999}})", "seed"},
};

void PrintTo(const BadIntCase& c, std::ostream* os) { *os << c.name; }

class EvalRequestJsonBadIntTest : public ::testing::TestWithParam<BadIntCase> {
};

TEST_P(EvalRequestJsonBadIntTest, RefusedWithErrorNamingTheKey) {
  const BadIntCase& c = GetParam();
  json::ParseResult pr = json::parse(c.request);
  ASSERT_TRUE(pr.ok) << pr.error;
  Req req;
  std::string err;
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));
  EXPECT_NE(err.find(std::string("\"") + c.key + "\""), std::string::npos)
      << err;
}

INSTANTIATE_TEST_SUITE_P(
    OutOfRange, EvalRequestJsonBadIntTest, ::testing::ValuesIn(kBadIntCases));

TEST(EvalRequestJsonTest, IntegerKeysAcceptEveryValueUpToTheFieldLimit) {
  Req req;
  std::string err;
  // 2^63 fits a uint64 seed exactly; 2^64 does not.
  json::ParseResult pr = json::parse(
      R"({"cmd":"hdl_emit","spec":{"seed":9223372036854775808}})");
  ASSERT_TRUE(pr.ok);
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.spec.seed, std::uint64_t{1} << 63);
  pr = json::parse(
      R"({"cmd":"hdl_emit","spec":{"seed":18446744073709551616}})");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));

  // 2^31 - 1 is the largest int; 2^31 is refused rather than wrapped.
  pr = json::parse(R"({"cmd":"hdl_emit","spec":{"slices":2147483647}})");
  ASSERT_TRUE(pr.ok);
  ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;
  EXPECT_EQ(req.spec.num_slices, 2147483647);
  pr = json::parse(R"({"cmd":"hdl_emit","spec":{"slices":2147483648}})");
  ASSERT_TRUE(pr.ok);
  EXPECT_FALSE(core::eval_request_from_json(pr.value, &req, &err));
}

TEST(EvalTest, HdlEmitAndGateSimKindsRoundTripThroughEvaluate) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = 4;
  core::ExecContext ctx;

  core::EvalRequest hdl;
  hdl.kind = core::EvalKind::kHdlEmit;
  hdl.spec = spec;
  const core::EvalResponse hresp = core::evaluate(hdl, ctx);
  ASSERT_TRUE(hresp.ok);
  ASSERT_NE(hresp.hdl, nullptr);
  const json::Value hj = core::eval_result_to_json(hresp);
  EXPECT_NE(hj.find("top"), nullptr);
  EXPECT_GT(hj.find("verilog_bytes")->number_or(0), 0.0);
  EXPECT_GT(hj.find("instances_compared")->number_or(0), 0.0);

  core::EvalRequest gate;
  gate.kind = core::EvalKind::kGateSim;
  gate.spec = spec;
  gate.gate_sim.sim.n_samples = 64;
  const core::EvalResponse gresp = core::evaluate(gate, ctx);
  ASSERT_TRUE(gresp.ok);
  ASSERT_NE(gresp.gate, nullptr);
  EXPECT_TRUE(gresp.gate->matches_behavioral);
  const json::Value gj = core::eval_result_to_json(gresp);
  EXPECT_TRUE(gj.find("comparator_ok")->bool_or(false));
  EXPECT_TRUE(gj.find("ring_ok")->bool_or(false));
  EXPECT_TRUE(gj.find("matches_behavioral")->bool_or(false));
  EXPECT_EQ(gj.find("n_samples")->number_or(0), 64.0);
}

TEST(EvalTest, GateLevelBackendGatesSpecDrivenKinds) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = 4;
  core::ArtifactCache cache(128);
  core::ExecContext ctx;
  ctx.cache = &cache;

  // A passing sign-off lets the driver run as usual.
  core::EvalRequest req;
  req.kind = core::EvalKind::kSynthesize;
  req.spec = spec;
  req.backend = core::SimBackend::kGateLevel;
  req.gate_sim.sim.n_samples = 64;
  const core::EvalResponse ok_resp = core::evaluate(req, ctx);
  ASSERT_TRUE(ok_resp.ok);
  ASSERT_NE(ok_resp.synthesis, nullptr);

  // A failing sign-off (unresolvable top) refuses the request before the
  // driver, with the refusal in the response diagnostics.
  core::EvalRequest bad = req;
  bad.gate_sim.top = "no_such_module";
  const core::EvalResponse bad_resp = core::evaluate(bad, ctx);
  EXPECT_FALSE(bad_resp.ok);
  EXPECT_EQ(bad_resp.synthesis, nullptr);
  bool named = false;
  for (const auto& d : bad_resp.diagnostics) {
    if (d.item == "no_such_module") named = true;
  }
  EXPECT_TRUE(named);
}

TEST(EvalTest, InvalidSpecFailsWithRequestLocalDiagnostics) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kDatasheet;
  req.spec = small_spec();
  req.spec.num_slices = 1;  // rejected: pseudo-differential ring needs >= 2
  req.datasheet.n_samples = 1 << 12;

  core::ExecContext ctx;  // deliberately no sink: nothing to leak into
  const core::EvalResponse resp = core::evaluate(req, ctx);
  EXPECT_FALSE(resp.ok);
  EXPECT_FALSE(resp.diagnostics.empty());

  bool found_error = false;
  for (const auto& d : resp.diagnostics) {
    if (d.severity == util::Severity::kError) found_error = true;
  }
  EXPECT_TRUE(found_error);
}

// A JSON request can shrink the placement density (or stretch the aspect
// ratio) until the die's routing grid would be terabytes; the floorplan
// stage refuses it before placement, naming the grid size, and the router
// never builds it.
TEST(EvalTest, OversizedRoutingGridIsRefusedAtTheFloorplan) {
  const char* texts[] = {
      "{\"cmd\": \"synthesize\", \"spec\": {\"slices\": 8},"
      " \"options\": {\"target_utilization\": 1e-9}}",
      "{\"cmd\": \"synthesize\", \"spec\": {\"slices\": 8},"
      " \"options\": {\"aspect_ratio\": 1e-12}}",
  };
  for (const char* text : texts) {
    json::ParseResult pr = json::parse(text);
    ASSERT_TRUE(pr.ok) << pr.error;
    core::EvalRequest req;
    std::string err;
    ASSERT_TRUE(core::eval_request_from_json(pr.value, &req, &err)) << err;

    core::ArtifactCache cache(16);
    core::ExecContext ctx;
    ctx.cache = &cache;
    const core::EvalResponse resp = core::evaluate(req, ctx);
    EXPECT_FALSE(resp.ok) << text;
    EXPECT_EQ(resp.synthesis, nullptr);
    bool named = false;
    for (const auto& d : resp.diagnostics) {
      if (d.severity == util::Severity::kError && d.stage == "floorplan" &&
          d.item == "die" &&
          d.reason.find("routing grid of ") != std::string::npos &&
          d.reason.find("exceeds the limit of 4194304") !=
              std::string::npos) {
        named = true;
      }
    }
    EXPECT_TRUE(named) << text;
  }

  // The default density still floorplans: the bound sits far above it.
  core::EvalRequest req;
  req.kind = core::EvalKind::kSynthesize;
  req.spec = small_spec();
  req.synthesis.detailed_route = false;
  core::ExecContext ctx;
  EXPECT_TRUE(core::evaluate(req, ctx).ok);
}

// A floorplan artifact that arrives from the cache or the store skips the
// stage's own check; the post-conditions refuse its die just the same.
TEST(EvalTest, OversizedDieFromTheCacheIsRefusedBeforeRouting) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kSynthesize;
  req.spec = small_spec();
  core::ArtifactCache cache(16);
  core::ExecContext ctx;
  ctx.cache = &cache;
  const auto good = core::Flow(ctx).floorplan(req.spec, req.synthesis);
  ASSERT_NE(good, nullptr);

  auto big = std::make_shared<synth::FloorplanStageResult>(*good);
  big->fp.die.w = 1.0;
  big->fp.die.h = 1.0;
  core::ArtifactCache crafted(16);
  crafted.get_or_build<synth::FloorplanStageResult>(
      core::floorplan_key(req.spec, req.synthesis),
      [&] { return std::shared_ptr<const synth::FloorplanStageResult>(big); });
  ctx.cache = &crafted;
  const core::EvalResponse resp = core::evaluate(req, ctx);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.synthesis, nullptr);
  bool named = false;
  for (const auto& d : resp.diagnostics) {
    if (d.stage == "floorplan" && d.item == "die" &&
        d.reason.find("routing grid of ") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST(EvalTest, DiagnosticsAreReEmittedIntoTheContextSink) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kMigrate;
  req.spec = small_spec();
  req.migrate_target_node_nm = 180;

  util::DiagSink sink;
  core::ExecContext ctx;
  ctx.diag = &sink;
  const core::EvalResponse resp = core::evaluate(req, ctx);
  ASSERT_TRUE(resp.ok);
  ASSERT_NE(resp.migrated, nullptr);
  EXPECT_NE(resp.migrated->target_lib, nullptr);
  // Everything in the response's diagnostics also reached the caller's
  // sink (the response is authoritative; the sink is a convenience).
  EXPECT_EQ(sink.size(), resp.diagnostics.size());
}

TEST(EvalTest, ResultJsonAndFingerprintAreStable) {
  core::EvalRequest req;
  req.kind = core::EvalKind::kCornerSweep;
  req.spec = small_spec();
  req.corners.n_samples = 1 << 11;
  core::ExecContext ctx;

  const core::EvalResponse r1 = core::evaluate(req, ctx);
  const core::EvalResponse r2 = core::evaluate(req, ctx);
  ASSERT_TRUE(r1.ok);
  const json::Value j1 = core::eval_result_to_json(r1);
  const json::Value j2 = core::eval_result_to_json(r2);
  EXPECT_EQ(json::dump(j1), json::dump(j2));
  EXPECT_EQ(core::eval_result_fingerprint(j1),
            core::eval_result_fingerprint(j2));
  EXPECT_EQ(core::eval_result_fingerprint(j1).size(), 32u);  // 128-bit hex

  // A different result must fingerprint differently.
  core::EvalRequest other = req;
  other.spec.num_slices = 8;
  const core::EvalResponse r3 = core::evaluate(other, ctx);
  ASSERT_TRUE(r3.ok);
  EXPECT_NE(core::eval_result_fingerprint(core::eval_result_to_json(r3)),
            core::eval_result_fingerprint(j1));
}

}  // namespace
