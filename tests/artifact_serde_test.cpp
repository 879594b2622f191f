// Store codecs: the pinned wire format, total decoding (a round trip is a
// fixed point, and every truncated or padded record decodes to null), and
// the structural checks that keep a hostile record from reaching the
// stages that index by it. Records come from disk with nothing but a
// checksum behind them, so a decoder must refuse anything a stage could
// not consume safely.
#include "core/artifact_serde.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact_cache.h"
#include "core/flow.h"
#include "core/serde.h"

using namespace vcoadc;
using netlist::CellLibrary;
using netlist::FlatInstance;
using netlist::PortDir;

namespace {

using Bytes = std::vector<std::uint8_t>;

/// A quiet NaN with a non-zero payload: a payload survives the store only
/// if doubles travel by bit pattern.
double payload_nan() {
  const std::uint64_t bits = 0x7ff800000000beefull;
  double d = 0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

// --- hand-built artifacts from literal values -------------------------------
//
// Between them they carry -0.0s, NaNs with a payload, empty vectors and
// (in the run result) a vector<bool> whose length is not a multiple of 8.

std::shared_ptr<const CellLibrary> tiny_library() {
  auto lib = std::make_shared<CellLibrary>("tiny");
  netlist::StdCell inv;
  inv.name = "INVX1";
  inv.function = "inv";
  inv.drive = 1;
  inv.width_m = 0.6e-6;
  inv.height_m = 1.8e-6;
  inv.pins = {{"A", PortDir::kInput},
              {"Y", PortDir::kOutput},
              {"VDD", PortDir::kInout},
              {"VSS", PortDir::kInout}};
  inv.input_cap_f = 1.5e-15;
  inv.leakage_w = -0.0;
  lib->add(inv);
  netlist::StdCell res;  // no pins
  res.name = "RES1K";
  res.function = "res";
  res.drive = -2;
  res.width_m = payload_nan();
  res.height_m = 1.8e-6;
  res.is_resistor = true;
  res.resistance_ohms = 1e3;
  res.power_pin = "";
  res.ground_pin = "VREFN";
  lib->add(res);
  return lib;
}

std::vector<FlatInstance> tiny_flat(const CellLibrary& lib) {
  const netlist::StdCell* inv = lib.find("INVX1");
  const netlist::StdCell* res = lib.find("RES1K");
  return {
      {"u0", inv, {{"A", "in"}, {"Y", "n1"}}, "PD_VDD", ""},
      {"r0", res, {}, "", "GRP_RES"},
      {"u1", inv, {{"A", "n1"}, {"Y", "out"}}, "PD_VDD", ""},
  };
}

synth::Floorplan tiny_floorplan() {
  synth::Floorplan fp;
  fp.die = {0.0, -0.0, 12e-6, 7.2e-6};
  fp.row_height_m = 1.8e-6;
  fp.site_width_m = 0.1e-6;
  fp.regions = {
      {{"PD_VDD", false, {0, 2}, 2.16e-12, 0.6e-6}, {0, 0, 6e-6, 3.6e-6}},
      {{"GRP_RES", true, {1}, payload_nan(), -0.0}, {6e-6, 0, 6e-6, 3.6e-6}},
      {{"SPARE", false, {}, 0, 0}, {0, 3.6e-6, 12e-6, 3.6e-6}},
  };
  return fp;
}

synth::Placement tiny_placement() {
  synth::Placement pl;
  pl.cells = {
      {0, {0, 0, 0.6e-6, 1.8e-6}, 0, "PD_VDD"},
      {1, {6e-6, -0.0, payload_nan(), 1.8e-6}, 0, "GRP_RES"},
      {2, {0.6e-6, 1.8e-6, 0.6e-6, 1.8e-6}, 1, "PD_VDD"},
  };
  pl.overflow = true;
  return pl;
}

/// Lets a test damage one part of an artifact before it is encoded.
using FlatEdit = std::function<void(std::vector<FlatInstance>&,
                                    synth::Floorplan&, synth::Placement&)>;

std::shared_ptr<const synth::FloorplanStageResult> tiny_floorplan_artifact(
    const FlatEdit& edit = {}) {
  auto lib = tiny_library();
  auto a = std::make_shared<synth::FloorplanStageResult>();
  a->flat = tiny_flat(*lib);
  a->fp = tiny_floorplan();
  a->floorplan_spec = "region PD_VDD power\nregion GRP_RES group\n";
  synth::Placement unused;
  if (edit) edit(a->flat, a->fp, unused);
  a->owner = lib;
  return a;
}

std::shared_ptr<const synth::SynthesisResult> tiny_synthesis(
    const FlatEdit& edit = {}) {
  auto lib = tiny_library();
  std::vector<FlatInstance> flat = tiny_flat(*lib);
  synth::Floorplan fp = tiny_floorplan();
  synth::Placement pl = tiny_placement();
  if (edit) edit(flat, fp, pl);
  auto s = std::make_shared<synth::SynthesisResult>();
  s->floorplan_spec = "region PD_VDD power\n";
  s->layout = std::make_unique<synth::Layout>(std::move(flat), std::move(fp),
                                              std::move(pl));
  s->routing.nets = {{"n1", 2, 0.6e-6, -0.0},
                     {"out", 3, payload_nan(), 2.4e-6}};
  s->routing.total_hpwl_m = 3.0e-6;
  s->routing.total_est_length_m = 3.6e-6;
  s->routing.congestion.nx = 2;
  s->routing.congestion.ny = 1;
  s->routing.congestion.demand = {0.5, -0.0};
  s->routing.congestion.max_demand = 0.5;
  s->routing.congestion.mean_demand = 0.25;
  s->routing.wire_cap_f = 1.2e-16;
  s->detailed_routing.nets = {
      {"n1", 2, {{{0, 0, 0}, {1, 0, 0}, {1, 0, 1}}, {}}, 1.2e-6, 1, true},
      {"out", 3, {}, 0, 0, false},
  };
  s->detailed_routing.total_wirelength_m = 1.2e-6;
  s->detailed_routing.total_vias = 1;
  s->detailed_routing.failed_nets = 1;
  s->detailed_routing.overflowed_edges = 0;
  s->detailed_routing.grid_x = 4;
  s->detailed_routing.grid_y = 2;
  s->drc.violations = {{synth::DrcKind::kPowerRailShort, "u0|r0"},
                       {synth::DrcKind::kOffRowGrid, ""}};
  s->stats = {86.4e-12, -0.0, payload_nan(), 3, 2, 3};
  s->owner = lib;
  return s;
}

std::shared_ptr<const core::DesignBundle> tiny_design_bundle() {
  auto lib = tiny_library();
  auto d = std::make_shared<netlist::Design>(lib.get());
  {
    netlist::Module& chain = d->add_module("chain");
    chain.add_port("A", PortDir::kInput);
    chain.add_port("Y", PortDir::kOutput);
    chain.add_port("VDD", PortDir::kInout);
    chain.add_net("n1");
    chain.add_instance(
        {"u0", "INVX1", {{"A", "A"}, {"Y", "n1"}, {"VDD", "VDD"}}, "PD_VDD",
         ""});
    chain.add_instance({"u1", "INVX1", {{"A", "n1"}, {"Y", "Y"}}, "", "GRP"});
  }
  {
    netlist::Module& top = d->add_module("top");
    top.add_port("IN", PortDir::kInput);
    top.add_port("OUT", PortDir::kOutput);
    top.add_instance({"c0", "chain", {{"A", "IN"}, {"Y", "OUT"}}, "", ""});
  }
  d->add_module("empty");  // no ports, nets or instances
  d->set_top("top");
  auto b = std::make_shared<core::DesignBundle>();
  b->lib = std::move(lib);
  b->design = std::move(d);
  return b;
}

std::shared_ptr<const core::RunResult> tiny_run_result() {
  auto r = std::make_shared<core::RunResult>();
  r->fin_hz = 1.953125e5;
  r->amplitude_v = -0.0;
  r->full_scale_v = 0.4;
  r->mod.output = {0.25, -0.0, payload_nan(), -1.0};
  r->mod.counts = {9, 8, -1, 16};
  r->mod.slice_bits = {
      {true, false, true, true, false, false, true, false, true, true, true},
      {},
      {true}};
  r->mod.mean_vctrlp = 0.45;
  r->mod.mean_vctrln = 0.55;
  r->mod.mean_freq1_hz = 1.1e9;
  r->mod.mean_freq2_hz = payload_nan();
  r->mod.bit_toggle_rate = 0.5;
  r->spectrum.freq_hz = {0, 3.90625e5};
  r->spectrum.dbfs = {-200, -0.0};  // power left empty
  r->spectrum.fs_hz = 750e6;
  r->spectrum.bin_hz = 3.90625e5;
  r->spectrum.enbw_bins = 1.5;
  r->spectrum.window = dsp::WindowKind::kBlackmanHarris;
  r->sndr.fundamental_hz = 1.953125e5;
  r->sndr.fundamental_dbfs = -6.02;
  r->sndr.signal_power = 0.125;
  r->sndr.nad_power = 1e-8;
  r->sndr.noise_power = 9e-9;
  r->sndr.distortion_power = 1e-9;
  r->sndr.sndr_db = 70.97;
  r->sndr.snr_db = 71.4;
  r->sndr.thd_db = -80.9;
  r->sndr.sfdr_db = payload_nan();
  r->sndr.enob = 11.5;
  r->shaping = {19.8, 0.98};
  r->idle_tones = {{1e6, -95.5, 12.25}};
  r->power.vco_w = 1e-4;
  r->power.sampling_w = 2e-4;
  r->power.dac_drive_w = 3e-4;
  r->power.buffer_sw_w = 4e-5;
  r->power.wire_w = 5e-5;
  r->power.leakage_w = 6e-9;
  r->power.dac_static_w = 7e-5;
  r->power.buffer_bias_w = -0.0;
  r->fom_fj = 112.5;
  return r;
}

std::shared_ptr<const core::HdlEmitResult> tiny_hdl_emit() {
  auto a = std::make_shared<core::HdlEmitResult>();
  a->verilog =
      "module m(A, Y, VDD, VSS);\n"
      " input A; output Y; inout VDD, VSS;\n"
      " wire n1;\n"
      " INVX1 u0 (.A(A), .Y(n1), .VDD(VDD), .VSS(VSS));\n"
      " INVX1 u1 (.A(n1), .Y(Y), .VDD(VDD), .VSS(VSS));\n"
      "endmodule\n";
  a->top = "m";
  a->lib = tiny_library();
  a->instances_compared = 2;
  return a;
}

std::shared_ptr<const core::GateSimResult> tiny_gate_sim() {
  auto g = std::make_shared<core::GateSimResult>();
  g->comparator_ok = true;
  g->ring_period_s = 1.25e-10;
  g->ring_period_pred_s = -0.0;
  g->ring_ok = false;
  g->n_samples = 5;
  g->num_slices = 2;
  g->decoded = {0.5, payload_nan(), -1.0};  // decimated left empty
  g->matches_behavioral = true;
  g->transitions = 123456789012ull;
  return g;
}

core::AdcSpec small_spec() {
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.num_slices = 6;
  spec.fs_hz = 400e6;
  spec.bandwidth_hz = 2e6;
  return spec;
}

// --- the codec table ---------------------------------------------------------

template <typename T>
Bytes encode(const core::ArtifactCodec<T>& codec, const T& artifact) {
  core::serde::Writer w;
  codec.encode(artifact, w);
  return w.take();
}

/// Decodes `bytes`, then re-encodes the result; nullopt when decode refuses.
template <typename T>
std::optional<Bytes> reencode(const core::ArtifactCodec<T>& codec,
                              const Bytes& bytes) {
  core::serde::Reader r(bytes);
  const auto back = codec.decode(r);
  if (back == nullptr) return std::nullopt;
  return encode(codec, *back);
}

template <typename T>
bool decodes(const core::ArtifactCodec<T>& codec, const T& artifact) {
  return reencode(codec, encode(codec, artifact)).has_value();
}

/// One codec with one artifact, type-erased so a single table covers them
/// all.
struct CodecCase {
  const char* name;
  std::function<Bytes()> encode;
  std::function<std::optional<Bytes>(const Bytes&)> reencode;
  /// Digest of encode()'s bytes; none for flow-built artifacts.
  std::optional<core::CacheKey> pinned;
  /// Prefix lengths tested: every one, or every n-th on a large artifact.
  std::size_t prefix_stride = 1;
};

template <typename T>
CodecCase codec_case(const char* name, const core::ArtifactCodec<T>& codec,
                     std::function<std::shared_ptr<const T>()> make,
                     std::optional<core::CacheKey> pinned,
                     std::size_t prefix_stride = 1) {
  return {name, [&codec, make] { return encode(codec, *make()); },
          [&codec](const Bytes& b) { return reencode(codec, b); }, pinned,
          prefix_stride};
}

/// Digests printed by the build that introduced the pins; a store written
/// by that build loads only while these hold.
std::vector<CodecCase> hand_built_cases() {
  return {
      codec_case<CellLibrary>(
          "cell_library", core::cell_library_codec(), tiny_library,
          core::CacheKey{0xd56c1fd91922e8e2ull, 0xcf7eb3f95a66e524ull}),
      codec_case<core::DesignBundle>(
          "design_bundle", core::design_bundle_codec(), tiny_design_bundle,
          core::CacheKey{0x6156eb2f3359d0a3ull, 0x499aa0e425a5309full}),
      codec_case<synth::FloorplanStageResult>(
          "floorplan", core::floorplan_codec(),
          [] { return tiny_floorplan_artifact(); },
          core::CacheKey{0xec81cb4f132eca3dull, 0x48367199195433dfull}),
      codec_case<synth::Placement>(
          "placement", core::placement_codec(),
          [] {
            return std::make_shared<const synth::Placement>(tiny_placement());
          },
          core::CacheKey{0xbf061a3d91d89741ull, 0x867e773974895c19ull}),
      codec_case<synth::SynthesisResult>(
          "synthesis", core::synthesis_codec(), [] { return tiny_synthesis(); },
          core::CacheKey{0xd1e490b91325b2f3ull, 0xeb69ac4b1538ee3full}),
      codec_case<core::RunResult>(
          "run_result", core::run_result_codec(), tiny_run_result,
          core::CacheKey{0x8ea003c8c186e3b8ull, 0xf1e41126b4352330ull}),
      codec_case<core::HdlEmitResult>(
          "hdl_emit", core::hdl_emit_codec(), tiny_hdl_emit,
          core::CacheKey{0xfea1ff27b390a09eull, 0xace00a1b560f0d6bull}),
      codec_case<core::GateSimResult>(
          "gate_sim", core::gate_sim_codec(), tiny_gate_sim,
          core::CacheKey{0x35650e4b438a3cd4ull, 0xf992c87f5cbadff9ull}),
  };
}

std::vector<CodecCase> all_cases() {
  std::vector<CodecCase> cases = hand_built_cases();
  // The flow-built standard library: a realistic record size.
  cases.push_back(codec_case<CellLibrary>(
      "flow_cell_library", core::cell_library_codec(),
      [] {
        core::ExecContext ctx;
        core::Flow flow(ctx);
        return flow.tech_library(small_spec());
      },
      std::nullopt, 61));
  return cases;
}

// Prints the case name: test discovery names each case by its printed
// value, so the name stays stable across runs.
void PrintTo(const CodecCase& c, std::ostream* os) { *os << c.name; }

class StoreWireFormatTest : public ::testing::TestWithParam<CodecCase> {};

// The bytes a store holds are the format of record: a record written by
// an earlier build must decode to the same artifact. A round trip alone
// cannot show that (any self-consistent format passes it); the digest of
// bytes from literal values can.
TEST_P(StoreWireFormatTest, EncodedBytesMatchThePinnedDigest) {
  const CodecCase& c = GetParam();
  const Bytes bytes = c.encode();
  core::KeyHasher h;
  h.bytes(bytes.data(), bytes.size());
  const core::CacheKey got = h.digest();
  ASSERT_TRUE(c.pinned.has_value());
  EXPECT_EQ(got, *c.pinned) << c.name << ": {0x" << std::hex << got.lo
                            << "ull, 0x" << got.hi << "ull}, " << std::dec
                            << bytes.size() << " bytes";
}

INSTANTIATE_TEST_SUITE_P(EveryCodec, StoreWireFormatTest,
                         ::testing::ValuesIn(hand_built_cases()));

class StoreCodecTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(StoreCodecTest, RoundTripIsAFixedPointAndBadLengthsDecodeToNull) {
  const CodecCase& c = GetParam();
  const Bytes bytes = c.encode();
  ASSERT_FALSE(bytes.empty());

  const std::optional<Bytes> back = c.reencode(bytes);
  ASSERT_TRUE(back.has_value()) << "a freshly encoded record must decode";
  EXPECT_EQ(*back, bytes);

  // Every strict prefix is a truncated record: null, never UB. The half
  // length is the store's classic torn write.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < bytes.size(); n += c.prefix_stride) {
    lengths.push_back(n);
  }
  lengths.push_back(bytes.size() / 2);
  lengths.push_back(bytes.size() - 1);
  for (const std::size_t n : lengths) {
    const Bytes cut(bytes.begin(), bytes.begin() + static_cast<long>(n));
    EXPECT_FALSE(c.reencode(cut).has_value()) << "prefix of " << n << " bytes";
  }

  Bytes padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(c.reencode(padded).has_value()) << "one trailing byte";
}

INSTANTIATE_TEST_SUITE_P(EveryCodec, StoreCodecTest,
                         ::testing::ValuesIn(all_cases()));

// --- records whose indices would reach past the flat vector -----------------

// A region member indexes the flat vector in the placer's connectivity
// ordering; a store record carries it with nothing but a checksum behind
// it, and a store hit skips the placement stage's post-checks.
TEST(ArtifactSerdeTest, RegionMemberOutsideTheFlatVectorIsRefused) {
  for (const int bad : {3, -1}) {
    const FlatEdit edit = [bad](std::vector<FlatInstance>&,
                                synth::Floorplan& fp, synth::Placement&) {
      fp.regions[1].spec.members.push_back(bad);
    };
    EXPECT_FALSE(
        decodes(core::floorplan_codec(), *tiny_floorplan_artifact(edit)))
        << "floorplan member " << bad;
    EXPECT_FALSE(decodes(core::synthesis_codec(), *tiny_synthesis(edit)))
        << "synthesis member " << bad;
  }
}

// A flat instance without a cell is written with an empty cell name; the
// placer and Layout::stats dereference every instance's cell.
TEST(ArtifactSerdeTest, FlatInstanceWithoutACellIsRefused) {
  const FlatEdit edit = [](std::vector<FlatInstance>& flat, synth::Floorplan&,
                           synth::Placement&) { flat[1].cell = nullptr; };
  EXPECT_FALSE(
      decodes(core::floorplan_codec(), *tiny_floorplan_artifact(edit)));
  EXPECT_FALSE(decodes(core::synthesis_codec(), *tiny_synthesis(edit)));
}

// Layout::stats walks the placement index-aligned with the flat vector.
TEST(ArtifactSerdeTest, PlacementNotAlignedWithTheFlatVectorIsRefused) {
  const FlatEdit drop = [](std::vector<FlatInstance>&, synth::Floorplan&,
                           synth::Placement& pl) { pl.cells.pop_back(); };
  EXPECT_FALSE(decodes(core::synthesis_codec(), *tiny_synthesis(drop)));
  const FlatEdit extra = [](std::vector<FlatInstance>&, synth::Floorplan&,
                            synth::Placement& pl) {
    pl.cells.push_back(pl.cells.back());
  };
  EXPECT_FALSE(decodes(core::synthesis_codec(), *tiny_synthesis(extra)));
}

// --- flow-built artifacts round-trip -----------------------------------------

TEST(ArtifactSerdeTest, CellLibraryRoundTripsBitExactly) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto lib = flow.tech_library(small_spec());
  ASSERT_NE(lib, nullptr);

  const auto& codec = core::cell_library_codec();
  core::serde::Writer w;
  codec.encode(*lib, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  // Re-encoding the decoded library must produce the same bytes: the
  // canonical form is a fixed point, which is what makes store records
  // stable across processes.
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
  EXPECT_EQ(back->cells().size(), lib->cells().size());
}

TEST(ArtifactSerdeTest, RunResultRoundTripsBitExactly) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  core::SimulationOptions sim;
  sim.n_samples = 1 << 12;
  const auto run = flow.sim_run(small_spec(), sim);
  ASSERT_NE(run, nullptr);

  const auto& codec = core::run_result_codec();
  core::serde::Writer w;
  codec.encode(*run, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  EXPECT_EQ(back->sndr.sndr_db, run->sndr.sndr_db);  // bit-exact, not near
  EXPECT_EQ(back->fom_fj, run->fom_fj);
  EXPECT_EQ(back->mod.output, run->mod.output);
  EXPECT_EQ(back->spectrum.dbfs, run->spectrum.dbfs);
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(ArtifactSerdeTest, SynthesisResultRoundTripRepointsCells) {
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto res = flow.synthesis(small_spec());
  ASSERT_NE(res, nullptr);
  ASSERT_NE(res->layout, nullptr);

  const auto& codec = core::synthesis_codec();
  core::serde::Writer w;
  codec.encode(*res, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);
  ASSERT_NE(back->layout, nullptr);

  const auto& flat = res->layout->flat();
  const auto& flat2 = back->layout->flat();
  ASSERT_EQ(flat2.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    ASSERT_NE(flat2[i].cell, nullptr);
    // Pointers were re-aimed at the embedded library, but the pointee
    // carries the same cell definition.
    EXPECT_EQ(flat2[i].cell->name, flat[i].cell->name);
    EXPECT_EQ(flat2[i].cell->width_m, flat[i].cell->width_m);
  }
  EXPECT_EQ(back->stats.die_area_m2, res->stats.die_area_m2);
  EXPECT_EQ(back->drc.violations.size(), res->drc.violations.size());
  EXPECT_EQ(back->detailed_routing.total_vias, res->detailed_routing.total_vias);
}

TEST(ArtifactSerdeTest, HdlEmitRoundTripReparsesTheStoredText) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = 4;
  core::ExecContext ctx;
  core::Flow flow(ctx);
  const auto hdl = flow.hdl_emit(spec);
  ASSERT_NE(hdl, nullptr);

  const auto& codec = core::hdl_emit_codec();
  core::serde::Writer w;
  codec.encode(*hdl, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  // The text is the artifact of record: byte-identical through the store,
  // and the decoded view is re-parsed from it (same top, same modules).
  EXPECT_EQ(back->verilog, hdl->verilog);
  EXPECT_EQ(back->top, hdl->top);
  EXPECT_EQ(back->instances_compared, hdl->instances_compared);
  ASSERT_NE(back->parsed, nullptr);
  EXPECT_EQ(back->parsed->top(), hdl->parsed->top());
  EXPECT_EQ(back->parsed->modules().size(), hdl->parsed->modules().size());
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());

  // Corrupting the stored text past parseability is a decode miss, not a
  // half-parsed design: the codec's re-parse is the integrity check.
  core::HdlEmitResult mangled = *hdl;
  mangled.verilog = "module broken (;"; // unparseable on purpose
  core::serde::Writer wm;
  codec.encode(mangled, wm);
  core::serde::Reader rm(wm.bytes());
  EXPECT_EQ(codec.decode(rm), nullptr);
}

TEST(ArtifactSerdeTest, GateSimResultRoundTripsBitExactly) {
  core::AdcSpec spec = small_spec();
  spec.num_slices = 4;
  core::ExecContext ctx;
  core::Flow flow(ctx);
  core::GateSimOptions gopts;
  gopts.sim.n_samples = 64;
  const auto gate = flow.gate_sim(spec, gopts);
  ASSERT_NE(gate, nullptr);

  const auto& codec = core::gate_sim_codec();
  core::serde::Writer w;
  codec.encode(*gate, w);
  core::serde::Reader r(w.bytes());
  const auto back = codec.decode(r);
  ASSERT_NE(back, nullptr);

  EXPECT_EQ(back->comparator_ok, gate->comparator_ok);
  EXPECT_EQ(back->ring_period_s, gate->ring_period_s);  // bit-exact f64
  EXPECT_EQ(back->ring_period_pred_s, gate->ring_period_pred_s);
  EXPECT_EQ(back->ring_ok, gate->ring_ok);
  EXPECT_EQ(back->n_samples, gate->n_samples);
  EXPECT_EQ(back->num_slices, gate->num_slices);
  EXPECT_EQ(back->decoded, gate->decoded);
  EXPECT_EQ(back->decimated, gate->decimated);
  EXPECT_EQ(back->matches_behavioral, gate->matches_behavioral);
  EXPECT_EQ(back->transitions, gate->transitions);
  core::serde::Writer w2;
  codec.encode(*back, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

}  // namespace
