#include "core/artifact_serde.h"

#include <concepts>
#include <set>
#include <type_traits>
#include <utility>

#include "netlist/verilog_parser.h"

namespace vcoadc::core {

namespace {

using netlist::CellLibrary;
using netlist::FlatInstance;
using netlist::StdCell;
using serde::Reader;
using serde::Writer;

/// T or const T: the Writer instantiates each io() below on a const
/// artifact, the Reader on the one it fills.
template <typename T, typename U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// Decode-only steps: structural checks and rebuilding derived state.
template <typename Ar>
constexpr bool kReads = std::is_same_v<Ar, Reader>;

// --- one field list per stored struct ---------------------------------------
//
// Fields in record order. Editing a list changes the bytes on disk, so it
// bumps the owning codec's type_version.

template <typename Ar, typename V>
void f64s(Ar& ar, V& v) {
  ar.vec(v, [&](auto& x) { ar.f64(x); });
}

/// PinSpec and Port are both a name and a direction.
template <typename Ar, typename P>
  requires Is<P, netlist::PinSpec> || Is<P, netlist::Port>
void io(Ar& ar, P& p) {
  ar.str(p.name);
  ar.u8(p.dir);
}

template <typename Ar, Is<StdCell> C>
void io(Ar& ar, C& c) {
  ar.str(c.name);
  ar.str(c.function);
  ar.i64(c.drive);
  ar.f64(c.width_m);
  ar.f64(c.height_m);
  ar.vec(c.pins, [&](auto& p) { io(ar, p); });
  ar.f64(c.input_cap_f);
  ar.f64(c.leakage_w);
  ar.boolean(c.is_resistor);
  ar.f64(c.resistance_ohms);
  ar.str(c.power_pin);
  ar.str(c.ground_pin);
}

template <typename Ar, Is<netlist::Instance> I>
void io(Ar& ar, I& inst) {
  ar.str(inst.name);
  ar.str(inst.master);
  ar.str_map(inst.conn);
  ar.str(inst.power_domain);
  ar.str(inst.group);
}

template <typename Ar, Is<synth::Rect> R>
void io(Ar& ar, R& rect) {
  ar.f64(rect.x);
  ar.f64(rect.y);
  ar.f64(rect.w);
  ar.f64(rect.h);
}

template <typename Ar, Is<synth::PlacedRegion> P>
void io(Ar& ar, P& pr) {
  ar.str(pr.spec.name);
  ar.boolean(pr.spec.is_group);
  ar.vec(pr.spec.members, [&](auto& m) { ar.i64(m); });
  ar.f64(pr.spec.cell_area_m2);
  ar.f64(pr.spec.max_cell_width_m);
  io(ar, pr.rect);
}

template <typename Ar, Is<synth::Floorplan> F>
void io(Ar& ar, F& fp) {
  io(ar, fp.die);
  ar.f64(fp.row_height_m);
  ar.f64(fp.site_width_m);
  ar.vec(fp.regions, [&](auto& pr) { io(ar, pr); });
}

template <typename Ar, Is<synth::PlacedCell> C>
void io(Ar& ar, C& c) {
  ar.i64(c.flat_index);
  io(ar, c.rect);
  ar.i64(c.row);
  ar.str(c.region);
}

template <typename Ar, Is<synth::Placement> P>
void io(Ar& ar, P& pl) {
  ar.vec(pl.cells, [&](auto& c) { io(ar, c); });
  ar.boolean(pl.overflow);
}

template <typename Ar, Is<synth::NetRoute> N>
void io(Ar& ar, N& nr) {
  ar.str(nr.net);
  ar.i64(nr.pins);
  ar.f64(nr.hpwl_m);
  ar.f64(nr.est_length_m);
}

template <typename Ar, Is<synth::RoutingEstimate> R>
void io(Ar& ar, R& re) {
  ar.vec(re.nets, [&](auto& nr) { io(ar, nr); });
  ar.f64(re.total_hpwl_m);
  ar.f64(re.total_est_length_m);
  ar.i64(re.congestion.nx);
  ar.i64(re.congestion.ny);
  f64s(ar, re.congestion.demand);
  ar.f64(re.congestion.max_demand);
  ar.f64(re.congestion.mean_demand);
  ar.f64(re.wire_cap_f);
}

template <typename Ar, Is<synth::GridPoint> G>
void io(Ar& ar, G& gp) {
  ar.i64(gp.x);
  ar.i64(gp.y);
  ar.i64(gp.layer);
}

template <typename Ar, Is<synth::RoutedNet> N>
void io(Ar& ar, N& net) {
  ar.str(net.name);
  ar.i64(net.pins);
  ar.vec(net.paths, [&](auto& path) {
    ar.vec(path, [&](auto& gp) { io(ar, gp); });
  });
  ar.f64(net.wirelength_m);
  ar.i64(net.vias);
  ar.boolean(net.routed);
}

template <typename Ar, Is<synth::MazeRouteResult> M>
void io(Ar& ar, M& mr) {
  ar.vec(mr.nets, [&](auto& net) { io(ar, net); });
  ar.f64(mr.total_wirelength_m);
  ar.i64(mr.total_vias);
  ar.i64(mr.failed_nets);
  ar.i64(mr.overflowed_edges);
  ar.i64(mr.grid_x);
  ar.i64(mr.grid_y);
}

template <typename Ar, Is<synth::DrcReport> D>
void io(Ar& ar, D& drc) {
  ar.vec(drc.violations, [&](auto& v) {
    ar.u8(v.kind);
    ar.str(v.detail);
  });
}

template <typename Ar, Is<synth::LayoutStats> S>
void io(Ar& ar, S& st) {
  ar.f64(st.die_area_m2);
  ar.f64(st.cell_area_m2);
  ar.f64(st.utilization);
  ar.i64(st.num_cells);
  ar.i64(st.num_rows);
  ar.i64(st.num_regions);
}

template <typename Ar, Is<RunResult> R>
void io(Ar& ar, R& res) {
  ar.f64(res.fin_hz);
  ar.f64(res.amplitude_v);
  ar.f64(res.full_scale_v);
  auto& mod = res.mod;
  f64s(ar, mod.output);
  ar.vec(mod.counts, [&](auto& c) { ar.i64(c); });
  ar.vec(mod.slice_bits, [&](auto& bits) { ar.bits(bits); });
  ar.f64(mod.mean_vctrlp);
  ar.f64(mod.mean_vctrln);
  ar.f64(mod.mean_freq1_hz);
  ar.f64(mod.mean_freq2_hz);
  ar.f64(mod.bit_toggle_rate);
  auto& spec = res.spectrum;
  f64s(ar, spec.freq_hz);
  f64s(ar, spec.power);
  f64s(ar, spec.dbfs);
  ar.f64(spec.fs_hz);
  ar.f64(spec.bin_hz);
  ar.f64(spec.enbw_bins);
  ar.u8(spec.window);
  auto& sndr = res.sndr;
  ar.f64(sndr.fundamental_hz);
  ar.f64(sndr.fundamental_dbfs);
  ar.f64(sndr.signal_power);
  ar.f64(sndr.nad_power);
  ar.f64(sndr.noise_power);
  ar.f64(sndr.distortion_power);
  ar.f64(sndr.sndr_db);
  ar.f64(sndr.snr_db);
  ar.f64(sndr.thd_db);
  ar.f64(sndr.sfdr_db);
  ar.f64(sndr.enob);
  ar.f64(res.shaping.db_per_decade);
  ar.f64(res.shaping.r_squared);
  ar.vec(res.idle_tones, [&](auto& t) {
    ar.f64(t.freq_hz);
    ar.f64(t.dbfs);
    ar.f64(t.above_floor_db);
  });
  auto& power = res.power;
  ar.f64(power.vco_w);
  ar.f64(power.sampling_w);
  ar.f64(power.dac_drive_w);
  ar.f64(power.buffer_sw_w);
  ar.f64(power.wire_w);
  ar.f64(power.leakage_w);
  ar.f64(power.dac_static_w);
  ar.f64(power.buffer_bias_w);
  ar.f64(res.fom_fj);
}

template <typename Ar, Is<GateSimResult> G>
void io(Ar& ar, G& g) {
  ar.boolean(g.comparator_ok);
  ar.f64(g.ring_period_s);
  ar.f64(g.ring_period_pred_s);
  ar.boolean(g.ring_ok);
  ar.u64(g.n_samples);  // a value, not an element count: no payload bound
  ar.i64(g.num_slices);
  f64s(ar, g.decoded);
  f64s(ar, g.decimated);
  ar.boolean(g.matches_behavioral);
  ar.u64(g.transitions);
}

// --- built through calls, so each direction is written out ------------------

void io(Writer& w, const CellLibrary& lib) {
  w.str(lib.name());
  w.vec(lib.cells(), [&](const StdCell& c) { io(w, c); });
}

void io(Reader& r, CellLibrary& lib) {
  std::string name;
  std::vector<StdCell> cells;
  r.str(name);
  r.vec(cells, [&](StdCell& c) { io(r, c); });
  lib = CellLibrary(std::move(name));
  for (StdCell& c : cells) lib.add(std::move(c));
}

/// Hierarchical design over a decoded library (lives only inside the
/// DesignBundle codec — flat-carrying artifacts store flat form).
void io(Writer& w, const netlist::Design& d) {
  w.str(d.top());
  w.vec(d.modules(), [&](const netlist::Module& mod) {
    w.str(mod.name());
    w.vec(mod.ports(), [&](const netlist::Port& p) { io(w, p); });
    w.vec(mod.nets(), [&](const std::string& net) { w.str(net); });
    w.vec(mod.instances(), [&](const netlist::Instance& i) { io(w, i); });
  });
}

void io(Reader& r, netlist::Design& d) {
  std::string top;
  r.str(top);
  const std::size_t nmod = r.size();
  for (std::size_t i = 0; i < nmod && r.ok(); ++i) {
    std::string name;
    std::vector<netlist::Port> ports;
    std::vector<std::string> nets;
    std::vector<netlist::Instance> insts;
    r.str(name);
    r.vec(ports, [&](netlist::Port& p) { io(r, p); });
    r.vec(nets, [&](std::string& net) { r.str(net); });
    r.vec(insts, [&](netlist::Instance& inst) { io(r, inst); });
    netlist::Module& mod = d.add_module(name);
    for (const netlist::Port& p : ports) mod.add_port(p.name, p.dir);
    for (const std::string& net : nets) mod.add_net(net);
    for (netlist::Instance& inst : insts) mod.add_instance(std::move(inst));
  }
  d.set_top(top);
}

/// A library held by shared pointer, behind a presence flag. Cached
/// artifacts always carry one; a record without one is refused.
void io(Writer& w, const std::shared_ptr<const CellLibrary>& lib) {
  w.boolean(lib != nullptr);
  if (lib != nullptr) io(w, *lib);
}

void io(Reader& r, std::shared_ptr<const CellLibrary>& lib) {
  if (!r.boolean()) return r.fail();
  auto decoded = std::make_shared<CellLibrary>();
  io(r, *decoded);
  lib = std::move(decoded);
}

/// Collects the distinct StdCells a flat vector references into a
/// self-contained library (first-reference order, so the bytes are
/// deterministic). The subset carries everything downstream stages read
/// through FlatInstance::cell.
CellLibrary referenced_cells(const std::vector<FlatInstance>& flat) {
  CellLibrary lib("store");
  std::set<std::string> seen;
  for (const FlatInstance& fi : flat) {
    if (fi.cell != nullptr && seen.insert(fi.cell->name).second) {
      lib.add(*fi.cell);
    }
  }
  return lib;
}

/// Flat instances reference StdCells by pointer; on disk they go by name
/// against the library embedded ahead of them.
void cell_ref(Writer& w, const StdCell* cell, const CellLibrary&) {
  w.str(cell != nullptr ? cell->name : std::string());
}

/// Every stage dereferences the pointer, so an empty or dangling name
/// refuses the record.
void cell_ref(Reader& r, const StdCell*& cell, const CellLibrary& lib) {
  std::string name;
  r.str(name);
  cell = lib.find(name);
  if (cell == nullptr) r.fail();
}

/// The placer indexes the flat vector by every region member. The Writer
/// trusts the artifact it is handed; the Reader trusts nothing from disk.
template <typename Ar>
void check_members(Ar& ar, const synth::Floorplan& fp, std::size_t n_flat) {
  if constexpr (kReads<Ar>) {
    for (const synth::PlacedRegion& pr : fp.regions) {
      for (const int m : pr.spec.members) {
        if (m < 0 || static_cast<std::size_t>(m) >= n_flat) ar.fail();
      }
    }
  }
}

// --- flat-carrying artifacts -----------------------------------------------

/// The library of the cells `flat` references, then the flat instances.
/// The Writer fills `lib` from `flat`; the Reader decodes into it.
template <typename Ar, typename Flat>
void io_flat(Ar& ar, Flat& flat, CellLibrary& lib) {
  if constexpr (!kReads<Ar>) lib = referenced_cells(flat);
  io(ar, lib);
  ar.vec(flat, [&](auto& fi) {
    ar.str(fi.path);
    cell_ref(ar, fi.cell, lib);
    ar.str_map(fi.conn);
    ar.str(fi.power_domain);
    ar.str(fi.group);
  });
}

template <typename Ar, Is<synth::FloorplanStageResult> A>
void io(Ar& ar, A& a, CellLibrary& lib) {
  io_flat(ar, a.flat, lib);
  io(ar, a.fp);
  ar.str(a.floorplan_spec);
  check_members(ar, a.fp, a.flat.size());
}

/// A Layout's parts in record order.
template <typename Ar, typename Flat, typename Fp, typename Pl>
void layout_parts(Ar& ar, Flat& flat, Fp& fp, Pl& pl, CellLibrary& lib) {
  io_flat(ar, flat, lib);
  io(ar, fp);
  io(ar, pl);
  check_members(ar, fp, flat.size());
}

/// Failed results (diagnostics, null layout) are never cached, so the
/// persisted form carries a layout by construction; the flag stays so a
/// hand-damaged record fails decode instead of crashing.
void io_layout(Writer& w, const std::unique_ptr<synth::Layout>& layout,
               CellLibrary& lib) {
  w.boolean(layout != nullptr);
  if (layout == nullptr) return;
  layout_parts(w, layout->flat(), layout->floorplan(), layout->placement(),
               lib);
}

/// The Layout is immutable, so its parts are decoded first.
void io_layout(Reader& r, std::unique_ptr<synth::Layout>& layout,
               CellLibrary& lib) {
  if (!r.boolean()) return r.fail();
  std::vector<FlatInstance> flat;
  synth::Floorplan fp;
  synth::Placement pl;
  layout_parts(r, flat, fp, pl, lib);
  // Layout::stats walks the placement index-aligned with the flat vector.
  if (pl.cells.size() != flat.size()) r.fail();
  layout = std::make_unique<synth::Layout>(std::move(flat), std::move(fp),
                                           std::move(pl));
}

template <typename Ar, Is<synth::SynthesisResult> S>
void io(Ar& ar, S& s, CellLibrary& lib) {
  ar.str(s.floorplan_spec);
  io_layout(ar, s.layout, lib);
  io(ar, s.routing);
  io(ar, s.detailed_routing);
  io(ar, s.drc);
  io(ar, s.stats);
}

template <typename Ar, Is<HdlEmitResult> A>
void io(Ar& ar, A& a) {
  // The emitted text is the payload of record; the parsed view is derived
  // from it on decode and never serialized (so text and structure cannot
  // drift on disk).
  ar.str(a.verilog);
  ar.str(a.top);
  ar.i64(a.instances_compared);
  io(ar, a.lib);
  if constexpr (kReads<Ar>) {
    if (!ar.ok()) return;
    // Corrupt-miss: the stored text must re-parse to a design with its top.
    auto parsed = std::make_shared<netlist::Design>(a.lib.get());
    if (!netlist::parse_verilog(a.verilog, *parsed).ok) return ar.fail();
    parsed->set_top(a.top);
    if (parsed->find_module(a.top) == nullptr) return ar.fail();
    a.parsed = std::move(parsed);
  }
}

// --- the stage-artifact codecs --------------------------------------------

template <typename T>
void encode(const T& a, Writer& w) {
  io(w, a);
}

/// One whole record: null unless every read succeeded and every byte was
/// consumed.
template <typename T>
std::shared_ptr<const T> decode(Reader& r) {
  auto a = std::make_shared<T>();
  io(r, *a);
  return (r.ok() && r.at_end()) ? a : nullptr;
}

template <typename T>
void encode_flat(const T& a, Writer& w) {
  CellLibrary lib;
  io(w, a, lib);
}

/// The decoded artifact owns the embedded library its cells point into.
template <typename T>
std::shared_ptr<const T> decode_flat(Reader& r) {
  auto lib = std::make_shared<CellLibrary>();
  auto a = std::make_shared<T>();
  io(r, *a, *lib);
  if (!r.ok() || !r.at_end()) return nullptr;
  a->owner = std::shared_ptr<const void>(lib);
  return a;
}

void encode_design_bundle(const DesignBundle& b, Writer& w) {
  // A bundle with nulls is never cached (the netlist stage refuses it);
  // encode defensively anyway so a future misuse fails on decode, not UB.
  w.boolean(b.lib != nullptr && b.design != nullptr);
  if (b.lib == nullptr || b.design == nullptr) return;
  io(w, *b.lib);
  io(w, *b.design);
}

std::shared_ptr<const DesignBundle> decode_design_bundle(Reader& r) {
  if (!r.boolean()) return nullptr;
  auto lib = std::make_shared<CellLibrary>();
  io(r, *lib);
  auto design = std::make_shared<netlist::Design>(lib.get());
  io(r, *design);
  if (!r.ok() || !r.at_end()) return nullptr;
  auto b = std::make_shared<DesignBundle>();
  b->lib = std::move(lib);
  b->design = std::move(design);
  return b;
}

}  // namespace

const ArtifactCodec<CellLibrary>& cell_library_codec() {
  static const ArtifactCodec<CellLibrary> codec{
      "cell_library", 1, &encode<CellLibrary>, &decode<CellLibrary>};
  return codec;
}

const ArtifactCodec<DesignBundle>& design_bundle_codec() {
  static const ArtifactCodec<DesignBundle> codec{
      "design_bundle", 1, &encode_design_bundle, &decode_design_bundle};
  return codec;
}

const ArtifactCodec<synth::FloorplanStageResult>& floorplan_codec() {
  static const ArtifactCodec<synth::FloorplanStageResult> codec{
      "floorplan", 1, &encode_flat<synth::FloorplanStageResult>,
      &decode_flat<synth::FloorplanStageResult>};
  return codec;
}

const ArtifactCodec<synth::Placement>& placement_codec() {
  static const ArtifactCodec<synth::Placement> codec{
      "placement", 1, &encode<synth::Placement>, &decode<synth::Placement>};
  return codec;
}

const ArtifactCodec<synth::SynthesisResult>& synthesis_codec() {
  static const ArtifactCodec<synth::SynthesisResult> codec{
      "synthesis", 1, &encode_flat<synth::SynthesisResult>,
      &decode_flat<synth::SynthesisResult>};
  return codec;
}

const ArtifactCodec<RunResult>& run_result_codec() {
  static const ArtifactCodec<RunResult> codec{
      "run_result", 1, &encode<RunResult>, &decode<RunResult>};
  return codec;
}

const ArtifactCodec<HdlEmitResult>& hdl_emit_codec() {
  static const ArtifactCodec<HdlEmitResult> codec{
      "hdl_emit", 1, &encode<HdlEmitResult>, &decode<HdlEmitResult>};
  return codec;
}

const ArtifactCodec<GateSimResult>& gate_sim_codec() {
  static const ArtifactCodec<GateSimResult> codec{
      "gate_sim", 1, &encode<GateSimResult>, &decode<GateSimResult>};
  return codec;
}

}  // namespace vcoadc::core
