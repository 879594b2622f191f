// The per-draw analysis tail (noise-slope fit, idle-tone scan, power model)
// must give bit-identical results to the straightforward versions it
// replaced. This file keeps in-test copies of those versions as references:
//
//   * ref_fit_noise_slope: 24 passes over the spectrum, one log10 per bin
//     per bucket (the fast path takes one log10 per bin and a binary
//     search over the same bucket edges);
//   * ref_find_idle_tones: one freshly allocated window per bin;
//   * ref_estimate_power: walks Design::flatten() per call (the fast path
//     walks a PowerTable built once per design).
//
// Spectra are seeded random ones from 4 to 2^16 bins, with floor plateaus,
// tied dB values and tones, over normal and degenerate fit ranges, plus
// spectra of real modulator runs. Results are compared bit for bit.
//
// Self-contained over the library sources, so it also runs in the asan. and
// ubsan. robustness variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/adc.h"
#include "core/power_model.h"
#include "dsp/spectrum.h"
#include "netlist/generator.h"
#include "util/rng.h"

namespace vcoadc {
namespace {

// --- reference copies ------------------------------------------------------

dsp::SlopeFit ref_fit_noise_slope(const dsp::Spectrum& spec, double f_lo,
                                  double f_hi) {
  dsp::SlopeFit fit;
  const std::size_t n = spec.power.size();
  if (n < 8) return fit;
  constexpr int kBuckets = 24;
  std::vector<double> xs, ys;
  const double llo = std::log10(std::max(f_lo, spec.bin_hz));
  const double lhi = std::log10(std::max(f_hi, f_lo * 1.01));
  for (int b = 0; b < kBuckets; ++b) {
    const double a = llo + (lhi - llo) * b / kBuckets;
    const double c = llo + (lhi - llo) * (b + 1) / kBuckets;
    std::vector<double> vals;
    for (std::size_t i = 1; i < n; ++i) {
      const double lf = std::log10(spec.freq_hz[i]);
      if (lf >= a && lf < c) vals.push_back(spec.dbfs[i]);
    }
    if (vals.size() < 3) continue;
    std::nth_element(vals.begin(), vals.begin() + vals.size() / 2, vals.end());
    xs.push_back((a + c) / 2);
    ys.push_back(vals[vals.size() / 2]);
  }
  if (xs.size() < 3) return fit;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double m = static_cast<double>(xs.size());
  const double denom = m * sxx - sx * sx;
  if (denom == 0) return fit;
  fit.db_per_decade = (m * sxy - sx * sy) / denom;
  const double ss_tot = syy - sy * sy / m;
  double ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred =
        (sy - fit.db_per_decade * sx) / m + fit.db_per_decade * xs[i];
    ss_res += (ys[i] - pred) * (ys[i] - pred);
  }
  fit.r_squared = (ss_tot > 0) ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

std::vector<dsp::IdleTone> ref_find_idle_tones(const dsp::Spectrum& spec,
                                               const dsp::SndrReport& report,
                                               double f_lo, double f_hi,
                                               double threshold_db) {
  std::vector<dsp::IdleTone> tones;
  const std::size_t n = spec.power.size();
  if (n < 16) return tones;
  const int span = dsp::leakage_bins(spec.window);
  auto in_harmonic_window = [&](std::size_t i) {
    if (report.fundamental_hz <= 0) return false;
    for (int h = 1; h <= 7; ++h) {
      const double fh = report.fundamental_hz * h;
      if (std::fabs(spec.freq_hz[i] - fh) <= (span + 1) * spec.bin_hz) {
        return true;
      }
    }
    return false;
  };
  constexpr int kHalfWin = 32;
  for (std::size_t i = 1; i < n; ++i) {
    if (spec.freq_hz[i] < f_lo || spec.freq_hz[i] > f_hi) continue;
    if (in_harmonic_window(i)) continue;
    const std::size_t lo = (i > kHalfWin) ? i - kHalfWin : 1;
    const std::size_t hi = std::min(n - 1, i + kHalfWin);
    std::vector<double> local;
    local.reserve(hi - lo + 1);
    for (std::size_t k = lo; k <= hi; ++k) {
      if (k != i) local.push_back(spec.dbfs[k]);
    }
    std::nth_element(local.begin(), local.begin() + local.size() / 2,
                     local.end());
    const double floor_db = local[local.size() / 2];
    const double above = spec.dbfs[i] - floor_db;
    if (above > threshold_db) {
      tones.push_back({spec.freq_hz[i], spec.dbfs[i], above});
    }
  }
  return tones;
}

double ref_vdd_domain_activity(const std::string& function) {
  if (function == "nor3") return 2.0;
  if (function == "nor2") return 0.5;
  if (function == "xor2") return 0.5;
  if (function == "inv") return 0.5;
  if (function == "clkbuf") return 2.0;
  if (function == "buf") return 0.5;
  if (function == "dlat") return 0.5;
  return 0.5;
}

core::PowerBreakdown ref_estimate_power(const core::AdcSpec& spec,
                                        const netlist::Design& design,
                                        const msim::ModulatorResult& activity,
                                        const core::PowerModelOptions& opts) {
  const tech::TechNode node = spec.tech_node();
  core::PowerBreakdown pb;
  const double f_vco = 0.5 * (activity.mean_freq1_hz + activity.mean_freq2_hz);
  const double v_ctrl = 0.5 * (activity.mean_vctrlp + activity.mean_vctrln);
  const double v_buf = 0.5 * node.vdd;
  const double k = opts.switching_overhead;
  int buf_cells = 0;
  for (const auto& fi : design.flatten()) {
    const auto& cell = *fi.cell;
    pb.leakage_w += cell.leakage_w;
    if (cell.is_resistor) continue;
    const double c = cell.input_cap_f * k;
    const std::string& pd = fi.power_domain;
    if (pd == netlist::kPdVctrlp || pd == netlist::kPdVctrln) {
      pb.vco_w += c * v_ctrl * v_ctrl * f_vco;
    } else if (pd == netlist::kPdVbuf1 || pd == netlist::kPdVbuf2) {
      pb.buffer_sw_w += c * v_buf * v_buf * f_vco;
      if (cell.function == "inv") buf_cells++;
    } else if (pd == netlist::kPdVrefp) {
      const double toggles_per_s = activity.bit_toggle_rate /
                                   std::max(1, spec.num_slices) * spec.fs_hz;
      pb.dac_drive_w += 0.5 * c * node.vdd * node.vdd * toggles_per_s;
    } else {
      pb.sampling_w += 0.5 * c * node.vdd * node.vdd *
                       ref_vdd_domain_activity(cell.function) * spec.fs_hz;
    }
  }
  pb.buffer_bias_w +=
      (buf_cells / 4.0) * opts.buffer_bias_per_cell_a * node.vdd;
  pb.wire_w += 0.35 * opts.wire_cap_f * node.vdd * node.vdd * spec.fs_hz;
  const double r_dac = 11000.0 * spec.dac_fragments;
  const double vrefp = node.vdd;
  const double p_per_res = 0.5 * vrefp * (vrefp - v_ctrl) / r_dac +
                           0.5 * v_ctrl * v_ctrl / r_dac;
  pb.dac_static_w += 2.0 * spec.num_slices * p_per_res;
  return pb;
}

// --- helpers -----------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const dsp::SlopeFit& got, const dsp::SlopeFit& want,
                 const std::string& what) {
  EXPECT_EQ(bits(got.db_per_decade), bits(want.db_per_decade))
      << what << ": slope " << got.db_per_decade << " vs "
      << want.db_per_decade;
  EXPECT_EQ(bits(got.r_squared), bits(want.r_squared))
      << what << ": r^2 " << got.r_squared << " vs " << want.r_squared;
}

void expect_same(const std::vector<dsp::IdleTone>& got,
                 const std::vector<dsp::IdleTone>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i].freq_hz), bits(want[i].freq_hz)) << what << " #" << i;
    EXPECT_EQ(bits(got[i].dbfs), bits(want[i].dbfs)) << what << " #" << i;
    EXPECT_EQ(bits(got[i].above_floor_db), bits(want[i].above_floor_db))
        << what << " #" << i;
  }
}

void expect_same(const core::PowerBreakdown& got,
                 const core::PowerBreakdown& want, const std::string& what) {
  EXPECT_EQ(bits(got.vco_w), bits(want.vco_w)) << what;
  EXPECT_EQ(bits(got.sampling_w), bits(want.sampling_w)) << what;
  EXPECT_EQ(bits(got.dac_drive_w), bits(want.dac_drive_w)) << what;
  EXPECT_EQ(bits(got.buffer_sw_w), bits(want.buffer_sw_w)) << what;
  EXPECT_EQ(bits(got.wire_w), bits(want.wire_w)) << what;
  EXPECT_EQ(bits(got.leakage_w), bits(want.leakage_w)) << what;
  EXPECT_EQ(bits(got.dac_static_w), bits(want.dac_static_w)) << what;
  EXPECT_EQ(bits(got.buffer_bias_w), bits(want.buffer_bias_w)) << what;
}

/// A seeded random one-sided spectrum of `n` bins: a first-order shaped
/// floor with noise, runs of bins at the -200 dBFS floor (plateaus, unless
/// `plateaus` is false), values rounded to 0.25 dB on some stretches (ties
/// inside a bucket) and a few strong tones.
dsp::Spectrum random_spectrum(util::Rng& rng, std::size_t n, double bin_hz,
                              bool plateaus = true) {
  dsp::Spectrum s;
  s.bin_hz = bin_hz;
  s.fs_hz = bin_hz * 2.0 * static_cast<double>(n);
  s.window = dsp::WindowKind::kHann;
  s.freq_hz.resize(n);
  s.power.resize(n);
  s.dbfs.resize(n);
  std::size_t plateau_left = 0;
  bool rounded = false;
  for (std::size_t k = 0; k < n; ++k) {
    s.freq_hz[k] = bin_hz * static_cast<double>(k);
    if (plateaus && plateau_left == 0 && rng.bernoulli(0.01)) {
      plateau_left = 1 + rng.below(n / 8 + 2);
    }
    if (rng.bernoulli(0.02)) rounded = !rounded;
    double db;
    if (plateau_left > 0) {
      --plateau_left;
      db = dsp::Spectrum::kFloorDbfs;
    } else {
      const double f = std::max(s.freq_hz[k], bin_hz);
      db = -160.0 + 20.0 * std::log10(f / bin_hz) + rng.gaussian(0.0, 6.0);
      if (rng.bernoulli(0.002)) db += 60.0;  // a tone
      if (rounded) db = std::round(db * 4.0) / 4.0;
      db = std::max(dsp::Spectrum::kFloorDbfs, db);
    }
    s.dbfs[k] = db;
    s.power[k] = std::pow(10.0, db / 10.0);
  }
  if (n > 0) {
    s.power[0] = 0.0;
    s.dbfs[0] = dsp::Spectrum::kFloorDbfs;
  }
  return s;
}

/// Fit ranges for a spectrum: a typical one, the degenerate cases named
/// in the fit's contract, and random ones.
std::vector<std::pair<double, double>> fit_ranges(util::Rng& rng,
                                                  const dsp::Spectrum& s) {
  const double bin = s.bin_hz;
  const double nyq = s.fs_hz / 2.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<double, double>> r = {
      {bin * 10.0, nyq / 2.0},        // typical
      {bin * 1.2, nyq / 4.0},         // the analysis tail's shape
      {nyq / 4.0, nyq / 8.0},         // f_lo > f_hi
      {nyq / 5.0, nyq / 5.0},         // f_lo == f_hi
      {bin * 0.3, nyq / 3.0},         // f_lo below bin_hz
      {bin * 0.5, bin * 0.4},         // bin_hz > 1.01 * f_lo, f_hi tiny
      {bin * 0.9, bin * 0.95},        // bin_hz > 1.01 * f_lo, f_hi near it
      {bin * 3.0, nyq * 4.0},         // f_hi above Nyquist
      {bin * 3.0, bin * 3.001},       // a range narrower than one bin
      {nyq * 2.0, nyq * 8.0},         // entirely above the spectrum
      {0.0, nyq / 2.0},               // f_lo zero
      {-bin, nyq / 2.0},              // f_lo negative
      {bin * 2.0, inf},               // infinite f_hi
      {nan, nyq / 2.0},               // NaN f_lo
      {bin * 2.0, nan},               // NaN f_hi
  };
  for (int k = 0; k < 6; ++k) {
    const double decades = std::log10(std::max(2.0, nyq / bin)) + 1.0;
    const double a = bin * std::pow(10.0, rng.uniform(-1.0, decades));
    const double b = bin * std::pow(10.0, rng.uniform(-1.0, decades));
    r.push_back({a, b});
  }
  return r;
}

std::vector<std::size_t> spectrum_sizes(util::Rng& rng) {
  std::vector<std::size_t> sizes = {4,   5,   7,    8,    9,    15,   16,
                                    17,  33,  64,   100,  257,  1000, 4096,
                                    1u << 15, 1u << 16};
  for (int k = 0; k < 8; ++k) sizes.push_back(8 + rng.below(5000));
  return sizes;
}

// --- fit_noise_slope -----------------------------------------------------------

TEST(AnalysisDifferential, SlopeFitMatchesTheReferenceOnRandomSpectra) {
  util::Rng rng(0x5107e);
  int fitted = 0, empty = 0;
  for (const std::size_t n : spectrum_sizes(rng)) {
    const double bin_hz = std::pow(10.0, rng.uniform(0.0, 6.0));
    const dsp::Spectrum s = random_spectrum(rng, n, bin_hz);
    for (const auto& [f_lo, f_hi] : fit_ranges(rng, s)) {
      const std::string what = "n=" + std::to_string(n) +
                               " bin=" + std::to_string(bin_hz) +
                               " f_lo=" + std::to_string(f_lo) +
                               " f_hi=" + std::to_string(f_hi);
      const dsp::SlopeFit ref = ref_fit_noise_slope(s, f_lo, f_hi);
      expect_same(dsp::fit_noise_slope(s, f_lo, f_hi), ref, what);
      (ref.r_squared != 0 ? fitted : empty)++;
    }
  }
  // Both outcomes are covered: real fits and ranges that fill too few
  // buckets to fit.
  EXPECT_GT(fitted, 100);
  EXPECT_GT(empty, 100);
}

TEST(AnalysisDifferential, SlopeFitFindsAShapedFloor) {
  // Not a degenerate agreement: on a shaped floor both fits return the
  // +20 dB/dec the spectrum was built with.
  util::Rng rng(42);
  const dsp::Spectrum s = random_spectrum(rng, 1u << 14, 1e3, false);
  const dsp::SlopeFit ref = ref_fit_noise_slope(s, 1e4, 4e6);
  EXPECT_NEAR(ref.db_per_decade, 20.0, 3.0);
  expect_same(dsp::fit_noise_slope(s, 1e4, 4e6), ref, "shaped floor");
}

TEST(AnalysisDifferential, SlopeFitMatchesOnUnsortedFrequencies) {
  // The bucket of each bin comes from its own frequency, not its index:
  // a spectrum whose bins are shuffled still fills the same buckets.
  util::Rng rng(7);
  dsp::Spectrum s = random_spectrum(rng, 2048, 500.0);
  for (std::size_t i = s.freq_hz.size() - 1; i > 1; --i) {
    const std::size_t j = 1 + rng.below(i);
    std::swap(s.freq_hz[i], s.freq_hz[j]);
  }
  for (const auto& [f_lo, f_hi] : fit_ranges(rng, s)) {
    expect_same(dsp::fit_noise_slope(s, f_lo, f_hi),
                ref_fit_noise_slope(s, f_lo, f_hi), "shuffled");
  }
}

// --- find_idle_tones -----------------------------------------------------------

TEST(AnalysisDifferential, IdleTonesMatchTheReferenceOnRandomSpectra) {
  util::Rng rng(0x1d1e);
  for (const std::size_t n : spectrum_sizes(rng)) {
    const double bin_hz = std::pow(10.0, rng.uniform(0.0, 6.0));
    const dsp::Spectrum s = random_spectrum(rng, n, bin_hz);
    const double nyq = s.fs_hz / 2.0;
    const double tone = bin_hz * static_cast<double>(1 + rng.below(n / 4 + 1));
    const dsp::SndrReport rep = dsp::analyze_sndr(s, nyq / 3.0, tone);
    const dsp::SndrReport no_tone;  // fundamental_hz == 0
    for (const auto& [f_lo, f_hi] :
         std::vector<std::pair<double, double>>{{0.0, nyq},
                                                {tone * 3.0, nyq / 3.0},
                                                {nyq / 2.0, nyq / 4.0}}) {
      for (const double thr : {3.0, 12.0}) {
        const std::string what = "n=" + std::to_string(n) +
                                 " f_lo=" + std::to_string(f_lo) +
                                 " thr=" + std::to_string(thr);
        expect_same(dsp::find_idle_tones(s, rep, f_lo, f_hi, thr),
                    ref_find_idle_tones(s, rep, f_lo, f_hi, thr), what);
        expect_same(dsp::find_idle_tones(s, no_tone, f_lo, f_hi, thr),
                    ref_find_idle_tones(s, no_tone, f_lo, f_hi, thr),
                    what + " no tone");
      }
    }
  }
}

// --- estimate_power --------------------------------------------------------------

core::AdcSpec spec_at(double node_nm, int slices) {
  core::AdcSpec spec = node_nm == 40 ? core::AdcSpec::paper_40nm()
                                     : core::AdcSpec::paper_180nm();
  spec.num_slices = slices;
  return spec;
}

TEST(AnalysisDifferential, PowerTableMatchesTheFlattenBasedModel) {
  util::Rng rng(0x9a7e);
  for (const double node : {40.0, 180.0}) {
    for (const int slices : {4, 8, 16, 32}) {
      const core::AdcSpec spec = spec_at(node, slices);
      const core::AdcDesign design(spec);
      ASSERT_TRUE(design.ok()) << node << " nm, " << slices << " slices";
      const core::PowerTable table =
          core::make_power_table(design.netlist());
      EXPECT_EQ(table.size(), design.netlist().flatten().size());
      for (int draw = 0; draw < 8; ++draw) {
        msim::ModulatorResult act;
        act.mean_freq1_hz = rng.uniform(1e8, 4e9);
        act.mean_freq2_hz = rng.uniform(1e8, 4e9);
        act.mean_vctrlp = rng.uniform(0.0, 1.8);
        act.mean_vctrln = rng.uniform(0.0, 1.8);
        act.bit_toggle_rate = draw == 0 ? 0.0 : rng.uniform(0.0, 8.0);
        core::PowerModelOptions opts;
        opts.wire_cap_f = draw % 2 == 0 ? 0.0 : rng.uniform(0.0, 5e-12);
        if (draw == 3) opts.switching_overhead = rng.uniform(1.0, 5.0);
        if (draw == 5) opts.buffer_bias_per_cell_a = rng.uniform(1e-6, 1e-5);
        const std::string what = std::to_string(static_cast<int>(node)) +
                                 " nm, " + std::to_string(slices) +
                                 " slices, draw " + std::to_string(draw);
        expect_same(core::estimate_power(spec, table, act, opts),
                    ref_estimate_power(spec, design.netlist(), act, opts),
                    what);
      }
    }
  }
}

// --- the whole tail of real draws ----------------------------------------------

TEST(AnalysisDifferential, SimulatedDrawsMatchTheReferenceTail) {
  for (const double node : {40.0, 180.0}) {
    const core::AdcSpec spec = spec_at(node, node == 40 ? 16 : 8);
    const core::AdcDesign design(spec);
    ASSERT_TRUE(design.ok());
    core::SimulationOptions opts;
    opts.n_samples = 1 << 12;
    opts.wire_cap_f = 1e-12;
    for (const std::uint64_t seed : {1u, 2u, 77u}) {
      opts.seed = seed;
      const core::RunResult r = design.simulate(opts);
      core::AdcSpec sp = spec;
      sp.seed = seed;
      const msim::SimConfig cfg = sp.to_sim_config();
      const std::string what = std::to_string(static_cast<int>(node)) +
                               " nm seed " + std::to_string(seed);
      expect_same(r.shaping,
                  ref_fit_noise_slope(r.spectrum, spec.bandwidth_hz * 1.2,
                                      cfg.fs_hz / 4.0),
                  what);
      expect_same(r.idle_tones,
                  ref_find_idle_tones(r.spectrum, r.sndr, r.fin_hz * 3.0,
                                      spec.bandwidth_hz, 12.0),
                  what);
      core::PowerModelOptions popts;
      popts.wire_cap_f = opts.wire_cap_f;
      expect_same(r.power,
                  ref_estimate_power(sp, design.netlist(), r.mod, popts),
                  what);
    }
  }
}

}  // namespace
}  // namespace vcoadc
