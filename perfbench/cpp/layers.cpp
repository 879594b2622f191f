// The traced run: an untraced and a traced pass of the workload (their
// throughput gap is the tracing overhead), then one probe per layer. Each
// probe calls a layer's public function with its upstream stages already
// cached, inside a benchmark span, so the span is that layer's own time.
#include <cstdio>
#include <filesystem>
#include <functional>

#include "bench.h"
#include "core/artifact_serde.h"
#include "core/artifact_store.h"
#include "core/flow.h"
#include "core/serve_loop.h"
#include "dsp/fft.h"
#include "dsp/signal_gen.h"
#include "dsp/spectrum.h"
#include "msim/batched_modulator.h"
#include "msim/modulator.h"
#include "util/json.h"
#include "util/trace.h"
#include "util/units.h"

namespace perfbench {

namespace core = vcoadc::core;
namespace dsp = vcoadc::dsp;
namespace msim = vcoadc::msim;
namespace json = vcoadc::util::json;
namespace fs = std::filesystem;

namespace {

/// Runs `fn` on a context whose trace feeds `spans` under one benchmark
/// span; returns the wall time of `fn` alone.
double probe(SpanRecorder& spans, const std::string& name,
             const std::string& layer, core::ExecContext ctx,
             const std::function<void(const core::ExecContext&)>& fn) {
  vcoadc::util::Trace trace;
  ctx.trace = &trace;
  const double epoch = spans.now();
  ScopedSpan span(&spans, name, layer, name);
  const double t0 = now_s();
  fn(ctx);
  const double dt = now_s() - t0;
  spans.import_trace(trace, epoch, span.index(), name);
  return dt;
}

/// Times `fn` alone under a benchmark span (no library spans inside).
double timed(SpanRecorder& spans, const std::string& name,
             const std::string& layer, const std::function<void()>& fn) {
  ScopedSpan span(&spans, name, layer, name);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

core::ExecContext fresh_ctx(core::ArtifactCache* cache, int threads = 0) {
  core::ExecContext ctx;
  ctx.threads = threads;
  ctx.cache = cache;
  return ctx;
}

}  // namespace

void run_traced(const Options& o, Report* rep) {
  SpanRecorder spans;
  const int reps = o.short_mode ? 1 : 3;
  auto fail = [&](const std::string& what) { rep->problem(what); };

  // --- Untraced vs traced pass: the tracing overhead ----------------------
  const double pass_s = o.seconds / 2;
  const PassResult plain = run_pass(o, pass_s, nullptr);
  const PassResult traced = run_pass(o, pass_s, &spans);
  for (const PassResult* p : {&plain, &traced}) {
    rep->attempted += p->attempted;
    rep->failed += p->failed;
    for (const std::string& s : p->problems) fail(s);
  }
  const double overhead_pct =
      traced.throughput() > 0
          ? 100.0 * (plain.throughput() / traced.throughput() - 1.0)
          : 0.0;
  std::printf("traced pass: %s %.4g untraced, %.4g traced (%zu requests)\n",
              o.workload.c_str(), plain.throughput(), traced.throughput(),
              traced.latency_s.size());

  const ProbeInputs in = probe_inputs(o);
  const core::AdcSpec& spec = in.spec;
  core::SimulationOptions sim;
  sim.n_samples = in.n_samples;

  // --- netlist ------------------------------------------------------------
  std::vector<double> build, emit, gate_rate;
  for (int r = 0; r < reps; ++r) {
    core::ArtifactCache cache;
    core::Flow(fresh_ctx(&cache)).tech_library(spec);
    build.push_back(probe(spans, "probe.netlist.build", "netlist",
                          fresh_ctx(&cache), [&](const core::ExecContext& c) {
                            if (core::Flow(c).netlist(spec).design == nullptr)
                              fail("netlist probe failed");
                          }));
    emit.push_back(probe(spans, "probe.netlist.hdl_emit", "netlist",
                         fresh_ctx(&cache), [&](const core::ExecContext& c) {
                           if (core::Flow(c).hdl_emit(spec) == nullptr)
                             fail("hdl_emit probe failed");
                         }));
    core::GateSimOptions g;
    core::SimulationOptions ref = g.sim;
    ref.record_bits = true;
    core::Flow(fresh_ctx(&cache)).sim_run(spec, ref);
    std::uint64_t transitions = 0;
    const double dt = probe(spans, "probe.netlist.gate_sim", "netlist",
                            fresh_ctx(&cache), [&](const core::ExecContext& c) {
                              auto res = core::Flow(c).gate_sim(spec, g);
                              if (res == nullptr || !res->matches_behavioral) {
                                fail("gate_sim probe failed");
                              } else {
                                transitions = res->transitions;
                              }
                            });
    gate_rate.push_back(static_cast<double>(transitions) / dt);
  }

  // --- synth --------------------------------------------------------------
  std::vector<double> fp_s, pl_s, route_s, route_serial_s;
  std::shared_ptr<const vcoadc::synth::SynthesisResult> routed, routed_serial;
  for (int r = 0; r < reps; ++r) {
    core::ArtifactCache cache;
    core::Flow(fresh_ctx(&cache)).netlist(spec);
    fp_s.push_back(probe(spans, "probe.synth.floorplan", "synth",
                         fresh_ctx(&cache), [&](const core::ExecContext& c) {
                           core::Flow(c).floorplan(spec, in.synth);
                         }));
    pl_s.push_back(probe(spans, "probe.synth.placement", "synth",
                         fresh_ctx(&cache), [&](const core::ExecContext& c) {
                           core::Flow(c).placement(spec, in.synth);
                         }));
    route_s.push_back(probe(spans, "probe.synth.route", "synth",
                            fresh_ctx(&cache), [&](const core::ExecContext& c) {
                              routed = core::Flow(c).synthesis(spec, in.synth);
                            }));
    core::ArtifactCache serial_cache;
    core::Flow(fresh_ctx(&serial_cache, 1)).placement(spec, in.synth);
    route_serial_s.push_back(probe(
        spans, "probe.synth.route_serial", "synth",
        fresh_ctx(&serial_cache, 1), [&](const core::ExecContext& c) {
          routed_serial = core::Flow(c).synthesis(spec, in.synth);
        }));
  }
  double wirelength_um = 0, vias = 0, overflow = 0, drc = 0;
  if (routed == nullptr || routed_serial == nullptr) {
    fail("synthesis probe failed");
  } else {
    const auto& dr = routed->detailed_routing;
    wirelength_um = dr.total_wirelength_m * 1e6;
    vias = dr.total_vias;
    overflow = dr.overflowed_edges;
    drc = static_cast<double>(routed->drc.violations.size());
    const auto& ds = routed_serial->detailed_routing;
    if (ds.total_wirelength_m != dr.total_wirelength_m ||
        ds.total_vias != dr.total_vias ||
        ds.overflowed_edges != dr.overflowed_edges ||
        routed_serial->drc.violations.size() != routed->drc.violations.size()) {
      fail("route at threads=1 differs from the default thread count");
    }
  }

  // --- core.flow SimRun ---------------------------------------------------
  std::vector<double> sim_run_s;
  std::shared_ptr<const core::RunResult> run;
  for (int r = 0; r < reps; ++r) {
    core::ArtifactCache cache;
    core::Flow(fresh_ctx(&cache)).netlist(spec);
    sim_run_s.push_back(probe(spans, "probe.core.sim_run", "core.flow",
                              fresh_ctx(&cache),
                              [&](const core::ExecContext& c) {
                                run = core::Flow(c).sim_run(spec, sim);
                              }));
  }
  if (run == nullptr) fail("sim_run probe failed");

  // --- msim ---------------------------------------------------------------
  const msim::SimConfig cfg = spec.to_sim_config();
  const std::size_t n = in.n_samples;
  std::vector<double> scalar_s, batched_s;
  std::vector<double> capture;
  {
    msim::VcoDsmModulator mod(cfg);
    msim::SimWorkspace ws;
    const double amp =
        mod.full_scale_diff() * vcoadc::util::from_db_amplitude(-3.0);
    const double fin = dsp::coherent_freq(1e6, cfg.fs_hz, n);
    const dsp::SignalFn sine = dsp::make_sine(amp, fin);
    mod.run(sine, n, ws);  // warm the workspace
    for (int r = 0; r < reps + 2; ++r) {
      scalar_s.push_back(timed(spans, "probe.msim.modulator", "msim",
                               [&] { mod.run(sine, n, ws); }));
    }
    capture = ws.result.output;

    const int w = msim::BatchedModulator::preferred_width();
    std::vector<std::uint64_t> seeds;
    for (int k = 0; k < w; ++k) seeds.push_back(cfg.seed + 1 + k);
    auto batch = msim::BatchedModulator::create(cfg, seeds);
    if (batch == nullptr) {
      fail("BatchedModulator::create refused the probe design");
    } else {
      msim::BatchedWorkspace bws;
      const std::vector<double> scale(static_cast<std::size_t>(w), amp);
      const dsp::SignalFn base = dsp::make_sine(1.0, fin);
      batch->run(base, scale, n, bws);
      for (int r = 0; r < reps + 2; ++r) {
        batched_s.push_back(timed(spans, "probe.msim.batched", "msim",
                                  [&] { batch->run(base, scale, n, bws); }));
      }
      for (double& s : batched_s) s /= w;  // per lane
    }
  }

  // --- dsp ----------------------------------------------------------------
  std::vector<double> fft_s, analysis_s;
  {
    constexpr std::size_t kFftN = 1 << 16;
    std::vector<double> x(kFftN);
    for (std::size_t i = 0; i < kFftN; ++i) x[i] = capture[i % capture.size()];
    const dsp::RealFftPlan plan(kFftN);
    std::vector<dsp::Complex> out(plan.out_size());
    constexpr int kBlock = 50;
    for (int r = 0; r < reps + 2; ++r) {
      fft_s.push_back(timed(spans, "probe.dsp.fft", "dsp", [&] {
                        for (int k = 0; k < kBlock; ++k) plan.forward(x, out);
                      }) /
                      kBlock);
    }
    const double fin = dsp::coherent_freq(1e6, cfg.fs_hz, n);
    for (int r = 0; r < reps + 2; ++r) {
      analysis_s.push_back(timed(spans, "probe.dsp.analysis", "dsp", [&] {
        const dsp::Spectrum sp = dsp::compute_spectrum(
            capture, cfg.fs_hz, 1.0, dsp::WindowKind::kHann);
        const dsp::SndrReport sndr =
            dsp::analyze_sndr(sp, spec.bandwidth_hz, fin);
        dsp::fit_noise_slope(sp, spec.bandwidth_hz * 1.2, cfg.fs_hz / 4.0);
        dsp::find_idle_tones(sp, sndr, fin * 3.0, spec.bandwidth_hz, 12.0);
      }));
    }
  }

  // --- core.batch ---------------------------------------------------------
  std::vector<double> util_v = traced.batch_utilization;
  std::vector<double> busy_v = traced.batch_busy_s;
  if (util_v.empty()) {
    // Workloads without Monte Carlo: one cold batch on the probe spec.
    core::EvalRequest req;
    req.kind = core::EvalKind::kMonteCarlo;
    req.spec = spec;
    req.monte_carlo.runs = in.mc_runs;
    req.monte_carlo.sim.n_samples = o.short_mode ? 4096 : 16384;
    core::ArtifactCache cache;
    core::EvalResponse resp;
    probe(spans, "probe.core.batch", "core.eval", fresh_ctx(&cache),
          [&](const core::ExecContext& c) { resp = core::evaluate(req, c); });
    if (!resp.ok) fail("Monte-Carlo probe failed");
    util_v.push_back(resp.monte_carlo.batch.utilization);
    busy_v.push_back(resp.monte_carlo.batch.busy_s);
  }

  // --- core.eval: the JSON bridge -----------------------------------------
  std::vector<double> parse_us, render_us;
  {
    core::ArtifactCache cache;
    for (const std::string& line : traced.sample_lines) {
      core::EvalRequest req;
      std::string err;
      if (!parse_request(line, &req, &err)) {
        fail("sample line did not parse: " + err);
        continue;
      }
      const core::EvalResponse resp = core::evaluate(req, fresh_ctx(&cache));
      constexpr int kBlock = 50;
      std::vector<double> p, q;
      for (int r = 0; r < reps + 2; ++r) {
        p.push_back(timed(spans, "probe.eval.parse", "core.eval", [&] {
                      for (int k = 0; k < kBlock; ++k) {
                        core::EvalRequest tmp;
                        parse_request(line, &tmp, &err);
                      }
                    }) /
                    kBlock);
        q.push_back(timed(spans, "probe.eval.render", "core.eval", [&] {
                      for (int k = 0; k < kBlock; ++k) {
                        const json::Value v = core::eval_result_to_json(resp);
                        json::dump(v);
                        core::eval_result_fingerprint(v);
                      }
                    }) /
                    kBlock);
      }
      parse_us.push_back(median(p) * 1e6);
      render_us.push_back(median(q) * 1e6);
    }
  }

  // --- core.serve: the handler without a transport ------------------------
  std::vector<double> handler_s;
  {
    // Handlers embed their per-request stage trace, so the handler span's
    // self time is the dispatch and JSON work alone.
    core::EvalServeOptions so;
    so.trace = true;
    auto call = [&](const core::ServeHandler& h, const std::string& line) {
      const std::string rid = "handler-" + std::to_string(handler_s.size());
      const double epoch = spans.now();
      const int span = spans.begin("probe.serve.handler", "core.serve", rid);
      const double t0 = now_s();
      const std::string resp = h(line);
      handler_s.push_back(now_s() - t0);
      spans.end(span);
      json::ParseResult pr = json::parse(resp);
      const json::Value* ok = pr.ok ? pr.value.find("ok") : nullptr;
      if (ok == nullptr || !ok->bool_or(false)) fail("handler probe failed");
      if (const json::Value* tr = pr.ok ? pr.value.find("trace") : nullptr) {
        spans.import_trace_json(*tr, epoch, span, rid);
      }
    };
    if (o.workload == "serve_mix") {
      // The first round's stream, one request at a time, on the serve
      // context (fresh cache and store).
      const std::string dir = o.work_dir + "/probe-handler-store";
      std::error_code ec;
      fs::remove_all(dir, ec);
      core::ArtifactStore store(dir);
      core::ArtifactCache cache;
      core::ExecContext ctx = fresh_ctx(&cache, 2);
      ctx.store = &store;
      const core::ServeHandler h = core::make_eval_handler(ctx, so);
      for (const std::string& line : serve_stream(o, 0).lines) call(h, line);
      fs::remove_all(dir, ec);
    } else {
      for (const std::string& line : traced.sample_lines) {
        core::ArtifactCache cache;
        call(core::make_eval_handler(fresh_ctx(&cache), so), line);
      }
    }
  }

  // --- core.store ---------------------------------------------------------
  std::vector<double> enc_s, dec_s, save_mbps, load_mbps;
  double store_hit_ratio = 0;
  if (run != nullptr && routed != nullptr) {
    const std::string dir = o.work_dir + "/probe-store";
    std::error_code ec;
    fs::remove_all(dir, ec);
    core::ArtifactStore store(dir);
    const auto& rc = core::run_result_codec();
    const auto& sc = core::synthesis_codec();
    std::vector<std::uint8_t> run_bytes, syn_bytes;
    for (int r = 0; r < reps + 2; ++r) {
      enc_s.push_back(timed(spans, "probe.store.encode", "core.store", [&] {
        core::serde::Writer wr, ws;
        rc.encode(*run, wr);
        sc.encode(*routed, ws);
        run_bytes = wr.bytes();
        syn_bytes = ws.bytes();
      }));
      dec_s.push_back(timed(spans, "probe.store.decode", "core.store", [&] {
        core::serde::Reader rr(run_bytes), rs(syn_bytes);
        if (rc.decode(rr) == nullptr || sc.decode(rs) == nullptr) {
          fail("store codec probe failed to decode its own bytes");
        }
      }));
    }
    const core::CacheKey run_key = core::sim_run_key(spec, sim);
    const core::CacheKey syn_key = core::synthesis_key(spec, in.synth);
    const double mb =
        static_cast<double>(run_bytes.size() + syn_bytes.size()) / (1 << 20);
    for (int r = 0; r < reps + 2; ++r) {
      const double ts = timed(spans, "probe.store.save", "core.store", [&] {
        store.save(run_key, rc.type_tag, rc.type_version, run_bytes);
        store.save(syn_key, sc.type_tag, sc.type_version, syn_bytes);
      });
      std::vector<std::uint8_t> a, b;
      const double tl = timed(spans, "probe.store.load", "core.store", [&] {
        if (!store.load(run_key, rc.type_tag, rc.type_version, &a) ||
            !store.load(syn_key, sc.type_tag, sc.type_version, &b)) {
          fail("store probe could not load its own records");
        }
      });
      if (a != run_bytes || b != syn_bytes) fail("store probe round trip");
      save_mbps.push_back(mb / ts);
      load_mbps.push_back(mb / tl);
    }
    fs::remove_all(dir, ec);

    if (o.workload == "serve_mix") {
      const double n_loads =
          static_cast<double>(traced.store_hits + traced.store_misses);
      store_hit_ratio =
          n_loads > 0 ? static_cast<double>(traced.store_hits) / n_loads : 0;
    } else if (!traced.sample_lines.empty()) {
      // Warm start of the workload's first request: a fresh cache over a
      // store written by a first process-like pass.
      const std::string wdir = o.work_dir + "/probe-warm-store";
      fs::remove_all(wdir, ec);
      core::ArtifactStore ws(wdir);
      core::EvalRequest req;
      std::string err;
      parse_request(traced.sample_lines.front(), &req, &err);
      core::ArtifactCache c1, c2;
      core::ExecContext ctx = fresh_ctx(&c1);
      ctx.store = &ws;
      core::evaluate(req, ctx);
      const core::ArtifactStoreStats s0 = ws.stats();
      ctx.cache = &c2;
      core::EvalResponse resp;
      probe(spans, "probe.store.warm_start", "core.eval", ctx,
            [&](const core::ExecContext& c) { resp = core::evaluate(req, c); });
      if (!resp.ok) fail("warm-start probe failed");
      const core::ArtifactStoreStats s1 = ws.stats();
      const double loads =
          static_cast<double>((s1.hits - s0.hits) + (s1.misses - s0.misses));
      store_hit_ratio =
          loads > 0 ? static_cast<double>(s1.hits - s0.hits) / loads : 0;
      fs::remove_all(wdir, ec);
    }
  } else {
    fail("store probe skipped: no artifacts to encode");
  }

  // --- Report -------------------------------------------------------------
  const double hits = static_cast<double>(traced.cache_hits);
  const double lookups =
      static_cast<double>(traced.cache_hits + traced.cache_misses);
  rep->add("msim.modulator_clocks_per_s",
           static_cast<double>(n) / median(scalar_s), "1/s");
  rep->add("msim.batched_lane_clocks_per_s",
           static_cast<double>(n) / median(batched_s), "1/s");
  rep->add("dsp.fft_msamples_per_s", (1 << 16) / median(fft_s) / 1e6,
           "Msample/s");
  rep->add("dsp.analysis_ms", median(analysis_s) * 1e3, "ms");
  rep->add("core.sim_run_ms", median(sim_run_s) * 1e3, "ms");
  rep->add("core.batch.utilization", median(util_v), "ratio");
  rep->add("core.batch.busy_s", median(busy_v), "s");
  rep->add("core.cache.bytes_mb", median(traced.cache_bytes) / (1 << 20),
           "MiB");
  rep->add("core.cache.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  rep->add("netlist.build_ms", median(build) * 1e3, "ms");
  rep->add("netlist.hdl_emit_ms", median(emit) * 1e3, "ms");
  rep->add("netlist.gate_sim_events_per_s", median(gate_rate), "1/s");
  rep->add("synth.floorplan_ms", median(fp_s) * 1e3, "ms");
  rep->add("synth.placement_ms", median(pl_s) * 1e3, "ms");
  rep->add("synth.route_ms", median(route_s) * 1e3, "ms");
  rep->add("synth.route_serial_ms", median(route_serial_s) * 1e3, "ms");
  rep->add("synth.wirelength_um", wirelength_um, "um");
  rep->add("synth.vias", vias, "count");
  rep->add("synth.overflow_edges", overflow, "count");
  rep->add("synth.drc_violations", drc, "count");
  rep->add("core.eval.parse_us", median(parse_us), "us");
  rep->add("core.eval.render_us", median(render_us), "us");
  rep->add("core.serve.handler_p50_ms", median(handler_s) * 1e3, "ms");
  rep->add("core.store.encode_ms", median(enc_s) * 1e3, "ms");
  rep->add("core.store.decode_ms", median(dec_s) * 1e3, "ms");
  rep->add("core.store.save_mb_per_s", median(save_mbps), "MiB/s");
  rep->add("core.store.load_mb_per_s", median(load_mbps), "MiB/s");
  rep->add("core.store.hit_ratio", store_hit_ratio, "ratio");
  rep->add("trace.overhead_pct", overhead_pct, "%");

  const std::map<std::string, double> self = spans.self_seconds_by_layer();
  for (const char* layer : {"msim", "dsp", "netlist", "synth", "core.flow",
                            "core.eval", "core.serve", "core.store"}) {
    const auto it = self.find(layer);
    rep->add(std::string(layer) + ".self_ms",
             it != self.end() ? it->second * 1e3 : 0.0, "ms");
  }

  const std::string path = o.out_dir + "/trace-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json";
  if (spans.write_chrome_trace(path)) {
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                spans.spans().size());
  } else {
    fail("could not write the chrome trace to " + path);
  }
}

}  // namespace perfbench
