// Seeded request generators. Every input is a pure function of the
// workload seed (and the request/round index), rendered as the serve
// protocol's NDJSON request lines; the program only ever sees those lines.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "bench.h"
#include "util/json.h"

namespace perfbench {

namespace core = vcoadc::core;
namespace json = vcoadc::util::json;

namespace {

// Stream tags for derive_seed.
constexpr std::uint64_t kTagMc = 1;
constexpr std::uint64_t kTagSynth = 2;
constexpr std::uint64_t kTagServe = 3;

json::Value num(double v) { return json::Value::make_number(v); }

json::Value spec_json(const core::AdcSpec& s) {
  json::Value v = json::Value::make_object();
  v.set("node", num(s.node_nm));
  v.set("slices", num(s.num_slices));
  v.set("fs", num(s.fs_hz));
  v.set("bw", num(s.bandwidth_hz));
  v.set("dac_fragments", num(s.dac_fragments));
  v.set("seed", num(static_cast<double>(s.seed)));
  return v;
}

std::string request_line(const char* cmd, const std::string& id,
                         const core::AdcSpec& spec, json::Value options) {
  json::Value v = json::Value::make_object();
  v.set("cmd", json::Value::make_string(cmd));
  if (!id.empty()) v.set("id", json::Value::make_string(id));
  v.set("spec", spec_json(spec));
  v.set("options", std::move(options));
  return json::dump(v);
}

/// Seeds small enough to cross the JSON number bridge exactly.
double wire_seed(std::uint64_t s) {
  return static_cast<double>(s % (1ULL << 40) + 1);
}

/// Fisher-Yates shuffle of [0, n).
std::vector<std::size_t> permutation(std::size_t n, SeedRng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

/// Lowers fs in 1 MHz steps until the ring is realizable at this node.
void make_legal(core::AdcSpec* s) {
  while (!s->validate().empty() && s->fs_hz > 50e6) s->fs_hz -= 1e6;
}

}  // namespace

// mc_yield: the paper's 40 nm, 16-slice design; each request is one
// Monte-Carlo batch, its seed0 one of the run's kMcSeeds.
std::vector<std::string> mc_requests(const Options& o, std::size_t first,
                                     std::size_t count) {
  const int runs = o.short_mode ? 8 : 32;
  const double n_samples = o.short_mode ? 4096 : 65536;
  std::vector<std::string> lines;
  for (std::size_t i = first; i < first + count; ++i) {
    json::Value opts = json::Value::make_object();
    opts.set("runs", num(runs));
    opts.set("n_samples", num(n_samples));
    opts.set("seed0",
             num(wire_seed(derive_seed(o.seed, kTagMc, i % kMcSeeds))));
    lines.push_back(request_line("monte_carlo", "mc-" + std::to_string(i),
                                 core::AdcSpec::paper_40nm(),
                                 std::move(opts)));
  }
  return lines;
}

// synth_route: one round is one request per size class, in a seeded
// order, so every round (and every run) covers the same spread of sizes.
std::vector<std::string> synth_round(const Options& o, std::size_t round) {
  static const int kFull[] = {48, 52, 56, 60, 64};
  static const int kShort[] = {12, 16};
  const int* classes = o.short_mode ? kShort : kFull;
  const std::size_t n = o.short_mode ? 2 : 5;
  SeedRng rng(derive_seed(o.seed, kTagSynth, round));
  const std::vector<std::size_t> order = permutation(n, rng);
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < n; ++k) {
    core::AdcSpec spec = core::AdcSpec::paper_40nm();
    spec.num_slices = classes[order[k]];
    spec.fs_hz = std::round(rng.uniform(300, 400)) * 1e6;
    spec.seed = static_cast<std::uint64_t>(wire_seed(rng.next()));
    make_legal(&spec);
    json::Value opts = json::Value::make_object();
    opts.set("seed", num(static_cast<double>(rng.below(1000) + 1)));
    lines.push_back(request_line(
        "synthesize",
        "syn-" + std::to_string(round) + "-" + std::to_string(k), spec,
        std::move(opts)));
  }
  return lines;
}

// serve_mix: a plain seeded draw. A round deals each of the six kinds
// equally often in shuffled order, and each request draws its spec from a
// pool of four with popularity 1 : 1/2 : 1/3 : 1/4; a (kind, spec) body
// drawn again is a cache hit, so the stream mixes cold builds and hits as
// the draw falls. The pool holds one 8-, two 12- and one 16-slice design;
// the seed picks which size is most popular and each spec's clock and
// mismatch seed.
ServeStream serve_stream(const Options& o, std::size_t round) {
  constexpr std::size_t kKinds = 6;
  static const int kFull[] = {8, 12, 16, 12};
  static const int kShort[] = {8, 8};
  const int* sizes = o.short_mode ? kShort : kFull;
  const std::size_t pool = o.short_mode ? 2 : 4;
  const std::size_t n_lines = o.short_mode ? 24 : 96;
  SeedRng rng(derive_seed(o.seed, kTagServe, round));
  const std::vector<std::size_t> rank = permutation(pool, rng);
  std::vector<core::AdcSpec> specs;
  for (std::size_t p = 0; p < pool; ++p) {
    core::AdcSpec s = core::AdcSpec::paper_40nm();
    s.num_slices = sizes[rank[p]];
    s.fs_hz = std::round(rng.uniform(500, 750)) * 1e6;
    s.seed = static_cast<std::uint64_t>(wire_seed(rng.next()));
    make_legal(&s);
    specs.push_back(s);
  }
  const double mc_samples = o.short_mode ? 4096 : 16384;
  auto body = [&](std::size_t kind, std::size_t p,
                  const std::string& id) -> std::string {
    json::Value opts = json::Value::make_object();
    switch (kind) {
      case 0:
        opts.set("n_samples", num(mc_samples));
        return request_line("datasheet", id, specs[p], std::move(opts));
      case 1:
        opts.set("runs", num(16));
        opts.set("n_samples", num(mc_samples));
        opts.set("seed0", num(static_cast<double>(1000 + 97 * p)));
        return request_line("monte_carlo", id, specs[p], std::move(opts));
      case 2:
        opts.set("seed", num(static_cast<double>(p + 1)));
        return request_line("synthesize", id, specs[p], std::move(opts));
      case 3:
        opts.set("n_samples", num(mc_samples / 2));
        return request_line("corner_sweep", id, specs[p], std::move(opts));
      case 4:
        return request_line("hdl_emit", id, specs[p], std::move(opts));
      default:
        opts.set("n_samples", num(4096));
        return request_line("gate_sim", id, specs[p], std::move(opts));
    }
  };
  double total = 0;
  for (std::size_t p = 0; p < pool; ++p) total += 1.0 / static_cast<double>(p + 1);
  ServeStream st;
  std::vector<std::size_t> distinct_of_combo(kKinds * pool, SIZE_MAX);
  const std::vector<std::size_t> deal = permutation(n_lines, rng);
  for (std::size_t i = 0; i < n_lines; ++i) {
    const std::size_t kind = deal[i] % kKinds;
    double pick = rng.uniform(0, total);
    std::size_t p = 0;
    while (p + 1 < pool && (pick -= 1.0 / static_cast<double>(p + 1)) >= 0) ++p;
    std::size_t& d = distinct_of_combo[kind * pool + p];
    if (d == SIZE_MAX) {
      d = st.distinct.size();
      st.distinct.push_back(body(kind, p, ""));
    }
    st.lines.push_back(
        body(kind, p, "s" + std::to_string(round) + "-" + std::to_string(i)));
    st.distinct_of.push_back(d);
  }
  return st;
}

std::string with_bad_spec(const std::string& line) {
  json::ParseResult pr = json::parse(line);
  for (auto& [key, spec] : pr.value.object) {
    if (key != "spec") continue;
    for (auto& [field, value] : spec.object) {
      if (field == "slices") value = num(1);
    }
  }
  return json::dump(pr.value);
}

ProbeInputs probe_inputs(const Options& o) {
  ProbeInputs in;
  std::string line;
  if (o.workload == "synth_route") {
    line = synth_round(o, 0).front();
  } else if (o.workload == "serve_mix") {
    line = serve_stream(o, 0).distinct.front();
  } else {
    line = mc_requests(o, 0, 1).front();
  }
  core::EvalRequest req;
  std::string err;
  if (parse_request(line, &req, &err)) {
    in.spec = req.spec;
    if (req.kind == core::EvalKind::kSynthesize) in.synth = req.synthesis;
  }
  in.n_samples = o.short_mode ? 4096 : 65536;
  in.mc_runs = o.short_mode ? 8 : 32;
  return in;
}

}  // namespace perfbench
