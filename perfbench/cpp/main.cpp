// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <mc_yield|synth_route|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--short] [--out <dir>]
//             [--git-sha <sha>] [--inject-failure]
//   perfbench --setup-only --workload <w> [--short] [--out <dir>]
//
// Prints a host fingerprint, the workload's end-to-end figures by name and
// unit, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exits 1 when any correctness check failed or any
// request failed.
// perfbench/run.py builds this program and adds the set-up time.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "util/json.h"
#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mc_yield|synth_route|serve_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--short] [--out <dir>] [--git-sha <sha>] "
               "[--inject-failure]\n"
               "       perfbench --setup-only --workload <w> [--short] "
               "[--out <dir>]\n",
               why);
  return 2;
}

void print_figure(const char* name, double value, const char* unit,
                  const std::string& note = {}) {
  std::printf("%-22s %14.6g %-6s %s\n", name, value, unit, note.c_str());
}

/// The untraced run: one pass, its user-facing figures and the end-to-end
/// metrics.
void run_untraced(const Options& o, Report* rep) {
  const PassResult p = run_pass(o, o.seconds, nullptr);
  const double rss = p.peak_rss_mb;
  rep->attempted += p.attempted;
  rep->failed += p.failed;
  for (const std::string& s : p.problems) rep->problem(s);

  const std::string n = "n=" + std::to_string(p.latency_s.size());
  const double p50 = median(p.latency_s) * 1e3;
  if (o.workload == "mc_yield") {
    print_figure("mc_draws_per_s", p.throughput(), "1/s",
                 "draws=" + std::to_string(static_cast<long>(p.draws)));
  } else if (o.workload == "synth_route") {
    print_figure("synth_p50_ms", p50, "ms", n);
  } else {
    print_figure("serve_p50_ms", p50, "ms", n);
    print_figure("serve_p95_ms", quantile(p.latency_s, 0.95) * 1e3, "ms", n);
    print_figure("serve_req_per_s", p.throughput(), "1/s");
    print_figure("warm_start_p50_ms", median(p.warm_latency_s) * 1e3, "ms",
                 "n=" + std::to_string(p.warm_latency_s.size()));
  }
  print_figure("warm_up_ms", p.warmup_s * 1e3, "ms", "untimed, before the measured phase");
  print_figure("peak_rss_mb", rss, "MiB");
  print_figure("failed_ratio",
               p.attempted > 0 ? static_cast<double>(p.failed) /
                                     static_cast<double>(p.attempted)
                               : 0.0,
               "ratio",
               std::to_string(p.failed) + "/" + std::to_string(p.attempted));

  rep->add("throughput_per_s", p.throughput(), "1/s");
  rep->add("peak_rss_mb", rss, "MiB");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool setup_only = false;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--short") {
      o.short_mode = true;
    } else if (a == "--inject-failure") {
      o.inject_failure = true;
    } else if (a == "--setup-only") {
      setup_only = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--out" || a == "--git-sha") &&
               (v = value()) != nullptr) {
      if (a == "--workload") o.workload = v;
      if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") o.seconds = std::atof(v);
      if (a == "--trace") o.trace = std::atoi(v) != 0;
      if (a == "--out") o.out_dir = v;
      if (a == "--git-sha") git_sha = v;
    } else {
      return usage(("bad argument " + a).c_str());
    }
  }
  if (o.workload != "mc_yield" && o.workload != "synth_route" &&
      o.workload != "serve_mix") {
    return usage("unknown workload");
  }
  if (!(o.seconds > 0)) return usage("--seconds must be positive");
  namespace fs = std::filesystem;
  std::error_code ec;
  o.work_dir = o.out_dir + "/" + o.workload + "-" + std::to_string(getpid());
  fs::create_directories(o.work_dir, ec);
  struct RemoveWorkDir {
    std::string dir;
    ~RemoveWorkDir() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } remove_work_dir{o.work_dir};

  if (setup_only) {
    const double s = measure_setup(o);
    if (s < 0) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      return 1;
    }
    std::printf("setup_s %.9f\n", s);
    return 0;
  }

  std::printf("host: simd=[%s] hw_threads=%u build_type=%s git_sha=%s\n",
              vcoadc::util::simd::runtime_summary().c_str(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              git_sha.c_str());
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.short_mode ? " (short)" : "");

  Report rep;
  if (o.trace) {
    run_traced(o, &rep);
  } else {
    run_untraced(o, &rep);
  }
  if (rep.failed > 0) {
    rep.problem(std::to_string(rep.failed) + " of " +
                std::to_string(rep.attempted) +
                " requests failed (ok=false, no result_fp or a transport "
                "error)");
  }
  const bool correct = rep.problems.empty();
  if (!correct) {
    std::printf("correctness: %zu check(s) failed\n", rep.problems.size());
  }

  namespace json = vcoadc::util::json;
  json::Value metrics = json::Value::make_object();
  for (const Metric& m : rep.metrics) {
    json::Value v = json::Value::make_object();
    v.set("value", json::Value::make_number(std::isfinite(m.value) ? m.value
                                                                   : 0.0));
    v.set("unit", json::Value::make_string(m.unit));
    metrics.set(m.name, std::move(v));
  }
  json::Value out = json::Value::make_object();
  out.set("correct", json::Value::make_bool(correct));
  out.set("attempted",
          json::Value::make_number(static_cast<double>(rep.attempted)));
  out.set("failed", json::Value::make_number(static_cast<double>(rep.failed)));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", json::dump(out).c_str());
  return correct ? 0 : 1;
}
