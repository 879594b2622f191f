// Shared pieces of the repository benchmark: options, the seeded input
// generator's RNG, timing and order statistics, the span recorder of the
// traced run, and the three workload runners.
//
// The benchmark only calls the library's public entry points
// (core::evaluate, core::Flow, core::make_eval_handler + serve_socket, and
// the per-layer functions the traced run probes). It adds no spans inside
// the library: the traced run wraps its own spans around those calls and
// imports the library's existing util::Trace stage spans beneath them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifact_cache.h"
#include "core/eval.h"

namespace vcoadc::util {
class Trace;
struct TraceEvent;
}

namespace perfbench {

// ---------------------------------------------------------------------------
// Options and results

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs (a few requests of small designs): the benchmark's own
  /// tests use it to check that every metric is printed and every check
  /// runs, in seconds.
  bool short_mode = false;
  /// Makes the first measured request invalid (a one-slice spec), so the
  /// benchmark's own tests can check that a failed request fails the run.
  bool inject_failure = false;
  /// Directory for the trace file; each process keeps its serve socket and
  /// stores in its own `work_dir` beneath it, so runs may overlap.
  std::string out_dir = ".bench_build/perfbench-out";
  std::string work_dir = out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark invocation reports.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< ok=false responses or transport errors
  /// Correctness problems (reference mismatches, DRC violations, ...).
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what);
};

// ---------------------------------------------------------------------------
// Seeded inputs. splitmix64, owned by the benchmark so the inputs never
// depend on the library's own generator.

class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t s_;
};

/// Mixes a workload seed with a stream tag and an index into a child seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t index);

// ---------------------------------------------------------------------------
// Timing and order statistics

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Request helpers

/// Renders a request's result exactly as the serve protocol does and
/// returns its result_fp.
std::string result_fp(const vcoadc::core::EvalResponse& resp);

/// `line` with its spec made invalid (one slice): evaluate() refuses it.
std::string with_bad_spec(const std::string& line);

/// Parses one NDJSON request line; false (with `*error`) when malformed.
bool parse_request(const std::string& line, vcoadc::core::EvalRequest* out,
                   std::string* error);

/// Evaluates `lines` concurrently on `workers` threads, each request on a
/// fresh cache with `threads` engine threads; `tweak` adjusts a request
/// before it runs (the reference settings). Returns result_fp per line, ""
/// for a request that failed.
std::vector<std::string> reference_fps(
    const std::vector<std::string>& lines, int threads, int workers,
    void (*tweak)(vcoadc::core::EvalRequest*));

// ---------------------------------------------------------------------------
// Spans of the traced run

struct Span {
  std::string name;
  std::string layer;       ///< layer the span's self time is charged to
  std::string request_id;  ///< shared by every span of one request
  double start_s = 0;      ///< seconds since the recorder's epoch
  double end_s = 0;
  int parent = -1;         ///< index of the enclosing span; -1 = root
  int tid = 0;             ///< trace-viewer lane
};

/// In-memory span sink. Spans are kept until the run ends, then written
/// once as Chrome trace-event JSON. Thread-safe.
class SpanRecorder {
 public:
  SpanRecorder();

  double now() const;
  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread has open. Returns the span index.
  int begin(const std::string& name, const std::string& layer,
            const std::string& request_id = {});
  void end(int index);

  /// Imports the library's stage spans of one request, recorded in `trace`
  /// whose epoch sits at `epoch_s` on this recorder's clock; root stage
  /// spans become children of `parent`.
  void import_trace(const vcoadc::util::Trace& trace, double epoch_s,
                    int parent, const std::string& request_id);
  /// Same, from the "trace" array a serve response embeds.
  void import_trace_json(const vcoadc::util::json::Value& arr,
                         double epoch_s, int parent,
                         const std::string& request_id);

  std::vector<Span> spans() const;
  /// Self time (span duration minus the union of its children's
  /// intervals) summed per layer.
  std::map<std::string, double> self_seconds_by_layer() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  void import_events(const std::vector<vcoadc::util::TraceEvent>& evs,
                     double epoch_s, int parent,
                     const std::string& request_id);
  int lane_for(double start_s, double end_s);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<double> lane_busy_until_;  ///< imported-span lanes
  std::map<std::uint64_t, int> thread_lanes_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span; a null recorder makes it a no-op, so the untraced passes run
/// the same code without tracing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             const std::string& layer, const std::string& request_id = {})
      : rec_(rec), index_(rec ? rec->begin(name, layer, request_id) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int index_;
};

// ---------------------------------------------------------------------------
// Workloads

/// Everything a pass measured, for the end-to-end metrics and for the
/// traced run's per-layer metrics.
struct PassResult {
  double warmup_s = 0;  ///< the untimed warm-up before the measured phase
  std::vector<double> latency_s;   ///< one per measured request
  double draws = 0;                ///< mc_yield: Monte-Carlo draws run
  /// Draws per second of each request (mc_yield), requests per second of
  /// each round (serve_mix) or of the whole pass (synth_route, whose five
  /// requests a round are too few for a median); their median is the
  /// reported throughput, so a short stall of the host moves one sample,
  /// not the figure.
  std::vector<double> rates;
  std::vector<double> warm_latency_s;  ///< serve_mix warm-start phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  /// Peak RSS when the measured phase ended (before the reference runs).
  double peak_rss_mb = 0;
  // Layer counters gathered from the pass.
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::vector<double> cache_bytes;
  std::uint64_t store_hits = 0, store_misses = 0;
  std::vector<double> batch_utilization, batch_busy_s;
  /// A few of the pass's request lines, for the traced run's probes.
  std::vector<std::string> sample_lines;

  double throughput() const { return median(rates); }
};

/// One pass of `o.workload`: an untimed warm-up, `seconds` of measured
/// closed-loop requests, then the correctness checks. `spans` null =
/// untraced.
PassResult run_pass(const Options& o, double seconds, SpanRecorder* spans);

/// Seeded inputs shared by the workload runners and the probes. mc_yield
/// request i uses seed0 number i % kMcSeeds of the run, so the serial
/// reference evaluates kMcSeeds requests however long the run is.
constexpr std::size_t kMcSeeds = 8;
std::vector<std::string> mc_requests(const Options& o, std::size_t first,
                                     std::size_t count);
std::vector<std::string> synth_round(const Options& o, std::size_t round);

/// The serve_mix stream of one round: request lines (with ids) and, per
/// line, the index of its distinct request body.
struct ServeStream {
  std::vector<std::string> lines;
  std::vector<std::size_t> distinct_of;
  std::vector<std::string> distinct;  ///< one line per distinct body
};
ServeStream serve_stream(const Options& o, std::size_t round);

/// Spec + options the traced run's layer probes use for this workload.
struct ProbeInputs {
  vcoadc::core::AdcSpec spec;
  vcoadc::synth::SynthesisOptions synth;
  std::size_t n_samples = 1 << 16;
  int mc_runs = 32;
};
ProbeInputs probe_inputs(const Options& o);

/// One start-up of the workload's serving state (lazy tables, FFT plans,
/// context; for serve_mix also the store, the server and both client
/// connections), in seconds; negative when start-up failed. Builds no
/// artifact.
double measure_setup(const Options& o);

/// The traced run: per-layer metrics into `report`.
void run_traced(const Options& o, Report* report);

}  // namespace perfbench
