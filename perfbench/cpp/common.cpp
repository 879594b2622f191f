// Statistics, request helpers and the span recorder.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "bench.h"
#include "util/json.h"
#include "util/trace.h"

namespace perfbench {

namespace core = vcoadc::core;
namespace json = vcoadc::util::json;

void Report::problem(std::string what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  problems.push_back(std::move(what));
}

std::uint64_t SeedRng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeedRng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t index) {
  SeedRng r(seed * 0x100000001b3ULL ^ tag * 0x9e3779b97f4a7c15ULL ^ index);
  r.next();
  return r.next();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string result_fp(const core::EvalResponse& resp) {
  return core::eval_result_fingerprint(core::eval_result_to_json(resp));
}

bool parse_request(const std::string& line, core::EvalRequest* out,
                   std::string* error) {
  json::ParseResult pr = json::parse(line);
  if (!pr.ok) {
    *error = pr.error;
    return false;
  }
  return core::eval_request_from_json(pr.value, out, error);
}

std::vector<std::string> reference_fps(const std::vector<std::string>& lines,
                                       int threads, int workers,
                                       void (*tweak)(core::EvalRequest*)) {
  std::vector<std::string> fps(lines.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < lines.size(); i = next++) {
      core::EvalRequest req;
      std::string err;
      if (!parse_request(lines[i], &req, &err)) continue;
      if (tweak != nullptr) tweak(&req);
      core::ArtifactCache cache;
      vcoadc::util::DiagSink sink;
      core::ExecContext ctx;
      ctx.threads = threads;
      ctx.cache = &cache;
      ctx.diag = &sink;
      const core::EvalResponse resp = core::evaluate(req, ctx);
      if (resp.ok) fps[i] = result_fp(resp);
    }
  };
  std::vector<std::thread> pool;
  for (int w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return fps;
}

// ---------------------------------------------------------------------------
// SpanRecorder

namespace {

/// Open benchmark spans of the calling thread (innermost last).
thread_local std::vector<int> t_open;

/// Layer a library stage span belongs to ("route" -> "synth", ...).
std::string layer_of_stage(const std::string& stage) {
  if (stage == "tech_library") return "tech";
  if (stage == "netlist" || stage == "hdl_emit" || stage == "gate_sim") {
    return "netlist";
  }
  if (stage == "floorplan" || stage == "placement" || stage == "route" ||
      stage == "drc" || stage == "synthesis" || stage == "timing" ||
      stage == "power_grid") {
    return "synth";
  }
  // The SimRun stage is the modulator run plus its spectrum analysis; the
  // library has no span between the two, so the pair is charged to msim.
  if (stage == "sim_run") return "msim";
  return "core.flow";  // report, amp_sweep, migrate
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::begin(const std::string& name, const std::string& layer,
                        const std::string& request_id) {
  const double t = now();
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_s = t;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.request_id = request_id.empty() && s.parent >= 0
                     ? spans_[static_cast<std::size_t>(s.parent)].request_id
                     : request_id;
  auto it = thread_lanes_.find(tid);
  if (it == thread_lanes_.end()) {
    it = thread_lanes_.emplace(tid, static_cast<int>(thread_lanes_.size()))
             .first;
  }
  s.tid = it->second;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  t_open.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_s = t;
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

int SpanRecorder::lane_for(double start_s, double end_s) {
  // Imported spans come from worker threads the library does not name;
  // greedy interval colouring keeps each viewer lane properly nested.
  for (std::size_t i = 0; i < lane_busy_until_.size(); ++i) {
    if (lane_busy_until_[i] <= start_s) {
      lane_busy_until_[i] = end_s;
      return 1000 + static_cast<int>(i);
    }
  }
  lane_busy_until_.push_back(end_s);
  return 1000 + static_cast<int>(lane_busy_until_.size() - 1);
}

void SpanRecorder::import_trace(const vcoadc::util::Trace& trace,
                                double epoch_s, int parent,
                                const std::string& request_id) {
  import_events(trace.events(), epoch_s, parent, request_id);
}

void SpanRecorder::import_trace_json(const json::Value& arr, double epoch_s,
                                     int parent,
                                     const std::string& request_id) {
  if (!arr.is_array()) return;
  std::vector<vcoadc::util::TraceEvent> evs;
  for (const json::Value& e : arr.array) {
    vcoadc::util::TraceEvent ev;
    const json::Value* name = e.find("name");
    const json::Value* start = e.find("start_ms");
    const json::Value* dur = e.find("dur_ms");
    const json::Value* par = e.find("parent");
    ev.name = name != nullptr ? name->string_or("?") : "?";
    ev.start_s = start != nullptr ? start->number_or(0) * 1e-3 : 0;
    ev.dur_s = dur != nullptr ? dur->number_or(0) * 1e-3 : 0;
    ev.parent = par != nullptr ? static_cast<int>(par->number_or(-1)) : -1;
    evs.push_back(std::move(ev));
  }
  import_events(evs, epoch_s, parent, request_id);
}

void SpanRecorder::import_events(
    const std::vector<vcoadc::util::TraceEvent>& evs, double epoch_s,
    int parent, const std::string& request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> index(evs.size(), -1);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const vcoadc::util::TraceEvent& e = evs[i];
    // Events come in begin order, so a parent always precedes its child.
    const bool root = e.parent < 0 || e.parent >= static_cast<int>(i);
    const int p = root ? parent : index[static_cast<std::size_t>(e.parent)];
    Span s;
    s.name = e.name;
    s.layer = layer_of_stage(e.name);
    s.request_id = request_id;
    s.start_s = epoch_s + e.start_s;
    s.end_s = s.start_s + e.dur_s;
    s.parent = p;
    s.tid = root ? lane_for(s.start_s, s.end_s)
                 : spans_[static_cast<std::size_t>(p)].tid;
    spans_.push_back(std::move(s));
    index[i] = static_cast<int>(spans_.size() - 1);
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) {
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<double, double>> iv;
    for (std::size_t c : children[i]) {
      iv.emplace_back(std::max(all[c].start_s, s.start_s),
                      std::min(all[c].end_s, s.end_s));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  json::Value events = json::Value::make_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    json::Value ev = json::Value::make_object();
    ev.set("name", json::Value::make_string(s.name));
    ev.set("cat", json::Value::make_string(s.layer));
    ev.set("ph", json::Value::make_string("X"));
    ev.set("ts", json::Value::make_number(s.start_s * 1e6));
    ev.set("dur", json::Value::make_number((s.end_s - s.start_s) * 1e6));
    ev.set("pid", json::Value::make_number(1));
    ev.set("tid", json::Value::make_number(s.tid));
    json::Value args = json::Value::make_object();
    args.set("span", json::Value::make_number(static_cast<double>(i)));
    args.set("parent", json::Value::make_number(s.parent));
    args.set("request_id", json::Value::make_string(s.request_id));
    ev.set("args", std::move(args));
    events.push(std::move(ev));
  }
  json::Value doc = json::Value::make_object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", json::Value::make_string("ms"));
  std::ofstream f(path);
  f << json::dump(doc) << "\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
