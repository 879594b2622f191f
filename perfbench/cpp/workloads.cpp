// The three closed-loop workloads. Each pass measures for its time budget
// (in whole requests, rounds for the round-structured workloads), then
// checks every result against an independent reference.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/artifact_store.h"
#include "core/serve_loop.h"
#include "dsp/fft.h"
#include "tech/tech_node.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/net.h"
#include "util/trace.h"

namespace perfbench {

namespace core = vcoadc::core;
namespace json = vcoadc::util::json;
namespace net = vcoadc::util::net;
namespace fs = std::filesystem;

namespace {

/// One in-process evaluate() of a request line on a fresh cache: the cold
/// path a user pays on every run. Records the request (and, when traced,
/// the library's stage spans under a benchmark "request" span).
struct ColdEval {
  bool ok = false;
  double seconds = 0;
  std::string fp;
  core::EvalResponse resp;
  core::ArtifactCacheStats cache;
};

ColdEval cold_evaluate(const std::string& line, SpanRecorder* spans,
                       PassResult* out) {
  ColdEval r;
  core::EvalRequest req;
  std::string err;
  ++out->attempted;
  if (!parse_request(line, &req, &err)) {
    ++out->failed;
    out->problems.push_back("request did not parse: " + err);
    return r;
  }
  core::ArtifactCache cache;
  vcoadc::util::DiagSink sink;
  vcoadc::util::Trace trace;
  core::ExecContext ctx;
  ctx.threads = 0;
  ctx.cache = &cache;
  ctx.diag = &sink;
  ctx.trace = spans != nullptr ? &trace : nullptr;
  const double epoch = spans != nullptr ? spans->now() : 0.0;
  {
    ScopedSpan span(spans, std::string("eval:") + core::eval_kind_name(req.kind),
                    "core.eval", req.id);
    const double t0 = now_s();
    r.resp = core::evaluate(req, ctx);
    r.seconds = now_s() - t0;
    if (spans != nullptr) spans->import_trace(trace, epoch, span.index(), req.id);
  }
  r.ok = r.resp.ok;
  r.cache = cache.stats();
  if (r.ok) r.fp = result_fp(r.resp);
  if (r.fp.empty()) {
    r.ok = false;
    ++out->failed;
  }
  out->latency_s.push_back(r.seconds);
  out->cache_hits += r.cache.hits;
  out->cache_misses += r.cache.misses;
  out->cache_bytes.push_back(static_cast<double>(r.cache.bytes));
  return r;
}

void check_against(const std::vector<std::string>& lines,
                   const std::vector<std::string>& got,
                   const std::vector<std::string>& want, const char* what,
                   PassResult* out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (got[i].empty()) continue;  // counted as failed, which fails the run
    if (want[i] != got[i]) {
      out->problems.push_back(std::string(what) + " mismatch on " +
                              lines[i].substr(0, 120));
    }
  }
}

/// Index of the seeded inputs each pass runs once, untimed, before its
/// measured phase: the process's first requests pay one-time costs (heap
/// growth, first-touch page faults) that a long-running caller does not.
constexpr std::size_t kWarmUp = std::size_t{1} << 30;

double warm_up(const std::string& line) {
  PassResult untimed;
  return cold_evaluate(line, nullptr, &untimed).seconds;
}

PassResult run_mc_yield(const Options& o, double seconds, SpanRecorder* spans) {
  PassResult out;
  out.warmup_s = warm_up(mc_requests(o, kWarmUp, 1).front());
  std::vector<std::string> lines, fps;
  const double deadline = now_s() + seconds;
  do {
    std::string line = mc_requests(o, lines.size(), 1).front();
    if (o.inject_failure && lines.empty()) line = with_bad_spec(line);
    ColdEval r = cold_evaluate(line, spans, &out);
    if (r.ok) {
      const double draws = static_cast<double>(r.resp.monte_carlo.sndr_db.size());
      out.draws += draws;
      out.rates.push_back(draws / r.seconds);
      out.batch_utilization.push_back(r.resp.monte_carlo.batch.utilization);
      out.batch_busy_s.push_back(r.resp.monte_carlo.batch.busy_s);
    }
    lines.push_back(line);
    fps.push_back(r.fp);
  } while (now_s() < deadline);
  out.peak_rss_mb = peak_rss_mb();
  out.sample_lines.assign(lines.begin(),
                          lines.begin() + std::min<std::size_t>(3, lines.size()));
  // Reference: the serial scalar path (threads=1, batch_width=1) on the
  // same seeds, four requests at a time; request i repeats the body of
  // request i % kMcSeeds.
  const std::vector<std::string> distinct_ref = reference_fps(
      mc_requests(o, 0, std::min(kMcSeeds, lines.size())), 1, 4,
      [](core::EvalRequest* r) {
        r->monte_carlo.batch_width = 1;
      });
  std::vector<std::string> ref;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ref.push_back(distinct_ref[i % kMcSeeds]);
  }
  check_against(lines, fps, ref, "mc_yield result_fp vs threads=1 scalar",
                &out);
  return out;
}

PassResult run_synth_route(const Options& o, double seconds,
                           SpanRecorder* spans) {
  PassResult out;
  out.warmup_s = warm_up(synth_round(o, kWarmUp).front());
  std::vector<std::string> lines, fps;
  const double deadline = now_s() + seconds;
  std::size_t round = 0;
  double total_s = 0;
  do {
    std::vector<std::string> batch = synth_round(o, round);
    if (o.inject_failure && round == 0) batch[0] = with_bad_spec(batch[0]);
    for (const std::string& line : batch) {
      ColdEval r = cold_evaluate(line, spans, &out);
      total_s += r.seconds;
      if (r.ok && r.resp.synthesis != nullptr) {
        const std::size_t drc = r.resp.synthesis->drc.violations.size();
        if (drc != 0) {
          out.problems.push_back(std::to_string(drc) +
                                 " DRC violations on " + line);
        }
      }
      lines.push_back(line);
      fps.push_back(r.fp);
    }
    ++round;
  } while (now_s() < deadline);
  out.rates.push_back(static_cast<double>(lines.size()) / total_s);
  out.peak_rss_mb = peak_rss_mb();
  out.sample_lines.assign(lines.begin(),
                          lines.begin() + std::min<std::size_t>(3, lines.size()));
  const std::vector<std::string> ref = reference_fps(lines, 1, 4, nullptr);
  check_against(lines, fps, ref, "synth_route result_fp vs threads=1", &out);
  return out;
}

// ---------------------------------------------------------------------------
// serve_mix

/// An in-process serve_socket over `handler`, on a background thread.
class Server {
 public:
  Server(const std::string& sock_path, core::ServeHandler handler)
      : handler_(std::move(handler)) {
    ep_ = net::parse_endpoint(sock_path);
    listener_ = net::Listener::listen(ep_, &error_);
    if (!listener_.valid()) return;
    core::SocketServeOptions so;
    so.poll_ms = 5;
    so.stop = &stop_;
    thread_ = std::thread(
        [this, so] { result_ = core::serve_socket(listener_, handler_, so); });
  }
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  bool ok() const { return listener_.valid(); }
  const std::string& error() const { return error_; }
  const net::Endpoint& endpoint() const { return ep_; }

  void stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
      listener_.close();
    }
  }

 private:
  core::ServeHandler handler_;
  net::Endpoint ep_;
  net::Listener listener_;
  std::string error_;
  std::atomic<bool> stop_{false};
  core::ServeResult result_;
  std::thread thread_;  // last: it uses every member above
};

struct Reply {
  bool ok = false;
  double seconds = 0;
  std::string fp;
};

/// Closed loop: `clients` connections each take the next unsent line and
/// wait for its reply before taking another.
std::vector<Reply> drive_clients(const net::Endpoint& ep,
                                 const std::vector<std::string>& lines,
                                 int clients, SpanRecorder* spans) {
  std::vector<Reply> replies(lines.size());
  std::atomic<std::size_t> next{0};
  auto client = [&] {
    std::string err;
    net::Connection conn = net::dial(ep, &err);
    for (std::size_t i = next++; i < lines.size(); i = next++) {
      Reply& r = replies[i];
      if (!conn.valid()) continue;  // transport error: r.ok stays false
      std::string rid, cmd;
      if (spans != nullptr) {
        json::ParseResult req = json::parse(lines[i]);
        if (const json::Value* id = req.value.find("id")) rid = id->string_or("");
        if (const json::Value* c = req.value.find("cmd")) cmd = c->string_or("");
      }
      ScopedSpan span(spans, "serve:" + cmd, "core.serve", rid);
      const double epoch = spans != nullptr ? spans->now() : 0.0;
      const double t0 = now_s();
      std::string resp;
      const bool sent = conn.write_line(lines[i]);
      const bool got =
          sent && conn.read_line(&resp, nullptr, 50) ==
                      net::Connection::ReadStatus::kLine;
      r.seconds = now_s() - t0;
      if (!got) continue;
      json::ParseResult pr = json::parse(resp);
      if (!pr.ok) continue;
      const json::Value* ok = pr.value.find("ok");
      const json::Value* fp = pr.value.find("result_fp");
      if (fp != nullptr) r.fp = fp->string_or("");
      r.ok = ok != nullptr && ok->bool_or(false) && !r.fp.empty();
      if (spans != nullptr) {
        if (const json::Value* tr = pr.value.find("trace")) {
          spans->import_trace_json(*tr, epoch, span.index(), rid);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client);
  client();
  for (std::thread& t : threads) t.join();
  return replies;
}

PassResult run_serve_mix(const Options& o, double seconds, SpanRecorder* spans) {
  PassResult out;
  const std::string sock = o.work_dir + "/serve.sock";
  const std::string dir = o.work_dir + "/serve-store";
  std::error_code ec;
  core::EvalServeOptions so;
  so.trace = spans != nullptr;
  // Serves `lines` over two connections on a fresh server whose context
  // runs two engine threads per request (at most four threads busy).
  auto serve = [&](core::ExecContext ctx, const std::vector<std::string>& lines,
                   SpanRecorder* spans, std::vector<Reply>* replies) {
    Server server(sock, core::make_eval_handler(ctx, so));
    if (!server.ok()) {
      out.problems.push_back("serve listen failed: " + server.error());
      return false;
    }
    *replies = drive_clients(server.endpoint(), lines, 2, spans);
    return true;
  };
  core::ExecContext base;
  base.threads = 2;

  {  // Untimed warm-up round over its own store.
    fs::remove_all(dir, ec);
    core::ArtifactStore store(dir);
    core::ArtifactCache cache;
    core::ExecContext ctx = base;
    ctx.cache = &cache;
    ctx.store = &store;
    std::vector<Reply> replies;
    const double t0 = now_s();
    serve(ctx, serve_stream(o, kWarmUp).lines, nullptr, &replies);
    out.warmup_s = now_s() - t0;
  }

  struct RoundRecord {
    ServeStream stream;
    std::vector<Reply> first;
  };
  std::vector<RoundRecord> rounds;
  const double deadline = now_s() + seconds;
  do {
    RoundRecord rec;
    rec.stream = serve_stream(o, rounds.size());
    if (o.inject_failure && rounds.empty()) {
      rec.stream.lines[0] = with_bad_spec(rec.stream.lines[0]);
    }
    fs::remove_all(dir, ec);
    core::ArtifactStore store(dir);

    // Phase 1: the stream over an empty store (the write path).
    core::ArtifactCache cache;
    core::ExecContext ctx = base;
    ctx.cache = &cache;
    ctx.store = &store;
    const double t0 = now_s();
    if (!serve(ctx, rec.stream.lines, spans, &rec.first)) break;
    out.rates.push_back(static_cast<double>(rec.stream.lines.size()) /
                        (now_s() - t0));
    const core::ArtifactCacheStats cs = cache.stats();
    out.cache_hits += cs.hits;
    out.cache_misses += cs.misses;
    out.cache_bytes.push_back(static_cast<double>(cs.bytes));
    for (const Reply& r : rec.first) {
      ++out.attempted;
      if (!r.ok) ++out.failed;
      out.latency_s.push_back(r.seconds);
    }

    // Phase 2 (warm start): a fresh cache and handler over the same store
    // replay the distinct requests (the read path).
    core::ArtifactCache warm_cache;
    ctx.cache = &warm_cache;
    std::vector<std::string> replay;
    for (std::size_t d = 0; d < rec.stream.distinct.size(); ++d) {
      json::ParseResult pr = json::parse(rec.stream.distinct[d]);
      pr.value.set("id", json::Value::make_string(
                             "w" + std::to_string(rounds.size()) + "-" +
                             std::to_string(d)));
      replay.push_back(json::dump(pr.value));
    }
    const core::ArtifactStoreStats s0 = store.stats();
    std::vector<Reply> warm;
    if (!serve(ctx, replay, spans, &warm)) break;
    const core::ArtifactStoreStats s1 = store.stats();
    out.store_hits += s1.hits - s0.hits;
    out.store_misses += s1.misses - s0.misses;
    for (std::size_t d = 0; d < warm.size(); ++d) {
      ++out.attempted;
      if (!warm[d].ok) ++out.failed;
      out.warm_latency_s.push_back(warm[d].seconds);
    }
    // Every warm-start result must equal its first-phase value.
    for (std::size_t i = 0; i < rec.first.size(); ++i) {
      const Reply& w = warm[rec.stream.distinct_of[i]];
      if (rec.first[i].ok && w.ok && rec.first[i].fp != w.fp) {
        out.problems.push_back("warm-start result_fp differs from the first "
                               "phase on " + rec.stream.lines[i]);
      }
    }
    rounds.push_back(std::move(rec));
  } while (now_s() < deadline);
  fs::remove_all(dir, ec);
  out.peak_rss_mb = peak_rss_mb();

  // One sample line per request kind, for the traced run's probes.
  if (!rounds.empty()) {
    std::vector<std::string> kinds;
    for (const std::string& line : rounds.front().stream.distinct) {
      const std::string cmd =
          json::parse(line).value.find("cmd")->string_or("");
      if (std::find(kinds.begin(), kinds.end(), cmd) == kinds.end()) {
        kinds.push_back(cmd);
        out.sample_lines.push_back(line);
      }
    }
  }
  // Reference: every socket response equals a direct in-process evaluate()
  // of the same request.
  for (const RoundRecord& rec : rounds) {
    const std::vector<std::string> ref =
        reference_fps(rec.stream.distinct, 1, 4, nullptr);
    for (std::size_t i = 0; i < rec.first.size(); ++i) {
      const Reply& r = rec.first[i];
      if (r.ok && r.fp != ref[rec.stream.distinct_of[i]]) {
        out.problems.push_back("serve result_fp differs from evaluate() on " +
                               rec.stream.lines[i]);
      }
    }
  }
  return out;
}

}  // namespace

PassResult run_pass(const Options& o, double seconds, SpanRecorder* spans) {
  if (o.workload == "synth_route") return run_synth_route(o, seconds, spans);
  if (o.workload == "serve_mix") return run_serve_mix(o, seconds, spans);
  return run_mc_yield(o, seconds, spans);
}

double measure_setup(const Options& o) {
  const double t0 = now_s();
  // Lazy process-wide tables: the node database, the SIMD dispatch and the
  // FFT plans of the workload's capture lengths.
  vcoadc::tech::TechDatabase::standard();
  vcoadc::util::simd::active_width();
  const std::size_t n = o.short_mode ? 4096 : 65536;
  vcoadc::dsp::RealFftPlan::of(n);
  vcoadc::dsp::RealFftPlan::of(o.workload == "serve_mix" ? n / 4 : n);
  core::ArtifactCache cache;
  core::ExecContext ctx;
  ctx.cache = &cache;
  if (o.workload != "serve_mix") return now_s() - t0;

  // Store, server and both client connections, ready for the first line.
  const std::string dir = o.work_dir + "/setup-store";
  std::error_code ec;
  fs::remove_all(dir, ec);
  double ready = 0;
  {
    core::ArtifactStore store(dir);
    ctx.threads = 2;
    ctx.store = &store;
    Server server(o.work_dir + "/setup.sock",
                  core::make_eval_handler(ctx, core::EvalServeOptions{}));
    std::string err;
    net::Connection a = net::dial(server.endpoint(), &err);
    net::Connection b = net::dial(server.endpoint(), &err);
    ready = now_s() - t0;
    if (!server.ok() || !a.valid() || !b.valid()) ready = -1;
  }
  fs::remove_all(dir, ec);
  return ready;
}

}  // namespace perfbench
