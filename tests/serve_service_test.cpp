// The evaluation service end-to-end, in-process: the handler built by
// make_eval_handler dispatched over both transports. The load-bearing
// claim is transport neutrality — the socket path must produce responses
// (and result_fp values in particular) bit-identical to the stdio path,
// because campaign drivers fingerprint results across transports and
// hosts. Also covers the parse-error response shape and the per-request
// cache delta block.
#include "core/serve_loop.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/artifact_cache.h"
#include "core/exec_context.h"
#include "util/json.h"
#include "util/net.h"

namespace fs = std::filesystem;
namespace json = vcoadc::util::json;
using namespace vcoadc;
using util::net::Connection;
using util::net::Endpoint;
using util::net::Listener;

namespace {

/// Cheap-but-real request mix: different kinds, one repeated spec so the
/// shared cache matters, and small sample counts to keep the test fast.
std::vector<std::string> request_lines() {
  const char* spec = "\"spec\":{\"slices\":6,\"fs\":4e8,\"bw\":2e6}";
  return {
      std::string("{\"id\":\"mig-a\",\"cmd\":\"migrate\",") + spec +
          ",\"options\":{\"target_node\":180}}",
      std::string("{\"id\":\"mc-a\",\"cmd\":\"monte_carlo\",") + spec +
          ",\"options\":{\"runs\":2,\"n_samples\":1024}}",
      std::string("{\"id\":\"mig-b\",\"cmd\":\"migrate\",") + spec +
          ",\"options\":{\"target_node\":180}}",
  };
}

std::string fp_of(const std::string& response_line) {
  json::ParseResult pr = json::parse(response_line);
  EXPECT_TRUE(pr.ok) << pr.error << " in: " << response_line;
  const json::Value* fp = pr.value.find("result_fp");
  EXPECT_NE(fp, nullptr) << response_line;
  return fp != nullptr && fp->is_string() ? fp->string : "";
}

std::string id_of(const std::string& response_line) {
  json::ParseResult pr = json::parse(response_line);
  const json::Value* id = pr.ok ? pr.value.find("id") : nullptr;
  return id != nullptr && id->is_string() ? id->string : "";
}

/// Runs the request lines through serve_stdio and returns the response
/// lines in order.
std::vector<std::string> stdio_responses(const core::ServeHandler& handler,
                                         const std::vector<std::string>& reqs) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  for (const std::string& r : reqs) {
    std::fputs(r.c_str(), in);
    std::fputc('\n', in);
  }
  std::rewind(in);
  const core::ServeResult res = core::serve_stdio(in, out, handler);
  EXPECT_TRUE(res.clean) << res.error;
  std::rewind(out);
  std::vector<std::string> lines;
  std::string line;
  char buf[1 << 16];
  while (std::fgets(buf, sizeof buf, out) != nullptr) {
    line = buf;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    lines.push_back(line);
  }
  std::fclose(in);
  std::fclose(out);
  return lines;
}

TEST(ServeServiceTest, ParseErrorGetsAnErrorResponseNotSilence) {
  core::ArtifactCache cache(64);
  core::ExecContext ctx;
  ctx.threads = 1;
  ctx.cache = &cache;
  const core::ServeHandler handler =
      core::make_eval_handler(ctx, core::EvalServeOptions{});

  const std::string resp = handler("{this is not json");
  json::ParseResult pr = json::parse(resp);
  ASSERT_TRUE(pr.ok) << resp;
  const json::Value* ok = pr.value.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->bool_or(true));
  const json::Value* err = pr.value.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->string.find("parse error"), std::string::npos);
}

TEST(ServeServiceTest, CacheDeltaBlockCarriesLifecycleCounters) {
  core::ArtifactCache cache(64);
  core::ExecContext ctx;
  ctx.threads = 1;
  ctx.cache = &cache;
  core::EvalServeOptions opts;
  opts.cache_stats = true;
  const core::ServeHandler handler = core::make_eval_handler(ctx, opts);

  const std::string resp = handler(request_lines()[0]);
  json::ParseResult pr = json::parse(resp);
  ASSERT_TRUE(pr.ok) << resp;
  const json::Value* cachev = pr.value.find("cache");
  ASSERT_NE(cachev, nullptr) << resp;
  EXPECT_NE(cachev->find("hits"), nullptr);
  EXPECT_NE(cachev->find("misses"), nullptr);
  EXPECT_NE(cachev->find("cold_builds"), nullptr);
  EXPECT_NE(cachev->find("simd_tier"), nullptr);
}

#if !defined(_WIN32)

// The acceptance gate of this PR: N concurrent socket clients replaying
// interleaved requests (plus one mid-line disconnect) get per-client
// result_fp lists bit-identical to a stdio serve of the same requests.
TEST(ServeServiceTest, SocketResponsesBitIdenticalToStdio) {
  core::ArtifactCache cache(128);
  core::ExecContext ctx;
  ctx.threads = 1;  // per-request; connections still run concurrently
  ctx.cache = &cache;
  const core::ServeHandler handler =
      core::make_eval_handler(ctx, core::EvalServeOptions{});

  const std::vector<std::string> reqs = request_lines();

  // Reference pass: the original stdio transport.
  const std::vector<std::string> ref = stdio_responses(handler, reqs);
  ASSERT_EQ(ref.size(), reqs.size());
  std::map<std::string, std::string> ref_fp;  // id -> fingerprint
  for (const std::string& line : ref) ref_fp[id_of(line)] = fp_of(line);

  // Socket pass: 4 concurrent clients, each replaying the whole mix.
  const fs::path sock =
      fs::temp_directory_path() /
      ("vcoadc_serve_svc_" + std::to_string(getpid()) + ".sock");
  std::error_code ec;
  fs::remove(sock, ec);
  const Endpoint ep = util::net::parse_endpoint(sock.string());
  std::string err;
  Listener listener = Listener::listen(ep, &err);
  ASSERT_TRUE(listener.valid()) << err;

  std::atomic<bool> stop{false};
  core::SocketServeOptions sopts;
  sopts.poll_ms = 20;
  sopts.stop = &stop;
  core::ServeResult sres;
  std::thread server(
      [&] { sres = core::serve_socket(listener, handler, sopts); });

  constexpr int kClients = 4;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string derr;
      Connection conn = util::net::dial(ep, &derr);
      ASSERT_TRUE(conn.valid()) << derr;
      // Stagger the replay order per client so requests interleave.
      for (std::size_t k = 0; k < reqs.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(c)) % reqs.size();
        ASSERT_TRUE(conn.write_line(reqs[i]));
        std::string resp;
        ASSERT_EQ(conn.read_line(&resp), Connection::ReadStatus::kLine);
        got[c].push_back(resp);
      }
    });
  }
  // One extra client dies mid-line; the fragment must not be dispatched
  // and must not disturb anyone else's responses.
  {
    std::string derr;
    Connection mid = util::net::dial(ep, &derr);
    ASSERT_TRUE(mid.valid()) << derr;
    ASSERT_TRUE(mid.write_all("{\"id\":\"torn\",\"cmd\":\"datash"));
    mid.close();
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  server.join();
  EXPECT_TRUE(sres.clean) << sres.error;

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), reqs.size());
    for (std::size_t k = 0; k < reqs.size(); ++k) {
      const std::string id = id_of(got[c][k]);
      ASSERT_TRUE(ref_fp.count(id)) << got[c][k];
      EXPECT_EQ(fp_of(got[c][k]), ref_fp[id])
          << "client " << c << " response " << k
          << " diverged from the stdio transport";
    }
  }
  // The torn fragment produced no response and no request count.
  EXPECT_EQ(sres.stats.requests,
            static_cast<std::uint64_t>(kClients) * reqs.size());
}

#endif  // !_WIN32

}  // namespace
