// ArtifactStore: the persistent tier's durability contract. Every failure
// mode (absent, truncated, corrupted, version-skewed, mistagged) must
// degrade to a miss-plus-diagnostic, never a crash or a wrong artifact —
// and a warm start from a populated store must reproduce a cold run
// bit-identically with zero cold stage builds (the cross-process
// acceptance test of the persistence layer; the serve round-trip ctest
// repeats it across real processes).
#include "core/artifact_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/eval.h"
#include "core/flow.h"
#include "util/diag.h"
#include "util/json.h"

namespace fs = std::filesystem;
using namespace vcoadc;

namespace {

/// Fresh per-test store root under the system temp dir; removed on
/// destruction so repeated ctest runs never see stale records.
struct TempStoreDir {
  fs::path path;
  explicit TempStoreDir(const std::string& tag) {
    path = fs::temp_directory_path() / ("vcoadc_store_test_" + tag);
    fs::remove_all(path);
  }
  ~TempStoreDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return p;
}

constexpr core::CacheKey kKey{0x1234567890abcdefull, 0xfedcba0987654321ull};

TEST(ArtifactStoreTest, SaveThenLoadRoundTripsBytes) {
  TempStoreDir dir("roundtrip");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());

  const auto payload = make_payload(4096, 7);
  util::DiagSink diags;
  ASSERT_TRUE(store.save(kKey, "unit", 1, payload, &diags));
  std::vector<std::uint8_t> loaded;
  ASSERT_TRUE(store.load(kKey, "unit", 1, &loaded, &diags));
  EXPECT_EQ(loaded, payload);
  EXPECT_TRUE(diags.empty());

  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.writes, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_GT(st.bytes_written, payload.size());
}

TEST(ArtifactStoreTest, AbsentRecordIsSilentMiss) {
  TempStoreDir dir("absent");
  core::ArtifactStore store(dir.str());
  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags));
  EXPECT_TRUE(diags.empty()) << diags.render();  // the normal miss is quiet
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.absent, 1u);
}

TEST(ArtifactStoreTest, CorruptRecordIsMissWithWarning) {
  TempStoreDir dir("corrupt");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(512, 3)));

  // Flip one payload byte in place; the whole-record checksum must catch it.
  const std::string path = store.path_for(kKey);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(100);
    char b = 0;
    f.seekg(100);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(100);
    f.write(&b, 1);
  }

  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags));
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_FALSE(diags.has_errors());  // kWarning: the flow rebuilds and goes on
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.corrupt, 1u);
  EXPECT_EQ(st.misses, 1u);
}

TEST(ArtifactStoreTest, TruncatedRecordIsMissWithWarning) {
  TempStoreDir dir("truncated");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(512, 9)));
  fs::resize_file(store.path_for(kKey), 40);

  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags));
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(ArtifactStoreTest, TypeVersionBumpIsVersionSkewMiss) {
  TempStoreDir dir("verskew");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(64, 1)));

  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  // A reader one format version ahead must refuse the old record rather
  // than decode it against new semantics.
  EXPECT_FALSE(store.load(kKey, "unit", 2, &loaded, &diags));
  EXPECT_EQ(diags.size(), 1u);
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.version_skew, 1u);
  EXPECT_EQ(st.hits, 0u);
}

TEST(ArtifactStoreTest, WrongTypeTagIsMissWithWarning) {
  TempStoreDir dir("wrongtag");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "placement", 1, make_payload(64, 2)));

  util::DiagSink diags;
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "floorplan", 1, &loaded, &diags));
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(ArtifactStoreTest, NoteDecodeFailureDemotesHitToCorruptMiss) {
  TempStoreDir dir("demote");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(64, 4)));
  std::vector<std::uint8_t> loaded;
  ASSERT_TRUE(store.load(kKey, "unit", 1, &loaded));
  ASSERT_EQ(store.stats().hits, 1u);
  const std::uint64_t served = store.stats().bytes_read;
  ASSERT_GT(served, 0u);  // the hit counted its record bytes

  util::DiagSink diags;
  store.note_decode_failure(kKey, "unit", &diags);
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.hits, 0u);  // the stage rebuilt after all: not an avoided build
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.corrupt, 1u);
  // Regression: the demoted hit's record bytes must leave bytes_read too —
  // a rejected record was never *served* — and the miss taxonomy must
  // still tile the misses exactly.
  EXPECT_EQ(st.bytes_read, 0u);
  EXPECT_EQ(st.misses, st.absent + st.corrupt + st.version_skew);
  EXPECT_EQ(diags.size(), 1u);

  // A later genuine hit counts afresh (the per-key bookkeeping reset).
  ASSERT_TRUE(store.load(kKey, "unit", 1, &loaded));
  EXPECT_EQ(store.stats().bytes_read, served);
  EXPECT_EQ(store.stats().misses,
            store.stats().absent + store.stats().corrupt +
                store.stats().version_skew);
}

TEST(ArtifactStoreTest, UnusableRootDegradesToMissesAndWriteFailures) {
  TempStoreDir dir("degraded");
  // Make the root path a *file* so the store cannot create its directory.
  fs::create_directories(dir.path.parent_path());
  { std::ofstream(dir.str()) << "not a directory"; }

  core::ArtifactStore store(dir.str());
  EXPECT_FALSE(store.ok());
  util::DiagSink diags;
  EXPECT_FALSE(store.save(kKey, "unit", 1, make_payload(16, 5), &diags));
  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(kKey, "unit", 1, &loaded, &diags));
  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.write_failures, 1u);
  EXPECT_EQ(st.misses, 1u);
}

TEST(ArtifactStoreTest, OverwriteSameKeyKeepsLatestIntact) {
  TempStoreDir dir("overwrite");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(128, 1)));
  const auto second = make_payload(256, 2);
  ASSERT_TRUE(store.save(kKey, "unit", 1, second));
  std::vector<std::uint8_t> loaded;
  ASSERT_TRUE(store.load(kKey, "unit", 1, &loaded));
  EXPECT_EQ(loaded, second);
}

// --- lifecycle: tmp-sweep and size-bounded GC -----------------------------

/// Backdates a file's mtime by `seconds`, so age-gated sweeps and LRU
/// ordering are deterministic regardless of test speed.
void age_file(const fs::path& p, int seconds) {
  fs::last_write_time(p,
                      fs::last_write_time(p) - std::chrono::seconds(seconds));
}

std::uint64_t dir_record_bytes(const fs::path& root) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (e.is_regular_file() && e.path().extension() == ".art") {
      total += static_cast<std::uint64_t>(e.file_size());
    }
  }
  return total;
}

// Regression: a writer killed between write and rename leaked its *.tmp.*
// file forever. Opening a store must sweep such orphans — but only old
// ones, so a concurrent live writer's fresh tmp is never stolen.
TEST(ArtifactStoreTest, OpenSweepsStaleTmpOrphanKeepsFreshTmp) {
  TempStoreDir dir("tmpsweep");
  fs::path shard;
  {
    core::ArtifactStore store(dir.str());
    ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(64, 9)));
    shard = fs::path(store.path_for(kKey)).parent_path();
  }
  ASSERT_TRUE(fs::exists(shard));
  const fs::path orphan = shard / "deadbeef.art.tmp.12345.0";
  const fs::path fresh = shard / "cafef00d.art.tmp.12345.1";
  std::ofstream(orphan) << "killed writer leftovers";
  std::ofstream(fresh) << "in-flight writer";
  age_file(orphan, 3600);  // an hour stale: clearly orphaned

  core::ArtifactStore reopened(dir.str());
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(fs::exists(orphan)) << "stale tmp must be swept at open";
  EXPECT_TRUE(fs::exists(fresh)) << "fresh tmp may be a live writer's";
  EXPECT_EQ(reopened.stats().tmp_swept, 1u);

  // The real record survived the sweep.
  std::vector<std::uint8_t> loaded;
  EXPECT_TRUE(reopened.load(kKey, "unit", 1, &loaded));
  fs::remove(fresh);
}

TEST(ArtifactStoreTest, GcEvictsOldestFirstDownToTheBound) {
  TempStoreDir dir("gc_lru");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.ok());

  // Four records, mtimes spaced so LRU order is unambiguous: key 0 is the
  // oldest, key 3 the newest.
  constexpr int kN = 4;
  std::uint64_t record_size = 0;
  for (int i = 0; i < kN; ++i) {
    const core::CacheKey key{static_cast<std::uint64_t>(i + 1), 0x77ull};
    ASSERT_TRUE(store.save(key, "unit", 1, make_payload(2048, 3)));
    const fs::path p = store.path_for(key);
    record_size = static_cast<std::uint64_t>(fs::file_size(p));
    age_file(p, (kN - i) * 100);
  }

  // Bound to two records' worth: the two oldest must go.
  const core::ArtifactStore::GcResult gr = store.gc(2 * record_size);
  EXPECT_EQ(gr.evicted, 2u);
  EXPECT_EQ(gr.bytes_before, static_cast<std::uint64_t>(kN) * record_size);
  EXPECT_LE(gr.bytes_after, 2 * record_size);
  EXPECT_LE(dir_record_bytes(dir.path), 2 * record_size);

  std::vector<std::uint8_t> loaded;
  EXPECT_FALSE(store.load(core::CacheKey{1, 0x77ull}, "unit", 1, &loaded));
  EXPECT_FALSE(store.load(core::CacheKey{2, 0x77ull}, "unit", 1, &loaded));
  EXPECT_TRUE(store.load(core::CacheKey{3, 0x77ull}, "unit", 1, &loaded));
  EXPECT_TRUE(store.load(core::CacheKey{4, 0x77ull}, "unit", 1, &loaded));

  const core::ArtifactStoreStats st = store.stats();
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.gc_bytes_reclaimed, 2 * record_size);
  // Evicted records read as clean absent-misses, keeping the taxonomy
  // tiling intact.
  EXPECT_EQ(st.misses, st.absent + st.corrupt + st.version_skew);
}

TEST(ArtifactStoreTest, GcCompactsEmptyShardDirsAndIsIdempotent) {
  TempStoreDir dir("gc_compact");
  core::ArtifactStore store(dir.str());
  const core::CacheKey key{0xabcdull, 0x1ull};
  ASSERT_TRUE(store.save(key, "unit", 1, make_payload(512, 5)));
  const fs::path shard = fs::path(store.path_for(key)).parent_path();
  ASSERT_TRUE(fs::exists(shard));

  // Bound of zero evicts everything; the shard dir goes with its record.
  const auto gr = store.gc(0);
  EXPECT_EQ(gr.evicted, 1u);
  EXPECT_EQ(gr.bytes_after, 0u);
  EXPECT_FALSE(fs::exists(shard)) << "empty shard dirs are compacted away";

  // A second pass over the now-empty store is a no-op, not an error.
  const auto gr2 = store.gc(0);
  EXPECT_EQ(gr2.evicted, 0u);
  EXPECT_EQ(gr2.bytes_before, 0u);

  // The store still works after full eviction.
  ASSERT_TRUE(store.save(key, "unit", 1, make_payload(512, 6)));
  std::vector<std::uint8_t> loaded;
  EXPECT_TRUE(store.load(key, "unit", 1, &loaded));
}

TEST(ArtifactStoreTest, GcUnderBoundEvictsNothing) {
  TempStoreDir dir("gc_under");
  core::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.save(kKey, "unit", 1, make_payload(512, 8)));
  const auto gr = store.gc(1ull << 30);
  EXPECT_EQ(gr.evicted, 0u);
  EXPECT_EQ(gr.bytes_before, gr.bytes_after);
  EXPECT_EQ(store.stats().evictions, 0u);
  std::vector<std::uint8_t> loaded;
  EXPECT_TRUE(store.load(kKey, "unit", 1, &loaded));
}

core::AdcSpec small_spec() {
  core::AdcSpec spec = core::AdcSpec::paper_40nm();
  spec.num_slices = 6;
  spec.fs_hz = 400e6;
  spec.bandwidth_hz = 2e6;
  return spec;
}

// --- the cross-process acceptance test ------------------------------------

/// Process A (fresh cache + store over an empty dir) runs a datasheet with
/// Monte-Carlo; process B (fresh cache, fresh store handle, same dir) runs
/// the same request. B must be bit-identical to A with *zero* store
/// misses: every stage artifact came off disk, none were rebuilt cold.
/// Fresh ArtifactCache + ArtifactStore instances are exactly the state a
/// new process starts with; the serve round-trip ctest repeats this with
/// two real processes.
TEST(ArtifactStoreTest, CrossProcessWarmStartIsBitIdenticalWithZeroColdBuilds) {
  TempStoreDir dir("warmstart");

  core::EvalRequest req;
  req.kind = core::EvalKind::kDatasheet;
  req.spec = small_spec();
  req.datasheet.n_samples = 1 << 12;
  req.datasheet.mc_runs = 2;

  // "Process" A: cold, populates the store.
  core::ArtifactCache cache_a(64);
  core::ArtifactStore store_a(dir.str());
  core::ExecContext ctx_a;
  ctx_a.threads = 1;
  ctx_a.cache = &cache_a;
  ctx_a.store = &store_a;
  const core::EvalResponse resp_a = core::evaluate(req, ctx_a);
  ASSERT_TRUE(resp_a.ok);
  ASSERT_GT(store_a.stats().writes, 0u);

  // "Process" B: warm from disk only.
  core::ArtifactCache cache_b(64);
  core::ArtifactStore store_b(dir.str());
  core::ExecContext ctx_b;
  ctx_b.threads = 1;
  ctx_b.cache = &cache_b;
  ctx_b.store = &store_b;
  const core::EvalResponse resp_b = core::evaluate(req, ctx_b);
  ASSERT_TRUE(resp_b.ok);

  const core::ArtifactStoreStats sb = store_b.stats();
  EXPECT_EQ(sb.misses, 0u) << "cold stage builds in the warm process";
  EXPECT_GT(sb.hits, 0u);

  // Bit-identical, not approximately equal: the store hands back the very
  // artifact bytes process A computed.
  EXPECT_EQ(resp_b.datasheet.nominal.sndr.sndr_db,
            resp_a.datasheet.nominal.sndr.sndr_db);
  EXPECT_EQ(resp_b.datasheet.nominal.power.total_w(),
            resp_a.datasheet.nominal.power.total_w());
  EXPECT_EQ(resp_b.datasheet.area_mm2, resp_a.datasheet.area_mm2);
  EXPECT_EQ(resp_b.datasheet.mc.sndr_db, resp_a.datasheet.mc.sndr_db);
  EXPECT_EQ(resp_b.datasheet.render(), resp_a.datasheet.render());

  // Same equality through the wire format the serve protocol reports.
  const std::string fp_a =
      core::eval_result_fingerprint(core::eval_result_to_json(resp_a));
  const std::string fp_b =
      core::eval_result_fingerprint(core::eval_result_to_json(resp_b));
  EXPECT_EQ(fp_a, fp_b);
}

/// A corrupted record in the store must not poison a warm run: the stage
/// rebuilds from scratch, the result is still correct, and the store
/// reports the record as a corrupt miss with a warning diagnostic.
TEST(ArtifactStoreTest, WarmStartSurvivesCorruptedRecord) {
  TempStoreDir dir("warmcorrupt");

  core::AdcSpec spec = small_spec();
  core::SimulationOptions sim;
  sim.n_samples = 1 << 12;

  core::ArtifactCache cache_a(64);
  core::ArtifactStore store_a(dir.str());
  core::ExecContext ctx_a;
  ctx_a.threads = 1;
  ctx_a.cache = &cache_a;
  ctx_a.store = &store_a;
  core::Flow flow_a(ctx_a);
  const auto run_a = flow_a.sim_run(spec, sim);
  ASSERT_NE(run_a, nullptr);

  // Corrupt every record on disk (flip a byte well inside each payload).
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    if (!entry.is_regular_file()) continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    char b = 0;
    f.seekg(70);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xff);
    f.seekp(70);
    f.write(&b, 1);
  }

  core::ArtifactCache cache_b(64);
  core::ArtifactStore store_b(dir.str());
  util::DiagSink diags_b;
  core::ExecContext ctx_b;
  ctx_b.threads = 1;
  ctx_b.cache = &cache_b;
  ctx_b.store = &store_b;
  ctx_b.diag = &diags_b;
  core::Flow flow_b(ctx_b);
  const auto run_b = flow_b.sim_run(spec, sim);
  ASSERT_NE(run_b, nullptr);
  EXPECT_EQ(run_b->sndr.sndr_db, run_a->sndr.sndr_db);  // rebuilt correctly
  EXPECT_GT(store_b.stats().corrupt, 0u);
  EXPECT_FALSE(diags_b.has_errors());  // warnings only: the flow degraded soft
  EXPECT_GT(diags_b.size(), 0u);
}

}  // namespace
