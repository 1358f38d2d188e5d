// Crash-safe persistence end-to-end (DESIGN.md §10): the snapshot container
// format, atomic durable writes with injected mid-write kills, the
// validate-or-quarantine recovery scan, warm restart of the serving layer,
// and checkpoint/restart of the distributed KSP.
//
// The chaos sweep at the bottom is the acceptance harness: ≥200 seeded
// corruptions (truncation, bit flips, torn tails, mid-write kills) driven
// through the exact production load path — every one must end in either a
// bit-identical load or a typed quarantine, and never a crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/peek.hpp"
#include "dist/dist_peek.hpp"
#include "fault/injector.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "recover/artifacts.hpp"
#include "recover/manager.hpp"
#include "recover/snapshot.hpp"
#include "serve/query_engine.hpp"
#include "test_util.hpp"

namespace peek {
namespace {

namespace fs = std::filesystem;

std::int64_t metric(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// Metric-delta assertions only hold when the hooks are compiled in
// (PEEK_OBS=OFF builds run the same behavior with the accounting elided).
constexpr bool kMetricsOn = obs::kEnabled;

/// Fresh scratch directory under the test temp root.
fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / ("peek_recover_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Bit-identity: same count, same vertex sequences, same exact distances.
void expect_exact_paths(const std::vector<sssp::Path>& got,
                        const std::vector<sssp::Path>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].verts, want[i].verts);
    EXPECT_EQ(got[i].dist, want[i].dist);  // bit-exact, not approximate
  }
}

class RecoverTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::global().disable(); }
};

// ----------------------------------------------------------------- xxhash --

TEST(XxHash64, PublishedTestVectors) {
  // Reference values from the canonical xxHash distribution / its Python
  // binding's documentation.
  EXPECT_EQ(recover::xxhash64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(recover::xxhash64("a", 1), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(recover::xxhash64("abc", 3), 0x44BC2CF5AD770999ULL);
  const char* spam = "Nobody inspects the spammish repetition";
  EXPECT_EQ(recover::xxhash64(spam, std::strlen(spam)),
            0xFBCEA83C8A378BF1ULL);
}

TEST(XxHash64, SeedAndLengthSensitivity) {
  const char buf[64] = "0123456789abcdef0123456789abcdef0123456789abcdef012";
  EXPECT_NE(recover::xxhash64(buf, 40, 0), recover::xxhash64(buf, 40, 1));
  EXPECT_NE(recover::xxhash64(buf, 40), recover::xxhash64(buf, 41));
  char flipped[64];
  std::memcpy(flipped, buf, sizeof buf);
  flipped[37] = static_cast<char>(flipped[37] ^ 0x04);
  EXPECT_NE(recover::xxhash64(buf, 40), recover::xxhash64(flipped, 40));
}

// ------------------------------------------------------------------ codec --

TEST(LittleEndianCodec, RoundTripsAndBoundsChecks) {
  std::vector<std::byte> buf;
  recover::put_u32(buf, 0xDEADBEEFu);
  recover::put_u64(buf, 0x0123456789ABCDEFULL);
  recover::put_i64(buf, -42);
  recover::put_f64(buf, 2.5);
  EXPECT_EQ(buf.size(), 4u + 8 + 8 + 8);
  // Explicit little-endian: the first byte is the lowest-order one.
  EXPECT_EQ(std::to_integer<unsigned>(buf[0]), 0xEFu);

  recover::Cursor cur(buf);
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::int64_t c = 0;
  double d = 0;
  ASSERT_TRUE(cur.get_u32(a));
  ASSERT_TRUE(cur.get_u64(b));
  ASSERT_TRUE(cur.get_i64(c));
  ASSERT_TRUE(cur.get_f64(d));
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFULL);
  EXPECT_EQ(c, -42);
  EXPECT_EQ(d, 2.5);
  EXPECT_EQ(cur.remaining(), 0u);
  // Over-reads fail without advancing.
  EXPECT_FALSE(cur.get_u32(a));
  EXPECT_EQ(cur.pos, buf.size());
}

// -------------------------------------------------------------- container --

TEST(SnapshotContainer, RoundTripsSections) {
  recover::SnapshotWriter w(recover::kCsrGraph);
  recover::put_u64(w.add_section(7), 1234);
  auto& big = w.add_section(9);
  for (int i = 0; i < 100; ++i) recover::put_f64(big, i * 0.5);
  w.add_section(11);  // empty section is legal

  const auto image = w.serialize();
  auto r = recover::parse_snapshot(image.data(), image.size());
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(r.snap.kind, static_cast<std::uint32_t>(recover::kCsrGraph));
  ASSERT_EQ(r.snap.sections.size(), 3u);
  ASSERT_NE(r.snap.find(7), nullptr);
  EXPECT_EQ(r.snap.find(7)->bytes.size(), 8u);
  ASSERT_NE(r.snap.find(11), nullptr);
  EXPECT_TRUE(r.snap.find(11)->bytes.empty());
  EXPECT_EQ(r.snap.find(8), nullptr);
}

TEST(SnapshotContainer, RejectsEveryCorruptionWithOffset) {
  recover::SnapshotWriter w(recover::kSsspTree);
  auto& sec = w.add_section(1);
  for (int i = 0; i < 32; ++i) recover::put_u32(sec, static_cast<unsigned>(i));
  const auto image = w.serialize();

  // Truncation at every possible length must be a typed kDataLoss.
  for (size_t cut = 0; cut < image.size(); ++cut) {
    auto r = recover::parse_snapshot(image.data(), cut);
    EXPECT_EQ(r.status.code, fault::Status::kDataLoss) << "cut " << cut;
    EXPECT_LE(r.error_offset, cut);
  }
  // Every single-bit flip must be caught by some checksum.
  for (size_t at = 0; at < image.size(); ++at) {
    auto bad = image;
    bad[at] ^= std::byte{0x20};
    auto r = recover::parse_snapshot(bad.data(), bad.size());
    EXPECT_EQ(r.status.code, fault::Status::kDataLoss) << "flip at " << at;
  }
  // Trailing garbage is rejected even though all checksums pass.
  auto padded = image;
  padded.push_back(std::byte{0});
  auto r = recover::parse_snapshot(padded.data(), padded.size());
  EXPECT_EQ(r.status.code, fault::Status::kDataLoss);
  EXPECT_EQ(r.error_offset, image.size());
}

// ----------------------------------------------------------- atomic write --

TEST_F(RecoverTest, AtomicWritePublishesDurably) {
  const auto dir = scratch_dir("atomic");
  const std::string path = (dir / "x.snap").string();
  recover::SnapshotWriter w(recover::kCsrGraph);
  recover::put_u64(w.add_section(1), 99);
  ASSERT_TRUE(w.write_file(path).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  auto r = recover::load_snapshot_file(path);
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  fs::remove_all(dir);
}

TEST_F(RecoverTest, MidWriteKillsNeverDamageThePublishedFile) {
  const auto dir = scratch_dir("midwrite");
  const std::string path = (dir / "x.snap").string();
  recover::SnapshotWriter w(recover::kCsrGraph);
  auto& sec = w.add_section(1);
  for (int i = 0; i < 64; ++i) recover::put_u64(sec, static_cast<unsigned>(i));
  ASSERT_TRUE(w.write_file(path).ok());
  const std::string original = slurp(path);

  for (const char* site :
       {"recover.write.tear", "recover.write.fsync", "recover.write.rename"}) {
    SCOPED_TRACE(site);
    fault::InjectorConfig fc;
    fc.enabled = true;
    fc.rate_permille = 1000;
    fc.site_filter = site;
    fault::Injector::global().configure(fc);
    EXPECT_FALSE(w.write_file(path).ok());
    fault::Injector::global().disable();
    // The previously published bytes are untouched...
    EXPECT_EQ(slurp(path), original);
    // ...and recovery sweeps whatever tmp debris the "crash" left.
    recover::ScanReport rep;
    recover::RecoveryManager mgr(dir.string());
    auto files = mgr.scan(&rep);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(rep.quarantined, 0);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
  }
  fs::remove_all(dir);
}

// -------------------------------------------------------------- quarantine --

TEST_F(RecoverTest, ScanQuarantinesCorruptLoadsValidSweepsTmp) {
  const auto dir = scratch_dir("scan");
  const auto g = test::random_graph(24, 96, 5);
  const auto image = recover::encode_graph(g);
  recover::RecoveryManager mgr(dir.string());
  ASSERT_TRUE(
      recover::write_file_atomic(mgr.path_for("good.snap"), image.data(),
                                 image.size())
          .ok());
  // A corrupt sibling: valid image with a flipped payload byte.
  std::string bad(reinterpret_cast<const char*>(image.data()), image.size());
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  spit(mgr.path_for("bad.snap"), bad);
  // Orphaned tmp debris from a dead writer.
  spit(mgr.path_for("dead.snap.tmp"), "torn");

  const auto loaded_before = metric("recover.snapshots_loaded");
  const auto quarantined_before = metric("recover.quarantined");
  const auto bytes_before = metric("recover.bytes_restored");
  recover::ScanReport rep;
  auto files = mgr.scan(&rep);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].name, "good.snap");
  graph::CsrGraph back;
  ASSERT_TRUE(recover::decode_graph(files[0].snap, back).ok());
  EXPECT_TRUE(back == g);

  EXPECT_EQ(rep.loaded, 1);
  EXPECT_EQ(rep.quarantined, 1);
  EXPECT_EQ(rep.swept_tmp, 1);
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_NE(rep.errors[0].find("bad.snap"), std::string::npos);
  EXPECT_TRUE(fs::exists(mgr.path_for("bad.snap.corrupt")));
  const std::string reason = slurp(mgr.path_for("bad.snap.corrupt.reason"));
  EXPECT_NE(reason.find("data_loss"), std::string::npos);
  EXPECT_FALSE(fs::exists(mgr.path_for("bad.snap")));
  EXPECT_FALSE(fs::exists(mgr.path_for("dead.snap.tmp")));

  if (kMetricsOn) {
    EXPECT_EQ(metric("recover.snapshots_loaded"), loaded_before + 1);
    EXPECT_EQ(metric("recover.quarantined"), quarantined_before + 1);
    EXPECT_GT(metric("recover.bytes_restored"), bytes_before);
  }

  // A second scan is idempotent: quarantine output is never re-chewed.
  recover::ScanReport rep2;
  auto files2 = mgr.scan(&rep2);
  EXPECT_EQ(files2.size(), 1u);
  EXPECT_EQ(rep2.quarantined, 0);
  fs::remove_all(dir);
}

TEST(RecoveryManager, MissingDirectoryIsEmptyNotAnError) {
  recover::RecoveryManager mgr("/nonexistent/peek/snapshots");
  recover::ScanReport rep;
  EXPECT_TRUE(mgr.scan(&rep).empty());
  EXPECT_EQ(rep.loaded, 0);
}

// -------------------------------------------------------------- artifacts --

TEST(Artifacts, GraphFingerprintDistinguishesGraphs) {
  const auto g1 = test::random_graph(40, 160, 1);
  const auto g2 = test::random_graph(40, 160, 2);
  EXPECT_EQ(recover::graph_fingerprint(g1), recover::graph_fingerprint(g1));
  EXPECT_NE(recover::graph_fingerprint(g1), recover::graph_fingerprint(g2));
}

TEST(Artifacts, TreeRoundTrip) {
  const auto g = test::random_graph(40, 160, 3);
  recover::TreeArtifact a;
  a.fingerprint = recover::graph_fingerprint(g);
  a.root = 7;
  a.reverse = true;
  a.tree = sssp::dijkstra(sssp::GraphView(g), 7);
  const auto image = recover::encode_tree(a);
  auto r = recover::parse_snapshot(image.data(), image.size());
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  recover::TreeArtifact b;
  ASSERT_TRUE(recover::decode_tree(r.snap, b).ok());
  EXPECT_EQ(b.fingerprint, a.fingerprint);
  EXPECT_EQ(b.root, 7);
  EXPECT_TRUE(b.reverse);
  EXPECT_EQ(b.tree.dist, a.tree.dist);
  EXPECT_EQ(b.tree.parent, a.tree.parent);
}

// ------------------------------------------------------------ warm restart --

TEST_F(RecoverTest, WarmRestartServesBitIdenticalAnswers) {
  const auto dir = scratch_dir("warm");
  const auto g = test::random_graph(120, 960, 801);
  const vid_t s = 0, t = 60;
  core::PeekOptions po;
  po.k = 3;
  const auto serial3 = core::peek_ksp(g, s, t, po).ksp.paths;
  po.k = 6;
  const auto serial6 = core::peek_ksp(g, s, t, po).ksp.paths;
  ASSERT_EQ(serial6.size(), 6u);

  serve::ServeOptions so;
  so.snapshot_dir = dir.string();
  {
    serve::QueryEngine a(g, so);
    auto r = a.query(s, t, 3);
    ASSERT_EQ(r.status.code, fault::Status::kOk);
    expect_exact_paths(r.paths, serial3);
    EXPECT_GT(a.persist(), 0);
  }

  const auto restore_hits_before = metric("serve.cache.restore_hits");
  serve::QueryEngine b(g, so);
  EXPECT_GT(b.restored_artifacts(), 0);

  // K within the persisted paths: a pure lookup off the restored snapshot.
  auto r3 = b.query(s, t, 3);
  ASSERT_EQ(r3.status.code, fault::Status::kOk);
  EXPECT_TRUE(r3.snapshot_hit);
  expect_exact_paths(r3.paths, serial3);
  if (kMetricsOn) {
    EXPECT_GT(metric("serve.cache.restore_hits"), restore_hits_before);
  }

  // K beyond them: the rebuilt stream (warm-started from the persisted
  // reverse tree) must extend with the exact same tie-breaks.
  auto r6 = b.query(s, t, 6);
  ASSERT_EQ(r6.status.code, fault::Status::kOk);
  expect_exact_paths(r6.paths, serial6);

  // A different target reuses the restored forward tree.
  auto rt = b.query(s, t + 1, 2);
  ASSERT_EQ(rt.status.code, fault::Status::kOk);
  EXPECT_TRUE(rt.fwd_tree_hit);
  po.k = 2;
  expect_exact_paths(rt.paths, core::peek_ksp(g, s, t + 1, po).ksp.paths);
  fs::remove_all(dir);

  // Under ties: on a unit-weight grid many paths share each length, so the
  // restored stream's extension matches only if it replays the original
  // stream's tie-breaks — those of peek_ksp at the engine's prune budget.
  const auto tie_dir = scratch_dir("warm_ties");
  graph::WeightOptions unit;
  unit.kind = graph::WeightKind::kUnit;
  const auto grid = graph::grid(8, 8, unit);
  const vid_t gs = 0, gt = 63;
  po.k = 32;  // the engine's default budget floor
  po.compaction = core::PeekOptions::Compaction::kRegeneration;
  auto grid_truth = core::peek_ksp(grid, gs, gt, po).ksp.paths;
  ASSERT_GE(grid_truth.size(), 6u);
  grid_truth.resize(6);
  serve::ServeOptions tie_so;
  tie_so.snapshot_dir = tie_dir.string();
  {
    serve::QueryEngine a(grid, tie_so);
    ASSERT_EQ(a.query(gs, gt, 3).status.code, fault::Status::kOk);
    EXPECT_GT(a.persist(), 0);
  }
  serve::QueryEngine c(grid, tie_so);
  EXPECT_GT(c.restored_artifacts(), 0);
  auto g6 = c.query(gs, gt, 6);
  ASSERT_EQ(g6.status.code, fault::Status::kOk);
  EXPECT_TRUE(g6.snapshot_hit);
  EXPECT_TRUE(g6.extended);
  expect_exact_paths(g6.paths, grid_truth);
  fs::remove_all(tie_dir);
}

// A dynamic-graph engine snapshots its graph before warm restart reads it,
// so restored artifacts pass the fingerprint check and serve at once.
TEST_F(RecoverTest, DynamicGraphEngineWarmRestarts) {
  const auto dir = scratch_dir("warm_dyn");
  const auto g = test::random_graph(120, 960, 801);
  dyn::DynamicGraph dg(g);
  const vid_t s = 0, t = 60;
  core::PeekOptions po;
  po.k = 4;
  const auto truth = core::peek_ksp(g, s, t, po).ksp.paths;

  serve::ServeOptions so;
  so.snapshot_dir = dir.string();
  {
    serve::QueryEngine a(dg, so);
    ASSERT_EQ(a.query(s, t, 4).status.code, fault::Status::kOk);
    EXPECT_GT(a.persist(), 0);
  }
  serve::QueryEngine b(dg, so);
  EXPECT_GT(b.restored_artifacts(), 0);
  auto r = b.query(s, t, 4);
  ASSERT_EQ(r.status.code, fault::Status::kOk);
  EXPECT_TRUE(r.snapshot_hit);
  expect_exact_paths(r.paths, truth);
  fs::remove_all(dir);
}

TEST_F(RecoverTest, WarmRestartCanBeDisabled) {
  const auto dir = scratch_dir("cold");
  const auto g = test::random_graph(60, 300, 11);
  serve::ServeOptions so;
  so.snapshot_dir = dir.string();
  {
    serve::QueryEngine a(g, so);
    ASSERT_EQ(a.query(0, 30, 2).status.code, fault::Status::kOk);
    EXPECT_GT(a.persist(), 0);
  }
  so.warm_restart = false;
  serve::QueryEngine b(g, so);
  EXPECT_EQ(b.restored_artifacts(), 0);
  // Still serves correctly, just from scratch.
  core::PeekOptions po;
  po.k = 2;
  expect_exact_paths(b.query(0, 30, 2).paths,
                     core::peek_ksp(g, 0, 30, po).ksp.paths);
  fs::remove_all(dir);
}

TEST_F(RecoverTest, CorruptSnapshotDirQuarantinesAndRecomputes) {
  const auto dir = scratch_dir("corruptdir");
  const auto g = test::random_graph(80, 480, 21);
  serve::ServeOptions so;
  so.snapshot_dir = dir.string();
  {
    serve::QueryEngine a(g, so);
    ASSERT_EQ(a.query(0, 40, 3).status.code, fault::Status::kOk);
    ASSERT_GT(a.persist(), 0);
  }
  // Damage every persisted file.
  int damaged = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::string bytes = slurp(e.path().string());
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x40);
    spit(e.path().string(), bytes);
    ++damaged;
  }
  ASSERT_GT(damaged, 0);

  serve::QueryEngine b(g, so);
  EXPECT_EQ(b.restored_artifacts(), 0);
  int corrupt_files = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().string().ends_with(".corrupt")) ++corrupt_files;
  EXPECT_EQ(corrupt_files, damaged);
  // The engine recomputes and still answers correctly.
  core::PeekOptions po;
  po.k = 3;
  auto r = b.query(0, 40, 3);
  ASSERT_EQ(r.status.code, fault::Status::kOk);
  expect_exact_paths(r.paths, core::peek_ksp(g, 0, 40, po).ksp.paths);
  fs::remove_all(dir);
}

TEST_F(RecoverTest, StaleFingerprintIsSkippedNotQuarantined) {
  const auto dir = scratch_dir("stale");
  const auto g1 = test::random_graph(60, 300, 31);
  const auto g2 = test::random_graph(60, 300, 32);
  serve::ServeOptions so;
  so.snapshot_dir = dir.string();
  {
    serve::QueryEngine a(g1, so);
    ASSERT_EQ(a.query(0, 30, 2).status.code, fault::Status::kOk);
    ASSERT_GT(a.persist(), 0);
  }
  serve::QueryEngine b(g2, so);
  EXPECT_EQ(b.restored_artifacts(), 0);
  // Staleness is not corruption: the files stay in place, unquarantined.
  for (const auto& e : fs::directory_iterator(dir))
    EXPECT_FALSE(e.path().string().ends_with(".corrupt"))
        << e.path().string();
  fs::remove_all(dir);
}

// ---------------------------------------------------------- dist restart --

TEST_F(RecoverTest, DistCheckpointResumesAndMatchesSerial) {
  const auto dir = scratch_dir("dist");
  const auto g = test::random_graph(120, 960, 801);
  const vid_t s = 0, t = 60;
  const int k = 8, ranks = 3;
  core::PeekOptions po;
  po.k = k;
  const auto serial = core::peek_ksp(g, s, t, po).ksp.paths;

  std::vector<std::vector<sssp::Path>> per_rank(ranks);
  dist::run_ranks(ranks, [&](dist::Comm& c) {
    dist::DistPeekOptions opts;
    opts.k = k;
    opts.checkpoint_dir = dir.string();
    per_rank[static_cast<size_t>(c.rank())] =
        dist_peek_ksp(c, g, s, t, opts).ksp.paths;
  });
  for (int r = 0; r < ranks; ++r) {
    SCOPED_TRACE(r);
    test::expect_same_distances(serial, per_rank[static_cast<size_t>(r)]);
  }
  for (int r = 0; r < ranks; ++r)
    EXPECT_TRUE(
        fs::exists(dir / ("rank_" + std::to_string(r) + ".ckpt")));

  // Re-running resumes from the final checkpoints instead of recomputing
  // the KSP stage, and the answer is unchanged.
  const auto restarts_before = metric("dist.rank_restarts");
  dist::run_ranks(ranks, [&](dist::Comm& c) {
    dist::DistPeekOptions opts;
    opts.k = k;
    opts.checkpoint_dir = dir.string();
    auto got = dist_peek_ksp(c, g, s, t, opts).ksp.paths;
    test::expect_same_distances(serial, got);
  });
  if (kMetricsOn) {
    EXPECT_GE(metric("dist.rank_restarts"), restarts_before + ranks);
  }
  fs::remove_all(dir);
}

TEST_F(RecoverTest, DistInjectedRankFailureMatchesSerial) {
  const auto dir = scratch_dir("rankfail");
  const auto g = test::random_graph(120, 960, 801);
  const vid_t s = 0, t = 60;
  const int k = 8, ranks = 3;
  core::PeekOptions po;
  po.k = k;
  const auto serial = core::peek_ksp(g, s, t, po).ksp.paths;

  fault::InjectorConfig fc;
  fc.enabled = true;
  fc.seed = 7;
  fc.rate_permille = 400;
  fc.site_filter = "dist.rank_fail";
  fault::Injector::global().configure(fc);
  const auto restarts_before = metric("dist.rank_restarts");
  std::vector<std::vector<sssp::Path>> per_rank(ranks);
  dist::run_ranks(ranks, [&](dist::Comm& c) {
    dist::DistPeekOptions opts;
    opts.k = k;
    opts.checkpoint_dir = dir.string();
    per_rank[static_cast<size_t>(c.rank())] =
        dist_peek_ksp(c, g, s, t, opts).ksp.paths;
  });
  const auto fired = fault::Injector::global().total_fired();
  fault::Injector::global().disable();

  EXPECT_GT(fired, 0);
  if (kMetricsOn) {
    EXPECT_GT(metric("dist.rank_restarts"), restarts_before);
  }
  for (int r = 0; r < ranks; ++r) {
    SCOPED_TRACE(r);
    test::expect_same_distances(serial, per_rank[static_cast<size_t>(r)]);
  }
  test::check_ksp_invariants(g, s, t, per_rank[0]);
  fs::remove_all(dir);
}

// ------------------------------------------------------------ chaos sweep --

/// 60 seeds × 4 corruption kinds = 240 seeded corruption events, all driven
/// through the production scan path. PEEK_FAULT_SEED (when set, e.g. by the
/// CI chaos job) offsets the seed range so different CI shards explore
/// different corruption points.
TEST_F(RecoverTest, ChaosSweepLoadsOrQuarantinesEverySeed) {
  const auto g = test::random_graph(32, 128, 99);
  const auto image = recover::encode_graph(g);
  std::uint64_t base = 0;
  if (const char* env = std::getenv("PEEK_FAULT_SEED"))
    base = std::strtoull(env, nullptr, 10) * 1000;

  int corruptions = 0, quarantines = 0, survivals = 0;
  for (std::uint64_t seed = base; seed < base + 60; ++seed) {
    for (int kind = 0; kind < 4; ++kind) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " kind " +
                   std::to_string(kind));
      const auto dir = scratch_dir("chaos");
      recover::RecoveryManager mgr(dir.string());
      const std::string file = mgr.path_for("graph.snap");
      ASSERT_TRUE(
          recover::write_file_atomic(file, image.data(), image.size()).ok());

      std::uint64_t rng = (seed + 1) * 6364136223846793005ULL +
                          static_cast<std::uint64_t>(kind);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      bool damaged = true;
      std::string bytes = slurp(file);
      ASSERT_EQ(bytes.size(), image.size());
      switch (kind) {
        case 0: {  // truncation
          bytes.resize(next() % bytes.size());
          spit(file, bytes);
          break;
        }
        case 1: {  // single bit flip
          const size_t at = next() % bytes.size();
          bytes[at] = static_cast<char>(bytes[at] ^ (1u << (next() % 8)));
          spit(file, bytes);
          break;
        }
        case 2: {  // torn tail: the last T bytes scribbled, size unchanged
          const size_t tail = 1 + next() % (bytes.size() / 2);
          for (size_t i = 0; i < tail; ++i)
            bytes[bytes.size() - 1 - i] =
                static_cast<char>(bytes[bytes.size() - 1 - i] ^ 0x5A);
          spit(file, bytes);
          break;
        }
        case 3: {  // mid-write kill: a re-publish dies at a random step
          static const char* kSites[3] = {"recover.write.tear",
                                          "recover.write.fsync",
                                          "recover.write.rename"};
          fault::InjectorConfig fc;
          fc.enabled = true;
          fc.seed = seed;
          fc.rate_permille = 1000;
          fc.site_filter = kSites[next() % 3];
          fault::Injector::global().configure(fc);
          EXPECT_FALSE(
              recover::write_file_atomic(file, image.data(), image.size())
                  .ok());
          fault::Injector::global().disable();
          damaged = false;  // the published file must have survived the kill
          break;
        }
      }
      ++corruptions;

      recover::ScanReport rep;
      auto files = mgr.scan(&rep);  // must never throw, whatever the damage
      if (damaged) {
        ASSERT_TRUE(files.empty());
        ASSERT_EQ(rep.quarantined, 1);
        ASSERT_TRUE(fs::exists(file + ".corrupt"));
        ASSERT_TRUE(fs::exists(file + ".corrupt.reason"));
        EXPECT_NE(slurp(file + ".corrupt.reason").find("data_loss"),
                  std::string::npos);
        ++quarantines;
      } else {
        ASSERT_EQ(files.size(), 1u);
        ASSERT_EQ(rep.quarantined, 0);
        graph::CsrGraph back;
        ASSERT_TRUE(recover::decode_graph(files[0].snap, back).ok());
        ASSERT_TRUE(back == g);  // bit-identical load
        ++survivals;
      }
      fs::remove_all(dir);
    }
  }
  EXPECT_GE(corruptions, 200);
  EXPECT_EQ(quarantines, 180);  // kinds 0-2 always damage
  EXPECT_EQ(survivals, 60);     // kind 3 never damages the published file
}

}  // namespace
}  // namespace peek
