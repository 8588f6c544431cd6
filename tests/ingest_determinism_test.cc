// Parallel-ingest determinism: whatever the worker count — and whether
// timespans are built in stream order or bottom-up by BulkLoad — the
// pipeline must write byte-identical storage contents to fully serial
// ingest, and queries over the results must agree. Also covers
// the batch-validation prepass (atomic rejection, offending index in the
// error) and BulkLoad's alignment precondition. The suite runs under TSan
// in CI alongside the stress tests.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kvstore/cluster.h"
#include "tgi/tgi.h"
#include "workload/generators.h"

namespace hgs {
namespace {

ClusterOptions FastCluster(size_t nodes = 2) {
  ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.latency.enabled = false;
  return opts;
}

std::vector<Event> History(uint64_t seed, uint64_t n) {
  workload::WikiGrowthOptions w;
  w.num_events = n / 2;
  w.seed = seed;
  auto events = workload::GenerateWikiGrowth(w);
  return workload::AugmentWithChurn(std::move(events),
                                    {.num_events = n / 2, .seed = seed + 9});
}

TGIOptions SmallOpts() {
  TGIOptions opts;
  opts.events_per_timespan = 1'500;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 300;
  opts.micro_delta_size = 64;
  opts.num_horizontal_partitions = 2;
  return opts;
}

struct BuildOutcome {
  uint64_t fingerprint = 0;
  uint64_t keys = 0;
};

BuildOutcome BuildWith(const std::vector<Event>& events, size_t threads,
                       bool bulk, bool columnar = false) {
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallOpts();
  opts.ingest_threads = threads;
  if (columnar) {
    opts.row_compression = CompressionKind::kColumnar;
    opts.eventlist_compression = CompressionKind::kColumnar;
    opts.versions_compression = CompressionKind::kColumnar;
  }
  TGI tgi(&cluster, opts);
  Status s = bulk ? tgi.BulkLoad(events) : tgi.BuildFrom(events);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return BuildOutcome{cluster.ContentFingerprint(), cluster.TotalKeys()};
}

TEST(IngestDeterminismTest, ThreadCountsAndBulkLoadAreByteIdentical) {
  auto events = History(4242, 6'000);
  BuildOutcome serial = BuildWith(events, 1, /*bulk=*/false);
  ASSERT_GT(serial.keys, 0u);
  struct Config {
    size_t threads;
    bool bulk;
  };
  const Config configs[] = {
      {2, false},  // sharded encode
      {8, false},  // oversubscribed sharding
      {8, true},   // BulkLoad bottom-up
  };
  for (const Config& c : configs) {
    BuildOutcome got = BuildWith(events, c.threads, c.bulk);
    EXPECT_EQ(got.fingerprint, serial.fingerprint)
        << "threads=" << c.threads << " bulk=" << c.bulk;
    EXPECT_EQ(got.keys, serial.keys)
        << "threads=" << c.threads << " bulk=" << c.bulk;
  }
}

TEST(IngestDeterminismTest, ColumnarEncodingIsByteIdenticalAcrossThreads) {
  // The kColumnar choice (columnar vs LZ vs stored, per block) is a pure
  // function of the serialized bytes, so parallel ingest with the columnar
  // codec enabled must stay byte-deterministic too.
  auto events = History(5151, 6'000);
  BuildOutcome serial =
      BuildWith(events, 1, /*bulk=*/false, /*columnar=*/true);
  ASSERT_GT(serial.keys, 0u);
  // And it must differ from the uncompressed build only in value bytes,
  // never in key count.
  BuildOutcome plain = BuildWith(events, 1, false, false);
  EXPECT_EQ(serial.keys, plain.keys);
  struct Config {
    size_t threads;
    bool bulk;
  };
  const Config configs[] = {
      {2, false},
      {8, false},
      {8, true},
  };
  for (const Config& c : configs) {
    BuildOutcome got = BuildWith(events, c.threads, c.bulk, /*columnar=*/true);
    EXPECT_EQ(got.fingerprint, serial.fingerprint)
        << "threads=" << c.threads << " bulk=" << c.bulk;
    EXPECT_EQ(got.keys, serial.keys)
        << "threads=" << c.threads << " bulk=" << c.bulk;
  }
}

TEST(IngestDeterminismTest, QueriesAgreeAcrossPipelines) {
  auto events = History(7878, 5'000);
  Cluster serial_cluster(FastCluster());
  Cluster parallel_cluster(FastCluster());
  Cluster bulk_cluster(FastCluster());
  TGIOptions serial_opts = SmallOpts();
  serial_opts.ingest_threads = 1;
  TGIOptions parallel_opts = SmallOpts();
  parallel_opts.ingest_threads = 8;
  TGI serial(&serial_cluster, serial_opts);
  TGI parallel(&parallel_cluster, parallel_opts);
  TGI bulk(&bulk_cluster, parallel_opts);
  ASSERT_TRUE(serial.BuildFrom(events).ok());
  ASSERT_TRUE(parallel.BuildFrom(events).ok());
  ASSERT_TRUE(bulk.BulkLoad(events).ok());

  auto qm_serial = serial.OpenQueryManager(2).value();
  auto qm_parallel = parallel.OpenQueryManager(2).value();
  auto qm_bulk = bulk.OpenQueryManager(2).value();

  Timestamp end = workload::EndTime(events);
  for (double frac : {0.25, 0.6, 1.0}) {
    Timestamp t = events[static_cast<size_t>(
                             static_cast<double>(events.size() - 1) * frac)]
                      .time;
    auto a = qm_serial->GetSnapshot(t);
    auto b = qm_parallel->GetSnapshot(t);
    auto c = qm_bulk->GetSnapshot(t);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_TRUE(*a == *b) << "t=" << t;
    EXPECT_TRUE(*a == *c) << "t=" << t;
    EXPECT_TRUE(*a == workload::ReplayToGraph(events, t)) << "t=" << t;
  }
  for (NodeId id : {NodeId{1}, NodeId{7}, NodeId{23}, NodeId{40}}) {
    auto a = qm_serial->GetNodeHistory(id, 0, end);
    auto b = qm_parallel->GetNodeHistory(id, 0, end);
    auto c = qm_bulk->GetNodeHistory(id, 0, end);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(a->events.size(), b->events.size()) << "node " << id;
    EXPECT_EQ(a->events.size(), c->events.size()) << "node " << id;
  }
}

TEST(IngestValidationTest, OutOfOrderBatchRejectedAtomically) {
  auto events = History(1357, 2'000);
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOpts());
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  uint64_t fingerprint = cluster.ContentFingerprint();
  uint64_t keys = cluster.TotalKeys();

  Timestamp end = workload::EndTime(events);
  std::vector<Event> batch;
  for (int i = 0; i < 6; ++i) {
    Event e;
    e.type = EventType::kAddNode;
    e.u = static_cast<NodeId>(900'000 + i);
    e.time = end + 10 + static_cast<Timestamp>(i);
    batch.push_back(e);
  }
  batch[3].time = end - 1;  // goes backwards mid-batch

  Status s = tgi.AppendBatch(batch);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  // The prepass names the offending position.
  EXPECT_NE(s.ToString().find("batch index 3"), std::string::npos)
      << s.ToString();
  // Atomic rejection: nothing of the bad batch reached storage.
  EXPECT_EQ(cluster.ContentFingerprint(), fingerprint);
  EXPECT_EQ(cluster.TotalKeys(), keys);

  // The corrected batch is accepted and queryable.
  batch[3].time = end + 13;
  ASSERT_TRUE(tgi.AppendBatch(batch).ok());
  auto qm = tgi.OpenQueryManager().value();
  auto snap = qm->GetSnapshot(end + 20);
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->HasNode(static_cast<NodeId>(900'003)));
}

TEST(IngestValidationTest, BatchBeforeLastIngestedTimeRejected) {
  auto events = History(2468, 2'000);
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOpts());
  ASSERT_TRUE(tgi.BuildFrom(events).ok());

  Event stale;
  stale.type = EventType::kAddNode;
  stale.u = static_cast<NodeId>(900'000);
  stale.time = 0;
  Status s = tgi.AppendBatch({stale});
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("batch index 0"), std::string::npos)
      << s.ToString();
}

TEST(BulkLoadTest, RequiresTimespanAlignedState) {
  auto events = History(9753, 2'000);
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallOpts();
  TGI tgi(&cluster, opts);
  // A partial batch below the span size leaves events pending.
  std::vector<Event> partial(events.begin(), events.begin() + 100);
  ASSERT_TRUE(tgi.builder()->Ingest(partial).ok());
  Status s = tgi.BulkLoad({events.begin() + 100, events.end()});
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
}

}  // namespace
}  // namespace hgs
