// Tests for the simulated distributed KV store: placement, replication,
// failover, scans, compression transparency and stats accounting.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <future>
#include <thread>

#include "common/rng.h"
#include "kvstore/cluster.h"

namespace hgs {
namespace {

ClusterOptions FastOptions(size_t nodes = 2, size_t replication = 1) {
  ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.replication = replication;
  opts.latency.enabled = false;  // unit tests don't want simulated sleeps
  return opts;
}

TEST(ClusterTest, PutGetRoundTrip) {
  Cluster c(FastOptions());
  ASSERT_TRUE(c.Put("t", 1, "key", "value").ok());
  auto got = c.Get("t", 1, "key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "value");
}

TEST(ClusterTest, MissingKeyIsNotFound) {
  Cluster c(FastOptions());
  auto got = c.Get("t", 1, "nope");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsNotFound());
}

TEST(ClusterTest, TablesAreNamespaces) {
  Cluster c(FastOptions());
  ASSERT_TRUE(c.Put("a", 1, "k", "va").ok());
  ASSERT_TRUE(c.Put("b", 1, "k", "vb").ok());
  EXPECT_EQ(*c.Get("a", 1, "k"), "va");
  EXPECT_EQ(*c.Get("b", 1, "k"), "vb");
}

TEST(ClusterTest, ScanReturnsPrefixInOrder) {
  Cluster c(FastOptions(1));
  ASSERT_TRUE(c.Put("t", 7, "ab", "2").ok());
  ASSERT_TRUE(c.Put("t", 7, "aa", "1").ok());
  ASSERT_TRUE(c.Put("t", 7, "ac", "3").ok());
  ASSERT_TRUE(c.Put("t", 7, "b", "x").ok());
  auto res = c.Scan("t", 7, "a");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 3u);
  EXPECT_EQ((*res)[0].key, "aa");
  EXPECT_EQ((*res)[1].key, "ab");
  EXPECT_EQ((*res)[2].key, "ac");
  EXPECT_EQ((*res)[2].value, "3");
}

TEST(ClusterTest, ScanEmptyPrefixReturnsWholePartition) {
  Cluster c(FastOptions(1));
  ASSERT_TRUE(c.Put("t", 3, "x", "1").ok());
  ASSERT_TRUE(c.Put("t", 3, "y", "2").ok());
  ASSERT_TRUE(c.Put("t", 4, "z", "3").ok());  // different partition token
  auto res = c.Scan("t", 3, "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 2u);
}

TEST(ClusterTest, DeleteRemovesFromAllReplicas) {
  Cluster c(FastOptions(3, 3));
  ASSERT_TRUE(c.Put("t", 1, "k", "v").ok());
  auto del = c.Delete("t", 1, "k");
  ASSERT_TRUE(del.ok());
  EXPECT_TRUE(*del);
  EXPECT_TRUE(c.Get("t", 1, "k").status().IsNotFound());
  auto again = c.Delete("t", 1, "k");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(ClusterTest, ReplicationSurvivesNodeFailure) {
  Cluster c(FastOptions(3, 2));
  for (uint64_t p = 0; p < 30; ++p) {
    ASSERT_TRUE(c.Put("t", p, "k" + std::to_string(p), "v").ok());
  }
  c.SetNodeDown(0, true);
  for (uint64_t p = 0; p < 30; ++p) {
    auto got = c.Get("t", p, "k" + std::to_string(p));
    ASSERT_TRUE(got.ok()) << "partition " << p << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, "v");
  }
}

TEST(ClusterTest, NoReplicationFailsWhenOwnerDown) {
  Cluster c(FastOptions(2, 1));
  // Find a partition owned by node 0.
  bool found_failure = false;
  for (uint64_t p = 0; p < 16 && !found_failure; ++p) {
    std::string key = "k" + std::to_string(p);
    ASSERT_TRUE(c.Put("t", p, key, "v").ok());
    c.SetNodeDown(0, true);
    auto got = c.Get("t", p, key);
    if (!got.ok() && got.status().IsIOError()) found_failure = true;
    c.SetNodeDown(0, false);
  }
  EXPECT_TRUE(found_failure);
}

TEST(ClusterTest, ReplicationClampedToNodeCount) {
  Cluster c(FastOptions(2, 5));
  EXPECT_EQ(c.replication(), 2u);
}

TEST(ClusterTest, CompressionIsTransparent) {
  ClusterOptions opts = FastOptions(1);
  opts.compression = CompressionKind::kLz;
  Cluster c(opts);
  std::string value;
  for (int i = 0; i < 200; ++i) value += "repetitive-payload-";
  ASSERT_TRUE(c.Put("t", 1, "k", value).ok());
  auto got = c.Get("t", 1, "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
  // Stored bytes should reflect compression.
  EXPECT_LT(c.TotalStoredBytes(), value.size());
  auto scanned = c.Scan("t", 1, "");
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ((*scanned)[0].value, value);
}

TEST(ClusterTest, StatsAccounting) {
  Cluster c(FastOptions(1));
  ASSERT_TRUE(c.Put("t", 1, "k", "0123456789").ok());
  c.ResetStats();
  ASSERT_TRUE(c.Get("t", 1, "k").ok());
  ASSERT_TRUE(c.Scan("t", 1, "").ok());
  EXPECT_EQ(c.TotalReadRequests(), 2u);
  EXPECT_GT(c.TotalBytesRead(), 0u);
  EXPECT_GT(c.TotalKeys(), 0u);
}

TEST(ClusterTest, OverwriteUpdatesStoredBytes) {
  Cluster c(FastOptions(1));
  ASSERT_TRUE(c.Put("t", 1, "k", std::string(100, 'a')).ok());
  uint64_t before = c.TotalStoredBytes();
  ASSERT_TRUE(c.Put("t", 1, "k", std::string(10, 'b')).ok());
  EXPECT_LT(c.TotalStoredBytes(), before);
  EXPECT_EQ(c.TotalKeys(), 1u);
}

TEST(MultiGetTest, MatchesLoopedGetOnMultiNodeCluster) {
  Cluster c(FastOptions(3, 1));
  std::vector<MultiGetKey> keys;
  for (uint64_t p = 0; p < 8; ++p) {
    for (int k = 0; k < 5; ++k) {
      std::string key = "k" + std::to_string(p) + "-" + std::to_string(k);
      ASSERT_TRUE(
          c.Put("t", p, key, "v" + std::to_string(p * 10 + k)).ok());
      keys.push_back(MultiGetKey{p, key});
    }
    // Interleave keys that were never written.
    keys.push_back(MultiGetKey{p, "missing" + std::to_string(p)});
  }
  FetchStats call;
  auto multi = c.MultiGet("t", keys, &call);
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi->size(), keys.size());
  // Grouping by node: no more round trips than nodes, far fewer than keys.
  EXPECT_LE(call.kv_batches, c.num_nodes());
  EXPECT_LT(call.kv_batches, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto single = c.Get("t", keys[i].partition, keys[i].key);
    if (single.ok()) {
      ASSERT_TRUE((*multi)[i].has_value()) << keys[i].key;
      EXPECT_EQ(*(*multi)[i], *single);
    } else {
      EXPECT_TRUE(single.status().IsNotFound());
      EXPECT_FALSE((*multi)[i].has_value()) << keys[i].key;
    }
  }
}

TEST(MultiGetTest, EmptyKeyListIsANoOp) {
  Cluster c(FastOptions());
  FetchStats call;
  auto multi = c.MultiGet("t", {}, &call);
  ASSERT_TRUE(multi.ok());
  EXPECT_TRUE(multi->empty());
  EXPECT_EQ(call.kv_batches, 0u);
  EXPECT_EQ(c.TotalReadRequests(), 0u);
}

TEST(MultiGetTest, SurvivesNodeFailureWithReplication) {
  Cluster c(FastOptions(3, 2));
  std::vector<MultiGetKey> keys;
  for (uint64_t p = 0; p < 30; ++p) {
    std::string key = "k" + std::to_string(p);
    ASSERT_TRUE(c.Put("t", p, key, "v" + std::to_string(p)).ok());
    keys.push_back(MultiGetKey{p, key});
  }
  c.SetNodeDown(0, true);
  auto multi = c.MultiGet("t", keys);
  ASSERT_TRUE(multi.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE((*multi)[i].has_value()) << "partition " << i;
    EXPECT_EQ(*(*multi)[i], "v" + std::to_string(i));
  }
}

TEST(MultiGetTest, CompressionIsTransparent) {
  ClusterOptions opts = FastOptions(1);
  opts.compression = CompressionKind::kLz;
  Cluster c(opts);
  std::string value;
  for (int i = 0; i < 200; ++i) value += "repetitive-payload-";
  ASSERT_TRUE(c.Put("t", 1, "k", value).ok());
  auto multi = c.MultiGet("t", {MultiGetKey{1, "k"}});
  ASSERT_TRUE(multi.ok());
  ASSERT_TRUE((*multi)[0].has_value());
  EXPECT_EQ(*(*multi)[0], value);
}

TEST(MultiGetTest, OneBatchCountsAsOneRequestAndOneSeek) {
  ClusterOptions opts;
  opts.num_nodes = 1;
  opts.latency.enabled = true;
  opts.latency.seek_micros = 3'000;
  opts.latency.per_key_micros = 0;
  Cluster c(opts);
  std::vector<MultiGetKey> keys;
  for (int i = 0; i < 8; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(c.Put("t", 1, key, "v").ok());
    keys.push_back(MultiGetKey{1, key});
  }
  c.ResetStats();
  ASSERT_TRUE(c.MultiGet("t", keys).ok());
  // 8 looped gets would register 8 requests (and pay 8 seeks); the batch
  // registers one. The node-side stats are deterministic, unlike wall time.
  EXPECT_EQ(c.TotalReadRequests(), 1u);
}

TEST(MultiPutTest, MatchesLoopedPutContentsAndCounters) {
  Cluster looped(FastOptions(3, 1));
  Cluster grouped(FastOptions(3, 1));
  std::vector<PutRow> rows;
  for (uint64_t p = 0; p < 8; ++p) {
    for (int k = 0; k < 5; ++k) {
      std::string key = "k" + std::to_string(p) + "-" + std::to_string(k);
      std::string value = "v" + std::to_string(p * 10 + k);
      ASSERT_TRUE(looped.Put("t", p, key, value).ok());
      rows.push_back(PutRow{p, key, value});
    }
  }
  ASSERT_TRUE(grouped.MultiPut("t", std::move(rows)).ok());
  // Group commit: no more batches than nodes, far fewer than rows.
  EXPECT_GT(grouped.TotalPutBatches(), 0u);
  EXPECT_LE(grouped.TotalPutBatches(), grouped.num_nodes());
  EXPECT_EQ(grouped.TotalRowsPut(), 40u);
  // Identical stored state either way.
  EXPECT_EQ(grouped.ContentFingerprint(), looped.ContentFingerprint());
  EXPECT_EQ(grouped.TotalKeys(), looped.TotalKeys());
  auto got = grouped.Get("t", 3, "k3-2");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v32");
}

TEST(MultiPutTest, ReplicatedRowsSurviveNodeFailure) {
  Cluster c(FastOptions(3, 2));
  std::vector<PutRow> rows;
  for (uint64_t p = 0; p < 30; ++p) {
    rows.push_back(PutRow{p, "k" + std::to_string(p), "v" + std::to_string(p)});
  }
  ASSERT_TRUE(c.MultiPut("t", std::move(rows)).ok());
  EXPECT_EQ(c.TotalRowsPut(), 60u);  // one stored row per replica
  c.SetNodeDown(0, true);
  for (uint64_t p = 0; p < 30; ++p) {
    auto got = c.Get("t", p, "k" + std::to_string(p));
    ASSERT_TRUE(got.ok()) << "partition " << p;
    EXPECT_EQ(*got, "v" + std::to_string(p));
  }
}

TEST(MultiPutTest, CompressionIsTransparent) {
  ClusterOptions opts = FastOptions(1);
  opts.compression = CompressionKind::kLz;
  Cluster c(opts);
  std::string value;
  for (int i = 0; i < 200; ++i) value += "repetitive-payload-";
  ASSERT_TRUE(c.MultiPut("t", {PutRow{1, "k", value}}).ok());
  auto got = c.Get("t", 1, "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
}

TEST(SharedValueTest, ViewsSurviveOverwriteAndDelete) {
  // The refcounted owner keeps a fetched buffer alive across overwrites and
  // deletes of its key: views never dangle, they just go stale.
  Cluster c(FastOptions(1));
  ASSERT_TRUE(c.Put("t", 1, "k", "original-payload-well-past-sso-length").ok());
  auto v = c.Get("t", 1, "k");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(c.Put("t", 1, "k", "replacement").ok());
  EXPECT_TRUE(*c.Delete("t", 1, "k"));
  EXPECT_EQ(*v, "original-payload-well-past-sso-length");
  EXPECT_TRUE(c.Get("t", 1, "k").status().IsNotFound());
}

TEST(SharedValueTest, UncompressedReadsAreZeroCopy) {
  // Without compression every read is a window into node memory: the value
  // shares the stored buffer and the copy counters stay at zero.
  Cluster c(FastOptions(1));
  ASSERT_TRUE(c.Put("t", 1, "a", "payload-a").ok());
  ASSERT_TRUE(c.Put("t", 1, "b", "payload-b").ok());
  FetchStats get_call;
  auto got = c.Get("t", 1, "a", &get_call);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(get_call.value_copies, 0u);
  EXPECT_NE(got->owner(), nullptr);  // backed by the node's shared buffer

  FetchStats multi_call;
  auto multi = c.MultiGet("t", {MultiGetKey{1, "a"}, MultiGetKey{1, "b"}},
                          &multi_call);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi_call.value_copies, 0u);

  FetchStats scan_call;
  auto scanned = c.Scan("t", 1, "", &scan_call);
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->size(), 2u);
  EXPECT_EQ(scan_call.value_copies, 0u);
}

TEST(SharedValueTest, LzReadsMaterializeOncePerCompressedValue) {
  ClusterOptions opts = FastOptions(1);
  opts.compression = CompressionKind::kLz;
  Cluster c(opts);
  std::string value;
  for (int i = 0; i < 200; ++i) value += "repetitive-payload-";
  ASSERT_TRUE(c.Put("t", 1, "a", value).ok());
  ASSERT_TRUE(c.Put("t", 1, "b", value).ok());
  FetchStats call;
  auto scanned = c.Scan("t", 1, "", &call);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(call.value_copies, 2u);  // one copy per compressed block
  EXPECT_EQ((*scanned)[0].value, value);
}

TEST(LatencyModelTest, CostScalesWithKeysAndBytes) {
  LatencyModel m;
  m.seek_micros = 100;
  m.per_key_micros = 10;
  m.bytes_per_micro = 100.0;
  EXPECT_EQ(m.CostMicros(0, 0), 100);
  EXPECT_EQ(m.CostMicros(5, 0), 150);
  EXPECT_EQ(m.CostMicros(0, 10'000), 200);
  m.enabled = false;
  EXPECT_EQ(m.CostMicros(5, 10'000), 0);
}

TEST(LatencySimulationTest, SleepsApproximatelyTheModelledCost) {
  ClusterOptions opts;
  opts.num_nodes = 1;
  opts.latency.enabled = true;
  opts.latency.seek_micros = 2'000;  // 2ms, measurable
  opts.latency.per_key_micros = 0;
  Cluster c(opts);
  ASSERT_TRUE(c.Put("t", 1, "k", "v").ok());
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.Get("t", 1, "k").ok());
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  EXPECT_GE(ms, 1.5);
}

TEST(ClusterTest, ReplicationClampedToInlineReplicaBound) {
  // Replicas() uses a fixed-capacity inline array, so the replication
  // factor is clamped to kMaxReplicas even on larger clusters.
  Cluster c(FastOptions(12, 12));
  EXPECT_EQ(c.replication(), kMaxReplicas);
  ASSERT_TRUE(c.Put("t", 1, "k", "v").ok());
  EXPECT_EQ(*c.Get("t", 1, "k"), "v");
}

// -- Fault tolerance ----------------------------------------------------------

TEST(FaultToleranceTest, StaleNotFoundFallsThroughToNextReplica) {
  // Regression for the stale-NotFound bug: a replica that rejoined with
  // hints pending must not answer NotFound authoritatively. Make BOTH
  // replicas dirty with complementary contents so whichever the rotation
  // queries first is missing one of the keys.
  ClusterOptions opts = FastOptions(2, 2);
  opts.write_ack = WriteAck::kOne;
  Cluster c(opts);
  c.SetNodeDown(0, true);
  ASSERT_TRUE(c.Put("t", 1, "ka", "va").ok());  // only node 1 has ka
  c.SetNodeDown(0, false);
  c.SetNodeDown(1, true);
  ASSERT_TRUE(c.Put("t", 1, "kb", "vb").ok());  // only node 0 has kb
  c.SetNodeDown(1, false);
  ASSERT_TRUE(c.NodeDirty(0));
  ASSERT_TRUE(c.NodeDirty(1));
  // Every read must be served: a dirty replica's NotFound falls through.
  // Consecutive reads of one key make the replica rotation start at the
  // key-less replica on every other read, exercising the fallthrough.
  for (int i = 0; i < 8; ++i) {
    auto a = c.Get("t", 1, "ka");
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(*a, "va");
  }
  for (int i = 0; i < 8; ++i) {
    auto b = c.Get("t", 1, "kb");
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*b, "vb");
  }
  EXPECT_GT(c.resilience().failovers.load(), 0u);
  // A key absent everywhere still reports NotFound (the last resort).
  EXPECT_TRUE(c.Get("t", 1, "never-written").status().IsNotFound());
  // Replaying both hint queues reconciles the replicas.
  ASSERT_TRUE(c.ReplayHints(0).ok());
  ASSERT_TRUE(c.ReplayHints(1).ok());
  EXPECT_FALSE(c.NodeDirty(0));
  EXPECT_FALSE(c.NodeDirty(1));
  EXPECT_EQ(c.NodeContentFingerprint(0), c.NodeContentFingerprint(1));
}

TEST(FaultToleranceTest, WriteFailsLoudlyWhenAckTargetUnmet) {
  Cluster c(FastOptions(2, 2));  // default ack level: all replicas
  c.SetNodeDown(0, true);
  Status st = c.Put("t", 1, "k", "v");
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("hinted"), std::string::npos);
  EXPECT_EQ(c.resilience().failed_writes.load(), 1u);
  EXPECT_EQ(c.PendingHints(0), 1u);
  Status mst = c.MultiPut("t", {PutRow{1, "k2", "v2"}});
  EXPECT_TRUE(mst.IsIOError());
  auto del = c.Delete("t", 1, "k");
  EXPECT_TRUE(del.status().IsIOError());
}

TEST(FaultToleranceTest, AckOneToleratesDownReplicaAsDegradedWrite) {
  ClusterOptions opts = FastOptions(2, 2);
  opts.write_ack = WriteAck::kOne;
  Cluster c(opts);
  c.SetNodeDown(0, true);
  ASSERT_TRUE(c.Put("t", 1, "k", "v").ok());
  EXPECT_EQ(c.resilience().degraded_writes.load(), 1u);
  EXPECT_EQ(c.resilience().failed_writes.load(), 0u);
  EXPECT_EQ(*c.Get("t", 1, "k"), "v");  // durable on the live replica
  // Quorum on r=3 tolerates one down replica the same way.
  ClusterOptions q = FastOptions(3, 3);
  q.write_ack = WriteAck::kQuorum;
  Cluster d(q);
  d.SetNodeDown(2, true);
  ASSERT_TRUE(d.Put("t", 1, "k", "v").ok());
  EXPECT_EQ(d.resilience().degraded_writes.load(), 1u);
  d.SetNodeDown(1, true);  // 1 of 3 left: below quorum
  EXPECT_TRUE(d.Put("t", 1, "k2", "v").IsIOError());
}

TEST(FaultToleranceTest, MultiGetFailsWhenAKeyHasNoLiveReplica) {
  Cluster c(FastOptions(3, 1));
  std::vector<MultiGetKey> keys;
  for (uint64_t p = 0; p < 30; ++p) {
    std::string key = "k" + std::to_string(p);
    ASSERT_TRUE(c.Put("t", p, key, "v" + std::to_string(p)).ok());
    keys.push_back(MultiGetKey{p, key});
  }
  c.SetNodeDown(0, true);
  // Some keys' only replica is down, so the whole call fails.
  EXPECT_FALSE(c.MultiGet("t", keys).ok());
  // With the node back, the same batch serves every key.
  c.SetNodeDown(0, false);
  auto multi = c.MultiGet("t", keys);
  ASSERT_TRUE(multi.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE((*multi)[i].has_value()) << keys[i].key;
    EXPECT_EQ(*(*multi)[i], "v" + std::to_string(i));
  }
}

TEST(FaultToleranceTest, TransientFaultsRetryAndFailOver) {
  Cluster c(FastOptions(2, 2));
  ASSERT_TRUE(c.Put("t", 1, "k", "v").ok());
  FaultProfile flaky;
  flaky.transient_error_prob = 1.0;  // node 0 fails every request
  c.SetFaultProfile(0, flaky);
  for (int i = 0; i < 8; ++i) {
    auto got = c.Get("t", 1, "k");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "v");
  }
  EXPECT_GT(c.resilience().retries.load(), 0u);
  EXPECT_GT(c.resilience().failovers.load(), 0u);
  // Batched reads take the same fallback.
  FetchStats call;
  auto multi = c.MultiGet("t", {MultiGetKey{1, "k"}}, &call);
  ASSERT_TRUE(multi.ok());
  ASSERT_TRUE((*multi)[0].has_value());
  EXPECT_EQ(*(*multi)[0], "v");
}

TEST(FaultToleranceTest, WritesThatExhaustRetriesAreHintedThenReplayed) {
  ClusterOptions opts = FastOptions(2, 2);
  opts.write_ack = WriteAck::kOne;
  opts.retry_backoff_micros = 10;  // keep the test fast
  Cluster c(opts);
  FaultProfile flaky;
  flaky.transient_error_prob = 1.0;
  c.SetFaultProfile(0, flaky);
  ASSERT_TRUE(c.Put("t", 1, "k", "v").ok());  // node 1 acks; node 0 hinted
  EXPECT_GT(c.resilience().retries.load(), 0u);
  EXPECT_EQ(c.PendingHints(0), 1u);
  EXPECT_TRUE(c.NodeDirty(0));
  c.SetFaultProfile(0, FaultProfile{});  // heal the node
  ASSERT_TRUE(c.ReplayHints(0).ok());
  EXPECT_FALSE(c.NodeDirty(0));
  EXPECT_EQ(c.resilience().hints_replayed.load(), 1u);
  EXPECT_EQ(c.NodeContentFingerprint(0), c.NodeContentFingerprint(1));
}

TEST(FaultToleranceTest, TombstoneHintPreventsDeleteResurrection) {
  ClusterOptions opts = FastOptions(2, 2);
  opts.write_ack = WriteAck::kOne;
  Cluster c(opts);
  ASSERT_TRUE(c.Put("t", 1, "k", "v").ok());
  c.SetNodeDown(0, true);
  auto del = c.Delete("t", 1, "k");  // node 0 misses the delete
  ASSERT_TRUE(del.ok());
  EXPECT_TRUE(*del);
  c.SetNodeDown(0, false);
  // Node 0 still holds the row; replaying the tombstone removes it
  // instead of letting the key resurrect.
  EXPECT_EQ(c.PendingHints(0), 1u);
  ASSERT_TRUE(c.ReplayHints(0).ok());
  EXPECT_TRUE(c.Get("t", 1, "k").status().IsNotFound());
  EXPECT_EQ(c.TotalKeys(), 0u);
  EXPECT_EQ(c.NodeContentFingerprint(0), c.NodeContentFingerprint(1));
}

TEST(FaultToleranceTest, DirectWriteSupersedesOlderHint) {
  // A write committed directly to a rejoined (dirty) node makes the older
  // queued hint for the same key obsolete — replay must not roll the value
  // back.
  ClusterOptions opts = FastOptions(2, 2);
  opts.write_ack = WriteAck::kOne;
  Cluster c(opts);
  c.SetNodeDown(0, true);
  ASSERT_TRUE(c.Put("t", 1, "k", "old").ok());  // hint(k=old) for node 0
  c.SetNodeDown(0, false);
  ASSERT_TRUE(c.Put("t", 1, "k", "new").ok());  // lands on both directly
  ASSERT_TRUE(c.ReplayHints(0).ok());
  EXPECT_EQ(*c.Get("t", 1, "k"), "new");
  EXPECT_EQ(c.NodeContentFingerprint(0), c.NodeContentFingerprint(1));
}

TEST(FaultToleranceTest, ChecksumCatchesCorruptionAndFailsOver) {
  Cluster c(FastOptions(2, 2));
  ASSERT_TRUE(c.Put("t", 1, "k", "correct-value").ok());
  ASSERT_TRUE(c.Put("t", 1, "k2", "other-value").ok());
  FaultProfile rot;
  rot.corrupt_prob = 1.0;  // node 0 corrupts every value it returns
  c.SetFaultProfile(0, rot);
  for (int i = 0; i < 8; ++i) {
    // Corrupted bytes never reach the caller: the checksum rejects the
    // replica's answer and the read fails over.
    auto got = c.Get("t", 1, "k");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "correct-value");
    auto scanned = c.Scan("t", 1, "");
    ASSERT_TRUE(scanned.ok());
    ASSERT_EQ(scanned->size(), 2u);
    EXPECT_EQ((*scanned)[0].value, "correct-value");
    EXPECT_EQ((*scanned)[1].value, "other-value");
  }
  EXPECT_GT(c.resilience().checksum_failures.load(), 0u);
  EXPECT_GT(c.resilience().failovers.load(), 0u);
  // Batched reads verify too.
  FetchStats call;
  auto multi = c.MultiGet("t", {MultiGetKey{1, "k"}}, &call);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(*(*multi)[0], "correct-value");
}

TEST(FaultToleranceTest, HedgedReadBeatsSlowReplica) {
  ClusterOptions opts = FastOptions(2, 2);
  opts.hedge_after_micros = 2'000;
  Cluster c(opts);
  std::vector<MultiGetKey> keys;
  for (int k = 0; k < 8; ++k) {
    std::string key = "k" + std::to_string(k);
    ASSERT_TRUE(c.Put("t", 1, key, "v" + std::to_string(k)).ok());
    keys.push_back(MultiGetKey{1, key});
  }
  FaultProfile slow;
  slow.added_latency_micros = 50'000;  // node 0: uniformly 50ms slow
  c.SetFaultProfile(0, slow);
  for (int i = 0; i < 6; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto got = c.Get("t", 1, "k0");
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "v0");
    // Whichever replica the rotation picks first, the hedge keeps the
    // read from paying the slow node's full 50ms.
    EXPECT_LT(ms, 40.0);
  }
  EXPECT_GT(c.resilience().hedges.load(), 0u);
  EXPECT_GT(c.resilience().hedge_wins.load(), 0u);
  // Batched reads hedge slow node batches to the keys' alternates.
  FetchStats call;
  auto multi = c.MultiGet("t", keys, &call);
  ASSERT_TRUE(multi.ok());
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE((*multi)[k].has_value());
    EXPECT_EQ(*(*multi)[k], "v" + std::to_string(k));
  }
}

TEST(FaultToleranceTest, DeadlineBoundsARequest) {
  // Every read API gives up at the call's deadline on a slow replica, with
  // hedging off and on (with one replica a hedge has nowhere to go).
  for (int64_t hedge_us : {int64_t{0}, int64_t{1'000}}) {
    SCOPED_TRACE("hedge_after_micros " + std::to_string(hedge_us));
    ClusterOptions opts = FastOptions(1, 1);
    opts.request_deadline_micros = 5'000;
    opts.hedge_after_micros = hedge_us;
    Cluster c(opts);
    ASSERT_TRUE(c.Put("t", 1, "k", "v").ok());
    FaultProfile slow;
    slow.added_latency_micros = 300'000;  // far past the deadline
    c.SetFaultProfile(0, slow);
    auto expect_deadline = [](const char* api, auto&& read) {
      SCOPED_TRACE(api);
      auto start = std::chrono::steady_clock::now();
      Status st = read();
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      EXPECT_FALSE(st.ok());
      EXPECT_NE(st.message().find("deadline"), std::string::npos);
      EXPECT_LT(ms, 150.0);  // did not wait out the 300ms replica
    };
    expect_deadline("Get", [&] { return c.Get("t", 1, "k").status(); });
    expect_deadline("Scan", [&] { return c.Scan("t", 1, "").status(); });
    expect_deadline("MultiGet", [&] {
      return c.MultiGet("t", {MultiGetKey{1, "k"}}).status();
    });
    expect_deadline("MultiScan", [&] {
      return c.MultiScan({MultiScanPrefix{"t", 1, ""}}).status();
    });
  }
}

TEST(FaultToleranceTest, FailedHedgeIsNotAWin) {
  // One replica is slow, the other fails every request, so every hedge
  // fires and every hedge answer is an error: hedges count, wins do not.
  // The failing replica rejoined with a hint pending, so it is dirty and
  // read last: every read goes to the slow replica first and hedges to the
  // failing one, however the host schedules the two. Run once per role
  // assignment.
  for (size_t slow_node : {0, 1}) {
    SCOPED_TRACE("slow node " + std::to_string(slow_node));
    const size_t failing_node = 1 - slow_node;
    ClusterOptions opts = FastOptions(2, 2);
    opts.write_ack = WriteAck::kOne;
    opts.hedge_after_micros = 2'000;
    Cluster c(opts);
    std::vector<MultiGetKey> keys;
    for (int k = 0; k < 8; ++k) {
      std::string key = "k" + std::to_string(k);
      ASSERT_TRUE(c.Put("t", 1, key, "v" + std::to_string(k)).ok());
      keys.push_back(MultiGetKey{1, key});
    }
    c.SetNodeDown(failing_node, true);
    ASSERT_TRUE(c.Put("t", 1, "missed", "hinted").ok());
    c.SetNodeDown(failing_node, false);
    ASSERT_TRUE(c.NodeDirty(failing_node));
    FaultProfile slow;
    slow.added_latency_micros = 30'000;
    c.SetFaultProfile(slow_node, slow);
    FaultProfile failing;
    failing.transient_error_prob = 1.0;
    c.SetFaultProfile(failing_node, failing);

    FetchStats multi_call;
    auto multi = c.MultiGet("t", keys, &multi_call);
    ASSERT_TRUE(multi.ok()) << multi.status().ToString();
    for (int k = 0; k < 8; ++k) {
      ASSERT_TRUE((*multi)[k].has_value());
      EXPECT_EQ(*(*multi)[k], "v" + std::to_string(k));
    }
    EXPECT_GT(multi_call.hedges, 0u);
    EXPECT_EQ(multi_call.hedge_wins, 0u);
    for (int i = 0; i < 4; ++i) {
      FetchStats get_call;
      auto got = c.Get("t", 1, keys[i].key, &get_call);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(get_call.hedge_wins, 0u);
    }
    EXPECT_GT(c.resilience().hedges.load(), 0u);
    EXPECT_EQ(c.resilience().hedge_wins.load(), 0u);
  }
}

TEST(FaultToleranceTest, RepairRestoresKilledNodeToTwinContents) {
  ClusterOptions opts = FastOptions(3, 2);
  opts.write_ack = WriteAck::kOne;  // writes keep succeeding during the kill
  Cluster faulty(opts);
  Cluster twin(opts);
  auto put_range = [](Cluster& c, int lo, int hi) {
    for (int k = lo; k < hi; ++k) {
      EXPECT_TRUE(c.Put("t", static_cast<uint64_t>(k % 11),
                        "k" + std::to_string(k), "v" + std::to_string(k))
                      .ok());
    }
  };
  put_range(faulty, 0, 50);
  put_range(twin, 0, 50);
  faulty.SetNodeDown(1, true);
  // Live mixed workload while node 1 is dead: new writes, overwrites and
  // deletes all miss it.
  put_range(faulty, 50, 120);
  put_range(twin, 50, 120);
  for (int k = 0; k < 10; ++k) {
    // kOne ack: both deletes succeed even with faulty's node 1 dead (the
    // dead replica gets a tombstone hint).
    EXPECT_TRUE(faulty
                    .Delete("t", static_cast<uint64_t>(k % 11),
                            "k" + std::to_string(k))
                    .ok());
    EXPECT_TRUE(twin
                    .Delete("t", static_cast<uint64_t>(k % 11),
                            "k" + std::to_string(k))
                    .ok());
  }
  faulty.SetNodeDown(1, false);
  ASSERT_TRUE(faulty.RepairNode(1).ok());
  EXPECT_FALSE(faulty.NodeDirty(1));
  EXPECT_EQ(faulty.PendingHints(1), 0u);
  // Byte-identical to the never-faulted twin, node by node.
  for (size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(faulty.NodeContentFingerprint(n),
              twin.NodeContentFingerprint(n))
        << "node " << n;
  }
  EXPECT_EQ(faulty.TotalKeys(), twin.TotalKeys());
  EXPECT_GT(faulty.resilience().repair_rows.load(), 0u);
}

// -- Per-call accounting ------------------------------------------------------

constexpr const char* kEventNames[] = {"failovers", "retries", "hedges",
                                       "hedge_wins", "checksum_failures"};

std::array<uint64_t, 5> CallEvents(const FetchStats& s) {
  return {s.failovers, s.retries, s.hedges, s.hedge_wins, s.checksum_failures};
}

std::array<uint64_t, 5> ClusterEvents(const Cluster& c) {
  const ClusterResilienceStats& r = c.resilience();
  return {r.failovers.load(), r.retries.load(), r.hedges.load(),
          r.hedge_wins.load(), r.checksum_failures.load()};
}

/// Loads `partitions` x 6 rows into table "t" and returns their keys plus
/// one key that was never written.
std::vector<MultiGetKey> LoadRows(Cluster* c, uint64_t partitions) {
  std::vector<MultiGetKey> keys;
  for (uint64_t p = 0; p < partitions; ++p) {
    for (int k = 0; k < 6; ++k) {
      std::string key = "k" + std::to_string(p) + "-" + std::to_string(k);
      EXPECT_TRUE(c->Put("t", p, key, "v" + key).ok());
      keys.push_back(MultiGetKey{p, key});
    }
  }
  keys.push_back(MultiGetKey{0, "never-written"});
  return keys;
}

/// One read call counted into `call`: a Get of a random key (api 0), a
/// MultiGet of every key (api 1), a Scan of a random partition (api 2) or
/// a MultiScan of every partition and one absent prefix (api 3). Checks
/// that the call succeeded.
void ReadOnce(Cluster* c, const std::vector<MultiGetKey>& keys,
              uint64_t partitions, size_t api, Rng* rng, FetchStats* call) {
  switch (api) {
    case 0: {
      const MultiGetKey& k = keys[rng->Uniform(keys.size())];
      auto got = c->Get("t", k.partition, k.key, call);
      EXPECT_TRUE(got.ok() || got.status().IsNotFound())
          << "Get: " << got.status().ToString();
      break;
    }
    case 1: {
      auto got = c->MultiGet("t", keys, call);
      EXPECT_TRUE(got.ok()) << "MultiGet: " << got.status().ToString();
      break;
    }
    case 2: {
      auto got = c->Scan("t", rng->Uniform(partitions), "", call);
      EXPECT_TRUE(got.ok()) << "Scan: " << got.status().ToString();
      break;
    }
    default: {
      std::vector<MultiScanPrefix> prefixes;
      for (uint64_t p = 0; p < partitions; ++p) {
        prefixes.push_back(MultiScanPrefix{"t", p, ""});
      }
      prefixes.push_back(MultiScanPrefix{"t", 0, "absent"});
      auto got = c->MultiScan(prefixes, call);
      EXPECT_TRUE(got.ok()) << "MultiScan: " << got.status().ToString();
      break;
    }
  }
}

TEST(ReadAccountingTest, PerCallCountsEqualClusterGrowth) {
  // Under each fault profile, what one call of each read API reports in
  // its FetchStats is exactly what the cluster's lifetime counters grew by
  // over the call.
  enum Profile { kTransient, kCorrupt, kSlowHedged };
  constexpr uint64_t kPartitions = 4;
  std::array<uint64_t, 5> total{};  // every counter must move somewhere
  for (uint64_t seed : {101, 102, 103}) {
    for (Profile profile : {kTransient, kCorrupt, kSlowHedged}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " profile " +
                   std::to_string(profile));
      Rng rng(seed * 8 + profile);
      ClusterOptions opts = FastOptions(3, 2 + rng.Uniform(2));
      opts.retry_backoff_micros = 10;
      FaultProfile fault;
      if (profile == kTransient) fault.transient_error_prob = 0.5;
      if (profile == kCorrupt) fault.corrupt_prob = 0.3;
      if (profile == kSlowHedged) {
        opts.hedge_after_micros = 1'000;
        fault.added_latency_micros = 4'000;
      }
      Cluster c(opts);
      std::vector<MultiGetKey> keys = LoadRows(&c, kPartitions);
      c.SetFaultProfile(rng.Uniform(3), fault);
      for (int i = 0; i < 15; ++i) {
        const std::array<uint64_t, 5> before = ClusterEvents(c);
        FetchStats call;
        ReadOnce(&c, keys, kPartitions, i % 4, &rng, &call);
        const std::array<uint64_t, 5> after = ClusterEvents(c);
        const std::array<uint64_t, 5> counted = CallEvents(call);
        for (size_t f = 0; f < 5; ++f) {
          EXPECT_EQ(counted[f], after[f] - before[f])
              << kEventNames[f] << " in call " << i;
          total[f] += counted[f];
        }
      }
    }
  }
  for (size_t f = 0; f < 5; ++f) {
    EXPECT_GT(total[f], 0u) << kEventNames[f] << " never moved";
  }
}

TEST(ReadAccountingTest, FaultFreeBatchesEqualServedRequests) {
  // On a healthy cluster without hedging, kv_batches is exactly the number
  // of requests the storage nodes served for the call.
  constexpr uint64_t kPartitions = 5;
  for (uint64_t seed : {201, 202, 203}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Cluster c(FastOptions(3, 1 + rng.Uniform(3)));
    std::vector<MultiGetKey> keys = LoadRows(&c, kPartitions);
    for (int i = 0; i < 20; ++i) {
      const uint64_t before = c.TotalReadRequests();
      FetchStats call;
      ReadOnce(&c, keys, kPartitions, i % 4, &rng, &call);
      EXPECT_EQ(call.kv_batches, c.TotalReadRequests() - before)
          << "call " << i;
      EXPECT_GT(call.kv_batches, 0u);
      EXPECT_EQ(CallEvents(call), (std::array<uint64_t, 5>{}));
    }
  }
}

// -- Batched scans ------------------------------------------------------------

/// Rows keyed "a<k>" and "b<k>" in tables "t" and "u" over `partitions`
/// partitions, and a scan list over both tables in one call: per written
/// partition the "a" and "b" prefixes, the empty prefix (the whole
/// partition) and a prefix that matches nothing, plus a partition never
/// written.
std::vector<MultiScanPrefix> LoadScanRows(Cluster* c, uint64_t partitions) {
  std::vector<MultiScanPrefix> prefixes;
  for (std::string_view table : {"t", "u"}) {
    for (uint64_t p = 0; p < partitions; ++p) {
      for (int k = 0; k < 3; ++k) {
        for (const char* head : {"a", "b"}) {
          std::string key = head + std::to_string(k);
          EXPECT_TRUE(c->Put(table, p, key,
                             std::string(table) + std::to_string(p) + key)
                          .ok());
        }
      }
      for (const char* prefix : {"a", "b", "", "zz"}) {
        prefixes.push_back(MultiScanPrefix{table, p, prefix});
      }
    }
    prefixes.push_back(MultiScanPrefix{table, partitions + 7, ""});
  }
  return prefixes;
}

/// Scan's answer for every prefix, one call each.
std::vector<std::vector<KVPair>> ScanEach(
    Cluster* c, const std::vector<MultiScanPrefix>& prefixes) {
  std::vector<std::vector<KVPair>> out;
  for (const MultiScanPrefix& p : prefixes) {
    auto rows = c->Scan(p.table, p.partition, p.prefix);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    out.push_back(rows.ok() ? std::move(*rows) : std::vector<KVPair>{});
  }
  return out;
}

void ExpectSameRows(const std::vector<MultiScanPrefix>& prefixes,
                    const std::vector<std::vector<KVPair>>& got,
                    const std::vector<std::vector<KVPair>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(std::string(prefixes[i].table) + "/" +
                 std::to_string(prefixes[i].partition) + "/" +
                 prefixes[i].prefix);
    ASSERT_EQ(got[i].size(), want[i].size());
    for (size_t r = 0; r < want[i].size(); ++r) {
      EXPECT_EQ(got[i][r].key, want[i][r].key);
      EXPECT_EQ(got[i][r].value.view(), want[i][r].value.view());
    }
  }
}

TEST(MultiScanTest, EveryPrefixMatchesScan) {
  for (size_t replication : {1, 3}) {
    SCOPED_TRACE("replication " + std::to_string(replication));
    Cluster c(FastOptions(3, replication));
    const std::vector<MultiScanPrefix> prefixes = LoadScanRows(&c, 6);
    const auto want = ScanEach(&c, prefixes);
    size_t rows = 0;
    for (const auto& w : want) rows += w.size();
    EXPECT_EQ(rows, 2u * 6 * (3 + 3 + 6));  // a-rows, b-rows, whole partition
    FetchStats call;
    auto got = c.MultiScan(prefixes, &call);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRows(prefixes, *got, want);
    EXPECT_LE(call.kv_batches, c.num_nodes());
  }
  Cluster c(FastOptions());
  FetchStats call;
  auto none = c.MultiScan({}, &call);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(call.kv_batches, 0u);
  EXPECT_EQ(c.TotalReadRequests(), 0u);
}

TEST(MultiScanTest, OneRequestPerServingNodeSavesOnlySeeks) {
  // Cluster level: one node request per serving node, and the same rows
  // and bytes as one Scan per prefix.
  for (size_t replication : {1, 2}) {
    SCOPED_TRACE("replication " + std::to_string(replication));
    Cluster c(FastOptions(3, replication));
    const std::vector<MultiScanPrefix> prefixes = LoadScanRows(&c, 6);
    c.ResetStats();
    (void)ScanEach(&c, prefixes);
    const uint64_t looped_requests = c.TotalReadRequests();
    const uint64_t looped_bytes = c.TotalBytesRead();
    EXPECT_EQ(looped_requests, prefixes.size());
    c.ResetStats();
    FetchStats call;
    ASSERT_TRUE(c.MultiScan(prefixes, &call).ok());
    // 50 prefixes over 3 nodes: every node serves some of them.
    EXPECT_EQ(call.kv_batches, c.num_nodes());
    EXPECT_EQ(c.TotalReadRequests(), call.kv_batches);
    EXPECT_EQ(c.TotalBytesRead(), looped_bytes);
  }

  // Node level: a batch is charged CostMicros(total keys, total bytes)
  // once, so against one request per prefix it saves exactly the seeks.
  LatencyModel latency;
  latency.seek_micros = 40;
  latency.per_key_micros = 3;
  latency.bytes_per_micro = 1.0;  // whole microseconds: sums stay exact
  StorageNode node(0, 2, latency);
  std::vector<NodePutRow> rows;
  for (const char* key : {"a1", "a2", "a3", "b1", "c1", "c2"}) {
    rows.push_back(NodePutRow{
        key, std::make_shared<const std::string>(std::string("value-") + key)});
  }
  ASSERT_TRUE(node.PutBatch(std::move(rows)).ok());
  const std::vector<std::string> prefixes = {"a", "c", "zz", ""};
  const StorageNodeStats& st = node.stats();
  node.ResetStats();
  for (const std::string& prefix : prefixes) {
    ASSERT_TRUE(node.SubmitMultiScan({prefix}).get().front().ok());
  }
  const uint64_t looped_micros = st.simulated_micros.load();
  const uint64_t keys = st.keys_read.load();
  const uint64_t bytes = st.bytes_read.load();
  EXPECT_EQ(st.scan_requests.load(), prefixes.size());
  node.ResetStats();
  std::vector<Result<std::vector<KVPair>>> answers =
      node.SubmitMultiScan(prefixes).get();
  ASSERT_EQ(answers.size(), prefixes.size());
  const size_t want_rows[] = {3, 2, 0, 6};
  for (size_t i = 0; i < prefixes.size(); ++i) {
    ASSERT_TRUE(answers[i].ok());
    EXPECT_EQ(answers[i]->size(), want_rows[i]) << "prefix " << prefixes[i];
  }
  EXPECT_EQ(st.scan_requests.load(), 1u);
  EXPECT_EQ(st.keys_read.load(), keys);
  EXPECT_EQ(st.bytes_read.load(), bytes);
  EXPECT_EQ(st.simulated_micros.load(),
            static_cast<uint64_t>(latency.CostMicros(keys, bytes)));
  EXPECT_EQ(looped_micros - st.simulated_micros.load(),
            (prefixes.size() - 1) * static_cast<uint64_t>(latency.seek_micros));
}

TEST(MultiScanTest, EveryPrefixGetsScansAnswerUnderFaults) {
  // Each fault scenario on a replication-3 cluster: the batched answer is
  // Scan's, and what the call counts into its FetchStats is exactly what
  // the cluster's lifetime counters grew by.
  enum Scenario { kCorrupt, kTransient, kDirty, kHedged };
  for (Scenario scenario : {kCorrupt, kTransient, kDirty, kHedged}) {
    SCOPED_TRACE("scenario " + std::to_string(scenario));
    ClusterOptions opts = FastOptions(3, 3);
    opts.write_ack = WriteAck::kOne;
    opts.retry_backoff_micros = 10;
    if (scenario == kHedged) opts.hedge_after_micros = 1'000;
    Cluster c(opts);
    const std::vector<MultiScanPrefix> prefixes = LoadScanRows(&c, 4);
    const auto want = ScanEach(&c, prefixes);
    FaultProfile fault;
    if (scenario == kCorrupt) fault.corrupt_prob = 1.0;
    if (scenario == kTransient) fault.transient_error_prob = 1.0;
    if (scenario == kHedged) fault.added_latency_micros = 20'000;
    if (scenario == kDirty) {
      // Node 1 misses a write of another table and rejoins dirty: it is
      // read last, so every prefix is served by a clean replica.
      c.SetNodeDown(1, true);
      ASSERT_TRUE(c.Put("other", 1, "k", "v").ok());
      c.SetNodeDown(1, false);
      ASSERT_TRUE(c.NodeDirty(1));
    } else {
      c.SetFaultProfile(0, fault);
    }
    std::array<uint64_t, 5> seen{};
    for (int i = 0; i < 3; ++i) {
      const std::array<uint64_t, 5> before = ClusterEvents(c);
      FetchStats call;
      auto got = c.MultiScan(prefixes, &call);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameRows(prefixes, *got, want);
      const std::array<uint64_t, 5> after = ClusterEvents(c);
      const std::array<uint64_t, 5> counted = CallEvents(call);
      for (size_t f = 0; f < 5; ++f) {
        EXPECT_EQ(counted[f], after[f] - before[f]) << kEventNames[f];
        seen[f] += counted[f];
      }
    }
    // Field order: failovers, retries, hedges, hedge_wins, checksum
    // failures. The scenario's own machinery ran.
    switch (scenario) {
      case kCorrupt:
        EXPECT_GT(seen[4], 0u);
        break;
      case kTransient:
        EXPECT_GT(seen[0] + seen[1], 0u);
        break;
      case kDirty:
        EXPECT_EQ(seen, (std::array<uint64_t, 5>{}));
        break;
      case kHedged:
        EXPECT_GT(seen[3], 0u);
        break;
    }
  }
}

TEST(MultiScanTest, NodeCrashedMidCallFailsEveryPrefixOverInOneRound) {
  // Nodes 1 and 2 rejoined dirty, so node 0, the only clean replica, is
  // every prefix's first choice. A slow read holds node 0's one server
  // thread while the MultiScan batch queues behind it; node 0 then
  // crashes, the queued batch fails, and every prefix fails over to a
  // dirty replica in the next round. The ordering rests on sleeps, so a
  // run where the batch was not queued before the crash is retried.
  bool failed_over = false;
  for (int attempt = 0; attempt < 5 && !failed_over; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    ClusterOptions opts = FastOptions(3, 3);
    opts.server_threads_per_node = 1;
    opts.write_ack = WriteAck::kOne;
    Cluster c(opts);
    const std::vector<MultiScanPrefix> prefixes = LoadScanRows(&c, 4);
    const auto want = ScanEach(&c, prefixes);
    for (size_t n : {1, 2}) {
      c.SetNodeDown(n, true);
      ASSERT_TRUE(c.Put("other", n, "k", "v").ok());
      c.SetNodeDown(n, false);
    }
    FaultProfile slow;
    slow.added_latency_micros = 80'000;
    c.SetFaultProfile(0, slow);
    std::thread occupant([&c] { (void)c.Get("t", 0, "a0"); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    FetchStats call;
    Result<std::vector<std::vector<KVPair>>> got = Status::IOError("unset");
    std::thread reader([&] { got = c.MultiScan(prefixes, &call); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    c.SetNodeDown(0, true);
    reader.join();
    occupant.join();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRows(prefixes, *got, want);
    // The failed batch, then one batch per dirty replica; each prefix
    // counts its failover.
    failed_over = call.failovers == prefixes.size() && call.kv_batches <= 3;
  }
  EXPECT_TRUE(failed_over);
}

TEST(MultiScanTest, FailingCleanReplicaCostsOneBatchPerRound) {
  // Nodes 1 and 2 rejoined dirty and node 0, the only clean replica, fails
  // every request. Each item retries node 0 max_retries times, then fails
  // over to a dirty replica, which serves it: what a one-item read counts,
  // per item. A batched read sends every item's attempt of one round as
  // one request to node 0, then at most one request per dirty replica.
  ClusterOptions opts = FastOptions(3, 3);
  opts.write_ack = WriteAck::kOne;
  opts.retry_backoff_micros = 10;
  Cluster c(opts);
  const std::vector<MultiScanPrefix> prefixes = LoadScanRows(&c, 4);
  std::vector<MultiGetKey> keys;
  for (uint64_t p = 0; p < 4; ++p) keys.push_back(MultiGetKey{p, "a1"});
  for (size_t n : {1, 2}) {
    c.SetNodeDown(n, true);
    ASSERT_TRUE(c.Put("other", n, "k", "v").ok());
    c.SetNodeDown(n, false);
  }
  FaultProfile failing;
  failing.transient_error_prob = 1.0;
  c.SetFaultProfile(0, failing);
  const uint64_t retries = opts.max_retries;
  const uint64_t node0_batches = opts.max_retries + 1;

  std::vector<SharedValue> want_values;
  for (const MultiGetKey& k : keys) {
    FetchStats one;
    auto got = c.Get("t", k.partition, k.key, &one);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    want_values.push_back(*got);
    EXPECT_EQ(one.retries, retries);
    EXPECT_EQ(one.failovers, 1u);
    EXPECT_EQ(one.kv_batches, node0_batches + 1);
  }
  const auto want_rows = ScanEach(&c, prefixes);

  // Node 0 fails every request it gets and serves none, so the call's
  // batches minus the requests the nodes served are node 0's.
  auto expect_rounds = [&](const FetchStats& call, size_t items,
                           uint64_t served) {
    EXPECT_EQ(call.retries, retries * items);
    EXPECT_EQ(call.failovers, items);
    EXPECT_EQ(call.kv_batches - served, node0_batches);
    EXPECT_LE(served, 2u);
  };
  {
    SCOPED_TRACE("MultiScan");
    const uint64_t before = c.TotalReadRequests();
    FetchStats call;
    auto got = c.MultiScan(prefixes, &call);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRows(prefixes, *got, want_rows);
    expect_rounds(call, prefixes.size(), c.TotalReadRequests() - before);
  }
  {
    SCOPED_TRACE("MultiGet");
    const uint64_t before = c.TotalReadRequests();
    FetchStats call;
    auto got = c.MultiGet("t", keys, &call);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE((*got)[i].has_value());
      EXPECT_EQ((*got)[i]->view(), want_values[i].view());
    }
    expect_rounds(call, keys.size(), c.TotalReadRequests() - before);
  }
}

// Counted, not timed: the node's high-water mark of requests in service
// shows whether four requests overlapped on its server threads, whatever
// the host's load does to wall-clock time.
TEST(LatencySimulationTest, ParallelRequestsOverlapOnServerThreads) {
  auto most_served_at_once = [](size_t server_threads) {
    LatencyModel latency;
    latency.seek_micros = 20'000;
    StorageNode node(0, server_threads, latency);
    std::vector<NodePutRow> rows;
    for (int i = 0; i < 4; ++i) {
      rows.push_back(NodePutRow{"k" + std::to_string(i),
                                std::make_shared<const std::string>("v")});
    }
    EXPECT_TRUE(node.PutBatch(std::move(rows)).ok());
    EXPECT_EQ(node.stats().max_serving.load(), 1u);
    // Four reads queued at once, each holding a server thread for 20 ms.
    std::vector<std::future<std::vector<Result<SharedValue>>>> reads;
    for (int i = 0; i < 4; ++i) {
      reads.push_back(node.SubmitMultiGet({"k" + std::to_string(i)}));
    }
    for (auto& r : reads) EXPECT_TRUE(r.get().front().ok());
    EXPECT_EQ(node.stats().serving.load(), 0u);
    return node.stats().max_serving.load();
  };
  EXPECT_GE(most_served_at_once(4), 2u);
  // One server thread serves one request at a time: the count cannot pass.
  EXPECT_EQ(most_served_at_once(1), 1u);
}

}  // namespace
}  // namespace hgs
