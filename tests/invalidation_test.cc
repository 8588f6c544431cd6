// Partition-scoped epoch invalidation (live-ingest MVCC).
//
// A publish used to bump one global epoch, which changed every cache key at
// once: one AppendBatch colded the entire warm set. Publishes now carry the
// exact (table, partition) scopes the writer touched, readers pin the whole
// epoch map per query, and the refresh sweeps only entries whose scope was
// re-published. These tests assert the precision of that contract — reads
// of untouched warm scopes perform zero round trips and zero Deserialize
// calls across a publish — and race pinned old-epoch readers against a
// rapid publish loop (the TSan job runs this binary).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
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

std::vector<Event> SmallHistory(uint64_t seed = 1, uint64_t n = 6'000) {
  workload::WikiGrowthOptions w;
  w.num_events = n / 2;
  w.seed = seed;
  auto events = workload::GenerateWikiGrowth(w);
  return workload::AugmentWithChurn(std::move(events),
                                    {.num_events = n / 2, .seed = seed + 7});
}

TGIOptions SmallOptions() {
  TGIOptions opts;
  opts.events_per_timespan = 2'000;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 400;
  opts.micro_delta_size = 64;
  opts.num_horizontal_partitions = 2;
  return opts;
}

// ---------------------------------------------------------------------------
// Epoch-map unit tests (Cluster level).
// ---------------------------------------------------------------------------

TEST(EpochVectorTest, PublishTouchedMovesOnlyTouchedScopes) {
  Cluster cluster(FastCluster());
  EpochKey a = MakeEpochKey("deltas", 3);
  EpochKey b = MakeEpochKey("deltas", 7);
  EpochVectorRef before = cluster.epochs();
  EXPECT_EQ(before->SubEpoch(a), before->SubEpoch(b));

  cluster.PublishTouched({a});
  EpochVectorRef after = cluster.epochs();
  EXPECT_EQ(after->global, before->global + 1);
  EXPECT_EQ(after->SubEpoch(a), after->global);
  EXPECT_EQ(after->SubEpoch(b), before->SubEpoch(b));  // untouched scope
  // The pinned old map is immutable: the publish didn't mutate it.
  EXPECT_EQ(before->SubEpoch(a), 0u);
}

TEST(EpochVectorTest, ConcurrentPublishesAndReadersAreSafe) {
  // Raw swap-vs-read race: every reader sees an immutable, internally
  // consistent map; globals observed by one reader never go backwards.
  Cluster cluster(FastCluster());
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        EpochVectorRef e = cluster.epochs();
        ASSERT_GE(e->global, last);
        last = e->global;
        for (uint64_t p = 0; p < 8; ++p) {
          ASSERT_LE(e->SubEpoch(MakeEpochKey("deltas", p)), e->global);
        }
      }
    });
  }
  for (uint64_t i = 0; i < 2'000; ++i) {
    cluster.PublishTouched({MakeEpochKey("deltas", i % 8),
                            MakeEpochKey("versions", i % 5)});
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GE(cluster.publish_epoch(), 2'000u);
}

// ---------------------------------------------------------------------------
// Invalidation precision across AppendBatch (the acceptance criterion).
// ---------------------------------------------------------------------------

TEST(InvalidationPrecisionTest, UntouchedWarmSpanSurvivesAppendBatch) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(91, 8'000);
  size_t half = events.size() / 2;
  std::vector<Event> first(events.begin(), events.begin() + half);
  std::vector<Event> second(events.begin() + half, events.end());
  ASSERT_TRUE(tgi.BuildFrom(first).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  // Warm the first half's spans through both cache tiers.
  Timestamp t1 = first[first.size() / 2].time;
  ASSERT_TRUE(qm->GetSnapshot(t1).ok());
  FetchStats warm;
  auto snap_warm = qm->GetSnapshot(t1, &warm);
  ASSERT_TRUE(snap_warm.ok());
  ASSERT_EQ(warm.kv_batches, 0u);
  ASSERT_EQ(warm.decodes, 0u);

  // The append builds new timespans: it touches the new spans' deltas /
  // microparts partitions and its own nodes' versions partitions — none of
  // the old spans' delta scopes.
  ASSERT_TRUE(tgi.AppendBatch(second).ok());

  // The untouched warm span must still be served entirely from cache:
  // zero physical round trips, zero Deserialize calls, across the publish.
  FetchStats post;
  auto snap_post = qm->GetSnapshot(t1, &post);
  ASSERT_TRUE(snap_post.ok());
  EXPECT_EQ(post.kv_batches, 0u);
  EXPECT_EQ(post.decodes, 0u);
  EXPECT_GT(post.cache_hits, 0u);
  EXPECT_GT(post.decode_hits, 0u);
  EXPECT_TRUE(*snap_post == *snap_warm);
  // The refresh that ran inside that query swept precisely: warm entries
  // survived, and re-published scopes were dropped.
  EXPECT_GT(post.cache_entries_retained, 0u);
  EXPECT_EQ(post.cache_entries_retained, qm->CacheEntriesRetained());

  // The touched scopes do miss: the new span's rows are necessarily cold.
  Timestamp t2 = workload::EndTime(events);
  FetchStats fresh;
  auto snap_new = qm->GetSnapshot(t2, &fresh);
  ASSERT_TRUE(snap_new.ok());
  EXPECT_GT(fresh.kv_batches, 0u);
  EXPECT_GT(fresh.decodes, 0u);
  EXPECT_TRUE(*snap_new == workload::ReplayToGraph(events, t2));
}

TEST(InvalidationPrecisionTest, TouchedVersionScopeInvalidatesWarmHistory) {
  // The flip side of precision: a node written by the append sits in a
  // touched versions partition, so its warm version chain must be swept
  // (a stale chain would lose the appended events), while the old spans'
  // eventlists it references stay warm.
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = SmallHistory(93, 8'000);
  size_t half = events.size() / 2;
  ASSERT_TRUE(tgi.BuildFrom({events.begin(), events.begin() + half}).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  // A node touched in both halves.
  NodeId busy = events.front().u;
  {
    std::unordered_map<NodeId, int> touches;
    for (size_t i = 0; i < events.size(); ++i) {
      int weight = i < half ? 1 : 1'000'000;
      touches[events[i].u] += weight;
      if (events[i].IsEdgeEvent()) touches[events[i].v] += weight;
    }
    int best = 0;
    for (auto [id, cnt] : touches) {
      if (cnt > best && cnt > 1'000'000) {
        best = cnt;
        busy = id;
      }
    }
  }
  Timestamp end_first = events[half - 1].time;
  ASSERT_TRUE(qm->GetNodeHistory(busy, 0, end_first).ok());

  ASSERT_TRUE(tgi.AppendBatch({events.begin() + half, events.end()}).ok());
  FetchStats post;
  Timestamp end = workload::EndTime(events);
  auto hist = qm->GetNodeHistory(busy, 0, end, &post);
  ASSERT_TRUE(hist.ok());
  // The version scan re-ran (its partition was touched)...
  EXPECT_GT(post.kv_batches, 0u);
  EXPECT_GT(post.cache_entries_invalidated, 0u);
  // ...and the history is complete, including the appended half.
  std::vector<Event> expected;
  for (const Event& e : events) {
    if (e.time > 0 && e.time <= end && e.Touches(busy)) expected.push_back(e);
  }
  ASSERT_EQ(hist->events.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(hist->events.events()[i], expected[i]);
  }
}

// ---------------------------------------------------------------------------
// Pinned old-epoch readers vs a rapid publish loop (TSan target).
// ---------------------------------------------------------------------------

TEST(InvalidationRaceTest, PinnedReadersRaceRapidPublishes) {
  Cluster cluster(FastCluster());
  TGIOptions opts = SmallOptions();
  opts.events_per_timespan = 1'000;
  TGI tgi(&cluster, opts);
  auto events = SmallHistory(97, 8'000);
  const size_t kBatches = 8;
  size_t seed_count = events.size() / 2;
  std::vector<Event> seed_events(events.begin(),
                                 events.begin() + seed_count);
  ASSERT_TRUE(tgi.BuildFrom(seed_events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  Timestamp seed_end = seed_events.back().time;

  // Readers keep querying the seeded prefix — each query pins whatever
  // epoch map is current — while the writer appends and publishes batch
  // after batch, sweeping the caches underneath them.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Timestamp t = 1 + (r * 37 + i * 101) % seed_end;
        FetchStats stats;
        if (!qm->GetSnapshot(t, &stats).ok()) failures.fetch_add(1);
        if (!qm->GetNodeHistory(events[i % seed_count].u, 0, t).ok()) {
          failures.fetch_add(1);
        }
        ++i;
      }
    });
  }
  size_t per_batch = (events.size() - seed_count) / kBatches;
  for (size_t b = 0; b < kBatches; ++b) {
    auto begin = events.begin() + seed_count + b * per_batch;
    auto end = b + 1 == kBatches ? events.end() : begin + per_batch;
    ASSERT_TRUE(tgi.AppendBatch({begin, end}).ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // After the dust settles, the full history reads back exactly.
  Timestamp end = workload::EndTime(events);
  auto snap = qm->GetSnapshot(end);
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(*snap == workload::ReplayToGraph(events, end));
}

}  // namespace
}  // namespace hgs
