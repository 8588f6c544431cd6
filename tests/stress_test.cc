// Stress and sweep tests: the TGI correctness invariant across the tuning
// space (hierarchy arity, checkpoint interval, eventlist size), concurrent
// query execution against one query manager, concurrent KV clients, and
// corruption handling end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "kvstore/cluster.h"
#include "tgi/layout.h"
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

// (arity, checkpoint_interval, eventlist_size)
using TuningParam = std::tuple<uint32_t, size_t, size_t>;

class TGITuningSweep : public ::testing::TestWithParam<TuningParam> {};

TEST_P(TGITuningSweep, SnapshotInvariantHolds) {
  auto [arity, cp, l] = GetParam();
  TGIOptions opts;
  opts.events_per_timespan = 2'500;
  opts.eventlist_size = l;
  opts.checkpoint_interval = cp;
  opts.hierarchy_arity = arity;
  opts.micro_delta_size = 100;
  opts.num_horizontal_partitions = 2;

  Cluster cluster(FastCluster());
  TGI tgi(&cluster, opts);
  auto events = History(arity * 1000 + l, 6'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  for (double frac : {0.15, 0.4, 0.62, 0.87, 1.0}) {
    Timestamp t = events[static_cast<size_t>(
                             static_cast<double>(events.size() - 1) * frac)]
                      .time;
    auto snap = qm->GetSnapshot(t);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_TRUE(*snap == workload::ReplayToGraph(events, t))
        << "arity=" << arity << " cp=" << cp << " l=" << l << " t=" << t;
  }
}

TEST_P(TGITuningSweep, NodeHistoryInvariantHolds) {
  auto [arity, cp, l] = GetParam();
  TGIOptions opts;
  opts.events_per_timespan = 2'500;
  opts.eventlist_size = l;
  opts.checkpoint_interval = cp;
  opts.hierarchy_arity = arity;
  opts.micro_delta_size = 100;
  opts.num_horizontal_partitions = 2;

  Cluster cluster(FastCluster());
  TGI tgi(&cluster, opts);
  auto events = History(arity * 1000 + l + 1, 5'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  Timestamp from = events[events.size() / 5].time;
  Timestamp to = events[events.size() * 4 / 5].time;
  Rng rng(arity + l);
  Graph at_from = workload::ReplayToGraph(events, from);
  auto ids = at_from.NodeIds();
  for (int trial = 0; trial < 6; ++trial) {
    NodeId id = ids[rng.Uniform(ids.size())];
    auto hist = qm->GetNodeHistory(id, from, to);
    ASSERT_TRUE(hist.ok());
    size_t expected = 0;
    for (const Event& e : events) {
      if (e.time > from && e.time <= to && e.Touches(id)) ++expected;
    }
    EXPECT_EQ(hist->events.size(), expected) << "node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tunings, TGITuningSweep,
    ::testing::Values(TuningParam{2, 500, 125}, TuningParam{2, 250, 250},
                      TuningParam{3, 750, 125}, TuningParam{4, 500, 250},
                      TuningParam{8, 1000, 125}, TuningParam{2, 2500, 500}));

TEST(ConcurrentQueryTest, ManyThreadsOneQueryManager) {
  Cluster cluster(FastCluster());
  TGIOptions opts;
  opts.events_per_timespan = 2'000;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 400;
  opts.micro_delta_size = 64;
  opts.num_horizontal_partitions = 2;
  TGI tgi(&cluster, opts);
  auto events = History(333, 5'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  Timestamp end = workload::EndTime(events);
  Graph final_state = workload::ReplayToGraph(events, end);
  auto ids = final_state.NodeIds();
  std::atomic<int> failures{0};
  ParallelFor(48, 8, [&](size_t i) {
    Rng rng(i);
    switch (i % 3) {
      case 0: {
        Timestamp t = end * static_cast<Timestamp>(1 + i % 4) / 4;
        auto snap = qm->GetSnapshot(t);
        if (!snap.ok() ||
            !(*snap == workload::ReplayToGraph(events, t))) {
          failures++;
        }
        break;
      }
      case 1: {
        NodeId id = ids[rng.Uniform(ids.size())];
        auto hist = qm->GetNodeHistory(id, 0, end);
        if (!hist.ok()) failures++;
        break;
      }
      case 2: {
        NodeId id = ids[rng.Uniform(ids.size())];
        auto hood = qm->GetKHopNeighborhood(id, end, 1);
        if (!hood.ok()) failures++;
        break;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

// Regression: set_fetch_parallelism used to write a plain size_t that
// in-flight queries read concurrently — a data race TSan flags (the CI
// tsan job runs this suite). fetch_parallelism_ is atomic now; tuning the
// knob mid-flight must neither race nor change results.
TEST(ConcurrentQueryTest, SetFetchParallelismRacesQueries) {
  Cluster cluster(FastCluster());
  TGIOptions opts;
  opts.events_per_timespan = 2'000;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 400;
  opts.micro_delta_size = 64;
  TGI tgi(&cluster, opts);
  auto events = History(77, 4'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  Timestamp end = workload::EndTime(events);
  Graph want = workload::ReplayToGraph(events, end);
  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    size_t c = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      qm->set_fetch_parallelism(1 + (c++ % 8));
      std::this_thread::yield();
    }
  });
  std::atomic<int> failures{0};
  ParallelFor(24, 6, [&](size_t) {
    auto snap = qm->GetSnapshot(end);
    if (!snap.ok() || !(*snap == want)) failures++;
  });
  stop.store(true, std::memory_order_relaxed);
  tuner.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(qm->fetch_parallelism(), 1u);
}

// Regression: Open() used to flip a plain bool that concurrent queries
// read through EnsureFresh — racing Open against queries was a data race
// (and a torn read could have served a query off a half-open manager).
// The flag is an acquire/release atomic now: a query must either see the
// manager open (and answer correctly) or fail FailedPrecondition.
TEST(ConcurrentQueryTest, OpenRacesQueries) {
  Cluster cluster(FastCluster());
  TGIOptions opts;
  opts.events_per_timespan = 2'000;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 400;
  TGI tgi(&cluster, opts);
  auto events = History(11, 3'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());

  Timestamp end = workload::EndTime(events);
  Graph want = workload::ReplayToGraph(events, end);
  for (int round = 0; round < 4; ++round) {
    TGIQueryManager qm(&cluster, 2);
    std::atomic<int> failures{0};
    std::thread opener([&] { ASSERT_TRUE(qm.Open().ok()); });
    ParallelFor(8, 4, [&](size_t) {
      auto snap = qm.GetSnapshot(end);
      if (snap.ok()) {
        if (!(*snap == want)) failures++;
      } else if (snap.status().code() != StatusCode::kFailedPrecondition) {
        failures++;
      }
    });
    opener.join();
    EXPECT_EQ(failures.load(), 0);
    // Once Open returned, queries must succeed.
    auto snap = qm.GetSnapshot(end);
    ASSERT_TRUE(snap.ok());
    EXPECT_TRUE(*snap == want);
  }
}

TEST(ConcurrentKVTest, ParallelPutsAndGetsAreConsistent) {
  Cluster cluster(FastCluster(3));
  constexpr int kKeys = 400;
  ParallelFor(kKeys, 8, [&](size_t i) {
    std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(
        cluster.Put("stress", i % 7, key, "value" + std::to_string(i)).ok());
  });
  std::atomic<int> bad{0};
  ParallelFor(kKeys, 8, [&](size_t i) {
    std::string key = "key" + std::to_string(i);
    auto got = cluster.Get("stress", i % 7, key);
    if (!got.ok() || *got != "value" + std::to_string(i)) bad++;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(CorruptionTest, FlippedDeltaByteSurfacesAsCorruption) {
  // Build a tiny index, then corrupt one stored delta row in place and
  // verify queries report Corruption instead of returning wrong data.
  ClusterOptions copts = FastCluster(1);
  Cluster cluster(copts);
  TGIOptions opts;
  opts.events_per_timespan = 1'000;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 200;
  opts.micro_delta_size = 1 << 20;  // single micro-partition: easy target
  opts.num_horizontal_partitions = 1;
  TGI tgi(&cluster, opts);
  auto events = History(777, 1'500);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());

  // Corrupt every stored row of the first timespan's partition, then probe
  // a time inside that span.
  uint64_t placement = tgi::DeltaPlacement(0, 0, 1);
  auto rows = cluster.Scan(tgi::kDeltasTable, placement, "");
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  for (const KVPair& kv : *rows) {
    std::string corrupted = kv.value.ToString();
    corrupted[corrupted.size() / 2] ^= 0x08;
    ASSERT_TRUE(
        cluster.Put(tgi::kDeltasTable, placement, kv.key, corrupted).ok());
  }

  auto qm = tgi.OpenQueryManager().value();
  auto snap = qm->GetSnapshot(events[900].time);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsCorruption());
}

TEST(SharedValueLifetimeTest, LiveViewsRaceOverwritesAndEpochBumps) {
  // Readers hold SharedValue views of fetched values while a writer
  // continuously overwrites the same keys — freeing each old buffer as the
  // last view drops — and publishes the scopes it wrote. Under ASan/TSan
  // this is the lifetime proof for the zero-copy path: no view ever
  // dangles, and every held view stays byte-identical to what was read.
  Cluster cluster(FastCluster(2));
  constexpr int kKeys = 64;
  auto payload = [](int k, int round) {
    std::string s =
        "v" + std::to_string(k) + "-" + std::to_string(round) + "-";
    while (s.size() < 96) s += "x";  // off-SSO, so frees are real frees
    return s;
  };
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(cluster
                    .Put("life", static_cast<uint64_t>(k % 5),
                         "key" + std::to_string(k), payload(k, 0))
                    .ok());
  }
  std::vector<EpochKey> life_scopes;
  for (uint64_t p = 0; p < 5; ++p) {
    life_scopes.push_back(MakeEpochKey("life", p));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    for (int round = 1; !stop.load(std::memory_order_relaxed); ++round) {
      for (int k = 0; k < kKeys; ++k) {
        // Healthy cluster: overwrites must commit (counted into `bad`
        // rather than asserted — gtest assertions aren't thread-safe).
        if (!cluster
                 .Put("life", static_cast<uint64_t>(k % 5),
                      "key" + std::to_string(k), payload(k, round))
                 .ok()) {
          bad++;
        }
      }
      cluster.PublishTouched(life_scopes);
    }
  });
  ParallelFor(8, 8, [&](size_t tid) {
    Rng rng(tid + 1);
    for (int iter = 0; iter < 150; ++iter) {
      // Stash views plus an immediate copy of their contents, give the
      // writer time to overwrite the keys underneath, then re-compare.
      std::vector<std::pair<SharedValue, std::string>> held;
      std::vector<MultiGetKey> keys;
      for (int j = 0; j < 8; ++j) {
        int k = static_cast<int>(rng.Uniform(kKeys));
        keys.push_back(MultiGetKey{static_cast<uint64_t>(k % 5),
                                   "key" + std::to_string(k)});
      }
      auto got = cluster.MultiGet("life", keys);
      if (!got.ok()) {
        ++bad;
        continue;
      }
      for (auto& v : *got) {
        if (v.has_value()) held.emplace_back(*v, v->ToString());
      }
      auto scan = cluster.Scan("life", tid % 5, "");
      if (!scan.ok()) {
        ++bad;
        continue;
      }
      for (auto& kv : *scan) held.emplace_back(kv.value, kv.value.ToString());
      std::this_thread::yield();
      for (auto& [view, expect] : held) {
        if (!(view == std::string_view(expect))) ++bad;
      }
    }
  });
  stop.store(true);
  writer.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(SharedValueLifetimeTest, QueriesRaceAppendBatchCacheInvalidation) {
  // Concurrent retrievals race AppendBatch's epoch bumps, which clear both
  // read-side caches while queries still hold shared decoded objects, byte
  // views, and scan entries. Tiny cache budgets force continuous eviction
  // at the same time. Queries are pinned to times inside the first,
  // completed timespan, whose rows the batch updates never rewrite, so
  // every snapshot must equal the event-log replay no matter which epoch
  // it ran against.
  auto events = History(991, 6'000);
  Cluster cluster(FastCluster());
  TGIOptions opts;
  opts.events_per_timespan = 1'500;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 300;
  opts.micro_delta_size = 64;
  opts.num_horizontal_partitions = 2;
  opts.read_cache_bytes = 32u << 10;    // far below the working set
  opts.decoded_cache_bytes = 32u << 10;
  TGI tgi(&cluster, opts);

  const size_t first_chunk = 2'000;
  ASSERT_TRUE(
      tgi.BuildFrom({events.begin(),
                     events.begin() + static_cast<long>(first_chunk)})
          .ok());
  auto qm = tgi.OpenQueryManager(2).value();

  // Probe times within the first completed timespan only.
  std::vector<Timestamp> probes = {events[200].time, events[700].time,
                                   events[1'300].time};
  std::vector<Graph> expected;
  for (Timestamp t : probes) {
    expected.push_back(workload::ReplayToGraph(events, t));
  }

  std::atomic<int> bad{0};
  std::atomic<bool> stop{false};
  std::thread appender([&] {
    for (size_t start = first_chunk;
         start < events.size() && !stop.load(std::memory_order_relaxed);
         start += 800) {
      size_t end = std::min(events.size(), start + 800);
      std::vector<Event> batch(events.begin() + static_cast<long>(start),
                               events.begin() + static_cast<long>(end));
      if (!tgi.AppendBatch(batch).ok()) {
        ++bad;
        return;
      }
    }
  });
  ParallelFor(6, 6, [&](size_t tid) {
    Rng rng(tid + 17);
    for (int iter = 0; iter < 40; ++iter) {
      size_t p = rng.Uniform(probes.size());
      auto snap = qm->GetSnapshot(probes[p]);
      if (!snap.ok() || !(*snap == expected[p])) ++bad;
      NodeId id = static_cast<NodeId>(rng.Uniform(50));
      auto hist = qm->GetNodeHistory(id, 0, probes[p]);
      if (!hist.ok()) ++bad;
    }
  });
  stop.store(true);
  appender.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(SharedValueLifetimeTest, ParallelIngestRacesReadersUnderTinyCaches) {
  // The sharded ingest pipeline (8 encode workers, group-committed puts)
  // publishes batch after batch while readers hammer the first completed
  // timespan through both cache tiers squeezed far below the working set.
  // Encode workers, node server pools, cache eviction and epoch
  // invalidation all overlap here; under TSan this is the race proof for
  // the write pipeline. Every snapshot must equal the event-log replay no
  // matter which publish epoch it raced.
  auto events = History(4411, 6'000);
  Cluster cluster(FastCluster());
  TGIOptions opts;
  opts.events_per_timespan = 1'500;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 300;
  opts.micro_delta_size = 64;
  opts.num_horizontal_partitions = 2;
  opts.ingest_threads = 8;
  opts.read_cache_bytes = 32u << 10;  // continuous eviction
  opts.decoded_cache_bytes = 32u << 10;
  TGI tgi(&cluster, opts);

  const size_t first_chunk = 2'000;
  ASSERT_TRUE(
      tgi.BuildFrom({events.begin(),
                     events.begin() + static_cast<long>(first_chunk)})
          .ok());
  auto qm = tgi.OpenQueryManager(2).value();

  std::vector<Timestamp> probes = {events[300].time, events[900].time,
                                   events[1'400].time};
  std::vector<Graph> expected;
  for (Timestamp t : probes) {
    expected.push_back(workload::ReplayToGraph(events, t));
  }

  std::atomic<int> bad{0};
  std::atomic<bool> stop{false};
  std::thread appender([&] {
    for (size_t start = first_chunk;
         start < events.size() && !stop.load(std::memory_order_relaxed);
         start += 600) {
      size_t end = std::min(events.size(), start + 600);
      std::vector<Event> batch(events.begin() + static_cast<long>(start),
                               events.begin() + static_cast<long>(end));
      if (!tgi.AppendBatch(batch).ok()) {
        ++bad;
        return;
      }
    }
  });
  ParallelFor(6, 6, [&](size_t tid) {
    Rng rng(tid + 31);
    for (int iter = 0; iter < 40; ++iter) {
      size_t p = rng.Uniform(probes.size());
      auto snap = qm->GetSnapshot(probes[p]);
      if (!snap.ok() || !(*snap == expected[p])) ++bad;
      NodeId id = static_cast<NodeId>(rng.Uniform(50));
      auto hist = qm->GetNodeHistory(id, 0, probes[p]);
      if (!hist.ok()) ++bad;
    }
  });
  stop.store(true);
  appender.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(UpdateStressTest, ManySmallBatchesEqualOneBigBuild) {
  auto events = History(555, 6'000);
  Cluster incremental_cluster(FastCluster());
  Cluster bulk_cluster(FastCluster());
  TGIOptions opts;
  opts.events_per_timespan = 1'500;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 300;
  opts.micro_delta_size = 64;
  opts.num_horizontal_partitions = 2;

  TGI incremental(&incremental_cluster, opts);
  for (size_t start = 0; start < events.size(); start += 700) {
    size_t end = std::min(events.size(), start + 700);
    std::vector<Event> batch(events.begin() + static_cast<long>(start),
                             events.begin() + static_cast<long>(end));
    ASSERT_TRUE(incremental.AppendBatch(batch).ok());
  }
  TGI bulk(&bulk_cluster, opts);
  ASSERT_TRUE(bulk.BuildFrom(events).ok());

  auto qm_inc = incremental.OpenQueryManager(2).value();
  auto qm_bulk = bulk.OpenQueryManager(2).value();
  for (double frac : {0.3, 0.7, 1.0}) {
    Timestamp t = events[static_cast<size_t>(
                             static_cast<double>(events.size() - 1) * frac)]
                      .time;
    auto a = qm_inc->GetSnapshot(t);
    auto b = qm_bulk->GetSnapshot(t);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(*a == *b) << "t=" << t;
    EXPECT_TRUE(*a == workload::ReplayToGraph(events, t));
  }
}

}  // namespace
}  // namespace hgs
