// Unit tests for the common module: Status/Result, serialization,
// compression, thread pool, RNG determinism, string utilities.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/compression.h"
#include "common/lru_cache.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace hgs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key xyz");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "key xyz");
  EXPECT_EQ(s.ToString(), "NotFound: key xyz");
}

TEST(StatusTest, CopyIsCheapAndEqualityHolds) {
  Status a = Status::Corruption("bad block");
  Status b = a;  // shared rep
  EXPECT_EQ(a, b);
  EXPECT_TRUE(b.IsCorruption());
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(SerdeTest, VarintRoundTrip) {
  BinaryWriter w;
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  1u << 20,         (1ull << 35) + 17,
                             UINT64_MAX};
  for (uint64_t v : values) w.PutVarint64(v);
  std::string buf = w.Finish();
  BinaryReader r(buf);
  for (uint64_t v : values) EXPECT_EQ(r.ReadVarint64(), v);
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, Varint32RejectsValuesAbove32Bits) {
  BinaryWriter w;
  w.PutVarint32(UINT32_MAX);
  w.PutVarint64(uint64_t{UINT32_MAX} + 1);
  std::string buf = w.Finish();
  BinaryReader r(buf);
  EXPECT_EQ(r.ReadVarint32(), UINT32_MAX);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.ReadVarint32(), 0u);
  EXPECT_TRUE(r.BulkStatus().IsCorruption());
}

TEST(SerdeTest, SignedZigzagRoundTrip) {
  BinaryWriter w;
  const int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX, -123456};
  for (int64_t v : values) w.PutSigned64(v);
  std::string buf = w.Finish();
  BinaryReader r(buf);
  for (int64_t v : values) EXPECT_EQ(r.ReadSigned64(), v);
  EXPECT_FALSE(r.failed());
}

TEST(SerdeTest, StringAndBoolRoundTrip) {
  BinaryWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string(1000, 'x'));
  w.PutBool(true);
  std::string buf = w.Finish();
  BinaryReader r(buf);
  EXPECT_EQ(r.ReadBytesView(), "hello");
  EXPECT_EQ(r.ReadBytesView(), "");
  EXPECT_EQ(r.ReadBytesView().size(), 1000u);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_FALSE(r.failed());
}

TEST(SerdeTest, TruncationIsCorruptionNotCrash) {
  BinaryWriter w;
  w.PutString("some payload");
  std::string buf = w.Finish();
  BinaryReader r(std::string_view(buf).substr(0, 3));
  EXPECT_EQ(r.ReadBytesView(), std::string_view());
  EXPECT_TRUE(r.BulkStatus().IsCorruption());
}

TEST(SerdeTest, ChecksumDetectsFlippedBit) {
  BinaryWriter w;
  w.PutString("protected content");
  std::string buf = w.FinishWithChecksum();
  {
    BinaryReader ok_reader(buf);
    EXPECT_TRUE(ok_reader.VerifyChecksum().ok());
  }
  buf[3] ^= 0x40;
  BinaryReader bad_reader(buf);
  EXPECT_TRUE(bad_reader.VerifyChecksum().IsCorruption());
}

TEST(SerdeTest, ChecksumTooShortBuffer) {
  BinaryReader r("abc");
  EXPECT_TRUE(r.VerifyChecksum().IsCorruption());
}

TEST(SerdeTest, MixedFieldsRoundTrip) {
  BinaryWriter w;
  const uint64_t varints[] = {0,    1,        127,       128,
                              300,  1u << 20, UINT64_MAX, 42};
  const int64_t signeds[] = {0, -1, 1, INT64_MIN, INT64_MAX, -123456};
  for (uint64_t v : varints) w.PutVarint64(v);
  for (int64_t v : signeds) w.PutSigned64(v);
  w.PutFixed8(0xAB);
  w.PutBool(true);
  w.PutString("bulk payload");
  w.PutString("");
  std::string buf = w.Finish();

  BinaryReader r(buf);
  for (uint64_t v : varints) EXPECT_EQ(r.ReadVarint64(), v);
  for (int64_t v : signeds) EXPECT_EQ(r.ReadSigned64(), v);
  EXPECT_EQ(r.ReadFixed8(), 0xAB);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadBytesView(), "bulk payload");
  EXPECT_EQ(r.ReadBytesView(), "");
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.BulkStatus().ok());
}

TEST(SerdeTest, ReaderFailureIsStickyOnTruncation) {
  BinaryWriter w;
  w.PutVarint64(7);
  w.PutString("payload");
  std::string buf = w.Finish();
  // Cuts the string mid-length.
  BinaryReader r(std::string_view(buf).substr(0, 3));
  EXPECT_EQ(r.ReadVarint64(), 7u);
  EXPECT_FALSE(r.failed());
  (void)r.ReadBytesView();  // truncated: latches the error
  EXPECT_TRUE(r.failed());
  // Every further read returns zero values and never advances.
  EXPECT_EQ(r.ReadVarint64(), 0u);
  EXPECT_EQ(r.ReadBytesView(), std::string_view());
  EXPECT_TRUE(r.BulkStatus().IsCorruption());
}

TEST(SerdeTest, VarintOverflowIsCorruption) {
  // An 11-byte continuation run cannot encode a 64-bit value.
  std::string bad(10, '\x80');
  bad.push_back('\x02');
  BinaryReader r(bad);
  (void)r.ReadVarint64();
  EXPECT_TRUE(r.failed());
}

TEST(CompressionTest, RoundTripCompressible) {
  std::string input;
  for (int i = 0; i < 500; ++i) input += "node:12345,attr=value;";
  std::string packed = Compress(input, CompressionKind::kLz);
  EXPECT_LT(packed.size(), input.size() / 2);
  auto out = Decompress(packed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(CompressionTest, IncompressibleFallsBackToStored) {
  Rng rng(99);
  std::string input;
  for (int i = 0; i < 4096; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xFF));
  }
  std::string packed = Compress(input, CompressionKind::kLz);
  EXPECT_LE(packed.size(), input.size() + 16);
  auto out = Decompress(packed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(CompressionTest, NoneKindIsIdentityPlusHeader) {
  std::string input = "abcdef";
  std::string packed = Compress(input, CompressionKind::kNone);
  auto out = Decompress(packed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(CompressionTest, EmptyInput) {
  auto out = Decompress(Compress("", CompressionKind::kLz));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(CompressionTest, CorruptBlockRejected) {
  std::string packed = Compress("hello world hello world", CompressionKind::kLz);
  packed.resize(packed.size() / 2);
  auto out = Decompress(packed);
  EXPECT_FALSE(out.ok());
}

TEST(CompressionTest, OverlappingMatchDecodes) {
  // "aaaa..." exercises the dist < len overlapping-copy path.
  std::string input(10'000, 'a');
  auto out = Decompress(Compress(input, CompressionKind::kLz));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

// Both decompress paths must reject `block` with Corruption.
void ExpectLzBlockRejected(const std::string& block) {
  auto out = Decompress(block);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruption());
  auto shared = DecompressShared(SharedValue{block});
  ASSERT_FALSE(shared.ok());
  EXPECT_TRUE(shared.status().IsCorruption());
}

TEST(CompressionTest, RawSizeTheBodyCannotProduceIsRejected) {
  // An empty LZ body claiming 2^62 raw bytes: rejected before any
  // allocation, not by reserving the claim.
  BinaryWriter w;
  w.PutFixed8(static_cast<uint8_t>(CompressionKind::kLz));
  w.PutVarint64(uint64_t{1} << 62);
  w.PutString("");
  std::string block = w.Finish();
  ASSERT_EQ(block.size(), 11u);
  ExpectLzBlockRejected(block);
}

TEST(CompressionTest, RunPastTheClaimedRawSizeIsRejected) {
  // Claims 4 raw bytes, then one literal and a 2^28-byte match: rejected at
  // the match token instead of after writing 256 MiB.
  BinaryWriter w;
  w.PutFixed8(static_cast<uint8_t>(CompressionKind::kLz));
  w.PutVarint64(4);
  w.PutString("a");
  w.PutVarint64(uint64_t{1} << 28);
  w.PutVarint64(1);
  std::string block = w.Finish();
  ASSERT_EQ(block.size(), 10u);
  ExpectLzBlockRejected(block);
  // A literal run longer than the claim is rejected the same way.
  BinaryWriter lit;
  lit.PutFixed8(static_cast<uint8_t>(CompressionKind::kLz));
  lit.PutVarint64(2);
  lit.PutString("abc");
  lit.PutVarint64(0);
  ExpectLzBlockRejected(lit.Finish());
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 123; });
  EXPECT_EQ(f.get(), 123);
}

TEST(ThreadPoolTest, WaitBlocksUntilIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done++;
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 10);
}

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 8, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SequentialFallback) {
  int order_violations = 0;
  size_t last = 0;
  ParallelFor(100, 1, [&](size_t i) {
    if (i < last) ++order_violations;
    last = i;
  });
  EXPECT_EQ(order_violations, 0);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInBounds) {
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(2);
  uint64_t low = 0;
  const int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(1000, 1.0) < 100) ++low;
  }
  // Zipf(1.0) puts far more than the uniform 10% in the first decile.
  EXPECT_GT(low, static_cast<uint64_t>(kTrials) * 3 / 10);
}

TEST(StringUtilTest, Thousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.0 MiB");
}

TEST(StringUtilTest, Split) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Fnv1aTest, StableKnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64("", 0), 0xCBF29CE484222325ull);
  EXPECT_NE(Fnv1a64("a", 1), Fnv1a64("b", 1));
}

TEST(LruCacheTest, HitMissAndCounters) {
  ShardedLruCache<std::string, int> cache(1024, 2);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", 1, 10);
  cache.Put("b", 2, 10);
  auto a = cache.Get("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 1);
  LruCacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.entries, 2u);
  EXPECT_EQ(counters.bytes_used, 20u);
  EXPECT_DOUBLE_EQ(counters.HitRate(), 0.5);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedWithinByteBudget) {
  // One shard so eviction order is fully deterministic.
  ShardedLruCache<std::string, int> cache(30, 1);
  cache.Put("a", 1, 10);
  cache.Put("b", 2, 10);
  cache.Put("c", 3, 10);
  ASSERT_TRUE(cache.Get("a").has_value());  // refresh "a": "b" is now LRU
  cache.Put("d", 4, 10);
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_TRUE(cache.Get("d").has_value());
  EXPECT_EQ(cache.Counters().evictions, 1u);
  EXPECT_LE(cache.Counters().bytes_used, 30u);
}

TEST(LruCacheTest, OversizedEntryIsNotAdmitted) {
  ShardedLruCache<std::string, int> cache(30, 1);
  cache.Put("big", 1, 100);
  EXPECT_FALSE(cache.Get("big").has_value());
  EXPECT_EQ(cache.Counters().entries, 0u);
  EXPECT_EQ(cache.Counters().admission_rejects, 1u);
  // An oversized replacement must drop the old value, not serve it stale.
  cache.Put("big", 2, 10);
  cache.Put("big", 3, 100);
  EXPECT_FALSE(cache.Get("big").has_value());
  EXPECT_EQ(cache.Counters().admission_rejects, 2u);
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  ShardedLruCache<std::string, int> cache(0);
  cache.Put("a", 1, 1);
  EXPECT_FALSE(cache.Get("a").has_value());
}

TEST(LruCacheTest, PutReplacesValueAndCharge) {
  ShardedLruCache<std::string, int> cache(100, 1);
  cache.Put("a", 1, 10);
  cache.Put("a", 2, 20);
  auto a = cache.Get("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 2);
  EXPECT_EQ(cache.Counters().bytes_used, 20u);
}

TEST(LruCacheTest, ConcurrentReadersAndWritersDoNotRace) {
  ShardedLruCache<uint64_t, uint64_t> cache(1 << 16, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 2'000; ++i) {
        uint64_t key = rng.Uniform(256);
        if (rng.Uniform(2) == 0) {
          cache.Put(key, key * 2, 16);
        } else {
          auto v = cache.Get(key);
          if (v.has_value()) EXPECT_EQ(*v, key * 2);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.Counters().bytes_used, 1u << 16);
}

}  // namespace
}  // namespace hgs
