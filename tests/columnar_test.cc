// Property and corruption tests for the kColumnar block codec: random event
// workloads round-trip byte-identically through the columnar container,
// truncated / bit-flipped blocks fail with Corruption (never crash or
// over-read — this binary runs under the ASan/UBSan CI job), and the
// per-block dictionaries handle their edge cases (no attributes at all, one
// huge value, all-identical keys).

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/columnar.h"
#include "common/compression.h"
#include "common/rng.h"
#include "delta/delta.h"
#include "delta/event.h"
#include "delta/eventlist.h"
#include "tgi/metadata.h"
#include "workload/generators.h"

namespace hgs {
namespace {

// Chunks a well-formed generated stream into eventlist_size lists, the
// shape the TGI builder stores.
std::vector<EventList> MakeEventLists(uint64_t num_events, uint64_t seed,
                                      size_t chunk = 250) {
  workload::WikiGrowthOptions wopts;
  wopts.num_events = num_events;
  wopts.attr_event_prob = 0.2;
  wopts.seed = seed;
  std::vector<Event> events = workload::GenerateWikiGrowth(wopts);
  workload::ChurnOptions copts;
  copts.num_events = num_events / 2;
  copts.seed = seed + 1;
  events = workload::AugmentWithChurn(std::move(events), copts);

  std::vector<EventList> lists;
  for (size_t i = 0; i < events.size(); i += chunk) {
    size_t end = std::min(events.size(), i + chunk);
    EventList el(events[i].time - 1, events[end - 1].time);
    for (size_t j = i; j < end; ++j) el.Append(events[j]);
    lists.push_back(std::move(el));
  }
  return lists;
}

// Round-trips one legacy payload through the codec and checks every
// contract: the columnar form is chosen, Decompress is byte-exact, and
// DecompressShared is a zero-copy window that the whole-value decoder
// accepts.
template <typename T>
void ExpectColumnarRoundTrip(const T& obj, ValueSchema schema) {
  std::string legacy = obj.Serialize();
  std::string packed = Compress(legacy, CompressionKind::kColumnar, schema);
  ASSERT_FALSE(packed.empty());

  // Byte-exact materializing inverse, regardless of which arm won.
  auto raw = Decompress(packed);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(*raw, legacy);

  // Zero-copy inverse: whenever the columnar arm won the per-block size
  // race, the result must window the stored buffer. When LZ won (huge
  // repetitive values compress better byte-wise) a materializing decode is
  // the correct outcome.
  SharedValue stored{packed};
  auto shared = DecompressShared(stored);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  if (packed[0] == static_cast<char>(CompressionKind::kColumnar)) {
    EXPECT_EQ(shared->owner(), stored.owner());
  }

  // The windowed payload decodes to the original object.
  auto decoded = T::Deserialize(shared->view());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, obj);
}

TEST(ColumnarEventListTest, RandomWorkloadsRoundTrip) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    for (const EventList& el : MakeEventLists(4'000, seed)) {
      ExpectColumnarRoundTrip(el, ValueSchema::kEventList);
    }
  }
}

TEST(ColumnarEventListTest, ColumnarBeatsLzOnEventPayloads) {
  size_t columnar_wins = 0, total = 0;
  for (const EventList& el : MakeEventLists(4'000, 3)) {
    std::string legacy = el.Serialize();
    std::string packed =
        Compress(legacy, CompressionKind::kColumnar, ValueSchema::kEventList);
    std::string lz = Compress(legacy, CompressionKind::kLz);
    EXPECT_LE(packed.size(), lz.size());  // never worse by construction
    ++total;
    if (!packed.empty() &&
        packed[0] == static_cast<char>(CompressionKind::kColumnar)) {
      ++columnar_wins;
    }
  }
  // The columnar arm must actually win on typical event blocks, not just
  // fall back to LZ.
  EXPECT_GT(columnar_wins, total / 2);
}

TEST(ColumnarEventListTest, EmptyListRoundTrips) {
  ExpectColumnarRoundTrip(EventList(5, 10), ValueSchema::kEventList);
}

TEST(ColumnarDeltaTest, SnapshotAndTombstoneDeltasRoundTrip) {
  for (uint64_t seed : {1u, 9u}) {
    for (const EventList& el : MakeEventLists(3'000, seed, 500)) {
      Delta d;
      el.ApplyTo(&d);
      d.Compact();
      ExpectColumnarRoundTrip(d, ValueSchema::kDelta);
    }
  }
  // Explicit tombstones and flipped (dst < src) directed edges.
  Delta d;
  d.PutNode(1, NodeRecord{.attrs = Attributes{{"role", "hub"}}});
  d.TombstoneNode(2);
  d.PutEdge(EdgeKey(3, 4),
            EdgeRecord{.src = 4, .dst = 3, .directed = true, .attrs = {}});
  d.PutEdge(EdgeKey(5, 5),
            EdgeRecord{.src = 5, .dst = 5, .directed = false, .attrs = {}});
  d.TombstoneEdge(EdgeKey(1, 9));
  d.Compact();
  ExpectColumnarRoundTrip(d, ValueSchema::kDelta);
}

TEST(ColumnarVersionChainTest, SegmentsRoundTrip) {
  Rng rng(11);
  tgi::VersionChainSegment seg;
  seg.node = 1234;
  seg.tsid = 7;
  seg.pid = 3;
  Timestamp t = 1000;
  for (uint32_t i = 0; i < 200; ++i) {
    tgi::VersionEntry e;
    e.tsid = seg.tsid;
    e.eventlist_index = i;
    e.pid = static_cast<MicroPartitionId>(rng.Next() % 16);
    e.first_time = t;
    t += static_cast<Timestamp>(rng.Next() % 50);
    e.last_time = t;
    e.event_count = static_cast<uint32_t>(rng.Next() % 100);
    seg.entries.push_back(e);
  }
  ExpectColumnarRoundTrip(seg, ValueSchema::kVersionChain);
}

// -- extreme values ----------------------------------------------------------
// The delta-of-previous columns see differences that do not fit in int64
// (0 -> 2^63 as a signed id, kMinTimestamp + 1 -> kMaxTimestamp - 1). They
// must wrap and round-trip. Each payload pads the extremes with ordinary
// entries so the columnar arm, not the LZ fallback, wins the size race.

template <typename T>
void ExpectColumnarArmRoundTrip(const T& obj, ValueSchema schema) {
  std::string packed = Compress(obj.Serialize(), CompressionKind::kColumnar,
                                schema);
  ASSERT_EQ(packed[0], static_cast<char>(CompressionKind::kColumnar));
  ExpectColumnarRoundTrip(obj, schema);
}

TEST(ColumnarExtremesTest, DeltaWithExtremeNodeIdsRoundTrips) {
  constexpr NodeId kHalf = NodeId{1} << 63;
  constexpr NodeId kTop = std::numeric_limits<NodeId>::max();
  Delta d;
  for (NodeId id = 1; id <= 64; ++id) {
    d.PutNode(id, NodeRecord{});
    d.PutEdge(EdgeKey(id, id + 1), EdgeRecord{.src = id, .dst = id + 1,
                                              .directed = false, .attrs = {}});
  }
  for (NodeId id : {NodeId{0}, kHalf, kTop}) d.PutNode(id, NodeRecord{});
  d.PutEdge(EdgeKey(0, kTop),
            EdgeRecord{.src = kTop, .dst = 0, .directed = true, .attrs = {}});
  d.PutEdge(EdgeKey(kHalf, kTop),
            EdgeRecord{.src = kHalf, .dst = kTop, .directed = true,
                       .attrs = {}});
  d.Compact();
  ExpectColumnarArmRoundTrip(d, ValueSchema::kDelta);
}

TEST(ColumnarExtremesTest, EventListSpanningTheTimestampRangeRoundTrips) {
  EventList el(kMinTimestamp, kMaxTimestamp);
  el.Append(Event::AddNode(kMinTimestamp + 1, 0));
  for (Timestamp t = 1; t <= 64; ++t) {
    el.Append(Event::AddEdge(1'000'000 + 37 * t,
                             static_cast<NodeId>(t * 1009 % 4096),
                             static_cast<NodeId>(t * 31 % 4096)));
  }
  el.Append(Event::AddNode(kMaxTimestamp - 1, 65));
  ExpectColumnarArmRoundTrip(el, ValueSchema::kEventList);
}

TEST(ColumnarExtremesTest, VersionEntrySpanningTheTimestampRangeRoundTrips) {
  tgi::VersionChainSegment seg;
  seg.node = 9;
  seg.tsid = 1;
  seg.pid = 2;
  seg.entries.push_back(
      tgi::VersionEntry{.tsid = 1, .eventlist_index = 0, .pid = 2,
                        .first_time = kMinTimestamp + 1,
                        .last_time = kMaxTimestamp - 1, .event_count = 2});
  for (uint32_t i = 1; i <= 200; ++i) {
    Timestamp t = 10 * static_cast<Timestamp>(i);
    seg.entries.push_back(tgi::VersionEntry{.tsid = 1, .eventlist_index = i,
                                            .pid = 2, .first_time = t,
                                            .last_time = t + 5,
                                            .event_count = 3});
  }
  ExpectColumnarArmRoundTrip(seg, ValueSchema::kVersionChain);
}

// -- dictionary edge cases ---------------------------------------------------

TEST(ColumnarDictTest, NoAttributesAtAll) {
  EventList el(0, 100);
  for (Timestamp t = 1; t <= 50; ++t) {
    el.Append(Event::AddNode(t, static_cast<NodeId>(t)));
    el.Append(Event::AddEdge(t, static_cast<NodeId>(t), 0));
  }
  el.Sort();
  ExpectColumnarRoundTrip(el, ValueSchema::kEventList);
}

TEST(ColumnarDictTest, SingleHugeValue) {
  std::string huge(1 << 20, 'x');
  huge[12345] = 'y';
  EventList el(0, 100);
  el.Append(Event::SetNodeAttr(1, 7, "payload", huge));
  ExpectColumnarRoundTrip(el, ValueSchema::kEventList);
}

TEST(ColumnarDictTest, AllIdenticalKeysAndValues) {
  EventList el(0, 10'000);
  std::string prev;
  for (Timestamp t = 1; t <= 500; ++t) {
    el.Append(Event::SetNodeAttr(t, static_cast<NodeId>(t % 7), "status",
                                 "active", prev));
    prev = "active";
  }
  std::string legacy = el.Serialize();
  std::string packed =
      Compress(legacy, CompressionKind::kColumnar, ValueSchema::kEventList);
  ExpectColumnarRoundTrip(el, ValueSchema::kEventList);
  // A 1-entry dictionary must shrink the block below the stored form.
  EXPECT_LT(packed.size(), legacy.size());
}

// -- corruption: truncation and bit flips ------------------------------------

std::string ColumnarPayloadOf(const EventList& el) {
  std::string packed = Compress(el.Serialize(), CompressionKind::kColumnar,
                                ValueSchema::kEventList);
  // Strip the compression envelope: tag byte + raw-size varint.
  SharedValue stored{packed};
  auto shared = DecompressShared(stored);
  EXPECT_TRUE(shared.ok());
  std::string payload(shared->view());
  EXPECT_TRUE(IsColumnarPayload(payload));
  return payload;
}

TEST(ColumnarCorruptionTest, EveryTruncationFailsCleanly) {
  EventList el = MakeEventLists(600, 5)[0];
  std::string payload = ColumnarPayloadOf(el);
  for (size_t len = 0; len < payload.size(); ++len) {
    auto r = EventList::Deserialize(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes decoded";
  }
}

TEST(ColumnarCorruptionTest, EveryPayloadBitFlipIsCorruption) {
  EventList el = MakeEventLists(600, 6)[0];
  std::string payload = ColumnarPayloadOf(el);
  // The container checksum covers every byte, so any single-bit flip past
  // the magic must surface as Corruption (a flip inside the magic makes the
  // payload route to the legacy decoder, whose own checksum rejects it).
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    for (int bit : {0, 3, 7}) {
      std::string bad = payload;
      bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
      auto r = EventList::Deserialize(bad);
      EXPECT_FALSE(r.ok()) << "flip at " << pos << " bit " << bit;
    }
  }
}

TEST(ColumnarCorruptionTest, CompressedBlockBitFlipsNeverYieldWrongBytes) {
  EventList el = MakeEventLists(600, 8)[0];
  std::string legacy = el.Serialize();
  std::string packed =
      Compress(legacy, CompressionKind::kColumnar, ValueSchema::kEventList);
  ASSERT_EQ(packed[0], static_cast<char>(CompressionKind::kColumnar));
  // Flips in the envelope header can reroute to another codec arm, so the
  // guarantee there is "no crash, never silently the original bytes".
  for (size_t pos = 0; pos < packed.size(); ++pos) {
    std::string bad = packed;
    bad[pos] = static_cast<char>(bad[pos] ^ 1);
    auto r = Decompress(bad);
    EXPECT_TRUE(!r.ok() || *r != legacy)
        << "flip at " << pos << " still decoded to the original";
  }
}

TEST(ColumnarCorruptionTest, ForgedColumnCountsAndIdsRejected) {
  // Hand-build syntactically plausible containers with hostile fields;
  // Parse must reject them without over-reading.
  {
    // Declared column lengths exceeding the body.
    ColumnarBlockWriter w(ValueSchema::kEventList);
    w.AddColumn("abc");
    std::string ok = w.Finish();
    auto parsed = ColumnarBlockReader::Parse(ok, ValueSchema::kEventList);
    ASSERT_TRUE(parsed.ok());
    auto wrong_schema = ColumnarBlockReader::Parse(ok, ValueSchema::kDelta);
    EXPECT_FALSE(wrong_schema.ok());
    EXPECT_FALSE(parsed->Column(5).ok());  // missing column
  }
  {
    // An out-of-range dictionary id must latch the reader, not index OOB.
    StringDictBuilder b;
    b.Add("only");
    b.Build();
    std::string col = b.Serialize();
    auto dict = StringDictView::Parse(col);
    ASSERT_TRUE(dict.ok());
    BinaryReader r("");
    EXPECT_EQ(dict->Get(99, &r), std::string_view());
    EXPECT_TRUE(r.failed());
  }
}

TEST(ColumnarOpaqueTest, UnregisteredSchemaFallsBackToLz) {
  std::string input(4096, 'a');
  EXPECT_FALSE(HasColumnarCodec(ValueSchema::kOpaque));
  std::string packed =
      Compress(input, CompressionKind::kColumnar, ValueSchema::kOpaque);
  std::string lz = Compress(input, CompressionKind::kLz);
  EXPECT_EQ(packed, lz);
  auto raw = Decompress(packed);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, input);
}

TEST(ColumnarOpaqueTest, NonCanonicalPayloadFallsBack) {
  // A payload that is not a canonical EventList serialization must never be
  // rewritten columnar — the codec falls back to the byte arms.
  std::string junk = "definitely not an eventlist";
  std::string packed =
      Compress(junk, CompressionKind::kColumnar, ValueSchema::kEventList);
  auto raw = Decompress(packed);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, junk);
}

}  // namespace
}  // namespace hgs
