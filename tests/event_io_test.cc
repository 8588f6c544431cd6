// Tests for the event TSV file format plus fuzz-style robustness checks for
// every deserializer in the repository: arbitrary byte strings must never
// crash a parser — they either round-trip or fail with a clean Status.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/compression.h"
#include "common/rng.h"
#include "delta/delta.h"
#include "delta/eventlist.h"
#include "tgi/metadata.h"
#include "workload/event_io.h"
#include "workload/generators.h"

namespace hgs::workload {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(EventIoTest, LineRoundTripAllTypes) {
  std::vector<Event> events = {
      Event::AddNode(1, 5, Attributes{{"k", "v"}, {"name", "a b c"}}),
      Event::RemoveNode(2, 5),
      Event::AddEdge(3, 1, 2, true, Attributes{{"w", "1.5"}}),
      Event::RemoveEdge(4, 1, 2),
      Event::SetNodeAttr(5, 7, "key", "new", "old"),
      Event::DelNodeAttr(6, 7, "key", "old"),
      Event::SetEdgeAttr(7, 1, 2, "w", "2", "1.5"),
      Event::DelEdgeAttr(8, 1, 2, "w", "2"),
  };
  for (const Event& e : events) {
    auto back = EventFromTsvLine(EventToTsvLine(e));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, e);
  }
}

TEST(EventIoTest, EscapingSurvivesHostileStrings) {
  Event e = Event::SetNodeAttr(9, 1, "ta\tb", "v;a=l\nue%", "p%r;e=v");
  e.attrs.Set("k\t;=%", "v\n\t%;=");
  auto back = EventFromTsvLine(EventToTsvLine(e));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, e);
}

TEST(EventIoTest, FileRoundTripGeneratedHistory) {
  auto events = GenerateWikiGrowth({.num_events = 2'000, .seed = 5});
  std::string path = TempPath("hgs_event_io_test.tsv");
  ASSERT_TRUE(WriteEventsTsv(events, path).ok());
  auto back = ReadEventsTsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, events);
  std::remove(path.c_str());
}

TEST(EventIoTest, MissingFileIsIOError) {
  auto res = ReadEventsTsv("/nonexistent/path/events.tsv");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsIOError());
}

TEST(EventIoTest, MalformedLinesReportLineNumbers) {
  std::string path = TempPath("hgs_event_io_bad.tsv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# header\n1\tAddNode\t5\t\t0\t\t\t\t\nnot\ta\tvalid\tline\n",
               f);
    std::fclose(f);
  }
  auto res = ReadEventsTsv(path);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().message().find(":3:"), std::string::npos)
      << res.status().ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Deserializer fuzzing: random bytes and mutated valid payloads.
// ---------------------------------------------------------------------------

class FuzzDeserializers : public ::testing::TestWithParam<uint64_t> {};

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string s;
  size_t n = rng->Uniform(max_len + 1);
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng->Next() & 0xFF));
  }
  return s;
}

TEST_P(FuzzDeserializers, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    std::string junk = RandomBytes(&rng, 256);
    (void)Delta::Deserialize(junk);
    (void)EventList::Deserialize(junk);
    (void)Decompress(junk);
    (void)tgi::VersionChainSegment::Deserialize(junk);
    (void)tgi::GraphMeta::Deserialize(junk);
    (void)tgi::TimespanMeta::Deserialize(junk);
    (void)tgi::DeserializeMicropartBucket(junk);
    (void)EventFromTsvLine(junk);
  }
}

TEST_P(FuzzDeserializers, MutatedValidPayloadsFailCleanlyOrRoundTrip) {
  Rng rng(GetParam() + 99);
  // A real delta payload as the mutation base.
  Delta d;
  for (NodeId i = 0; i < 40; ++i) {
    d.PutNode(i, NodeRecord{.attrs = Attributes{{"a", std::to_string(i)}}});
  }
  for (NodeId i = 0; i + 1 < 40; ++i) {
    d.PutEdge(EdgeKey(i, i + 1), EdgeRecord{.src = i,
                                            .dst = i + 1,
                                            .directed = false,
                                            .attrs = {}});
  }
  std::string base = d.Serialize();
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 << rng.Uniform(8));
    }
    auto res = Delta::Deserialize(mutated);
    // The checksum makes silent acceptance of mutations (other than
    // restoring the original) essentially impossible.
    if (mutated != base) {
      EXPECT_FALSE(res.ok());
    }
  }
}

// Offset of a columnar payload's first column byte: past the magic, the
// schema byte, the column count and the column length table.
size_t ColumnsOffset(std::string_view payload) {
  BinaryReader r(payload);
  for (size_t i = 0; i <= kColumnarMagicSize; ++i) r.ReadFixed8();
  uint64_t ncols = r.ReadVarint64();
  for (uint64_t i = 0; i < ncols; ++i) r.ReadVarint64();
  return payload.size() - r.remaining();
}

// The columnar payload of a legacy serialization: its kColumnar block with
// the compression envelope stripped.
std::string ColumnarPayload(std::string_view legacy, ValueSchema schema) {
  auto payload = DecompressShared(
      SharedValue{Compress(legacy, CompressionKind::kColumnar, schema)});
  return payload.ok() ? std::string(payload->view()) : std::string();
}

// Makes 1-4 edits to the body of a checksummed payload (and sometimes
// truncates it), then re-seals it, so the mutation reaches the decoder's own
// checks instead of dying at VerifyChecksum. An edit overwrites one byte,
// sets the continuation bit on a run of bytes, which turns a varint count
// or length starting there into a huge value, or overwrites ten bytes with
// the widest zigzag varint (INT64_MAX), an extreme step for a
// delta-of-previous column. A columnar payload keeps its container header
// and length: its edits land in column bytes and reach the schema
// decoder's cursors, where a truncation would only break the length table.
std::string MutateAndReseal(std::string_view sealed, Rng* rng) {
  std::string body(sealed.substr(0, sealed.size() - kChecksumWireSize));
  const size_t from = IsColumnarPayload(sealed) ? ColumnsOffset(sealed) : 0;
  size_t edits = 1 + rng->Uniform(4);
  for (size_t e = 0; e < edits && from < body.size(); ++e) {
    size_t at = from + rng->Uniform(body.size() - from);
    switch (rng->Uniform(3)) {
      case 0:
        body[at] = static_cast<char>(rng->Next() & 0xFF);
        break;
      case 1: {
        size_t end = std::min(body.size(), at + 2 + rng->Uniform(8));
        for (size_t k = at; k < end; ++k) {
          body[k] = static_cast<char>(body[k] | 0x80);
        }
        break;
      }
      default: {
        static constexpr unsigned char kWidest[10] = {
            0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01};
        for (size_t k = 0; k < 10 && at + k < body.size(); ++k) {
          body[at + k] = static_cast<char>(kWidest[k]);
        }
      }
    }
  }
  if (from == 0 && rng->Uniform(4) == 0) {
    body.resize(rng->Uniform(body.size() + 1));
  }
  BinaryWriter w;
  w.PutRaw(body);
  return w.FinishWithChecksum();
}

TEST_P(FuzzDeserializers, ResealedMutationsFailCleanlyOrDecode) {
  Rng rng(GetParam() + 4242);
  Delta delta;
  EventList list(0, 100);
  for (NodeId i = 0; i < 12; ++i) {
    Timestamp t = static_cast<Timestamp>(i + 1);
    Event add = Event::AddNode(t, i, Attributes{{"a", std::to_string(i)}});
    Event edge = Event::AddEdge(t, i, (i + 1) % 12, i % 2 == 0,
                                Attributes{{"w", "1"}});
    Event attr = Event::SetNodeAttr(t, i, "a", "x", std::to_string(i));
    Event gone = Event::RemoveEdge(t, i, (i + 5) % 12);
    for (const Event* e : {&add, &edge, &attr, &gone}) {
      delta.ApplyEvent(*e);
      list.Append(*e);
    }
  }
  tgi::VersionChainSegment seg;
  seg.node = 7;
  seg.tsid = 2;
  seg.pid = 5;
  seg.entries = {{2, 0, 5, 10, 20, 3}, {2, 4, 5, 90, 95, 2}};
  // Larger, less repetitive values for the columnar cases, so the columnar
  // form beats LZ.
  Delta wide_delta;
  for (NodeId i = 0; i < 40; ++i) {
    NodeId id = i * 37;
    NodeId other = (i * 13 % 40) * 37;
    wide_delta.PutNode(
        id, NodeRecord{.attrs = Attributes{{"a", std::to_string(i % 5)}}});
    wide_delta.PutEdge(EdgeKey(id, other),
                       EdgeRecord{.src = id, .dst = other,
                                  .directed = i % 2 == 0, .attrs = {}});
  }
  wide_delta.Compact();
  tgi::VersionChainSegment long_seg = seg;
  for (uint32_t i = 5; i < 64; ++i) {
    Timestamp t = 100 + 10 * static_cast<Timestamp>(i);
    long_seg.entries.push_back({2, i, 5, t, t + 4, 2});
  }
  tgi::GraphMeta graph;
  graph.end = 999;
  graph.event_count = 12345;
  tgi::TimespanMeta span;
  span.tsid = 3;
  span.eventlist_size = 10;
  span.checkpoint_interval = 20;
  span.checkpoints = {99, 120, 140};
  span.eventlist_bounds = {{100, 109}, {110, 119}};
  span.tree = {{-1, -1}, {0, 0}, {0, 1}, {0, 2}};

  using Decode = Status (*)(std::string_view);
  const Decode decode_delta = [](std::string_view s) {
    return Delta::Deserialize(s).status();
  };
  const Decode decode_list = [](std::string_view s) {
    return EventList::Deserialize(s).status();
  };
  const Decode decode_seg = [](std::string_view s) {
    return tgi::VersionChainSegment::Deserialize(s).status();
  };
  const std::pair<std::string, Decode> cases[] = {
      {delta.Serialize(), decode_delta},
      {list.Serialize(), decode_list},
      {seg.Serialize(), decode_seg},
      {graph.Serialize(),
       [](std::string_view s) {
         return tgi::GraphMeta::Deserialize(s).status();
       }},
      {span.Serialize(),
       [](std::string_view s) {
         return tgi::TimespanMeta::Deserialize(s).status();
       }},
      {tgi::SerializeMicropartBucket({{1, 0}, {9, 3}, {300, 7}}),
       [](std::string_view s) {
         return tgi::DeserializeMicropartBucket(s).status();
       }},
      {ColumnarPayload(wide_delta.Serialize(), ValueSchema::kDelta),
       decode_delta},
      {ColumnarPayload(list.Serialize(), ValueSchema::kEventList),
       decode_list},
      {ColumnarPayload(long_seg.Serialize(), ValueSchema::kVersionChain),
       decode_seg},
  };
  size_t columnar_cases = 0;
  for (const auto& [base, decode] : cases) {
    ASSERT_TRUE(decode(base).ok());
    if (IsColumnarPayload(base)) ++columnar_cases;
    for (int i = 0; i < 300; ++i) {
      Status st = decode(MutateAndReseal(base, &rng));
      EXPECT_TRUE(st.ok() || st.IsCorruption()) << st.ToString();
    }
  }
  EXPECT_EQ(columnar_cases, 3u);  // the columnar arm won for all three
}

TEST_P(FuzzDeserializers, TruncatedValidPayloadsFailCleanly) {
  Rng rng(GetParam() + 7);
  EventList list(0, 100);
  for (int i = 1; i <= 50; ++i) {
    list.Append(Event::AddEdge(i, static_cast<NodeId>(i),
                               static_cast<NodeId>(i + 1)));
  }
  std::string base = list.Serialize();
  for (int i = 0; i < 100; ++i) {
    size_t cut = rng.Uniform(base.size());
    auto res = EventList::Deserialize(base.substr(0, cut));
    EXPECT_FALSE(res.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDeserializers,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace hgs::workload
