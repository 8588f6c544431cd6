#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace hgs::bench {

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

TraceSummary SummarizeTrace(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  TraceSummary out;
  std::map<std::string, std::set<int64_t>> ops_by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    const int64_t covered = CoveredNs(children[i], s.start_ns, s.end_ns);
    TraceSummary::PerName& per = out.by_name[s.name];
    per.calls++;
    per.self_ms += static_cast<double>(dur - covered) / 1e6;
    ops_by_name[s.name].insert(s.op);
    if (s.parent < 0) {
      out.ops++;
      out.op_ms += static_cast<double>(dur) / 1e6;
      out.covered_ms += static_cast<double>(covered) / 1e6;
    }
  }
  for (auto& [name, per] : out.by_name) per.ops = ops_by_name[name].size();
  return out;
}

bool WriteTraceJson(const std::string& path, const std::string& header,
                    const std::vector<SpanRecord>& spans,
                    const TraceSummary& summary) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"header\": %s,\n\"self_time\": {", header.c_str());
  bool first = true;
  for (const auto& [name, per] : summary.by_name) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"calls\": %llu, \"ops\": %llu, "
                 "\"self_ms\": %.6f, \"self_ms_per_op\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(per.calls),
                 static_cast<unsigned long long>(per.ops), per.self_ms,
                 summary.SelfMsPerOp(name));
    first = false;
  }
  std::fprintf(f,
               "},\n\"ops\": %llu, \"op_ms\": %.6f, \"covered_ms\": %.6f,\n"
               "\"spans\": [",
               static_cast<unsigned long long>(summary.ops), summary.op_ms,
               summary.covered_ms);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"op\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<long long>(s.parent), static_cast<long long>(s.op),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hgs::bench
