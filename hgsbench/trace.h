// In-memory span recording for the traced benchmark run.
//
// Spans come only from the driver's own wrappers around calls into the
// program's public functions: one root span per operation, one child span
// per public call the operation is split into (GetSnapshotDelta, then
// Delta::ToGraph; TGIBuilder::Ingest, then Finish; a TAF fetch, then its
// compute steps). Each span records its name, start, end, parent span and
// the operation it belongs to. Nothing is written until the run ends.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover (children of a parallel section may overlap; their
// union is subtracted once).

#ifndef HGS_HGSBENCH_TRACE_H_
#define HGS_HGSBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace hgs::bench {

struct SpanRecord {
  const char* name = "";  ///< string literal; outlives the tracer
  int64_t parent = -1;    ///< span index, -1 for an operation's root
  int64_t op = -1;        ///< index of the operation's root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span and returns its index. `op` < 0 makes it a root whose
  /// operation id is its own index.
  int64_t Begin(const char* name, int64_t parent, int64_t op) EXCLUDES(mu_) {
    const int64_t now = NowNs();
    MutexLock lock(mu_);
    const auto id = static_cast<int64_t>(spans_.size());
    spans_.push_back(SpanRecord{name, parent, op < 0 ? id : op, now, now});
    return id;
  }

  void End(int64_t id) EXCLUDES(mu_) {
    const int64_t now = NowNs();
    MutexLock lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  std::vector<SpanRecord> Spans() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return spans_;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::chrono::steady_clock::time_point origin_;
  mutable Mutex mu_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
};

/// RAII span. A root span built from a null tracer, and every span below
/// it, records nothing — the untraced run executes the same wrappers.
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->Begin(name, -1, -1);
      op_ = id_;
    }
  }
  Span(const Span& parent, const char* name) : tracer_(parent.tracer_) {
    if (tracer_ != nullptr) {
      op_ = parent.op_;
      id_ = tracer_->Begin(name, parent.id_, op_);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  Tracer* const tracer_;
  int64_t id_ = -1;
  int64_t op_ = -1;
};

/// Self time per span name, and how much of the operations' wall time the
/// layer spans cover.
struct TraceSummary {
  struct PerName {
    uint64_t calls = 0;
    uint64_t ops = 0;  ///< distinct operations containing the span
    double self_ms = 0;
  };
  std::map<std::string, PerName> by_name;
  uint64_t ops = 0;
  double op_ms = 0;       ///< summed root-span durations
  double covered_ms = 0;  ///< part of op_ms covered by child spans

  /// Self time of `name` per operation that contains it (0 when absent).
  double SelfMsPerOp(const std::string& name) const {
    auto it = by_name.find(name);
    if (it == by_name.end() || it->second.ops == 0) return 0;
    return it->second.self_ms / static_cast<double>(it->second.ops);
  }
  double Coverage() const { return op_ms > 0 ? covered_ms / op_ms : 0; }
};

TraceSummary SummarizeTrace(const std::vector<SpanRecord>& spans);

/// Writes the spans and their summary as one JSON document. `header` is a
/// JSON object literal describing the run.
bool WriteTraceJson(const std::string& path, const std::string& header,
                    const std::vector<SpanRecord>& spans,
                    const TraceSummary& summary);

}  // namespace hgs::bench

#endif  // HGS_HGSBENCH_TRACE_H_
