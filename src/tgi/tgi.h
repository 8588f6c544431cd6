// Convenience facade bundling the Temporal Graph Index's write path
// (TGIBuilder) and read path (TGIQueryManager) over one key-value cluster.
// Examples and benches that don't need fine-grained control start here.

#ifndef HGS_TGI_TGI_H_
#define HGS_TGI_TGI_H_

#include <memory>
#include <vector>

#include "kvstore/cluster.h"
#include "tgi/builder.h"
#include "tgi/query.h"

namespace hgs {

class TGI {
 public:
  TGI(Cluster* cluster, TGIOptions options)
      : cluster_(cluster), options_(options), builder_(cluster, options) {}

  /// Ingests a chronological event history and publishes it: whole
  /// timespans are built as they fill, and a trailing partial span is left
  /// open, its root written once as the span-start state.
  Status BuildFrom(const std::vector<Event>& events) {
    HGS_RETURN_NOT_OK(builder_.Ingest(events));
    return builder_.Finish();
  }

  /// Appends a batch of later events (the paper's batched update path) and
  /// publishes it. The batch goes into the open newest span: only its
  /// micro-eventlists (rewriting a partial last one), the touched nodes'
  /// version-chain rows and the span's TimespanMeta are written. A span
  /// that fills closes, its checkpoint hierarchy written below its root.
  /// Data scopes are published before the graph row and the graph row's
  /// scope after it; a deltas scope only when a row the published span
  /// metadata lists was rewritten, so the open span stays cached.
  Status AppendBatch(const std::vector<Event>& events) {
    HGS_RETURN_NOT_OK(builder_.Ingest(events));
    return builder_.Finish();
  }

  /// Backfill path for complete histories: builds whole timespans
  /// bottom-up across the worker pool, leaves a trailing partial span open
  /// as BuildFrom does, and publishes once at the end. Byte-identical
  /// storage contents to BuildFrom over the same stream.
  Status BulkLoad(const std::vector<Event>& events) {
    return builder_.BulkLoad(events);
  }

  /// Opens a query manager with `fetch_parallelism` parallel fetch clients
  /// and the read-cache configuration of this index's options.
  Result<std::unique_ptr<TGIQueryManager>> OpenQueryManager(
      size_t fetch_parallelism = 1) {
    auto qm = std::make_unique<TGIQueryManager>(
        cluster_, fetch_parallelism, options_.read_cache_bytes,
        options_.decoded_cache_bytes);
    HGS_RETURN_NOT_OK(qm->Open());
    return qm;
  }

  TGIBuilder* builder() { return &builder_; }
  Cluster* cluster() { return cluster_; }
  const TGIOptions& options() const { return options_; }

 private:
  Cluster* cluster_;
  TGIOptions options_;
  TGIBuilder builder_;
};

}  // namespace hgs

#endif  // HGS_TGI_TGI_H_
