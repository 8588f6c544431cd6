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

  /// Ingests a complete chronological event history and publishes metadata.
  Status BuildFrom(const std::vector<Event>& events) {
    HGS_RETURN_NOT_OK(builder_.Ingest(events));
    return builder_.Finish();
  }

  /// Appends a batch of later events (the paper's batched update path) and
  /// re-publishes metadata.
  Status AppendBatch(const std::vector<Event>& events) {
    HGS_RETURN_NOT_OK(builder_.Ingest(events));
    return builder_.Finish();
  }

  /// Backfill path for complete histories: builds timespans bottom-up
  /// across the worker pool and publishes metadata once at the end.
  /// Byte-identical storage contents to BuildFrom over the same stream.
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
