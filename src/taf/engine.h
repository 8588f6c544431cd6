// The TAF execution engine: a fixed pool of `ma` workers (the paper's Spark
// cluster stand-in, see "Substitutions" in README.md) plus the connection to
// the TGI query manager. The workers run the operators and assemble each
// fetched subgraph from its members' histories. The fetches themselves are
// TGI calls whose stages the query manager spreads over its own fetch
// workers: one for a node set, one per hop for a subgraph set, where
// Fig 10 has every worker pull its share of temporal nodes (see context.h).

#ifndef HGS_TAF_ENGINE_H_
#define HGS_TAF_ENGINE_H_

#include <functional>

#include "common/thread_pool.h"
#include "tgi/query.h"

namespace hgs::taf {

class TAFEngine {
 public:
  TAFEngine(TGIQueryManager* qm, size_t num_workers)
      : qm_(qm), num_workers_(num_workers == 0 ? 1 : num_workers) {}

  TGIQueryManager* query_manager() const { return qm_; }
  size_t num_workers() const { return num_workers_; }

  /// Data-parallel loop over n items across the worker cluster. Runs on
  /// the process-wide SharedWorkPool with degree `num_workers`, so every
  /// query reuses the same threads and nested parallel sections (a worker
  /// body issuing a parallel TGI fetch) compose without thread explosion.
  void ParallelOver(size_t n, const std::function<void(size_t)>& fn) const {
    ParallelFor(n, num_workers_, fn);
  }

 private:
  TGIQueryManager* qm_;
  size_t num_workers_;
};

}  // namespace hgs::taf

#endif  // HGS_TAF_ENGINE_H_
