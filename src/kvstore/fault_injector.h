// Scriptable, deterministic-seeded fault injection for one simulated
// storage node. The paper's evaluation runs on a replicated Cassandra
// cluster whose failure modes (flaky disks, GC pauses, slow boxes, bit
// rot, dead machines) the analytical model abstracts away; the injector
// makes them expressible inside the simulation so the client-side
// resilience machinery (retries, hedged reads, checksum failover, hinted
// handoff, repair) can be exercised and measured.
//
// A profile is installed per node (Cluster::SetFaultProfile) and drawn
// from per decision by a seeded SplitMix64 stream, so a single-threaded
// scripted scenario replays identically run to run. The hot path is one
// relaxed atomic load when no profile is armed.

#ifndef HGS_KVSTORE_FAULT_INJECTOR_H_
#define HGS_KVSTORE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>

#include "common/mutex.h"
#include "common/rng.h"

namespace hgs {

/// What can go wrong on one storage node. All probabilities are per
/// request (transient/latency) or per value returned (corruption).
struct FaultProfile {
  /// Probability a request fails with a transient IOError (the replica is
  /// alive; an immediate retry may succeed). Models flaky NICs, dropped
  /// connections, overload shedding.
  double transient_error_prob = 0.0;
  /// Probability a returned value has one byte flipped (bit rot / torn
  /// read). Surfaces as ChecksumMismatch at the cluster client, which
  /// treats it as a replica failure.
  double corrupt_prob = 0.0;
  /// Latency added to every request (a uniformly slow node). Applied even
  /// when the base latency model is disabled — injected faults are always
  /// real.
  int64_t added_latency_micros = 0;
  /// Tail spikes: with `spike_prob`, a request additionally waits
  /// `spike_latency_micros` (GC pause / compaction stall — the p99 killer
  /// hedged reads exist for).
  double spike_prob = 0.0;
  int64_t spike_latency_micros = 0;
  /// Full crash: every request fails immediately with IOError until the
  /// node rejoins. Subsumes the old StorageNode::SetDown flag.
  bool crashed = false;

  bool HasTransientFaults() const {
    return transient_error_prob > 0 || corrupt_prob > 0 ||
           added_latency_micros > 0 || spike_prob > 0;
  }
};

/// Per-request fault decision, drawn once when a request starts.
struct FaultDecision {
  bool fail = false;            ///< fail the request with a transient error
  int64_t extra_micros = 0;     ///< added latency (slow node + spike)
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  void SetProfile(const FaultProfile& profile) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    profile_ = profile;
    crashed_.store(profile.crashed, std::memory_order_relaxed);
    armed_.store(profile.HasTransientFaults(), std::memory_order_relaxed);
  }

  void SetCrashed(bool crashed) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    profile_.crashed = crashed;
    crashed_.store(crashed, std::memory_order_relaxed);
  }

  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  /// Draws the transient-fault decision for one request. Cheap when no
  /// transient faults are armed.
  FaultDecision OnRequest() EXCLUDES(mu_) {
    FaultDecision d;
    if (!armed_.load(std::memory_order_relaxed)) return d;
    MutexLock lock(mu_);
    d.extra_micros = profile_.added_latency_micros;
    if (profile_.spike_prob > 0 && rng_.Bernoulli(profile_.spike_prob)) {
      d.extra_micros += profile_.spike_latency_micros;
    }
    if (profile_.transient_error_prob > 0 &&
        rng_.Bernoulli(profile_.transient_error_prob)) {
      d.fail = true;
    }
    return d;
  }

  /// Whether one value returned by the current request should be
  /// corrupted, and at which (pseudo-random) byte offset. Drawn per value.
  bool ShouldCorrupt(uint64_t* byte_offset_seed) EXCLUDES(mu_) {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    MutexLock lock(mu_);
    if (profile_.corrupt_prob <= 0 || !rng_.Bernoulli(profile_.corrupt_prob)) {
      return false;
    }
    *byte_offset_seed = rng_.Next();
    return true;
  }

 private:
  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  FaultProfile profile_ GUARDED_BY(mu_);
  // Relaxed mirrors of profile_ fields, so the unfaulted hot path is one
  // atomic load instead of a lock acquisition.
  std::atomic<bool> armed_{false};
  std::atomic<bool> crashed_{false};
};

}  // namespace hgs

#endif  // HGS_KVSTORE_FAULT_INJECTOR_H_
