/// \file engine_pool.h
/// Reschedule workspaces lent per reschedule instead of owned per
/// controller.
///
/// A PathEngine (path_engine.h) is the reschedule workspace: the path
/// store, the spanning CSR, the DFS stacks, the scan scratch and a
/// sched::DlsWorkspace. Its buffers grow to the largest enumeration it
/// has served and keep that capacity. Were every adaptive controller to
/// own one, a process holding many live controllers (a serve daemon
/// with hundreds of tenants) would hold one grown store per controller,
/// although only as many reschedules run at once as there are workers.
///
/// An EnginePool owns the engines instead and lends them out: an
/// adaptive::Rescheduler acquires one only when the exact tier misses,
/// keeps it for the rest of that Reschedule() and returns it through
/// the Lease's destructor, also when the reschedule throws. Every
/// Acquire() re-points the engine at the borrower's graph, analysis,
/// platform and options (PathEngine::Rebind). A pool therefore creates
/// no more engines than the leases ever outstanding at once — at most
/// one per thread that reschedules through it — and store memory is
/// bounded by that count times the largest enumeration, not by the
/// number of controllers bound to the pool.
///
/// Rewinds survive pooling: Rebind() keeps the enumeration when the
/// borrower's model is the engine's current one, and the Rescheduler
/// rewinds only the engine it last enumerated on while that
/// enumeration id is still current. Which engine a lease returns never
/// changes a result, only whether a warm stretch can rewind.
///
/// Thread-safe: Acquire() and the return of a lease may run on any
/// threads concurrently; a leased engine belongs to its lessee alone.
/// The pool must outlive every lease and every controller bound to it.

#ifndef ACTG_DVFS_ENGINE_POOL_H
#define ACTG_DVFS_ENGINE_POOL_H

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "dvfs/path_engine.h"

namespace actg::dvfs {

class EnginePool {
 public:
  /// One engine lent to one borrower; returns it to the pool when
  /// destroyed. Neither copyable nor movable: Acquire() returns it by
  /// guaranteed copy elision, so exactly one object returns the engine.
  class Lease {
   public:
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    PathEngine& operator*() const { return *engine_; }
    PathEngine* operator->() const { return engine_; }

   private:
    friend class EnginePool;
    Lease(EnginePool* pool, PathEngine* engine)
        : pool_(pool), engine_(engine) {}

    EnginePool* pool_;
    PathEngine* engine_;
  };

  EnginePool() = default;
  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  /// Lends the engine returned last (a new one when none is idle),
  /// re-pointed at \p graph/\p analysis/\p platform and \p options
  /// (see PathEngine::Rebind). A new engine counts nothing in the
  /// borrower's registry: "guard.dnf_fallbacks" is its owner's count.
  Lease Acquire(const ctg::Ctg& graph,
                const ctg::ActivationAnalysis& analysis,
                const arch::Platform& platform,
                const PathEngineOptions& options);

  /// Engines created so far, which is the largest number of leases
  /// that were ever outstanding at once.
  std::size_t size() const;

 private:
  void Return(PathEngine* engine);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<PathEngine>> engines_;
  /// Engines not lent out, the one returned last at the back.
  std::vector<PathEngine*> idle_;
};

}  // namespace actg::dvfs

#endif  // ACTG_DVFS_ENGINE_POOL_H
