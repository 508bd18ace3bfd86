/// \file pool.h
/// Deterministic parallel job engine.
///
/// A Pool owns a fixed set of worker threads and executes index-based
/// job batches (ParallelFor / ParallelMap). Determinism contract: the
/// pool never decides *what* a job computes, only *where* it runs — a
/// body invoked as body(i) must depend only on i (seed per-job RNGs via
/// util::Random::Fork(i)) and write only state owned by index i. Under
/// that contract results are bit-identical for any worker count and any
/// scheduling order, because the output slot assignment is by index,
/// not by completion order.
///
/// The calling thread participates in its own batch (it claims indices
/// like a worker), so ParallelFor completes even with zero workers, and
/// a nested ParallelFor issued from inside a job runs inline on the
/// worker — nesting can never deadlock the fixed-size pool.

#ifndef ACTG_RUNTIME_POOL_H
#define ACTG_RUNTIME_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace actg::obs {
class TraceSession;
}  // namespace actg::obs

namespace actg::runtime {

/// Fixed-size thread pool executing index batches.
class Pool {
 public:
  /// Creates a pool with a total concurrency of \p jobs (the calling
  /// thread plus jobs-1 workers). jobs <= 1 means fully serial. Every
  /// job body runs inside one "pool.job" span on \p trace, if given,
  /// which must outlive the pool.
  explicit Pool(std::size_t jobs = 1, obs::TraceSession* trace = nullptr);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Total concurrency (including the calling thread).
  std::size_t jobs() const { return jobs_; }

  /// Runs body(0) .. body(n-1), distributing indices over the workers
  /// and the calling thread; returns when all n calls completed. The
  /// first exception thrown by a body cancels the remaining unclaimed
  /// indices and is rethrown here.
  ///
  /// deadline_ms > 0 arms a watchdog DeadlineScope around every body
  /// call, so a body that cooperates (calls CheckDeadline at its
  /// instance boundaries) is bounded per job. 0 (the default) arms
  /// nothing; see watchdog.h for the determinism caveats.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& body,
                   double deadline_ms = 0.0);

 private:
  struct Batch;

  void WorkerLoop();
  /// Claims and runs indices of \p batch until none are left.
  void DrainBatch(const std::shared_ptr<Batch>& batch);

  std::size_t jobs_;
  obs::TraceSession* trace_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::shared_ptr<Batch>> open_batches_;
  bool stopping_ = false;
};

/// Maps fn over [0, n) in parallel and returns the results in index
/// order. The element type must be default-constructible and
/// move-assignable. Same determinism contract as Pool::ParallelFor.
template <typename Fn>
auto ParallelMap(Pool& pool, std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  std::vector<std::invoke_result_t<Fn&, std::size_t>> results(n);
  pool.ParallelFor(n, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

/// max(1, std::thread::hardware_concurrency()).
std::size_t HardwareJobs();

/// Job count from the ACTG_JOBS environment variable; 1 (serial) when
/// unset or unparsable, HardwareJobs() for the value 0 ("auto").
std::size_t DefaultJobs();

/// Parses a --jobs N / --jobs=N command-line flag (first occurrence
/// wins); falls back to DefaultJobs(). 0 means HardwareJobs().
std::size_t ParseJobs(int argc, char** argv);

}  // namespace actg::runtime

#endif  // ACTG_RUNTIME_POOL_H
