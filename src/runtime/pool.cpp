#include "runtime/pool.h"

#include <cstdlib>
#include <exception>
#include <string>

#include "obs/trace.h"
#include "runtime/watchdog.h"

namespace actg::runtime {

namespace {

/// Span around one job body. Emitted by both the serial inline path and
/// DrainBatch so trace *content* is identical for any --jobs count
/// (only thread ids and timestamps differ). A positive deadline arms a
/// per-job watchdog token for the body's duration.
void RunJobTraced(obs::TraceSession* trace,
                  const std::function<void(std::size_t)>& body,
                  std::size_t index, double deadline_ms) {
  obs::ScopedSpan span(trace, "pool.job", "runtime");
  if (span.enabled()) {
    span.AddArg(obs::IntArg("index", static_cast<std::int64_t>(index)));
  }
  DeadlineScope deadline(deadline_ms);
  body(index);
}

/// Set while a thread executes a job body, so a nested ParallelFor runs
/// inline instead of re-entering the queue (the caller-participation
/// scheme would still finish, but inline nesting keeps worker stacks
/// shallow and the schedule easy to reason about).
thread_local bool t_inside_job = false;

}  // namespace

/// One index batch. All fields are guarded by the owning pool's mutex.
struct Pool::Batch {
  std::function<void(std::size_t)> body;
  double deadline_ms = 0.0;  ///< per-job watchdog; 0 = unarmed
  std::size_t n = 0;
  std::size_t next = 0;       ///< first unclaimed index
  std::size_t claimed = 0;    ///< indices handed to a thread
  std::size_t completed = 0;  ///< indices whose body returned or threw
  std::exception_ptr error;
  std::condition_variable done;

  bool Exhausted() const { return next >= n; }
  bool Finished() const { return Exhausted() && completed == claimed; }
};

Pool::Pool(std::size_t jobs, obs::TraceSession* trace)
    : jobs_(jobs == 0 ? 1 : jobs), trace_(trace) {
  workers_.reserve(jobs_ - 1);
  for (std::size_t i = 0; i + 1 < jobs_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Pool::ParallelFor(std::size_t n,
                       const std::function<void(std::size_t)>& body,
                       double deadline_ms) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_inside_job) {
    // Serial pool, trivial batch, or nested call from inside a job:
    // run inline. Identical results by the determinism contract.
    for (std::size_t i = 0; i < n; ++i) {
      RunJobTraced(trace_, body, i, deadline_ms);
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->body = body;
  batch->deadline_ms = deadline_ms;
  batch->n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_batches_.push_back(batch);
  }
  work_available_.notify_all();

  DrainBatch(batch);

  std::unique_lock<std::mutex> lock(mu_);
  batch->done.wait(lock, [&] { return batch->Finished(); });
  if (batch->error) std::rethrow_exception(batch->error);
}

void Pool::DrainBatch(const std::shared_ptr<Batch>& batch) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!batch->Exhausted()) {
    const std::size_t index = batch->next++;
    ++batch->claimed;
    if (batch->Exhausted()) {
      // Last index claimed: retire the batch from the open queue.
      for (auto it = open_batches_.begin(); it != open_batches_.end();
           ++it) {
        if (*it == batch) {
          open_batches_.erase(it);
          break;
        }
      }
    }
    lock.unlock();
    t_inside_job = true;
    std::exception_ptr error;
    try {
      RunJobTraced(trace_, batch->body, index, batch->deadline_ms);
    } catch (...) {
      error = std::current_exception();
    }
    t_inside_job = false;
    lock.lock();
    ++batch->completed;
    if (error) {
      if (!batch->error) batch->error = error;
      // Cancel the unclaimed remainder; in-flight indices finish.
      if (!batch->Exhausted()) {
        batch->next = batch->n;
        for (auto it = open_batches_.begin(); it != open_batches_.end();
             ++it) {
          if (*it == batch) {
            open_batches_.erase(it);
            break;
          }
        }
      }
    }
    if (batch->Finished()) batch->done.notify_all();
  }
}

void Pool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_available_.wait(
        lock, [&] { return stopping_ || !open_batches_.empty(); });
    if (stopping_) return;
    const std::shared_ptr<Batch> batch = open_batches_.front();
    lock.unlock();
    DrainBatch(batch);
    lock.lock();
  }
}

std::size_t HardwareJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {

std::size_t ParseJobsValue(const std::string& text, std::size_t fallback) {
  // Digits only: stoul would accept "-4" by wrapping it to a huge
  // unsigned value, and the pool would then try to spawn that many
  // threads. Anything non-numeric falls back untouched.
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return fallback;
  }
  try {
    const unsigned long value = std::stoul(text);
    // More workers than a machine could have is a typo, not a request.
    constexpr unsigned long kMaxJobs = 1024;
    if (value > kMaxJobs) return kMaxJobs;
    return value == 0 ? HardwareJobs() : static_cast<std::size_t>(value);
  } catch (...) {
    return fallback;
  }
}

}  // namespace

std::size_t DefaultJobs() {
  const char* env = std::getenv("ACTG_JOBS");
  if (env == nullptr || *env == '\0') return 1;
  return ParseJobsValue(env, 1);
}

std::size_t ParseJobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      return ParseJobsValue(argv[i + 1], DefaultJobs());
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      return ParseJobsValue(arg.substr(7), DefaultJobs());
    }
  }
  return DefaultJobs();
}

}  // namespace actg::runtime
