#include "dvfs/engine_pool.h"

namespace actg::dvfs {

EnginePool::Lease::~Lease() { pool_->Return(engine_); }

EnginePool::Lease EnginePool::Acquire(
    const ctg::Ctg& graph, const ctg::ActivationAnalysis& analysis,
    const arch::Platform& platform, const PathEngineOptions& options) {
  PathEngine* engine = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      engine = idle_.back();
      idle_.pop_back();
    }
  }
  if (engine == nullptr) {
    // Built without a registry, so the borrower's binding below counts
    // nothing.
    auto fresh = std::make_unique<PathEngine>(graph, analysis, platform);
    engine = fresh.get();
    std::lock_guard<std::mutex> lock(mu_);
    engines_.push_back(std::move(fresh));
  }
  engine->Rebind(graph, analysis, platform, options);
  return Lease(this, engine);
}

std::size_t EnginePool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engines_.size();
}

void EnginePool::Return(PathEngine* engine) {
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(engine);
}

}  // namespace actg::dvfs
