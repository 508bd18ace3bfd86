#include "serve/session.h"

#include <string>
#include <utility>

#include "apps/common.h"
#include "runtime/watchdog.h"
#include "util/error.h"

namespace actg::serve {

namespace {

const char* StateName(SessionState state) {
  switch (state) {
    case SessionState::kAdmitted:
      return "admitted";
    case SessionState::kActive:
      return "active";
    case SessionState::kDone:
      return "done";
    case SessionState::kShutdown:
      return "shutdown";
    case SessionState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

}  // namespace

Session::Session(TenantRequest request, SessionOptions options,
                 util::Random rng)
    : request_(std::move(request)), options_(options), rng_(rng) {
  request_.Validate().ThrowIfError();
}

void Session::Reject(const char* event, const char* why) const {
  throw InvalidArgument("Session '" + request_.name + "' (" +
                        StateName(state_) + "): " + event + " " + why);
}

void Session::NewApp() {
  runtime::CheckDeadline("serve session NewApp");
  if (state_ != SessionState::kAdmitted) {
    Reject("NewApp", "is only valid before the app is built");
  }
  model_ = std::make_unique<apps::TenantModel>(request_.workload,
                                               request_.seed);
  // The trace consumes the session's substream; nothing else draws from
  // it, so trace content is a function of (fleet seed, tenant index,
  // request) alone — never of dispatch interleaving.
  trace_ = model_->MakeTrace(request_.instances, rng_);

  adaptive::AdaptiveOptions options;
  options.window_length = request_.window;
  options.threshold = request_.threshold;
  options.policy = request_.policy;
  options.cache = options_.cache;
  options.engines = options_.engines;
  options.metrics = options_.metrics;
  options.validate_schedules = options_.validate;
  controller_ = std::make_unique<adaptive::AdaptiveController>(
      model_->graph(), model_->analysis(), model_->platform(),
      apps::UniformProbabilities(model_->graph()), options);
  state_ = SessionState::kActive;
}

const sim::InstanceResult& Session::NewInstance() {
  runtime::CheckDeadline("serve session NewInstance");
  if (state_ != SessionState::kActive) {
    Reject("NewInstance", "needs an active app (NewApp first)");
  }
  if (pending_.has_value()) {
    Reject("NewInstance", "has an unacknowledged result pending");
  }
  if (next_instance_ >= trace_.size()) {
    Reject("NewInstance", "has no instances left");
  }
  pending_ = controller_->ProcessInstance(trace_.At(next_instance_));
  ++next_instance_;
  return *pending_;
}

sim::InstanceResult Session::InstanceComplete() {
  if (state_ != SessionState::kActive || !pending_.has_value()) {
    Reject("InstanceComplete", "has no pending instance");
  }
  const sim::InstanceResult result = *pending_;
  pending_.reset();
  summary_.Add(result);
  if (summary_.instances == request_.instances) {
    state_ = SessionState::kDone;
  }
  return result;
}

SessionStatus Session::PeriodicCheck() const {
  if (state_ != SessionState::kActive && state_ != SessionState::kDone) {
    Reject("PeriodicCheck", "needs a live app");
  }
  SessionStatus status;
  status.completed = summary_.instances;
  status.remaining = remaining();
  status.reschedules = controller_->reschedule_count();
  status.degrade_level = controller_->degrade_level();
  return status;
}

void Session::Shutdown() {
  if (state_ == SessionState::kShutdown) {
    Reject("Shutdown", "was already shut down");
  }
  if (state_ == SessionState::kQuarantined) {
    Reject("Shutdown", "was quarantined by the watchdog");
  }
  if (pending_.has_value()) {
    Reject("Shutdown", "has an unacknowledged result pending");
  }
  state_ = SessionState::kShutdown;
}

void Session::Quarantine() {
  if (state_ == SessionState::kShutdown ||
      state_ == SessionState::kQuarantined) {
    Reject("Quarantine", "is already terminal");
  }
  // A deadline fires at an event entry boundary, never between
  // NewInstance and its InstanceComplete ack — but drop any pending
  // result defensively so the summary never half-counts an instance.
  pending_.reset();
  state_ = SessionState::kQuarantined;
}

const apps::TenantModel& Session::model() const {
  if (model_ == nullptr) Reject("model", "is only available after NewApp");
  return *model_;
}

const adaptive::AdaptiveController& Session::controller() const {
  if (controller_ == nullptr) {
    Reject("controller", "is only available after NewApp");
  }
  return *controller_;
}

ctg::BranchAssignment Session::assignment(std::size_t index) const {
  if (model_ == nullptr) {
    Reject("assignment", "is only available after NewApp");
  }
  return trace_.At(index);
}

}  // namespace actg::serve
