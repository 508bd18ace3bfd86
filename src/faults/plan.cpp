#include "faults/plan.h"

#include <string>

namespace actg::faults {

namespace {

bool ProbabilityOk(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

util::Error FaultPlan::Validate() const {
  if (!(intensity >= 0.0)) {
    return util::Error::Invalid("FaultPlan: intensity must be >= 0");
  }
  if (!ProbabilityOk(overrun.probability)) {
    return util::Error::Invalid(
        "FaultPlan: overrun.probability must lie in [0, 1]");
  }
  if (!(overrun.min_factor >= 1.0) ||
      !(overrun.max_factor >= overrun.min_factor)) {
    return util::Error::Invalid(
        "FaultPlan: overrun factors need 1 <= min_factor <= max_factor");
  }
  if (!ProbabilityOk(dropout.probability)) {
    return util::Error::Invalid(
        "FaultPlan: dropout.probability must lie in [0, 1]");
  }
  if (dropout.duration == 0) {
    return util::Error::Invalid("FaultPlan: dropout.duration must be > 0");
  }
  if (!(dropout.rerun_penalty >= 1.0)) {
    return util::Error::Invalid(
        "FaultPlan: dropout.rerun_penalty must be >= 1");
  }
  if (!ProbabilityOk(link.probability)) {
    return util::Error::Invalid(
        "FaultPlan: link.probability must lie in [0, 1]");
  }
  if (!(link.bandwidth_factor > 0.0) || link.bandwidth_factor > 1.0) {
    return util::Error::Invalid(
        "FaultPlan: link.bandwidth_factor must lie in (0, 1]");
  }
  if (link.duration == 0) {
    return util::Error::Invalid("FaultPlan: link.duration must be > 0");
  }
  if (!ProbabilityOk(drift.max_flip_probability)) {
    return util::Error::Invalid(
        "FaultPlan: drift.max_flip_probability must lie in [0, 1]");
  }
  if (drift.ramp_instances == 0) {
    return util::Error::Invalid(
        "FaultPlan: drift.ramp_instances must be > 0");
  }
  return {};
}

bool FaultPlan::Empty() const {
  if (intensity <= 0.0) return true;
  return overrun.probability <= 0.0 && dropout.probability <= 0.0 &&
         link.probability <= 0.0 && drift.max_flip_probability <= 0.0;
}

FaultPlan ReadFaultPlan(util::LineReader& reader) {
  reader.ExpectHeader("faults v1");
  FaultPlan plan;
  while (reader.NextBeforeEnd()) {
    const std::string& directive = reader.directive();
    if (directive == "intensity") {
      plan.intensity = reader.Number(reader.Operand("<scale>"));
    } else if (directive == "seed") {
      plan.seed = reader.U64(reader.Operand("<uint64>"));
    } else if (directive == "overrun") {
      reader.Operands(3, "<prob> <min_factor> <max_factor>");
      plan.overrun.probability = reader.Number(reader[1]);
      plan.overrun.min_factor = reader.Number(reader[2]);
      plan.overrun.max_factor = reader.Number(reader[3]);
    } else if (directive == "dropout") {
      reader.Operands(3, "<prob> <duration> <rerun_penalty>");
      plan.dropout.probability = reader.Number(reader[1]);
      plan.dropout.duration = reader.U64(reader[2]);
      plan.dropout.rerun_penalty = reader.Number(reader[3]);
    } else if (directive == "link") {
      reader.Operands(3, "<prob> <bandwidth_factor> <duration>");
      plan.link.probability = reader.Number(reader[1]);
      plan.link.bandwidth_factor = reader.Number(reader[2]);
      plan.link.duration = reader.U64(reader[3]);
    } else if (directive == "drift") {
      reader.Operands(2, "<max_flip_prob> <ramp_instances>");
      plan.drift.max_flip_probability = reader.Number(reader[1]);
      plan.drift.ramp_instances = reader.U64(reader[2]);
    } else {
      reader.UnknownDirective();
    }
  }
  plan.Validate().ThrowIfError();
  return plan;
}

util::Expected<FaultPlan> ParseFaultPlan(std::istream& is) {
  return util::ParseLines(is, "fault_plan", ReadFaultPlan);
}

void WriteFaultPlan(std::ostream& os, const FaultPlan& plan) {
  using util::FormatNumber;
  os << "faults v1\n";
  os << "intensity " << FormatNumber(plan.intensity) << "\n";
  if (plan.seed != 0) os << "seed " << plan.seed << "\n";
  os << "overrun " << FormatNumber(plan.overrun.probability) << " "
     << FormatNumber(plan.overrun.min_factor) << " "
     << FormatNumber(plan.overrun.max_factor) << "\n";
  os << "dropout " << FormatNumber(plan.dropout.probability) << " "
     << plan.dropout.duration << " "
     << FormatNumber(plan.dropout.rerun_penalty) << "\n";
  os << "link " << FormatNumber(plan.link.probability) << " "
     << FormatNumber(plan.link.bandwidth_factor) << " "
     << plan.link.duration << "\n";
  os << "drift " << FormatNumber(plan.drift.max_flip_probability) << " "
     << plan.drift.ramp_instances << "\n";
  os << "end\n";
}

}  // namespace actg::faults
