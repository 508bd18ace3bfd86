#include "apps/cruise.h"

#include <memory>
#include <string>
#include <vector>

#include "apps/common.h"
#include "trace/generators.h"
#include "util/error.h"

namespace actg::apps {

CruiseModel MakeCruiseModel(obs::TraceSession* trace,
                            double deadline_factor) {
  ctg::CtgBuilder b;
  std::vector<double> wcet;
  const auto add = [&](const std::string& name, double w) {
    wcet.push_back(w);
    return b.AddTask(name);
  };
  const auto add_or = [&](const std::string& name, double w) {
    wcet.push_back(w);
    return b.AddOrTask(name);
  };

  // Sensor / fusion front end (8 tasks).
  const TaskId speed_sensor = add("speed_sensor", 1.0);
  const TaskId wheel_sensor = add("wheel_sensor", 1.1);
  const TaskId throttle_sensor = add("throttle_sensor", 0.9);
  const TaskId brake_sensor = add("brake_sensor", 0.8);
  const TaskId filter_speed = add("filter_speed", 1.6);
  const TaskId filter_pedals = add("filter_pedals", 1.4);
  const TaskId fusion = add("fusion", 2.2);
  const TaskId diagnostics = add("diagnostics", 1.2);
  b.AddEdge(speed_sensor, filter_speed, 4.0);
  b.AddEdge(wheel_sensor, filter_speed, 4.0);
  b.AddEdge(throttle_sensor, filter_pedals, 3.0);
  b.AddEdge(brake_sensor, filter_pedals, 3.0);
  b.AddEdge(filter_speed, fusion, 6.0);
  b.AddEdge(filter_pedals, fusion, 6.0);
  b.AddEdge(fusion, diagnostics, 2.0);

  // F1: regulation mode (9th task).
  const TaskId mode = add("mode_select", 0.5);
  b.AddEdge(fusion, mode, 2.0);

  // Manual override path (4 tasks).
  const TaskId manual_map = add("manual_map", 1.2);
  b.AddConditionalEdge(mode, manual_map, /*override=*/1, 3.0);
  const TaskId manual_smooth = add("manual_smooth", 1.0);
  b.AddEdge(manual_map, manual_smooth, 2.0);
  const TaskId manual_limit = add("manual_limit", 0.8);
  b.AddEdge(manual_smooth, manual_limit, 2.0);
  const TaskId manual_log = add("manual_log", 0.6);
  b.AddEdge(manual_limit, manual_log, 1.0);

  // Cruise regulation path: error computation (4 tasks) then F2.
  const TaskId ref_speed = add("ref_speed", 0.8);
  b.AddConditionalEdge(mode, ref_speed, /*cruise=*/0, 3.0);
  const TaskId error_calc = add("error_calc", 1.0);
  b.AddEdge(ref_speed, error_calc, 2.0);
  const TaskId pid_state = add("pid_state", 1.4);
  b.AddEdge(error_calc, pid_state, 2.0);
  const TaskId gain_sched = add("gain_sched", 1.1);
  b.AddEdge(pid_state, gain_sched, 2.0);

  // F2: control law (1 task). The two laws are nearly identical in
  // structure and cost, making their minterms almost equal in energy
  // (the paper's stated property of this CTG).
  const TaskId law = add("law_select", 0.4);
  b.AddEdge(gain_sched, law, 1.0);
  std::vector<TaskId> accel, decel;
  const char* stage_names[5] = {"gain", "ramp", "comp", "limit", "cmd"};
  const double stage_wcet[5] = {1.2, 1.0, 1.3, 0.9, 1.1};
  for (int s = 0; s < 5; ++s) {
    accel.push_back(
        add(std::string("accel_") + stage_names[s], stage_wcet[s]));
    decel.push_back(add(std::string("decel_") + stage_names[s],
                        stage_wcet[s] * 1.02));
    if (s > 0) {
      b.AddEdge(accel[s - 1], accel[s], 2.0);
      b.AddEdge(decel[s - 1], decel[s], 2.0);
    }
  }
  b.AddConditionalEdge(law, accel.front(), /*accel=*/0, 2.0);
  b.AddConditionalEdge(law, decel.front(), /*decel=*/1, 2.0);

  // Actuation back end (4 tasks), rejoining all three paths.
  const TaskId actuator = add_or("actuator_cmd", 1.2);
  b.AddEdge(manual_log, actuator, 3.0);
  b.AddEdge(accel.back(), actuator, 3.0);
  b.AddEdge(decel.back(), actuator, 3.0);
  const TaskId safety = add("safety_check", 0.9);
  b.AddEdge(actuator, safety, 2.0);
  b.AddEdge(diagnostics, safety, 2.0);
  const TaskId bus_write = add("bus_write", 0.8);
  b.AddEdge(safety, bus_write, 2.0);
  const TaskId ui_update = add("ui_update", 0.7);
  b.AddEdge(bus_write, ui_update, 1.0);

  b.SetOutcomeLabels(mode, {"cruise", "override"});
  b.SetOutcomeLabels(law, {"accel", "decel"});

  ctg::Ctg graph = std::move(b).Build();
  ACTG_ASSERT(graph.task_count() == 32,
              "Cruise CTG must have 32 tasks (paper Section IV)");
  ACTG_ASSERT(graph.ForkIds().size() == 2,
              "Cruise CTG must have 2 branch fork nodes");

  // 5 heterogeneous ECUs.
  arch::PlatformBuilder pb(graph.task_count(), 5, /*bandwidth=*/50.0,
                           /*tx_energy=*/0.04);
  const double pe_speed[5] = {1.0, 0.9, 1.15, 1.05, 0.95};
  const double pe_power[5] = {1.0, 0.85, 1.3, 1.1, 0.9};
  for (TaskId task : graph.TaskIds()) {
    for (int pe = 0; pe < 5; ++pe) {
      const double w = wcet[task.index()] * pe_speed[pe];
      pb.SetTaskCost(task, PeId{pe}, w, w * pe_power[pe]);
      pb.SetMinSpeedRatio(PeId{pe}, 0.2);
    }
  }
  arch::Platform platform = std::move(pb).Build();
  AssignDeadline(graph, platform, deadline_factor, trace);
  return CruiseModel{std::move(graph), std::move(platform), mode, law};
}

trace::BranchTrace GenerateRoadTrace(const CruiseModel& model,
                                     int sequence, std::size_t instances,
                                     std::uint64_t seed) {
  ACTG_CHECK(sequence >= 1 && sequence <= 3,
             "Road sequences are numbered 1..3 (paper Table 3)");
  util::Random rng(seed + static_cast<std::uint64_t>(sequence) * 7919);

  // Road regimes alter both how often the driver overrides and whether
  // the controller accelerates or decelerates. Each sequence mixes the
  // regimes differently.
  using Regime = trace::PiecewiseProcess::Regime;
  std::vector<Regime> mode_regimes, law_regimes;
  const auto push = [&](double p_cruise, double p_accel,
                        std::size_t length) {
    mode_regimes.push_back(Regime{{p_cruise, 1.0 - p_cruise}, length});
    law_regimes.push_back(Regime{{p_accel, 1.0 - p_accel}, length});
  };
  switch (sequence) {
    case 1:  // long straight with an uphill and a downhill stretch
      push(0.92, 0.55, 300);  // straight
      push(0.90, 0.85, 250);  // uphill: mostly accelerate
      push(0.90, 0.15, 250);  // downhill: mostly decelerate
      push(0.92, 0.50, 200);  // straight
      break;
    case 2:  // bumpy road: frequent overrides, alternating laws
      push(0.70, 0.60, 150);
      push(0.55, 0.40, 200);
      push(0.75, 0.65, 150);
      push(0.60, 0.35, 250);
      push(0.70, 0.55, 250);
      break;
    default:  // rolling hills with steep grades
      push(0.88, 0.90, 200);
      push(0.88, 0.10, 200);
      push(0.88, 0.88, 200);
      push(0.88, 0.12, 200);
      push(0.88, 0.90, 200);
      break;
  }

  trace::TraceGenerator gen(model.graph);
  gen.SetProcess(model.fork_mode,
                 std::make_unique<trace::PiecewiseProcess>(mode_regimes));
  gen.SetProcess(model.fork_law,
                 std::make_unique<trace::PiecewiseProcess>(law_regimes));
  return gen.Generate(instances, rng);
}

}  // namespace actg::apps
