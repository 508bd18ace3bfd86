#include "apps/mpeg.h"

#include <memory>

#include "apps/common.h"
#include "util/error.h"

namespace actg::apps {

namespace {

/// Builds the 3-PE platform with MPEG-flavoured task costs. PE0 is a
/// control-oriented core (fast on parsing/VLD), PE1 and PE2 are DSP-like
/// cores (fast on IDCT / motion compensation).
arch::Platform BuildMpegPlatform(const ctg::Ctg& graph,
                                 const std::vector<double>& base_wcet,
                                 const std::vector<double>& base_power) {
  ACTG_CHECK(base_wcet.size() == graph.task_count(),
             "WCET table size mismatch");
  arch::PlatformBuilder pb(graph.task_count(), 3, /*bandwidth=*/200.0,
                           /*tx_energy=*/0.02);
  pb.SetPeName(PeId{0}, "RISC");
  pb.SetPeName(PeId{1}, "DSP0");
  pb.SetPeName(PeId{2}, "DSP1");
  // Per-PE affinity multipliers by coarse task class, derived from the
  // task name prefix.
  for (TaskId task : graph.TaskIds()) {
    const std::string& name = graph.task(task).name;
    double mult[3] = {1.0, 1.0, 1.0};
    if (name.rfind("vld", 0) == 0 || name.rfind("mb", 0) == 0 ||
        name.rfind("skip", 0) == 0 || name.rfind("cbp", 0) == 0 ||
        name.rfind("mv", 0) == 0) {
      mult[0] = 0.8;  // parsing / control: RISC-friendly
      mult[1] = 1.2;
      mult[2] = 1.2;
    } else if (name.rfind("idct", 0) == 0 || name.rfind("iq", 0) == 0 ||
               name.rfind("mc", 0) == 0 || name.rfind("add", 0) == 0) {
      mult[0] = 1.4;  // signal processing: DSP-friendly
      mult[1] = 0.85;
      mult[2] = 0.9;
    }
    for (int pe = 0; pe < 3; ++pe) {
      const double wcet = base_wcet[task.index()] * mult[pe];
      const double energy = wcet * base_power[static_cast<std::size_t>(pe)];
      pb.SetTaskCost(task, PeId{pe}, wcet, energy);
      pb.SetMinSpeedRatio(PeId{pe}, 0.2);
    }
  }
  return std::move(pb).Build();
}

}  // namespace

MpegModel MakeMpegModel(obs::TraceSession* trace, double deadline_factor) {
  ctg::CtgBuilder b;
  std::vector<double> wcet;  // filled parallel to task creation, ms
  const auto add = [&](const std::string& name, double w) {
    wcet.push_back(w);
    return b.AddTask(name);
  };
  const auto add_or = [&](const std::string& name, double w) {
    wcet.push_back(w);
    return b.AddOrTask(name);
  };

  // --- common front end -------------------------------------------------
  const TaskId mb_header = add("mb_header", 0.6);
  const TaskId skipped = add("skipped", 0.3);  // fork a
  b.AddEdge(mb_header, skipped, 2.0);

  // --- skipped path (a2) --------------------------------------------------
  const TaskId mc_skip = add("mc_skip", 1.2);
  b.AddConditionalEdge(skipped, mc_skip, /*a2=*/1, 1.0);

  // --- decoded path (a1) --------------------------------------------------
  const TaskId mb_type = add("mb_type", 0.4);  // fork b
  b.AddConditionalEdge(skipped, mb_type, /*a1=*/0, 2.0);

  // Intra path (b1): full-block VLD + IQ + DC prediction + 6 IDCTs.
  const TaskId vld_intra = add("vld_intra", 2.2);
  b.AddConditionalEdge(mb_type, vld_intra, /*b1=*/0, 4.0);
  const TaskId iq_intra = add("iq_intra", 1.4);
  b.AddEdge(vld_intra, iq_intra, 6.0);
  const TaskId dc_pred = add("dc_pred", 0.8);
  b.AddEdge(iq_intra, dc_pred, 2.0);
  std::vector<TaskId> idct_intra;
  for (int blk = 0; blk < 6; ++blk) {
    const TaskId idct =
        add("idct_i" + std::to_string(blk), 2.6);
    b.AddEdge(dc_pred, idct, 4.0);
    idct_intra.push_back(idct);
  }

  // Inter path (b2): VLD, the motion-vector fork, motion compensation,
  // and six per-block conditional IDCTs.
  const TaskId vld_inter = add("vld_inter", 1.8);
  b.AddConditionalEdge(mb_type, vld_inter, /*b2=*/1, 4.0);
  const TaskId mv_fork = add("mv_mode", 0.3);  // the ninth fork
  b.AddEdge(vld_inter, mv_fork, 1.0);
  const TaskId mv_decode = add("mv_decode", 1.1);
  b.AddConditionalEdge(mv_fork, mv_decode, /*new mv=*/0, 1.0);
  const TaskId mv_predict = add("mv_predict", 0.7);
  b.AddConditionalEdge(mv_fork, mv_predict, /*predicted=*/1, 1.0);
  const TaskId mc = add_or("mc", 2.4);  // motion compensation
  b.AddEdge(mv_decode, mc, 2.0);
  b.AddEdge(mv_predict, mc, 2.0);

  std::vector<TaskId> block_forks;
  std::vector<TaskId> block_adds;
  for (int blk = 0; blk < 6; ++blk) {
    const std::string tag = std::to_string(blk);
    const TaskId cbp = add("cbp_" + tag, 0.2);  // forks c..h
    b.AddEdge(vld_inter, cbp, 1.0);
    const TaskId idct = add("idct_b" + tag, 2.6);
    b.AddConditionalEdge(cbp, idct, /*coded=*/0, 3.0);
    const TaskId blend = add_or("add_" + tag, 0.9);
    b.AddEdge(mc, blend, 2.0);
    b.AddEdge(idct, blend, 3.0);
    // The not-coded outcome (1) feeds the blend directly: prediction
    // only, no residual.
    b.AddConditionalEdge(cbp, blend, /*not coded=*/1, 0.5);
    block_forks.push_back(cbp);
    block_adds.push_back(blend);
  }

  // --- back end -----------------------------------------------------------
  const TaskId recon = add_or("recon", 1.0);
  b.AddEdge(mc_skip, recon, 4.0);
  for (TaskId idct : idct_intra) b.AddEdge(idct, recon, 3.0);
  for (TaskId blend : block_adds) b.AddEdge(blend, recon, 3.0);
  const TaskId clip = add("clip", 0.7);
  b.AddEdge(recon, clip, 6.0);
  const TaskId store = add("store", 0.9);
  b.AddEdge(clip, store, 6.0);
  const TaskId display = add("display_update", 0.5);
  b.AddEdge(store, display, 2.0);

  b.SetOutcomeLabels(skipped, {"a1", "a2"});
  b.SetOutcomeLabels(mb_type, {"b1", "b2"});
  b.SetOutcomeLabels(mv_fork, {"mv_new", "mv_pred"});
  for (std::size_t blk = 0; blk < block_forks.size(); ++blk) {
    const char label = static_cast<char>('c' + blk);
    b.SetOutcomeLabels(block_forks[blk],
                       {std::string(1, label) + "1",
                        std::string(1, label) + "2"});
  }

  ctg::Ctg graph = std::move(b).Build();
  ACTG_ASSERT(graph.task_count() == 40,
              "MPEG CTG must have 40 tasks (paper Section III.B)");
  ACTG_ASSERT(graph.ForkIds().size() == 9,
              "MPEG CTG must have 9 branch fork nodes");

  const std::vector<double> pe_power{1.3, 1.0, 1.05};  // mJ per ms
  arch::Platform platform = BuildMpegPlatform(graph, wcet, pe_power);
  AssignDeadline(graph, platform, deadline_factor, trace);
  return MpegModel{std::move(graph), std::move(platform),
                   skipped,          mb_type,
                   mv_fork,          block_forks};
}

std::vector<MovieProfile> MpegMovieProfiles() {
  return {
      {"Airwolf", 0.050, 0.006, 101},
      {"Bike", 0.055, 0.006, 202},
      {"Bus", 0.080, 0.012, 303},
      {"Coaster", 0.050, 0.008, 404},
      {"Flower", 0.070, 0.009, 505},
      {"Shuttle", 0.120, 0.022, 606},  // QCIF, ~10 frames: most volatile
      {"Tennis", 0.070, 0.009, 707},
      {"Train", 0.045, 0.005, 808},
  };
}

trace::BranchTrace GenerateMovieTrace(const MpegModel& model,
                                      const MovieProfile& movie,
                                      std::size_t instances) {
  util::Random rng(movie.seed);
  trace::TraceGenerator gen(model.graph);
  for (TaskId fork : model.graph.ForkIds()) {
    trace::RandomWalkProcess::Params params;
    // Start each fork's weights at a random point so movies differ in
    // their long-run mix (I/P/B frame content).
    params.initial_weights = {rng.Uniform(0.2, 1.0),
                              rng.Uniform(0.2, 1.0)};
    params.step_sigma = movie.drift_sigma;
    params.jump_probability = movie.jump_probability;
    params.floor = 0.05;
    gen.SetProcess(
        fork, std::make_unique<trace::RandomWalkProcess>(params));
  }
  return gen.Generate(instances, rng);
}

}  // namespace actg::apps
