#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/validator.h"
#include "corpus_file.h"
#include "golden_file.h"
#include "serve/admission.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/sla.h"
#include "sim/executor.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg::serve {
namespace {

// ------------------------------------------------ Leased workspaces

// Defined first so that, when this binary runs as one process (as the
// thread-sanitizer job runs it), four pool workers lease the server's
// reschedule engines concurrently from the first round on, and make the
// process's first use of the bundled models: MPEG and cruise tenants
// start in the same round and race to build the one model each app
// shares. However many tenants are live, a server never holds more
// engines than it has workers, and which engine a reschedule leases
// never shows in the report.
TEST(LeasedEngines, FleetHoldsAtMostOneEnginePerWorker) {
  FleetRequest fleet = SyntheticFleet(48, 24, 11);
  for (std::size_t i = 0; i < fleet.tenants.size(); ++i) {
    fleet.tenants[i].arrival = i / 16;
  }
  std::string reports[2];
  std::size_t engines[2] = {};
  const std::size_t jobs[2] = {4, 1};
  for (int run = 0; run < 2; ++run) {
    ServerOptions options;
    options.jobs = jobs[run];
    Server server(fleet, options);
    std::ostringstream os;
    server.Run().Write(os);
    reports[run] = os.str();
    engines[run] = server.engines().size();
    std::size_t reschedules = 0;
    for (const TenantReport& row : server.report().tenants) {
      reschedules += row.reschedules;
    }
    EXPECT_GT(reschedules, 0u);
  }
  EXPECT_GE(engines[0], 1u);
  EXPECT_LE(engines[0], 4u);
  EXPECT_EQ(engines[1], 1u);
  EXPECT_EQ(reports[0], reports[1]) << "fleet report depends on --jobs";
}

// ------------------------------------------------------- Shared models

// Four pool workers start MPEG and cruise tenants in the same round;
// every tenant of one app must end up on that app's one model.
TEST(SharedModels, TenantsStartedInOneRoundShareOneModelPerApp) {
  FleetRequest fleet;
  fleet.config.seed = 9;
  for (int i = 0; i < 8; ++i) {
    TenantRequest tenant;
    tenant.name = "t" + std::to_string(i);
    tenant.workload = i % 2 == 0 ? apps::TenantWorkload::kMpeg
                                 : apps::TenantWorkload::kCruise;
    tenant.instances = 3;
    tenant.seed = static_cast<std::uint64_t>(i + 1);
    fleet.tenants.push_back(tenant);
  }
  ServerOptions options;
  options.jobs = 4;
  Server server(fleet, options);
  const FleetReport& report = server.Run();
  ASSERT_EQ(report.tenants.size(), 8u);
  EXPECT_EQ(report.rounds, 1u);  // every NewApp ran in round 0
  const auto& sessions = server.sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    ASSERT_NE(sessions[i], nullptr);
    EXPECT_EQ(sessions[i]->completed(), 3u);
    const apps::TenantModel& first = sessions[i % 2]->model();
    EXPECT_EQ(&sessions[i]->model().graph(), &first.graph());
    EXPECT_EQ(&sessions[i]->model().analysis(), &first.analysis());
    EXPECT_EQ(&sessions[i]->model().platform(), &first.platform());
  }
  EXPECT_NE(&sessions[0]->model().graph(), &sessions[1]->model().graph());
}

// ------------------------------------------------------------- Format

TEST(Sla, TokensRoundTrip) {
  for (std::size_t i = 0; i < kSlaClassCount; ++i) {
    const SlaClass sla = *SlaFromIndex(i);
    EXPECT_EQ(ParseSlaClass(SlaName(sla)), sla);
    EXPECT_EQ(ParseSlaClass(SlaLabel(sla)), sla);
  }
  EXPECT_FALSE(ParseSlaClass("SLA3").has_value());
  EXPECT_FALSE(SlaFromIndex(3).has_value());
}

TEST(ServeFormat, WriteParseRoundTrips) {
  FleetRequest fleet = SyntheticFleet(12, 5, 9);
  fleet.config.share_cache = true;
  fleet.config.validate = true;
  fleet.config.budget_ms[0] = 125.0;
  std::ostringstream first;
  WriteServeFile(first, fleet);

  std::istringstream is(first.str());
  util::Expected<FleetRequest> parsed = ParseServeFile(is);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();

  // Round-trip fixpoint: serializing the parse reproduces the bytes.
  std::ostringstream second;
  WriteServeFile(second, parsed.value());
  EXPECT_EQ(first.str(), second.str());
}

// Seeds used to read back through a double: above 2^53 they came back
// rounded (9408751927250898473 as 9408751927250898944), and doubles were
// written with six significant digits.
TEST(ServeFormat, SeedsAndDoublesRoundTripExactly) {
  constexpr std::uint64_t kSeed = 9408751927250898473ULL;
  FleetRequest fleet = SyntheticFleet(3, 4, kSeed);
  fleet.tenants[1].threshold = 0.1000001;
  fleet.config.budget_ms[2] = 1.0 / 3.0;
  std::ostringstream text;
  WriteServeFile(text, fleet);
  std::istringstream is(text.str());
  const util::Expected<FleetRequest> parsed = ParseServeFile(is);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  const FleetRequest& back = parsed.value();
  EXPECT_EQ(back.config.seed, kSeed);
  ASSERT_EQ(back.tenants.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.tenants[i].seed, kSeed + i);
    EXPECT_EQ(back.tenants[i].threshold, fleet.tenants[i].threshold);
  }
  EXPECT_EQ(back.config.budget_ms[2], fleet.config.budget_ms[2]);
}

// The duplicate check is one hash set, and still names the first repeat
// in tenant order.
TEST(ServeFormat, FirstDuplicateTenantInOrderIsReported) {
  FleetRequest fleet = SyntheticFleet(5, 4, 1);
  fleet.tenants[2].name = "t1";
  fleet.tenants[4].name = "t0";
  EXPECT_EQ(fleet.Validate().message(), "FleetRequest: duplicate tenant 't1'");
  fleet.tenants[2].name = "t2";
  EXPECT_EQ(fleet.Validate().message(), "FleetRequest: duplicate tenant 't0'");
  fleet.tenants[4].name = "t4";
  EXPECT_TRUE(fleet.Validate().ok());
}

TEST(ServeFormat, ParsesDirectivesAndTenantOptions) {
  std::istringstream is(
      "serve v1\n"
      "seed 77            # root of every substream\n"
      "shards 3\n"
      "shard_capacity 9\n"
      "share_cache 1\n"
      "batch 2\n"
      "defer_depth 5\n"
      "shed_depth 11\n"
      "recover_rounds 4\n"
      "budget latency_critical 12.5\n"
      "validate 1\n"
      "tenant cam SLA0 mpeg 30 seed=4 arrival=2 threshold=0.5"
      " window=10 policy=proportional\n"
      "end\n");
  util::Expected<FleetRequest> parsed = ParseServeFile(is);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  const FleetRequest& fleet = parsed.value();
  EXPECT_EQ(fleet.config.seed, 77u);
  EXPECT_EQ(fleet.config.cache_shards, 3u);
  EXPECT_EQ(fleet.config.shard_capacity, 9u);
  EXPECT_TRUE(fleet.config.share_cache);
  EXPECT_EQ(fleet.config.batch, 2u);
  EXPECT_EQ(fleet.config.defer_depth, 5u);
  EXPECT_EQ(fleet.config.shed_depth, 11u);
  EXPECT_EQ(fleet.config.recover_rounds, 4u);
  EXPECT_DOUBLE_EQ(fleet.config.budget_ms[0], 12.5);
  EXPECT_TRUE(fleet.config.validate);
  ASSERT_EQ(fleet.tenants.size(), 1u);
  const TenantRequest& tenant = fleet.tenants[0];
  EXPECT_EQ(tenant.name, "cam");
  EXPECT_EQ(tenant.sla, SlaClass::kLatencyCritical);
  EXPECT_EQ(tenant.workload, apps::TenantWorkload::kMpeg);
  EXPECT_EQ(tenant.instances, 30u);
  EXPECT_EQ(tenant.seed, 4u);
  EXPECT_EQ(tenant.arrival, 2u);
  EXPECT_DOUBLE_EQ(tenant.threshold, 0.5);
  EXPECT_EQ(tenant.window, 10u);
  EXPECT_EQ(tenant.policy, "proportional");
}

TEST(ServeFormat, DiagnosticsCarryLineNumbers) {
  std::istringstream is(
      "serve v1\n"
      "# a comment line\n"
      "batch nope\n"
      "end\n");
  util::Expected<FleetRequest> parsed = ParseServeFile(is);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message().find("serve line 3:"),
            std::string::npos)
      << parsed.error().message();
}

// Malformed corpus (corpus_file.h): every tests/corpus/serve file must
// be rejected with the diagnostic pinned in its first line.

TEST(ServeMalformedCorpus, EveryFileIsRejectedWithItsPinnedDiagnostic) {
  const std::vector<corpus::Case> cases = corpus::Load("serve");
  ASSERT_GE(cases.size(), 8u) << "corpus went missing";
  for (const corpus::Case& c : cases) {
    SCOPED_TRACE(c.name());
    ASSERT_FALSE(c.expect.empty())
        << "corpus file lacks a '# expect: <substring>' first line";
    std::istringstream in(c.contents);
    const util::Error error = ParseServeFile(in).error();
    EXPECT_FALSE(error.ok()) << "malformed input parsed successfully";
    EXPECT_NE(error.message().find(c.expect), std::string::npos)
        << "diagnostic was: " << error.message();
  }
}

// ------------------------------------------------------------ Session

TenantRequest SmallTenant(std::size_t instances = 4) {
  TenantRequest request;
  request.name = "t";
  request.workload = apps::TenantWorkload::kRandomFlat;
  request.instances = instances;
  request.seed = 3;
  request.window = 5;
  return request;
}

Session MakeSession(std::size_t instances = 4) {
  return Session(SmallTenant(instances), SessionOptions{},
                 util::Random(11).Fork(0));
}

TEST(Session, EventApiRejectsOutOfOrderEvents) {
  Session session = MakeSession();
  // Before NewApp only NewApp is legal.
  EXPECT_THROW(session.NewInstance(), InvalidArgument);
  EXPECT_THROW(session.InstanceComplete(), InvalidArgument);
  EXPECT_THROW(session.PeriodicCheck(), InvalidArgument);
  EXPECT_THROW(session.model(), InvalidArgument);

  session.NewApp();
  EXPECT_THROW(session.NewApp(), InvalidArgument);  // double NewApp
  EXPECT_THROW(session.InstanceComplete(), InvalidArgument);

  session.NewInstance();
  // A pending result blocks another NewInstance and Shutdown.
  EXPECT_THROW(session.NewInstance(), InvalidArgument);
  EXPECT_THROW(session.Shutdown(), InvalidArgument);
  session.InstanceComplete();

  session.Shutdown();
  EXPECT_THROW(session.NewInstance(), InvalidArgument);
  EXPECT_THROW(session.PeriodicCheck(), InvalidArgument);
  EXPECT_THROW(session.Shutdown(), InvalidArgument);
}

TEST(Session, RunsToCompletionAndAggregates) {
  Session session = MakeSession(4);
  session.NewApp();
  EXPECT_EQ(session.state(), SessionState::kActive);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(session.remaining(), 4 - i);
    const sim::InstanceResult& produced = session.NewInstance();
    const sim::InstanceResult consumed = session.InstanceComplete();
    EXPECT_DOUBLE_EQ(produced.energy_mj, consumed.energy_mj);
  }
  EXPECT_EQ(session.state(), SessionState::kDone);
  EXPECT_EQ(session.summary().instances, 4u);
  EXPECT_EQ(session.remaining(), 0u);
  // Exhausted: the next NewInstance is an ordering violation.
  EXPECT_THROW(session.NewInstance(), InvalidArgument);

  const SessionStatus status = session.PeriodicCheck();
  EXPECT_EQ(status.completed, 4u);
  EXPECT_EQ(status.remaining, 0u);
  session.Shutdown();
}

// A session that ends, by Shutdown or by Quarantine, keeps its result:
// the schedule in force, the counters and the trace read as before, and
// the oracle still replays them.
TEST(Session, EndingKeepsTheScheduleInForce) {
  for (const bool quarantine : {false, true}) {
    SCOPED_TRACE(quarantine ? "quarantine" : "shutdown");
    Session session = MakeSession(40);
    session.NewApp();
    while (session.remaining() > 0) {
      session.NewInstance();
      session.InstanceComplete();
    }
    const adaptive::AdaptiveController& controller = session.controller();
    ASSERT_GT(controller.reschedule_count(), 0u);
    const sched::Schedule before = controller.current_schedule();
    const std::size_t reschedules = controller.reschedule_count();
    const std::uint64_t requests =
        controller.rescheduler().tier_counts().total();

    if (quarantine) {
      session.Quarantine();
    } else {
      session.Shutdown();
    }
    const sched::Schedule& after = session.controller().current_schedule();
    for (TaskId task : session.model().graph().TaskIds()) {
      const sched::TaskPlacement& a = before.placement(task);
      const sched::TaskPlacement& b = after.placement(task);
      EXPECT_EQ(a.pe, b.pe);
      EXPECT_EQ(a.order_index, b.order_index);
      EXPECT_EQ(a.speed_ratio, b.speed_ratio);
      EXPECT_EQ(a.start_ms, b.start_ms);
      EXPECT_EQ(a.finish_ms, b.finish_ms);
    }
    EXPECT_EQ(session.controller().reschedule_count(), reschedules);
    EXPECT_EQ(session.controller().rescheduler().tier_counts().total(),
              requests);
    EXPECT_EQ(session.summary().instances, 40u);
    check::Validate(after);
    const sim::InstanceResult replay =
        sim::ExecuteInstance(after, session.assignment(39));
    check::ValidateInstance(after, session.assignment(39), replay);
  }
}

TEST(Session, IdenticalInputsReproduceIdenticalSummaries) {
  Session a = MakeSession(6);
  Session b = MakeSession(6);
  a.NewApp();
  b.NewApp();
  for (std::size_t i = 0; i < 6; ++i) {
    a.NewInstance();
    a.InstanceComplete();
    b.NewInstance();
    b.InstanceComplete();
  }
  EXPECT_DOUBLE_EQ(a.summary().total_energy_mj,
                   b.summary().total_energy_mj);
  EXPECT_EQ(a.summary().deadline_misses, b.summary().deadline_misses);
  EXPECT_DOUBLE_EQ(a.summary().max_makespan_ms,
                   b.summary().max_makespan_ms);
}

// ---------------------------------------------------------- Admission

ServeConfig TightConfig() {
  ServeConfig config;
  config.defer_depth = 4;
  config.shed_depth = 8;
  config.recover_rounds = 2;
  return config;
}

TEST(Admission, LadderEscalatesAndRecoversWithHysteresis) {
  AdmissionController admission(TightConfig());
  EXPECT_EQ(admission.level(), AdmissionLevel::kOpen);

  admission.Update(0, 5);  // > defer_depth
  EXPECT_EQ(admission.level(), AdmissionLevel::kDefer);
  admission.Update(1, 9);  // > shed_depth
  EXPECT_EQ(admission.level(), AdmissionLevel::kShed);

  // One calm round is not enough (recover_rounds = 2) ...
  admission.Update(2, 3);
  EXPECT_EQ(admission.level(), AdmissionLevel::kShed);
  // ... two are, and recovery steps one rung at a time.
  admission.Update(3, 3);
  EXPECT_EQ(admission.level(), AdmissionLevel::kDefer);
  admission.Update(4, 3);
  admission.Update(5, 3);
  EXPECT_EQ(admission.level(), AdmissionLevel::kOpen);

  // The transition log captured every change in order.
  ASSERT_EQ(admission.log().size(), 4u);
  EXPECT_EQ(admission.log()[0].level, AdmissionLevel::kDefer);
  EXPECT_EQ(admission.log()[1].level, AdmissionLevel::kShed);
  EXPECT_EQ(admission.log()[2].level, AdmissionLevel::kDefer);
  EXPECT_EQ(admission.log()[3].level, AdmissionLevel::kOpen);
  EXPECT_GT(admission.deferred_rounds(), 0u);
}

TEST(Admission, OnlyBackgroundIsEverSacrificed) {
  AdmissionController admission(TightConfig());
  admission.Update(0, 100);  // straight to shed
  ASSERT_EQ(admission.level(), AdmissionLevel::kShed);

  EXPECT_TRUE(admission.Admit(SlaClass::kLatencyCritical));
  EXPECT_TRUE(admission.Admit(SlaClass::kThroughput));
  EXPECT_FALSE(admission.Admit(SlaClass::kBackground));
  EXPECT_EQ(admission.shed_count(), 1u);

  EXPECT_TRUE(admission.DispatchAllowed(SlaClass::kLatencyCritical));
  EXPECT_TRUE(admission.DispatchAllowed(SlaClass::kThroughput));
  EXPECT_FALSE(admission.DispatchAllowed(SlaClass::kBackground));
}

// ------------------------------------------------------------- Server

std::string ReportText(const FleetReport& report) {
  std::ostringstream os;
  report.Write(os);
  return os.str();
}

TEST(Server, FleetReportByteIdenticalAcrossJobCounts) {
  std::string golden;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    ServerOptions options;
    options.jobs = jobs;
    Server server(SyntheticFleet(16, 6, 5), options);
    const std::string text = ReportText(server.Run());
    if (golden.empty()) {
      golden = text;
    } else {
      EXPECT_EQ(golden, text) << "fleet report depends on --jobs";
    }
  }
  EXPECT_NE(golden.find("== serve fleet report =="), std::string::npos);
}

TEST(Server, CommittedSmokeFleetReplaysDeterministically) {
  const std::filesystem::path path =
      std::filesystem::path(ACTG_TEST_DATA_DIR) / "serve_smoke3.serve";
  std::string golden;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::ifstream is(path);
    ASSERT_TRUE(is) << path;
    std::ostringstream report;
    auto server = RunServeFile(is, jobs, report);
    ASSERT_TRUE(server.ok()) << server.error().message();
    if (golden.empty()) {
      golden = report.str();
    } else {
      EXPECT_EQ(golden, report.str());
    }
    // The smoke fleet is tuned to walk the whole admission ladder.
    EXPECT_GT(server.value()->report().deferred_rounds, 0u);
    for (const TenantReport& row : server.value()->report().tenants) {
      EXPECT_EQ(row.completed, row.requested);
    }
  }
}

// The committed 104-tenant fleet CI also replays through actg_serve:
// its report pinned byte for byte at two --jobs values (tests/golden;
// ACTG_REGOLDEN=1 regenerates it).
TEST(ServeGolden, CommittedFleet100ReportMatchesGolden) {
  const std::filesystem::path path =
      std::filesystem::path(ACTG_TEST_DATA_DIR) / "serve_fleet100.serve";
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    std::ifstream is(path);
    ASSERT_TRUE(is) << path;
    std::ostringstream report;
    auto server = RunServeFile(is, jobs, report);
    ASSERT_TRUE(server.ok()) << server.error().message();
    EXPECT_NE(report.str().find("tenants 104 "), std::string::npos);
    actg::golden::ExpectMatches(report.str(), "serve_fleet100.report");
  }
}

TEST(Server, ShedsBackgroundWhileLatencyCriticalStaysAtBaseline) {
  // Baseline: the latency-critical tenant alone.
  TenantRequest lc;
  lc.name = "lc";
  lc.sla = SlaClass::kLatencyCritical;
  lc.workload = apps::TenantWorkload::kMpeg;
  lc.instances = 40;
  lc.seed = 2;
  lc.window = 10;

  FleetRequest baseline;
  baseline.config.seed = 5;
  baseline.tenants.push_back(lc);
  Server baseline_server(baseline, ServerOptions{});
  const TenantReport baseline_row = baseline_server.Run().tenants[0];

  // Overload: same tenant at the same index plus background tenants
  // arriving after the backlog has already blown past shed_depth.
  FleetRequest overload;
  overload.config.seed = 5;
  overload.config.defer_depth = 4;
  overload.config.shed_depth = 8;
  overload.tenants.push_back(lc);
  for (int i = 0; i < 4; ++i) {
    TenantRequest bg;
    bg.name = "bg" + std::to_string(i);
    bg.sla = SlaClass::kBackground;
    bg.workload = apps::TenantWorkload::kRandomFlat;
    bg.instances = 6;
    bg.seed = 100 + static_cast<std::uint64_t>(i);
    bg.arrival = 1;
    overload.tenants.push_back(bg);
  }
  ServerOptions options;
  options.jobs = 4;
  Server overloaded(overload, options);
  const FleetReport& report = overloaded.Run();

  // Background load was demonstrably shed ...
  EXPECT_GT(report.shed_tenants, 0u);
  EXPECT_EQ(report.shed_tenants,
            report.sla[static_cast<std::size_t>(SlaClass::kBackground)]
                .shed_tenants);
  bool any_shed_row = false;
  for (const TenantReport& row : report.tenants) {
    if (row.shed) {
      any_shed_row = true;
      EXPECT_EQ(row.sla, SlaClass::kBackground);
      EXPECT_EQ(row.completed, 0u);
    }
  }
  EXPECT_TRUE(any_shed_row);

  // ... while the latency-critical tenant reproduced its single-tenant
  // baseline bit for bit (same substream, isolated session state).
  const TenantReport& lc_row = report.tenants[0];
  EXPECT_EQ(lc_row.deadline_misses, baseline_row.deadline_misses);
  EXPECT_DOUBLE_EQ(lc_row.energy_mj, baseline_row.energy_mj);
  EXPECT_DOUBLE_EQ(lc_row.max_makespan_ms, baseline_row.max_makespan_ms);
  EXPECT_EQ(lc_row.reschedules, baseline_row.reschedules);
  EXPECT_EQ(lc_row.completed, baseline_row.completed);
}

TEST(Server, ShareCacheModeHitsAcrossIdenticalTenants) {
  auto make_fleet = [](bool share) {
    FleetRequest fleet;
    fleet.config.seed = 3;
    fleet.config.share_cache = share;
    for (int i = 0; i < 2; ++i) {
      TenantRequest tenant;
      tenant.name = "m" + std::to_string(i);
      tenant.workload = apps::TenantWorkload::kMpeg;
      tenant.instances = 3;
      tenant.seed = 1;  // identical models -> identical cache keys
      fleet.tenants.push_back(tenant);
    }
    return fleet;
  };

  Server shared(make_fleet(true), ServerOptions{});
  shared.Run();
  EXPECT_GT(shared.cache().hits(), 0u)
      << "share_cache tenants with identical models should hit";

  Server partitioned(make_fleet(false), ServerOptions{});
  partitioned.Run();
  EXPECT_EQ(partitioned.cache().hits(), 0u)
      << "tenant-partitioned keys must never alias";
}

TEST(Server, MetricsCountersMatchDeterministicReport) {
  ServerOptions options;
  options.jobs = 2;
  Server server(SyntheticFleet(8, 4, 7), options);
  const FleetReport& report = server.Run();
  for (std::size_t cls = 0; cls < kSlaClassCount; ++cls) {
    const std::string label(SlaLabel(static_cast<SlaClass>(cls)));
    EXPECT_EQ(server.metrics().counter("serve." + label + ".instances"),
              report.sla[cls].instances);
    EXPECT_EQ(
        server.metrics().counter("serve." + label + ".deadline_misses"),
        report.sla[cls].deadline_misses);
  }
  // Every dispatched slice produced one latency sample per class.
  std::size_t slices = 0;
  for (std::size_t cls = 0; cls < kSlaClassCount; ++cls) {
    const auto sla = static_cast<SlaClass>(cls);
    slices += server.Latency(sla).samples;
    EXPECT_EQ(server.metrics().samples(
                  "serve." + std::string(SlaLabel(sla)) +
                  ".slice_latency_ms"),
              server.Latency(sla).samples);
  }
  EXPECT_GT(slices, 0u);
}

TEST(Server, RunIsValidOnce) {
  Server server(SyntheticFleet(4, 2, 1), ServerOptions{});
  server.Run();
  EXPECT_THROW(server.Run(), InvalidArgument);
}

// ----------------------------------------------------------- Watchdog

// The watchdog is wall-clock, so WHERE it fires is not deterministic in
// general; the two end states below are. A denormal-small deadline has
// already passed at the first cooperative check (NewApp), so every
// dispatched session quarantines before completing any work.
TEST(Server, TightWatchdogQuarantinesEveryTenantAndStillTerminates) {
  ServerOptions options;
  options.session_deadline_ms = std::numeric_limits<double>::min();
  Server server(SyntheticFleet(8, 4, 3), options);
  const FleetReport& report = server.Run();

  EXPECT_EQ(report.quarantined_tenants, report.tenants.size());
  for (const TenantReport& row : report.tenants) {
    EXPECT_TRUE(row.quarantined);
    EXPECT_EQ(row.completed, 0u);
    EXPECT_EQ(row.reschedules, 0u);  // deadlined before the app built
  }
  const std::string text = ReportText(report);
  EXPECT_NE(text.find(" quarantined 8"), std::string::npos);
  EXPECT_NE(text.find(" quarantined\n"), std::string::npos);
}

// A generous deadline never fires, so the armed run's report must be
// byte-identical to the unarmed golden — arming the watchdog costs
// nothing when sessions behave.
TEST(Server, GenerousWatchdogLeavesTheReportByteIdentical) {
  Server unarmed(SyntheticFleet(8, 4, 3), ServerOptions{});
  const std::string golden = ReportText(unarmed.Run());
  EXPECT_EQ(golden.find("quarantined"), std::string::npos);

  ServerOptions options;
  options.session_deadline_ms = 1e12;
  Server armed(SyntheticFleet(8, 4, 3), options);
  EXPECT_EQ(golden, ReportText(armed.Run()));
}

// Quarantine is terminal on the session itself: no further events, no
// shutdown, no resurrection.
TEST(Session, QuarantineIsTerminal) {
  Session session = MakeSession();
  session.Quarantine();
  EXPECT_EQ(session.state(), SessionState::kQuarantined);
  EXPECT_THROW(session.NewApp(), InvalidArgument);
  EXPECT_THROW(session.Shutdown(), InvalidArgument);
  EXPECT_THROW(session.Quarantine(), InvalidArgument);
}

}  // namespace
}  // namespace actg::serve
