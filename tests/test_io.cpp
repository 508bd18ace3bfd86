#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cruise.h"
#include "apps/fig1_example.h"
#include "apps/mpeg.h"
#include "corpus_file.h"
#include "ctg/activation.h"
#include "io/text_format.h"
#include "tgff/random_ctg.h"
#include "util/error.h"

namespace actg::io {
namespace {

void ExpectGraphsEqual(const ctg::Ctg& a, const ctg::Ctg& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_DOUBLE_EQ(a.deadline_ms(), b.deadline_ms());
  for (TaskId t : a.TaskIds()) {
    EXPECT_EQ(a.task(t).name, b.task(t).name);
    EXPECT_EQ(a.task(t).join, b.task(t).join);
  }
  for (EdgeId e : a.EdgeIds()) {
    EXPECT_EQ(a.edge(e).src, b.edge(e).src);
    EXPECT_EQ(a.edge(e).dst, b.edge(e).dst);
    EXPECT_DOUBLE_EQ(a.edge(e).comm_kbytes, b.edge(e).comm_kbytes);
    EXPECT_EQ(a.edge(e).condition.has_value(),
              b.edge(e).condition.has_value());
    if (a.edge(e).condition.has_value()) {
      EXPECT_EQ(a.edge(e).condition->outcome,
                b.edge(e).condition->outcome);
    }
  }
  ASSERT_EQ(a.ForkIds(), b.ForkIds());
  for (TaskId fork : a.ForkIds()) {
    EXPECT_EQ(a.OutcomeCount(fork), b.OutcomeCount(fork));
    for (int o = 0; o < a.OutcomeCount(fork); ++o) {
      EXPECT_EQ(a.OutcomeLabel(fork, o), b.OutcomeLabel(fork, o));
    }
  }
}

void ExpectPlatformsEqual(const arch::Platform& a,
                          const arch::Platform& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.pe_count(), b.pe_count());
  for (PeId pe : a.PeIds()) {
    EXPECT_EQ(a.pe(pe).name, b.pe(pe).name);
    EXPECT_DOUBLE_EQ(a.pe(pe).min_speed_ratio, b.pe(pe).min_speed_ratio);
    EXPECT_EQ(a.pe(pe).speed_levels, b.pe(pe).speed_levels);
    for (PeId other : a.PeIds()) {
      if (pe == other) continue;
      EXPECT_DOUBLE_EQ(a.Bandwidth(pe, other), b.Bandwidth(pe, other));
      EXPECT_DOUBLE_EQ(a.TxEnergyPerKb(pe, other),
                       b.TxEnergyPerKb(pe, other));
    }
  }
  for (std::size_t t = 0; t < a.task_count(); ++t) {
    for (PeId pe : a.PeIds()) {
      const TaskId task{static_cast<int>(t)};
      EXPECT_DOUBLE_EQ(a.Wcet(task, pe), b.Wcet(task, pe));
      EXPECT_DOUBLE_EQ(a.Energy(task, pe), b.Energy(task, pe));
    }
  }
}

TEST(CtgRoundTrip, Fig1Example) {
  const apps::Fig1Example ex = apps::MakeFig1Example();
  std::stringstream buffer;
  WriteCtg(buffer, ex.graph);
  const ctg::Ctg parsed = ParseCtg(buffer).value();
  ExpectGraphsEqual(ex.graph, parsed);
  // The round-tripped graph supports the same analysis.
  const ctg::ActivationAnalysis analysis(parsed);
  EXPECT_TRUE(analysis.MutuallyExclusive(TaskId{3}, TaskId{4}));
}

TEST(CtgRoundTrip, MpegAndCruise) {
  for (int which = 0; which < 2; ++which) {
    ctg::Ctg original = which == 0 ? apps::MakeMpegModel().graph
                                   : apps::MakeCruiseModel().graph;
    std::stringstream buffer;
    WriteCtg(buffer, original);
    ExpectGraphsEqual(original, ParseCtg(buffer).value());
  }
}

TEST(CtgRoundTrip, RandomGraphSweep) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    tgff::RandomCtgParams params;
    params.task_count = 20;
    params.fork_count = 2;
    params.seed = seed;
    const tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
    std::stringstream buffer;
    WriteCtg(buffer, rc.graph);
    ExpectGraphsEqual(rc.graph, ParseCtg(buffer).value());
  }
}

TEST(PlatformRoundTrip, MpegPlatformWithLevels) {
  const apps::MpegModel model = apps::MakeMpegModel();
  std::stringstream buffer;
  WritePlatform(buffer, model.platform);
  ExpectPlatformsEqual(model.platform,
                       ParsePlatform(buffer).value());
}

TEST(PlatformRoundTrip, DiscreteLevelsSurvive) {
  arch::PlatformBuilder builder(2, 2);
  builder.SetTaskCost(TaskId{0}, PeId{0}, 1.5, 2.0);
  builder.SetTaskCost(TaskId{0}, PeId{1}, 2.5, 1.0);
  builder.SetTaskCost(TaskId{1}, PeId{0}, 3.0, 4.0);
  builder.SetTaskCost(TaskId{1}, PeId{1}, 1.0, 0.5);
  builder.SetSpeedLevels(PeId{0}, {0.25, 0.5, 1.0});
  builder.SetLink(PeId{0}, PeId{1}, 12.5, 0.125);
  const arch::Platform original = std::move(builder).Build();
  std::stringstream buffer;
  WritePlatform(buffer, original);
  ExpectPlatformsEqual(original, ParsePlatform(buffer).value());
}

TEST(Parsing, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer(R"(# a comment
ctg v1

task a and   # trailing comment
task b or
edge 0 1 4.5 -
end
)");
  const ctg::Ctg graph = ParseCtg(buffer).value();
  EXPECT_EQ(graph.task_count(), 2u);
  EXPECT_EQ(graph.task(TaskId{1}).join, ctg::JoinType::kOr);
  EXPECT_DOUBLE_EQ(graph.edge(EdgeId{0}).comm_kbytes, 4.5);
}

TEST(Parsing, ErrorsCarryLineNumbers) {
  std::stringstream buffer("ctg v1\ntask a and\nedge 0 9 1.0 -\nend\n");
  try {
    ParseCtg(buffer).value();
    FAIL() << "expected a throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Parsing, RejectsMalformedInput) {
  const char* cases[] = {
      "nonsense\n",
      "ctg v2\nend\n",
      "ctg v1\ntask a maybe\nend\n",
      "ctg v1\ntask a and\nedge 0 0 1.0 -\nend\n",   // self loop
      "ctg v1\ntask a and\nedge zero 0 1.0 -\nend\n",
      "ctg v1\ntask a and\n",                        // missing end
      "ctg v1\ndeadline -5\ntask a and\nend\n",
  };
  for (const char* text : cases) {
    std::stringstream buffer(text);
    EXPECT_THROW(ParseCtg(buffer).value(), InvalidArgument) << text;
  }
}

TEST(Parsing, RejectsMalformedPlatform) {
  const char* cases[] = {
      "platform v1\nend\n",                      // missing dims
      "platform v1\ndims 0 1\nend\n",
      "platform v1\ndims 1 1\ncost 0 0 1.0 1.0\n",  // missing end
      "platform v1\ndims 1 1\ncost 0 5 1.0 1.0\nend\n",
      "platform v1\ndims 1 1\nend\n",            // missing cost
  };
  for (const char* text : cases) {
    std::stringstream buffer(text);
    EXPECT_THROW(ParsePlatform(buffer).value(), InvalidArgument) << text;
  }
}

TEST(ExpectedParsing, ParseCtgReportsErrorsAsValues) {
  std::istringstream bad("ctg 2 1\nthis is not a line\n");
  const util::Expected<ctg::Ctg> result = ParseCtg(bad);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error().message().empty());
  EXPECT_THROW(result.value(), InvalidArgument);
}

TEST(ExpectedParsing, ParsePlatformReportsErrorsAsValues) {
  std::istringstream bad("platform -3\n");
  const util::Expected<arch::Platform> result = ParsePlatform(bad);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error().message().empty());
}

TEST(ExpectedParsing, ParseIsDeterministic) {
  const apps::Fig1Example ex = apps::MakeFig1Example();
  std::ostringstream out;
  WriteCtg(out, ex.graph);
  std::istringstream first_in(out.str());
  std::istringstream second_in(out.str());
  const util::Expected<ctg::Ctg> parsed = ParseCtg(first_in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.error().ok());
  ExpectGraphsEqual(parsed.value(), ParseCtg(second_in).value());
}

// ---------------------------------------------------------------------
// Malformed-input corpus (corpus_file.h). Files named ctg_* go through
// ParseCtg, platform_* through ParsePlatform.

TEST(MalformedCorpus, EveryFileIsRejectedWithItsPinnedDiagnostic) {
  const std::vector<corpus::Case> cases = corpus::Load("io");
  ASSERT_GE(cases.size(), 10u) << "corpus went missing";
  for (const corpus::Case& c : cases) {
    SCOPED_TRACE(c.name());
    ASSERT_FALSE(c.expect.empty())
        << "corpus file lacks a '# expect: <substring>' first line";
    const std::string name = c.name();
    std::istringstream in(c.contents);
    util::Error error;
    if (name.rfind("ctg_", 0) == 0) {
      error = ParseCtg(in).error();
    } else if (name.rfind("platform_", 0) == 0) {
      error = ParsePlatform(in).error();
    } else {
      FAIL() << "corpus files must be named ctg_* or platform_*";
    }
    EXPECT_FALSE(error.ok()) << "malformed input parsed successfully";
    EXPECT_NE(error.message().find(c.expect), std::string::npos)
        << "diagnostic was: " << error.message();
  }
}

TEST(MalformedCorpus, DuplicateTaskNamesAreRejected) {
  std::istringstream in(
      "ctg v1\ntask a and\ntask b and\ntask a or\nend\n");
  const util::Error error = ParseCtg(in).error();
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.message().find("duplicate task name 'a'"),
            std::string::npos)
      << error.message();
  EXPECT_NE(error.message().find("line 4"), std::string::npos)
      << error.message();
}

}  // namespace
}  // namespace actg::io
