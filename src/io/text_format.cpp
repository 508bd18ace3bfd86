#include "io/text_format.h"

#include <iomanip>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/error.h"

namespace actg::io {

namespace {

bool HasWhitespace(const std::string& s) {
  return s.find_first_of(" \t\r\n") != std::string::npos;
}

/// \p token as an index below \p count.
template <typename Id>
Id Index(const util::LineReader& reader, const std::string& token,
         int count, const char* what) {
  const int index = reader.Int(token);
  if (index < 0 || index >= count) {
    reader.Fail(std::string(what) + " index out of range: " + token);
  }
  return Id{index};
}

}  // namespace

void WriteCtg(std::ostream& os, const ctg::Ctg& graph) {
  // Full round-trip precision for every numeric field.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "ctg v1\n";
  if (graph.deadline_ms() > 0.0) {
    os << "deadline " << graph.deadline_ms() << "\n";
  }
  for (TaskId t : graph.TaskIds()) {
    const ctg::Task& task = graph.task(t);
    ACTG_CHECK(!task.name.empty() && !HasWhitespace(task.name),
               "Task names must be non-empty and whitespace-free");
    os << "task " << task.name << ' '
       << (task.join == ctg::JoinType::kOr ? "or" : "and") << "\n";
  }
  for (EdgeId eid : graph.EdgeIds()) {
    const ctg::Edge& e = graph.edge(eid);
    os << "edge " << e.src.value << ' ' << e.dst.value << ' '
       << e.comm_kbytes << ' ';
    if (e.condition.has_value()) {
      os << e.condition->outcome;
    } else {
      os << '-';
    }
    os << "\n";
  }
  for (TaskId fork : graph.ForkIds()) {
    const ctg::ForkInfo& info = graph.Fork(fork);
    if (info.outcome_labels.empty()) continue;
    os << "labels " << fork.value;
    for (const std::string& label : info.outcome_labels) {
      ACTG_CHECK(!label.empty() && !HasWhitespace(label),
                 "Outcome labels must be non-empty and whitespace-free");
      os << ' ' << label;
    }
    os << "\n";
  }
  os << "end\n";
}

ctg::Ctg ReadCtg(util::LineReader& reader) {
  reader.ExpectHeader("ctg v1");
  ctg::CtgBuilder builder;
  int task_count = 0;
  double deadline = 0.0;
  std::unordered_set<std::string> task_names;
  const auto task_id = [&](const std::string& token) {
    return Index<TaskId>(reader, token, task_count, "task");
  };

  while (reader.NextBeforeEnd()) {
    const std::string& directive = reader.directive();
    if (directive == "deadline") {
      deadline = reader.Number(reader.Operand("one value"));
      if (deadline <= 0.0) reader.Fail("deadline must be positive");
    } else if (directive == "task") {
      reader.Operands(2, "<name> <and|or>");
      if (!task_names.insert(reader[1]).second) {
        reader.Fail("duplicate task name '" + reader[1] + "'");
      }
      if (reader[2] == "or") {
        builder.AddOrTask(reader[1]);
      } else if (reader[2] == "and") {
        builder.AddTask(reader[1]);
      } else {
        reader.Fail("task kind must be 'and' or 'or'");
      }
      ++task_count;
    } else if (directive == "edge") {
      reader.Operands(4, "<src> <dst> <comm_kb> <outcome|->");
      const TaskId src = task_id(reader[1]);
      const TaskId dst = task_id(reader[2]);
      const double comm = reader.Number(reader[3]);
      if (reader[4] == "-") {
        builder.AddEdge(src, dst, comm);
      } else {
        builder.AddConditionalEdge(src, dst, reader.Int(reader[4]), comm);
      }
    } else if (directive == "labels") {
      reader.Operands(3, util::LineReader::kAny,
                      "<fork> and >= 2 labels");
      const auto labels = reader.tokens().subspan(2);
      builder.SetOutcomeLabels(
          task_id(reader[1]),
          std::vector<std::string>(labels.begin(), labels.end()));
    } else {
      reader.UnknownDirective();
    }
  }
  ctg::Ctg graph = std::move(builder).Build();
  if (deadline > 0.0) graph.SetDeadline(deadline);
  return graph;
}

util::Expected<ctg::Ctg> ParseCtg(std::istream& is) {
  return util::ParseLines(is, "text_format", ReadCtg);
}

void WritePlatform(std::ostream& os, const arch::Platform& platform) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "platform v1\n";
  os << "dims " << platform.task_count() << ' ' << platform.pe_count()
     << "\n";
  for (PeId pe : platform.PeIds()) {
    const arch::PeInfo& info = platform.pe(pe);
    ACTG_CHECK(!info.name.empty() && !HasWhitespace(info.name),
               "PE names must be non-empty and whitespace-free");
    os << "pe " << pe.value << ' ' << info.name << ' '
       << info.min_speed_ratio << "\n";
    if (!info.speed_levels.empty()) {
      os << "levels " << pe.value;
      for (double level : info.speed_levels) os << ' ' << level;
      os << "\n";
    }
  }
  for (std::size_t t = 0; t < platform.task_count(); ++t) {
    for (PeId pe : platform.PeIds()) {
      const TaskId task{static_cast<int>(t)};
      os << "cost " << t << ' ' << pe.value << ' '
         << platform.Wcet(task, pe) << ' ' << platform.Energy(task, pe)
         << "\n";
    }
  }
  for (PeId a : platform.PeIds()) {
    for (PeId b : platform.PeIds()) {
      if (a.value >= b.value) continue;
      os << "link " << a.value << ' ' << b.value << ' '
         << platform.Bandwidth(a, b) << ' ' << platform.TxEnergyPerKb(a, b)
         << "\n";
    }
  }
  os << "end\n";
}

arch::Platform ReadPlatform(util::LineReader& reader) {
  reader.ExpectHeader("platform v1");
  if (!reader.Next() || reader.size() != 3 || reader.directive() != "dims") {
    reader.Fail("expected 'dims <tasks> <pes>'");
  }
  const int task_count = reader.Int(reader[1]);
  const int pe_count = reader.Int(reader[2]);
  if (task_count <= 0 || pe_count <= 0) {
    reader.Fail("dims must be positive");
  }
  arch::PlatformBuilder builder(static_cast<std::size_t>(task_count),
                                static_cast<std::size_t>(pe_count));
  const auto pe_id = [&](const std::string& token) {
    return Index<PeId>(reader, token, pe_count, "PE");
  };
  const auto task_id = [&](const std::string& token) {
    return Index<TaskId>(reader, token, task_count, "task");
  };

  while (reader.NextBeforeEnd()) {
    const std::string& directive = reader.directive();
    if (directive == "pe") {
      reader.Operands(3, "<index> <name> <min_speed_ratio>");
      const PeId pe = pe_id(reader[1]);
      builder.SetPeName(pe, reader[2]);
      builder.SetMinSpeedRatio(pe, reader.Number(reader[3]));
    } else if (directive == "levels") {
      reader.Operands(2, util::LineReader::kAny, "<pe> <ratios...>");
      std::vector<double> levels;
      for (const std::string& token : reader.tokens().subspan(2)) {
        levels.push_back(reader.Number(token));
      }
      builder.SetSpeedLevels(pe_id(reader[1]), std::move(levels));
    } else if (directive == "cost") {
      reader.Operands(4, "<task> <pe> <wcet> <energy>");
      builder.SetTaskCost(task_id(reader[1]), pe_id(reader[2]),
                          reader.Number(reader[3]),
                          reader.Number(reader[4]));
    } else if (directive == "link") {
      reader.Operands(4, "<a> <b> <bandwidth> <tx_energy>");
      builder.SetLink(pe_id(reader[1]), pe_id(reader[2]),
                      reader.Number(reader[3]), reader.Number(reader[4]));
    } else {
      reader.UnknownDirective();
    }
  }
  return std::move(builder).Build();
}

util::Expected<arch::Platform> ParsePlatform(std::istream& is) {
  return util::ParseLines(is, "text_format", ReadPlatform);
}

}  // namespace actg::io
