// actg_perfbench: the compiled half of the end-to-end benchmark.
// perfbench/run.py drives it, one process per repetition:
//
//   actg_perfbench spec  <workload> <seed> <out> [tiny]
//   actg_perfbench run   <workload> <spec>
//   actg_perfbench trace <workload> <spec> <trace-out>
//   actg_perfbench probe
//
// `spec` writes the workload's input file; `run` and `trace` read only
// that file. Each prints one JSON record as its last stdout line.

#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "measure.h"
#include "replay.h"
#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: actg_perfbench spec <workload> <seed> <out> [tiny]\n"
               "       actg_perfbench run <workload> <spec>\n"
               "       actg_perfbench trace <workload> <spec> <trace-out>\n"
               "       actg_perfbench probe\n";
  return 2;
}

int Main(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const std::string& cmd = args[0];
  if (cmd == "probe") return perfbench::RunProbe();
  if (args.size() < 3) return Usage();
  const perfbench::Workload* w = perfbench::FindWorkload(args[1]);
  if (w == nullptr) {
    std::cerr << "unknown workload " << args[1] << "\n";
    return 2;
  }
  if (cmd == "spec") {
    if (args.size() < 4) return Usage();
    const perfbench::Size size = args.size() > 4 && args[4] == "tiny"
                                     ? perfbench::Size::kTiny
                                     : perfbench::Size::kFull;
    std::ofstream out(args[3]);
    perfbench::WriteSpec(out, *w, std::stoull(args[2]), size);
    out.close();
    if (!out) {
      std::cerr << "cannot write " << args[3] << "\n";
      return 1;
    }
    return 0;
  }
  if (cmd == "run") {
    return perfbench::RunUntraced(*w, args[2]);
  }
  if (cmd == "trace" && args.size() == 4) {
    return perfbench::RunTraced(*w, args[2], args[3]);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << "actg_perfbench: " << e.what() << "\n";
    return 1;
  }
}
