// ilqbench — the repository's end-to-end benchmark.
//
//   ilqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//   ilqbench --selftest
//
// Prints the metrics (end-to-end with --trace 0, per layer with --trace 1)
// and, as the last line of standard output, one JSON object with the
// correctness verdict, the operations attempted and failed, and the
// metrics. Results and span dumps go under --out-dir (default .ilqbench).
// See ilqbench/README.md.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common.h"

namespace ilqbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ilqbench --workload serve_zipf_churn|mc_gaussian_batch|"
               "wire_sessions_paged --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n       ilqbench --selftest\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

// Results files: one "name value unit" line per end-to-end metric.
std::string ResultPath(const Args& args, uint64_t seed) {
  return args.out_dir + "/results/" + args.workload + "-seed" +
         std::to_string(seed) + "-untraced.txt";
}

void SaveUntraced(const Args& args, const Report& report) {
  if (!MakeDirs(args.out_dir + "/results")) return;
  std::ofstream out(ResultPath(args, args.seed));
  for (const Metric& m : report.metrics) {
    out << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  }
}

// The untraced result to compare a traced run against: the same seed when
// there is one, else the newest untraced result of the workload.
std::string FindUntraced(const Args& args) {
  const std::string same = ResultPath(args, args.seed);
  struct stat st{};
  if (stat(same.c_str(), &st) == 0) return same;
  const std::string dir = args.out_dir + "/results";
  const std::string prefix = args.workload + "-seed";
  std::string best;
  time_t best_time = 0;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name.rfind(prefix, 0) != 0 ||
          name.find("-untraced.txt") == std::string::npos) {
        continue;
      }
      const std::string path = dir + "/" + name;
      if (stat(path.c_str(), &st) == 0 && st.st_mtime >= best_time) {
        best_time = st.st_mtime;
        best = path;
      }
    }
    closedir(d);
  }
  return best;
}

bool HigherIsBetter(const std::string& name) {
  return name.find("qps") != std::string::npos ||
         name.find("per_s") != std::string::npos;
}

// Prints how much slower the traced run's own end-to-end figures are than
// the untraced run's (positive = tracing costs).
void PrintOverhead(const Args& args, const Report& report) {
  const std::string path = FindUntraced(args);
  if (path.empty()) {
    std::printf("trace overhead: no untraced result of %s under %s/results; "
                "run --trace 0 first\n",
                args.workload.c_str(), args.out_dir.c_str());
    return;
  }
  std::map<std::string, double> base;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, unit;
    double value = 0;
    if (fields >> name >> value >> unit) base[name] = value;
  }
  std::printf("trace overhead vs %s:\n", path.c_str());
  for (const Metric& m : report.shadow) {
    auto it = base.find(m.name);
    if (it == base.end() || it->second == 0 || m.value == 0 ||
        m.name == "setup_s" || m.name == "peak_rss_mb") {
      continue;
    }
    const double slowdown = HigherIsBetter(m.name) ? it->second / m.value - 1
                                                   : m.value / it->second - 1;
    std::printf("  trace_overhead.%s %+.2f%% (traced %.6g, untraced %.6g %s)\n",
                m.name.c_str(), 100.0 * slowdown, m.value, it->second,
                m.unit.c_str());
  }
}

}  // namespace
}  // namespace ilqbench

int main(int argc, char** argv) {
  using namespace ilqbench;
  const int64_t process_start = NowNs();
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return RunSelfTest();
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (!MakeDirs(args.out_dir)) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 1;
  }
  Tracer tracer(args.trace);
  Report report;
  if (args.workload == "serve_zipf_churn") {
    report = RunServeZipfChurn(args, &tracer);
  } else if (args.workload == "mc_gaussian_batch") {
    report = RunMcGaussianBatch(args, &tracer);
  } else if (args.workload == "wire_sessions_paged") {
    report = RunWireSessionsPaged(args, &tracer);
  } else {
    return Usage();
  }

  for (const std::string& e : report.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("verified %llu requests against the references: %s\n",
              static_cast<unsigned long long>(report.checked),
              report.correct ? "all correct" : "FAILURES");
  if (report.above_one > 0) {
    std::printf("served probabilities above 1 (within 1e-9): %llu\n",
                static_cast<unsigned long long>(report.above_one));
  }
  for (const Metric& m : report.metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (args.trace) {
    const std::string spans = args.out_dir + "/spans";
    const std::string file = spans + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (MakeDirs(spans) && tracer.Write(file)) {
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  file.c_str());
    }
    PrintOverhead(args, report);
  } else {
    SaveUntraced(args, report);
  }
  std::printf("process wall time %.2f s\n",
              NsToMs(NowNs() - process_start) / 1e3);
  std::printf("%s\n", ReportJson(report).c_str());
  std::fflush(stdout);
  return 0;
}
