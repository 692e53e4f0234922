// Shared pieces of the end-to-end benchmark: command-line arguments, the
// §6.1 catalog, clocks, quantiles, the metric report and its JSON line.

#ifndef ILQBENCH_COMMON_H_
#define ILQBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/batch.h"
#include "geometry/rect.h"
#include "object/point_object.h"
#include "object/uncertain_object.h"
#include "serve/sharded_engine.h"
#include "trace.h"

namespace ilqbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run outputs (results, span dumps, disk bundles), relative to the
  /// working directory.
  std::string out_dir = ".ilqbench";
};

/// §6.1 geometry shared by every workload.
inline constexpr double kSpace = 10000.0;
inline constexpr double kU = 250.0;  // issuer half side
inline constexpr double kW = 500.0;  // query half side
inline constexpr size_t kPaperPoints = 62000;
inline constexpr size_t kPaperRects = 53000;

/// The "California"-like points and "Long Beach"-like rectangles. The
/// catalog is the same for every seed (the paper's datasets are fixed);
/// the seed drives queries, updates and trajectories.
std::vector<ilq::PointObject> PaperPoints();
std::vector<ilq::Rect> PaperRects();

/// The four methods serve_zipf_churn and wire_sessions_paged cycle
/// through, request i running kCycledMethods[i % 4].
inline constexpr ilq::QueryMethod kCycledMethods[] = {
    ilq::QueryMethod::kIpq, ilq::QueryMethod::kIuq,
    ilq::QueryMethod::kCipqPExpanded, ilq::QueryMethod::kCiuqPti};

/// True for the threshold methods (C-IPQ, C-IUQ).
inline bool IsConstrained(ilq::QueryMethod m) {
  return m == ilq::QueryMethod::kCipqPExpanded ||
         m == ilq::QueryMethod::kCipqMinkowski ||
         m == ilq::QueryMethod::kCiuqRTree || m == ilq::QueryMethod::kCiuqPti;
}

/// The square query of half side kW, with threshold \p qp for the
/// threshold methods and 0 for the others.
inline ilq::BatchSpec SpecFor(ilq::QueryMethod m, double qp) {
  return ilq::BatchSpec(ilq::RangeQuerySpec(kW, kW, IsConstrained(m) ? qp : 0));
}

/// Threads the benchmark may run at once: hardware threads, at most 4.
size_t BenchThreads();

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Times one rung of the traced run's ladder: runs \p fn three times, the
/// first only to warm the caches, records every run as a span under
/// \p parent and returns the fastest timed run in µs.
template <typename F>
double TimeRung(Tracer* tracer, const char* name, uint64_t parent,
                uint64_t request, F&& fn) {
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    const int64_t t0 = NowNs();
    fn();
    const int64_t t1 = NowNs();
    tracer->Record(tracer->NewId(), name, t0, t1, parent, request);
    const double us = NsToUs(t1 - t0);
    if (run == 1 || (run > 1 && us < best)) best = us;
  }
  return best;
}

/// The lower rungs of the traced run's ladder for one sampled request, run
/// on \p engine: the index filter of the query's Minkowski box, the
/// engine's qualification kernel (analytic or Monte-Carlo, as configured)
/// on those candidates, and the whole bare engine. Each rung is a TimeRung
/// under \p root.
struct EngineRungs {
  double filter_us = 0, node_accesses = 0, candidates = 0;
  bool monte_carlo = false;
  /// Kernel time per candidate (analytic) or per issuer sample (MC).
  double kernel_ns = 0;
  double engine_us = 0;
  double yield = 0;  ///< answers ÷ the engine's candidates
};
EngineRungs RunEngineRungs(Tracer* tracer, uint64_t root, uint64_t request,
                           const ilq::QueryEngine& engine,
                           ilq::QueryMethod method,
                           const ilq::UncertainObject& issuer,
                           const ilq::BatchSpec& spec);

/// The ShardedEngine rung: ShardedEngine::Run, and the routed shards'
/// own RunQueryMethod time it contains.
struct ShardedRungs {
  double run_us = 0;
  double self_us = 0;  ///< run_us minus the shards' time: route and merge
  double fanout = 0;   ///< shards routed
};
ShardedRungs RunShardedRungs(Tracer* tracer, uint64_t root, uint64_t request,
                             const ilq::ShardedEngine& engine,
                             ilq::QueryMethod method,
                             const ilq::UncertainObject& issuer,
                             const ilq::BatchSpec& spec);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

/// One printed figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run hands back: the correctness verdict, the operation counts
/// and either the end-to-end metrics (untraced) or the per-layer metrics
/// (traced; the traced run's own end-to-end figures go to `shadow` so the
/// trace overhead can be computed against an untraced run).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;  ///< requests verified against references
  /// Served probabilities above 1 (accepted within the reference
  /// tolerance; the uniform closed forms round to 1 + 2^-52).
  uint64_t above_one = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<Metric> shadow;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed check (kept to the first few messages).
  void Fail(const std::string& what);
};

/// Adds the medians of \p rows (one method's sampled requests) as
/// index.filter_us, index.node_accesses_per_query,
/// index.candidates_per_query, prob.analytic_ns_per_candidate or
/// simd.mc_ns_per_sample, core.engine_us and core.refine_yield, each with
/// the method's suffix.
void AddEngineMetrics(Report* report, ilq::QueryMethod method,
                      const std::vector<EngineRungs>& rows);

/// Reports the p99 of a latency sample only when at least ten samples lie
/// beyond it; the median always.
void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const std::vector<double>& ms);

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
std::string ReportJson(const Report& report);

/// Creates \p dir and its parents; false on failure.
bool MakeDirs(const std::string& dir);

/// Per-method metric suffix: ".ipq", ".ciuq_pti", ...
std::string MethodSuffix(ilq::QueryMethod method);

// Workload entry points (one file each).
Report RunServeZipfChurn(const Args& args, Tracer* tracer);
Report RunMcGaussianBatch(const Args& args, Tracer* tracer);
Report RunWireSessionsPaged(const Args& args, Tracer* tracer);

/// Self-tests of the reference formulas and of the answer checker.
int RunSelfTest();

}  // namespace ilqbench

#endif  // ILQBENCH_COMMON_H_
