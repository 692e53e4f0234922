#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "core/duality.h"
#include "core/engine.h"
#include "datagen/synthetic.h"

namespace ilqbench {

std::vector<ilq::PointObject> PaperPoints() {
  ilq::SyntheticConfig config;
  config.count = kPaperPoints;
  config.seed = 20070415;
  return ilq::GenerateCaliforniaLikePoints(config);
}

std::vector<ilq::Rect> PaperRects() {
  ilq::RectangleConfig config;
  config.base.count = kPaperRects;
  config.base.seed = 20070416;
  return ilq::GenerateLongBeachLikeRects(config);
}

size_t BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

namespace {
// Keeps timed kernel loops from being optimized away.
volatile double g_sink = 0.0;
}  // namespace

EngineRungs RunEngineRungs(Tracer* tracer, uint64_t root, uint64_t request,
                           const ilq::QueryEngine& engine,
                           ilq::QueryMethod method,
                           const ilq::UncertainObject& issuer,
                           const ilq::BatchSpec& spec) {
  EngineRungs rungs;
  const ilq::EvalOptions& eval = engine.config().eval;
  rungs.monte_carlo = eval.kernel == ilq::ProbabilityKernel::kMonteCarlo;
  const auto snap = engine.snapshot();
  const ilq::Rect box = issuer.region().Expanded(kW, kW);
  const bool on_points = ilq::QueryMethodUsesPoints(method);
  std::vector<ilq::ObjectId> cands;
  ilq::IndexStats filter_stats;
  rungs.filter_us = TimeRung(tracer, "index.filter", root, request, [&] {
    cands.clear();
    filter_stats = {};
    (on_points ? snap->point_index : snap->uncertain_index)
        .Query(box, [&](const ilq::Rect&, ilq::ObjectId id) {
          cands.push_back(id);
        }, &filter_stats);
  });
  rungs.node_accesses = static_cast<double>(filter_stats.node_accesses);
  rungs.candidates = static_cast<double>(cands.size());
  const double kernel_us = TimeRung(
      tracer, rungs.monte_carlo ? "simd.mc_qualify" : "prob.analytic", root,
      request, [&] {
        double sink = 0.0;
        for (ilq::ObjectId id : cands) {
          const ilq::PointObject* point =
              on_points ? snap->catalog->FindPoint(id) : nullptr;
          const ilq::UncertainObject* object =
              on_points ? nullptr : &snap->catalog->uncertains[id];
          if (rungs.monte_carlo) {
            ilq::Rng rng(ilq::MixSeeds(eval.mc_seed,
                                       on_points ? id : object->id()));
            sink += on_points
                        ? ilq::PointQualificationMC(issuer.pdf_variant(),
                                                    point->location, kW, kW,
                                                    eval.mc_samples, &rng)
                        : ilq::UncertainQualificationMC(
                              issuer.pdf_variant(), object->pdf_variant(), kW,
                              kW, eval.mc_samples, &rng);
          } else {
            sink += on_points
                        ? ilq::PointQualification(issuer.pdf(),
                                                  point->location, kW, kW)
                        : ilq::UncertainQualification(
                              issuer.pdf_variant(), object->pdf_variant(), kW,
                              kW, eval.quadrature_order);
          }
        }
        g_sink = sink;
      });
  const double per = rungs.monte_carlo
                         ? static_cast<double>(eval.mc_samples)
                         : 1.0;
  rungs.kernel_ns =
      cands.empty() ? 0.0 : 1e3 * kernel_us / (rungs.candidates * per);
  ilq::IndexStats engine_stats;
  size_t answers = 0;
  rungs.engine_us = TimeRung(tracer, "core.engine", root, request, [&] {
    engine_stats = {};
    answers =
        ilq::RunQueryMethod(engine, method, issuer, spec, &engine_stats).size();
  });
  rungs.yield = engine_stats.candidates == 0
                    ? 0.0
                    : static_cast<double>(answers) /
                          static_cast<double>(engine_stats.candidates);
  return rungs;
}

ShardedRungs RunShardedRungs(Tracer* tracer, uint64_t root, uint64_t request,
                             const ilq::ShardedEngine& engine,
                             ilq::QueryMethod method,
                             const ilq::UncertainObject& issuer,
                             const ilq::BatchSpec& spec) {
  ShardedRungs rungs;
  const std::vector<size_t> routed = engine.Route(method, issuer, spec.query);
  double shards_us = 0.0;
  for (size_t shard : routed) {
    const ilq::QueryEngine& shard_engine = engine.shard(shard);
    shards_us += TimeRung(tracer, "core.shard_engine", root, request, [&] {
      (void)ilq::RunQueryMethod(shard_engine, method, issuer, spec);
    });
  }
  rungs.run_us = TimeRung(tracer, "serve.sharded_run", root, request,
                          [&] { (void)engine.Run(method, issuer, spec); });
  rungs.self_us = rungs.run_us - shards_us;
  rungs.fanout = static_cast<double>(routed.size());
  return rungs;
}

void AddEngineMetrics(Report* report, ilq::QueryMethod method,
                      const std::vector<EngineRungs>& rows) {
  std::vector<double> filter, nodes, cands, kernel, eng, yield;
  bool monte_carlo = false;
  for (const EngineRungs& r : rows) {
    filter.push_back(r.filter_us);
    nodes.push_back(r.node_accesses);
    cands.push_back(r.candidates);
    kernel.push_back(r.kernel_ns);
    eng.push_back(r.engine_us);
    yield.push_back(r.yield);
    monte_carlo = r.monte_carlo;
  }
  const std::string sfx = MethodSuffix(method);
  report->Add("index.filter_us" + sfx, Median(filter), "us");
  report->Add("index.node_accesses_per_query" + sfx, Median(nodes), "count");
  report->Add("index.candidates_per_query" + sfx, Median(cands), "count");
  report->Add((monte_carlo ? "simd.mc_ns_per_sample"
                           : "prob.analytic_ns_per_candidate") + sfx,
              Median(kernel), "ns");
  report->Add("core.engine_us" + sfx, Median(eng), "us");
  report->Add("core.refine_yield" + sfx, Median(yield), "ratio");
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const std::vector<double>& ms) {
  out->push_back({prefix + "_p50_ms", Median(ms), "ms"});
  // p99 needs >= 10 samples beyond it, i.e. >= 1000 samples.
  if (ms.size() >= 1000) {
    out->push_back({prefix + "_p99_ms", Quantile(ms, 0.99), "ms"});
  }
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ReportJson(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

bool MakeDirs(const std::string& dir) {
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = dir.find('/', pos + 1);
    const std::string prefix = dir.substr(0, pos);
    if (prefix.empty()) continue;
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::string MethodSuffix(ilq::QueryMethod method) {
  return std::string(".") + ilq::QueryMethodName(method);
}

}  // namespace ilqbench
