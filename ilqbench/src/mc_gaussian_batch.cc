// mc_gaussian_batch: QueryEngine::RunBatch on BenchThreads() threads over
// Gaussian issuers (Fig. 13) and Gaussian objects, Monte-Carlo kernel at
// the paper's 250 samples, alternating cipq_pexp and ciuq_pti batches at
// Qp = 0.5.
//
// Why: a C-IPQ query costs tens of milliseconds over ~660 candidates, so
// Monte-Carlo sampling and refinement dominate; serve, wire and net are
// not on the path.

#include <cmath>
#include <cstdio>

#include "checker.h"
#include "common.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "reference.h"

namespace ilqbench {

namespace {

using ilq::QueryMethod;

constexpr size_t kBatchIssuers = 16;  // issuers per RunBatch call
constexpr size_t kPoolBatches = 32;   // distinct batches per method
constexpr size_t kMinRounds = 64;     // >= 1024 per-query samples
constexpr double kQp = 0.5;
constexpr QueryMethod kMethods[] = {QueryMethod::kCipqPExpanded,
                                    QueryMethod::kCiuqPti};

}  // namespace

Report RunMcGaussianBatch(const Args& args, Tracer* tracer) {
  Report report;
  const size_t threads = BenchThreads();

  // ---- Inputs (not timed) ----------------------------------------------
  std::vector<ilq::PointObject> points = PaperPoints();
  std::vector<ilq::Rect> rects = PaperRects();
  auto objects = ilq::MakeGaussianUncertainObjects(rects);
  ilq::WorkloadConfig wc;
  wc.u = kU;
  wc.w = kW;
  wc.qp = kQp;
  wc.queries = kBatchIssuers * kPoolBatches;
  wc.issuer_pdf = ilq::IssuerPdfKind::kGaussian;
  wc.seed = ilq::MixSeeds(args.seed, 0x6A55);
  auto workload = ilq::GenerateWorkload(wc);
  if (!objects.ok() || !workload.ok()) {
    report.Fail("input generation failed");
    return report;
  }
  std::vector<std::pair<ilq::ObjectId, ilq::Rect>> regions;
  for (size_t i = 0; i < rects.size(); ++i) {
    regions.push_back({(*objects)[i].id(), rects[i]});
  }
  const RefCatalog ref_catalog{&points, &regions, Pdf::kGaussian};
  auto engine_points = points;

  // ---- Set-up (timed): engine build -------------------------------------
  const int64_t setup_start = NowNs();
  ilq::EngineConfig config;
  config.eval.kernel = ilq::ProbabilityKernel::kMonteCarlo;
  config.eval.mc_samples = 250;
  auto engine = ilq::QueryEngine::Build(std::move(engine_points),
                                        std::move(objects).ValueOrDie(),
                                        config);
  const double setup_s = NsToMs(NowNs() - setup_start) / 1e3;
  if (!engine.ok()) {
    report.Fail("QueryEngine::Build: " + engine.status().ToString());
    return report;
  }
  const ilq::BatchSpec spec(workload->spec);

  // ---- Rounds: one RunBatch call each, methods alternating --------------
  std::vector<double> batch_ms[2];
  std::vector<double> query_ms[2];  // each query's time inside its batch
  std::vector<double> efficiency[2];
  int64_t batch_ns = 0;
  uint64_t queries = 0;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<EngineRungs> ladder[2];
  size_t round = 0;
  ilq::BatchOptions options;
  options.threads = threads;
  while (round < kMinRounds || batch_ns < budget_ns) {
    const size_t mi = round % 2;
    const QueryMethod method = kMethods[mi];
    const size_t first = ((round / 2) % kPoolBatches) * kBatchIssuers;
    const std::vector<ilq::UncertainObject> issuers(
        workload->issuers.begin() + first,
        workload->issuers.begin() + first + kBatchIssuers);
    const int64_t t0 = NowNs();
    const ilq::BatchResult result =
        engine->RunBatch(method, issuers, spec, options);
    const int64_t t1 = NowNs();
    tracer->Record(tracer->NewId(), "core.run_batch", t0, t1, 0, round);
    batch_ns += t1 - t0;
    batch_ms[mi].push_back(NsToMs(t1 - t0));
    queries += issuers.size();
    double serial_ms = 0.0;
    for (double q : result.query_ms) serial_ms += q;
    query_ms[mi].insert(query_ms[mi].end(), result.query_ms.begin(),
                        result.query_ms.end());
    efficiency[mi].push_back(
        serial_ms /
        (result.wall_ms * static_cast<double>(result.threads_used)));

    // ---- Verification: one issuer per batch (not timed) ----------------
    const size_t pick = round % kBatchIssuers;
    {
      const ilq::UncertainObject& issuer = issuers[pick];
      CheckOptions opts;
      opts.threshold_method = true;
      opts.threshold = kQp;
      opts.monte_carlo = true;
      opts.mc_samples = static_cast<int>(config.eval.mc_samples);
      const std::string err = CheckAnswers(
          result.answers[pick],
          ReferenceAnswers(method, Pdf::kGaussian, issuer.region(), kW, kW,
                           ref_catalog),
          opts);
      ++report.checked;
      if (!err.empty()) {
        report.Fail(std::string(ilq::QueryMethodName(method)) + " round " +
                    std::to_string(round) + ": " + err);
      }
    }

    // ---- Traced run: the engine's rungs, on two rounds in eight (one of
    // each method) to bound the traced run's length (not timed).
    if (tracer->on() && round % 8 < 2) {
      const uint64_t root = tracer->NewId();
      const int64_t root_start = NowNs();
      ladder[mi].push_back(RunEngineRungs(tracer, root, round, *engine, method,
                                          issuers[pick], spec));
      tracer->Record(root, "ladder", root_start, NowNs(), 0, round);
    }
    ++round;
  }
  report.attempted = queries;
  report.failed = 0;

  std::vector<Metric>& e2e = tracer->on() ? report.shadow : report.metrics;
  e2e.push_back({"setup_s", setup_s, "s"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  // One cipq_pexp batch plus one ciuq_pti batch per pair of rounds; the
  // rate comes from the median pair, so one slowed batch does not move it.
  std::vector<double> pair_ms;
  for (size_t i = 0; i < batch_ms[1].size(); ++i) {
    pair_ms.push_back(batch_ms[0][i] + batch_ms[1][i]);
  }
  e2e.push_back({"query_qps", 2 * kBatchIssuers / (Median(pair_ms) * 1e-3),
                 "queries/s"});
  // One query's evaluation inside its RunBatch call (BatchResult::query_ms).
  // The median is the mean of the two per-method medians: the methods
  // differ about 2x in cost and run equally often, so a pooled median
  // would fall in the gap between them. The p99 is pooled.
  std::vector<double> pooled = query_ms[0];
  pooled.insert(pooled.end(), query_ms[1].begin(), query_ms[1].end());
  e2e.push_back({"query_p50_ms",
                 0.5 * (Median(query_ms[0]) + Median(query_ms[1])), "ms"});
  e2e.push_back({"query_p99_ms", Quantile(pooled, 0.99), "ms"});
  std::printf("mc_gaussian_batch: %zu RunBatch calls of %zu issuers on %zu "
              "threads, %llu queries, %llu verified; median batch "
              "cipq_pexp %.2f ms, ciuq_pti %.2f ms\n",
              round, kBatchIssuers, threads,
              static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(report.checked),
              Median(batch_ms[0]), Median(batch_ms[1]));

  if (tracer->on()) {
    for (size_t mi = 0; mi < 2; ++mi) {
      AddEngineMetrics(&report, kMethods[mi], ladder[mi]);
      const std::string sfx = MethodSuffix(kMethods[mi]);
      report.Add("core.batch_efficiency" + sfx, Median(efficiency[mi]),
                 "ratio");
      report.Add("core.batch_p50_ms" + sfx, Median(batch_ms[mi]), "ms");
    }
  }
  return report;
}

}  // namespace ilqbench
