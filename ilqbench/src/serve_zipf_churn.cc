// serve_zipf_churn: one-shot queries through AsyncServer over a 4-shard
// ShardedEngine with the AnswerCache on, Zipf-skewed issuers, and update
// batches between rounds.
//
// Why: answer sets are 400–1300 objects and uniform refinement is closed
// form, so routing and merging, queueing, the cache and the index filter
// dominate. The write batches show any read-path gain that costs writes,
// epoch publishes or cache invalidation.
//
// Closed loop: BenchThreads() client threads each keep one query
// outstanding (callers of this system wait for their answer), served by as
// many AsyncServer workers. A round is kRound queries; the window then
// drains and one UpdateBatch of kBatchOps ops is applied. Rounds repeat
// until the measured time reaches --seconds.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include "checker.h"
#include "common.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "prob/uniform_pdf.h"
#include "reference.h"
#include "serve/async_server.h"
#include "serve/sharded_engine.h"

namespace ilqbench {

namespace {

using ilq::QueryMethod;

constexpr size_t kShards = 4;
constexpr size_t kPool = 4096;       // distinct registered issuers
constexpr double kZipfS = 0.8;
constexpr size_t kRound = 2048;      // queries between update batches
constexpr size_t kSlices = 128;      // distinct request sequences
constexpr size_t kBatchOps = 64;     // ops per UpdateBatch
constexpr size_t kCacheEntries = 8192;
constexpr size_t kSampleEvery = 64;  // sampled requests: 1 in 64 ...
constexpr size_t kVerifyRounds = 4;  // ... verified on every 4th round
constexpr size_t kMinRounds = 8;     // >= 16K latency samples
constexpr double kQp = 0.3;

QueryMethod Unconstrained(QueryMethod m) {
  return ilq::QueryMethodUsesPoints(m) ? QueryMethod::kIpq : QueryMethod::kIuq;
}

// The benchmark's own copy of the catalog, kept in step with every update
// batch it sends; the references scan it.
struct Mirror {
  std::vector<ilq::PointObject> points;
  std::vector<std::pair<ilq::ObjectId, ilq::Rect>> regions;
  std::unordered_map<ilq::ObjectId, size_t> point_pos, region_pos;
  ilq::ObjectId next_point = 0, next_region = 0;

  void Index() {
    for (size_t i = 0; i < points.size(); ++i) {
      point_pos[points[i].id] = i;
      next_point = std::max(next_point, points[i].id + 1);
    }
    for (size_t i = 0; i < regions.size(); ++i) {
      region_pos[regions[i].first] = i;
      next_region = std::max(next_region, regions[i].first + 1);
    }
  }
  // Swap-erase, keeping the id -> position maps in step.
  void ErasePoint(ilq::ObjectId id) {
    const size_t at = point_pos.at(id);
    point_pos.erase(id);
    if (at + 1 != points.size()) {
      points[at] = points.back();
      point_pos[points[at].id] = at;
    }
    points.pop_back();
  }
  void EraseRegion(ilq::ObjectId id) {
    const size_t at = region_pos.at(id);
    region_pos.erase(id);
    if (at + 1 != regions.size()) {
      regions[at] = regions.back();
      region_pos[regions[at].first] = at;
    }
    regions.pop_back();
  }
  RefCatalog View() const {
    return RefCatalog{&points, &regions, Pdf::kUniform};
  }
};

// Draws one update batch against the mirror and applies it there: 25%
// inserts, 25% erases, 50% moves, half on points and half on uncertain
// objects. Moves are Gaussian steps (σ = 150) clamped to the space.
ilq::UpdateBatch DrawBatch(std::mt19937_64& gen, Mirror& m) {
  auto uni = [&] { return static_cast<double>(gen() >> 11) * 0x1.0p-53; };
  auto normal = [&] {
    const double a = std::max(uni(), 1e-300), b = uni();
    return std::sqrt(-2.0 * std::log(a)) * std::cos(2.0 * M_PI * b);
  };
  auto clamp = [](double v, double lo, double hi) {
    return std::min(std::max(v, lo), hi);
  };
  auto rect_pdf = [](const ilq::Rect& r) {
    auto pdf = ilq::UniformRectPdf::Make(r);
    return ilq::PdfVariant(std::move(pdf).ValueOrDie());
  };
  ilq::UpdateBatch batch;
  for (size_t i = 0; i < kBatchOps; ++i) {
    const double kind = uni();
    const bool on_points = uni() < 0.5;
    if (on_points) {
      if (kind < 0.25) {
        const ilq::Point p(uni() * kSpace, uni() * kSpace);
        const ilq::ObjectId id = m.next_point++;
        batch.push_back(ilq::UpdateOp::InsertPoint(id, p));
        m.point_pos[id] = m.points.size();
        m.points.emplace_back(id, p);
      } else if (kind < 0.5) {
        const ilq::ObjectId id = m.points[gen() % m.points.size()].id;
        batch.push_back(ilq::UpdateOp::ErasePoint(id));
        m.ErasePoint(id);
      } else {
        ilq::PointObject& p = m.points[gen() % m.points.size()];
        p.location =
            ilq::Point(clamp(p.location.x + 150 * normal(), 0, kSpace),
                       clamp(p.location.y + 150 * normal(), 0, kSpace));
        batch.push_back(ilq::UpdateOp::MovePoint(p.id, p.location));
      }
    } else {
      if (kind < 0.25) {
        const double sx = 10 + 70 * uni(), sy = 10 + 70 * uni();
        const double x = uni() * (kSpace - sx), y = uni() * (kSpace - sy);
        const ilq::Rect r(x, x + sx, y, y + sy);
        const ilq::ObjectId id = m.next_region++;
        batch.push_back(ilq::UpdateOp::InsertUncertain(id, rect_pdf(r)));
        m.region_pos[id] = m.regions.size();
        m.regions.push_back({id, r});
      } else if (kind < 0.5) {
        const ilq::ObjectId id = m.regions[gen() % m.regions.size()].first;
        batch.push_back(ilq::UpdateOp::EraseUncertain(id));
        m.EraseRegion(id);
      } else {
        auto& [id, r] = m.regions[gen() % m.regions.size()];
        const double dx = clamp(150 * normal(), -r.xmin, kSpace - r.xmax);
        const double dy = clamp(150 * normal(), -r.ymin, kSpace - r.ymax);
        r = ilq::Rect(r.xmin + dx, r.xmax + dx, r.ymin + dy, r.ymax + dy);
        batch.push_back(ilq::UpdateOp::MoveUncertain(id, rect_pdf(r)));
      }
    }
  }
  return batch;
}

// Cheap checks every served answer gets: canonical id order, p in (0, 1]
// up to the reference tolerance, threshold respected. "" when the answer
// passes; probabilities above 1 within the tolerance are counted in
// \p above_one.
std::string QuickCheck(const ilq::AnswerSet& answers, QueryMethod m,
                       std::atomic<uint64_t>* above_one) {
  const double floor = IsConstrained(m) ? kQp : 0.0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const double p = answers[i].probability;
    char buf[128];
    if (p > 1.0) above_one->fetch_add(1, std::memory_order_relaxed);
    if (!(p > 0.0 && p <= 1.0 + CheckOptions{}.tolerance && p >= floor)) {
      std::snprintf(buf, sizeof(buf), "id %llu p=%.17g outside (%g, 1]",
                    static_cast<unsigned long long>(answers[i].id), p, floor);
      return buf;
    }
    if (i > 0 && answers[i - 1].id >= answers[i].id) {
      std::snprintf(buf, sizeof(buf), "ids out of order at %zu", i);
      return buf;
    }
  }
  return "";
}

struct Sampled {
  size_t request = 0;  // global request number
  size_t issuer = 0;   // index into the pool
  QueryMethod method = QueryMethod::kIpq;
  ilq::AnswerSet answers;
  bool first_in_round = false;  // first (issuer, method) of its epoch
};

}  // namespace

Report RunServeZipfChurn(const Args& args, Tracer* tracer) {
  Report report;
  const size_t threads = BenchThreads();

  // ---- Inputs (not timed) ----------------------------------------------
  std::vector<ilq::PointObject> points = PaperPoints();
  std::vector<ilq::Rect> rects = PaperRects();
  auto objects = ilq::MakeUniformUncertainObjects(rects);
  ilq::WorkloadConfig base;
  base.u = kU;
  base.w = kW;
  base.seed = ilq::MixSeeds(args.seed, 0x5E17E);
  ilq::SkewConfig skew;
  skew.pool = kPool;
  skew.requests = kRound * kSlices;
  skew.zipf_s = kZipfS;
  auto traffic = ilq::GenerateSkewedWorkload(base, skew);
  if (!objects.ok() || !traffic.ok()) {
    report.Fail("input generation failed");
    return report;
  }
  Mirror mirror;
  mirror.points = points;
  for (size_t i = 0; i < rects.size(); ++i) {
    mirror.regions.push_back({(*objects)[i].id(), rects[i]});
  }
  mirror.Index();
  std::mt19937_64 update_gen(ilq::MixSeeds(args.seed, 0xC4A5));
  auto mono_objects = *objects;
  auto mono_points = points;

  // ---- Set-up (timed): sharded engine build + server start ---------------
  const int64_t setup_start = NowNs();
  ilq::ShardedEngineConfig config;
  config.shards = kShards;
  auto engine = ilq::ShardedEngine::Build(std::move(points),
                                          std::move(objects).ValueOrDie(),
                                          config);
  if (!engine.ok()) {
    report.Fail("ShardedEngine::Build: " + engine.status().ToString());
    return report;
  }
  ilq::AsyncServerOptions serve_options;
  serve_options.threads = threads;
  serve_options.cache_capacity = kCacheEntries;
  auto server = std::make_unique<ilq::AsyncServer>(*engine, serve_options);
  const double setup_s = NsToMs(NowNs() - setup_start) / 1e3;

  // The reference monolith, updated with the same batches (not timed).
  auto mono = ilq::QueryEngine::Build(std::move(mono_points),
                                      std::move(mono_objects));
  if (!mono.ok()) {
    report.Fail("QueryEngine::Build: " + mono.status().ToString());
    return report;
  }

  // ---- Rounds ------------------------------------------------------------
  std::vector<double> latency_ms;
  std::vector<double> round_ms, batch_ms;
  int64_t query_ns = 0, update_ns = 0;
  uint64_t queries = 0, ops = 0;
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> above_one{0};
  std::mutex error_mu;
  std::string first_error;
  size_t round = 0;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);

  // Traced-run ladder inputs.
  struct LadderRow {
    QueryMethod method;
    EngineRungs engine;
    ShardedRungs sharded;
    double queue_wait_us = NAN;
  };
  std::vector<LadderRow> ladder;
  std::vector<double> apply_us_per_op;
  ilq::UpdateBatch pending;  // batches the reference monolith has not seen
  const ilq::ServeStats stats_before = server->stats();

  while (round < kMinRounds || query_ns + update_ns < budget_ns) {
    const size_t slice = (round % kSlices) * kRound;
    // Zipf rank k is pool entry (k + shift) mod kPool: the popular issuers
    // change every round, so one run averages over many hot sets instead of
    // depending on where the seed put the few hottest ones.
    const size_t shift = ilq::MixSeeds(args.seed, round) % kPool;
    auto issuer_at = [&](size_t i) {
      return (traffic->sequence[slice + i] + shift) % kPool;
    };
    std::vector<Sampled> samples(kRound / kSampleEvery);
    std::vector<std::vector<double>> lat(threads);
    std::atomic<size_t> next{0};
    auto client = [&](size_t t) {
      lat[t].reserve(kRound / threads + 64);
      for (size_t i; (i = next.fetch_add(1)) < kRound;) {
        const size_t issuer = issuer_at(i);
        const QueryMethod m = kCycledMethods[i % 4];
        const uint64_t request = round * kRound + i;
        const uint64_t span = tracer->NewId();
        const int64_t t0 = NowNs();
        ilq::AnswerSet answers;
        try {
          answers =
              server->Submit(traffic->pool[issuer], SpecFor(m, kQp), m).get();
        } catch (const std::exception& e) {
          failed.fetch_add(1);
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.empty()) first_error = e.what();
          continue;
        }
        const int64_t t1 = NowNs();
        tracer->Record(span, "serve.request", t0, t1, 0, request);
        lat[t].push_back(NsToMs(t1 - t0));
        const std::string err = QuickCheck(answers, m, &above_one);
        if (!err.empty()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.empty()) {
            first_error = std::string(ilq::QueryMethodName(m)) + " request " +
                          std::to_string(request) + ": " + err;
          }
        }
        // One request per kSampleEvery, rotating through the four methods.
        if (i % kSampleEvery == kSampleEvery / 2 + (i / kSampleEvery) % 4) {
          samples[i / kSampleEvery] =
              Sampled{request, issuer, m, std::move(answers), false};
        }
      }
    };
    const int64_t r0 = NowNs();
    {
      std::vector<std::thread> clients;
      for (size_t t = 0; t < threads; ++t) clients.emplace_back(client, t);
      for (std::thread& c : clients) c.join();
    }
    const int64_t r1 = NowNs();
    query_ns += r1 - r0;
    round_ms.push_back(NsToMs(r1 - r0));
    queries += kRound;
    for (auto& l : lat) latency_ms.insert(latency_ms.end(), l.begin(), l.end());

    // ---- Verification of the sampled requests (not timed) --------------
    // The reference monolith catches up with the batches since the last
    // verified round in one ApplyUpdates call: answers depend only on the
    // catalog's contents, which are the same either way.
    const bool verify = round % kVerifyRounds == 0;
    if (verify && !pending.empty()) {
      const int64_t m0 = NowNs();
      const ilq::Status mono_applied = mono->ApplyUpdates(pending);
      apply_us_per_op.push_back(NsToUs(NowNs() - m0) /
                                static_cast<double>(pending.size()));
      if (!mono_applied.ok()) {
        report.Fail("reference QueryEngine::ApplyUpdates: " +
                    mono_applied.ToString());
      }
      pending.clear();
    }
    if (verify) {
      std::unordered_map<uint64_t, size_t> first_seen;  // (issuer, method)
      for (size_t i = 0; i < kRound; ++i) {
        const uint64_t key = issuer_at(i) * 4 + i % 4;
        first_seen.emplace(key, i);
      }
      for (Sampled& s : samples) {
        const size_t i = s.request - round * kRound;
        s.first_in_round =
            first_seen.at(s.issuer * 4 + i % 4) == i;
      }
    }
    for (const Sampled& s : samples) {
      if (!verify) break;
      const ilq::UncertainObject& issuer = traffic->pool[s.issuer];
      const ilq::BatchSpec spec = SpecFor(s.method, kQp);
      ilq::AnswerSet want = ilq::RunQueryMethod(*mono, s.method, issuer, spec);
      ilq::CanonicalizeAnswers(&want);
      std::string err = CompareIdentical(s.answers, want);
      if (err.empty()) {
        CheckOptions opts;
        opts.threshold_method = IsConstrained(s.method);
        opts.threshold = spec.query.threshold;
        err = CheckAnswers(s.answers,
                           ReferenceAnswers(s.method, Pdf::kUniform,
                                            issuer.region(), kW, kW,
                                            mirror.View()),
                           opts);
      }
      if (err.empty() && IsConstrained(s.method)) {
        ilq::AnswerSet open = ilq::RunQueryMethod(
            *mono, Unconstrained(s.method), issuer,
            SpecFor(Unconstrained(s.method), kQp));
        ilq::CanonicalizeAnswers(&open);
        err = CheckFiltered(s.answers, open, kQp);
      }
      ++report.checked;
      if (!err.empty()) {
        report.Fail(std::string(ilq::QueryMethodName(s.method)) +
                    " request " + std::to_string(s.request) + ": " + err);
      }
    }

    // ---- Traced run: the ladder on the sampled requests (not timed) -----
    if (verify && tracer->on()) {
      const auto live = tracer->UsByRequest("serve.request");
      for (const Sampled& s : samples) {
        const ilq::UncertainObject& issuer = traffic->pool[s.issuer];
        const ilq::BatchSpec spec = SpecFor(s.method, kQp);
        LadderRow row{};
        row.method = s.method;
        const uint64_t root = tracer->NewId();
        const int64_t root_start = NowNs();
        row.engine = RunEngineRungs(tracer, root, s.request, *mono, s.method,
                                    issuer, spec);
        row.sharded = RunShardedRungs(tracer, root, s.request, *engine,
                                      s.method, issuer, spec);
        if (s.first_in_round) {
          auto it = live.find(s.request);
          if (it != live.end()) {
            row.queue_wait_us = it->second - row.sharded.run_us;
          }
        }
        tracer->Record(root, "ladder", root_start, NowNs(), 0, s.request);
        ladder.push_back(row);
      }
    }

    // ---- Update batch (timed) ------------------------------------------
    const ilq::UpdateBatch batch = DrawBatch(update_gen, mirror);
    const int64_t u0 = NowNs();
    const ilq::Status applied = engine->ApplyUpdates(batch);
    const int64_t u1 = NowNs();
    tracer->Record(tracer->NewId(), "serve.apply_updates", u0, u1, 0, round);
    update_ns += u1 - u0;
    batch_ms.push_back(NsToMs(u1 - u0));
    ops += batch.size();
    if (!applied.ok()) {
      failed.fetch_add(batch.size());
      report.Fail("ShardedEngine::ApplyUpdates: " + applied.ToString());
    }
    pending.insert(pending.end(), batch.begin(), batch.end());
    ++round;
  }
  const ilq::ServeStats stats_after = server->stats();
  server->Shutdown();
  if (!first_error.empty()) report.Fail(first_error);
  report.above_one = above_one.load();

  report.attempted = queries + ops;
  report.failed = failed.load();

  std::vector<Metric>& e2e = tracer->on() ? report.shadow : report.metrics;
  e2e.push_back({"setup_s", setup_s, "s"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  // The rate comes from the median round, its update batch included (a
  // client waits through it), so one round slowed by the host does not
  // move it.
  std::vector<double> cycle_ms;
  for (size_t r = 0; r < round_ms.size(); ++r) {
    cycle_ms.push_back(round_ms[r] + batch_ms[r]);
  }
  e2e.push_back({"query_qps", kRound / (Median(cycle_ms) * 1e-3), "queries/s"});
  AddLatency(&e2e, "query", latency_ms);
  std::printf("serve_zipf_churn: %zu rounds, %llu queries, %llu update ops, "
              "%llu requests verified, cache hits %llu / misses %llu\n",
              round, static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(report.checked),
              static_cast<unsigned long long>(stats_after.cache_hits -
                                              stats_before.cache_hits),
              static_cast<unsigned long long>(stats_after.cache_misses -
                                              stats_before.cache_misses));

  if (tracer->on()) {
    for (QueryMethod m : kCycledMethods) {
      std::vector<EngineRungs> rows;
      std::vector<double> self;
      for (const LadderRow& r : ladder) {
        if (r.method != m) continue;
        rows.push_back(r.engine);
        self.push_back(r.sharded.self_us);
      }
      AddEngineMetrics(&report, m, rows);
      report.Add("serve.sharded_self_us" + MethodSuffix(m), Median(self),
                 "us");
    }
    std::vector<double> fanout, wait;
    for (const LadderRow& r : ladder) {
      fanout.push_back(r.sharded.fanout);
      if (!std::isnan(r.queue_wait_us)) wait.push_back(r.queue_wait_us);
    }
    double mean_fanout = 0.0;
    for (double f : fanout) mean_fanout += f;
    report.Add("serve.fanout",
               fanout.empty() ? 0.0 : mean_fanout / fanout.size(), "shards");
    report.Add("serve.queue_wait_us", Median(wait), "us");
    const double hits =
        static_cast<double>(stats_after.cache_hits - stats_before.cache_hits);
    const double misses = static_cast<double>(stats_after.cache_misses -
                                              stats_before.cache_misses);
    report.Add("serve.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.Add("serve.cache_invalidations",
               static_cast<double>(stats_after.cache_invalidations -
                                   stats_before.cache_invalidations),
               "count");
    report.Add("serve.update_ops_per_s", kBatchOps / (Median(batch_ms) * 1e-3),
               "ops/s");
    report.Add("object.update_us_per_op", Median(apply_us_per_op), "us");
    // Shard engines are replaced by forks on every batch (their counters
    // restart), so the PTI counters come from the reference monolith,
    // which receives the same batches.
    const ilq::UpdateStats updates = mono->update_stats();
    report.Add("core.pti_rebuilds", static_cast<double>(updates.pti_rebuilds),
               "count");
    report.Add("core.pti_refreshes",
               static_cast<double>(updates.pti_refreshes), "count");
  }
  return report;
}

}  // namespace ilqbench
