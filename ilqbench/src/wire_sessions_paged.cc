// wire_sessions_paged: two ShardServers on loopback inside this process,
// each serving one SplitCatalogImage piece mounted with OpenDiskBundle in
// paged mode under a buffer budget well below its index bytes. One Router
// thread drives them; each round has a one-shot Router::Query phase and a
// session phase that streams random-walk trajectories as continuous ipq
// and ciuq_pti sessions.
//
// Why: wire encoding and decoding, socket round trips, router merging,
// valid-region replay and page-buffer misses dominate; the kernels are
// cheap here.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "checker.h"
#include "common.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "reference.h"
#include "serve/partition.h"
#include "serve/sharded_engine.h"
#include "wire/codec.h"
#include "wire/disk_bundle.h"
#include "wire/message.h"

namespace ilqbench {

namespace {

using ilq::QueryMethod;

constexpr size_t kShards = 2;
constexpr size_t kOneShot = 256;      // one-shot queries per round
constexpr size_t kOneShotPool = 16384;
constexpr size_t kSessions = 8;       // sessions per round (half ipq)
constexpr size_t kSteps = 24;         // positions per trajectory
constexpr size_t kTrajectoryPool = 1024;  // fresh trajectories per round
constexpr size_t kMinRounds = 8;      // >= 1024 samples per latency
constexpr size_t kVerifyEvery = 8;    // one-shot requests checked: 1 in 8
constexpr size_t kReferenceEvery = 4;  // of those, reference-checked
constexpr size_t kBufferDivisor = 32;  // budget per index = index bytes / 32
constexpr double kQp = 0.3;
constexpr QueryMethod kSessionMethods[] = {QueryMethod::kIpq,
                                           QueryMethod::kCiuqPti};

// Confines this thread, and every thread it starts later, to the first
// kCpus CPUs this process may use. Each request crosses four threads (router,
// connection reader, server worker, connection writer). On their own CPUs
// each hand-off waits for the host to wake an idle vCPU, and on a 4-vCPU VM
// runs of the same seed differed by up to 30%. On one CPU the hand-offs are
// context switches.
constexpr int kCpus = 1;
void PinToFirstCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < kCpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

size_t MethodIndex(QueryMethod m) {
  for (size_t i = 0; i < 4; ++i) {
    if (kCycledMethods[i] == m) return i;
  }
  return 0;
}

ilq::BufferCounters Buffers(
    const std::vector<const ilq::QueryEngine*>& engines) {
  ilq::BufferCounters total;
  for (const ilq::QueryEngine* e : engines) {
    const auto snap = e->snapshot();
    for (const ilq::RTree* tree :
         {&snap->point_index, &snap->uncertain_index,
          snap->pti ? &snap->pti->tree() : nullptr}) {
      if (tree == nullptr) continue;
      const ilq::BufferCounters c = tree->buffer_counters();
      total.hits += c.hits;
      total.misses += c.misses;
    }
  }
  return total;
}

}  // namespace

Report RunWireSessionsPaged(const Args& args, Tracer* tracer) {
  Report report;
  namespace fs = std::filesystem;
  PinToFirstCpus();

  // ---- Inputs (not timed): catalog, shard bundles, queries, trajectories
  ilq::CatalogImage image;
  image.points = PaperPoints();
  {
    auto objects = ilq::MakeUniformUncertainObjects(PaperRects());
    if (!objects.ok()) {
      report.Fail("MakeUniformUncertainObjects failed");
      return report;
    }
    image.uncertains = std::move(objects).ValueOrDie();
  }
  auto split = ilq::SplitCatalogImage(image, kShards);
  if (!split.ok()) {
    report.Fail("SplitCatalogImage: " + split.status().ToString());
    return report;
  }
  const std::string bundle_root =
      args.out_dir + "/bundles-" + std::to_string(getpid());
  std::vector<std::string> dirs;
  std::vector<size_t> index_bytes;
  for (size_t s = 0; s < kShards; ++s) {
    dirs.push_back(bundle_root + "/shard" + std::to_string(s));
    const ilq::Status written =
        ilq::WriteDiskBundle(split->shards[s], dirs.back());
    if (!written.ok()) {
      report.Fail("WriteDiskBundle: " + written.ToString());
      fs::remove_all(bundle_root);
      return report;
    }
    const ilq::PagedIndexFiles files = ilq::PagedIndexFiles::InDir(dirs.back());
    size_t bytes = 0;
    for (const std::string& f :
         {files.point_index, files.uncertain_index, files.pti_index}) {
      std::error_code ec;
      const auto size = fs::file_size(f, ec);
      if (!ec) bytes += size;
    }
    index_bytes.push_back(bytes);
  }
  ilq::WorkloadConfig wc;
  wc.u = kU;
  wc.w = kW;
  wc.queries = kOneShotPool;
  wc.seed = ilq::MixSeeds(args.seed, 0x0E5407);
  auto oneshot = ilq::GenerateWorkload(wc);
  ilq::WorkloadConfig tc = wc;
  tc.seed = ilq::MixSeeds(args.seed, 0x7EA1);
  ilq::TrajectoryConfig traj;
  traj.issuers = kTrajectoryPool;
  traj.steps = kSteps;
  traj.kind = ilq::TrajectoryKind::kRandomWalk;
  traj.step = 180.0;
  traj.u_min = 200.0;
  traj.u_max = 300.0;
  auto trajectories = ilq::GenerateTrajectoryWorkload(tc, traj);
  if (!oneshot.ok() || !trajectories.ok()) {
    report.Fail("workload generation failed");
    fs::remove_all(bundle_root);
    return report;
  }
  std::vector<std::pair<ilq::ObjectId, ilq::Rect>> regions;
  for (const ilq::UncertainObject& o : image.uncertains) {
    regions.push_back({o.id(), o.region()});
  }
  const RefCatalog ref_catalog{&image.points, &regions, Pdf::kUniform};

  // ---- Set-up (timed): mount bundles, start servers, make the router ----
  const int64_t setup_start = NowNs();
  std::vector<std::unique_ptr<ilq::ShardedEngine>> engines;
  std::vector<std::unique_ptr<ilq::ShardServer>> servers;
  ilq::RouterOptions router_options;
  int64_t mount_ns = 0;
  for (size_t s = 0; s < kShards; ++s) {
    ilq::EngineConfig config;
    config.storage = ilq::StorageMode::kPaged;
    config.buffer_pool_bytes = index_bytes[s] / kBufferDivisor;
    const int64_t m0 = NowNs();
    auto mounted = ilq::OpenDiskBundle(dirs[s], config);
    mount_ns += NowNs() - m0;
    if (!mounted.ok()) {
      report.Fail("OpenDiskBundle: " + mounted.status().ToString());
      break;
    }
    ilq::ShardedEngineConfig sc;
    sc.shards = 1;
    auto engine =
        ilq::ShardedEngine::FromEngine(std::move(mounted).ValueOrDie(), sc);
    if (!engine.ok()) {
      report.Fail("ShardedEngine::FromEngine: " + engine.status().ToString());
      break;
    }
    engines.push_back(
        std::make_unique<ilq::ShardedEngine>(std::move(engine).ValueOrDie()));
    ilq::ShardServerOptions so;
    so.serve.threads = 2;
    servers.push_back(std::make_unique<ilq::ShardServer>(*engines.back(), so));
    const ilq::Status started = servers.back()->Start();
    if (!started.ok()) {
      report.Fail("ShardServer::Start: " + started.ToString());
      break;
    }
    router_options.endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  router_options.map = split->map;
  auto router = ilq::Router::Make(std::move(router_options));
  const double setup_s = NsToMs(NowNs() - setup_start) / 1e3;
  if (!report.correct || !router.ok()) {
    if (!router.ok()) {
      report.Fail("Router::Make: " + router.status().ToString());
    }
    for (auto& s : servers) s->Stop();
    fs::remove_all(bundle_root);
    return report;
  }
  std::vector<const ilq::QueryEngine*> paged;
  for (auto& e : engines) paged.push_back(&e->shard(0));

  // The reference monolith over the whole image, in memory (not timed).
  auto mono = ilq::QueryEngine::Build(image.points, image.uncertains);
  if (!mono.ok()) {
    report.Fail("QueryEngine::Build: " + mono.status().ToString());
    for (auto& s : servers) s->Stop();
    fs::remove_all(bundle_root);
    return report;
  }
  auto check_against_mono = [&](const std::string& what, QueryMethod m,
                                const ilq::UncertainObject& issuer,
                                const ilq::AnswerSet& got, bool reference) {
    const ilq::BatchSpec spec = SpecFor(m, kQp);
    ilq::AnswerSet want = ilq::RunQueryMethod(*mono, m, issuer, spec);
    ilq::CanonicalizeAnswers(&want);
    std::string err = CompareIdentical(got, want);
    if (err.empty() && reference) {
      CheckOptions opts;
      opts.threshold_method = IsConstrained(m);
      opts.threshold = spec.query.threshold;
      err = CheckAnswers(got,
                         ReferenceAnswers(m, Pdf::kUniform, issuer.region(),
                                          kW, kW, ref_catalog),
                         opts);
    }
    ++report.checked;
    if (!err.empty()) {
      report.Fail(what + " " + ilq::QueryMethodName(m) + ": " + err);
    }
  };

  // ---- Rounds --------------------------------------------------------------
  std::vector<double> query_ms, update_ms;
  std::vector<double> replay_us, reeval_us;
  std::vector<double> router_self_us[4], encode_us[4], decode_us[4],
      response_bytes[4];
  std::vector<EngineRungs> engine_rungs[4];
  std::vector<ShardedRungs> sharded_rungs[4];
  int64_t oneshot_ns = 0, session_ns = 0;
  std::vector<double> oneshot_round_ms, session_round_ms;
  uint64_t queries = 0, updates = 0, session_calls = 0, failed = 0;
  uint64_t router_calls = 0, router_retries = 0, buffer_hits = 0,
           buffer_misses = 0;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  size_t round = 0;
  while (round < kMinRounds || oneshot_ns + session_ns < budget_ns) {
    // One-shot phase.
    const int64_t oneshot_before = oneshot_ns;
    const ilq::RouterStats rs0 = router->stats();
    const ilq::BufferCounters bc0 = Buffers(paged);
    uint64_t ladder_hits = 0, ladder_misses = 0;  // traced run only
    for (size_t i = 0; i < kOneShot; ++i) {
      const ilq::UncertainObject& issuer =
          oneshot->issuers[(round * kOneShot + i) % kOneShotPool];
      const QueryMethod m = kCycledMethods[i % 4];
      const uint64_t request = round * kOneShot + i;
      ilq::WireServeStats last;
      const uint64_t span = tracer->NewId();
      const int64_t t0 = NowNs();
      auto answers = router->Query(issuer, m, SpecFor(m, kQp), &last);
      const int64_t t1 = NowNs();
      tracer->Record(span, "net.router_query", t0, t1, 0, request);
      oneshot_ns += t1 - t0;
      ++queries;
      if (!answers.ok()) {
        ++failed;
        report.Fail("Router::Query: " + answers.status().ToString());
        continue;
      }
      query_ms.push_back(NsToMs(t1 - t0));
      // One request per kVerifyEvery, rotating through the four methods.
      if (i % kVerifyEvery != (i / kVerifyEvery) % 4) continue;
      check_against_mono("router", m, issuer, *answers,
                         (i / kVerifyEvery) % kReferenceEvery == 0);
      if (!tracer->on()) continue;
      const size_t mi = MethodIndex(m);
      const ilq::BatchSpec spec = SpecFor(m, kQp);
      Tracer::Scope root(tracer, "ladder", 0, request);
      const std::vector<size_t> routed =
          ilq::RouteOverShardMap(router->map(), m, issuer, spec.query);
      if (routed.size() == 1) {
        router_self_us[mi].push_back(NsToUs(t1 - t0) - last.server_ms * 1e3);
        // Engine and ShardedEngine rungs on the paged shard that served it.
        // Their page accesses are left out of the storage counters.
        const ilq::BufferCounters lb0 = Buffers(paged);
        const ilq::ShardedEngine& shard = *engines[routed[0]];
        engine_rungs[mi].push_back(RunEngineRungs(
            tracer, root.id(), request, shard.shard(0), m, issuer, spec));
        sharded_rungs[mi].push_back(RunShardedRungs(
            tracer, root.id(), request, shard, m, issuer, spec));
        const ilq::BufferCounters lb1 = Buffers(paged);
        ladder_hits += lb1.hits - lb0.hits;
        ladder_misses += lb1.misses - lb0.misses;
      }
      // Codec rungs on this request's own frames.
      ilq::WireRequest req;
      req.issuer_id = issuer.id();
      req.issuer_pdf = issuer.pdf_variant();
      req.method = m;
      req.spec = SpecFor(m, kQp);
      ilq::WireResponse resp;
      resp.answers = *answers;
      resp.stats = last;
      ilq::ByteWriter req_bytes, resp_bytes;
      int64_t c0 = NowNs();
      ilq::Status enc = ilq::EncodeRequest(req, &req_bytes);
      if (enc.ok()) enc = ilq::EncodeResponse(resp, &resp_bytes);
      int64_t c1 = NowNs();
      tracer->Record(tracer->NewId(), "wire.encode", c0, c1, root.id(),
                     request);
      encode_us[mi].push_back(NsToUs(c1 - c0));
      c0 = NowNs();
      auto dreq = ilq::DecodeRequest(req_bytes.bytes());
      auto dresp = ilq::DecodeResponse(resp_bytes.bytes());
      c1 = NowNs();
      tracer->Record(tracer->NewId(), "wire.decode", c0, c1, root.id(),
                     request);
      decode_us[mi].push_back(NsToUs(c1 - c0));
      response_bytes[mi].push_back(static_cast<double>(resp_bytes.size()));
      if (!enc.ok() || !dreq.ok() || !dresp.ok() ||
          !CompareIdentical(dresp->answers, *answers).empty()) {
        report.Fail("codec round trip of a served answer failed");
      }
    }
    oneshot_round_ms.push_back(NsToMs(oneshot_ns - oneshot_before));
    const ilq::RouterStats rs1 = router->stats();
    const ilq::BufferCounters bc1 = Buffers(paged);
    router_calls += rs1.shard_calls - rs0.shard_calls;
    router_retries += rs1.retries - rs0.retries;
    buffer_hits += bc1.hits - bc0.hits - ladder_hits;
    buffer_misses += bc1.misses - bc0.misses - ladder_misses;

    // Session phase: register, stream the steps interleaved, unregister.
    const size_t first = (round * kSessions) % kTrajectoryPool;
    std::vector<ilq::SubscriptionId> ids(kSessions, 0);
    for (size_t k = 0; k < kSessions; ++k) {
      const QueryMethod m = kSessionMethods[k % 2];
      const auto& steps = trajectories->steps[first + k];
      ++session_calls;
      auto reg = router->RegisterContinuous(m, SpecFor(m, kQp), steps[0]);
      if (!reg.ok()) {
        ++failed;
        report.Fail("RegisterContinuous: " + reg.status().ToString());
        continue;
      }
      ids[k] = reg->id;
      check_against_mono("session register", m, steps[0], reg->answer.answers,
                         k == 0);
    }
    const int64_t session_before = session_ns;
    for (size_t t = 1; t < kSteps; ++t) {
      for (size_t k = 0; k < kSessions; ++k) {
        if (ids[k] == 0) continue;
        const QueryMethod m = kSessionMethods[k % 2];
        const ilq::UncertainObject& at = trajectories->steps[first + k][t];
        const uint64_t span = tracer->NewId();
        const int64_t t0 = NowNs();
        auto answer = router->UpdateContinuous(ids[k], at);
        const int64_t t1 = NowNs();
        tracer->Record(span, "net.session_update", t0, t1, 0,
                       round * kSessions + k);
        session_ns += t1 - t0;
        ++updates;
        if (!answer.ok()) {
          ++failed;
          report.Fail("UpdateContinuous: " + answer.status().ToString());
          continue;
        }
        update_ms.push_back(NsToMs(t1 - t0));
        (answer->revalidated ? replay_us : reeval_us)
            .push_back(NsToUs(t1 - t0));
        // One update in four, rotating over sessions and steps.
        if ((t + k) % 4 == 0) {
          check_against_mono("session update", m, at, answer->answers,
                             t == kSteps / 2 && k < 2);
        }
      }
    }
    session_round_ms.push_back(NsToMs(session_ns - session_before));
    for (size_t k = 0; k < kSessions; ++k) {
      if (ids[k] == 0) continue;
      ++session_calls;
      const ilq::Status closed = router->UnregisterContinuous(ids[k]);
      if (!closed.ok()) {
        ++failed;
        report.Fail("UnregisterContinuous: " + closed.ToString());
      }
    }
    ++round;
  }

  uint64_t validations = 0, reevaluations = 0;
  for (auto& s : servers) {
    const ilq::ContinuousStats cs = s->continuous_stats();
    validations += cs.validations;
    reevaluations += cs.reevaluations;
  }
  for (auto& s : servers) s->Stop();
  fs::remove_all(bundle_root);

  report.attempted = queries + updates + session_calls;
  report.failed = failed;

  std::vector<Metric>& e2e = tracer->on() ? report.shadow : report.metrics;
  e2e.push_back({"setup_s", setup_s, "s"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  // A query is any request that returns an answer set: a one-shot
  // Router::Query or a session's UpdateContinuous. The rate comes from the
  // median round (both phases), so one round slowed by the host does not
  // move it; the latencies pool both kinds.
  std::vector<double> round_ms;
  for (size_t r = 0; r < oneshot_round_ms.size(); ++r) {
    round_ms.push_back(oneshot_round_ms[r] + session_round_ms[r]);
  }
  e2e.push_back({"query_qps",
                 (kOneShot + kSessions * (kSteps - 1)) /
                     (Median(round_ms) * 1e-3),
                 "queries/s"});
  std::vector<double> request_ms = query_ms;
  request_ms.insert(request_ms.end(), update_ms.begin(), update_ms.end());
  AddLatency(&e2e, "query", request_ms);
  std::printf("wire_sessions_paged: %zu rounds, %llu one-shot queries, %llu "
              "session updates, %llu answers verified; buffer budget "
              "%zu KiB per index (index bytes %zu KiB, shard 0)\n",
              round, static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(report.checked),
              index_bytes[0] / kBufferDivisor / 1024, index_bytes[0] / 1024);
  std::printf("wire_sessions_paged: median round %.1f ms (one-shot phase "
              "%.1f ms, session phase %.1f ms)\n",
              Median(round_ms), Median(oneshot_round_ms),
              Median(session_round_ms));

  if (tracer->on()) {
    double fanout = 0.0;
    size_t sharded_count = 0;
    for (size_t mi = 0; mi < 4; ++mi) {
      const std::string sfx = MethodSuffix(kCycledMethods[mi]);
      AddEngineMetrics(&report, kCycledMethods[mi], engine_rungs[mi]);
      std::vector<double> self;
      for (const ShardedRungs& r : sharded_rungs[mi]) {
        self.push_back(r.self_us);
        fanout += r.fanout;
        ++sharded_count;
      }
      report.Add("serve.sharded_self_us" + sfx, Median(self), "us");
      report.Add("wire.encode_us" + sfx, Median(encode_us[mi]), "us");
      report.Add("wire.decode_us" + sfx, Median(decode_us[mi]), "us");
      report.Add("wire.response_bytes" + sfx, Median(response_bytes[mi]),
                 "bytes");
      report.Add("net.router_self_us" + sfx, Median(router_self_us[mi]), "us");
    }
    report.Add("serve.fanout",
               sharded_count == 0 ? 0.0 : fanout / sharded_count, "shards");
    report.Add("net.shard_calls_per_query",
               static_cast<double>(router_calls) / static_cast<double>(queries),
               "calls");
    report.Add("net.retries", static_cast<double>(router_retries), "count");
    report.Add("continuous.validation_ratio",
               validations + reevaluations == 0
                   ? 0.0
                   : static_cast<double>(validations) /
                         static_cast<double>(validations + reevaluations),
               "ratio");
    report.Add("continuous.session_updates_per_s",
               kSessions * (kSteps - 1) / (Median(session_round_ms) * 1e-3),
               "updates/s");
    report.Add("continuous.replay_us", Median(replay_us), "us");
    report.Add("continuous.reeval_us", Median(reeval_us), "us");
    report.Add("storage.buffer_hit_ratio",
               buffer_hits + buffer_misses == 0
                   ? 0.0
                   : static_cast<double>(buffer_hits) /
                         static_cast<double>(buffer_hits + buffer_misses),
               "ratio");
    report.Add("storage.page_misses_per_query",
               static_cast<double>(buffer_misses) /
                   static_cast<double>(queries),
               "pages");
    report.Add("storage.mount_s", NsToMs(mount_ns) / 1e3, "s");
  }
  return report;
}

}  // namespace ilqbench
