#include "checker.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace ilqbench {

namespace {

std::string Describe(const char* what, ilq::ObjectId id, double got,
                     double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: id %llu p=%.17g reference=%.17g",
                what, static_cast<unsigned long long>(id), got, want);
  return buf;
}

// Smallest hit count whose estimate k/n the evaluators keep.
int MinKeptHits(const CheckOptions& o) {
  const double floor = o.threshold_method ? o.threshold : 0.0;
  for (int k = 1; k <= o.mc_samples; ++k) {
    const double est =
        static_cast<double>(k) / static_cast<double>(o.mc_samples);
    if (est >= floor) return k;
  }
  return o.mc_samples + 1;
}

}  // namespace

std::string CheckAnswers(const ilq::AnswerSet& got,
                         const std::vector<Expected>& reference,
                         const CheckOptions& o) {
  std::unordered_map<ilq::ObjectId, double> ref;
  ref.reserve(reference.size());
  for (const Expected& e : reference) ref[e.id] = e.p;
  std::unordered_set<ilq::ObjectId> seen;
  seen.reserve(got.size());
  for (const ilq::ProbabilisticAnswer& a : got) {
    if (!seen.insert(a.id).second) {
      return Describe("duplicate answer", a.id, a.probability, 0.0);
    }
    // Exact probabilities of 1 may round to 1 + 2^-52; the tolerance that
    // bounds every reference comparison bounds this one too.
    const double ceiling = o.monte_carlo ? 1.0 : 1.0 + o.tolerance;
    if (!(a.probability > 0.0 && a.probability <= ceiling)) {
      return Describe("probability outside (0, 1]", a.id, a.probability, 0.0);
    }
    if (o.threshold_method && a.probability < o.threshold) {
      return Describe("answer below the threshold", a.id, a.probability,
                      o.threshold);
    }
    auto it = ref.find(a.id);
    if (it == ref.end()) {
      return Describe("answer outside the Minkowski box", a.id, a.probability,
                      0.0);
    }
    const double p = it->second;
    if (o.monte_carlo) {
      const double scaled = a.probability * o.mc_samples;
      const double k = std::round(scaled);
      if (std::fabs(scaled - k) > 1e-6) {
        return Describe("estimate is not a hit fraction", a.id, a.probability,
                        p);
      }
      const int hits = static_cast<int>(k);
      if (BinomialCdf(o.mc_samples, hits, p) < o.alpha ||
          BinomialSf(o.mc_samples, hits, p) < o.alpha) {
        return Describe("estimate beyond the binomial bound", a.id,
                        a.probability, p);
      }
    } else if (std::fabs(a.probability - p) > o.tolerance) {
      return Describe("probability off the reference", a.id, a.probability, p);
    }
  }
  const int min_hits = o.monte_carlo ? MinKeptHits(o) : 0;
  for (const Expected& e : reference) {
    if (seen.count(e.id) != 0) continue;
    bool required;
    if (o.monte_carlo) {
      required = min_hits > o.mc_samples
                     ? false
                     : BinomialCdf(o.mc_samples, min_hits - 1, e.p) < o.alpha;
    } else {
      const double floor = o.threshold_method ? o.threshold : 0.0;
      required = e.p > o.tolerance && e.p >= floor + o.tolerance;
    }
    if (required) return Describe("answer missing", e.id, 0.0, e.p);
  }
  return "";
}

std::string CompareIdentical(const ilq::AnswerSet& a,
                             const ilq::AnswerSet& b) {
  if (a.size() != b.size()) {
    return "answer count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].probability != b[i].probability) {
      return Describe("answers differ", a[i].id, a[i].probability,
                      b[i].probability);
    }
  }
  return "";
}

std::string CheckFiltered(const ilq::AnswerSet& constrained,
                          const ilq::AnswerSet& unconstrained, double qp) {
  ilq::AnswerSet filtered;
  for (const ilq::ProbabilisticAnswer& a : unconstrained) {
    if (a.probability >= qp) filtered.push_back(a);
  }
  const std::string diff = CompareIdentical(constrained, filtered);
  return diff.empty() ? "" : "constrained != unconstrained filtered: " + diff;
}

}  // namespace ilqbench
