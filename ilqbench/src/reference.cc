#include "reference.h"

#include <cmath>

namespace ilqbench {

double OverlapLength(double lo, double hi, double a, double b) {
  return std::max(0.0, std::min(hi, b) - std::max(lo, a));
}

double OverlapIntegral(double x0, double x1, double w, double a, double b) {
  if (x1 <= x0) return 0.0;
  std::vector<double> pts = {x0, x1};
  for (double k : {a - w, a + w, b - w, b + w}) {
    if (k > x0 && k < x1) pts.push_back(k);
  }
  std::sort(pts.begin(), pts.end());
  auto g = [&](double x) { return OverlapLength(x - w, x + w, a, b); };
  double total = 0.0;
  for (size_t i = 0; i + 1 < pts.size(); ++i) {
    total += 0.5 * (g(pts[i]) + g(pts[i + 1])) * (pts[i + 1] - pts[i]);
  }
  return total;
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

namespace {

// Mass of the standard normal in [-3, 3]: the truncation of a region that
// spans ±3σ.
double ThreeSigmaMass() {
  static const double mass = NormalCdf(3.0) - NormalCdf(-3.0);
  return mass;
}

// CDF of the issuer's marginal over [a, b] at v.
double MarginalCdf(Pdf pdf, double v, double a, double b) {
  if (pdf == Pdf::kGaussian) return TruncNormalCdf(v, a, b);
  if (v <= a) return 0.0;
  if (v >= b) return 1.0;
  return (v - a) / (b - a);
}

double MarginalPdf(Pdf pdf, double v, double a, double b) {
  if (pdf == Pdf::kGaussian) return TruncNormalPdf(v, a, b);
  return (v < a || v > b) ? 0.0 : 1.0 / (b - a);
}

// Per-axis factor of the IUQ probability: ∫ f_o(x) · (F_q(x + w) −
// F_q(x − w)) dx over the object's extent [c, d], issuer extent [a, b].
double AxisFactor(Pdf issuer, double a, double b, Pdf object, double c,
                  double d, double w) {
  if (issuer == Pdf::kUniform && object == Pdf::kUniform) {
    return OverlapIntegral(c, d, w, a, b) / ((b - a) * (d - c));
  }
  auto f = [&](double x) {
    return MarginalPdf(object, x, c, d) *
           (MarginalCdf(issuer, x + w, a, b) -
            MarginalCdf(issuer, x - w, a, b));
  };
  return PiecewiseSimpson(f, c, d, {a - w, a + w, b - w, b + w}, 64);
}

}  // namespace

double TruncNormalCdf(double v, double lo, double hi) {
  if (v <= lo) return 0.0;
  if (v >= hi) return 1.0;
  const double mu = 0.5 * (lo + hi);
  const double sigma = (hi - lo) / 6.0;
  return (NormalCdf((v - mu) / sigma) - NormalCdf(-3.0)) / ThreeSigmaMass();
}

double TruncNormalPdf(double v, double lo, double hi) {
  if (v < lo || v > hi) return 0.0;
  const double mu = 0.5 * (lo + hi);
  const double sigma = (hi - lo) / 6.0;
  const double z = (v - mu) / sigma;
  return std::exp(-0.5 * z * z) / (sigma * std::sqrt(2.0 * M_PI)) /
         ThreeSigmaMass();
}

double PointProbability(Pdf issuer, const ilq::Rect& u0, const ilq::Point& s,
                        double w, double h) {
  if (issuer == Pdf::kUniform) {
    const double ox = OverlapLength(s.x - w, s.x + w, u0.xmin, u0.xmax);
    const double oy = OverlapLength(s.y - h, s.y + h, u0.ymin, u0.ymax);
    return (ox * oy) / ((u0.xmax - u0.xmin) * (u0.ymax - u0.ymin));
  }
  const double mx = TruncNormalCdf(s.x + w, u0.xmin, u0.xmax) -
                    TruncNormalCdf(s.x - w, u0.xmin, u0.xmax);
  const double my = TruncNormalCdf(s.y + h, u0.ymin, u0.ymax) -
                    TruncNormalCdf(s.y - h, u0.ymin, u0.ymax);
  return mx * my;
}

double UncertainProbability(Pdf issuer, const ilq::Rect& u0, Pdf object,
                            const ilq::Rect& ui, double w, double h) {
  return AxisFactor(issuer, u0.xmin, u0.xmax, object, ui.xmin, ui.xmax, w) *
         AxisFactor(issuer, u0.ymin, u0.ymax, object, ui.ymin, ui.ymax, h);
}

std::vector<Expected> ReferenceAnswers(ilq::QueryMethod method, Pdf issuer,
                                       const ilq::Rect& u0, double w,
                                       double h, const RefCatalog& catalog) {
  const double bx0 = u0.xmin - w, bx1 = u0.xmax + w;
  const double by0 = u0.ymin - h, by1 = u0.ymax + h;
  std::vector<Expected> out;
  if (ilq::QueryMethodUsesPoints(method)) {
    for (const ilq::PointObject& p : *catalog.points) {
      const double x = p.location.x, y = p.location.y;
      if (x < bx0 || x > bx1 || y < by0 || y > by1) continue;
      out.push_back({p.id, PointProbability(issuer, u0, p.location, w, h)});
    }
  } else {
    for (const auto& [id, r] : *catalog.regions) {
      if (r.xmax < bx0 || r.xmin > bx1 || r.ymax < by0 || r.ymin > by1) {
        continue;
      }
      out.push_back(
          {id, UncertainProbability(issuer, u0, catalog.object_pdf, r, w, h)});
    }
  }
  return out;
}

double BinomialLogPmf(int n, int k, double p) {
  if (k < 0 || k > n) return -INFINITY;
  if (p <= 0.0) return k == 0 ? 0.0 : -INFINITY;
  if (p >= 1.0) return k == n ? 0.0 : -INFINITY;
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
         std::lgamma(n - k + 1.0) + k * std::log(p) +
         (n - k) * std::log1p(-p);
}

namespace {

// Σ P(X = i) for i in [lo, hi]: one log-space term at the point of the
// range nearest the mode (the largest term, so nothing underflows that
// matters), then the pmf's ratio recurrence outwards in both directions.
double BinomialRange(int n, int lo, int hi, double p) {
  lo = std::max(lo, 0);
  hi = std::min(hi, n);
  if (lo > hi) return 0.0;
  if (p <= 0.0) return lo == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return hi == n ? 1.0 : 0.0;
  const double odds = p / (1.0 - p);
  const int start =
      std::clamp(static_cast<int>(std::floor((n + 1) * p)), lo, hi);
  const double peak = std::exp(BinomialLogPmf(n, start, p));
  double total = peak;
  double term = peak;
  // P(i + 1) = P(i) · odds · (n − i) / (i + 1)
  for (int i = start; i < hi; ++i) {
    term *= odds * static_cast<double>(n - i) / static_cast<double>(i + 1);
    total += term;
  }
  term = peak;
  // P(i − 1) = P(i) · i / ((n − i + 1) · odds)
  for (int i = start; i > lo; --i) {
    term *= static_cast<double>(i) / (static_cast<double>(n - i + 1) * odds);
    total += term;
  }
  return std::min(total, 1.0);
}

}  // namespace

double BinomialCdf(int n, int k, double p) { return BinomialRange(n, 0, k, p); }

double BinomialSf(int n, int k, double p) { return BinomialRange(n, k, n, p); }

}  // namespace ilqbench
