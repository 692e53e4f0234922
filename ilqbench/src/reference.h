// Independent reference probabilities. Nothing here calls the library's
// probability code: the uniform cases are closed forms written out again,
// the Gaussian cases use std::erfc for the truncated-normal CDF and the
// benchmark's own composite Simpson quadrature. selftest.cc checks every
// formula against brute-force numeric integration.

#ifndef ILQBENCH_REFERENCE_H_
#define ILQBENCH_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "geometry/rect.h"
#include "object/point_object.h"

namespace ilqbench {

/// Pdf family of an issuer or of the uncertain objects. Gaussian means the
/// paper's Figure 13 pdf: a normal centred on the region with σ = side/6
/// per axis, truncated to the region.
enum class Pdf { kUniform, kGaussian };

/// |[lo, hi] ∩ [a, b]|.
double OverlapLength(double lo, double hi, double a, double b);

/// ∫_{x0}^{x1} |[x − w, x + w] ∩ [a, b]| dx, exact (the integrand is
/// piecewise linear; integrated piece by piece between its kinks).
double OverlapIntegral(double x0, double x1, double w, double a, double b);

/// Φ, the standard normal CDF.
double NormalCdf(double z);

/// CDF of the truncated normal over [lo, hi] with σ = (hi − lo)/6 centred
/// on the interval, evaluated at v (0 below lo, 1 above hi).
double TruncNormalCdf(double v, double lo, double hi);

/// Density of the same truncated normal.
double TruncNormalPdf(double v, double lo, double hi);

/// IPQ probability of a point at \p s: the issuer's mass in R(s).
double PointProbability(Pdf issuer, const ilq::Rect& u0, const ilq::Point& s,
                        double w, double h);

/// IUQ probability of an uncertain object over \p ui (pdf family
/// \p object) for an issuer over \p u0: ∫ f_i(x, y) · mass_issuer(R(x, y)).
/// Uniform ⊗ uniform is the closed form; every other pair integrates the
/// per-axis factor with composite Simpson between the kernel's kinks.
double UncertainProbability(Pdf issuer, const ilq::Rect& u0, Pdf object,
                            const ilq::Rect& ui, double w, double h);

/// Composite Simpson of f over [lo, hi] split at \p cuts, \p n (even)
/// intervals per piece.
template <typename F>
double PiecewiseSimpson(F&& f, double lo, double hi, std::vector<double> cuts,
                        int n) {
  if (hi <= lo) return 0.0;
  cuts.push_back(lo);
  cuts.push_back(hi);
  std::vector<double> pts;
  for (double c : cuts) {
    if (c >= lo && c <= hi) pts.push_back(c);
  }
  std::sort(pts.begin(), pts.end());
  double total = 0.0;
  for (size_t p = 0; p + 1 < pts.size(); ++p) {
    const double a = pts[p], b = pts[p + 1];
    if (b <= a) continue;
    const double step = (b - a) / n;
    double sum = f(a) + f(b);
    for (int i = 1; i < n; ++i) sum += f(a + step * i) * ((i & 1) ? 4 : 2);
    total += sum * step / 3.0;
  }
  return total;
}

/// One object the reference expects to be considered: every object whose
/// location (points) or region (uncertain objects) meets the closed
/// Minkowski box of the query, with its exact probability.
struct Expected {
  ilq::ObjectId id = 0;
  double p = 0.0;
};

/// The reference view of a catalog: point locations and uncertain regions
/// with their shared pdf family.
struct RefCatalog {
  const std::vector<ilq::PointObject>* points = nullptr;
  const std::vector<std::pair<ilq::ObjectId, ilq::Rect>>* regions = nullptr;
  Pdf object_pdf = Pdf::kUniform;
};

/// Brute-force scan of the catalog for \p method's dataset: every object
/// meeting the Minkowski box of (u0, w, h), with its exact probability.
std::vector<Expected> ReferenceAnswers(ilq::QueryMethod method, Pdf issuer,
                                       const ilq::Rect& u0, double w,
                                       double h, const RefCatalog& catalog);

/// ln P(X = k) for X ~ Binomial(n, p).
double BinomialLogPmf(int n, int k, double p);
/// P(X <= k) and P(X >= k).
double BinomialCdf(int n, int k, double p);
double BinomialSf(int n, int k, double p);

}  // namespace ilqbench

#endif  // ILQBENCH_REFERENCE_H_
