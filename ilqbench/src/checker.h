// The answer checker: method properties plus agreement with the
// independent references of reference.h.

#ifndef ILQBENCH_CHECKER_H_
#define ILQBENCH_CHECKER_H_

#include <string>
#include <vector>

#include "core/query.h"
#include "reference.h"

namespace ilqbench {

struct CheckOptions {
  /// Threshold method (C-IPQ / C-IUQ): answers need p >= threshold.
  bool threshold_method = false;
  double threshold = 0.0;
  /// Monte-Carlo answers are hit counts k / mc_samples; each must be a
  /// plausible draw from Binomial(mc_samples, exact p): both of its tails
  /// at k must exceed alpha. An object is required in the answer when the
  /// chance that its estimate misses the threshold is below alpha.
  bool monte_carlo = false;
  int mc_samples = 250;
  double alpha = 1e-12;
  /// Exact answers must match the reference probability to this.
  double tolerance = 1e-9;
};

/// Checks \p got against the reference (every object meeting the
/// Minkowski box, with its exact probability). Returns "" when the answer
/// passes, else a description of the first failure:
///   - probability outside (0, 1], or below the threshold;
///   - an id twice, or an id outside the Minkowski box;
///   - a probability off the reference (beyond the tolerance, or beyond
///     the binomial bound);
///   - an object the reference requires but the answer lacks.
std::string CheckAnswers(const ilq::AnswerSet& got,
                         const std::vector<Expected>& reference,
                         const CheckOptions& options);

/// "" when \p a and \p b hold the same answers, bit for bit and in order.
std::string CompareIdentical(const ilq::AnswerSet& a,
                             const ilq::AnswerSet& b);

/// "" when \p constrained equals \p unconstrained filtered at \p qp (both
/// in canonical id order).
std::string CheckFiltered(const ilq::AnswerSet& constrained,
                          const ilq::AnswerSet& unconstrained, double qp);

}  // namespace ilqbench

#endif  // ILQBENCH_CHECKER_H_
