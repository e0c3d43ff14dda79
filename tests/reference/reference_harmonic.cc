#include "reference/reference_harmonic.h"

#include <algorithm>
#include <cmath>

namespace wmp::plan::reference {

namespace {

// Exact-summation limit of plan/cardinality.cc.
constexpr double kExactLimit = 2048.0;

// Integral tail of H_n(theta) past the exact prefix (n > kExactLimit).
double HarmonicTail(double n, double theta) {
  if (std::fabs(theta - 1.0) < 1e-9) {
    return std::log((n + 0.5) / (kExactLimit + 0.5));
  }
  return (std::pow(n + 0.5, 1.0 - theta) -
          std::pow(kExactLimit + 0.5, 1.0 - theta)) /
         (1.0 - theta);
}

}  // namespace

double HarmonicUncached(double n, double theta) {
  const double exact_n = std::min(n, kExactLimit);
  double sum = 0.0;
  for (double k = 1.0; k <= exact_n; k += 1.0) sum += std::pow(k, -theta);
  if (n <= kExactLimit) return sum;
  return sum + HarmonicTail(n, theta);
}

}  // namespace wmp::plan::reference
