#ifndef WMP_TESTS_REFERENCE_REFERENCE_HARMONIC_H_
#define WMP_TESTS_REFERENCE_REFERENCE_HARMONIC_H_

/// \file reference_harmonic.h
/// Direct summation of the generalized harmonic number, the oracle that
/// plan::HarmonicApprox's per-theta prefix tables must match bitwise.

namespace wmp::plan::reference {

/// `sum_{k=1..min(n, 2048)} k^-theta` by a plain left-to-right loop, plus
/// the same midpoint-corrected integral tail as HarmonicApprox for n > 2048.
double HarmonicUncached(double n, double theta);

}  // namespace wmp::plan::reference

#endif  // WMP_TESTS_REFERENCE_REFERENCE_HARMONIC_H_
