// Log-densities of the standard distributions the DP machinery composes.
//
// Everything works in log space; the Gibbs sampler and the EM responsibility
// updates both hinge on numerically safe log-density arithmetic.
#pragma once

#include "linalg/vector_ops.hpp"

namespace drel::stats {

/// log N(x; mean, var)
double log_normal_pdf(double x, double mean, double var);

/// log Student-t(x; dof, loc, scale)
double log_student_t_pdf(double x, double dof, double loc, double scale);

/// Digamma function ψ(x) (needed by variational DP updates).
double digamma(double x);

}  // namespace drel::stats
