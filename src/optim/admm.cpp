#include "optim/admm.hpp"

#include <cmath>
#include <stdexcept>

#include "optim/lbfgs.hpp"

namespace drel::optim {
namespace {

constexpr double kInitialRho = 1.0;  ///< augmented-Lagrangian penalty at start
constexpr double kAbsTolerance = 1e-6;
constexpr double kRelTolerance = 1e-5;
constexpr int kSubproblemMaxIterations = 100;

/// f_i(x) + (rho/2) ||x - z + u||² — the ADMM x-update objective.
class AugmentedTerm final : public Objective {
 public:
    AugmentedTerm(const Objective& base, const linalg::Vector& target, double rho)
        : base_(base), target_(target), rho_(rho) {}

    std::size_t dim() const override { return base_.dim(); }

    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        const double f = base_.eval(x, grad);
        const linalg::Vector diff = linalg::sub(x, target_);
        if (grad) linalg::axpy(rho_, diff, *grad);
        return f + 0.5 * rho_ * linalg::dot(diff, diff);
    }

 private:
    const Objective& base_;
    const linalg::Vector& target_;
    double rho_;
};

}  // namespace

AdmmResult minimize_consensus_admm(const std::vector<const Objective*>& terms,
                                   linalg::Vector z0, const AdmmOptions& options) {
    if (terms.empty()) throw std::invalid_argument("consensus_admm: no terms");
    const std::size_t d = terms.front()->dim();
    for (const Objective* t : terms) {
        if (t == nullptr || t->dim() != d) {
            throw std::invalid_argument("consensus_admm: terms must share a dimension");
        }
    }
    if (z0.size() != d) throw std::invalid_argument("consensus_admm: z0 dimension mismatch");

    const std::size_t m = terms.size();
    AdmmResult result;
    result.z = std::move(z0);
    std::vector<linalg::Vector> x(m, result.z);
    std::vector<linalg::Vector> u(m, linalg::zeros(d));
    double rho = kInitialRho;

    LbfgsOptions sub_options;
    sub_options.stopping.max_iterations = kSubproblemMaxIterations;
    sub_options.stopping.grad_tolerance = 1e-8;

    for (int it = 0; it < options.max_iterations; ++it) {
        result.iterations = it + 1;

        // x-updates (independent across terms; each solves the local prox).
        for (std::size_t i = 0; i < m; ++i) {
            linalg::Vector target = linalg::sub(result.z, u[i]);
            const AugmentedTerm aug(*terms[i], target, rho);
            x[i] = minimize_lbfgs(aug, x[i], sub_options).x;
        }

        // z-update: average of x_i + u_i.
        linalg::Vector z_new = linalg::zeros(d);
        for (std::size_t i = 0; i < m; ++i) {
            linalg::axpy(1.0, x[i], z_new);
            linalg::axpy(1.0, u[i], z_new);
        }
        linalg::scale(z_new, 1.0 / static_cast<double>(m));

        // Dual updates and residuals.
        double primal_sq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            const linalg::Vector r = linalg::sub(x[i], z_new);
            primal_sq += linalg::dot(r, r);
            linalg::axpy(1.0, r, u[i]);
        }
        const linalg::Vector z_diff = linalg::sub(z_new, result.z);
        const double dual = rho * std::sqrt(static_cast<double>(m)) * linalg::norm2(z_diff);
        result.primal_residual = std::sqrt(primal_sq);
        result.dual_residual = dual;
        result.z = std::move(z_new);

        const double eps_primal =
            kAbsTolerance * std::sqrt(static_cast<double>(m * d)) +
            kRelTolerance * linalg::norm2(result.z) * std::sqrt(static_cast<double>(m));
        const double eps_dual = kAbsTolerance * std::sqrt(static_cast<double>(d)) +
                                kRelTolerance * rho * linalg::norm2(u.front());
        if (result.primal_residual <= eps_primal && result.dual_residual <= eps_dual) {
            result.converged = true;
            break;
        }

        // Residual balancing (Boyd §3.4.1) keeps primal and dual progress
        // comparable; rescale the scaled duals when rho changes.
        if (result.primal_residual > 10.0 * result.dual_residual) {
            rho *= 2.0;
            for (auto& ui : u) linalg::scale(ui, 0.5);
        } else if (result.dual_residual > 10.0 * result.primal_residual) {
            rho *= 0.5;
            for (auto& ui : u) linalg::scale(ui, 2.0);
        }
    }
    return result;
}

}  // namespace drel::optim
