#include "edgesim/collaborative.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "dro/robust_objective.hpp"
#include "linalg/vector_ops.hpp"
#include "util/executor.hpp"

namespace drel::edgesim {
namespace {

/// Extra EM starts at the heaviest prior atoms (plus the prior mean); the
/// best final objective wins, as in core::EmDroSolver.
constexpr std::size_t kMultiStartAtoms = 3;

/// alpha * f(x) wrapper.
class ScaledObjective final : public optim::Objective {
 public:
    ScaledObjective(const optim::Objective& base, double alpha) : base_(base), alpha_(alpha) {}

    std::size_t dim() const override { return base_.dim(); }

    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        const double value = alpha_ * base_.eval(x, grad);
        if (grad) linalg::scale(*grad, alpha_);
        return value;
    }

 private:
    const optim::Objective& base_;
    double alpha_;
};

/// -w * Q(theta; r): the prior's EM-surrogate penalty as an ADMM term.
class PriorSurrogateObjective final : public optim::Objective {
 public:
    PriorSurrogateObjective(const dp::MixturePrior& prior, const linalg::Vector& r,
                            double weight)
        : prior_(prior), r_(r), weight_(weight) {}

    std::size_t dim() const override { return prior_.dim(); }

    double eval(const linalg::Vector& theta, linalg::Vector* grad) const override {
        const double value = -weight_ * prior_.em_surrogate(theta, r_);
        if (grad) {
            *grad = prior_.em_surrogate_gradient(theta, r_);
            linalg::scale(*grad, -weight_);
        }
        return value;
    }

 private:
    const dp::MixturePrior& prior_;
    const linalg::Vector& r_;
    double weight_;
};

}  // namespace

CollaborativeResult collaborative_fit(const std::vector<const models::Dataset*>& devices,
                                      const dp::MixturePrior& prior,
                                      const CollaborativeConfig& config) {
    if (devices.empty()) throw std::invalid_argument("collaborative_fit: no devices");
    std::size_t total = 0;
    for (const models::Dataset* d : devices) {
        if (d == nullptr || d->empty()) {
            throw std::invalid_argument("collaborative_fit: null or empty device dataset");
        }
        if (d->dim() != prior.dim()) {
            throw std::invalid_argument("collaborative_fit: device/prior dimension mismatch");
        }
        total += d->size();
    }
    if (!(config.transfer_weight >= 0.0)) {
        throw std::invalid_argument("collaborative_fit: transfer_weight must be >= 0");
    }

    const auto loss = models::make_loss(config.loss);
    const double inv_total = 1.0 / static_cast<double>(total);

    // Per-device robust objectives with their own rho(n_i) schedule, each
    // weighted by its data share so the sum matches pooled-average risk.
    std::vector<std::unique_ptr<optim::Objective>> robust;
    std::vector<std::unique_ptr<ScaledObjective>> scaled;
    for (const models::Dataset* d : devices) {
        dro::AmbiguitySet set{config.ambiguity, 0.0};
        if (set.kind != dro::AmbiguityKind::kNone) {
            set.radius = dro::radius_for_sample_size(config.radius_coefficient, d->size());
        }
        robust.push_back(dro::make_robust_objective(*d, *loss, set));
        scaled.push_back(std::make_unique<ScaledObjective>(
            *robust.back(), static_cast<double>(d->size()) * inv_total));
    }
    const double prior_weight = config.transfer_weight * inv_total;

    auto objective = [&](const linalg::Vector& theta) {
        double value = -prior_weight * prior.log_pdf(theta);
        for (const auto& s : scaled) value += s->value(theta);
        return value;
    };

    auto solve_from = [&](linalg::Vector z) {
        CollaborativeResult result;
        double current = objective(z);
        for (int it = 0; it < config.max_outer_iterations; ++it) {
            result.objective_trace.push_back(current);
            const linalg::Vector r = prior.responsibilities(z);
            const PriorSurrogateObjective prior_term(prior, r, prior_weight);

            std::vector<const optim::Objective*> terms;
            for (const auto& s : scaled) terms.push_back(s.get());
            terms.push_back(&prior_term);

            const optim::AdmmResult m_step =
                optim::minimize_consensus_admm(terms, z, config.admm);
            result.total_admm_iterations += m_step.iterations;

            const double next = objective(m_step.z);
            result.outer_iterations = it + 1;
            if (next > current + 1e-9 * (std::fabs(current) + 1.0)) {
                // ADMM slack made things worse; keep the previous iterate.
                result.converged = true;
                break;
            }
            const double decrease = current - next;
            z = m_step.z;
            current = next;
            if (decrease <= config.objective_tolerance * (std::fabs(current) + 1.0)) {
                result.converged = true;
                break;
            }
        }
        result.objective_trace.push_back(current);
        result.objective = current;
        result.responsibilities = prior.responsibilities(z);
        result.model = models::LinearModel(std::move(z));
        return result;
    };

    // Multi-start: prior mean + heaviest atoms, best objective wins (the DP
    // prior is multi-modal by design; a single start can lock onto the wrong
    // device type).
    std::vector<linalg::Vector> starts;
    starts.push_back(prior.mean());
    const std::vector<std::size_t> order = prior.components_by_weight();
    const std::size_t atoms = std::min(kMultiStartAtoms, prior.num_components());
    for (std::size_t k = 0; k < atoms; ++k) starts.push_back(prior.atom(order[k]).mean());

    // Starts solve independently into indexed slots; the fixed-order scan
    // below keeps the winner bit-identical to the serial loop at any thread
    // count (solve_from only reads the shared prior/objectives).
    std::vector<CollaborativeResult> candidates(starts.size());
    util::parallel_for(starts.size(), config.num_threads,
                       [&](std::size_t s) { candidates[s] = solve_from(starts[s]); });

    CollaborativeResult best;
    bool have_best = false;
    for (CollaborativeResult& candidate : candidates) {
        if (!have_best || candidate.objective < best.objective) {
            best = std::move(candidate);
            have_best = true;
        }
    }
    return best;
}

}  // namespace drel::edgesim
