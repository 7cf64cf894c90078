#include "core/em_dro.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/executor.hpp"
#include "util/workspace.hpp"

namespace drel::core {
namespace {

// Deterministic event counts (see DESIGN.md "Observability"): per-solve
// E-step/outer-iteration totals are pure functions of the inputs, so these
// aggregate bit-identically at any thread count.
obs::Counter& solve_calls() {
    static obs::Counter& c = obs::Registry::global().counter("em.solve_calls");
    return c;
}
obs::Counter& multi_start_runs() {
    static obs::Counter& c = obs::Registry::global().counter("em.multi_start_runs");
    return c;
}
obs::Counter& outer_iteration_count() {
    static obs::Counter& c = obs::Registry::global().counter("em.outer_iterations");
    return c;
}
obs::Counter& e_step_count() {
    static obs::Counter& c = obs::Registry::global().counter("em.e_steps");
    return c;
}
obs::Histogram& outer_iterations_histogram() {
    static obs::Histogram& h = obs::Registry::global().histogram(
        "em.outer_iterations_per_solve", {1, 2, 4, 8, 16, 32, 64});
    return h;
}
obs::Counter& non_finite_states() {
    static obs::Counter& c = obs::Registry::global().counter("em.non_finite_states");
    return c;
}

bool vector_is_finite(const linalg::Vector& v) noexcept {
    for (const double x : v) {
        if (!std::isfinite(x)) return false;
    }
    return true;
}

/// M-step objective: R(theta) - w * Q(theta; r), with r fixed.
class MStepObjective final : public optim::Objective {
 public:
    MStepObjective(const optim::Objective& robust, const dp::MixturePrior& prior,
                   const linalg::Vector& responsibilities, double weight)
        : robust_(robust), prior_(prior), r_(responsibilities), weight_(weight) {}

    std::size_t dim() const override { return robust_.dim(); }

    double eval(const linalg::Vector& theta, linalg::Vector* grad) const override {
        util::Workspace& ws = util::Workspace::local();
        const double value = robust_.eval(theta, grad);
        if (!grad) return value - weight_ * prior_.em_surrogate_ws(theta, r_, ws);
        // The fused kernel computes the surrogate value and its gradient in
        // one pass over the atoms. The gradient accumulates in leased
        // scratch and folds in with one axpy: the same two-stage order (and
        // bits) as axpy(-w, em_surrogate_gradient(theta, r), grad), minus
        // the allocation per L-BFGS line-search probe.
        auto g = ws.vec(dim());
        const double surrogate = prior_.em_surrogate_and_gradient_into(theta, r_, *g, ws);
        linalg::axpy_n(-weight_, g->data(), grad->data(), dim());
        return value - weight_ * surrogate;
    }

 private:
    const optim::Objective& robust_;
    const dp::MixturePrior& prior_;
    const linalg::Vector& r_;
    double weight_;
};

double entropy(const linalg::Vector& p) {
    double h = 0.0;
    for (const double v : p) {
        if (v > 0.0) h -= v * std::log(v);
    }
    return h;
}

}  // namespace

EmDroSolver::EmDroSolver(const models::Dataset& data, const models::Loss& loss,
                         const dp::MixturePrior& prior, const dro::AmbiguitySet& ambiguity,
                         double transfer_weight, EmDroOptions options)
    : prior_(&prior),
      weight_(0.0),
      options_(std::move(options)),
      owned_robust_(dro::make_robust_objective(data, loss, ambiguity)) {
    if (data.empty()) throw std::invalid_argument("EmDroSolver: empty dataset");
    if (!(transfer_weight >= 0.0)) {
        throw std::invalid_argument("EmDroSolver: transfer_weight must be >= 0");
    }
    if (prior.dim() != data.dim()) {
        throw std::invalid_argument("EmDroSolver: prior dimension " +
                                    std::to_string(prior.dim()) + " != data dimension " +
                                    std::to_string(data.dim()));
    }
    weight_ = transfer_weight / static_cast<double>(data.size());
}

EmDroSolver::EmDroSolver(const optim::Objective& robust_objective,
                         const dp::MixturePrior& prior, double penalty_weight,
                         EmDroOptions options)
    : prior_(&prior),
      weight_(penalty_weight),
      options_(std::move(options)),
      external_robust_(&robust_objective) {
    if (!(penalty_weight >= 0.0)) {
        throw std::invalid_argument("EmDroSolver: penalty_weight must be >= 0");
    }
    if (prior.dim() != robust_objective.dim()) {
        throw std::invalid_argument("EmDroSolver: prior/objective dimension mismatch");
    }
}

double EmDroSolver::objective(const linalg::Vector& theta) const {
    return robust().value(theta) - weight_ * prior_->log_pdf(theta);
}

EmDroResult EmDroSolver::solve_from(const linalg::Vector& theta0) const {
    if (theta0.size() != prior_->dim()) {
        throw std::invalid_argument("EmDroSolver::solve_from: theta0 dimension mismatch");
    }
    DREL_PROFILE_SCOPE("em.solve_from");
    EmDroResult result;
    result.theta = theta0;
    double current = objective(result.theta);
    // Non-finite states (degenerate prior atoms, overflowing losses) end the
    // solve at the last finite iterate with hit_non_finite set — a reported
    // degradation, never a throw (see DESIGN.md "Fault model").
    if (!std::isfinite(current) || !vector_is_finite(result.theta)) {
        non_finite_states().add(1);
        result.hit_non_finite = true;
        result.objective = current;
        result.trace.objective.push_back(current);
        result.final_responsibilities = linalg::zeros(prior_->num_components());
        return result;
    }

    for (int it = 0; it < options_.max_outer_iterations; ++it) {
        // E-step.
        e_step_count().add(1);
        const linalg::Vector r = [&] {
            DREL_PROFILE_SCOPE("em.e_step");
            return prior_->responsibilities(result.theta);
        }();

        result.trace.objective.push_back(current);
        result.trace.robust_loss.push_back(robust().value(result.theta));
        result.trace.log_prior.push_back(prior_->log_pdf(result.theta));
        result.trace.responsibility_entropy.push_back(entropy(r));

        // M-step: convex, solved by L-BFGS from the current iterate.
        const MStepObjective m_step(robust(), *prior_, r, weight_);
        const optim::OptimResult inner = [&] {
            DREL_PROFILE_SCOPE("em.m_step");
            return optim::minimize_lbfgs(m_step, result.theta, optim::LbfgsOptions{});
        }();

        const double next = objective(inner.x);
        result.trace.outer_iterations = it + 1;
        if (!std::isfinite(next) || !vector_is_finite(inner.x)) {
            non_finite_states().add(1);
            result.hit_non_finite = true;
            break;  // keep the last finite iterate
        }
        // Majorize-minimize guarantees next <= current up to solver slack;
        // guard against a failed inner solve making things worse.
        if (next > current + 1e-10 * (std::fabs(current) + 1.0)) {
            result.trace.converged = true;
            break;
        }
        const double decrease = current - next;
        result.theta = inner.x;
        current = next;
        if (decrease <= options_.objective_tolerance * (std::fabs(current) + 1.0)) {
            result.trace.converged = true;
            break;
        }
    }
    result.trace.objective.push_back(current);
    result.objective = current;
    result.final_responsibilities = prior_->responsibilities(result.theta);
    result.total_outer_iterations = result.trace.outer_iterations;
    outer_iteration_count().add(static_cast<std::uint64_t>(result.trace.outer_iterations));
    outer_iterations_histogram().observe(
        static_cast<std::uint64_t>(result.trace.outer_iterations));
    return result;
}

EmDroResult EmDroSolver::solve() const {
    DREL_PROFILE_SCOPE("em.solve");
    solve_calls().add(1);
    // Candidate starts: prior mean plus the heaviest atoms. Multi-modality
    // of the DP prior is exactly why a single start is not enough.
    std::vector<linalg::Vector> starts;
    starts.push_back(prior_->mean());
    const std::vector<std::size_t> order = prior_->components_by_weight();
    const int atoms = std::min<int>(options_.multi_start_atoms,
                                    static_cast<int>(prior_->num_components()));
    for (int k = 0; k < atoms; ++k) starts.push_back(prior_->atom(order[k]).mean());

    // Starts are independent EM runs into indexed slots; the winner is
    // picked by a fixed-order scan below, so the result is bit-identical to
    // the serial loop at any thread count.
    multi_start_runs().add(starts.size());
    std::vector<EmDroResult> candidates(starts.size());
    util::parallel_for(starts.size(), options_.num_threads,
                       [&](std::size_t s) { candidates[s] = solve_from(starts[s]); });

    EmDroResult best;
    bool have_best = false;
    int total_iterations = 0;
    for (EmDroResult& candidate : candidates) {
        total_iterations += candidate.total_outer_iterations;
        // Any start that stayed finite beats every start that did not; among
        // equals, the lower final objective wins (fixed scan order keeps the
        // winner bit-identical at any thread count).
        const bool preferred =
            !have_best ||
            (best.hit_non_finite && !candidate.hit_non_finite) ||
            (best.hit_non_finite == candidate.hit_non_finite &&
             candidate.objective < best.objective);
        if (preferred) {
            best = std::move(candidate);
            have_best = true;
        }
    }
    best.total_outer_iterations = total_iterations;
    return best;
}

}  // namespace drel::core
