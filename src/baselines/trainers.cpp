#include "baselines/trainers.hpp"

#include <stdexcept>
#include <utility>

#include "dro/robust_objective.hpp"
#include "models/erm_objective.hpp"
#include "optim/gradient_descent.hpp"
#include "optim/lbfgs.hpp"

namespace drel::baselines {
namespace {

linalg::Vector solve_convex(const optim::Objective& objective, linalg::Vector start) {
    optim::LbfgsOptions options;
    options.stopping.max_iterations = 400;
    options.stopping.grad_tolerance = 1e-7;
    return optim::minimize_lbfgs(objective, std::move(start), options).x;
}

class LocalErmTrainer final : public Trainer {
 public:
    explicit LocalErmTrainer(models::LossKind kind) : loss_(models::make_loss(kind)) {}

    std::string name() const override { return "local-erm"; }

    models::LinearModel fit(const models::Dataset& data) const override {
        const models::ErmObjective objective(data, *loss_);
        return models::LinearModel(solve_convex(objective, linalg::zeros(data.dim())));
    }

 private:
    std::unique_ptr<models::Loss> loss_;
};

class RidgeErmTrainer final : public Trainer {
 public:
    RidgeErmTrainer(models::LossKind kind, double c) : loss_(models::make_loss(kind)), c_(c) {
        if (!(c > 0.0)) throw std::invalid_argument("ridge-erm: c must be positive");
    }

    std::string name() const override { return "ridge-erm"; }

    models::LinearModel fit(const models::Dataset& data) const override {
        const double l2 = c_ / static_cast<double>(data.size());
        const models::ErmObjective objective(data, *loss_, l2);
        return models::LinearModel(solve_convex(objective, linalg::zeros(data.dim())));
    }

 private:
    std::unique_ptr<models::Loss> loss_;
    double c_;
};

class CloudOnlyTrainer final : public Trainer {
 public:
    explicit CloudOnlyTrainer(dp::MixturePrior prior) : prior_(std::move(prior)) {}

    std::string name() const override { return "cloud-only"; }

    models::LinearModel fit(const models::Dataset& data) const override {
        if (data.dim() != prior_.dim()) {
            throw std::invalid_argument("cloud-only: dataset/prior dimension mismatch");
        }
        return models::LinearModel(prior_.mean());
    }

 private:
    dp::MixturePrior prior_;
};

class FinetuneTrainer final : public Trainer {
 public:
    FinetuneTrainer(dp::MixturePrior prior, models::LossKind kind, int gradient_steps)
        : prior_(std::move(prior)), loss_(models::make_loss(kind)), steps_(gradient_steps) {
        if (gradient_steps < 1) {
            throw std::invalid_argument("fine-tune: gradient_steps must be >= 1");
        }
    }

    std::string name() const override { return "fine-tune"; }

    models::LinearModel fit(const models::Dataset& data) const override {
        const models::ErmObjective objective(data, *loss_);
        optim::GradientDescentOptions options;
        options.stopping.max_iterations = steps_;  // the budget IS the regularizer
        options.stopping.grad_tolerance = 0.0;
        options.stopping.value_tolerance = 0.0;
        return models::LinearModel(
            optim::minimize_gradient_descent(objective, prior_.mean(), options).x);
    }

 private:
    dp::MixturePrior prior_;
    std::unique_ptr<models::Loss> loss_;
    int steps_;
};

/// ERM - (tau/n) log N(theta; m, S): convex because the Gaussian prior term
/// is a convex quadratic in theta.
class MapGaussianObjective final : public optim::Objective {
 public:
    MapGaussianObjective(const models::ErmObjective& erm,
                         const stats::MultivariateNormal& gaussian, double weight)
        : erm_(erm), gaussian_(gaussian), weight_(weight) {}

    std::size_t dim() const override { return erm_.dim(); }

    double eval(const linalg::Vector& theta, linalg::Vector* grad) const override {
        double value = erm_.eval(theta, grad) - weight_ * gaussian_.log_pdf(theta);
        if (grad) {
            linalg::axpy(weight_, gaussian_.precision_times_residual(theta), *grad);
        }
        return value;
    }

 private:
    const models::ErmObjective& erm_;
    const stats::MultivariateNormal& gaussian_;
    double weight_;
};

class MapGaussianTrainer final : public Trainer {
 public:
    MapGaussianTrainer(dp::MixturePrior prior, models::LossKind kind, double transfer_weight)
        : gaussian_(prior.moment_matched_gaussian()),
          loss_(models::make_loss(kind)),
          tau_(transfer_weight) {
        if (!(transfer_weight >= 0.0)) {
            throw std::invalid_argument("map-gaussian: transfer_weight must be >= 0");
        }
    }

    std::string name() const override { return "map-gaussian"; }

    models::LinearModel fit(const models::Dataset& data) const override {
        const models::ErmObjective erm(data, *loss_);
        const MapGaussianObjective objective(erm, gaussian_,
                                             tau_ / static_cast<double>(data.size()));
        return models::LinearModel(solve_convex(objective, gaussian_.mean()));
    }

 private:
    stats::MultivariateNormal gaussian_;
    std::unique_ptr<models::Loss> loss_;
    double tau_;
};

class DroOnlyTrainer final : public Trainer {
 public:
    DroOnlyTrainer(models::LossKind kind, dro::AmbiguityKind ambiguity, double coefficient)
        : loss_(models::make_loss(kind)), ambiguity_(ambiguity), coefficient_(coefficient) {
        if (!(coefficient >= 0.0)) {
            throw std::invalid_argument("dro-only: radius coefficient must be >= 0");
        }
    }

    std::string name() const override {
        return std::string("dro-only(") + dro::ambiguity_name(ambiguity_) + ")";
    }

    models::LinearModel fit(const models::Dataset& data) const override {
        dro::AmbiguitySet set{ambiguity_,
                              dro::radius_for_sample_size(coefficient_, data.size())};
        const auto objective = dro::make_robust_objective(data, *loss_, set);
        return models::LinearModel(solve_convex(*objective, linalg::zeros(data.dim())));
    }

 private:
    std::unique_ptr<models::Loss> loss_;
    dro::AmbiguityKind ambiguity_;
    double coefficient_;
};

class EmDroTrainer final : public Trainer {
 public:
    EmDroTrainer(dp::MixturePrior prior, core::EdgeLearnerConfig config)
        : learner_(std::move(prior), std::move(config)) {}

    std::string name() const override { return "em-dro"; }

    models::LinearModel fit(const models::Dataset& data) const override {
        return learner_.fit(data).model;
    }

 private:
    core::EdgeLearner learner_;
};

}  // namespace

std::unique_ptr<Trainer> make_local_erm(models::LossKind loss) {
    return std::make_unique<LocalErmTrainer>(loss);
}

std::unique_ptr<Trainer> make_ridge_erm(models::LossKind loss, double c) {
    return std::make_unique<RidgeErmTrainer>(loss, c);
}

std::unique_ptr<Trainer> make_cloud_only(dp::MixturePrior prior) {
    return std::make_unique<CloudOnlyTrainer>(std::move(prior));
}

std::unique_ptr<Trainer> make_finetune(dp::MixturePrior prior, models::LossKind loss,
                                       int gradient_steps) {
    return std::make_unique<FinetuneTrainer>(std::move(prior), loss, gradient_steps);
}

std::unique_ptr<Trainer> make_map_gaussian(dp::MixturePrior prior, models::LossKind loss,
                                           double transfer_weight) {
    return std::make_unique<MapGaussianTrainer>(std::move(prior), loss, transfer_weight);
}

std::unique_ptr<Trainer> make_dro_only(models::LossKind loss, dro::AmbiguityKind kind,
                                       double radius_coefficient) {
    return std::make_unique<DroOnlyTrainer>(loss, kind, radius_coefficient);
}

std::unique_ptr<Trainer> make_em_dro(dp::MixturePrior prior, core::EdgeLearnerConfig config) {
    return std::make_unique<EmDroTrainer>(std::move(prior), std::move(config));
}

std::vector<std::unique_ptr<Trainer>> make_standard_suite(const dp::MixturePrior& prior,
                                                          models::LossKind loss,
                                                          double radius_coefficient,
                                                          double transfer_weight) {
    std::vector<std::unique_ptr<Trainer>> suite;
    suite.push_back(make_local_erm(loss));
    suite.push_back(make_ridge_erm(loss));
    suite.push_back(make_cloud_only(prior));
    suite.push_back(make_finetune(prior, loss));
    suite.push_back(make_map_gaussian(prior, loss, transfer_weight));
    suite.push_back(make_dro_only(loss, dro::AmbiguityKind::kWasserstein, radius_coefficient));
    core::EdgeLearnerConfig config;
    config.loss = loss;
    config.radius_coefficient = radius_coefficient;
    config.transfer_weight = transfer_weight;
    suite.push_back(make_em_dro(prior, std::move(config)));
    return suite;
}

}  // namespace drel::baselines
