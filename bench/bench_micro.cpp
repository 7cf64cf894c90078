// Micro-benchmarks (google-benchmark) for the numerical kernels on the
// training hot path. Complements the experiment binaries: when a table
// regresses, these localize which kernel moved.
#include <benchmark/benchmark.h>

#include "data/task_generator.hpp"
#include "dp/dpmm_gibbs.hpp"
#include "dp/mixture_prior.hpp"
#include "dro/chi_square.hpp"
#include "dro/kl.hpp"
#include "dro/wasserstein.hpp"
#include "edgesim/transfer.hpp"
#include "linalg/cholesky.hpp"
#include "models/erm_objective.hpp"
#include "optim/lbfgs.hpp"
#include "stats/rng.hpp"

namespace {

using namespace drel;

models::Dataset bench_dataset(std::size_t n, std::size_t d) {
    stats::Rng rng(1);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(d, 3, 2.5, 0.05, rng);
    return pop.generate(pop.sample_task(rng), n, rng);
}

dp::MixturePrior bench_prior(std::size_t dim, std::size_t k) {
    stats::Rng rng(2);
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t i = 0; i < k; ++i) {
        weights.push_back(1.0);
        atoms.push_back(stats::MultivariateNormal::isotropic(
            rng.standard_normal_vector(dim), 0.5));
    }
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

void BM_CholeskyFactorSolve(benchmark::State& state) {
    const std::size_t n = state.range(0);
    stats::Rng rng(3);
    linalg::Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.normal();
    }
    linalg::Matrix spd = m.matmul(m.transposed());
    spd.add_diagonal(1.0);
    const linalg::Vector b = rng.standard_normal_vector(n);
    for (auto _ : state) {
        const linalg::Cholesky chol(spd);
        benchmark::DoNotOptimize(chol.solve(b));
    }
}
BENCHMARK(BM_CholeskyFactorSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ErmGradient(benchmark::State& state) {
    const models::Dataset d = bench_dataset(state.range(0), 8);
    const auto loss = models::make_logistic_loss();
    const models::ErmObjective objective(d, *loss);
    stats::Rng rng(4);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    linalg::Vector grad;
    for (auto _ : state) {
        benchmark::DoNotOptimize(objective.eval(theta, &grad));
    }
}
BENCHMARK(BM_ErmGradient)->Arg(32)->Arg(128)->Arg(512);

void BM_WassersteinClosedForm(benchmark::State& state) {
    const models::Dataset d = bench_dataset(state.range(0), 8);
    const auto loss = models::make_logistic_loss();
    const dro::WassersteinDroObjective objective(d, *loss, 0.2);
    stats::Rng rng(5);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    linalg::Vector grad;
    for (auto _ : state) {
        benchmark::DoNotOptimize(objective.eval(theta, &grad));
    }
}
BENCHMARK(BM_WassersteinClosedForm)->Arg(32)->Arg(128)->Arg(512);

void BM_KlDual(benchmark::State& state) {
    stats::Rng rng(6);
    linalg::Vector losses(state.range(0));
    for (double& l : losses) l = rng.gamma(2.0, 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dro::solve_kl_dual(losses, 0.3));
    }
}
BENCHMARK(BM_KlDual)->Arg(32)->Arg(128)->Arg(512);

void BM_ChiSquareDual(benchmark::State& state) {
    stats::Rng rng(7);
    linalg::Vector losses(state.range(0));
    for (double& l : losses) l = rng.gamma(2.0, 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dro::solve_chi_square_dual(losses, 0.3));
    }
}
BENCHMARK(BM_ChiSquareDual)->Arg(32)->Arg(128)->Arg(512);

void BM_MixtureResponsibilities(benchmark::State& state) {
    const dp::MixturePrior prior = bench_prior(9, state.range(0));
    stats::Rng rng(8);
    const linalg::Vector theta = rng.standard_normal_vector(9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(prior.responsibilities(theta));
    }
}
BENCHMARK(BM_MixtureResponsibilities)->Arg(2)->Arg(8)->Arg(32);

void BM_DpmmGibbsSweep(benchmark::State& state) {
    stats::Rng rng(9);
    std::vector<linalg::Vector> obs;
    for (int i = 0; i < 40; ++i) {
        linalg::Vector x = rng.standard_normal_vector(9);
        x[0] += (i % 3) * 6.0;
        obs.push_back(std::move(x));
    }
    dp::DpmmConfig config;
    config.base_mean = linalg::zeros(9);
    config.base_covariance = linalg::Matrix::identity(9) * 10.0;
    config.within_covariance = linalg::Matrix::identity(9) * 0.3;
    dp::DpmmGibbs sampler(obs, config);
    stats::Rng sweep_rng(10);
    for (auto _ : state) {
        sampler.sweep(sweep_rng);
    }
}
BENCHMARK(BM_DpmmGibbsSweep);

void BM_LbfgsErmFit(benchmark::State& state) {
    const models::Dataset d = bench_dataset(64, 8);
    const auto loss = models::make_logistic_loss();
    const models::ErmObjective objective(d, *loss, 0.01);
    for (auto _ : state) {
        benchmark::DoNotOptimize(optim::minimize_lbfgs(objective, linalg::zeros(d.dim())));
    }
}
BENCHMARK(BM_LbfgsErmFit);

void BM_PriorEncodeDecode(benchmark::State& state) {
    const dp::MixturePrior prior = bench_prior(9, 6);
    for (auto _ : state) {
        const auto encoded = edgesim::encode_prior(prior);
        benchmark::DoNotOptimize(edgesim::decode_prior(encoded));
    }
}
BENCHMARK(BM_PriorEncodeDecode);

}  // namespace
