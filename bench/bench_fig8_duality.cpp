// E9 / Fig. 8 — duality check: closed-form Wasserstein reformulation vs the
// generic numeric dual.
//
// For random (theta, dataset, rho) instances we report the absolute gap
// between the closed-form value and the nested-1D-optimization dual, plus
// the wall-clock of each path. Expect gaps at solver precision (<= 1e-3)
// and the closed form 3-5 orders of magnitude faster — the justification
// for using the reformulation inside the training loop.
#include <cmath>

#include "dro/wasserstein.hpp"
#include "util/stopwatch.hpp"

#include "bench_common.hpp"

int main() {
    using namespace drel;
    bench::print_header("E9 (Fig. 8)",
                        "Strong duality: closed form vs numeric dual over random instances. "
                        "gap = |closed - numeric|; times per single evaluation.");

    const auto loss = models::make_logistic_loss();
    util::Table table({"n", "rho", "closed value", "numeric value", "gap", "closed us",
                       "numeric us"});

    stats::Rng rng(77);
    for (const std::size_t n : {10u, 30u, 100u}) {
        for (const double rho : {0.05, 0.2, 0.8}) {
            const data::TaskPopulation pop =
                data::TaskPopulation::make_synthetic(6, 2, 2.0, 0.05, rng);
            const models::Dataset d = pop.generate(pop.sample_task(rng), n, rng);
            const linalg::Vector theta = rng.standard_normal_vector(d.dim());

            const dro::WassersteinDroObjective closed(d, *loss, rho);
            util::Stopwatch closed_watch;
            double closed_value = 0.0;
            const int closed_reps = 1000;
            for (int r = 0; r < closed_reps; ++r) closed_value = closed.value(theta);
            const double closed_us = closed_watch.elapsed_seconds() * 1e6 / closed_reps;

            util::Stopwatch numeric_watch;
            const double numeric_value =
                dro::wasserstein_robust_value_numeric(theta, d, *loss, rho);
            const double numeric_us = numeric_watch.elapsed_seconds() * 1e6;

            table.add_row({std::to_string(n), util::Table::fmt(rho, 2),
                           util::Table::fmt(closed_value, 6),
                           util::Table::fmt(numeric_value, 6),
                           util::Table::fmt(std::fabs(closed_value - numeric_value), 6),
                           util::Table::fmt(closed_us, 1), util::Table::fmt(numeric_us, 1)});
        }
    }
    table.print(std::cout);
    return 0;
}
