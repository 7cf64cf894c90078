// perfbench — the repository benchmark driver.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out PATH]
//
// --trace 0 (timed runs): set up (executor start + fixture + one cold
// warm-up run, three times; the median is setup_s), then call the driver
// back to back for --seconds, cycling through the workload's input seeds,
// and report each end-to-end metric as the mean over inputs of the
// per-input median.
// --trace 1 (traced run): repeat {untraced 4-thread run, 1-thread run,
// traced replay} on the workload seed itself for --seconds, then report
// the per-layer ledger.
// Every run's report is checked; the last stdout line is the JSON result.
// perfbench/README.md defines each metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "replay.hpp"
#include "trace.hpp"
#include "util/executor.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 3;
constexpr std::size_t kMinTimedRuns = 3;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    bool seed_given = false;
    double seconds = 10.0;
    int trace = 0;
    std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
    std::cerr << "perfbench: " << error
              << "\nusage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out PATH]\nworkloads:";
    for (const Workload& w : all_workloads()) std::cerr << ' ' << w.name;
    std::cerr << '\n';
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
                args.seed_given = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                args.trace = std::stoi(value);
            } else if (flag == "--trace-out") {
                args.trace_out = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::exception&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload.empty()) usage("--workload is required");
    if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
    if (!(args.seconds > 0.0) || args.seconds > 600.0) usage("--seconds must be in (0, 600]");
    return args;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the launcher's pre-exec peak.
double peak_rss_mb() {
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(status);
    return kib / 1024.0;
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Runs the workload on one of its input seeds, folds the outcome into the
/// run totals, and checks that an input's report digest never changes
/// within the process (across repeats and thread counts).
struct Runner {
    Runner(const Workload& w, std::uint64_t s) : workload(w), seed(s) {}

    const Workload& workload;
    std::uint64_t seed;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::map<std::size_t, std::uint64_t> digests;  ///< input index -> digest

    RunResult run(std::size_t threads, std::size_t input = 0) {
        RunResult r = run_workload(workload, input_seed(seed, input), threads);
        attempted += r.device_rounds;
        failed += r.failed;
        for (const std::string& f : r.check_failures) {
            failures.push_back("input " + std::to_string(input_seed(seed, input)) + ": " + f);
        }
        if (r.check_failures.empty()) {
            const auto [it, fresh] = digests.emplace(input, r.digest);
            if (!fresh && it->second != r.digest) {
                failures.push_back("report digest changed between runs (threads=" +
                                   std::to_string(threads) + ")");
                failed += r.device_rounds;
            }
        }
        return r;
    }
};

void print_result(const Runner& runner, const std::vector<Metric>& metrics) {
    bool finite = true;
    for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
    for (const auto& [input, digest] : runner.digests) {
        std::printf("digest seed=%llu %016llx\n",
                    static_cast<unsigned long long>(input_seed(runner.seed, input)),
                    static_cast<unsigned long long>(digest));
    }
    std::printf("checks: %s (%llu of %llu device-rounds failed, error_rate %.6g ratio)\n",
                runner.failures.empty() ? "ok" : "FAILED",
                static_cast<unsigned long long>(runner.failed),
                static_cast<unsigned long long>(runner.attempted),
                runner.attempted == 0 ? 0.0
                                      : static_cast<double>(runner.failed) /
                                            static_cast<double>(runner.attempted));
    for (const std::string& f : runner.failures) std::printf("  check failed: %s\n", f.c_str());
    std::ostringstream json;
    json.precision(10);
    json << "{\"correct\": " << (runner.failures.empty() && finite ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(1, runner.attempted)
         << ", \"failed\": " << runner.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        json << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
             << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

/// Per-input samples of one figure; the run's value is the mean over inputs
/// of each input's median, so every input weighs the same however many
/// times it ran.
struct PerInput {
    std::map<std::size_t, std::vector<double>> samples;

    void add(std::size_t input, double v) { samples[input].push_back(v); }
    double value() const {
        double sum = 0.0;
        for (const auto& [input, v] : samples) sum += median(v);
        return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
    }
};

int timed(Runner& runner, const Args& args, std::int64_t t0) {
    const std::size_t inputs = runner.workload.inputs_per_run;
    // Set-up: executor start + fixture + one cold warm-up run, repeated.
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        const std::int64_t s0 = i == 0 ? t0 : wall_ns();
        if (i == 0) drel::util::parallel_for(kThreads, kThreads, [](std::size_t) {});
        (void)runner.run(kThreads, static_cast<std::size_t>(i) % inputs);
        setups.push_back(static_cast<double>(wall_ns() - s0) * 1e-9);
    }

    // Cycle through the inputs until the window closes and each ran once.
    PerInput cpu_us, throughput, accuracy, allocs, alloc_bytes;
    std::size_t calls = 0;
    const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    while (wall_ns() < deadline || calls < std::max<std::size_t>(inputs, kMinTimedRuns)) {
        const std::size_t input = calls++ % inputs;
        const RunResult r = runner.run(kThreads, input);
        if (r.device_rounds == 0 || r.wall_s <= 0.0) break;
        const double dr = static_cast<double>(r.device_rounds);
        cpu_us.add(input, r.cpu_s * 1e6 / dr);
        throughput.add(input, dr / r.wall_s);
        accuracy.add(input, r.mean_accuracy());
        allocs.add(input, static_cast<double>(r.allocs) / dr);
        alloc_bytes.add(input, static_cast<double>(r.alloc_bytes) / dr);
    }
    std::printf("timed runs: %zu driver calls over %zu input seeds in %.1f s (threads=%zu)\n",
                calls, inputs, args.seconds, kThreads);
    for (const auto& [input, v] : cpu_us.samples) {
        std::printf("  seed %-22llu cpu_us/dev-rnd %10.4f  dev-rnd/s %12.1f  accuracy %.6f\n",
                    static_cast<unsigned long long>(input_seed(runner.seed, input)), median(v),
                    median(throughput.samples.at(input)), median(accuracy.samples.at(input)));
    }
    std::printf("  setup_s  %.4f %.4f %.4f\n", setups[0], setups[1], setups[2]);
    std::printf("  memory: %.2f allocs, %.1f B allocated per device-round\n", allocs.value(),
                alloc_bytes.value());
    const std::vector<Metric> metrics = {
        {"cpu_us_per_device_round", cpu_us.value(), "us"},
        {"device_rounds_per_s", throughput.value(), "1/s"},
        {"mean_accuracy", accuracy.value(), "ratio"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    for (const Metric& m : metrics) {
        std::printf("%-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    print_result(runner, metrics);
    return 0;
}

using Totals = std::map<std::pair<std::string, std::string>, SiteTotals>;

/// Sums of the listed sites of one layer (absent sites count as zero).
SiteTotals sum_sites(const Totals& totals, const std::string& layer,
                     std::initializer_list<const char*> sites) {
    SiteTotals out;
    for (const char* site : sites) {
        const auto it = totals.find({layer, site});
        if (it != totals.end()) out += it->second;
    }
    return out;
}

/// The workload's own sites of a layer (probe sites excluded).
SiteTotals sum_layer(const Totals& totals, const std::string& layer) {
    SiteTotals out;
    for (const auto& [key, t] : totals) {
        if (key.first == layer && key.second.rfind("probe.", 0) != 0) out += t;
    }
    return out;
}

double per_call_ns(const SiteTotals& t) {
    return t.calls == 0 ? 0.0 : static_cast<double>(t.cpu_ns) / static_cast<double>(t.calls);
}

int traced(const Workload& workload, Runner& runner, const Args& args) {
    drel::util::parallel_for(kThreads, kThreads, [](std::size_t) {});
    (void)runner.run(kThreads);  // warm-up

    Tracer tracer;
    std::vector<double> ref_cpu, wall4, wall1, allocs, alloc_bytes;
    ReplayCounts counts;
    std::vector<std::string> mismatches;
    RunResult reference;
    int iterations = 0;
    const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    do {
        RunResult r4 = runner.run(kThreads);
        const RunResult r1 = runner.run(1);
        if (!r4.check_failures.empty() || !r1.check_failures.empty()) break;
        ref_cpu.push_back(r4.cpu_s);
        wall4.push_back(r4.wall_s);
        wall1.push_back(r1.wall_s);
        const double dr = static_cast<double>(r4.device_rounds);
        allocs.push_back(static_cast<double>(r4.allocs) / dr);
        alloc_bytes.push_back(static_cast<double>(r4.alloc_bytes) / dr);
        try {
            counts = workload.kind == WorkloadKind::kScale
                         ? replay_scale(workload, runner.seed, r4, tracer)
                         : replay_lifecycle(runner.seed, r4, tracer);
        } catch (const std::exception& e) {
            counts.mismatches.push_back(std::string("replay threw: ") + e.what());
        }
        for (const std::string& m : counts.mismatches) mismatches.push_back("replay: " + m);
        reference = std::move(r4);
        ++iterations;
    } while (wall_ns() < deadline && mismatches.empty());
    for (const std::string& m : mismatches) runner.failures.push_back(m);
    if (tracer.dropped() > 0) {
        runner.failures.push_back(std::to_string(tracer.dropped()) + " spans dropped");
    }
    if (iterations == 0) {
        print_result(runner, {});
        return 0;
    }

    const Totals totals = tracer.totals();
    const double iters = iterations;
    const double run_cpu_ns = median(ref_cpu) * 1e9;
    const double rounds = static_cast<double>(std::max<std::uint64_t>(1, counts.rounds));
    const double device_rounds =
        static_cast<double>(std::max<std::uint64_t>(1, counts.device_rounds));
    std::vector<Metric> metrics;
    std::map<std::string, double> attributed;  // layer -> CPU ns per run
    const auto add = [&](const std::string& name, double value, const char* unit) {
        metrics.push_back({name, value, unit});
    };
    const auto site = [&](const char* layer, std::initializer_list<const char*> sites) {
        return sum_sites(totals, layer, sites);
    };

    // stats.rng
    const SiteTotals work_stream = site("stats.rng", {"device_stream.work"});
    const SiteTotals latency_stream = site("stats.rng", {"device_stream.latency"});
    const SiteTotals first_draws =
        site("stats.rng", {"first_draw.work", "probe.first_draw.work"});
    const std::uint64_t streams =
        std::max<std::uint64_t>(1, work_stream.calls + latency_stream.calls);
    add("stats.rng.streams_per_device_round",
        static_cast<double>(counts.streams) / device_rounds, "count");
    add("stats.rng.stream_ns",
        static_cast<double>(work_stream.cpu_ns + first_draws.cpu_ns + latency_stream.cpu_ns) /
            static_cast<double>(streams),
        "ns");
    add("stats.rng.draw_ns", per_call_ns(site("stats.rng", {"normal", "probe.normal"})), "ns");
    attributed["stats.rng"] = static_cast<double>(sum_layer(totals, "stats.rng").cpu_ns);

    // edgesim.faults
    const SiteTotals faults_all =
        site("edgesim.faults", {"device_faults.shard", "device_faults.work", "upload_outcome",
                                "probe.device_faults"});
    const SiteTotals faults_shard = site("edgesim.faults", {"device_faults.shard"});
    add("edgesim.faults.cells_per_device_round",
        static_cast<double>(counts.fault_cells) / device_rounds, "count");
    add("edgesim.faults.cell_ns", per_call_ns(faults_all), "ns");
    attributed["edgesim.faults"] =
        static_cast<double>(sum_layer(totals, "edgesim.faults").cpu_ns);

    // edgesim.membership
    const SiteTotals membership = sum_layer(totals, "edgesim.membership");
    add("edgesim.membership.churn_cells_per_device_round",
        static_cast<double>(counts.churn_cells) / device_rounds, "count");
    add("edgesim.membership.churn_cell_ns",
        per_call_ns(site("edgesim.membership", {"device_churn", "probe.device_churn"})), "ns");
    add("edgesim.membership.driver_ms_per_round",
        static_cast<double>(membership.wall_ns) / iters / rounds * 1e-6, "ms");
    add("edgesim.membership.events_per_round",
        static_cast<double>(counts.membership_events) / rounds, "count");
    attributed["edgesim.membership"] = static_cast<double>(membership.cpu_ns);

    // edgesim.shard: the no-op run_round minus its own streams and its
    // shard-side fault query, each timed separately over the same devices.
    const SiteTotals noop = site("edgesim.shard", {"run_round.noop"});
    const SiteTotals noop_streams = site("stats.rng", {"probe.run_round_streams"});
    const double shard_fault_ns =
        faults_shard.calls > 0 ? static_cast<double>(faults_shard.cpu_ns)
                               : per_call_ns(faults_all) * static_cast<double>(noop.calls);
    const double fold_ns =
        static_cast<double>(noop.cpu_ns - noop_streams.cpu_ns) - shard_fault_ns;
    add("edgesim.shard.fold_ns_per_device",
        fold_ns / static_cast<double>(std::max<std::uint64_t>(1, noop.calls)), "ns");
    attributed["edgesim.shard"] =
        fold_ns + static_cast<double>(site("edgesim.shard", {"batch_add"}).cpu_ns);

    // dp.batch_responsibilities
    add("dp.batch_responsibilities.ns_per_device",
        per_call_ns(site("dp.batch_responsibilities",
                         {"score_match_into", "probe.score_match_into"})),
        "ns");
    attributed["dp.batch_responsibilities"] =
        static_cast<double>(sum_layer(totals, "dp.batch_responsibilities").cpu_ns);

    // edgesim.scheduler, edgesim.server (re-issued blocks; attribute the
    // per-call cost times the workload's own call count)
    const double event_ns = per_call_ns(site("edgesim.scheduler", {"schedule_pop"}));
    const double offer_ns = per_call_ns(site("edgesim.server", {"offer"}));
    add("edgesim.scheduler.events_per_round", static_cast<double>(counts.events) / rounds,
        "count");
    add("edgesim.scheduler.event_ns", event_ns, "ns");
    add("edgesim.server.offer_ns", offer_ns, "ns");
    attributed["edgesim.scheduler"] = event_ns * static_cast<double>(counts.events) * iters;
    attributed["edgesim.server"] = offer_ns * static_cast<double>(counts.offers) * iters;

    // edgesim.transfer
    const std::uint64_t broadcast_bytes =
        reference.scale ? reference.scale->engine.total_broadcast_bytes
                        : reference.lifecycle->total_broadcast_bytes;
    const SiteTotals encodes = site("edgesim.transfer", {"encode_prior"});
    add("edgesim.transfer.broadcast_bytes_per_device_round",
        static_cast<double>(broadcast_bytes) / device_rounds, "B");
    add("edgesim.transfer.encode_us",
        per_call_ns(site("edgesim.transfer", {"encode_prior", "probe.encode_prior"})) * 1e-3,
        "us");
    add("edgesim.transfer.decode_us",
        per_call_ns(site("edgesim.transfer", {"probe.decode_prior"})) * 1e-3, "us");
    add("edgesim.transfer.decodes_per_device_round",
        static_cast<double>(counts.decodes) / device_rounds, "count");
    attributed["edgesim.transfer"] =
        per_call_ns(encodes) * static_cast<double>(counts.encodes) * iters;

    // core.edge_learner, core.em_dro
    std::vector<std::int64_t> fits = tracer.span_cpu("core.edge_learner", "fit");
    if (fits.empty()) fits = tracer.span_cpu("core.edge_learner", "probe.fit");
    std::vector<double> fit_ms(fits.begin(), fits.end());
    for (double& f : fit_ms) f *= 1e-6;
    add("core.edge_learner.fit_ms_p50", percentile(fit_ms, 0.50), "ms");
    add("core.edge_learner.fit_ms_p98", percentile(fit_ms, 0.98), "ms");
    add("core.em_dro.outer_iterations_per_fit",
        counts.fits == 0 ? 0.0
                         : static_cast<double>(counts.outer_iterations) /
                               static_cast<double>(counts.fits),
        "count");
    add("core.em_dro.non_finite_fits", static_cast<double>(counts.non_finite_fits), "count");
    attributed["core.edge_learner"] =
        static_cast<double>(sum_layer(totals, "core.edge_learner").cpu_ns);

    // data.task_generator, models
    add("data.task_generator.ns_per_sample",
        per_call_ns(site("data.task_generator", {"generate", "probe.generate"})), "ns");
    add("models.accuracy_ns_per_sample",
        per_call_ns(site("models", {"accuracy", "probe.accuracy"})), "ns");
    attributed["data.task_generator"] =
        static_cast<double>(sum_layer(totals, "data.task_generator").cpu_ns);
    attributed["models"] = static_cast<double>(sum_layer(totals, "models").cpu_ns);

    // dp.dpmm_gibbs, dp.prior_diagnostics
    add("dp.dpmm_gibbs.add_observation_ms",
        per_call_ns(site("dp.dpmm_gibbs", {"add_observation", "probe.add_observation"})) * 1e-6,
        "ms");
    add("dp.dpmm_gibbs.observations_at_close",
        static_cast<double>(counts.gibbs_observations_at_close), "count");
    add("dp.prior_diagnostics.kl_estimate_ms",
        per_call_ns(site("dp.prior_diagnostics",
                         {"symmetric_kl_estimate", "probe.symmetric_kl_estimate"})) *
            1e-6,
        "ms");
    attributed["dp.dpmm_gibbs"] =
        static_cast<double>(sum_layer(totals, "dp.dpmm_gibbs").cpu_ns);
    attributed["dp.prior_diagnostics"] =
        static_cast<double>(sum_layer(totals, "dp.prior_diagnostics").cpu_ns);

    // util.executor: 1-thread vs 4-thread wall of the real driver.
    const double speedup = median(wall1) / median(wall4);
    const double p = static_cast<double>(kThreads);
    add("util.executor.speedup", speedup, "ratio");
    add("util.executor.serial_fraction", (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p), "ratio");

    // memory (untraced 4-thread runs)
    add("memory.allocs_per_device_round", median(allocs), "count");
    add("memory.alloc_bytes_per_device_round", median(alloc_bytes), "B");

    double covered = 0.0;
    std::printf("per-layer ledger (%d traced iteration%s, %zu spans; untraced CPU %.3f s)\n",
                iterations, iterations == 1 ? "" : "s", tracer.size(), run_cpu_ns * 1e-9);
    std::printf("  %-28s %10s %12s\n", "layer", "cpu_share", "cpu ms/run");
    for (const auto& [layer, ns] : attributed) {
        const double per_run = ns / iters;
        covered += per_run;
        add(layer + ".cpu_share", per_run / run_cpu_ns, "ratio");
        std::printf("  %-28s %10.4f %12.3f\n", layer.c_str(), per_run / run_cpu_ns,
                    per_run * 1e-6);
    }
    add("trace.coverage", covered / run_cpu_ns, "ratio");
    std::printf("  %-28s %10.4f\n", "trace.coverage", covered / run_cpu_ns);
    std::printf("executor: speedup %.3f at %zu threads (1-thread %.3f s, %zu-thread %.3f s)\n",
                speedup, kThreads, median(wall1), kThreads, median(wall4));
    for (const Metric& m : metrics) {
        std::printf("%-52s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!args.trace_out.empty()) {
        try {
            tracer.write_json(args.trace_out);
            std::printf("spans written to %s\n", args.trace_out.c_str());
        } catch (const std::exception& e) {
            std::printf("spans not written: %s\n", e.what());
        }
    }
    print_result(runner, metrics);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::int64_t t0 = wall_ns();
    const Args args = parse(argc, argv);
    const Workload* workload = find_workload(args.workload);
    if (workload == nullptr) usage("unknown workload " + args.workload);
    Runner runner(*workload, args.seed_given ? args.seed : workload->default_seed);
    std::printf("perfbench workload=%s seed=%llu threads=%zu seconds=%g trace=%d\n",
                workload->name, static_cast<unsigned long long>(runner.seed), kThreads,
                args.seconds, args.trace);
    try {
        return args.trace == 0 ? timed(runner, args, t0)
                               : traced(*workload, runner, args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
