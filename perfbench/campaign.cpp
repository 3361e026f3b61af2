// campaign-chaos: the 30-cell study matrix (10 apps x the 3 canonical
// device profiles) with the rip on, FlakyCdn faults, Pipelined mode, 4
// workers and fixed pacing of 50 000 us per simulated tick. No wait hints:
// hints are measurements of the program itself, and pacing or hints
// calibrated from the code under test would make the workload move with it.
#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "core/campaign.hpp"
#include "ott/catalog.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wideleak;

constexpr std::uint64_t kPacingUsPerTick = 50'000;
constexpr std::size_t kWorkers = 4;

/// render_campaign_report CRC at the default seed.
constexpr std::uint32_t kReportCrc = 1066017481u;
/// The companion campaign's report CRC (its seed is fixed, so at every seed).
constexpr std::uint32_t kCompanionReportCrc = 1619268933u;

core::CampaignSpec chaos_spec(const Options& options) {
  core::CampaignSpec spec;
  // The chaos draws stay at the study's default campaign seed: across
  // campaign seeds the longest cell's wait alone moves the wall time by
  // +-15%. --seed permutes the matrix's app order instead, which changes
  // submission order and each cell's home worker, not the work.
  spec.apps = ott::study_catalog();
  Rng rng(mix_seed(options.seed, 31));
  for (std::size_t i = spec.apps.size(); i > 1; --i) {
    std::swap(spec.apps[i - 1], spec.apps[rng.next_below(i)]);
  }
  spec.workers = std::min(kWorkers, options.threads);
  spec.attempt_rip = true;
  spec.chaos = net::FaultProfile::FlakyCdn;
  spec.mode = core::ExecutionMode::Pipelined;
  spec.pacing.wall_us_per_tick = kPacingUsPerTick;
  return spec;
}

/// CPU seconds this process has used so far (all threads).
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct CampaignRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time spent inside run()
  std::uint32_t report_crc = 0;
  core::CampaignResult result;
};

CampaignRun run_campaign(const core::CampaignSpec& spec, std::size_t expected_cells,
                         Lane* lane, RunResult& result) {
  core::CampaignRunner runner(spec);
  CampaignRun run;
  const double cpu_start = process_cpu_s();
  const auto start = Clock::now();
  {
    const Span span(lane, "core.campaign.run");
    run.result = runner.run();
  }
  run.wall_s = seconds_since(start);
  run.cpu_s = process_cpu_s() - cpu_start;
  run.report_crc = crc_of(core::render_campaign_report(run.result));
  result.check(run.result.cells.size() == expected_cells,
               "campaign returned " + std::to_string(run.result.cells.size()) + " of " +
                   std::to_string(expected_cells) + " cells");
  for (const core::CellResult& cell : run.result.cells) {
    // Degraded and Partial are correct outcomes under injected faults, as
    // long as the cell says why.
    result.op(cell.outcome == core::CellOutcome::Full || !cell.fault_summary.empty(),
              "cell " + cell.app.name + "/" + cell.profile_name + " is " +
                  core::to_string(cell.outcome) + " without a fault summary");
  }
  return run;
}

void per_layer_metrics(const core::CampaignSpec& spec, const CampaignRun& run,
                       RunResult& result) {
  const core::CampaignStats& stats = run.result.stats;
  const core::PipelineStats& pipeline = stats.pipeline;
  // Stage occupancy is wall time inside each stage's tasks, waits parked
  // mid-task included, so it is reported as is; the busy fraction and the
  // CPU floor use the process CPU time the run actually consumed.
  for (const char* stage : {"setup", "attach", "play", "audit", "keybox", "rip", "flush"}) {
    const auto it = pipeline.stage_occupancy.find(stage);
    result.metric(std::string("core.campaign.stage.") + stage + "_ms",
                  it == pipeline.stage_occupancy.end() ? 0.0 : it->second.busy_ms, "ms");
  }
  const auto count = [&](const char* name, double value) { result.metric(name, value, "count"); };
  count("core.pipeline.tasks", static_cast<double>(pipeline.tasks_executed));
  count("core.pipeline.helped_tasks", static_cast<double>(pipeline.helped_tasks));
  count("core.pipeline.stolen_tasks", static_cast<double>(pipeline.steals));
  count("core.pipeline.fence_stalls", static_cast<double>(pipeline.fence_stalls));
  count("core.pipeline.waits_parked", static_cast<double>(pipeline.waits));
  count("core.pipeline.timer_wakeups", static_cast<double>(pipeline.timer_wakeups));
  const double wall_ms = run.wall_s * 1e3;
  const double cpu_ms = run.cpu_s * 1e3;
  const double workers = static_cast<double>(spec.workers);
  result.metric("core.pipeline.busy_frac", cpu_ms / (wall_ms * workers), "ratio");
  std::size_t longest_wait_ticks = 0;
  std::map<core::CellOutcome, double> outcomes;
  for (const core::CellResult& cell : run.result.cells) {
    longest_wait_ticks = std::max(longest_wait_ticks, cell.stats.sim_wait_ticks);
    outcomes[cell.outcome] += 1.0;
  }
  const double wait_floor_ms = static_cast<double>(longest_wait_ticks) *
                               static_cast<double>(spec.pacing.wall_us_per_tick) / 1e3;
  result.metric("core.campaign.floor_gap", wall_ms / std::max(cpu_ms / workers, wait_floor_ms),
                "ratio");
  std::cout << "campaign wall " << wall_ms << " ms, CPU/workers " << cpu_ms / workers
            << " ms, longest cell wait " << wait_floor_ms << " ms\n";
  const core::CellStats& totals = stats.totals;
  count("net.attempts", static_cast<double>(totals.net_attempts));
  count("net.retries", static_cast<double>(totals.net_retries));
  count("net.giveups", static_cast<double>(totals.net_giveups));
  count("net.faults_injected", static_cast<double>(totals.faults_injected));
  result.metric("net.useful_ratio",
                totals.net_attempts == 0
                    ? 0.0
                    : static_cast<double>(totals.net_attempts - totals.net_retries) /
                          static_cast<double>(totals.net_attempts),
                "ratio");
  count("core.campaign.cells_full", outcomes[core::CellOutcome::Full]);
  count("core.campaign.cells_degraded", outcomes[core::CellOutcome::Degraded]);
  count("core.campaign.cells_partial", outcomes[core::CellOutcome::Partial]);
}

}  // namespace

void run_campaign_chaos(const Options& options, Tracer& tracer, RunResult& result) {
  const core::CampaignSpec spec = chaos_spec(options);
  const std::size_t cells = ott::study_catalog().size() * core::study_device_profiles().size();
  const auto check_crc = [&](const CampaignRun& run) {
    std::cout << "campaign report crc " << run.report_crc << "\n";
    if (options.seed == kDefaultSeed) {
      result.check(run.report_crc == kReportCrc,
                   "campaign report CRC " + std::to_string(run.report_crc) +
                       " != committed " + std::to_string(kReportCrc));
    }
  };

  if (!tracer.enabled()) {
    // The campaign is one ~22 s sample. The companion rip (whose world
    // builds are this workload's set-up) and the license legs run in rounds
    // around it, three before and at least three after.
    Samples samples;
    CompanionRip rip(options);
    LicenseLegs license(options, samples, result);
    const std::vector<std::function<void()>> companions = {
        [&] { rip.sample(samples, result); }, [&] { license.closed(); },
        [&] { license.fixed(); }, [&] { license.ladder(); }};
    run_rounds(Clock::now(), 3, companions);
    const CampaignRun run = run_campaign(spec, cells, nullptr, result);
    check_crc(run);
    samples.add("cells_per_s", static_cast<double>(cells) / run.wall_s);
    run_rounds(options.deadline(), 3, companions);
    samples.report(result, "setup_s", "s");
    samples.report(result, "rip_s", "s");
    samples.report(result, "cells_per_s", "cells/s");
    license.report();
    return;
  }

  // Traced pass: an untraced run, then a second run with the outside span
  // on; the report must match the untraced run's byte for byte.
  const CampaignRun run = run_campaign(spec, cells, nullptr, result);
  check_crc(run);
  const CampaignRun traced = run_campaign(spec, cells, tracer.new_lane(), result);
  result.check(traced.report_crc == run.report_crc,
               "campaign report CRC differs between repetitions");
  per_layer_metrics(spec, traced, result);
  report_trace(options, tracer, "cells_per_s", static_cast<double>(cells) / run.wall_s,
               static_cast<double>(cells) / traced.wall_s);
}

void CompanionCampaign::sample(Samples& samples, RunResult& result) {
  // Netflix on the three study profiles, unpaced, one worker per cell:
  // cells/s of the cell pipeline's CPU path at a stated size (3 cells).
  core::CampaignSpec spec;
  spec.apps = {*ott::find_app("Netflix")};
  spec.seed = 0xC0FFEE;  // fixed: a cell's cost depends on its keys' luck
  spec.workers = std::min<std::size_t>(3, options_.threads);
  spec.chaos = net::FaultProfile::FlakyCdn;
  const CampaignRun run = run_campaign(spec, 3, nullptr, result);
  if (reps_++ == 0) first_crc_ = run.report_crc;
  result.check(run.report_crc == kCompanionReportCrc,
               "companion campaign report CRC " + std::to_string(run.report_crc) +
                   " != committed " + std::to_string(kCompanionReportCrc));
  result.check(run.report_crc == first_crc_,
               "companion campaign report CRC differs between repetitions");
  samples.add("cells_per_s", 3.0 / run.wall_s);
}

}  // namespace perfbench
