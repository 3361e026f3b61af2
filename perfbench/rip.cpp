// rip-legacy: the paper's §IV-D proof of concept. One world (ecosystem,
// the 10-app study catalog, a rooted legacy Nexus 5) per repetition, then
// one RipSession per catalog app, stepped to completion on this thread.
#include <algorithm>
#include <iostream>
#include <memory>
#include <numeric>
#include <set>
#include <string>

#include "android/device.hpp"
#include "core/keybox_recovery.hpp"
#include "core/ripper.hpp"
#include "ott/catalog.hpp"
#include "ott/ecosystem.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wideleak;

/// The apps the paper ripped from the Nexus 5 (§IV-D); the other four
/// either use embedded DRM (Amazon) or enforce device revocation.
const std::set<std::string> kPaperRipped = {"Netflix",  "Hulu", "myCANAL",
                                            "Showtime", "OCS",  "Salto"};

/// CRC over the ten apps' DRM-free streams (per-app CRC32s in catalog
/// order). The world's content and keys come from the fixed world seed,
/// so the value is the same at every --seed and is checked at each.
constexpr std::uint32_t kMediaCrc = 3749211398u;
/// The same CRC for the companion rip's one-app world: Starz only, which
/// the paper could not rip, so the CRC over one empty stream's CRC.
constexpr std::uint32_t kCompanionMediaCrc = 558161692u;

const char* phase_span(std::string_view phase) {
  if (phase == "rip/instrument") return "core.ripper.instrument";
  if (phase == "rip/recover-keys") return "core.ripper.recover_keys";
  if (phase == "rip/verify") return "core.ripper.verify";
  return "core.ripper.reconstruct";  // rip/reconstruct, -audio, -subtitles
}

}  // namespace

World build_world(const std::vector<ott::OttAppProfile>& apps, std::uint64_t seed, Lane* lane) {
  const auto start = Clock::now();
  const Span root(lane, "perfbench.world");
  World world;
  {
    // Fixed world seed: the simulated services' key material, and with it
    // the cost of every RSA key generation, is the same on every run.
    const Span span(lane, "ott.ecosystem_ctor");
    world.ecosystem = std::make_unique<ott::StreamingEcosystem>(ott::EcosystemConfig{});
  }
  for (const ott::OttAppProfile& profile : apps) {
    const Span span(lane, "ott.install_app");
    world.ecosystem->install_app(profile);
  }
  {
    // --seed picks the physical Nexus 5 unit (serial, keybox).
    const Span span(lane, "android.make_device");
    world.device = world.ecosystem->make_device(android::legacy_nexus5_spec(mix_seed(seed, 21)));
  }
  world.setup_s = seconds_since(start);
  return world;
}

RipRep rip_world(World& world, const std::vector<ott::OttAppProfile>& apps, std::uint64_t seed,
                 Lane* lane, RunResult& result) {
  // --seed also picks the order the analyst works through the apps.
  std::vector<std::size_t> order(apps.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(mix_seed(seed, 22));
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);

  std::vector<core::RipResult> results(apps.size());
  const auto start = Clock::now();
  {
    const Span root(lane, "perfbench.rip");
    core::ContentRipper ripper(*world.ecosystem, *world.device);
    for (const std::size_t index : order) {
      const Span app_span(lane, "core.ripper.rip_app", index);
      core::RipSession session(ripper, apps[index]);
      while (!session.done()) {
        const Span phase(lane, phase_span(session.phase_name()), index);
        session.step();
      }
      results[index] = session.take_result();
    }
  }
  RipRep rep;
  rep.rip_s = seconds_since(start);
  rep.setup_s = world.setup_s;

  Bytes per_app_crcs;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const core::RipResult& rip = results[i];
    const bool expected = kPaperRipped.contains(apps[i].name);
    const bool quality_ok = rip.best_video_resolution.width <= 960 &&
                            rip.best_video_resolution.height <= 540;
    const bool ok = rip.success == expected &&
                    (!rip.success || (quality_ok && rip.plays_without_account));
    result.op(ok, "rip " + apps[i].name + ": success=" + std::to_string(rip.success) +
                      " at " + rip.best_video_resolution.label() +
                      (rip.success ? "" : " (" + rip.failure + ")"));
    if (rip.success) ++rep.apps_ripped;
    rep.media_bytes += rip.drm_free_media.size();
    const std::uint32_t c = crc32(BytesView(rip.drm_free_media));
    for (int shift = 24; shift >= 0; shift -= 8) {
      per_app_crcs.push_back(static_cast<std::uint8_t>(c >> shift));
    }
  }
  rep.media_crc = crc32(BytesView(per_app_crcs));
  return rep;
}

namespace {

/// Checks a rip's media CRC against the committed value and the run's
/// first repetition.
void check_media_crc(const char* what, std::uint32_t crc, std::uint32_t committed,
                     std::uint32_t first, RunResult& result) {
  result.check(crc == committed, std::string(what) + " media CRC " + std::to_string(crc) +
                                     " != committed " + std::to_string(committed));
  result.check(crc == first, std::string(what) + " media CRC differs between repetitions");
}

/// One repetition of the catalog rip on a fresh world.
RipRep catalog_rep(const Options& options, std::size_t rep, Lane* lane, World& world,
                   RunResult& result) {
  const std::uint64_t seed = mix_seed(options.seed, rep);
  const std::vector<ott::OttAppProfile> catalog = ott::study_catalog();
  world = build_world(catalog, seed, lane);
  RipRep r = rip_world(world, catalog, seed, lane, result);
  std::cout << "rip rep " << rep + 1 << ": setup " << r.setup_s << " s, rip " << r.rip_s
            << " s, media crc " << r.media_crc << "\n";
  return r;
}

double median_of(const std::vector<RipRep>& reps, double RipRep::*field) {
  std::vector<double> values;
  for (const RipRep& rep : reps) values.push_back(rep.*field);
  return median(values);
}

}  // namespace

void run_rip_legacy(const Options& options, Tracer& tracer, RunResult& result) {
  World world;
  std::vector<RipRep> reps;
  const auto rep = [&](Lane* lane) {
    reps.push_back(catalog_rep(options, reps.size(), lane, world, result));
    check_media_crc("catalog rip", reps.back().media_crc, kMediaCrc, reps.front().media_crc,
                    result);
  };
  Samples samples;
  LicenseLegs license(options, samples, result);
  if (!tracer.enabled()) {
    // Rounds until the budget is spent: a catalog rip (the focus), then
    // one sample of each license leg and of the companion campaign.
    CompanionCampaign campaign(options);
    run_rounds(options.deadline(), 3,
               {[&] { rep(nullptr); }, [&] { license.closed(); }, [&] { license.fixed(); },
                [&] { license.ladder(); }, [&] { campaign.sample(samples, result); }});
    for (const RipRep& r : reps) {
      samples.add("setup_s", r.setup_s);
      samples.add("rip_s", r.rip_s);
    }
    samples.report(result, "setup_s", "s");
    samples.report(result, "rip_s", "s");
    samples.report(result, "cells_per_s", "cells/s");
    license.report();
    return;
  }

  // Traced pass: untraced repetitions for the tracing overhead, then the
  // same repetitions with spans on, the keybox scan on the last world's
  // device, and the license legs' traced pass.
  for (int i = 0; i < 3; ++i) rep(nullptr);
  const double rip_s = median_of(reps, &RipRep::rip_s);
  Lane* lane = tracer.new_lane();
  const std::size_t untraced_reps = reps.size();
  for (int i = 0; i < 2; ++i) rep(lane);
  const std::vector<RipRep> traced(reps.begin() + static_cast<std::ptrdiff_t>(untraced_reps),
                                   reps.end());
  {
    const Span span(lane, "hooking.keybox_scan");
    const core::KeyboxRecoveryResult scan = core::recover_keybox(*world.device);
    result.check(scan.success(), "keybox scan on the legacy Nexus 5 found no keybox");
  }
  const double reps_n = static_cast<double>(traced.size());
  const auto per_rep_ms = [&](const char* span) {
    return static_cast<double>(tracer.merged(span).total_ns) / 1e6 / reps_n;
  };
  result.metric("ott.ecosystem_ctor_ms", per_rep_ms("ott.ecosystem_ctor"), "ms");
  result.metric("ott.install_app_ms", per_rep_ms("ott.install_app"), "ms");
  result.metric("android.make_device_ms", per_rep_ms("android.make_device"), "ms");
  result.metric("core.ripper.instrument_ms", per_rep_ms("core.ripper.instrument"), "ms");
  result.metric("core.ripper.recover_keys_ms", per_rep_ms("core.ripper.recover_keys"), "ms");
  result.metric("core.ripper.reconstruct_ms", per_rep_ms("core.ripper.reconstruct"), "ms");
  result.metric("core.ripper.verify_ms", per_rep_ms("core.ripper.verify"), "ms");
  result.metric("hooking.keybox_scan_us", per_rep_ms("hooking.keybox_scan") * reps_n * 1e3, "us");
  result.metric("core.ripper.apps_ripped", static_cast<double>(traced.back().apps_ripped), "count");
  result.metric("media.bytes_ripped", static_cast<double>(traced.back().media_bytes), "bytes");
  // The rip phases' self times should add up to the traced rip wall time.
  const double rip_total_ms = static_cast<double>(tracer.merged("perfbench.rip").total_ns) / 1e6;
  const double phases_ms = tracer.self_ms("core.ripper.");
  std::cout << "rip_s accounted: core.ripper.* self " << phases_ms << " ms of " << rip_total_ms
            << " ms traced rip (" << 100.0 * phases_ms / rip_total_ms << " %); instrument "
            << per_rep_ms("core.ripper.instrument") * reps_n / rip_total_ms * 100.0 << " %\n";
  license.trace(tracer);
  report_trace(options, tracer, "rip_s [ms]", rip_s * 1e3,
               median_of(traced, &RipRep::rip_s) * 1e3);
}

void CompanionRip::sample(Samples& samples, RunResult& result) {
  // A fresh world each sample, so every sample does the same work (the
  // world seed is fixed). One app keeps it short: Starz revokes the rooted
  // Nexus 5, so the rip stops after provisioning, whose Device RSA keygen
  // is most of its ~1.9 s. Catalog rips cost 4-5 s.
  const std::vector<ott::OttAppProfile> apps = {*ott::find_app("Starz")};
  const std::uint64_t seed = mix_seed(options_.seed, 100 + reps_);
  World world = build_world(apps, seed, nullptr);
  const RipRep rep = rip_world(world, apps, seed, nullptr, result);
  if (reps_++ == 0) first_crc_ = rep.media_crc;
  check_media_crc("Starz rip", rep.media_crc, kCompanionMediaCrc, first_crc_, result);
  samples.add("setup_s", rep.setup_s);
  samples.add("rip_s", rep.rip_s);
}

}  // namespace perfbench
