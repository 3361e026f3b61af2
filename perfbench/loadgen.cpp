#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "crypto/hmac.hpp"
#include "support/rng.hpp"
#include "widevine/key_ladder.hpp"
#include "widevine/keybox.hpp"

namespace perfbench {

namespace wv = wideleak::widevine;
using wideleak::Bytes;
using wideleak::Rng;
using wideleak::SecretBytes;

namespace {

constexpr std::uint64_t kFailedLatency = std::numeric_limits<std::uint64_t>::max();

/// Spin-wait hint, so a sender waiting for a due time takes less from the
/// core it shares.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Tenants, their content keys and the shared service every fleet uses.
Fleet base_fleet(std::uint64_t seed, std::size_t tenants) {
  Fleet fleet;
  fleet.roots = std::make_shared<wv::DeviceRootDatabase>();
  fleet.license = std::make_shared<wv::LicenseServer>(fleet.roots, mix_seed(seed, 1));
  fleet.provisioning =
      std::make_shared<wv::ProvisioningServer>(fleet.roots, mix_seed(seed, 2), 512);
  wv::DrmServiceConfig config;
  config.seed = mix_seed(seed, 3);
  fleet.service = std::make_unique<wv::DrmService>(fleet.license, fleet.provisioning, config);
  fleet.policy = wv::permissive_revocation_policy();
  for (std::size_t t = 0; t < tenants; ++t) fleet.service->register_app("tenant-" + std::to_string(t));
  return fleet;
}

std::vector<wideleak::media::KeyId> add_tenant_keys(Fleet& fleet, Rng& rng) {
  std::vector<wideleak::media::KeyId> kids;
  for (int k = 0; k < 2; ++k) {
    wideleak::media::KeyId kid = rng.next_bytes(16);
    fleet.license->add_generic_key(kid, SecretBytes(rng.next_bytes(16)));
    kids.push_back(std::move(kid));
  }
  return kids;
}

wv::LicenseResponse call(Fleet& fleet, Target target, const FleetClient& client,
                         std::uint64_t now) {
  if (target == Target::Service) {
    return fleet.service->handle_license(client.tenant, client.request, fleet.policy, now);
  }
  return fleet.license->handle(client.request, fleet.policy);
}

const char* span_name(Target target) {
  return target == Target::Service ? "widevine.service.handle_license"
                                   : "widevine.license_server.handle";
}

}  // namespace

Fleet build_keybox_fleet(std::uint64_t seed, std::size_t tenants,
                         std::size_t clients_per_tenant) {
  Fleet fleet = base_fleet(seed, tenants);
  Rng rng(mix_seed(seed, 4));
  for (std::size_t t = 0; t < tenants; ++t) {
    const auto kids = add_tenant_keys(fleet, rng);
    for (std::size_t c = 0; c < clients_per_tenant; ++c) {
      const wv::Keybox keybox = wv::make_factory_keybox(
          "legacy-" + std::to_string(t) + "-" + std::to_string(c), mix_seed(seed, 5));
      fleet.roots->register_device(keybox, wv::SecurityLevel::L3);
      FleetClient client;
      client.tenant = static_cast<wv::AppId>(t);
      client.expected_keys = kids.size();
      auto& request = client.request;
      request.client.stable_id = keybox.stable_id();
      request.client.device_model = "Nexus 5";
      request.client.cdm_version = wv::kLegacyCdm;
      request.client.level = wv::SecurityLevel::L3;
      request.nonce = rng.next_bytes(8);
      request.key_ids = kids;
      request.scheme = wv::SignatureScheme::KeyboxCmac;
      const Bytes body = request.body();
      wv::SessionKeys keys = wv::derive_session_keys(keybox.device_key(), body, body);
      request.signature = wideleak::crypto::hmac_sha256(keys.mac_key_client, body);
      client.mac_key_server = std::move(keys.mac_key_server);
      fleet.clients.push_back(std::move(client));
    }
  }
  return fleet;
}

bool verify_response(const FleetClient& client, const wv::LicenseResponse& response) {
  return response.granted && response.keys.size() == client.expected_keys &&
         wideleak::crypto::hmac_sha256_verify(client.mac_key_server, response.body(),
                                              response.mac);
}

LegResult run_closed_loop(Fleet& fleet, const LegConfig& config) {
  const std::size_t threads = std::max<std::size_t>(config.threads, 1);
  const std::size_t pool = fleet.clients.size();
  std::vector<std::uint64_t> sent(threads, 0), failed(threads, 0);
  std::vector<Clock::time_point> finished(threads);
  std::vector<Lane*> lanes(threads, nullptr);
  for (auto& lane : lanes) lane = config.tracer ? config.tracer->new_lane() : nullptr;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(config.seconds));
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        std::uint64_t i = 0;
        // Check the clock every 16 requests: cheap against ~15 us calls.
        for (; (i & 15) != 0 || Clock::now() < deadline; ++i) {
          const std::size_t idx = (w + i * threads) % pool;
          // The request span covers the client's side too (response checks).
          const Span request(lanes[w], "loadgen.request", idx);
          wv::LicenseResponse response;
          {
            const Span span(lanes[w], span_name(config.target), idx);
            response = call(fleet, config.target, fleet.clients[idx], i);
          }
          if (!verify_response(fleet.clients[idx], response)) ++failed[w];
        }
        finished[w] = Clock::now();
        sent[w] = i;
      });
    }
  }
  LegResult result;
  result.elapsed_s = std::chrono::duration<double>(
                         *std::max_element(finished.begin(), finished.end()) - start)
                         .count();
  for (std::size_t w = 0; w < threads; ++w) {
    result.sent += sent[w];
    result.failed += failed[w];
  }
  result.achieved_rps = static_cast<double>(result.sent) / result.elapsed_s;
  return result;
}

LegResult run_open_loop(Fleet& fleet, const LegConfig& config, double rate) {
  const std::size_t threads = std::max<std::size_t>(config.threads, 1);
  const std::size_t pool = fleet.clients.size();

  // The whole arrival schedule is fixed before the clock starts: a pure
  // function of (seed, rate), independent of how fast calls return.
  // Poisson arrivals (independent users), each naming a seeded client.
  struct Arrival {
    std::uint64_t due_ns;
    std::size_t client;
  };
  std::vector<Arrival> schedule;
  {
    Rng rng(config.seed);
    const double horizon_ns = config.seconds * 1e9;
    for (double t_ns = 0.0;;) {
      const double u = (static_cast<double>(rng.next_u64() >> 11) + 0.5) * 0x1.0p-53;
      t_ns += -std::log(u) * 1e9 / rate;
      if (t_ns >= horizon_ns) break;
      schedule.push_back({static_cast<std::uint64_t>(t_ns), rng.next_below(pool)});
    }
  }

  // The senders are a pool: each takes the next unclaimed arrival, waits
  // for its due time and sends it. A request whose due time passes while
  // every sender is busy waits, and that wait is part of its latency.
  const std::size_t n = schedule.size();
  std::vector<std::uint64_t> latency(n), late(n);
  std::vector<std::uint64_t> failed(threads, 0);
  std::vector<Lane*> lanes(threads, nullptr);
  for (auto& lane : lanes) lane = config.tracer ? config.tracer->new_lane() : nullptr;
  std::atomic<std::size_t> cursor{0};
  const auto start = Clock::now() + std::chrono::milliseconds(2);  // let threads spawn
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t i = cursor++; i < n; i = cursor++) {
          const Arrival& arrival = schedule[i];
          const auto due = start + std::chrono::nanoseconds(arrival.due_ns);
          if (due - Clock::now() > std::chrono::milliseconds(2)) {
            std::this_thread::sleep_until(due - std::chrono::milliseconds(1));
          }
          while (Clock::now() < due) {
            // Open loop: sends follow the schedule, never completions.
            cpu_relax();
          }
          late[i] = ns_between(due, Clock::now());
          const Span request(lanes[w], "loadgen.request", arrival.client);
          wv::LicenseResponse response;
          {
            const Span span(lanes[w], span_name(config.target), arrival.client);
            response = call(fleet, config.target, fleet.clients[arrival.client], i);
          }
          const std::uint64_t took = ns_between(due, Clock::now());
          const bool ok = verify_response(fleet.clients[arrival.client], response);
          latency[i] = ok ? took : kFailedLatency;
          if (!ok) ++failed[w];
        }
      });
    }
  }
  LegResult result;
  result.elapsed_s = seconds_since(start);
  result.sent = n;
  for (const std::uint64_t f : failed) result.failed += f;
  result.achieved_rps = static_cast<double>(n - result.failed) / config.seconds;

  // Latencies are bucketed into fixed windows of the schedule, each long
  // enough for 1000 arrivals (at least 0.1 s), so a window's p99 has ten
  // samples beyond it. The leg's p50 and p99 are medians over windows: a
  // host stall lands in one window instead of deciding the whole leg.
  const double window_s = std::max(0.1, 1000.0 / rate);
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(config.seconds / window_s));
  std::vector<std::vector<std::uint64_t>> by_window(windows);
  for (std::size_t i = 0; i < n; ++i) {
    const auto window =
        static_cast<std::size_t>(static_cast<double>(schedule[i].due_ns) / 1e9 / window_s);
    by_window[std::min(window, windows - 1)].push_back(latency[i]);
  }
  // A backlog that keeps growing shows as lateness rising through the leg:
  // the last quarter of arrivals started later than the first quarter by
  // more than a millisecond (medians, so a single stall does not count).
  if (n >= 8) {
    std::vector<std::uint64_t> head(late.begin(), late.begin() + n / 4);
    std::vector<std::uint64_t> tail(late.end() - n / 4, late.end());
    std::sort(head.begin(), head.end());
    std::sort(tail.begin(), tail.end());
    result.backlog_grew = percentile_sorted(tail, 0.5) > percentile_sorted(head, 0.5) + 1'000'000;
  }
  const auto us = [](std::uint64_t ns) {
    return ns == kFailedLatency ? std::numeric_limits<double>::infinity()
                                : static_cast<double>(ns) / 1e3;
  };
  for (auto& window : by_window) {
    if (window.empty()) continue;
    std::sort(window.begin(), window.end());
    result.window_p50_us.push_back(us(percentile_sorted(window, 0.50)));
    result.window_p99_us.push_back(us(percentile_sorted(window, 0.99)));
  }
  std::sort(late.begin(), late.end());
  result.p50_us = median(result.window_p50_us);
  result.p99_us = median(result.window_p99_us);
  result.late_p99_us = us(percentile_sorted(late, 0.99));
  result.late_max_us = late.empty() ? 0.0 : us(late.back());
  return result;
}

LadderResult run_ladder(Fleet& fleet, const LegConfig& config,
                        const std::vector<double>& rates, double limit_us) {
  LadderResult ladder;
  for (std::size_t rung = 0; rung < rates.size(); ++rung) {
    LegConfig rung_config = config;
    rung_config.seed = mix_seed(config.seed, rung);
    const LegResult leg = run_open_loop(fleet, rung_config, rates[rung]);
    ladder.sent += leg.sent;
    // A rung past saturation misses on latency; a refused or unverified
    // response is a failure on any rung.
    ladder.failed += leg.failed;
    const bool pass = leg.p99_us <= limit_us && !leg.backlog_grew;
    std::cout << "  rung " << rates[rung] << " req/s: achieved " << leg.achieved_rps << ", p99 "
              << leg.p99_us << " us, late p99 " << leg.late_p99_us << " us"
              << (leg.backlog_grew ? ", backlog grew" : "") << (pass ? "" : " -> miss") << "\n";
    if (!pass) break;
    ladder.max_rps = leg.achieved_rps;
  }
  return ladder;
}

}  // namespace perfbench
