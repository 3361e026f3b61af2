// Single-operation probes for the traced pass, and the traced pass's
// report. Probes use fixed inputs (fixed rng seeds, fixed keys), so they
// measure how fast the code is, not how lucky a key search was.
#include <filesystem>
#include <iostream>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/modes.hpp"
#include "crypto/rsa.hpp"
#include "net/tls.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wideleak;

/// Mean wall time of `body` over `reps` calls, in `scale` units per second.
template <typename Body>
double mean_time(int reps, double scale, Body&& body) {
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) body(i);
  return seconds_since(start) * scale / reps;
}

}  // namespace

void run_probes(RunResult& result) {
  result.metric("crypto.rsa_generate_512_ms", mean_time(8, 1e3, [](int i) {
                  Rng rng(0x512000 + static_cast<std::uint64_t>(i));
                  crypto::rsa_generate(rng, 512);
                }), "ms");
  result.metric("crypto.rsa_generate_1024_ms", mean_time(3, 1e3, [](int i) {
                  Rng rng(0x1024000 + static_cast<std::uint64_t>(i));
                  crypto::rsa_generate(rng, 1024);
                }), "ms");
  {
    Rng rng(0x7150);
    const net::CertificateAuthority ca("probe-ca", rng, 512);
    result.metric("net.tls.make_server_identity_ms", mean_time(4, 1e3, [&](int i) {
                    Rng id_rng(0x7151 + static_cast<std::uint64_t>(i));
                    net::make_server_identity("probe.example", ca, id_rng, 512);
                  }), "ms");
  }
  Rng rng(0xC0DE);
  const crypto::RsaKeyPair key = crypto::rsa_generate(rng, 1024);
  const Bytes message = rng.next_bytes(256);
  Bytes signature;
  result.metric("crypto.rsa_private_1024_us", mean_time(10, 1e6, [&](int) {
                  signature = crypto::rsa_pkcs1_sign(key, message);
                }), "us");
  bool verified = true;
  result.metric("crypto.rsa_public_1024_us", mean_time(200, 1e6, [&](int) {
                  verified = verified && crypto::rsa_pkcs1_verify(key.pub, message, signature);
                }), "us");
  result.check(verified, "probe: RSA-1024 signature did not verify");
  const Bytes mac_key = rng.next_bytes(32);
  result.metric("crypto.hmac_sha256_us", mean_time(20'000, 1e6, [&](int) {
                  crypto::hmac_sha256(mac_key, message);
                }), "us");
  const crypto::Aes aes(rng.next_bytes(16));
  const Bytes iv = rng.next_bytes(16);
  Bytes buffer(4u << 20, 0x5A);
  const double seconds_per_pass = mean_time(8, 1.0, [&](int) {
    crypto::aes_ctr_crypt_in_place(aes, iv, buffer);
  });
  result.metric("crypto.aes_ctr_mb_per_s", static_cast<double>(buffer.size()) / 1e6 / seconds_per_pass,
                "MB/s");
}

void report_trace(const Options& options, const Tracer& tracer, const std::string& label,
                  double untraced, double traced) {
  std::cout << tracer.self_time_table();
  std::cout << "tracing overhead on " << label << ": traced " << traced << " - untraced "
            << untraced << " = " << traced - untraced << "\n";
  std::filesystem::create_directories(options.trace_dir);
  const std::string path = options.trace_dir + "/trace-" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  if (tracer.write_chrome_json(path)) {
    std::cout << "chrome trace: " << path << " (" << tracer.dropped()
              << " spans past the per-thread cap not stored)\n";
  } else {
    std::cout << "chrome trace: could not write " << path << "\n";
  }
}

}  // namespace perfbench
