// Microbenchmark for the crypto hot path behind PPBS submission.
//
// Three questions, one JSON artifact (BENCH_micro_crypto.json):
//   1. Raw SHA-256 compression throughput (streaming a large buffer) —
//      the hard ceiling every HMAC number divides into.
//   2. One-shot HMAC-SHA-256 over u64 messages (4 compressions: ipad,
//      inner finalise, opad, outer finalise) vs the midstate-cached
//      HmacKeyCtx path (2 compressions) — the per-digest win behind the
//      submit-phase speedup.
//   3. The batched API (hmac_sha256_u64_batch semantics through a held
//      context), which is what prefix/hashed_set actually calls: the
//      fixed two-block kernel on its lanes, over one long batch and over
//      family-sized batches (5: one bid value family; 21: a range
//      cover), plus the portable two-block kernel the CPUID dispatch
//      falls back to.
//
// Schema matches perf_scaling's conventions: a JSON array of flat
// objects, one per (bench, iters) sample, throughput in ops/s (or MB/s
// for the stream bench, flagged by the unit field).
#include <chrono>
#include <fstream>

#include "bench_util.h"
#include "crypto/hmac.h"
#include "crypto/sha256_kernel.h"

namespace {

using namespace lppa;

struct Sample {
  std::string bench;
  std::size_t iters = 0;
  double wall_ms = 0.0;
  double throughput = 0.0;
  std::string unit;  // "ops/s" or "MB/s"
};

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void write_json(const std::string& path, const std::vector<Sample>& samples) {
  std::ofstream out = bench::open_output_or_die(path);
  obs::JsonWriter w(out, /*indent=*/2);
  w.begin_array();
  for (const Sample& s : samples) {
    w.begin_object()
        .field("bench", std::string_view(s.bench))
        .field("iters", s.iters)
        .field("wall_ms", s.wall_ms)
        .field("throughput", s.throughput)
        .field("unit", std::string_view(s.unit))
        .end_object();
  }
  w.end_array();
  out << "\n";
  bench::close_output_or_die(out, path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = lppa::bench::BenchArgs::parse(argc, argv);

  const std::size_t stream_mib = args.smoke ? 4 : (args.full ? 64 : 16);
  const std::size_t hmac_iters =
      args.smoke ? 50'000 : (args.full ? 1'000'000 : 250'000);

  Rng rng(20130708);
  const auto key = crypto::SecretKey::generate(rng);
  std::vector<Sample> samples;

  std::cout << "sha256 compression: "
            << (crypto::Sha256::accelerated() ? "x86 SHA extensions"
                                              : "portable scalar")
            << "\n";

  // --- 1. SHA-256 compression throughput --------------------------------
  {
    std::vector<std::uint8_t> buf(stream_mib * 1024 * 1024);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
    crypto::Digest d;
    const double ms = time_ms([&] {
      d = crypto::Sha256::hash(std::span<const std::uint8_t>(buf));
    });
    Sample s;
    s.bench = "sha256_stream";
    s.iters = buf.size() / 64;  // compression-function invocations
    s.wall_ms = ms;
    s.throughput = bench::rate_per_sec(static_cast<double>(stream_mib), ms);
    s.unit = "MB/s";
    samples.push_back(s);
    // Keep the digest observable so the hash is not dead code.
    std::cout << "sha256(" << stream_mib << " MiB) = " << d.hex().substr(0, 16)
              << "...  " << s.throughput << " MB/s\n";
  }

  // --- 2. one-shot vs midstate-cached HMAC over u64 ----------------------
  // A multiple of both family sizes, so every batch row covers all values.
  std::vector<std::uint64_t> values(hmac_iters - hmac_iters % (5 * 21));
  for (auto& v : values) v = rng.next();

  std::uint64_t oneshot_acc = 0, midstate_acc = 0, batch_acc = 0;
  {
    const double ms = time_ms([&] {
      for (const std::uint64_t v : values) {
        oneshot_acc ^= crypto::hmac_sha256_u64(key, v).fingerprint();
      }
    });
    samples.push_back({"hmac_u64_oneshot", values.size(), ms,
                       bench::rate_per_sec(static_cast<double>(values.size()), ms),
                       "ops/s"});
  }
  {
    const crypto::HmacKeyCtx ctx(key);
    const double ms = time_ms([&] {
      for (const std::uint64_t v : values) {
        midstate_acc ^= ctx.mac_u64(v).fingerprint();
      }
    });
    samples.push_back({"hmac_u64_midstate", values.size(), ms,
                       bench::rate_per_sec(static_cast<double>(values.size()), ms),
                       "ops/s"});
  }

  // --- 3. the batch API (what hashed_set calls) ---------------------------
  const crypto::HmacKeyCtx ctx(key);
  const auto batch_sample = [&](const char* name, std::size_t batch,
                                const auto& run) {
    std::vector<crypto::Digest> out(values.size());
    const std::size_t n = values.size();
    const double ms = time_ms([&] {
      for (std::size_t i = 0; i < n; i += batch) {
        run(std::span<const std::uint64_t>(values).subspan(i, batch),
            std::span<crypto::Digest>(out).subspan(i, batch));
      }
    });
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc ^= out[i].fingerprint();
    samples.push_back({name, n, ms,
                       bench::rate_per_sec(static_cast<double>(n), ms),
                       "ops/s"});
    return acc;
  };
  const auto batched = [&](std::span<const std::uint64_t> v,
                           std::span<crypto::Digest> out) {
    ctx.mac_u64_batch(v, out);
  };
  batch_acc = batch_sample("hmac_u64_batch", values.size(),
                           [&](auto v, auto out) {
                             crypto::hmac_sha256_u64_batch(key, v, out);
                           });
  const std::uint64_t family_acc[2] = {
      batch_sample("hmac_u64_batch5", 5, batched),
      batch_sample("hmac_u64_batch21", 21, batched)};

  // The portable kernel, from midstates built the way HmacKeyCtx builds
  // them (key ^ ipad / key ^ opad, one compression each).
  crypto::kernel::State inner = crypto::kernel::kInitialState;
  crypto::kernel::State outer = crypto::kernel::kInitialState;
  {
    std::array<std::uint8_t, 64> pad{};
    const auto kb = key.bytes();
    for (std::size_t i = 0; i < pad.size(); ++i) {
      pad[i] = (i < kb.size() ? kb[i] : 0) ^ 0x36;
    }
    crypto::kernel::compress_scalar(inner, pad.data(), 1);
    for (std::size_t i = 0; i < pad.size(); ++i) {
      pad[i] = (i < kb.size() ? kb[i] : 0) ^ 0x5c;
    }
    crypto::kernel::compress_scalar(outer, pad.data(), 1);
  }
  const std::uint64_t scalar_acc = batch_sample(
      "hmac_u64_batch_scalar", values.size(), [&](auto v, auto out) {
        crypto::kernel::hmac_u64_scalar(inner, outer, v.data(), out.data(),
                                        v.size());
      });

  // Every path must be digest-identical — this is the property the hmac
  // tests pin; re-checked here so a bench run can never publish numbers
  // for a broken fast path.
  for (const std::uint64_t acc :
       {midstate_acc, batch_acc, family_acc[0], family_acc[1], scalar_acc}) {
    if (acc != oneshot_acc) {
      std::cerr << "FATAL: one-shot / midstate / batch HMAC digests disagree\n";
      return 1;
    }
  }

  Table table({"bench", "iters", "wall_ms", "throughput", "unit"});
  for (const Sample& s : samples) {
    table.add_row({s.bench, Table::cell(s.iters), Table::cell(s.wall_ms, 3),
                   Table::cell(s.throughput, 1), s.unit});
  }
  lppa::bench::emit(table, args,
                    "crypto micro: SHA-256 blocks, HMAC one-shot vs midstate vs batch");

  const double one = samples[1].wall_ms, mid = samples[2].wall_ms;
  if (mid > 0.0) {
    std::cout << "midstate-cached HMAC speedup over one-shot: " << one / mid
              << "x\n";
  }

  const std::string json_path =
      args.json_path.empty() ? "BENCH_micro_crypto.json" : args.json_path;
  write_json(json_path, samples);
  std::cout << "wrote " << json_path << " (" << samples.size() << " samples)\n";

  obs::MetricsRegistry registry;
  for (const Sample& s : samples) {
    registry.record_span("bench." + s.bench, registry.next_span_id(),
                         /*parent=*/0, s.wall_ms * 1000.0);
  }
  lppa::bench::dump_metrics(registry, args);
  return 0;
}
