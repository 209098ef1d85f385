// session_soak: MacSessionService lifecycles (open -> auth -> forge ->
// close) driven through the service's public ops by 2 client threads
// over disjoint session ids, with advance_epoch GC between waves.
//
// Every request writes to the sharded interner and every epoch retires
// and compacts keys: the write side of the interning and snapshot
// layers, whose read side (frozen tables) the other workloads use. No
// epsilon is computed, so a change that speeds reads up at the cost of
// writes shows here.
//
// Closed loop: each client issues its next request when the previous
// one returns. In wave w a client opens, authenticates and forges a
// fresh block of sessions and closes the block it opened in wave w-1,
// so live sessions always span the epoch boundary (compaction renumbers
// their interned handles while they are open). One op is one request.

#include <barrier>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common.hpp"
#include "service/session_service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace cdse::bench {
namespace {

/// Two clients, not four: with four, request p95 swung between 2 us and
/// 12 us with the load other tenants put on a shared 4-vCPU host.
constexpr std::size_t kClients = 2;
constexpr std::size_t kSessionsPerClientWave = 512;
constexpr std::uint32_t kK = 10;
constexpr std::size_t kOpClasses = 4;  // open, auth, forge, close
constexpr std::size_t kReplayWaves = 3;
/// Requests per summary window (about 25 waves, ~0.15 s).
constexpr std::uint64_t kWindowOps = 200000;

/// Latency of one client's requests, by op class.
struct ClientTally {
  NsHistogram by_class[kOpClasses];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Sessions one wave closed, and the digest their closes contributed.
struct WaveRecord {
  std::uint64_t first_sid = 0;  // client c closed [first + c*n, +n)
  std::uint64_t digest = 0;
};

class SoakWorkload final : public Workload {
 public:
  explicit SoakWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    service_.reset();
    MacSessionService::Options o;
    o.k = kK;
    o.seed = Xoshiro256::for_stream(seed_, 0x50)();
    o.tag = instance_tag("soak", seed_, 0);
    opts_ = o;
    service_ = std::make_unique<MacSessionService>(o);
    views_.clear();
    for (std::size_t c = 0; c < kClients; ++c) {
      views_.push_back(service_->worker_view());
    }
  }

  LoopStats run(double seconds, Tracer* tracer, Counters* counters) override {
    const ServiceStats ss0 = service_->stats();
    const InternStats is0 = service_->intern_stats();
    std::vector<ClientTally> tallies(kClients);
    std::barrier sync(static_cast<std::ptrdiff_t>(kClients + 1));
    // Wave parameters: written by the main thread before the first
    // barrier of a wave, read by the clients after it.
    std::uint64_t open_base = 0, close_base = 0;
    bool do_open = false, do_close = false, stop = false;

    const auto client = [&](std::size_t c) {
      ClientTally& t = tallies[c];
      SnapshotPsioa& view = *views_[c];
      const auto timed = [&](std::size_t cls, auto&& fn) {
        const std::int64_t t0 = now_ns();
        const OpStatus s = fn();
        t.by_class[cls].record(now_ns() - t0);
        ++t.attempted;
        if (s != OpStatus::kOk) ++t.failed;
      };
      for (;;) {
        sync.arrive_and_wait();
        if (stop) break;
        const std::uint64_t o0 = open_base + c * kSessionsPerClientWave;
        const std::uint64_t c0 = close_base + c * kSessionsPerClientWave;
        for (std::size_t i = 0; i < kSessionsPerClientWave; ++i) {
          if (do_open) {
            const std::uint64_t sid = o0 + i;
            timed(0, [&] { return service_->open(view, sid); });
            timed(1, [&] { return service_->auth(view, sid); });
            timed(2, [&] { return service_->forge(view, sid); });
          }
          if (do_close) {
            timed(3, [&] { return service_->close(view, c0 + i); });
          }
        }
        sync.arrive_and_wait();
      }
    };

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);

    double epoch_ns = 0.0;
    std::uint64_t epochs = 0;
    const auto wave = [&] {
      OpGuard op(tracer, "wave");
      const std::uint64_t d0 = service_->stats().outcome_digest;
      {
        SpanGuard s(tracer, "svc.requests");
        sync.arrive_and_wait();
        sync.arrive_and_wait();
      }
      if (do_close) {
        waves_.push_back(
            {close_base, service_->stats().outcome_digest ^ d0});
      }
      SpanGuard s(tracer, "svc.epoch");
      const std::int64_t t0 = now_ns();
      service_->advance_epoch();
      epoch_ns += static_cast<double>(now_ns() - t0);
      ++epochs;
    };

    // Each wave is one pass; the clients' tallies are read between the
    // barriers, while the clients wait.
    std::vector<PassMark> marks{pass_mark(0, 0)};
    const auto mark = [&] {
      std::uint64_t attempted = 0, failed = 0;
      for (const ClientTally& t : tallies) {
        attempted += t.attempted;
        failed += t.failed;
      }
      marks.push_back(pass_mark(attempted, failed));
    };
    const std::uint64_t wave_sessions = kClients * kSessionsPerClientWave;
    const auto deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do_open = true;
    while (now_ns() < deadline) {
      open_base = next_sid_;
      next_sid_ += wave_sessions;
      wave();
      mark();
      close_base = open_base;
      do_close = true;
    }
    // Final wave: close the block still open, then collect.
    do_open = false;
    if (do_close) {
      wave();
      mark();
    }
    stop = true;
    sync.arrive_and_wait();
    for (std::thread& t : threads) t.join();

    LoopStats st;
    summarise_loop(marks, {}, kWindowOps, st);
    NsHistogram all;
    NsHistogram by_class[kOpClasses];
    for (const ClientTally& t : tallies) {
      for (std::size_t k = 0; k < kOpClasses; ++k) {
        all.merge(t.by_class[k]);
        by_class[k].merge(t.by_class[k]);
      }
    }
    if (st.failed > 0) {
      st.failures["rejected or failed session requests"] = st.failed;
    }
    st.latency_samples = all.count();
    st.p50_us = all.quantile_ns(0.50) / 1e3;
    st.p95_us = all.quantile_ns(0.95) / 1e3;
    if (counters != nullptr) {
      Counters& k = *counters;
      const char* names[kOpClasses] = {"open", "auth", "forge", "close"};
      for (std::size_t c = 0; c < kOpClasses; ++c) {
        k[std::string("svc.") + names[c] + "_ns_p50"] =
            by_class[c].quantile_ns(0.5);
      }
      k["svc.epochs"] = static_cast<double>(epochs);
      k["svc.epoch_ns"] = epoch_ns;
      const ServiceStats ss = service_->stats();
      k["svc.rejected"] = static_cast<double>(ss.rejected - ss0.rejected);
      k["svc.forgeries"] = static_cast<double>(ss.forgeries - ss0.forgeries);
      const InternStats is = service_->intern_stats();
      k["intern.lookups"] = static_cast<double>(is.lookups - is0.lookups);
      k["intern.probes"] = static_cast<double>(is.probes - is0.probes);
      k["intern.rehashes"] = static_cast<double>(is.rehashes - is0.rehashes);
      k["intern.keys_retired"] = static_cast<double>(is.keys_retired - is0.keys_retired);
      k["intern.bytes_reclaimed"] = static_cast<double>(is.bytes_reclaimed - is0.bytes_reclaimed);
      k["intern.bytes_live_end"] = static_cast<double>(is.bytes_live);
      k["intern.live_keys_end"] =
          static_cast<double>(service_->interner_live_keys());
    }
    return st;
  }

  std::vector<std::string> verify() override {
    std::vector<std::string> wrong;
    const ServiceStats ss = service_->stats();
    const double n = static_cast<double>(ss.forged_attempts);
    const double p = std::ldexp(1.0, -static_cast<int>(kK));
    const double sigma = std::sqrt(n * p * (1.0 - p));
    if (std::abs(static_cast<double>(ss.forgeries) - n * p) > 6.0 * sigma + 1.0) {
      wrong.push_back("forgeries " + std::to_string(ss.forgeries) + " of " +
                      std::to_string(ss.forged_attempts) +
                      " attempts lie outside 6 sigma of 2^-k");
    }
    if (service_->interner_live_keys() != 0) {
      wrong.push_back("interner holds " +
                      std::to_string(service_->interner_live_keys()) +
                      " live keys after every session closed");
    }
    // Outcomes are a pure function of (seed, sid): replaying a few waves
    // on a fresh service, one thread, no GC, must reproduce their
    // digests.
    MacSessionService::Options o = opts_;
    o.gc = false;
    MacSessionService fresh(o);
    auto view = fresh.worker_view();
    Xoshiro256 pick = Xoshiro256::for_stream(seed_, 0x51);
    for (std::size_t r = 0; r < kReplayWaves && !waves_.empty(); ++r) {
      const WaveRecord& w = waves_[pick.below(waves_.size())];
      const std::uint64_t d0 = fresh.stats().outcome_digest;
      const std::uint64_t count = kClients * kSessionsPerClientWave;
      for (std::uint64_t sid = w.first_sid; sid < w.first_sid + count; ++sid) {
        if (fresh.is_open(sid)) continue;
        (void)fresh.open(*view, sid);
        (void)fresh.auth(*view, sid);
        (void)fresh.forge(*view, sid);
        (void)fresh.close(*view, sid);
      }
      if ((fresh.stats().outcome_digest ^ d0) != w.digest) {
        wrong.push_back("wave from sid " + std::to_string(w.first_sid) +
                        " replays to a different outcome digest");
      }
    }
    return wrong;
  }

  std::string shape() const override {
    return std::to_string(kClients) + " client threads, " +
           std::to_string(kSessionsPerClientWave) +
           " lifecycles per client per wave, advance_epoch between waves";
  }

 private:
  std::uint64_t seed_;
  MacSessionService::Options opts_;
  std::unique_ptr<MacSessionService> service_;
  std::vector<std::shared_ptr<SnapshotPsioa>> views_;
  std::uint64_t next_sid_ = 0;
  std::vector<WaveRecord> waves_;
};

}  // namespace

std::unique_ptr<Workload> make_soak_workload(std::uint64_t seed) {
  return std::make_unique<SoakWorkload>(seed);
}

}  // namespace cdse::bench
