#include "serve_mix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <thread>

#include "algo/graphgen.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace algo = obliv::algo;
namespace serve = obliv::serve;
using obliv::sched::NativeExecutor;
using obliv::util::Xoshiro256;

namespace {

// Offered load, as shares of the capacity the round's closed loop just
// measured: a light phase, then a heavy one.  Relative rates keep the load
// factor fixed when other tenants of a shared host slow the whole machine;
// at a fixed absolute rate a 15% slower host turns 60% load into 70% and
// queueing multiplies that into the latency percentiles.  The heavy phase
// runs at 30%: on the reference host other tenants cut capacity by up to
// half within a round, which at 50-70% offered load saturates the server
// and multiplied lat_p50_ms run to run (README.md).
constexpr double kLightLoad = 0.10, kHeavyLoad = 0.30;
constexpr std::size_t kLightJobs = 150, kHeavyJobs = 1350;

/// Bounded Pareto sample in [lo, hi], alpha 1.3: most jobs small, a heavy
/// tail of large ones.
std::uint64_t pareto(Xoshiro256& rng, std::uint64_t lo, std::uint64_t hi) {
  const double u = std::max(rng.uniform(), 1e-12);
  const double v = static_cast<double>(lo) / std::pow(u, 1.0 / 1.3);
  return std::min<std::uint64_t>(hi, std::max<std::uint64_t>(
                                         lo, static_cast<std::uint64_t>(v)));
}

std::uint64_t floor_pow2(std::uint64_t v) {
  return std::uint64_t{1} << (63 - __builtin_clzll(v));
}

/// Blocks until every admitted job has been reaped, so no worker still
/// touches the server's tracer: Server::set_tracer's precondition.
void wait_quiescent(serve::Server& srv) {
  while (srv.stats().inflight != 0) std::this_thread::yield();
}

}  // namespace

struct ServePhase::Job {
  Instance inst;
  serve::JobHandle handle;
};

ServePhase::ServePhase(const Options& opt, Spans& spans)
    : opt_(opt), spans_(spans) {
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  workers_ = std::max(1u, std::min(4u, hc) - 1);
  Xoshiro256 rng(opt.seed * 0x9e3779b97f4a7c15ull + 200);
  const std::size_t light = opt.smoke ? 20 : kLightJobs;
  const std::size_t heavy = opt.smoke ? 180 : kHeavyJobs;
  std::map<std::uint64_t, std::shared_ptr<const algo::SparseMatrix>> grids;
  light_jobs_ = light;
  for (std::size_t i = 0; i < light + heavy; ++i) {
    // Poisson arrivals: unit-rate exponential gaps, scaled by the phase's
    // rate when a round starts.
    gaps_.push_back(-std::log(std::max(rng.uniform(), 1e-12)));
    const Kind kind = served_kind(rng.below(serve::kFamilies));
    const std::uint64_t seed = rng();
    std::uint64_t n = 0;
    std::shared_ptr<const algo::SparseMatrix> spm;
    switch (kind) {
      case Kind::kScan: n = pareto(rng, 512, 32768); break;
      case Kind::kSort: n = pareto(rng, 256, 16384); break;
      case Kind::kFft: n = floor_pow2(pareto(rng, 256, 8192)); break;
      case Kind::kTranspose: n = floor_pow2(pareto(rng, 8, 128)); break;
      case Kind::kGep: n = floor_pow2(pareto(rng, 8, 64)); break;
      case Kind::kListRank: n = pareto(rng, 32, 512); break;
      case Kind::kSpmdv: {
        const std::uint64_t side = floor_pow2(pareto(rng, 8, 64));
        auto& g = grids[side];
        if (!g) {
          g = std::make_shared<const algo::SparseMatrix>(
              algo::grid_matrix_reordered(side, opt.seed));
        }
        spm = g;
        break;
      }
      case Kind::kMatmul: break;  // not served
    }
    jobs_.push_back(std::make_unique<Job>(
        Job{Instance(kind, n, seed, opt.dist, std::move(spm)), {}}));
  }
  serve::ServerOptions so;
  so.threads = workers_;
  so.queue_capacity = jobs_.size();  // refusals would hide queueing
  srv_ = std::make_unique<serve::Server>(so);
}

ServePhase::~ServePhase() = default;

void ServePhase::reset_jobs() {
  for (auto& j : jobs_) {
    j->handle = serve::JobHandle();
    j->inst.reset();
  }
}

void ServePhase::check_jobs(Report& rep, const char* tag) {
  NativeExecutor serial(1);
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    Job& j = *jobs_[i];
    if (!j.handle.valid()) continue;  // refusals were already counted
    const bool ok = j.handle.wait().ok() && j.inst.check(serial);
    rep.check(ok, std::string("served ") + j.inst.name() + " " + tag +
                      " job " + std::to_string(i));
  }
  reset_jobs();
}

ServePhase::RoundStats ServePhase::open_loop(serve::Server& srv, Report& rep,
                                             double capacity_jps,
                                             bool job_spans) {
  const std::size_t n = jobs_.size();
  RoundStats rs;
  std::vector<Clock::time_point> due(n), done(n);
  std::vector<std::size_t> outstanding_at(n, 0);
  std::vector<bool> refused(n, false);
  std::vector<std::size_t> outstanding;
  outstanding.reserve(n);
  const std::int64_t parent = spans_.current();
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps_[i] / (capacity_jps * (i < light_jobs_ ? kLightLoad : kHeavyLoad));
    due[i] = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(t * 1e9));
  }
  // One thread submits on schedule and, between submits, polls every
  // outstanding handle, stamping each job when it is seen done -- in
  // completion order, not submit order.
  std::size_t next = 0;
  while (next < n || !outstanding.empty()) {
    const auto now = Clock::now();
    if (next < n && now >= due[next]) {
      const std::size_t i = next++;
      rs.late_ms.push_back(ms_between(due[i], now));
      outstanding_at[i] = outstanding.size();
      auto r = srv.submit(jobs_[i]->inst.request());
      rs.submit_us.push_back(ms_between(now, Clock::now()) * 1e3);
      if (r.ok()) {
        jobs_[i]->handle = r.value();
        outstanding.push_back(i);
      } else {
        refused[i] = true;
        rep.fail("serve submit refused: " + r.status().message());
      }
      continue;
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      const std::size_t i = outstanding[k];
      if (jobs_[i]->handle.done()) {
        done[i] = Clock::now();
        outstanding[k] = outstanding.back();
        outstanding.pop_back();
      } else {
        ++k;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = !refused[i] && jobs_[i]->handle.wait().ok();
    const double lat = ok ? ms_between(due[i], done[i])
                          : std::numeric_limits<double>::infinity();
    rs.lat_ms.push_back(lat);
    (outstanding_at[i] == 0 ? rs.idle_lat_ms : rs.busy_lat_ms).push_back(lat);
    if (job_spans && ok) {
      spans_.record(std::string("serve.job.") + jobs_[i]->inst.name(), due[i],
                    done[i], parent, static_cast<std::int64_t>(i));
    }
  }
  return rs;
}

double ServePhase::closed_loop(serve::Server& srv, Report& rep) {
  Scope s(spans_, "serve.closed_loop");
  const std::size_t n = jobs_.size();
  const std::size_t window = 2 * workers_;
  std::vector<std::size_t> outstanding;
  std::size_t next = 0;
  const auto t0 = Clock::now();
  while (next < n || !outstanding.empty()) {
    while (next < n && outstanding.size() < window) {
      auto r = srv.submit(jobs_[next]->inst.request());
      if (r.ok()) {
        jobs_[next]->handle = r.value();
        outstanding.push_back(next);
      } else {
        rep.fail("serve submit refused: " + r.status().message());
      }
      ++next;
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      if (jobs_[outstanding[k]]->handle.done()) {
        outstanding[k] = outstanding.back();
        outstanding.pop_back();
      } else {
        ++k;
      }
    }
  }
  return seconds_between(t0, Clock::now());
}

void ServePhase::warmup(Report& rep) {
  Scope s(spans_, "serve.warmup");
  closed_loop(*srv_, rep);
  check_jobs(rep, "warmup");
}

void ServePhase::round(Report& rep) {
  Scope s(spans_, "serve.round");
  // Capacity from two closed-loop passes of the job set (each checked and
  // reset outside the timed region).  The open loop offers load as a share
  // of this round's capacity.
  double busy_s = 0;
  for (int k = 0; k < 2; ++k) {
    busy_s += closed_loop(*srv_, rep);
    check_jobs(rep, "closed-loop");
  }
  capacity_.push_back(2.0 * static_cast<double>(jobs_.size()) / busy_s);
  RoundStats rs;
  {
    Scope o(spans_, "serve.open_loop");
    rs = open_loop(*srv_, rep, capacity_.back(), false);
  }
  check_jobs(rep, "open-loop");
  p50_ms_.push_back(quantile(rs.lat_ms, 0.5));
  p99_ms_.push_back(quantile(rs.lat_ms, 0.99));
  Report::log("serve-mix round %zu: %zu jobs, p50 %.4f ms, p99 %.4f ms "
              "(%zu samples beyond), capacity %.1f jobs/s",
              p99_ms_.size(), rs.lat_ms.size(), p50_ms_.back(),
              p99_ms_.back(), samples_beyond(rs.lat_ms, 0.99),
              capacity_.back());
}

double ServePhase::served_alone_vs_direct(Report& rep) {
  // One mid-sized sort, alone on an idle server vs called directly on an
  // executor with as many threads; paired and alternated, median ratio.
  Instance sort(Kind::kSort, opt_.smoke ? 4096 : 16384, opt_.seed + 300,
                opt_.dist);
  NativeExecutor direct(workers_);
  NativeExecutor serial(1);
  std::vector<double> ratios;
  for (int r = 0; r < 21; ++r) {
    sort.reset();
    const double td = time_s([&] { sort.run(direct); });
    rep.check(sort.check(serial), "direct sort for serve overhead");
    sort.reset();
    const double ts = time_s([&] {
      auto h = srv_->submit(sort.request());
      if (!h.ok() || !h.value().wait().ok()) rep.fail("served sort for overhead");
    });
    rep.check(sort.check(serial), "served sort for serve overhead");
    ratios.push_back(ts / td);
  }
  return 100.0 * (median(ratios) - 1.0);
}

void ServePhase::report_layers(Report& rep) {
  Scope s(spans_, "serve.layers");
  // The untraced rounds' figures: medians over rounds, so a round spoiled
  // by a burst of load from other tenants of the host does not move them.
  rep.add("lat_p50_ms", median(p50_ms_), "ms");
  rep.add("lat_p99_ms", median(p99_ms_), "ms");
  rep.add("capacity_jps", median(capacity_), "1/s");
  rep.add("serve.overhead_pct", served_alone_vs_direct(rep), "%");

  // Tracing overhead on the closed loop, alternated.  The tracer is
  // swapped only while no job is in flight.
  obliv::obs::Tracer tracer(srv_->threads());
  std::vector<double> off, on;
  for (int r = 0; r < 3; ++r) {
    off.push_back(closed_loop(*srv_, rep));
    check_jobs(rep, "closed-loop untraced");
    wait_quiescent(*srv_);
    srv_->set_tracer(&tracer);
    on.push_back(closed_loop(*srv_, rep));
    wait_quiescent(*srv_);
    srv_->set_tracer(nullptr);
    check_jobs(rep, "closed-loop traced");
  }
  rep.add("obs.trace_overhead_pct.serve-mix",
          100.0 * (median(on) / median(off) - 1.0), "%");

  // The traced open-loop round, on a fresh server so the job histograms
  // and queue peak cover this round only.
  serve::ServerOptions so = srv_->options();
  serve::Server srv(so);
  obliv::obs::Tracer round_tracer(srv.threads());
  srv.set_tracer(&round_tracer);
  RoundStats rs;
  {
    Scope o(spans_, "serve.open_loop.traced");
    rs = open_loop(srv, rep, median(capacity_), true);
  }
  srv.shutdown();
  check_jobs(rep, "traced open-loop");
  const auto& reg = round_tracer.counters();
  auto hist_ms = [&](const char* name, std::uint32_t pct) {
    const obliv::obs::Histogram* h = reg.find_histogram(name);
    return h ? static_cast<double>(h->percentile(pct)) / 1e6 : 0.0;
  };
  rep.add("serve.submit_us.p50", quantile(rs.submit_us, 0.5), "us");
  rep.add("serve.submit_us.p99", quantile(rs.submit_us, 0.99), "us");
  rep.add("serve.wait_ms.p50", hist_ms("serve.job.wait_ns", 50), "ms");
  rep.add("serve.wait_ms.p99", hist_ms("serve.job.wait_ns", 99), "ms");
  rep.add("serve.run_ms.p50", hist_ms("serve.job.run_ns", 50), "ms");
  rep.add("serve.run_ms.p99", hist_ms("serve.job.run_ns", 99), "ms");
  rep.add("serve.lat_idle_p50_ms", quantile(rs.idle_lat_ms, 0.5), "ms");
  rep.add("serve.lat_busy_p50_ms", quantile(rs.busy_lat_ms, 0.5), "ms");
  rep.add("serve.queue_peak", static_cast<double>(srv.stats().queue_peak),
          "count");
  rep.add("gen.late_p99_ms", quantile(rs.late_ms, 0.99), "ms");
  Report::log("serve-mix traced round: %zu jobs, %zu idle / %zu busy at "
              "submit, %zu samples beyond p99",
              rs.lat_ms.size(), rs.idle_lat_ms.size(), rs.busy_lat_ms.size(),
              samples_beyond(rs.lat_ms, 0.99));
}

}  // namespace perfbench
