#include "serve/frontend.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace sttsv::serve {

namespace {

std::size_t reason_index(RejectReason reason) {
  return static_cast<std::size_t>(reason);
}

}  // namespace

Frontend::Frontend(simt::Machine& machine,
                   std::shared_ptr<const batch::Plan> plan,
                   const tensor::SymTensor3& a, FrontendOptions opts)
    : machine_(machine),
      plan_(std::move(plan)),
      opts_(opts),
      engine_(machine, plan_, a,
              batch::EngineOptions{.max_batch_size = opts.batch_width,
                                   .exchanger = opts.exchanger,
                                   .transport = opts.transport,
                                   .pipeline = opts.pipeline,
                                   .topology = opts.topology,
                                   .hier_inter = opts.hier_inter}),
      base_beta_ns_(opts.service_beta_ns) {
  STTSV_REQUIRE(opts_.batch_width >= 1, "batch width must be >= 1");
  STTSV_REQUIRE(opts_.global_queue_depth >= 1,
                "global queue depth must be >= 1");
  STTSV_REQUIRE(opts_.service_alpha_ns + opts_.service_beta_ns >= 1,
                "service model must cost at least 1 ns per batch");
}

TenantId Frontend::add_tenant(std::string name, TenantQuota quota) {
  STTSV_REQUIRE(quota.max_queue_depth >= 1,
                "tenant queue depth must be >= 1");
  const TenantId id = drr_.add_lane(quota.weight);
  STTSV_CHECK(id == tenants_.size(), "lane/tenant id drift");
  TenantStats stats;
  stats.name = std::move(name);
  stats.quota = quota;
  tenants_.push_back(std::move(stats));
  buckets_.emplace_back(quota.rate_per_s, quota.burst);
  dispatched_.emplace_back();
  return id;
}

const TenantStats& Frontend::tenant_stats(TenantId tenant) const {
  STTSV_REQUIRE(tenant < tenants_.size(), "unknown tenant");
  return tenants_[tenant];
}

double Frontend::saturation_jobs_per_s() const {
  const double width = static_cast<double>(opts_.batch_width);
  const double batch_ns = static_cast<double>(
      opts_.service_alpha_ns + opts_.service_beta_ns * opts_.batch_width);
  return width / batch_ns * 1e9;
}

void Frontend::degrade_capacity(std::size_t alive) {
  const std::size_t P = machine_.num_ranks();
  STTSV_REQUIRE(alive >= 1 && alive <= P,
                "alive count must be in [1, num_ranks]");
  // Ceiling division: a shrunken cluster never looks cheaper than full
  // width, and alive == P restores the construction-time beta exactly.
  opts_.service_beta_ns = (base_beta_ns_ * P + alive - 1) / alive;
}

std::size_t Frontend::in_flight(TenantId tenant) {
  std::deque<std::uint64_t>& d = dispatched_[tenant];
  while (!d.empty() && d.front() <= now_ns_) d.pop_front();
  return drr_.lane_depth(tenant) + d.size();
}

Admission Frontend::submit(TenantId tenant, std::vector<double> x,
                           Callback cb) {
  STTSV_REQUIRE(tenant < tenants_.size(), "unknown tenant");
  TenantStats& ts = tenants_[tenant];
  const auto reject = [&](RejectReason reason) {
    ++ts.rejected_total;
    ++ts.rejected[reason_index(reason)];
    ++stats_.rejected;
    return Admission{false, 0, reason};
  };
  // Check order matches RejectReason declaration order: structural checks
  // first, shared-capacity checks next, the token bucket last so a job
  // rejected for capacity does not burn rate budget.
  if (x.size() != plan_->key().n) return reject(RejectReason::kShapeMismatch);
  if (drr_.lane_depth(tenant) >= ts.quota.max_queue_depth) {
    return reject(RejectReason::kTenantQueueFull);
  }
  if (drr_.backlog() >= opts_.global_queue_depth) {
    return reject(RejectReason::kGlobalQueueFull);
  }
  if (in_flight(tenant) >= ts.quota.max_in_flight) {
    return reject(RejectReason::kInFlightQuota);
  }
  if (!buckets_[tenant].try_take(now_ns_)) {
    return reject(RejectReason::kRateLimited);
  }

  const std::uint64_t handle = next_handle_++;
  PendingJob job;
  job.tenant = tenant;
  job.seq = ts.admitted;
  job.arrival_ns = now_ns_;
  job.x = std::move(x);
  job.cb = std::move(cb);
  jobs_.emplace(handle, std::move(job));
  ++ts.admitted;
  ++stats_.admitted;
  drr_.enqueue(tenant, handle);
  // Greedy dispatch: an idle server starts a batch immediately (width 1
  // at light load); a busy server leaves the job queued for the next
  // completion boundary (advance_to).
  if (busy_until_ns_ <= now_ns_) run_batch(now_ns_);
  return Admission{true, handle, RejectReason::kShapeMismatch};
}

void Frontend::advance_to(std::uint64_t now_ns) {
  STTSV_REQUIRE(now_ns >= now_ns_, "virtual clock must not go backwards");
  // After any submit/pump, backlog > 0 implies the server is busy; each
  // completion at or before the target time starts the next batch.
  while (drr_.backlog() > 0 && busy_until_ns_ <= now_ns) {
    now_ns_ = std::max(now_ns_, busy_until_ns_);
    run_batch(now_ns_);
  }
  now_ns_ = now_ns;
}

void Frontend::drain() {
  while (drr_.backlog() > 0) {
    now_ns_ = std::max(now_ns_, busy_until_ns_);
    run_batch(now_ns_);
  }
  now_ns_ = std::max(now_ns_, busy_until_ns_);
}

void Frontend::run_batch(std::uint64_t start_ns) {
  const std::vector<DrrScheduler::Pick> picks =
      drr_.next_batch(opts_.batch_width);
  STTSV_CHECK(!picks.empty(), "run_batch with an empty backlog");
  const std::size_t B = picks.size();
  obs::Span batch_span("serve.batch", obs::Category::kServe, B);

  std::vector<PendingJob> jobs;
  jobs.reserve(B);
  for (const auto& [lane, handle] : picks) {
    auto it = jobs_.find(handle);
    STTSV_CHECK(it != jobs_.end(), "scheduled job missing from the store");
    STTSV_CHECK(it->second.tenant == lane, "lane/tenant mismatch");
    jobs.push_back(std::move(it->second));
    jobs_.erase(it);
  }

  // Ledger baseline for per-tenant attribution of this batch's delta.
  const simt::CommLedger& ledger = machine_.ledger();
  const std::uint64_t words0 = ledger.total_words();
  const std::uint64_t overhead0 = ledger.total_words(simt::Channel::kOverhead);
  const std::uint64_t onesided0 = ledger.total_words(simt::Channel::kOneSided);
  const std::uint64_t messages0 = ledger.total_messages();
  const std::uint64_t rounds0 = ledger.rounds();

  // Attribute a ledger delta across lanes: every lane gets the floor
  // share, the first (delta mod B) lanes in batch order one extra word —
  // deterministic, and the shares sum exactly to the delta.
  const auto share = [B](std::uint64_t total, std::size_t v) {
    return total / B + (v < total % B ? 1 : 0);
  };

  // The engine queue is empty between serve batches and B <= the engine's
  // max_batch_size, so flush() runs exactly one aggregated batch whose
  // lane order is the DRR pick order. A simt::FaultError (fail-fast
  // exchanger, retry budget spent) leaves that batch queued in the
  // engine; we reclaim the inputs, re-park the jobs under their ORIGINAL
  // handles and seq numbers, and put the handles back at the front of
  // their lanes in reverse pick order — so per-lane FIFO order, in-flight
  // accounting, and admission quotas are exactly as before the dispatch.
  // The faulted attempt's ledger delta (retries are real traffic) is
  // still attributed to the picked lanes so per-tenant shares keep
  // summing exactly to the machine ledger.
  std::vector<std::vector<double>> ys(B);
  try {
    for (std::size_t v = 0; v < B; ++v) {
      engine_.submit(std::move(jobs[v].x),
                     [&ys, v](std::size_t, std::vector<double> y) {
                       ys[v] = std::move(y);
                     });
    }
    engine_.flush();
  } catch (const simt::FaultError&) {
    const simt::CommLedger& led = machine_.ledger();
    const std::uint64_t dw = led.total_words() - words0;
    const std::uint64_t doh =
        led.total_words(simt::Channel::kOverhead) - overhead0;
    const std::uint64_t dos =
        led.total_words(simt::Channel::kOneSided) - onesided0;
    const std::uint64_t dm = led.total_messages() - messages0;
    const std::uint64_t dr = led.rounds() - rounds0;
    for (std::size_t v = 0; v < B; ++v) {
      TenantStats& ts = tenants_[jobs[v].tenant];
      ts.words += share(dw, v);
      ts.overhead_words += share(doh, v);
      ts.onesided_words += share(dos, v);
      ts.messages += share(dm, v);
      ts.rounds += share(dr, v);
    }
    std::vector<std::vector<double>> xs = engine_.cancel_pending();
    STTSV_CHECK(xs.size() == B, "faulted batch did not stay queued intact");
    for (std::size_t v = 0; v < B; ++v) {
      jobs[v].x = std::move(xs[v]);
      jobs_.emplace(picks[v].second, std::move(jobs[v]));
    }
    for (std::size_t v = B; v-- > 0;) {
      drr_.requeue_front(picks[v].first, picks[v].second);
    }
    ++stats_.dispatch_failures;
    // busy_until_ / batches_run are untouched: virtually, the batch
    // never started.
    throw;
  }

  const std::uint64_t delta_words = ledger.total_words() - words0;
  const std::uint64_t delta_overhead =
      ledger.total_words(simt::Channel::kOverhead) - overhead0;
  const std::uint64_t delta_onesided =
      ledger.total_words(simt::Channel::kOneSided) - onesided0;
  const std::uint64_t delta_messages = ledger.total_messages() - messages0;
  const std::uint64_t delta_rounds = ledger.rounds() - rounds0;

  const std::uint64_t completion_ns =
      start_ns + opts_.service_alpha_ns +
      opts_.service_beta_ns * static_cast<std::uint64_t>(B);
  busy_until_ns_ = completion_ns;

  ++stats_.batches_run;
  stats_.batched_jobs += B;
  stats_.largest_batch = std::max(stats_.largest_batch, B);

  for (std::size_t v = 0; v < B; ++v) {
    TenantStats& ts = tenants_[jobs[v].tenant];
    obs::Span tenant_span("serve.tenant-slice", obs::Category::kServe,
                          jobs[v].tenant);
    ts.words += share(delta_words, v);
    ts.overhead_words += share(delta_overhead, v);
    ts.onesided_words += share(delta_onesided, v);
    ts.messages += share(delta_messages, v);
    ts.rounds += share(delta_rounds, v);
    ++ts.completed;
    ++stats_.completed;
    const double wait =
        static_cast<double>(start_ns - jobs[v].arrival_ns);
    const double service = static_cast<double>(completion_ns - start_ns);
    ts.queue_wait_ns.observe(wait);
    ts.service_ns.observe(service);
    ts.latency_ns.observe(wait + service);
    dispatched_[jobs[v].tenant].push_back(completion_ns);
  }

  for (std::size_t v = 0; v < B; ++v) {
    if (!jobs[v].cb) continue;
    JobResult result;
    result.tenant = jobs[v].tenant;
    result.seq = jobs[v].seq;
    result.y = std::move(ys[v]);
    result.arrival_ns = jobs[v].arrival_ns;
    result.start_ns = start_ns;
    result.completion_ns = completion_ns;
    jobs[v].cb(std::move(result));
  }
}

void Frontend::publish_metrics(obs::MetricsRegistry& out,
                               const std::string& prefix) const {
  out.set_counter(prefix + ".admitted", stats_.admitted);
  out.set_counter(prefix + ".completed", stats_.completed);
  out.set_counter(prefix + ".rejected", stats_.rejected);
  out.set_counter(prefix + ".batches_run", stats_.batches_run);
  out.set_counter(prefix + ".batched_jobs", stats_.batched_jobs);
  out.set_counter(prefix + ".largest_batch", stats_.largest_batch);
  out.set_counter(prefix + ".dispatch_failures", stats_.dispatch_failures);
  out.set_counter(prefix + ".backlog", drr_.backlog());
  for (const TenantStats& ts : tenants_) {
    const std::string base = prefix + ".tenant." + ts.name;
    out.set_counter(base + ".admitted", ts.admitted);
    out.set_counter(base + ".completed", ts.completed);
    out.set_counter(base + ".rejected", ts.rejected_total);
    for (std::size_t r = 0; r < kNumRejectReasons; ++r) {
      if (ts.rejected[r] == 0) continue;  // keep exports compact
      out.set_counter(
          base + ".rejected." +
              reject_reason_name(static_cast<RejectReason>(r)),
          ts.rejected[r]);
    }
    out.set_counter(base + ".words", ts.words);
    out.set_counter(base + ".overhead_words", ts.overhead_words);
    out.set_counter(base + ".onesided_words", ts.onesided_words);
    out.set_counter(base + ".messages", ts.messages);
    out.set_counter(base + ".rounds", ts.rounds);
    out.set_gauge(base + ".queue_wait_p50_ns",
                  ts.queue_wait_ns.percentile(0.50));
    out.set_gauge(base + ".queue_wait_p99_ns",
                  ts.queue_wait_ns.percentile(0.99));
    out.set_gauge(base + ".latency_p50_ns", ts.latency_ns.percentile(0.50));
    out.set_gauge(base + ".latency_p99_ns", ts.latency_ns.percentile(0.99));
  }
}

}  // namespace sttsv::serve
