#include "federation/router.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "common/work_queue.h"
#include "observability/thread_trace.h"
#include "textindex/text_query.h"

namespace netmark::federation {

namespace {

void DefaultSleepMs(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Decomposes `query` per `source` capability: full push-down when the source
/// can evaluate everything, otherwise push the supported sub-query and
/// augment the remainder locally (the paper's Context=Title&Content=Engine
/// walk-through against the Lessons Learned server).
netmark::Result<query::ResultSet> ExecuteSubQuery(Source* source,
                                                  const query::XdbQuery& query,
                                                  const CallContext& ctx,
                                                  QueryStats* stats) {
  Capabilities caps = source->capabilities();
  const bool needs_context = !query.context.empty();
  bool needs_phrase = false;
  {
    textindex::TextQuery parsed = textindex::ParseTextQuery(query.content);
    for (const textindex::QueryClause& clause : parsed.clauses) {
      if (clause.kind == textindex::QueryClause::Kind::kPhrase) needs_phrase = true;
    }
  }

  if ((!needs_context || caps.context_search) &&
      (query.content.empty() || caps.content_search) &&
      (!needs_phrase || caps.phrase_search)) {
    // Full push-down.
    ++stats->pushed_down_full;
    NETMARK_ASSIGN_OR_RETURN(query::ResultSet set, source->Execute(query, ctx));
    stats->raw_hits += set.hits.size();
    return set;
  }

  // Capability-limited source: push down the supported sub-query, augment
  // the remainder locally.
  ++stats->augmented;
  query::XdbQuery pushed;
  pushed.limit = 0;  // fetch everything; we filter locally
  if (caps.content_search) {
    // Best effort: if the user gave a content key push that; otherwise use
    // the context key as a content probe (documents mentioning the heading
    // words are the superset we refine).
    pushed.content = !query.content.empty() ? query.content : query.context;
  } else {
    return netmark::Status::Unavailable("source " + source->name() +
                                        " supports no usable search capability");
  }
  NETMARK_ASSIGN_OR_RETURN(query::ResultSet set, source->Execute(pushed, ctx));
  stats->raw_hits += set.hits.size();

  textindex::TextQuery context_query = textindex::ParseTextQuery(query.context);
  textindex::TextQuery content_query = textindex::ParseTextQuery(query.content);
  std::vector<query::ResultHit> raw = std::move(set.hits);
  set.hits.clear();
  for (query::ResultHit& hit : raw) {
    if (!needs_context) {
      // Content-only query: re-verify phrases the source degraded (a hit
      // with no body has no text to re-verify and is kept).
      if (hit.body && !content_query.empty() &&
          !textindex::Matches(content_query, hit.body->Text())) {
        continue;
      }
      set.hits.push_back(std::move(hit));
      continue;
    }
    // Context clause: extract sections from the returned DOM and keep the
    // ones whose heading matches (and whose body satisfies the content key).
    // A kept section's body is its run of nodes in that same DOM.
    if (!hit.body) continue;
    for (const query::Fragment& fragment : hit.body->fragments) {
      for (DomSection& section :
           ExtractSections(*fragment.doc, fragment.first, fragment.end)) {
        if (!textindex::Matches(context_query, section.heading)) continue;
        query::Body body{{query::Fragment{fragment.doc, section.first, section.end}}};
        if (!content_query.empty() &&
            !query::SectionMatches(content_query, section.heading, body)) {
          continue;
        }
        query::ResultHit refined;
        refined.doc_id = hit.doc_id;
        refined.file_name = hit.file_name;
        refined.heading = std::move(section.heading);
        refined.body = std::move(body);
        set.hits.push_back(std::move(refined));
      }
    }
  }
  return set;
}

/// One fan-out unit: everything a worker needs, with shared ownership of the
/// source, breaker, and trace so a straggler outliving its query stays safe.
struct Job {
  size_t index = 0;
  std::shared_ptr<Source> source;
  SourcePolicy policy;  // resolved: max_retries >= 0
  netmark::BackoffPolicy backoff;
  std::shared_ptr<CircuitBreaker> breaker;
  uint64_t rng_seed = 0;
  std::shared_ptr<observability::Trace> trace;  // null = untraced
  int parent_span = -1;
  observability::Histogram* latency_hist = nullptr;  // per-source latency
};

struct Slot {
  bool done = false;
  int attempts_started = 0;  // updated as attempts begin (for timeout reports)
  SourceOutcome outcome;
  query::ResultSet answer;
  QueryStats stats;  // this source's contribution
};

/// State shared between the query thread and its workers. Outlives the query
/// via shared_ptr when a deadline abandons stragglers.
struct FanOutState {
  explicit FanOutState(size_t n, size_t queue_capacity)
      : slots(n), queue(queue_capacity) {}
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  std::vector<Slot> slots;
  netmark::WorkQueue<Job> queue;
};

bool IsRetryable(const netmark::Status& status) {
  // Transient: connection refused/reset (Unavailable, which also carries
  // HTTP 5xx) and truncated bodies (IOError). Never parse errors — the
  // payload arrived and is simply bad — and never the query deadline.
  return status.IsUnavailable() || status.IsIOError();
}

/// Runs one source to completion (retry loop) and publishes its slot.
void RunJob(Job job, const query::XdbQuery& query, const CallContext& ctx,
            const std::function<void(int64_t)>& sleep_ms,
            const std::shared_ptr<FanOutState>& state,
            const std::function<void(const Slot&)>& add_cumulative) {
  const int64_t start = netmark::MonotonicMicros();
  observability::ScopedSpan span(job.trace.get(),
                                 "source:" + job.source->name(),
                                 job.parent_span);
  const CallContext traced_ctx = ctx.WithSpan(job.trace.get(), span.id());
  // Bind the trace to this fan-out worker so layers below the Source API
  // (result-cache probe, WAL) can attach spans under source:*.
  observability::ThreadTraceScope thread_trace(job.trace.get(), span.id());
  netmark::Rng rng(job.rng_seed);
  Slot local;
  local.outcome.source = job.source->name();
  netmark::Status last = netmark::Status::OK();
  bool ok = false;

  const int max_attempts = job.policy.max_retries + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    {
      // Publish the attempt count so a deadline report can say how far the
      // source got.
      std::lock_guard<std::mutex> lock(state->mu);
      state->slots[job.index].attempts_started = attempt + 1;
    }
    local.outcome.attempts = attempt + 1;
    if (traced_ctx.expired()) {
      last = netmark::Status::DeadlineExceeded("query deadline expired");
      break;
    }
    if (attempt > 0) ++local.stats.retries;
    CallContext attempt_ctx = traced_ctx.Tightened(job.policy.timeout_ms);
    auto result = ExecuteSubQuery(job.source.get(), query, attempt_ctx,
                                  &local.stats);
    const int64_t now = netmark::MonotonicMicros();
    if (result.ok()) {
      job.breaker->RecordSuccess(now);
      local.answer = std::move(*result);
      ok = true;
      break;
    }
    last = result.status();
    job.breaker->RecordFailure(now);
    bool retryable = IsRetryable(last);
    // A per-attempt timeout (tighter than the query deadline) is transient
    // too, as long as overall budget remains.
    if (last.IsDeadlineExceeded() && job.policy.timeout_ms > 0 &&
        !traced_ctx.expired()) {
      retryable = true;
    }
    if (!retryable || attempt + 1 >= max_attempts) break;
    int64_t delay = BackoffDelayMs(job.backoff, attempt, &rng);
    if (traced_ctx.bounded() && traced_ctx.remaining_ms() <= delay) {
      // Not enough budget left to wait out the backoff and try again.
      last = netmark::Status::DeadlineExceeded(
          "deadline precludes retry after: " + last.ToString());
      break;
    }
    if (delay > 0) sleep_ms(delay);
  }

  if (ok) {
    local.outcome.state =
        local.answer.complete() ? SourceState::kOk : SourceState::kPartial;
  } else if (last.IsDeadlineExceeded() || traced_ctx.expired()) {
    local.outcome.state = SourceState::kTimedOut;
    local.stats.source_timeouts = 1;
    local.outcome.error = last.ToString();
  } else {
    local.outcome.state = SourceState::kFailed;
    local.stats.source_failures = 1;
    local.outcome.error = last.ToString();
  }
  local.outcome.hits = local.answer.hits.size();
  local.outcome.latency_micros = netmark::MonotonicMicros() - start;
  local.done = true;

  if (job.latency_hist != nullptr) {
    job.latency_hist->Observe(local.outcome.latency_micros);
  }
  span.Annotate("attempts", std::to_string(local.outcome.attempts));
  span.Annotate("hits", std::to_string(local.outcome.hits));
  span.Annotate("state", std::string(SourceStateToString(local.outcome.state)));
  span.End(ok, ok ? "" : local.outcome.error);

  add_cumulative(local);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    Slot& slot = state->slots[job.index];
    int started = slot.attempts_started;
    slot = std::move(local);
    slot.attempts_started = started;
    ++state->done;
  }
  state->cv.notify_all();
}

}  // namespace

Router::Router(RouterOptions options) : options_(std::move(options)) {
  owned_metrics_ = std::make_unique<observability::MetricsRegistry>();
  metrics_ = owned_metrics_.get();
  BindHandles();
}

void Router::BindHandles() {
  auto handles = std::make_shared<MetricHandles>();
  handles->queries = metrics_->GetCounter("netmark_federation_queries_total");
  handles->sources_queried =
      metrics_->GetCounter("netmark_federation_sources_queried_total");
  handles->pushed_down_full =
      metrics_->GetCounter("netmark_federation_pushed_down_full_total");
  handles->augmented = metrics_->GetCounter("netmark_federation_augmented_total");
  handles->raw_hits = metrics_->GetCounter("netmark_federation_raw_hits_total");
  handles->final_hits = metrics_->GetCounter("netmark_federation_final_hits_total");
  handles->retries = metrics_->GetCounter("netmark_federation_retries_total");
  handles->source_failures =
      metrics_->GetCounter("netmark_federation_source_failures_total");
  handles->source_timeouts =
      metrics_->GetCounter("netmark_federation_source_timeouts_total");
  handles->breaker_skips =
      metrics_->GetCounter("netmark_federation_breaker_skips_total");
  handles->query_micros =
      metrics_->GetHistogram("netmark_federation_query_micros");
  handles_ = std::move(handles);
}

void Router::BindSourceMetrics(Entry& entry, const std::string& name) {
  entry.latency = metrics_->GetHistogram("netmark_federation_source_micros",
                                         {{"source", name}});
  // Callback holds shared breaker ownership: safe even if the source set
  // ever changed while the registry outlived this entry.
  std::shared_ptr<CircuitBreaker> breaker = entry.breaker;
  metrics_->SetCallbackGauge(
      "netmark_breaker_state", {{"source", name}}, [breaker]() -> double {
        switch (breaker->state(netmark::MonotonicMicros())) {
          case CircuitBreaker::State::kClosed:
            return 0;
          case CircuitBreaker::State::kHalfOpen:
            return 1;
          case CircuitBreaker::State::kOpen:
            return 2;
        }
        return -1;
      });
}

void Router::BindMetrics(observability::MetricsRegistry* registry) {
  if (registry == nullptr || registry == metrics_) return;
  // owned_metrics_ stays alive: in-flight workers hold the old handle block
  // (shared_ptr) whose pointers live in the old registry.
  metrics_ = registry;
  BindHandles();
  for (auto& [name, entry] : sources_) BindSourceMetrics(entry, name);
}

netmark::Status Router::RegisterSource(std::shared_ptr<Source> source) {
  return RegisterSource(std::move(source), SourcePolicy{});
}

netmark::Status Router::RegisterSource(std::shared_ptr<Source> source,
                                       const SourcePolicy& policy) {
  const std::string& name = source->name();
  if (sources_.count(name) != 0) {
    return netmark::Status::AlreadyExists("source " + name + " already registered");
  }
  Entry entry;
  entry.policy = policy;
  entry.breaker = std::make_shared<CircuitBreaker>(
      policy.breaker.has_value() ? *policy.breaker : options_.breaker, name);
  entry.source = std::move(source);
  BindSourceMetrics(entry, name);
  sources_[name] = std::move(entry);
  return netmark::Status::OK();
}

netmark::Status Router::DefineDatabank(const std::string& name,
                                       std::vector<std::string> source_names) {
  if (databanks_.count(name) != 0) {
    return netmark::Status::AlreadyExists("databank " + name + " already defined");
  }
  if (source_names.empty()) {
    return netmark::Status::InvalidArgument("databank " + name + " needs sources");
  }
  for (const std::string& src : source_names) {
    if (sources_.count(src) == 0) {
      return netmark::Status::NotFound("databank " + name +
                                       " references unknown source " + src);
    }
  }
  databanks_[name] = Databank{name, std::move(source_names)};
  return netmark::Status::OK();
}

std::vector<std::string> Router::DatabankNames() const {
  std::vector<std::string> out;
  for (const auto& [name, bank] : databanks_) out.push_back(name);
  return out;
}

std::vector<std::string> Router::SourceNames() const {
  std::vector<std::string> out;
  for (const auto& [name, src] : sources_) out.push_back(name);
  return out;
}

Source* Router::GetSource(const std::string& name) {
  auto it = sources_.find(name);
  return it == sources_.end() ? nullptr : it->second.source.get();
}

CircuitBreaker* Router::GetBreaker(const std::string& name) {
  auto it = sources_.find(name);
  return it == sources_.end() ? nullptr : it->second.breaker.get();
}

netmark::Result<FederatedResult> Router::QueryFederated(
    const std::string& databank, const query::XdbQuery& query) {
  return QueryFederated(databank, query, nullptr, -1);
}

netmark::Result<FederatedResult> Router::QueryFederated(
    const std::string& databank, const query::XdbQuery& query,
    std::shared_ptr<observability::Trace> trace, int parent_span) {
  auto bank_it = databanks_.find(databank);
  if (bank_it == databanks_.end()) {
    return netmark::Status::NotFound("no databank " + databank);
  }
  const std::vector<std::string>& names = bank_it->second.source_names;
  const uint64_t query_id = query_counter_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<MetricHandles> handles = handles_;
  handles->queries->Increment();
  observability::ScopedTimer query_timer(handles->query_micros);
  observability::ScopedSpan fed_span(trace.get(), "federated", parent_span);
  fed_span.Annotate("databank", databank);

  const int64_t timeout_ms =
      query.timeout_ms != 0 ? query.timeout_ms : options_.default_timeout_ms;
  const CallContext ctx = timeout_ms > 0 ? CallContext::WithTimeoutMs(timeout_ms)
                                         : CallContext::Unbounded();

  auto state = std::make_shared<FanOutState>(names.size(),
                                             names.size() == 0 ? 1 : names.size());
  std::vector<Job> jobs;
  jobs.reserve(names.size());
  size_t breaker_skips = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    const Entry& entry = sources_.at(names[i]);
    Slot& slot = state->slots[i];
    slot.outcome.source = names[i];
    if (!entry.breaker->Allow(netmark::MonotonicMicros())) {
      slot.outcome.state = SourceState::kBreakerOpen;
      slot.outcome.error = "circuit breaker open (cooling down)";
      slot.stats.breaker_skips = 1;
      slot.done = true;
      ++state->done;
      ++breaker_skips;
      continue;
    }
    Job job;
    job.index = i;
    job.source = entry.source;
    job.policy = entry.policy;
    if (job.policy.max_retries < 0) job.policy.max_retries = options_.max_retries;
    if (job.policy.max_retries < 0) job.policy.max_retries = 0;
    job.backoff = options_.backoff;
    job.breaker = entry.breaker;
    // Distinct, reproducible jitter stream per (query, source).
    job.rng_seed = options_.rng_seed ^ (query_id * 0x9E3779B97F4A7C15ULL) ^
                   (static_cast<uint64_t>(i) << 17);
    job.trace = trace;
    job.parent_span = fed_span.id();
    job.latency_hist = entry.latency;
    jobs.push_back(std::move(job));
  }

  handles->sources_queried->Increment(names.size());
  handles->breaker_skips->Increment(breaker_skips);

  if (!jobs.empty()) {
    for (Job& job : jobs) state->queue.Push(std::move(job));
    state->queue.Close();

    std::function<void(int64_t)> sleep_ms =
        options_.sleep_ms ? options_.sleep_ms : DefaultSleepMs;
    auto add_cumulative = [handles](const Slot& slot) {
      handles->pushed_down_full->Increment(slot.stats.pushed_down_full);
      handles->augmented->Increment(slot.stats.augmented);
      handles->raw_hits->Increment(slot.stats.raw_hits);
      handles->retries->Increment(slot.stats.retries);
      handles->source_failures->Increment(slot.stats.source_failures);
      handles->source_timeouts->Increment(slot.stats.source_timeouts);
    };
    const size_t workers = std::min<size_t>(
        jobs.size(), static_cast<size_t>(std::max(options_.max_parallel_sources, 1)));
    const query::XdbQuery query_copy = query;
    for (size_t w = 0; w < workers; ++w) {
      reaper_.Launch([state, ctx, query_copy, sleep_ms, add_cumulative] {
        while (auto job = state->queue.Pop()) {
          RunJob(std::move(*job), query_copy, ctx, sleep_ms, state,
                 add_cumulative);
        }
      });
    }
  }

  // Wait for all sources — or the deadline, whichever is first. Stragglers
  // keep running on reaper threads and report into the cumulative counters
  // (and the breaker) when they finish; this query stops paying for them.
  FederatedResult result;
  result.query = query.ToQueryString();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    auto all_done = [&] { return state->done == state->slots.size(); };
    if (ctx.bounded()) {
      std::chrono::steady_clock::time_point deadline{
          std::chrono::microseconds(ctx.deadline_micros)};
      state->cv.wait_until(lock, deadline, all_done);
    } else {
      state->cv.wait(lock, all_done);
    }
    result.sources.reserve(state->slots.size());
    for (Slot& slot : state->slots) {
      if (slot.done) {
        result.stats.pushed_down_full += slot.stats.pushed_down_full;
        result.stats.augmented += slot.stats.augmented;
        result.stats.raw_hits += slot.stats.raw_hits;
        result.stats.retries += slot.stats.retries;
        result.stats.source_failures += slot.stats.source_failures;
        result.stats.source_timeouts += slot.stats.source_timeouts;
        result.stats.breaker_skips += slot.stats.breaker_skips;
        result.sources.push_back(slot.outcome);
        if (slot.outcome.state == SourceState::kOk ||
            slot.outcome.state == SourceState::kPartial) {
          // Deterministic merge, whatever order sources finished in: slots
          // are scanned in declaration order, each block sorted by doc_id.
          // Move the hits out while the lock protects the slot.
          query::ResultSet answer = std::move(slot.answer);
          slot.answer = query::ResultSet();
          std::stable_sort(answer.hits.begin(), answer.hits.end(),
                           [](const query::ResultHit& a, const query::ResultHit& b) {
                             return a.doc_id < b.doc_id;
                           });
          result.quarantined += answer.quarantined;
          for (query::ResultHit& hit : answer.hits) {
            hit.source = slot.outcome.source;
            result.hits.push_back(std::move(hit));
          }
        }
      } else {
        // Deadline fired with this source still in flight.
        SourceOutcome timed_out;
        timed_out.source = slot.outcome.source;
        timed_out.state = SourceState::kTimedOut;
        timed_out.attempts = slot.attempts_started;
        timed_out.latency_micros = timeout_ms * 1000;
        timed_out.error = "deadline exceeded before source responded";
        result.sources.push_back(std::move(timed_out));
        ++result.stats.source_timeouts;
      }
    }
  }
  result.stats.sources_queried = names.size();

  if (query.limit != 0 && result.hits.size() > query.limit) {
    result.hits.resize(query.limit);
  }
  result.stats.final_hits = result.hits.size();
  handles->final_hits->Increment(result.hits.size());

  fed_span.Annotate("sources", std::to_string(names.size()));
  fed_span.Annotate("hits", std::to_string(result.hits.size()));
  fed_span.End(result.complete(),
               result.complete() ? "" : "partial (degraded sources)");

  // Opportunistically join workers that already finished.
  reaper_.Reap();
  return result;
}

Router::Stats Router::stats() const {
  std::shared_ptr<MetricHandles> handles = handles_;
  Stats out;
  out.sources_queried = handles->sources_queried->value();
  out.pushed_down_full = handles->pushed_down_full->value();
  out.augmented = handles->augmented->value();
  out.raw_hits = handles->raw_hits->value();
  out.final_hits = handles->final_hits->value();
  out.retries = handles->retries->value();
  out.source_failures = handles->source_failures->value();
  out.source_timeouts = handles->source_timeouts->value();
  out.breaker_skips = handles->breaker_skips->value();
  return out;
}

}  // namespace netmark::federation
