#include "server/service.h"

#include <algorithm>
#include <chrono>

#include "common/fault_injection.h"
#include "common/strings.h"
#include "engine/runner.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"

namespace sia::server {
namespace {

int64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Monotonic millisecond clock for promotion/demotion timestamps (the
// kDemoted TTL compares differences only, so the epoch is irrelevant).
int64_t SteadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryReply ReplyFromOutcome(const RewriteOutcome& outcome) {
  QueryReply reply;
  reply.rewritten = outcome.changed();
  reply.rung = RewriteRungName(outcome.rung);
  reply.from_cache = outcome.from_cache;
  reply.rewritten_sql = outcome.rewritten.ToString();
  reply.sql_hash = Fnv1a64(reply.rewritten_sql);
  return reply;
}

Status ExecuteInto(const ParsedQuery& query, const Catalog& catalog,
                   Executor& executor, QueryReply* reply) {
  SIA_ASSIGN_OR_RETURN(QueryOutput output, RunQuery(query, catalog, executor));
  reply->executed = true;
  reply->rows = output.row_count;
  reply->content_hash = output.content_hash;
  reply->order_hash = output.order_hash;
  return Status::OK();
}

QueryService::QueryService(const ServiceOptions& options)
    : options_(options), catalog_(Catalog::TpchCatalog()) {
  policy_.promote_after = std::max(1, options_.promote_after);
  policy_.demote_after = std::max(1, options_.demote_after);
  policy_.shadow_sample_rate = options_.shadow_sample_rate;
  policy_.demote_ttl_ms = options_.demote_ttl_ms;
  if (options_.scale_factor > 0) {
    data_.emplace(GenerateTpch(options_.scale_factor, options_.data_seed));
    executor_.RegisterTable("orders", &data_->orders);
    executor_.RegisterTable("lineitem", &data_->lineitem);
  }
}

QueryService::~QueryService() { DrainBackground(); }

void QueryService::StartBackground(ThreadPool* pool) {
  if (synthesizer_ != nullptr) return;
  BackgroundSynthesizer::Options opts;
  opts.rewrite.target_table = options_.target_table;
  if (options_.max_iterations > 0) {
    opts.rewrite.synthesis.max_iterations = options_.max_iterations;
  }
  opts.budget_ms = std::max<int64_t>(1, options_.background_budget_ms);
  opts.queue_depth = std::max<size_t>(1, options_.background_queue_depth);
  opts.policy = policy_;
  if (data_.has_value()) {
    // Evidence loop: paranoid-run the fresh candidate up to promote_after
    // times so an unambiguous winner is promoted without waiting for
    // serving-path samples. Runs on the background lane, after the
    // publish, against the same executor the workers use (it is
    // internally synchronized).
    opts.evidence = [this](const BackgroundJob& job, const ExprPtr& learned) {
      ParsedQuery rewritten = job.query;
      rewritten.where = Expr::Logic(LogicOp::kAnd, job.query.where, learned);
      for (int i = 0; i < policy_.promote_after; ++i) {
        auto report = RunRewriteParanoid(job.query, rewritten, catalog_,
                                         executor_);
        if (!report.ok()) return;
        ShadowOutcome evidence;
        evidence.mismatch = report->mismatch;
        evidence.rewrite_failed = report->rewritten_failed;
        evidence.original_ms = report->original_ms;
        evidence.rewritten_ms = report->rewritten_ms;
        auto state = cache_.RecordShadow(job.bound, job.cols, evidence,
                                         policy_, SteadyMillis());
        if (!state.ok() || *state != EntryState::kQuarantined) return;
      }
    };
  }
  synthesizer_ =
      std::make_unique<BackgroundSynthesizer>(&cache_, pool, std::move(opts));
}

void QueryService::DrainBackground() {
  if (synthesizer_ != nullptr) synthesizer_->DrainAndStop();
}

bool QueryService::SampleShadow() {
  const double rate = policy_.shadow_sample_rate;
  if (rate <= 0) return false;
  if (rate >= 1) return true;
  // The n-th request samples iff floor((n+1)*rate) > floor(n*rate): an
  // exact, deterministic rate with no per-request RNG.
  const double n =
      static_cast<double>(shadow_ticket_.fetch_add(1, std::memory_order_relaxed));
  return static_cast<uint64_t>((n + 1) * rate) !=
         static_cast<uint64_t>(n * rate);
}

std::string QueryService::Handle(std::string_view payload, int64_t queue_us) {
  auto request = ParseRequest(payload);
  if (!request.ok()) return FormatError(request.status());
  if (request->verb == kVerbPing) return FormatOkPing();
  if (request->verb == kVerbStats) {
    // Lifetime totals plus the rolling windows, all through the one
    // shared snapshot-to-JSON formatter (sia_lint --metrics-out renders
    // the same snapshot without the windows).
    windows_.Tick(obs::Tracer::Instance().NowMicros());
    const std::string extra = "\"windows\":" + windows_.WindowsJson() + ",";
    return FormatOkStats(obs::FormatSnapshotJson(
        obs::MetricsRegistry::Instance().Snapshot(), extra));
  }
  if (request->verb == kVerbObserve) return HandleObserve();
  return HandleQuery(request->body, queue_us);
}

std::string QueryService::HandleObserve() {
  SIA_TRACE_SPAN("server.observe");
  if (FaultRegistry::Enabled()) {
    // Proves a slow/failing OBSERVE poller is contained here: a latency
    // fault stalls only this handler's worker slot, an error fault turns
    // into an ERROR frame — admission and drain never notice either way.
    const Status injected =
        FaultRegistry::Instance().Fire("obs.observe.latency");
    if (!injected.ok()) return FormatError(injected);
  }
  const uint64_t now_us = obs::Tracer::Instance().NowMicros();
  windows_.Tick(now_us);
  obs::EventLog& events = obs::EventLog::Instance();
  std::string json = "{\"now_us\":" + std::to_string(now_us);
  json += ",\"windows\":";
  json += windows_.WindowsJson();
  json += ",\"events\":";
  json += events.Json();
  json += ",\"events_dropped\":" + std::to_string(events.DroppedCount());
  json += ",\"cache\":{\"entries\":[";
  bool first = true;
  for (const RewriteCache::EntryInfo& info : cache_.EntryInfos()) {
    if (!first) json += ',';
    first = false;
    json += "{\"key\":\"";
    json += obs::internal::JsonEscape(info.key);
    json += "\",\"state\":\"";
    json += EntryStateName(info.state);
    json += "\",\"rung\":" + std::to_string(static_cast<int>(info.rung));
    json += ",\"wins\":" + std::to_string(info.wins);
    json += ",\"losses\":" + std::to_string(info.losses);
    json += ",\"shadow_runs\":" + std::to_string(info.shadow_runs);
    json += ",\"poisoned\":";
    json += info.poisoned ? "true" : "false";
    json += "}";
  }
  json += "]}}";
  return FormatOkStats(json);
}

std::string QueryService::HandleQuery(const std::string& sql,
                                      int64_t queue_us) {
  auto parsed = ParseQuery(sql);
  if (!parsed.ok()) return FormatError(parsed.status());

  // Queries that do not touch the rewrite target pass through unchanged
  // — a serving endpoint answers them rather than erroring, the same way
  // the ladder's kOriginal rung answers a failed synthesis.
  const bool has_target =
      std::find(parsed->tables.begin(), parsed->tables.end(),
                options_.target_table) != parsed->tables.end();
  const auto rewrite_start = std::chrono::steady_clock::now();
  RewriteOutcome outcome;
  outcome.rewritten = *parsed;
  RewriteKey key;
  ServingDecision decision;
  if (has_target) {
    SIA_TRACE_SPAN("server.rewrite");
    RewriteOptions key_options;
    key_options.target_table = options_.target_table;
    auto made = MakeRewriteKey(*parsed, catalog_, key_options);
    if (!made.ok()) return FormatError(made.status());
    key = std::move(*made);
    // Without a background lane nothing could learn a miss, so the
    // original is served and the cache is left alone.
    if (key.synthesizable && synthesizer_ != nullptr) {
      decision = cache_.Decide(key.bound, key.cols, policy_, SampleShadow(),
                               SteadyMillis());
    }
    if (decision.enqueue) {
      // This request owns the fresh kSynthesizing marker; hand the key
      // to the background lane and keep serving the original. A full or
      // draining queue sheds the job (and releases the marker) inside
      // Enqueue — serving never waits either way.
      BackgroundJob job;
      job.bound = key.bound;
      job.cols = key.cols;
      job.joint = key.joint;
      job.query = *parsed;
      job.trace_id = obs::CurrentTraceId();
      (void)synthesizer_->Enqueue(std::move(job));
    }
    if (decision.serve_rewrite) {
      outcome.learned = decision.predicate;
      outcome.synthesis.predicate = decision.predicate;
      outcome.synthesis.status = SynthesisStatus::kValid;
      outcome.rung = decision.rung;
      outcome.from_cache = true;
      outcome.rewritten.where =
          Expr::Logic(LogicOp::kAnd, parsed->where, decision.predicate);
    }
  }

  QueryReply fields = ReplyFromOutcome(outcome);
  fields.queue_us = queue_us;
  fields.rewrite_us = ElapsedMicros(rewrite_start);

  if (data_.has_value()) {
    SIA_TRACE_SPAN("server.execute");
    const auto exec_start = std::chrono::steady_clock::now();
    Status executed;
    if (decision.shadow && decision.predicate != nullptr) {
      // Sampled request on a shadow-eligible entry: cross-check the
      // candidate and feed the evidence back. Quarantined entries still
      // serve the original's digests; promoted ones serve the rewrite's
      // unless the cross-check just failed.
      ParsedQuery rewritten = *parsed;
      rewritten.where =
          Expr::Logic(LogicOp::kAnd, parsed->where, decision.predicate);
      executed = ShadowExecute(*parsed, rewritten, decision.serve_rewrite,
                               key.bound, key.cols, &fields);
    } else {
      executed = ExecuteInto(outcome.rewritten, catalog_, executor_, &fields);
    }
    if (!executed.ok()) return FormatError(executed);
    fields.exec_us = ElapsedMicros(exec_start);
  }
  // Hit = a promoted rewrite served from the cache; miss = everything
  // else (the original was served, learning may be in flight). The split
  // is what the bench and sia_top read as the amortization payoff.
  if (fields.from_cache) {
    SIA_HISTOGRAM_RECORD("server.handle.hit_us",
                         fields.rewrite_us + fields.exec_us);
  } else {
    SIA_HISTOGRAM_RECORD("server.handle.miss_us",
                         fields.rewrite_us + fields.exec_us);
  }
  return FormatOkQuery(fields);
}

Status QueryService::ShadowExecute(const ParsedQuery& original,
                                   const ParsedQuery& rewritten,
                                   bool serve_rewrite, const ExprPtr& bound,
                                   const std::vector<size_t>& cols,
                                   QueryReply* reply) {
  SIA_TRACE_SPAN("server.shadow");
  SIA_ASSIGN_OR_RETURN(
      ParanoidReport report,
      RunRewriteParanoid(original, rewritten, catalog_, executor_));
  ShadowOutcome evidence;
  evidence.mismatch = report.mismatch;
  evidence.rewrite_failed = report.rewritten_failed;
  evidence.original_ms = report.original_ms;
  evidence.rewritten_ms = report.rewritten_ms;
  // The entry may have been cleared or re-keyed while we executed; the
  // evidence is simply lost then.
  (void)cache_.RecordShadow(bound, cols, evidence, policy_, SteadyMillis());

  // report.output already falls back to the original's result on a
  // mismatch or a rewritten-side failure; quarantined entries serve the
  // original's digests even when the candidate agreed.
  const QueryOutput& chosen =
      serve_rewrite ? report.output : report.original_output;
  reply->executed = true;
  reply->rows = chosen.row_count;
  reply->content_hash = chosen.content_hash;
  reply->order_hash = chosen.order_hash;
  return Status::OK();
}

}  // namespace sia::server
