// End-to-end serving benchmark of the engine (see ../README.md).
//
//   upa_perfbench --workload <join_skew|fanout_light|durable_negation>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--workdir <dir>] [--trace-file <path>] [--source <id>]
//
// Hosts a net::Server over an Engine in this process and drives it over
// loopback TCP. The last line of stdout is the result object: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones
// from a traced run (which also times the same serving run untraced to
// report the tracing overhead, and prints the per-layer self-time table).

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "net/server.h"

namespace perfbench {
namespace {

/// A paced run whose generator was later than this for half its inputs
/// fell behind its schedule (a backlog, not a passing stall): it is
/// flagged on the result line.
constexpr double kWarnGenLagP50Ms = 10.0;
/// Later than this for half its inputs, the offered rate was not offered
/// at all: the run counts a failed operation.
constexpr double kMaxGenLagP50Ms = 100.0;
/// Fewer freshness samples than this means the subscribers saw nothing.
constexpr size_t kMinFreshSamples = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string workdir = ".bench_build/run";
  std::string trace_file;
  std::string source = "unknown";
};

int Usage() {
  std::fprintf(stderr,
               "usage: upa_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--trace-file <path>] [--source <id>]\nworkloads:");
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    uint64_t n = 0;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      if (!ParseU64(v, &a->seed)) return false;
    } else if (k == "--seconds") {
      if (!ParseU64(v, &n) || n < 1 || n > 600) return false;
      a->seconds = static_cast<int>(n);
    } else if (k == "--trace") {
      if (!ParseU64(v, &n) || n > 1) return false;
      a->trace = static_cast<int>(n);
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--trace-file") {
      a->trace_file = v;
    } else if (k == "--source") {
      a->source = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->trace >= 0;
}

/// Refuses builds and environments whose numbers would not be comparable.
bool CheckHygiene() {
  bool ok = true;
  for (const char* knob : {"UPA_BATCH", "UPA_HEAVY_THRESHOLD",
                           "UPA_SESSION_LEASE_MS", "UPA_BENCH_PROFILE",
                           "UPA_TRACE_OUT"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "refusing to run: %s is set\n", knob);
      ok = false;
    }
  }
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr, "refusing to run: not an optimized Release build\n");
  ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "refusing to run: sanitizer build\n");
  ok = false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  std::fprintf(stderr, "refusing to run: sanitizer build\n");
  ok = false;
#endif
#endif
  return ok;
}

std::string Str(const std::string& s) { return "\"" + s + "\""; }

/// The effective options (the refused environment knobs being unset, the
/// engine's and server's "auto" values resolve to their defaults).
void PrintConfig(const Args& a, const WorkloadSpec& spec,
                 const PhasePlan& plan) {
  const upa::EngineOptions e = MakeEngineOptions(spec, "");
  const upa::net::ServerOptions s;
  std::printf(
      "config {\"workload\":%s,\"seed\":%llu,\"seconds\":%d,\"trace\":%d,"
      "\"nproc\":%u,\"compiler\":%s,\"source\":%s,\"build\":\"Release\","
      "\"engine\":{\"default_shards\":%d,\"queue_capacity\":%zu,"
      "\"max_batch\":%zu,\"batch_size\":1,\"heavy_threshold\":0,"
      "\"backpressure\":%d,\"profile_queries\":%d,\"supervise\":%d,"
      "\"durability\":%d,\"wal_segment_bytes\":%zu,\"fsync\":%d,"
      "\"keep_checkpoints\":%d},"
      "\"server\":{\"max_sessions\":%d,\"send_cap_bytes\":%zu,"
      "\"slow_consumer\":%d,\"session_lease_ms\":0,"
      "\"replay_ring_bytes\":%zu,\"heartbeat_ms\":%d},"
      "\"load\":{\"links\":%d,\"sources\":%d,\"zipf\":%.2f,"
      "\"wire_batch\":%zu,\"paced_rate_tps\":%.0f,\"paced_s\":%.1f,"
      "\"unpaced_s\":%.1f,\"warmup_events\":%zu,\"paced_events\":%zu,"
      "\"trace_events\":%zu,\"subscriber_conns\":%d,\"barrier_ms\":%d,"
      "\"snapshot_query\":%s,\"snapshots_per_slice\":%d,\"slices\":%d}}\n",
      Str(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.seconds, a.trace, std::thread::hardware_concurrency(),
      Str(std::string("gcc ") + __VERSION__).c_str(), Str(a.source).c_str(), e.default_shards,
      e.queue_capacity, e.max_batch, static_cast<int>(e.backpressure),
      e.profile_queries, e.supervise, spec.durable ? 1 : 0,
      e.durability.wal_segment_bytes, e.durability.fsync,
      e.durability.keep_checkpoints, s.max_sessions, s.send_cap_bytes,
      static_cast<int>(s.slow_consumer), s.replay_ring_bytes, s.heartbeat_ms,
      spec.links, kSources, kZipf, spec.wire_batch,
      spec.paced_rate, plan.paced_s, plan.unpaced_s, plan.warm_end,
      plan.paced_end - plan.warm_end, plan.trace_end,
      spec.subscriber_conns, spec.barrier_ms,
      Str(spec.snapshot_query).c_str(), spec.snapshots_per_slice, kSlices);
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    items_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].second.first);
      out += (i > 0 ? ", " : "") + Str(items_[i].first) +
             ": {\"value\": " + buf +
             ", \"unit\": " + Str(items_[i].second.second) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Cost of recording one span (two clock reads and an append), measured
/// on a scratch lane.
double SpanCostNs() {
  constexpr int kSpans = 200000;
  Tracer scratch(true);
  Lane* lane = scratch.NewLane("scratch");
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) ScopedSpan s(lane, "scratch");
  return static_cast<double>(NowNs() - t0) / kSpans;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double NsPercentile(const std::vector<int64_t>& ns, double p) {
  return Percentile(std::vector<double>(ns.begin(), ns.end()), p);
}

void PrintTable(const Tracer& tracer) {
  for (const LaneTable& t : tracer.Tables()) {
    std::printf("layers %-14s wall %.3f s\n", t.thread.c_str(),
                t.wall_ns / 1e9);
    std::vector<std::pair<int64_t, std::string>> rows;
    int64_t sum = 0;
    for (const auto& [name, ns] : t.self_ns) {
      rows.emplace_back(ns, name);
      sum += ns;
    }
    std::sort(rows.rbegin(), rows.rend());
    for (const auto& [ns, name] : rows) {
      const auto calls = t.calls.find(name);
      std::printf("  %-26s %10.4f s %6.2f %%  %8llu calls\n", name.c_str(),
                  ns / 1e9, t.wall_ns > 0 ? 100.0 * ns / t.wall_ns : 0.0,
                  static_cast<unsigned long long>(
                      calls == t.calls.end() ? 0 : calls->second));
    }
    std::printf("  %-26s %10.4f s\n", "sum", sum / 1e9);
  }
}

int Run(const Args& a) {
  const WorkloadSpec* spec = FindWorkload(a.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return Usage();
  }
  const PhasePlan plan = PlanPhases(*spec, a.seconds);
  std::error_code ec;
  std::filesystem::remove_all(a.workdir, ec);
  std::filesystem::create_directories(a.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", a.workdir.c_str());
    return 2;
  }
  PrintConfig(a, *spec, plan);
  std::fflush(stdout);

  // The generator: the program under test only ever sees these events.
  const std::vector<Event> events = GenerateEvents(*spec, a.seed,
                                                   plan.trace_end);
  Ops ops;
  Tracer untraced(false);
  ServeResult base = Serve(*spec, events, plan, a.workdir, nullptr,
                           &untraced, &ops);

  Metrics out;
  const double lag_p99 = Percentile(base.gen_lag_ms, 99);
  if (a.trace == 0) {
    out.Add("setup_s", Median(base.setup_cpu_s), "s");
    out.Add("ingest_cpu_us_per_tuple", Median(base.slice_cpu_us_per_tuple),
            "us");
    out.Add("state_mb", Mean(base.slice_state_mb), "MB");
    out.Add("rss_peak_mb", base.rss_peak_mb, "MB");
  } else {
    Tracer tracer(true);
    Lane* lane = tracer.NewLane("main");
    ServeResult tr;
    PassResult pass;
    {
      ScopedSpan root(lane, "run");
      tr = Serve(*spec, events, plan, a.workdir, lane, &tracer, &ops);
      pass = RunPasses(*spec, events, plan.paced_end, a.workdir, lane, &ops);
    }
    // What a user sees, from the untraced serve: wall-clock throughput and
    // freshness (their run-to-run spread on a shared host is too wide for
    // a bound, see README.md).
    out.Add("setup.wall_s", Median(base.setup_wall_s), "s");
    out.Add("ingest_ktps", QuietMedian(base.slice_ktps, base.unpaced_steal),
            "ktuples/s");
    out.Add("fresh_p50_ms",
            QuietPercentile(base.fresh_ms, base.paced_steal, 50), "ms");
    out.Add("fresh.p95_ms",
            QuietPercentile(base.fresh_ms, base.paced_steal, 95), "ms");
    out.Add("fresh.p99_ms",
            QuietPercentile(base.fresh_ms, base.paced_steal, 99), "ms");
    out.Add("net.client.snapshot_ms_p50",
            QuietPooledMedian(base.snapshot_ms, base.paced_steal), "ms");
    const std::vector<int64_t> ingest = tracer.Durations("net.client.ingest");
    // Barrier round trips of the reader connection (the producer's own
    // barriers close phases and are not part of the cadence).
    const std::vector<int64_t> flush =
        tracer.Durations("net.client.flush", "reader");
    out.Add("net.client.ingest_call_us_p50", NsPercentile(ingest, 50) / 1e3,
            "us");
    out.Add("net.client.ingest_call_us_p99", NsPercentile(ingest, 99) / 1e3,
            "us");
    out.Add("net.protocol.encode_ns_per_tuple", pass.encode_ns_per_tuple,
            "ns");
    out.Add("net.protocol.decode_ns_per_tuple", pass.decode_ns_per_tuple,
            "ns");
    out.Add("net.protocol.subdata_decode_ns_per_delta",
            static_cast<double>(tr.sub_decode_ns) /
                std::max<uint64_t>(tr.sub_deltas_wire, 1),
            "ns");
    out.Add("net.server.bytes_in_per_tuple", tr.bytes_in_per_tuple, "B");
    out.Add("net.server.bytes_out_per_delta",
            static_cast<double>(tr.sub_bytes) /
                std::max<uint64_t>(tr.sub_deltas_wire, 1),
            "B");
    out.Add("net.session.deltas_per_frame",
            static_cast<double>(tr.sub_deltas_wire) /
                std::max<uint64_t>(tr.sub_frames, 1),
            "count");
    out.Add("net.session.slow_drops", static_cast<double>(tr.slow_drops),
            "count");
    out.Add("net.client.flush_call_ms_p50", NsPercentile(flush, 50) / 1e6,
            "ms");
    out.Add("engine.ingest_ns_per_tuple", pass.engine_ingest_ns_per_tuple,
            "ns");
    out.Add("engine.flush_ms_p50", pass.engine_flush_ms_p50, "ms");
    out.Add("engine.shard.queue_depth_max",
            static_cast<double>(tr.queue_depth_max), "count");
    out.Add("engine.shard.processed", static_cast<double>(tr.shard_processed),
            "count");
    out.Add("engine.shard.dropped", static_cast<double>(tr.shard_dropped),
            "count");
    out.Add("engine.shard.restarts", static_cast<double>(tr.shard_restarts),
            "count");
    out.Add("engine.shard.stall_events", static_cast<double>(tr.stall_events),
            "count");
    out.Add("engine.sub.deltas", static_cast<double>(tr.engine_sub_deltas),
            "count");
    out.Add("engine.sub.watermarks",
            static_cast<double>(tr.engine_sub_watermarks), "count");
    out.Add("engine.wal.bytes_per_tuple", pass.wal_bytes_per_tuple, "B");
    out.Add("engine.wal.records", static_cast<double>(pass.wal_records),
            "count");
    out.Add("engine.wal.append_ns_per_record", pass.wal_append_ns_per_record,
            "ns");
    out.Add("engine.checkpoint.s", pass.checkpoint_s, "s");
    out.Add("engine.checkpoint.kb", pass.checkpoint_kb, "KB");
    out.Add("engine.recovery.s", pass.recovery_s, "s");
    out.Add("engine.recovery.wal_records_replayed",
            static_cast<double>(pass.recovery_wal_records), "count");
    out.Add("engine.recovery.retained_replayed",
            static_cast<double>(pass.recovery_retained), "count");
    out.Add("exec.replay.ms_per_1k", pass.replay_ms_per_1k, "ms");
    out.Add("exec.pipeline.proc_s", pass.proc_s, "s");
    out.Add("exec.pipeline.ins_s", pass.ins_s, "s");
    out.Add("exec.pipeline.exp_s", pass.exp_s, "s");
    out.Add("exec.view.results_pos", static_cast<double>(pass.results_pos),
            "count");
    out.Add("exec.view.results_neg", static_cast<double>(pass.results_neg),
            "count");
    out.Add("state.max_bytes_mb", pass.max_state_mb, "MB");
    out.Add("sql.register_ms", Median(tr.register_ms), "ms");
    out.Add("gen.lag_ms_p99", Percentile(tr.gen_lag_ms, 99), "ms");
    out.Add("fresh.samples", static_cast<double>(SampleCount(base.fresh_ms)),
            "count");
    out.Add("snapshot.samples",
            static_cast<double>(SampleCount(base.snapshot_ms)), "count");
    out.Add("trace.overhead_frac",
            QuietMedian(base.slice_ktps, base.unpaced_steal) /
                    std::max(QuietMedian(tr.slice_ktps, tr.unpaced_steal),
                             1e-9) -
                1.0,
            "fraction");
    out.Add("trace.spans", static_cast<double>(tracer.SpanCount()), "count");
    out.Add("trace.span_cost_ns", SpanCostNs(), "ns");

    PrintTable(tracer);
    if (!a.trace_file.empty() && !tracer.WriteChromeTrace(a.trace_file)) {
      std::fprintf(stderr, "cannot write %s\n", a.trace_file.c_str());
    }
  }

  // Validity of the paced phase and of the sample itself.
  const double lag_p50 = Percentile(base.gen_lag_ms, 50);
  if (lag_p50 > kWarnGenLagP50Ms) {
    std::printf("warning paced run INVALID: generator fell behind its "
                "schedule, median lateness %.3f ms\n", lag_p50);
  }
  ops.Count(lag_p50 <= kMaxGenLagP50Ms,
            "paced rate not offered: median generator lateness " +
                std::to_string(lag_p50) + " ms");
  ops.Count(SampleCount(base.fresh_ms) >= kMinFreshSamples,
            "too few freshness samples");

  std::printf(
      "result workload=%s setup_s=%.6f (wall %.6f) "
      "ingest_cpu_us_per_tuple=%.3f "
      "ingest_ktps=%.3f "
      "(unpaced_tuples=%llu%s) fresh_p50_ms=%.4f fresh_p95_ms=%.4f "
      "fresh_p99_ms=%.4f "
      "(samples=%zu expiration_triggered=%llu) snapshot_p50_ms=%.4f "
      "(samples=%zu) state_mb=%.3f rss_peak_mb=%.1f recovery_s=%.4f "
      "gen_lag_ms_p99=%.4f error_rate=%.6f (%llu/%llu)\n",
      spec->name.c_str(), Median(base.setup_cpu_s),
      Median(base.setup_wall_s),
      Median(base.slice_cpu_us_per_tuple),
      QuietMedian(base.slice_ktps, base.unpaced_steal),
      static_cast<unsigned long long>(base.unpaced_tuples),
      base.trace_exhausted ? ", trace exhausted" : "",
      QuietPercentile(base.fresh_ms, base.paced_steal, 50),
      QuietPercentile(base.fresh_ms, base.paced_steal, 95),
      QuietPercentile(base.fresh_ms, base.paced_steal, 99),
      SampleCount(base.fresh_ms),
      static_cast<unsigned long long>(base.promoted_deltas),
      QuietPooledMedian(base.snapshot_ms, base.paced_steal),
      SampleCount(base.snapshot_ms),
      Mean(base.slice_state_mb),
      base.rss_peak_mb, base.recovery_s, lag_p99,
      static_cast<double>(ops.failed) /
          static_cast<double>(std::max<uint64_t>(ops.attempted, 1)),
      static_cast<unsigned long long>(ops.failed),
      static_cast<unsigned long long>(ops.attempted));
  std::printf("slices steal_unpaced:");
  for (double v : base.unpaced_steal) std::printf(" %.3f", v);
  std::printf("  steal_paced:");
  for (double v : base.paced_steal) std::printf(" %.3f", v);
  std::printf("  cpu_us_per_tuple:");
  for (double v : base.slice_cpu_us_per_tuple) std::printf(" %.3f", v);
  std::printf("  ingest_ktps:");
  for (double v : base.slice_ktps) std::printf(" %.3f", v);
  std::printf("  state_mb:");
  for (double v : base.slice_state_mb) std::printf(" %.3f", v);
  std::printf("  fresh_p50_ms:");
  for (const std::vector<double>& v : base.fresh_ms) {
    std::printf(" %.3f", Percentile(v, 50));
  }
  std::printf("  fresh_p95_ms:");
  for (const std::vector<double>& v : base.fresh_ms) {
    std::printf(" %.3f", Percentile(v, 95));
  }
  std::printf("  fresh_p99_ms:");
  for (const std::vector<double>& v : base.fresh_ms) {
    std::printf(" %.3f", Percentile(v, 99));
  }
  std::printf("\n");
  for (const std::string& e : ops.errors) {
    std::printf("error %s\n", e.c_str());
  }
  std::filesystem::remove_all(a.workdir, ec);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ops.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed),
              out.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return perfbench::Usage();
  if (!perfbench::CheckHygiene()) return 2;
  return perfbench::Run(args);
}
