// The served part of a run: a net::Server over an Engine, driven only
// over loopback TCP by at most four client connections of this process
// (the producer, one or two subscribers, and a reader that issues
// barriers and snapshots).

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "ref/reference.h"
#include "sql/catalog.h"
#include "subscriber.h"
#include "workload/lbl_generator.h"

namespace perfbench {
namespace {

namespace net = upa::net;
namespace fs = std::filesystem;

/// Set-ups per run; the median is reported (each is a few milliseconds,
/// so one alone is mostly scheduler noise).
constexpr int kSetups = 15;
/// Generator tick of the paced phase.
constexpr int64_t kTickNs = 1'000'000;
/// Waiting budget for the subscribers to see the final watermark.
constexpr int kDrainTimeoutMs = 60000;

double VmHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// CPU time consumed by every thread of this process (server, engine and
/// clients alike).
int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// One brought-up server with its client connections. Members are
/// declared so that destruction runs clients, server, then engine.
struct Deployment {
  std::unique_ptr<upa::Engine> engine;
  std::unique_ptr<net::Server> server;
  net::Client producer;
  net::Client reader;
  std::vector<std::unique_ptr<Subscriber>> subs;
  std::vector<uint32_t> stream_ids;

  ~Deployment() { TearDown(); }

  void TearDown() {
    subs.clear();
    producer.Close();
    reader.Close();
    if (server != nullptr) server->Stop();
    server.reset();
    if (engine != nullptr) engine->Stop();
    engine.reset();
  }
};

bool BringUp(const WorkloadSpec& spec, const std::string& dir,
             const Schedule* schedule, Deployment* d,
             std::vector<double>* register_ms, Lane* lane, Ops* ops) {
  std::string err;
  {
    ScopedSpan s(lane, "engine.start");
    d->engine = std::make_unique<upa::Engine>(MakeEngineOptions(spec, dir));
    d->server = std::make_unique<net::Server>(d->engine.get());
    if (!ops->Count(d->server->Start(&err), "server start: " + err)) {
      return false;
    }
  }
  const int port = d->server->port();
  {
    ScopedSpan s(lane, "net.client.connect");
    if (!ops->Count(d->producer.Connect("127.0.0.1", port, &err) &&
                        d->reader.Connect("127.0.0.1", port, &err),
                    "connect: " + err)) {
      return false;
    }
  }
  for (int k = 0; k < spec.links; ++k) {
    ScopedSpan s(lane, "net.client.declare");
    const int64_t id = d->producer.DeclareStream(
        "link" + std::to_string(k), upa::LblSchema(), &err);
    if (!ops->Count(id >= 0, "declare: " + err)) return false;
    d->stream_ids.push_back(static_cast<uint32_t>(id));
  }
  register_ms->clear();
  for (const QuerySpec& q : spec.queries) {
    ScopedSpan s(lane, "net.client.register");
    const int64_t t0 = NowNs();
    const bool ok = d->producer.RegisterQuery(q.name, q.sql, 0, nullptr, &err);
    register_ms->push_back(Ms(NowNs() - t0));
    if (!ops->Count(ok, "register " + q.name + ": " + err)) return false;
  }
  for (int c = 0; c < spec.subscriber_conns; ++c) {
    auto sub = std::make_unique<Subscriber>(schedule);
    ScopedSpan s(lane, "net.sub.subscribe");
    if (!ops->Count(sub->Connect(port, &err), "subscriber connect: " + err)) {
      return false;
    }
    for (const QuerySpec& q : spec.queries) {
      if (!ops->Count(sub->Subscribe(q.name, q.first_link, q.distinct, &err),
                      "subscribe: " + err)) {
        return false;
      }
    }
    d->subs.push_back(std::move(sub));
  }
  return true;
}

/// Ships events [begin, end) as one IngestBatch.
bool SendBatch(Deployment* d, const std::vector<Event>& ev, size_t begin,
               size_t end, std::vector<std::pair<uint32_t, Tuple>>* buf,
               uint64_t batch_no, Lane* lane, Ops* ops) {
  buf->resize(end - begin);
  for (size_t i = begin; i < end; ++i) {
    (*buf)[i - begin].first =
        d->stream_ids[static_cast<size_t>(ev[i].stream)];
    FillTuple(ev[i], &(*buf)[i - begin].second);
  }
  std::string err;
  ScopedSpan s(lane, "net.client.ingest", batch_no);
  return ops->Count(d->producer.IngestBatch(*buf, &err), "ingest: " + err);
}

}  // namespace

ServeResult Serve(const WorkloadSpec& spec, const std::vector<Event>& events,
                  const PhasePlan& plan, const std::string& workdir,
                  Lane* lane, Tracer* tracer, Ops* ops) {
  ServeResult r;
  Schedule schedule;
  Deployment d;
  std::string err;

  // --- Set-up, several times; the last deployment serves the run. ---
  std::string dir;
  {
    ScopedSpan phase(lane, "phase.setup");
    for (int k = 0; k < kSetups; ++k) {
      if (k > 0) {
        d.TearDown();
        d.stream_ids.clear();
        if (!dir.empty()) fs::remove_all(dir);
      }
      dir = spec.durable ? workdir + "/serve-" + std::to_string(k) : "";
      const int64_t t0 = NowNs();
      const int64_t cpu0 = ProcessCpuNs();
      if (!BringUp(spec, dir, &schedule, &d, &r.register_ms, lane, ops)) {
        return r;
      }
      r.setup_cpu_s.push_back(static_cast<double>(ProcessCpuNs() - cpu0) /
                              1e9);
      r.setup_wall_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
  }
  upa::Engine* engine = d.engine.get();
  for (size_t c = 0; c < d.subs.size(); ++c) {
    d.subs[c]->Start(tracer->NewLane("subscriber-" + std::to_string(c)));
  }

  std::vector<std::pair<uint32_t, Tuple>> buf;
  uint64_t batch_no = 0;
  const size_t wb = spec.wire_batch;

  // --- Warm-up: one window of input, unpaced, then a barrier. ---
  {
    ScopedSpan phase(lane, "phase.warmup");
    for (size_t i = 0; i < plan.warm_end; i += wb) {
      SendBatch(&d, events, i, std::min(i + wb, plan.warm_end), &buf,
                ++batch_no, lane, ops);
    }
    ScopedSpan s(lane, "net.client.flush");
    ops->Count(d.producer.Flush(&err), "warm-up barrier: " + err);
  }

  // --- Paced: open loop at the workload's rate. ---
  {
    ScopedSpan phase(lane, "phase.paced");
    schedule.ts_begin = events[plan.warm_end].ts;
    schedule.ts_end = events[plan.paced_end - 1].ts;
    schedule.links = spec.links;
    schedule.rate = spec.paced_rate;
    schedule.t0_ns = NowNs() + 2'000'000;
    schedule.slices = kSlices;
    schedule.ready.store(true, std::memory_order_release);

    // The reader: barriers at a fixed cadence, snapshots of one view
    // alongside, and (traced) engine metrics every tick.
    std::atomic<bool> paced_done{false};
    Ops reader_ops;
    std::vector<std::vector<double>> snap_ms(kSlices);
    size_t depth_max = 0;
    const int64_t slice_ns = static_cast<int64_t>(plan.paced_s * 1e9) / kSlices;
    const auto slice_at = [&schedule, slice_ns](int64_t t) {
      return static_cast<size_t>(std::clamp<int64_t>(
          (t - schedule.t0_ns) / slice_ns, 0, kSlices - 1));
    };
    std::thread reader;
    // Stops and joins the reader on every way out of this block.
    struct StopReader {
      std::atomic<bool>* done;
      std::thread* thread;
      ~StopReader() {
        done->store(true, std::memory_order_release);
        if (thread->joinable()) thread->join();
      }
    } stop_reader{&paced_done, &reader};
    reader = std::thread([&] {
      Lane* rl = tracer->NewLane("reader");
      ScopedSpan root(rl, "reader");
      std::string rerr;
      const int64_t start = schedule.t0_ns;
      const int64_t snap_every = static_cast<int64_t>(
          plan.paced_s * 1e9 / (kSlices * spec.snapshots_per_slice));
      int64_t next_barrier = start + spec.barrier_ms * 1'000'000LL;
      int64_t next_snap = start + snap_every / 2;
      while (!paced_done.load(std::memory_order_acquire)) {
        if (rl != nullptr) {
          ScopedSpan s(rl, "engine.metrics");
          for (const upa::QueryMetrics& q : engine->Metrics().queries) {
            for (const upa::ShardMetrics& sm : q.per_shard) {
              depth_max = std::max(depth_max, sm.queue_depth);
            }
          }
        }
        int64_t now = NowNs();
        if (now >= next_barrier) {
          ScopedSpan s(rl, "net.client.flush");
          reader_ops.Count(d.reader.Flush(&rerr), "barrier: " + rerr);
          next_barrier += spec.barrier_ms * 1'000'000LL;
        }
        if (now >= next_snap) {
          std::vector<Tuple> rows;
          const int64_t t0 = NowNs();
          bool ok = false;
          {
            ScopedSpan s(rl, "net.client.snapshot");
            ok = d.reader.Snapshot(spec.snapshot_query, &rows, nullptr, &rerr);
          }
          snap_ms[slice_at(t0)].push_back(Ms(NowNs() - t0));
          reader_ops.Count(ok, "snapshot: " + rerr);
          next_snap += snap_every;
        }
        now = NowNs();
        const int64_t wake = std::min<int64_t>(
            {next_barrier, next_snap, now + 10'000'000LL});
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(wake)));
      }
    });

    // Every tick sends everything due by then. The tick is what a
    // producer batching for 1 ms would do; it spreads the due-to-send wait
    // evenly over [0, 1 ms), which keeps the latency quantiles from
    // snapping between "this poll round" and "the next" on a noisy host.
    size_t next = plan.warm_end;
    const double ns_per_event = 1e9 / spec.paced_rate;
    r.gen_lag_ms.reserve(plan.paced_end - plan.warm_end);
    int64_t tick = schedule.t0_ns;
    StealMeter steal;
    while (next < plan.paced_end) {
      {
        ScopedSpan s(lane, "gen.wait");
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(tick)));
      }
      tick += kTickNs;
      while (r.paced_steal.size() < slice_at(NowNs())) {
        r.paced_steal.push_back(steal.Lap());
      }
      const double elapsed = static_cast<double>(NowNs() - schedule.t0_ns);
      const size_t due = std::min(
          plan.warm_end + static_cast<size_t>(elapsed / ns_per_event) + 1,
          plan.paced_end);
      while (next < due) {
        const size_t end = std::min(next + wb, due);
        const double send = static_cast<double>(NowNs() - schedule.t0_ns);
        for (size_t i = next; i < end; ++i) {
          r.gen_lag_ms.push_back(
              (send - static_cast<double>(i - plan.warm_end) * ns_per_event) /
              1e6);
        }
        SendBatch(&d, events, next, end, &buf, ++batch_no, lane, ops);
        next = end;
      }
    }
    while (r.paced_steal.size() < static_cast<size_t>(kSlices)) {
      r.paced_steal.push_back(steal.Lap());
    }
    paced_done.store(true, std::memory_order_release);
    reader.join();
    ops->attempted += reader_ops.attempted;
    ops->failed += reader_ops.failed;
    ops->errors.insert(ops->errors.end(), reader_ops.errors.begin(),
                       reader_ops.errors.end());
    r.snapshot_ms = std::move(snap_ms);
    r.queue_depth_max = depth_max;
  }

  // --- Unpaced: closed loop, one batch outstanding. Each slice ends at a
  // barrier; its rate is its tuples over (first send -> barrier ack). ---
  size_t sent = plan.paced_end;
  {
    ScopedSpan phase(lane, "phase.unpaced");
    const uint64_t bytes_in0 = d.server->Stats().bytes_in;
    const int64_t start = NowNs();
    const int64_t slice_ns =
        static_cast<int64_t>(plan.unpaced_s * 1e9) / kSlices;
    const int64_t checkpoint_at = start + slice_ns * kSlices / 2;
    bool checkpointed = !spec.durable;
    for (int slice = 0; slice < kSlices && sent < plan.trace_end; ++slice) {
      StealMeter steal;
      const int64_t cpu0 = ProcessCpuNs();
      const int64_t slice_start = NowNs();
      const int64_t deadline = slice_start + slice_ns;
      const size_t first = sent;
      while (sent < plan.trace_end && NowNs() < deadline) {
        const size_t end = std::min(sent + wb, plan.trace_end);
        SendBatch(&d, events, sent, end, &buf, ++batch_no, lane, ops);
        sent = end;
        if (!checkpointed && NowNs() >= checkpoint_at) {
          ScopedSpan s(lane, "engine.checkpoint");
          ops->Count(engine->Checkpoint(&err), "checkpoint: " + err);
          checkpointed = true;
        }
      }
      {
        ScopedSpan s(lane, "net.client.flush");
        ops->Count(d.producer.Flush(&err), "unpaced barrier: " + err);
      }
      r.slice_ktps.push_back(static_cast<double>(sent - first) /
                             (static_cast<double>(NowNs() - slice_start) /
                              1e9) /
                             1e3);
      r.unpaced_steal.push_back(steal.Lap());
      r.slice_cpu_us_per_tuple.push_back(
          static_cast<double>(ProcessCpuNs() - cpu0) / 1e3 /
          static_cast<double>(std::max<size_t>(sent - first, 1)));
      size_t state = 0;
      for (const upa::QueryMetrics& q : engine->Metrics().queries) {
        state += q.state_bytes;
      }
      r.slice_state_mb.push_back(static_cast<double>(state) /
                                 (1024.0 * 1024.0));
    }
    r.unpaced_tuples = sent - plan.paced_end;
    r.trace_exhausted = sent >= plan.trace_end;
    r.bytes_in_per_tuple =
        static_cast<double>(d.server->Stats().bytes_in - bytes_in0) /
        static_cast<double>(std::max<uint64_t>(r.unpaced_tuples, 1));
  }

  // --- Drain the subscribers to the final barrier's watermark. ---
  const Time clock = engine->clock();
  {
    ScopedSpan phase(lane, "phase.drain");
    for (auto& sub : d.subs) {
      ops->Count(sub->StopAt(clock, kDrainTimeoutMs, &err),
                 "subscriber stream: " + err);
      r.fresh_ms.resize(sub->fresh_ms().size());
      for (size_t i = 0; i < sub->fresh_ms().size(); ++i) {
        r.fresh_ms[i].insert(r.fresh_ms[i].end(), sub->fresh_ms()[i].begin(),
                             sub->fresh_ms()[i].end());
      }
      r.promoted_deltas += sub->promoted_deltas();
      r.sub_deltas_wire += sub->deltas();
      r.sub_frames += sub->data_frames();
      r.sub_bytes += sub->bytes();
      r.sub_decode_ns += sub->data_decode_ns();
    }
  }
  {
    const upa::EngineMetrics m = engine->Metrics();
    for (const upa::QueryMetrics& q : m.queries) {
      r.shard_processed += q.processed;
      r.shard_dropped += q.dropped;
      r.shard_restarts += q.restarts;
      r.stall_events += q.stall_events;
      r.engine_sub_deltas += q.sub_deltas;
      r.engine_sub_watermarks += q.sub_watermarks;
    }
    r.slow_drops = d.server->Stats().slow_drops;
  }
  r.rss_peak_mb = VmHwmMb();

  // --- Correctness: mirror == Snapshot RPC == oracle, per query. ---
  std::vector<Rows> served(spec.queries.size());
  {
    ScopedSpan phase(lane, "phase.gates");
    upa::SourceCatalog catalog;
    for (int k = 0; k < spec.links; ++k) {
      catalog.DeclareStream("link" + std::to_string(k), upa::LblSchema());
    }
    // Time windows only see tau - W < ts <= tau, so the oracle needs just
    // the sent events of the last window.
    const auto tail = std::upper_bound(
        events.begin(), events.begin() + static_cast<ptrdiff_t>(sent),
        clock - spec.window, [](Time t, const Event& e) { return t < e.ts; });
    for (size_t qi = 0; qi < spec.queries.size(); ++qi) {
      const QuerySpec& q = spec.queries[qi];
      std::vector<Tuple> snap;
      Time at = 0;
      bool ok = false;
      {
        ScopedSpan s(lane, "net.client.snapshot");
        ok = d.producer.Snapshot(q.name, &snap, &at, &err);
      }
      if (!ops->Count(ok, "final snapshot " + q.name + ": " + err)) continue;
      served[qi] = Canonical(snap);
      for (const auto& sub : d.subs) {
        const Mirror* m = sub->Find(q.name);
        ops->Count(m != nullptr && m->Canonical() == served[qi],
                   "mirror != snapshot for " + q.name);
        const bool strict = m != nullptr &&
                            m->pattern == upa::UpdatePattern::kStrict;
        ops->Count(m != nullptr && (strict || m->negatives == 0),
                   "negative delta on a non-STR subscription " + q.name);
      }
      ScopedSpan s(lane, "ref.oracle");
      upa::ParseResult p = catalog.Compile(q.sql);
      if (!ops->Count(p.ok(), "oracle compile " + q.name + ": " + p.error)) {
        continue;
      }
      std::set<int> streams;
      CollectStreams(*p.plan, &streams);
      upa::ReferenceEvaluator ref(p.plan.get());
      upa::Tuple t;
      for (auto it = tail; it != events.begin() + static_cast<ptrdiff_t>(sent);
           ++it) {
        if (streams.count(it->stream) == 0) continue;
        FillTuple(*it, &t);
        ref.Observe(it->stream, t);
      }
      ops->Count(Canonical(ref.EvalAt(at)) == served[qi],
                 "snapshot != oracle for " + q.name);
    }
  }

  // --- Durable: stop, recover, and compare with the pre-stop views. ---
  if (spec.durable) {
    ScopedSpan phase(lane, "phase.recovery");
    d.TearDown();
    upa::durability::RecoveryReport report;
    const int64_t t0 = NowNs();
    std::unique_ptr<upa::Engine> rec;
    {
      ScopedSpan s(lane, "engine.recover");
      rec = upa::Engine::StartFromCheckpoint(
          dir, MakeEngineOptions(spec, dir), &report);
    }
    r.recovery_s = static_cast<double>(NowNs() - t0) / 1e9;
    ops->Count(!report.data_loss && !report.wal_gap,
               "recovery lost data: " + report.note);
    for (size_t qi = 0; qi < spec.queries.size(); ++qi) {
      std::vector<Tuple> rows;
      ops->Count(rec->Snapshot(spec.queries[qi].name, &rows) &&
                     Canonical(rows) == served[qi],
                 "recovered view differs for " + spec.queries[qi].name);
    }
    rec->Stop();
  }
  d.TearDown();
  if (!dir.empty()) fs::remove_all(dir);
  return r;
}

}  // namespace perfbench
