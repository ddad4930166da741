// In-process passes of the traced run. They time single layers on the
// same generated input and queries the served run used, by calling each
// layer's public functions directly: the wire codec, Engine::Ingest and
// Flush, the durability layer (WAL append, checkpoint, recovery), and the
// single-threaded pipeline replay of the paper's Section 6.1 metric.

#include <algorithm>
#include <filesystem>
#include <set>

#include "bench.h"
#include "core/physical_planner.h"
#include "engine/durability/wal.h"
#include "exec/replay.h"
#include "net/protocol.h"
#include "sql/catalog.h"
#include "subscriber.h"
#include "workload/lbl_generator.h"

namespace perfbench {
namespace {

namespace net = upa::net;
namespace fs = std::filesystem;

/// Events per engine.ingest span, and between Flush calls.
constexpr size_t kFlushEvery = 4096;

bool DeclareAndRegister(const WorkloadSpec& spec, upa::Engine* e, Ops* ops) {
  for (int k = 0; k < spec.links; ++k) {
    if (!ops->Count(e->DeclareStream("link" + std::to_string(k),
                                     upa::LblSchema()) == k,
                    "in-process declare")) {
      return false;
    }
  }
  for (const QuerySpec& q : spec.queries) {
    const upa::RegisterResult rr = e->RegisterSql(q.name, q.sql);
    if (!ops->Count(rr.ok, "in-process register: " + rr.error)) return false;
  }
  return true;
}

void CodecPass(const WorkloadSpec& spec, const std::vector<Event>& events,
               size_t end, Lane* lane, Ops* ops, PassResult* r) {
  // Copies of the run's ingest messages, a chunk at a time.
  constexpr size_t kChunk = 1024;
  int64_t enc_ns = 0;
  int64_t dec_ns = 0;
  bool ok = true;
  for (size_t base = 0; base < end; base += kChunk * spec.wire_batch) {
    std::vector<net::Message> msgs;
    for (size_t i = base; i < end && msgs.size() < kChunk;
         i += spec.wire_batch) {
      net::Message m;
      m.type = net::MsgType::kIngestBatch;
      m.req_id = msgs.size() + 1;
      const size_t stop = std::min(i + spec.wire_batch, end);
      m.batch.resize(stop - i);
      for (size_t j = i; j < stop; ++j) {
        m.batch[j - i].first = static_cast<uint32_t>(events[j].stream);
        FillTuple(events[j], &m.batch[j - i].second);
      }
      msgs.push_back(std::move(m));
    }
    std::vector<std::string> frames(msgs.size());
    int64_t t0 = NowNs();
    {
      ScopedSpan s(lane, "net.protocol.encode");
      for (size_t k = 0; k < msgs.size(); ++k) {
        frames[k] = net::EncodeFrame(msgs[k]);
      }
    }
    int64_t t1 = NowNs();
    enc_ns += t1 - t0;
    {
      ScopedSpan s(lane, "net.protocol.decode");
      for (size_t k = 0; k < frames.size(); ++k) {
        net::Message out;
        size_t consumed = 0;
        ok = ok && net::DecodeFrame(frames[k].data(), frames[k].size(), &out,
                                    &consumed) == net::DecodeStatus::kOk &&
             out.batch.size() == msgs[k].batch.size();
      }
    }
    dec_ns += NowNs() - t1;
  }
  ops->Count(ok, "codec round trip");
  r->encode_ns_per_tuple = static_cast<double>(enc_ns) / end;
  r->decode_ns_per_tuple = static_cast<double>(dec_ns) / end;
}

void EnginePass(const WorkloadSpec& spec, const std::vector<Event>& events,
                size_t end, const std::string& workdir, Lane* lane, Ops* ops,
                PassResult* r) {
  const std::string dir = spec.durable ? workdir + "/engine-pass" : "";
  std::vector<double> flush_ms;
  int64_t ingest_ns = 0;
  {
    upa::Engine e(MakeEngineOptions(spec, dir));
    if (!DeclareAndRegister(spec, &e, ops)) return;
    Tuple t;
    for (size_t base = 0; base < end; base += kFlushEvery) {
      const size_t stop = std::min(base + kFlushEvery, end);
      const int64_t t0 = NowNs();
      {
        ScopedSpan s(lane, "engine.ingest");
        for (size_t i = base; i < stop; ++i) {
          FillTuple(events[i], &t);
          e.Ingest(events[i].stream, t);
        }
      }
      const int64_t t1 = NowNs();
      bool ok = false;
      {
        ScopedSpan s(lane, "engine.flush");
        ok = e.Flush();
      }
      ingest_ns += t1 - t0;
      flush_ms.push_back(static_cast<double>(NowNs() - t1) / 1e6);
      ops->Count(ok, "in-process barrier");
    }
    e.Stop();
  }
  if (!dir.empty()) fs::remove_all(dir);
  r->engine_ingest_ns_per_tuple = static_cast<double>(ingest_ns) / end;
  r->engine_flush_ms_p50 = Median(flush_ms);
}

/// The durability layer on this workload's queries and input: WAL on,
/// one checkpoint halfway, then stop and recover.
void DurabilityPass(const WorkloadSpec& spec,
                    const std::vector<Event>& events, size_t end,
                    const std::string& workdir, Lane* lane, Ops* ops,
                    PassResult* r) {
  const std::string dir = workdir + "/durability-pass";
  const upa::EngineOptions opts = MakeEngineOptions(spec, dir);
  std::vector<Rows> before(spec.queries.size());
  {
    upa::Engine e(opts);
    if (!DeclareAndRegister(spec, &e, ops)) return;
    Tuple t;
    for (size_t i = 0; i < end; ++i) {
      if (i == end / 2) {
        ScopedSpan s(lane, "engine.checkpoint");
        std::string err;
        ops->Count(e.Checkpoint(&err), "in-process checkpoint: " + err);
      }
      FillTuple(events[i], &t);
      e.Ingest(events[i].stream, t);
    }
    ops->Count(e.Flush(), "in-process barrier");
    for (size_t qi = 0; qi < spec.queries.size(); ++qi) {
      std::vector<Tuple> rows;
      ops->Count(e.Snapshot(spec.queries[qi].name, &rows), "snapshot");
      before[qi] = Canonical(rows);
    }
    const upa::DurabilityMetrics dm = e.Metrics().durability;
    r->wal_records = dm.wal_records;
    r->wal_bytes_per_tuple = static_cast<double>(dm.wal_bytes) / end;
    r->checkpoint_s = dm.last_checkpoint_seconds;
    r->checkpoint_kb = static_cast<double>(dm.last_checkpoint_bytes) / 1024;
    e.Stop();
  }
  upa::durability::RecoveryReport report;
  const int64_t t0 = NowNs();
  std::unique_ptr<upa::Engine> rec;
  {
    ScopedSpan s(lane, "engine.recover");
    rec = upa::Engine::StartFromCheckpoint(dir, opts, &report);
  }
  r->recovery_s = static_cast<double>(NowNs() - t0) / 1e9;
  r->recovery_wal_records = report.wal_records_replayed;
  r->recovery_retained = report.retained_replayed;
  for (size_t qi = 0; qi < spec.queries.size(); ++qi) {
    std::vector<Tuple> rows;
    ops->Count(rec->Snapshot(spec.queries[qi].name, &rows) &&
                   Canonical(rows) == before[qi],
               "in-process recovery differs for " + spec.queries[qi].name);
  }
  rec->Stop();
  rec.reset();
  fs::remove_all(dir);
}

void WalPass(const std::vector<Event>& events, size_t end,
             const std::string& workdir, Lane* lane, Ops* ops,
             PassResult* r) {
  const std::string dir = workdir + "/wal-pass";
  int64_t ns = 0;
  {
    upa::durability::WalWriter w(dir, upa::durability::WalWriterOptions{},
                                 nullptr);
    bool ok = w.Start(1);
    upa::durability::WalRecord rec;
    rec.type = upa::durability::WalRecordType::kIngest;
    for (size_t base = 0; base < end && ok; base += kFlushEvery) {
      const size_t stop = std::min(base + kFlushEvery, end);
      const int64_t t0 = NowNs();
      ScopedSpan s(lane, "engine.wal.append");
      for (size_t i = base; i < stop; ++i) {
        rec.stream = events[i].stream;
        FillTuple(events[i], &rec.tuple);
        ok = ok && w.Append(rec) != 0;
      }
      ns += NowNs() - t0;
    }
    ops->Count(ok, "WAL append");
  }
  fs::remove_all(dir);
  r->wal_append_ns_per_record = static_cast<double>(ns) / end;
}

void ReplayPass(const WorkloadSpec& spec, const std::vector<Event>& events,
                size_t end, Lane* lane, Ops* ops, PassResult* r) {
  upa::SourceCatalog catalog;
  for (int k = 0; k < spec.links; ++k) {
    catalog.DeclareStream("link" + std::to_string(k), upa::LblSchema());
  }
  double wall_s = 0;
  size_t state_bytes = 0;
  for (const QuerySpec& q : spec.queries) {
    upa::ParseResult p = catalog.Compile(q.sql);
    if (!ops->Count(p.ok(), "replay compile: " + p.error)) continue;
    std::set<int> streams;
    CollectStreams(*p.plan, &streams);
    upa::Trace trace;
    trace.schema = upa::LblSchema();
    trace.num_streams = spec.links;
    for (size_t i = 0; i < end; ++i) {
      if (streams.count(events[i].stream) == 0) continue;
      upa::TraceEvent te;
      te.stream = events[i].stream;
      FillTuple(events[i], &te.tuple);
      trace.events.push_back(std::move(te));
    }
    auto pipeline = upa::BuildPipeline(*p.plan, upa::ExecMode::kUpa);
    pipeline->EnableProfiling();
    upa::ReplayMetrics m;
    {
      ScopedSpan s(lane, "exec.replay");
      m = upa::ReplayTrace(trace, pipeline.get());
    }
    wall_s += m.wall_seconds;
    state_bytes += m.max_state_bytes;
    r->proc_s += m.profile.phases.processing_ns / 1e9;
    r->ins_s += m.profile.phases.insertion_ns / 1e9;
    r->exp_s += m.profile.phases.expiration_ns / 1e9;
    r->results_pos += m.stats.results_pos;
    r->results_neg += m.stats.results_neg;
  }
  r->replay_ms_per_1k = wall_s * 1e3 / (static_cast<double>(end) / 1000.0);
  r->max_state_mb = static_cast<double>(state_bytes) / (1024.0 * 1024.0);
}

}  // namespace

PassResult RunPasses(const WorkloadSpec& spec,
                     const std::vector<Event>& events, size_t end,
                     const std::string& workdir, Lane* lane, Ops* ops) {
  PassResult r;
  ScopedSpan phase(lane, "phase.passes");
  CodecPass(spec, events, end, lane, ops, &r);
  EnginePass(spec, events, end, workdir, lane, ops, &r);
  DurabilityPass(spec, events, end, workdir, lane, ops, &r);
  WalPass(events, end, workdir, lane, ops, &r);
  ReplayPass(spec, events, end, lane, ops, &r);
  return r;
}

}  // namespace perfbench
