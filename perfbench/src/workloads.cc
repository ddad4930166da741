#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "bench.h"
#include "workload/lbl_generator.h"

namespace perfbench {

// Why these three (the metric -> layer -> workload map is in README.md):
//  - join_skew: Query 1's high-output telnet self-join under Zipf skew.
//    Join probing, result materialization, view maintenance and delta
//    fan-out do nearly all the work; wire decode does little.
//  - fanout_light: four cheap queries on four links with two subscriber
//    connections. Operator work is small, so the fixed per-tuple costs
//    (framing, CRC, decode, routing, queue handoff, per-subscriber
//    encode) dominate; a join or state change should not move it.
//  - durable_negation: Query 3's STR negation beside a DISTINCT, with the
//    WAL on, one checkpoint and a recovery: the only workload that
//    appends to the WAL, checkpoints, replays, and sends retractions.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* specs = [] {
    auto* v = new std::vector<WorkloadSpec>();
    {
      WorkloadSpec w;
      w.name = "join_skew";
      w.links = 2;
      w.window = 10000;
      w.queries = {
          {"telnet_pairs",
           "SELECT link0.src_ip FROM link0 [RANGE 10000], link1 [RANGE "
           "10000] WHERE link0.src_ip = link1.src_ip AND link0.protocol = 2 "
           "AND link1.protocol = 2",
           0}};
      w.default_shards = 2;
      w.wire_batch = 64;
      w.paced_rate = 3000;
      w.unpaced_cap = 45000;
      w.subscriber_conns = 1;
      w.snapshot_query = "telnet_pairs";
      w.snapshots_per_slice = 1;
      v->push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "fanout_light";
      w.links = 4;
      w.window = 800;
      w.queries = {
          {"sources", "SELECT DISTINCT src_ip FROM link0 [RANGE 800]", 0, true},
          {"proto_bytes",
           "SELECT protocol, SUM(payload) FROM link1 [RANGE 800] GROUP BY "
           "protocol",
           1},
          {"ftp", "SELECT src_ip, payload FROM link2 [RANGE 800] WHERE "
                  "protocol = 1",
           2},
          {"total", "SELECT COUNT(*) FROM link3 [RANGE 800]", 3},
      };
      w.default_shards = 1;
      w.wire_batch = 16;
      w.paced_rate = 20000;
      w.unpaced_cap = 250000;
      w.subscriber_conns = 2;
      w.barrier_ms = 1000;
      w.snapshot_query = "total";
      v->push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "durable_negation";
      w.links = 2;
      w.window = 2000;
      w.queries = {
          {"fresh_sources",
           "SELECT src_ip FROM link0 [RANGE 2000] EXCEPT SELECT src_ip FROM "
           "link1 [RANGE 2000]",
           0},
          {"sources", "SELECT DISTINCT src_ip FROM link1 [RANGE 2000]", 1, true},
      };
      w.default_shards = 2;
      w.durable = true;
      w.wire_batch = 256;
      w.paced_rate = 20000;
      w.unpaced_cap = 250000;
      w.subscriber_conns = 1;
      w.barrier_ms = 1000;
      w.snapshot_query = "fresh_sources";
      v->push_back(w);
    }
    return v;
  }();
  return *specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Event> GenerateEvents(const WorkloadSpec& spec, uint64_t seed,
                                  size_t min_events) {
  // Generated in segments so the full-width Tuples of only one segment
  // exist at a time; segment k has its own seed derived from `seed` and
  // continues the timestamps of segment k-1.
  constexpr Time kSegment = 20000;
  std::vector<Event> out;
  out.reserve(min_events + static_cast<size_t>(kSegment * spec.links));
  for (uint64_t k = 0; out.size() < min_events; ++k) {
    upa::LblTraceConfig cfg;
    cfg.seed = seed * 0x9e3779b97f4a7c15ULL + k;
    cfg.num_links = spec.links;
    cfg.duration = kSegment;
    cfg.num_sources = kSources;
    cfg.source_zipf = kZipf;
    const upa::Trace seg = upa::GenerateLblTrace(cfg);
    const Time shift = static_cast<Time>(k) * kSegment;
    for (const upa::TraceEvent& te : seg.events) {
      Event e;
      e.ts = te.tuple.ts + shift;
      e.stream = te.stream;
      for (int i = 0; i < 5; ++i) {
        e.f[i] = static_cast<int32_t>(upa::AsInt(te.tuple.fields[i]));
      }
      out.push_back(e);
    }
  }
  return out;
}

void FillTuple(const Event& e, Tuple* t) {
  t->ts = e.ts;
  t->exp = upa::kNeverExpires;
  t->negative = false;
  t->fields.resize(5);
  for (int i = 0; i < 5; ++i) t->fields[i] = upa::Value{int64_t{e.f[i]}};
}

void CollectStreams(const upa::PlanNode& n, std::set<int>* out) {
  if (n.kind == upa::PlanOpKind::kStream) out->insert(n.stream_id);
  for (const auto& c : n.children) CollectStreams(*c, out);
}

upa::EngineOptions MakeEngineOptions(const WorkloadSpec& spec,
                                     const std::string& durable_dir) {
  upa::EngineOptions o;
  o.default_shards = spec.default_shards;
  o.durability.dir = durable_dir;
  return o;
}

PhasePlan PlanPhases(const WorkloadSpec& spec, int seconds) {
  const auto whole = [&spec](double events) {
    const size_t l = static_cast<size_t>(spec.links);
    return (static_cast<size_t>(std::ceil(events)) + l - 1) / l * l;
  };
  PhasePlan p;
  p.paced_s = seconds / 2.0;
  p.unpaced_s = seconds - p.paced_s;
  p.warm_end = whole(static_cast<double>(spec.window) * spec.links);
  p.paced_end = p.warm_end + whole(spec.paced_rate * p.paced_s);
  p.trace_end = p.paced_end + whole(spec.unpaced_cap * p.unpaced_s);
  return p;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

void StealMeter::Read(uint64_t* steal, uint64_t* total) {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  *steal = 0;
  *total = 0;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) return;
    *total += v;
    if (i == 7) *steal = v;
  }
}

double StealMeter::Lap() {
  uint64_t steal = 0;
  uint64_t total = 0;
  Read(&steal, &total);
  const double share =
      total > total_ ? static_cast<double>(steal - steal_) /
                           static_cast<double>(total - total_)
                     : 0.0;
  steal_ = steal;
  total_ = total;
  return share;
}

std::vector<size_t> QuietSlices(const std::vector<double>& steal) {
  std::vector<size_t> idx(steal.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&steal](size_t a, size_t b) {
    return steal[a] < steal[b];
  });
  if (idx.size() > static_cast<size_t>(kQuietSlices)) {
    idx.resize(static_cast<size_t>(kQuietSlices));
  }
  return idx;
}

double QuietMedian(const std::vector<double>& per_slice,
                   const std::vector<double>& steal) {
  std::vector<double> v;
  for (size_t i : QuietSlices(steal)) {
    if (i < per_slice.size()) v.push_back(per_slice[i]);
  }
  return Median(std::move(v));
}

double QuietPercentile(const std::vector<std::vector<double>>& slices,
                       const std::vector<double>& steal, double p) {
  std::vector<double> v;
  for (size_t i : QuietSlices(steal)) {
    if (i < slices.size() && !slices[i].empty()) {
      v.push_back(Percentile(slices[i], p));
    }
  }
  return Median(std::move(v));
}

double QuietPooledMedian(const std::vector<std::vector<double>>& slices,
                         const std::vector<double>& steal) {
  std::vector<double> v;
  for (size_t i : QuietSlices(steal)) {
    if (i < slices.size()) v.insert(v.end(), slices[i].begin(), slices[i].end());
  }
  return Median(std::move(v));
}

size_t SampleCount(const std::vector<std::vector<double>>& slices) {
  size_t n = 0;
  for (const std::vector<double>& s : slices) n += s.size();
  return n;
}

}  // namespace perfbench
