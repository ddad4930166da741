// Shared definitions of the serving benchmark: workloads, the generated
// input trace, and the results each part of a run fills in.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/tuple.h"
#include "core/logical_plan.h"
#include "engine/engine.h"
#include "tracer.h"

namespace perfbench {

using upa::Time;
using upa::Tuple;

struct QuerySpec {
  std::string name;
  std::string sql;
  /// Lowest trace link the query reads (freshness is measured from the
  /// due time of that link's input at a delta's timestamp).
  int first_link = 0;
  /// The root is a DISTINCT (see Mirror::TriggerTs).
  bool distinct = false;
};

/// Every workload draws source addresses from Zipf 1.0 over 1000 sources,
/// the skew of the paper's Query 1 experiment.
constexpr int kSources = 1000;
constexpr double kZipf = 1.0;

/// One traffic mix. The fields are fixed per workload; only
/// `default_shards` and `durable` reach EngineOptions, every other engine
/// and server option stays at its default.
struct WorkloadSpec {
  std::string name;
  int links = 2;
  Time window = 0;           ///< Largest window of any query (time units).
  std::vector<QuerySpec> queries;
  int default_shards = 1;
  bool durable = false;
  size_t wire_batch = 64;    ///< Tuples per IngestBatch.
  double paced_rate = 1000;  ///< Open-loop rate, tuples per second.
  /// Upper bound on the unpaced rate the trace is sized for; a faster
  /// system simply runs out of trace and ends the phase early.
  double unpaced_cap = 100000;
  int subscriber_conns = 1;  ///< Each subscribes to every query.
  /// Barrier cadence of the reader (paced). A barrier stalls ingest for a
  /// few milliseconds; where nothing else stalls it, a cadence of 1 s
  /// keeps those stalls under 1% of the paced inputs, so the freshness
  /// tail measures delivery rather than the noisy length of one barrier.
  int barrier_ms = 100;
  std::string snapshot_query;
  /// Snapshots the reader takes per paced slice, evenly spaced, so every
  /// slice carries the same read load.
  int snapshots_per_slice = 4;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// One generated input: the LBL connection record in compact form (the
/// generator's fields all fit 32 bits), expanded to a Tuple when sent.
struct Event {
  Time ts = 0;
  int32_t stream = 0;
  int32_t f[5] = {0, 0, 0, 0, 0};
};

/// Generates at least `min_events` events from `seed`.
std::vector<Event> GenerateEvents(const WorkloadSpec& spec, uint64_t seed,
                                  size_t min_events);
void FillTuple(const Event& e, Tuple* t);

/// Stream ids a plan reads.
void CollectStreams(const upa::PlanNode& n, std::set<int>* out);

/// Engine options of a workload (durability dir empty when not durable).
upa::EngineOptions MakeEngineOptions(const WorkloadSpec& spec,
                                     const std::string& durable_dir);

/// Sizes of the three phases, in events (whole timestamps each).
struct PhasePlan {
  size_t warm_end = 0;    ///< [0, warm_end): window warm-up.
  size_t paced_end = 0;   ///< [warm_end, paced_end): open loop.
  size_t trace_end = 0;   ///< [paced_end, trace_end): closed loop.
  double paced_s = 0;
  double unpaced_s = 0;
};
PhasePlan PlanPhases(const WorkloadSpec& spec, int seconds);

/// Counts operations attempted and failed (ingest batches, barriers,
/// snapshots, subscribes, registrations, correctness gates).
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  bool Count(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
    return ok;
  }
};

/// Both measured phases are cut into this many equal slices. A figure is
/// the median over the kQuietSlices slices during which the hypervisor
/// took the least CPU time from this machine (the steal column of
/// /proc/stat): on a shared host, slices where the guest's CPUs were
/// descheduled measure the neighbours, not the engine.
constexpr int kSlices = 7;
constexpr int kQuietSlices = 4;

/// Share of all CPU time stolen by the hypervisor between two laps
/// (0 where /proc/stat has no steal column).
class StealMeter {
 public:
  StealMeter() { Read(&steal_, &total_); }
  /// Steal share since construction or the previous Lap.
  double Lap();

 private:
  static void Read(uint64_t* steal, uint64_t* total);
  uint64_t steal_ = 0;
  uint64_t total_ = 0;
};

/// Indices of the kQuietSlices slices with the least steal (all of them
/// when there are no more than that).
std::vector<size_t> QuietSlices(const std::vector<double>& steal);
/// Median of `per_slice` over the quiet slices.
double QuietMedian(const std::vector<double>& per_slice,
                   const std::vector<double>& steal);
/// Median over the quiet slices of each slice's p-th percentile.
double QuietPercentile(const std::vector<std::vector<double>>& slices,
                       const std::vector<double>& steal, double p);
/// Median of the samples of the quiet slices, pooled.
double QuietPooledMedian(const std::vector<std::vector<double>>& slices,
                         const std::vector<double>& steal);

/// What one serving run measured.
struct ServeResult {
  /// Each set-up's process CPU time and wall time.
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  std::vector<double> slice_ktps;  ///< Unpaced rate of each slice.
  /// Process CPU time per tuple of each unpaced slice.
  std::vector<double> slice_cpu_us_per_tuple;
  std::vector<double> unpaced_steal;  ///< Steal share of each slice.
  std::vector<double> paced_steal;
  uint64_t unpaced_tuples = 0;
  bool trace_exhausted = false;
  std::vector<std::vector<double>> fresh_ms;  ///< Per paced slice.
  uint64_t promoted_deltas = 0;
  std::vector<std::vector<double>> snapshot_ms;  ///< Per paced slice.
  std::vector<double> gen_lag_ms;
  /// Summed QueryMetrics::state_bytes at each unpaced slice's barrier.
  std::vector<double> slice_state_mb;
  double rss_peak_mb = 0;
  double recovery_s = -1;       ///< Durable workloads only.
  std::vector<double> register_ms;
  // Per-layer counters.
  uint64_t sub_deltas_wire = 0;
  uint64_t sub_frames = 0;
  uint64_t sub_bytes = 0;
  int64_t sub_decode_ns = 0;
  double bytes_in_per_tuple = 0;
  uint64_t slow_drops = 0;
  size_t queue_depth_max = 0;
  uint64_t shard_processed = 0;
  uint64_t shard_dropped = 0;
  uint64_t shard_restarts = 0;
  uint64_t stall_events = 0;
  uint64_t engine_sub_deltas = 0;
  uint64_t engine_sub_watermarks = 0;
};

/// Hosts the workload's server and drives it over loopback: set-up,
/// warm-up, paced and unpaced phases, then the correctness gates.
ServeResult Serve(const WorkloadSpec& spec, const std::vector<Event>& events,
                  const PhasePlan& plan, const std::string& workdir,
                  Lane* lane, Tracer* tracer, Ops* ops);

/// Per-layer numbers from in-process passes over the same trace and
/// queries (traced run only).
struct PassResult {
  double encode_ns_per_tuple = 0;
  double decode_ns_per_tuple = 0;
  double engine_ingest_ns_per_tuple = 0;
  double engine_flush_ms_p50 = 0;
  double wal_bytes_per_tuple = 0;
  uint64_t wal_records = 0;
  double wal_append_ns_per_record = 0;
  double checkpoint_s = 0;
  double checkpoint_kb = 0;
  double recovery_s = 0;
  uint64_t recovery_wal_records = 0;
  uint64_t recovery_retained = 0;
  double replay_ms_per_1k = 0;
  double proc_s = 0;
  double ins_s = 0;
  double exp_s = 0;
  uint64_t results_pos = 0;
  uint64_t results_neg = 0;
  double max_state_mb = 0;
};

PassResult RunPasses(const WorkloadSpec& spec,
                     const std::vector<Event>& events, size_t end,
                     const std::string& workdir, Lane* lane, Ops* ops);

double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
size_t SampleCount(const std::vector<std::vector<double>>& slices);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
