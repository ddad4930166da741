// A subscriber connection that speaks the wire protocol itself.
//
// The benchmark does not use net::Client here: freshness is stamped at
// the moment frame bytes come off the socket, before net::DecodeFrame
// runs, which the blocking client does not expose. Each subscription is
// replayed into a Mirror that applies the Section 5.2 rules documented
// on net::SubscriptionMirror, so the correctness gate can compare it with
// the Snapshot RPC and the reference oracle.

#ifndef PERFBENCH_SUBSCRIBER_H_
#define PERFBENCH_SUBSCRIBER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/tuple.h"
#include "core/update_pattern.h"
#include "exec/view.h"
#include "net/protocol.h"
#include "tracer.h"

namespace perfbench {

using upa::Time;
using upa::Tuple;
using upa::Value;

/// A row's fields packed into bytes (type tag + payload per value): equal
/// rows pack equal, and a one-column row fits std::string's inline buffer,
/// so the mirror allocates nothing per delta for narrow results.
std::string Pack(const std::vector<Value>& fields);

/// Canonical comparison form of a view: the sorted multiset of packed
/// rows (timestamps and exp are not part of the answer).
using Rows = std::vector<std::string>;
Rows Canonical(const std::vector<Tuple>& tuples);

/// Client-side materialization of one subscription.
///  - kGroupReplace: deltas are (group, agg, count) replace records;
///    count 0 drops the group; rows render as (group, agg).
///  - kMultiset: a negative delta erases one (fields, exp) match (only
///    STR subscriptions carry them); a watermark w expires every row with
///    exp <= w.
struct Mirror {
  std::string query;
  uint64_t sub_id = 0;
  upa::UpdatePattern pattern = upa::UpdatePattern::kMonotonic;
  upa::ViewDeltaKind view_kind = upa::ViewDeltaKind::kMultiset;
  /// Lowest trace link the query reads: the first input of a timestamp
  /// that can trigger one of its deltas.
  int first_link = 0;
  Time watermark = -1;
  /// The query's root is a DISTINCT: its positive deltas include live
  /// duplicates promoted when a representative expires, carrying their
  /// own (older) timestamps.
  bool distinct = false;
  uint64_t deltas = 0;
  uint64_t negatives = 0;
  std::map<Time, std::vector<std::string>> rows;  ///< Packed, by exp.
  std::map<Value, double> groups;
  /// Distinct only: exp of the row currently representing each key.
  std::unordered_map<std::string, Time> live;

  /// Timestamp of the input that triggered positive delta `t` (call
  /// before applying it). A delta's own timestamp is its triggering
  /// arrival, except for a DISTINCT replacement: that is triggered when
  /// the key's previous representative expires, i.e. at its exp.
  Time TriggerTs(const Tuple& t) const;
  void ApplySnapshot(const std::vector<Tuple>& snapshot, Time at);
  void ApplyDelta(const Tuple& t);
  void ApplyWatermark(Time w);
  Rows Canonical() const;
};

/// When each paced input was due: the producer thread publishes it before
/// the first paced send; the subscriber thread reads it after `ready`.
struct Schedule {
  std::atomic<bool> ready{false};
  Time ts_begin = 0;  ///< First paced timestamp.
  Time ts_end = 0;    ///< Last paced timestamp.
  int links = 1;
  double rate = 1.0;  ///< Tuples per second.
  int64_t t0_ns = 0;  ///< Due time of the first paced tuple.
  int slices = 1;     ///< Equal slices of the paced timestamps.

  int Slice(Time ts) const {
    return static_cast<int>((ts - ts_begin) * slices /
                            (ts_end - ts_begin + 1));
  }

  double DueNs(Time ts, int link) const {
    return static_cast<double>(t0_ns) +
           static_cast<double>((ts - ts_begin) * links + link) * 1e9 / rate;
  }
};

class Subscriber {
 public:
  explicit Subscriber(const Schedule* schedule);
  ~Subscriber();
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  /// Connects and performs the version handshake.
  bool Connect(int port, std::string* error);
  /// Subscribes to `query` and waits for the ack (its starting snapshot).
  bool Subscribe(const std::string& query, int first_link, bool distinct,
                 std::string* error);
  /// Starts the reader thread. `lane` (may be null) receives its spans.
  void Start(Lane* lane);
  /// Waits until every subscription has seen a watermark >= `target`,
  /// then stops the reader thread. False on timeout or a stream error.
  bool StopAt(Time target, int timeout_ms, std::string* error);

  const Mirror* Find(const std::string& query) const;

  // Results, valid after StopAt.
  /// Freshness samples of the paced phase, per Schedule slice.
  const std::vector<std::vector<double>>& fresh_ms() const {
    return fresh_ms_;
  }
  /// Positive deltas attributed to an expiration rather than to their
  /// own arrival (DISTINCT replacements).
  uint64_t promoted_deltas() const { return promoted_; }
  uint64_t data_frames() const { return data_frames_; }
  uint64_t deltas() const { return deltas_; }
  uint64_t bytes() const { return bytes_; }
  int64_t data_decode_ns() const { return data_decode_ns_; }
  /// Stream errors: resets, drops, undecodable frames, socket loss.
  const std::string& failure() const { return failure_; }

 private:
  bool SendFrame(const upa::net::Message& m, std::string* error);
  /// Blocks for one frame (setup path, before the thread runs).
  bool ReadFrame(upa::net::Message* m, std::string* error);
  /// Applies one server push; false on a stream error.
  bool HandlePush(const upa::net::Message& m, int64_t arrival_ns);
  Mirror* FindById(uint64_t sub_id);
  void Run(Lane* lane);

  const Schedule* schedule_;
  int fd_ = -1;
  uint64_t next_req_ = 1;
  std::string in_;
  size_t in_off_ = 0;
  std::vector<std::unique_ptr<Mirror>> mirrors_;

  std::atomic<bool> stop_{false};
  std::atomic<Time> target_{0};
  std::atomic<bool> done_{false};
  std::atomic<bool> abort_{false};
  std::thread thread_;

  std::vector<std::vector<double>> fresh_ms_;
  uint64_t promoted_ = 0;
  uint64_t data_frames_ = 0;
  uint64_t deltas_ = 0;
  uint64_t bytes_ = 0;
  int64_t data_decode_ns_ = 0;
  std::string failure_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SUBSCRIBER_H_
