#include "subscriber.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace perfbench {

namespace net = upa::net;

std::string Pack(const std::vector<Value>& fields) {
  std::string out;
  for (const Value& v : fields) {
    char buf[9];
    if (const int64_t* i = std::get_if<int64_t>(&v)) {
      buf[0] = 'i';
      std::memcpy(buf + 1, i, 8);
      out.append(buf, 9);
    } else if (const double* d = std::get_if<double>(&v)) {
      buf[0] = 'd';
      std::memcpy(buf + 1, d, 8);
      out.append(buf, 9);
    } else {
      const std::string& str = std::get<std::string>(v);
      const uint64_t n = str.size();
      buf[0] = 's';
      std::memcpy(buf + 1, &n, 8);
      out.append(buf, 9);
      out.append(str);
    }
  }
  return out;
}

Rows Canonical(const std::vector<Tuple>& tuples) {
  Rows out;
  out.reserve(tuples.size());
  for (const Tuple& t : tuples) out.push_back(Pack(t.fields));
  std::sort(out.begin(), out.end());
  return out;
}

// --- Mirror ---

Time Mirror::TriggerTs(const Tuple& t) const {
  if (!distinct) return t.ts;
  const auto it = live.find(Pack(t.fields));
  return it == live.end() ? t.ts : std::max(t.ts, it->second);
}

void Mirror::ApplySnapshot(const std::vector<Tuple>& snapshot, Time at) {
  rows.clear();
  groups.clear();
  live.clear();
  for (const Tuple& t : snapshot) {
    if (view_kind == upa::ViewDeltaKind::kGroupReplace) {
      if (t.fields.size() == 2) groups[t.fields[0]] = upa::AsDouble(t.fields[1]);
    } else {
      std::string row = Pack(t.fields);
      if (distinct) live[row] = t.exp;
      rows[t.exp].push_back(std::move(row));
    }
  }
  watermark = std::max(watermark, at);
}

void Mirror::ApplyDelta(const Tuple& t) {
  ++deltas;
  if (view_kind == upa::ViewDeltaKind::kGroupReplace) {
    if (t.fields.size() != 3) return;
    if (upa::AsInt(t.fields[2]) == 0) {
      groups.erase(t.fields[0]);
    } else {
      groups[t.fields[0]] = upa::AsDouble(t.fields[1]);
    }
    return;
  }
  std::string row = Pack(t.fields);
  if (t.negative) {
    ++negatives;
    const auto bucket = rows.find(t.exp);
    if (bucket == rows.end()) return;
    std::vector<std::string>& v = bucket->second;
    const auto it = std::find(v.begin(), v.end(), row);
    if (it == v.end()) return;
    *it = std::move(v.back());
    v.pop_back();
    if (v.empty()) rows.erase(bucket);
    return;
  }
  if (distinct) live[row] = t.exp;
  rows[t.exp].push_back(std::move(row));
}

void Mirror::ApplyWatermark(Time w) {
  watermark = std::max(watermark, w);
  if (view_kind == upa::ViewDeltaKind::kGroupReplace) return;
  // A row is live while now < exp, so exp <= w leaves the view.
  const auto end = rows.upper_bound(w);
  if (distinct) {
    for (auto it = rows.begin(); it != end; ++it) {
      for (const std::string& row : it->second) {
        const auto l = live.find(row);
        if (l != live.end() && l->second <= w) live.erase(l);
      }
    }
  }
  rows.erase(rows.begin(), end);
}

Rows Mirror::Canonical() const {
  Rows out;
  if (view_kind == upa::ViewDeltaKind::kGroupReplace) {
    for (const auto& [group, agg] : groups) {
      out.push_back(Pack({group, Value{agg}}));
    }
  } else {
    for (const auto& [exp, bucket] : rows) {
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Subscriber ---

Subscriber::Subscriber(const Schedule* schedule) : schedule_(schedule) {}

Subscriber::~Subscriber() {
  if (thread_.joinable()) {
    abort_.store(true, std::memory_order_release);
    thread_.join();
  }
  if (fd_ >= 0) ::close(fd_);
}

bool Subscriber::Connect(int port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  net::Message hello;
  hello.type = net::MsgType::kHello;
  hello.req_id = next_req_++;
  hello.version = net::kProtocolVersion;
  hello.name = "perfbench-subscriber";
  net::Message ack;
  if (!SendFrame(hello, error) || !ReadFrame(&ack, error)) return false;
  if (ack.type != net::MsgType::kHelloAck) {
    *error = "handshake refused: " + ack.text;
    return false;
  }
  return true;
}

bool Subscriber::Subscribe(const std::string& query, int first_link,
                           bool distinct, std::string* error) {
  net::Message req;
  req.type = net::MsgType::kSubscribe;
  req.req_id = next_req_++;
  req.name = query;
  if (!SendFrame(req, error)) return false;
  for (;;) {
    net::Message m;
    if (!ReadFrame(&m, error)) return false;
    if (m.req_id == 0) {
      // A push for an earlier subscription: apply it like the thread would.
      if (!HandlePush(m, NowNs())) {
        *error = failure_;
        return false;
      }
      continue;
    }
    if (m.req_id != req.req_id || m.type != net::MsgType::kSubscribeAck ||
        !m.flag) {
      *error = "subscribe " + query + " refused: " + m.text;
      return false;
    }
    auto mirror = std::make_unique<Mirror>();
    mirror->query = query;
    mirror->sub_id = m.sub_id;
    mirror->pattern = static_cast<upa::UpdatePattern>(m.pattern);
    mirror->view_kind = static_cast<upa::ViewDeltaKind>(m.view_kind);
    mirror->first_link = first_link;
    mirror->distinct = distinct;
    mirror->ApplySnapshot(m.tuples, m.time);
    mirrors_.push_back(std::move(mirror));
    return true;
  }
}

const Mirror* Subscriber::Find(const std::string& query) const {
  for (const auto& m : mirrors_) {
    if (m->query == query) return m.get();
  }
  return nullptr;
}

Mirror* Subscriber::FindById(uint64_t sub_id) {
  for (const auto& m : mirrors_) {
    if (m->sub_id == sub_id) return m.get();
  }
  return nullptr;
}

bool Subscriber::SendFrame(const net::Message& m, std::string* error) {
  const std::string bytes = net::EncodeFrame(m);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Subscriber::ReadFrame(net::Message* m, std::string* error) {
  char buf[1 << 16];
  for (;;) {
    size_t consumed = 0;
    const net::DecodeStatus st = net::DecodeFrame(
        in_.data() + in_off_, in_.size() - in_off_, m, &consumed);
    if (st == net::DecodeStatus::kOk) {
      in_off_ += consumed;
      bytes_ += consumed;
      return true;
    }
    if (st != net::DecodeStatus::kNeedMore) {
      *error = "undecodable frame";
      return false;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "connection lost";
      return false;
    }
    in_.erase(0, in_off_);
    in_off_ = 0;
    in_.append(buf, static_cast<size_t>(n));
  }
}

bool Subscriber::HandlePush(const net::Message& m, int64_t arrival_ns) {
  Mirror* mirror = FindById(m.sub_id);
  if (mirror == nullptr) {
    failure_ = std::string("push for unknown subscription: ") +
               net::MsgTypeName(m.type);
    return false;
  }
  switch (m.type) {
    case net::MsgType::kSubData: {
      ++data_frames_;
      deltas_ += m.tuples.size();
      const bool paced = schedule_->ready.load(std::memory_order_acquire);
      for (const Tuple& t : m.tuples) {
        if (!t.negative) {
          const Time trigger = mirror->TriggerTs(t);
          if (trigger != t.ts) ++promoted_;
          if (paced && trigger >= schedule_->ts_begin &&
              trigger <= schedule_->ts_end) {
            fresh_ms_.resize(static_cast<size_t>(schedule_->slices));
            fresh_ms_[static_cast<size_t>(schedule_->Slice(trigger))]
                .push_back((static_cast<double>(arrival_ns) -
                 schedule_->DueNs(trigger, mirror->first_link)) /
                1e6);
          }
        }
        mirror->ApplyDelta(t);
      }
      return true;
    }
    case net::MsgType::kSubWatermark:
      mirror->ApplyWatermark(m.time);
      return true;
    case net::MsgType::kSubReset:
      // Only a shard restart resets a stream; none is expected here.
      failure_ = "subscription " + mirror->query + " was reset";
      return false;
    case net::MsgType::kSubDropped:
      failure_ = "subscription " + mirror->query + " was dropped";
      return false;
    default:
      failure_ = std::string("unexpected frame ") + net::MsgTypeName(m.type);
      return false;
  }
}

void Subscriber::Start(Lane* lane) {
  thread_ = std::thread([this, lane] { Run(lane); });
}

void Subscriber::Run(Lane* lane) {
  ScopedSpan root(lane, "subscriber");
  char buf[1 << 16];
  for (;;) {
    if (abort_.load(std::memory_order_acquire)) break;
    if (stop_.load(std::memory_order_acquire)) {
      const Time target = target_.load(std::memory_order_relaxed);
      bool all = true;
      for (const auto& m : mirrors_) all = all && m->watermark >= target;
      if (all) break;
    }
    pollfd pfd{fd_, POLLIN, 0};
    int ready = 0;
    {
      ScopedSpan wait(lane, "net.socket.wait");
      ready = ::poll(&pfd, 1, 10);
    }
    if (ready <= 0) continue;
    ssize_t n = 0;
    {
      ScopedSpan read(lane, "net.socket.read");
      n = ::recv(fd_, buf, sizeof(buf), 0);
    }
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      failure_ = "subscriber connection lost";
      break;
    }
    const int64_t arrival = NowNs();
    in_.append(buf, static_cast<size_t>(n));
    bool ok = true;
    for (;;) {
      net::Message m;
      size_t consumed = 0;
      const int64_t t0 = lane != nullptr ? NowNs() : 0;
      const net::DecodeStatus st = net::DecodeFrame(
          in_.data() + in_off_, in_.size() - in_off_, &m, &consumed);
      if (st == net::DecodeStatus::kNeedMore) break;
      if (st != net::DecodeStatus::kOk) {
        failure_ = "undecodable subscription frame";
        ok = false;
        break;
      }
      if (lane != nullptr) {
        const int64_t t1 = NowNs();
        lane->Add("net.protocol.decode", t0, t1, m.seq);
        if (m.type == net::MsgType::kSubData) data_decode_ns_ += t1 - t0;
      }
      in_off_ += consumed;
      bytes_ += consumed;
      ScopedSpan apply(lane, "mirror.apply", m.seq);
      if (!HandlePush(m, arrival)) {
        ok = false;
        break;
      }
    }
    if (!ok) break;
    if (in_off_ > (1u << 20) || in_off_ == in_.size()) {
      in_.erase(0, in_off_);
      in_off_ = 0;
    }
  }
  done_.store(true, std::memory_order_release);
}

bool Subscriber::StopAt(Time target, int timeout_ms, std::string* error) {
  target_.store(target, std::memory_order_relaxed);
  stop_.store(true, std::memory_order_release);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!done_.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool finished = done_.load(std::memory_order_acquire);
  abort_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (!failure_.empty()) {
    *error = failure_;
    return false;
  }
  if (!finished) {
    *error = "subscriber did not reach the final watermark in time";
    return false;
  }
  return true;
}

}  // namespace perfbench
