#include "mtsched/exp/server.hpp"

#include <poll.h>

#include <cerrno>
#include <thread>
#include <utility>

#include "mtsched/core/error.hpp"
#include "mtsched/exp/rpc.hpp"

namespace mtsched::exp {

namespace {

/// Compact a consumed buffer prefix once it is both large and the
/// majority of the buffer — keeps amortized copying linear without
/// shifting bytes on every frame.
constexpr std::size_t kCompactThreshold = 64u * 1024;

}  // namespace

RpcServer::RpcServer(Service& service, RpcServerConfig cfg)
    : service_(service), cfg_(cfg), listener_(cfg.port) {}

RpcServer::~RpcServer() {
  shutdown();
  // serve() has returned (callers join their serving thread before
  // destroying the server); what may still run are service
  // done-callbacks about to touch completions_ and the poller.
  while (dispatched_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

void RpcServer::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  poller_.wake();  // the loop observes stopping_ and starts draining
}

RpcServerStats RpcServer::stats() const {
  RpcServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.backpressure_pauses =
      backpressure_pauses_.load(std::memory_order_relaxed);
  s.batches = s.batched_requests = served_.load(std::memory_order_relaxed);
  return s;
}

void RpcServer::serve() {
  listener_.set_nonblocking(true);
  poller_.add(listener_.fd(), core::net::Poller::kRead);
  bool listening = true;
  try {
    while (true) {
      drain_completions();
      if (stopping()) {
        if (listening) {
          poller_.remove(listener_.fd());
          listener_.close();
          listening = false;
        }
        // Sweep every iteration (not once): a connection accepted in
        // the same event batch as the shutdown still needs draining.
        for (auto& [fd, c] : conns_) {
          if (!c.draining && !c.dead) {
            c.draining = true;
            pump(c);
            update_interest(c);
          }
        }
      }
      reap_dead();
      if (stopping() && dispatched_.load(std::memory_order_acquire) == 0 &&
          completions_empty() && conns_.empty()) {
        break;
      }

      // While stopping, wait with a finite timeout: a done-callback
      // wakes the loop *before* decrementing dispatched_ (see
      // handle_frame), so the loop can consume that wake, still observe
      // the old count and go back to sleep with no further wake coming.
      // The periodic re-check closes that window.
      const auto& events = poller_.wait(stopping() ? 10 : -1);
      for (const auto& ev : events) {
        if (listening && ev.fd == listener_.fd()) {
          accept_new();
          continue;
        }
        const auto it = conns_.find(ev.fd);
        if (it == conns_.end()) continue;
        Conn& c = it->second;
        if (ev.error) {
          // POLLERR/POLLHUP often arrives alongside the peer's final
          // bytes (pipeline-then-close): honor readable first so the
          // on_eof drain path can best-effort deliver the responses
          // still owed; only a bare error kills the connection
          // outright. Writes to a truly gone peer fail inside pump()
          // and mark the connection dead there.
          if (ev.readable) {
            on_readable(c);
          } else {
            c.dead = true;
          }
          continue;
        }
        if (ev.writable) {
          pump(c);
          update_interest(c);
        }
        if (!c.dead && ev.readable) on_readable(c);
      }
    }
  } catch (...) {
    teardown(listening);
    throw;
  }
  teardown(listening);
}

void RpcServer::teardown(bool listening) {
  for (auto& [fd, c] : conns_) {
    poller_.remove(fd);
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.clear();
  fd_of_.clear();
  if (listening) {
    poller_.remove(listener_.fd());
    listener_.close();
  }
}

void RpcServer::accept_new() {
  while (true) {
    std::optional<core::net::Socket> sock;
    try {
      sock = listener_.try_accept();
    } catch (const core::Error&) {
      if (stopping()) return;
      throw;
    }
    if (!sock.has_value()) return;
    // Raced with a shutdown: dropping the socket closes it, the client
    // sees EOF instead of a server that never answers.
    if (stopping()) return;
    sock->set_nonblocking(true);
    const int fd = sock->fd();
    Conn c;
    c.sock = std::move(*sock);
    c.id = next_conn_id_++;
    fd_of_[c.id] = fd;
    conns_.emplace(fd, std::move(c));
    poller_.add(fd, core::net::Poller::kRead);
    connections_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool RpcServer::read_capped(const Conn& c) const {
  return c.slots.size() >= cfg_.max_conn_inflight ||
         c.wbuf.size() - c.wpos >= cfg_.max_write_buffer_bytes;
}

void RpcServer::on_readable(Conn& c) {
  char buf[64 * 1024];
  while (!c.dead && !c.draining && !read_capped(c)) {
    std::ptrdiff_t r;
    try {
      r = c.sock.read_some(buf, sizeof(buf));
    } catch (const core::Error&) {
      c.dead = true;
      break;
    }
    if (r == -1) break;  // drained the socket buffer
    if (r == 0) {
      on_eof(c);
      break;
    }
    c.rbuf.append(buf, static_cast<std::size_t>(r));
    pump(c);
  }
  update_interest(c);
}

void RpcServer::on_eof(Conn& c) {
  // The peer finished sending (clean close or half-close after
  // pipelining its requests). Unparsed leftover bytes mean the last
  // frame was truncated: answer best-effort, like the blocking reader's
  // "closed mid-message" path. Either way: deliver what is owed, then
  // close.
  if (c.rbuf.size() > c.rpos) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    push_error_slot(c,
                    "truncated rpc frame: connection closed mid-message");
  }
  c.draining = true;
  pump(c);
}

void RpcServer::pump(Conn& c) {
  bool progress = true;
  while (progress && !c.dead) {
    progress = false;
    if (parse_frames(c)) progress = true;
    if (flush(c)) progress = true;
  }
}

bool RpcServer::parse_frames(Conn& c) {
  bool progress = false;
  while (!c.dead && !c.draining && !read_capped(c)) {
    const std::size_t avail = c.rbuf.size() - c.rpos;
    if (avail < 4) break;
    const auto* h =
        reinterpret_cast<const unsigned char*>(c.rbuf.data() + c.rpos);
    const std::uint32_t n = (static_cast<std::uint32_t>(h[0]) << 24) |
                            (static_cast<std::uint32_t>(h[1]) << 16) |
                            (static_cast<std::uint32_t>(h[2]) << 8) |
                            static_cast<std::uint32_t>(h[3]);
    if (n > cfg_.max_frame_bytes) {
      // The byte stream is unsound past this header: answer best-effort
      // and close once everything owed has been written.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      push_error_slot(c, "oversized rpc frame: " + std::to_string(n) +
                             " bytes announced, limit is " +
                             std::to_string(cfg_.max_frame_bytes));
      c.draining = true;
      progress = true;
      break;
    }
    if (avail < 4 + n) break;
    const std::string payload = c.rbuf.substr(c.rpos + 4, n);
    c.rpos += 4 + n;
    progress = true;
    handle_frame(c, payload);
  }
  if (c.rpos == c.rbuf.size()) {
    c.rbuf.clear();
    c.rpos = 0;
  } else if (c.rpos >= kCompactThreshold && c.rpos * 2 >= c.rbuf.size()) {
    c.rbuf.erase(0, c.rpos);
    c.rpos = 0;
  }
  return progress;
}

RpcServer::Slot& RpcServer::new_slot(Conn& c) {
  c.slots.emplace_back();
  ++c.next_seq;
  return c.slots.back();
}

void RpcServer::push_error_slot(Conn& c, const std::string& message) {
  ScheduleResponse err;
  err.status = ServiceStatus::BadRequest;
  err.message = message;
  Slot& slot = new_slot(c);
  slot.bytes = encode_response(err);
  slot.ready = true;
}

void RpcServer::handle_frame(Conn& c, const std::string& payload) {
  RpcRequest req;
  try {
    req = parse_request(payload);
  } catch (const core::Error& e) {
    // Undecodable payload inside an intact frame: report and keep the
    // connection — the next frame boundary is still trustworthy.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    push_error_slot(c, e.what());
    return;
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  if (req.type == RpcRequest::Type::Ping) {
    ScheduleResponse pong;
    pong.message = "pong";
    Slot& slot = new_slot(c);
    slot.bytes = encode_response(pong);
    slot.ready = true;
    return;
  }
  if (req.type == RpcRequest::Type::Shutdown) {
    ScheduleResponse ack;
    ack.message = "shutting down";
    Slot& slot = new_slot(c);
    slot.bytes = encode_response(ack);
    slot.ready = true;
    shutdown();
    return;
  }

  const std::uint64_t conn_id = c.id;
  const std::uint64_t seq = c.next_seq;
  new_slot(c);
  dispatched_.fetch_add(1, std::memory_order_acq_rel);
  const bool admitted = service_.submit(
      std::move(req.schedule),
      [this, conn_id, seq](const ScheduleResponse& resp) {
        served_.fetch_add(1, std::memory_order_relaxed);
        std::string bytes = encode_response(resp);
        {
          std::unique_lock lock(completions_mutex_);
          completions_.push_back(Completion{conn_id, seq, std::move(bytes)});
        }
        // Wake first, decrement last: dispatched_ reaching zero is the
        // licence for serve() to exit and for ~RpcServer to return, so
        // the decrement must be this callback's final touch of any
        // server member (a wake after it could hit a freed poller). The
        // loop tolerates the flip side — a wake consumed before the
        // decrement lands — by polling with a finite timeout while
        // stopping instead of blocking forever.
        poller_.wake();
        dispatched_.fetch_sub(1, std::memory_order_acq_rel);
      });
  if (!admitted) {
    dispatched_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = c.slots.back();
    slot.bytes = encode_response(service_.reject_response());
    slot.ready = true;
  }
}

bool RpcServer::append_frame(Conn& c, const std::string& payload) {
  if (payload.size() > cfg_.max_frame_bytes) return false;
  const auto n = static_cast<std::uint32_t>(payload.size());
  const char header[4] = {static_cast<char>(n >> 24),
                          static_cast<char>(n >> 16),
                          static_cast<char>(n >> 8), static_cast<char>(n)};
  c.wbuf.append(header, sizeof(header));
  c.wbuf.append(payload);
  return true;
}

bool RpcServer::flush(Conn& c) {
  if (c.dead) return false;
  bool progress = false;
  while (!c.slots.empty() && c.slots.front().ready) {
    if (!append_frame(c, c.slots.front().bytes)) {
      // A response larger than the frame limit cannot be delivered; the
      // connection owes a frame it can never send, so drop it (the
      // blocking server did the same via its write-path throw).
      c.dead = true;
      return progress;
    }
    c.slots.pop_front();
    ++c.first_seq;
    progress = true;
  }
  while (c.wpos < c.wbuf.size()) {
    std::ptrdiff_t w;
    try {
      w = c.sock.write_some(c.wbuf.data() + c.wpos, c.wbuf.size() - c.wpos);
    } catch (const core::Error&) {
      c.dead = true;  // peer vanished mid-write
      return progress;
    }
    if (w == -1) break;  // kernel buffer full; poll for writability
    c.wpos += static_cast<std::size_t>(w);
    progress = true;
  }
  if (c.wpos == c.wbuf.size()) {
    c.wbuf.clear();
    c.wpos = 0;
  } else if (c.wpos >= kCompactThreshold && c.wpos * 2 >= c.wbuf.size()) {
    c.wbuf.erase(0, c.wpos);
    c.wpos = 0;
  }
  return progress;
}

void RpcServer::update_interest(Conn& c) {
  if (c.dead) return;
  const bool has_unwritten = c.wpos < c.wbuf.size();
  if (c.draining && c.slots.empty() && !has_unwritten) {
    c.dead = true;  // nothing owed: close now
    return;
  }
  const bool capped = read_capped(c);
  short interest = 0;
  if (!c.draining && !capped) interest |= core::net::Poller::kRead;
  if (has_unwritten) interest |= core::net::Poller::kWrite;
  if (!c.draining) {
    if (capped && !c.paused) {
      c.paused = true;
      backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
    } else if (!capped) {
      c.paused = false;
    }
  }
  poller_.set(c.sock.fd(), interest);
}

bool RpcServer::drain_completions() {
  std::vector<Completion> batch;
  {
    std::unique_lock lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& comp : batch) {
    const auto it = fd_of_.find(comp.conn_id);
    if (it == fd_of_.end()) continue;  // the connection already died
    Conn& c = conns_.at(it->second);
    // Slots pop only once ready, so an unfilled slot is still indexable
    // by its distance from the queue front.
    const std::uint64_t idx = comp.seq - c.first_seq;
    c.slots[idx].ready = true;
    c.slots[idx].bytes = std::move(comp.bytes);
    pump(c);
    update_interest(c);
  }
  return !batch.empty();
}

bool RpcServer::completions_empty() {
  std::unique_lock lock(completions_mutex_);
  return completions_.empty();
}

void RpcServer::reap_dead() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second.dead) {
      poller_.remove(it->first);
      fd_of_.erase(it->second.id);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

RpcClient::RpcClient(const std::string& host, std::uint16_t port,
                     std::size_t max_frame_bytes)
    : sock_(core::net::connect_to(host, port)),
      max_frame_bytes_(max_frame_bytes) {}

ScheduleResponse RpcClient::call(const ScheduleRequest& req) {
  return roundtrip(encode_request(req));
}

void RpcClient::send(const ScheduleRequest& req) {
  core::net::write_frame(sock_, encode_request(req), max_frame_bytes_);
}

ScheduleResponse RpcClient::recv() {
  const auto reply = core::net::read_frame(sock_, max_frame_bytes_);
  if (!reply.has_value()) {
    throw core::Error("rpc server closed the connection before replying");
  }
  return parse_response(*reply);
}

bool RpcClient::response_ready() const {
  pollfd p{};
  p.fd = sock_.fd();
  p.events = POLLIN;
  while (true) {
    const int r = ::poll(&p, 1, 0);
    if (r >= 0) return r > 0;
    if (errno != EINTR) return false;  // recv() will surface the error
  }
}

ScheduleResponse RpcClient::ping() { return roundtrip(encode_ping()); }

ScheduleResponse RpcClient::request_shutdown() {
  return roundtrip(encode_shutdown());
}

ScheduleResponse RpcClient::roundtrip(const std::string& payload) {
  core::net::write_frame(sock_, payload, max_frame_bytes_);
  return recv();
}

}  // namespace mtsched::exp
