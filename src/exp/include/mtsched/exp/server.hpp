// The mtsched rpc server: accepts loopback connections, decodes
// mtsched.rpc.v1 frames (see rpc.hpp) and serves them through an
// exp::Service.
//
// One event-loop thread (the caller of serve()) multiplexes every
// connection over a core::net::Poller — no per-connection threads. A
// connection may pipeline any number of requests; schedule requests are
// dispatched to the service's worker pool and each connection gets
// exactly one response frame per request, in request order (a
// per-connection slot queue holds responses that finish out of order
// until everything before them has been written). Wire format and
// semantics are unchanged from the thread-per-connection server:
// responses are byte-identical to a local Session::run.
//
// Backpressure: a connection that has too many responses in flight, or
// whose peer reads too slowly to drain its write buffer, stops being
// *read* (its requests wait in the kernel socket buffer, which
// eventually pushes back on the client through TCP) until it catches
// up. One slow or greedy client therefore cannot queue unbounded server
// memory nor starve the admission slots of other connections.
//
// Protocol errors are answered in-band where possible: an undecodable
// payload gets a BadRequest response on the same connection (the frame
// boundary is still intact); an oversized or truncated *frame* gets a
// best-effort BadRequest and the connection dropped (the byte stream
// can no longer be trusted) — without poisoning other connections.
// Admission-control rejections come back as Overloaded responses — the
// connection stays usable for retries.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mtsched/core/net.hpp"
#include "mtsched/core/poller.hpp"
#include "mtsched/exp/service.hpp"

namespace mtsched::exp {

struct RpcServerConfig {
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see port())
  std::size_t max_frame_bytes = core::net::kDefaultMaxFrameBytes;

  /// Most responses one connection may have owed (pipelined requests
  /// admitted but not yet written back) before the server stops reading
  /// from it.
  std::size_t max_conn_inflight = 64;

  /// Most unwritten response bytes buffered for one connection before
  /// the server stops reading from it (a slow reader pipelining large
  /// responses cannot grow server memory without bound).
  std::size_t max_write_buffer_bytes = 4u << 20;
};

/// Cumulative server statistics (monotone counters, readable live).
struct RpcServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;         ///< decoded schedule/ping/shutdown
  std::uint64_t rejected = 0;         ///< Overloaded responses sent
  std::uint64_t protocol_errors = 0;  ///< undecodable frames or payloads
  /// Times a connection was paused for reading because it hit
  /// max_conn_inflight or max_write_buffer_bytes.
  std::uint64_t backpressure_pauses = 0;
  /// Both hold the count of schedule requests served, each its own batch
  /// of one; kept while perfbench derives service.mean_batch from them.
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
};

class RpcServer {
 public:
  /// Binds immediately (so port() is valid before serve()); `service`
  /// must outlive the server. Throws core::Error when binding fails.
  explicit RpcServer(Service& service, RpcServerConfig cfg = {});

  /// Requires serve() to have returned (stop it with shutdown() and
  /// join the serving thread first); waits out any service callbacks
  /// still delivering into the completion queue.
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// The event loop: accepts, reads, dispatches and writes until
  /// shutdown() (from another thread or via a shutdown rpc), then
  /// drains the responses it still owes and returns. Call from exactly
  /// one thread.
  void serve();

  /// Asks the event loop to stop: no new connections, no new requests;
  /// responses already owed are still delivered, idle connections are
  /// closed. Idempotent, callable from any thread (including service
  /// workers and the loop itself).
  void shutdown();

  bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

  RpcServerStats stats() const;

  /// Currently open connections (0 again after clients disconnect — the
  /// loop releases a connection's resources as soon as it dies).
  std::size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  /// One owed response. Allocated (not ready) when a frame is parsed,
  /// filled in request order or out of it, written strictly in order.
  struct Slot {
    bool ready = false;
    std::string bytes;  ///< encoded response payload (unframed)
  };

  /// Per-connection state. `slots` front has sequence `first_seq`;
  /// `next_seq` numbers the next parsed frame. `rbuf`/`wbuf` carry
  /// consumed prefixes (`rpos`/`wpos`) compacted lazily.
  struct Conn {
    core::net::Socket sock;
    std::uint64_t id = 0;
    std::string rbuf;
    std::size_t rpos = 0;
    std::string wbuf;
    std::size_t wpos = 0;
    std::deque<Slot> slots;
    std::uint64_t first_seq = 0;
    std::uint64_t next_seq = 0;
    bool paused = false;    ///< read interest dropped by backpressure
    bool draining = false;  ///< no more reads; close once nothing is owed
    bool dead = false;      ///< reaped at the top of the loop
  };

  /// A finished schedule response travelling from a service worker to
  /// the event loop. Keyed by connection id (not fd — fds are recycled)
  /// and slot sequence.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string bytes;
  };

  void accept_new();
  void on_readable(Conn& c);
  void on_eof(Conn& c);
  /// Parse + flush until quiescent (a freed slot may unpause parsing,
  /// a parsed ping may free a slot, ...).
  void pump(Conn& c);
  bool parse_frames(Conn& c);
  void handle_frame(Conn& c, const std::string& payload);
  bool flush(Conn& c);
  bool append_frame(Conn& c, const std::string& payload);
  Slot& new_slot(Conn& c);
  void push_error_slot(Conn& c, const std::string& message);
  bool read_capped(const Conn& c) const;
  void update_interest(Conn& c);
  bool drain_completions();
  bool completions_empty();
  void reap_dead();
  void teardown(bool listening);

  Service& service_;
  const RpcServerConfig cfg_;
  core::net::Listener listener_;
  core::net::Poller poller_;
  std::atomic<bool> stopping_{false};

  /// Loop-thread state (no lock: only serve() touches these).
  std::unordered_map<int, Conn> conns_;               // by fd
  std::unordered_map<std::uint64_t, int> fd_of_;      // conn id -> fd
  std::uint64_t next_conn_id_ = 1;

  /// Worker -> loop handoff.
  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  /// Schedule requests handed to the service whose done-callback has
  /// not finished yet; the loop exits (and the destructor returns) only
  /// at zero, so callbacks never touch a dead server.
  std::atomic<std::size_t> dispatched_{0};

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::size_t> open_connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> served_{0};  ///< schedule responses delivered
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> backpressure_pauses_{0};
};

/// Minimal blocking client for the rpc protocol — used by `mtsched_cli
/// request`, the loopback tests and the throughput bench. One
/// connection; either one request in flight at a time (call/ping) or
/// explicitly pipelined with send()/recv(). Not thread-safe (use one
/// client per thread).
class RpcClient {
 public:
  /// Connects immediately. Throws core::Error when the connection fails.
  RpcClient(const std::string& host, std::uint16_t port,
            std::size_t max_frame_bytes = core::net::kDefaultMaxFrameBytes);

  /// One schedule round trip. Request-level problems come back as
  /// response status codes; only transport failures throw.
  ScheduleResponse call(const ScheduleRequest& req);

  /// Pipelining: fire one schedule request without waiting. Pair every
  /// send() with a later recv(); responses come back in send order.
  void send(const ScheduleRequest& req);

  /// Blocks for the next in-order response. Throws core::Error when the
  /// server closes before delivering one.
  ScheduleResponse recv();

  /// True when response bytes are already waiting in the socket buffer,
  /// without blocking. Lets a pipelining caller drain what the server
  /// has delivered before blocking in the next send() — sitting on
  /// unread responses feeds the server's write backpressure, which
  /// eventually parks reads on this connection.
  bool response_ready() const;

  /// Liveness probe (Ok/"pong" on a healthy server).
  ScheduleResponse ping();

  /// Asks the server to stop accepting; returns its acknowledgement.
  ScheduleResponse request_shutdown();

 private:
  ScheduleResponse roundtrip(const std::string& payload);

  core::net::Socket sock_;
  std::size_t max_frame_bytes_;
};

}  // namespace mtsched::exp
