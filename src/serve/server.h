#ifndef XTOPK_SERVE_SERVER_H_
#define XTOPK_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/query_service.h"

namespace xtopk {
namespace serve {

/// The network front of the query service: one event-loop thread
/// multiplexing every connection (epoll on Linux, poll everywhere else),
/// nonblocking sockets, and a QueryService behind it doing admission,
/// shedding, deadlines, and execution on its worker pool.
///
/// Two dialects share the port, distinguished by the first bytes of each
/// connection:
///  - binary frames (protocol.h): persistent connections, many requests
///    in flight, responses ordered by completion and correlated by
///    request_id;
///  - HTTP/1.0 ("GET ..."): one request per connection. GET /search runs
///    a query and returns JSON; every other GET path is delegated to
///    obs::HandleRequest, so /metrics, /vars, /slowlog, /events and
///    /healthz are served here, the one telemetry port.
///
/// Worker completions marshal back to the event loop through a completion
/// queue and a self-pipe wakeup; connections are addressed by a
/// generation id, so a completion for a connection that died in the
/// meantime is dropped, never written to a reused fd.
class QueryServer {
 public:
  struct Options {
    /// 0 picks an ephemeral port (tests); read it back with port().
    uint16_t port = 0;
    std::string bind_address = "127.0.0.1";
    /// Use poll() even where epoll is available — exercised by tests so
    /// the fallback path stays correct on Linux CI.
    bool force_poll = false;
    /// Accepted connections above this are closed immediately (fd
    /// exhaustion guard).
    size_t max_connections = 256;
    QueryServiceOptions service;
  };

  /// `backend` must outlive the server.
  explicit QueryServer(ServeBackend* backend);
  QueryServer(ServeBackend* backend, Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, starts the service workers and the event loop.
  /// False (reason in *error if given) when the bind fails.
  bool Start(std::string* error = nullptr);
  /// Stops the event loop, closes every connection, stops the service
  /// (queued queries answer kShuttingDown). Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }
  QueryService& service() { return service_; }

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::string read_buffer;
    std::string write_buffer;
    /// -1 unknown (no bytes yet), 0 binary, 1 http.
    int dialect = -1;
    /// Responses still owed by the service; the connection lingers in a
    /// half-closed state until they drain.
    size_t in_flight = 0;
    /// Close once the write buffer drains (protocol poison, HTTP
    /// one-shot).
    bool close_after_write = false;
    /// The peer vanished; drop service completions on the floor.
    bool dead = false;
  };

  void EventLoop();
  void AcceptNew();
  /// Reads whatever is available; decodes and dispatches complete
  /// binary frames / HTTP requests. Returns false when the connection
  /// must be torn down.
  bool HandleReadable(Connection* conn);
  bool FlushWrites(Connection* conn);
  void DispatchBinaryFrame(Connection* conn, const std::string& payload);
  void DispatchHttp(Connection* conn, std::string_view request_line);
  /// Queues `bytes` on the connection's write buffer (event-loop thread
  /// only).
  void QueueWrite(Connection* conn, std::string bytes);
  /// epoll path: re-registers the connection's read/write interest after
  /// its write buffer changed state. No-op on the poll path, which
  /// rebuilds its fd set every iteration.
  void UpdateInterest(Connection* conn);
  void CloseConnection(uint64_t id);
  /// Thread-safe: called from service workers; wakes the event loop.
  void PostCompletion(uint64_t conn_id, std::string bytes,
                      bool close_after);
  void DrainCompletions();

  ServeBackend* backend_;  // not owned
  Options options_;
  QueryService service_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int epoll_fd_ = -1;  ///< -1 on the poll path
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;

  /// Event-loop-owned state (no lock: only that thread touches it).
  std::map<uint64_t, Connection> connections_;
  uint64_t next_conn_id_ = 1;

  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;
    bool close_after = false;
  };
  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

}  // namespace serve
}  // namespace xtopk

#endif  // XTOPK_SERVE_SERVER_H_
