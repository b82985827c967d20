#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/event_log.h"
#include "obs/exposition.h"
#include "obs/metrics.h"

namespace xtopk {
namespace serve {

namespace {

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

const char* HttpStatusLine(int code) {
  switch (code) {
    case 200:
      return "200 OK";
    case 400:
      return "400 Bad Request";
    case 500:
      return "500 Internal Server Error";
    case 503:
      return "503 Service Unavailable";
    case 504:
      return "504 Gateway Timeout";
  }
  return "500 Internal Server Error";
}

std::string MakeHttpJson(int code, const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += HttpStatusLine(code);
  out += "\r\nContent-Type: application/json";
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string FramedResponse(const QueryResponse& response) {
  std::string payload;
  EncodeResponse(response, &payload);
  std::string framed;
  EncodeFrame(&framed, payload);
  return framed;
}

}  // namespace

QueryServer::QueryServer(ServeBackend* backend)
    : QueryServer(backend, Options()) {}

QueryServer::QueryServer(ServeBackend* backend, Options options)
    : backend_(backend),
      options_(std::move(options)),
      service_(backend, options_.service) {}

QueryServer::~QueryServer() { Stop(); }

bool QueryServer::Start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error != nullptr) *error = "bad bind address";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) *error = "bind/listen failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  SetNonBlocking(listen_fd_);
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (error != nullptr) *error = "pipe() failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { EventLoop(); });
  obs::LogEvent("serve", "query server listening on port " +
                             std::to_string(port_));
  return true;
}

void QueryServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (wake_write_fd_ >= 0) {
    char byte = 1;
    ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
    (void)ignored;
  }
  if (thread_.joinable()) thread_.join();
  for (auto& [id, conn] : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  connections_.clear();
  XTOPK_GAUGE("server.connections").Set(0);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_read_fd_ >= 0) {
    ::close(wake_read_fd_);
    wake_read_fd_ = -1;
  }
  if (wake_write_fd_ >= 0) {
    ::close(wake_write_fd_);
    wake_write_fd_ = -1;
  }
  // After the loop is down no completion can reach a socket; the service
  // answers anything still queued with kShuttingDown into dropped
  // callbacks.
  service_.Stop();
}

void QueryServer::PostCompletion(uint64_t conn_id, std::string bytes,
                                 bool close_after) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(Completion{conn_id, std::move(bytes), close_after});
  }
  char byte = 1;
  ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
  (void)ignored;  // pipe full just means a wakeup is already pending
}

void QueryServer::DrainCompletions() {
  char scratch[64];
  while (::read(wake_read_fd_, scratch, sizeof(scratch)) > 0) {
  }
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // connection died meanwhile
    Connection* conn = &it->second;
    if (conn->in_flight > 0) --conn->in_flight;
    if (conn->dead) {
      if (conn->in_flight == 0) CloseConnection(completion.conn_id);
      continue;
    }
    if (completion.close_after) conn->close_after_write = true;
    QueueWrite(conn, std::move(completion.bytes));
    if (conn->write_buffer.empty() && conn->close_after_write &&
        conn->in_flight == 0) {
      CloseConnection(completion.conn_id);
    }
  }
}

void QueryServer::AcceptNew() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next wakeup
    if (connections_.size() >= options_.max_connections) {
      XTOPK_COUNTER("server.accept_rejected").Add(1);
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.id = id;
    auto [it, inserted] = connections_.emplace(id, std::move(conn));
    XTOPK_COUNTER("server.accepted").Add(1);
    XTOPK_GAUGE("server.connections")
        .Set(static_cast<int64_t>(connections_.size()));
#ifdef __linux__
    if (epoll_fd_ >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
#endif
    (void)it;
    (void)inserted;
  }
}

void QueryServer::CloseConnection(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  if (it->second.in_flight > 0) {
    // Responses are still owed; keep a tombstone so completions can find
    // (and skip) it, close the socket now.
    if (it->second.fd >= 0) {
      ::close(it->second.fd);
      it->second.fd = -1;
    }
    it->second.dead = true;
    return;
  }
  if (it->second.fd >= 0) ::close(it->second.fd);
  connections_.erase(it);
  XTOPK_GAUGE("server.connections")
      .Set(static_cast<int64_t>(connections_.size()));
}

void QueryServer::QueueWrite(Connection* conn, std::string bytes) {
  if (conn->fd < 0) return;
  conn->write_buffer += bytes;
  FlushWrites(conn);
  UpdateInterest(conn);
}

bool QueryServer::FlushWrites(Connection* conn) {
  while (!conn->write_buffer.empty()) {
    ssize_t n = ::send(conn->fd, conn->write_buffer.data(),
                       conn->write_buffer.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_buffer.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone
  }
  return true;
}

void QueryServer::UpdateInterest(Connection* conn) {
#ifdef __linux__
  if (epoll_fd_ < 0 || conn->fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->write_buffer.empty() ? 0 : EPOLLOUT);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
#else
  (void)conn;
#endif
}

void QueryServer::DispatchBinaryFrame(Connection* conn,
                                      const std::string& payload) {
  QueryRequest request;
  Status s = DecodeRequest(payload, &request);
  if (!s.ok()) {
    // The frame boundary held, only the payload is malformed: answer with
    // a typed error and keep the connection — the next frame decodes
    // cleanly.
    XTOPK_COUNTER("server.protocol_errors").Add(1);
    QueryResponse response;
    response.status = ResponseStatus::kBadRequest;
    response.error = s.message();
    QueueWrite(conn, FramedResponse(response));
    return;
  }
  ++conn->in_flight;
  const uint64_t conn_id = conn->id;
  service_.Submit(request, [this, conn_id](QueryResponse response) {
    PostCompletion(conn_id, FramedResponse(response), /*close_after=*/false);
  });
}

void QueryServer::DispatchHttp(Connection* conn,
                               std::string_view request_line) {
  // GET /search is ours; every other GET path is the telemetry surface.
  size_t space = request_line.find(' ');
  std::string_view method = request_line.substr(0, space);
  std::string_view rest =
      space == std::string_view::npos ? "" : request_line.substr(space + 1);
  size_t target_end = rest.find(' ');
  std::string_view target =
      target_end == std::string_view::npos ? rest : rest.substr(0, target_end);

  if (method == "GET" && target.substr(0, 7) == "/search") {
    QueryRequest request;
    Status s = ParseHttpSearchTarget(target, &request);
    if (!s.ok()) {
      XTOPK_COUNTER("server.protocol_errors").Add(1);
      QueryResponse response;
      response.status = ResponseStatus::kBadRequest;
      response.error = s.message();
      conn->close_after_write = true;
      QueueWrite(conn, MakeHttpJson(HttpStatusFor(response.status),
                                    ResponseToJson(response)));
      return;
    }
    ++conn->in_flight;
    const uint64_t conn_id = conn->id;
    service_.Submit(request, [this, conn_id](QueryResponse response) {
      PostCompletion(conn_id,
                     MakeHttpJson(HttpStatusFor(response.status),
                                  ResponseToJson(response)),
                     /*close_after=*/true);
    });
    return;
  }
  // /metrics, /vars, /slowlog, /events, /healthz — and 400/404 for the
  // rest — come from the shared exposition handler.
  conn->close_after_write = true;
  QueueWrite(conn, obs::HandleRequest(request_line));
}

bool QueryServer::HandleReadable(Connection* conn) {
  char chunk[4096];
  bool peer_closed = false;
  for (;;) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      if (conn->read_buffer.size() + static_cast<size_t>(n) >
          kMaxFrameBytes + 4096) {
        // A peer that streams unbounded bytes without ever completing a
        // frame or a request line is hostile; cut it off.
        XTOPK_COUNTER("server.protocol_errors").Add(1);
        return false;
      }
      conn->read_buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // hard error
  }

  if (conn->dialect < 0) {
    if (conn->read_buffer.size() >= 5) {
      conn->dialect = LooksLikeHttp(conn->read_buffer) ? 1 : 0;
    } else if (peer_closed) {
      return false;  // died before identifying itself
    }
  }

  if (conn->dialect == 0) {
    for (;;) {
      std::string payload;
      bool complete = false;
      Status s = ExtractFrame(&conn->read_buffer, &payload, &complete);
      if (!s.ok()) {
        // Oversized length prefix: the stream can never resynchronize.
        // Answer once, then poison the connection.
        XTOPK_COUNTER("server.protocol_errors").Add(1);
        QueryResponse response;
        response.status = ResponseStatus::kBadRequest;
        response.error = s.message();
        conn->close_after_write = true;
        QueueWrite(conn, FramedResponse(response));
        return !conn->write_buffer.empty() || conn->in_flight > 0;
      }
      if (!complete) break;
      DispatchBinaryFrame(conn, payload);
    }
  } else if (conn->dialect == 1) {
    size_t eol = conn->read_buffer.find('\n');
    if (eol != std::string::npos) {
      std::string_view line(conn->read_buffer.data(), eol);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      DispatchHttp(conn, line);
      conn->read_buffer.clear();  // one request per HTTP connection
    } else if (conn->read_buffer.size() > 8192) {
      XTOPK_COUNTER("server.protocol_errors").Add(1);
      return false;  // request line never ends
    }
  }

  if (peer_closed) {
    // Keep the connection only while responses are in flight or queued
    // bytes remain (the peer may have shut down just its send side).
    return conn->in_flight > 0 || !conn->write_buffer.empty();
  }
  return true;
}

void QueryServer::EventLoop() {
#ifdef __linux__
  if (!options_.force_poll) {
    epoll_fd_ = ::epoll_create1(0);
  }
  if (epoll_fd_ >= 0) {
    // Sentinel ids: the listen socket and wake pipe are not connections.
    constexpr uint64_t kListenId = 0;
    constexpr uint64_t kWakeId = UINT64_MAX;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.u64 = kWakeId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev);

    epoll_event events[64];
    while (running_.load(std::memory_order_acquire)) {
      int ready = ::epoll_wait(epoll_fd_, events, 64, /*timeout_ms=*/100);
      for (int i = 0; i < ready; ++i) {
        uint64_t id = events[i].data.u64;
        if (id == kListenId) {
          AcceptNew();
          continue;
        }
        if (id == kWakeId) {
          DrainCompletions();
          continue;
        }
        auto it = connections_.find(id);
        if (it == connections_.end()) continue;
        Connection* conn = &it->second;
        bool alive = true;
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
            (events[i].events & EPOLLIN) == 0) {
          alive = false;
        }
        if (alive && (events[i].events & EPOLLIN) != 0) {
          alive = HandleReadable(conn);
        }
        if (alive && (events[i].events & EPOLLOUT) != 0) {
          alive = FlushWrites(conn);
          if (alive) UpdateInterest(conn);
        }
        if (alive && conn->close_after_write && conn->write_buffer.empty() &&
            conn->in_flight == 0) {
          alive = false;
        }
        if (!alive) CloseConnection(id);
      }
    }
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return;
  }
#endif

  // poll() fallback: rebuild the fd set each iteration — the connection
  // count on this path is test-scale, simplicity wins.
  while (running_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    std::vector<uint64_t> ids;
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    ids.push_back(0);
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    ids.push_back(0);
    for (auto& [id, conn] : connections_) {
      if (conn.fd < 0) continue;
      short events = POLLIN;
      if (!conn.write_buffer.empty()) events |= POLLOUT;
      fds.push_back(pollfd{conn.fd, events, 0});
      ids.push_back(id);
    }
    int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (ready <= 0) continue;
    if ((fds[0].revents & POLLIN) != 0) AcceptNew();
    if ((fds[1].revents & POLLIN) != 0) DrainCompletions();
    for (size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      auto it = connections_.find(ids[i]);
      if (it == connections_.end()) continue;
      Connection* conn = &it->second;
      bool alive = true;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (fds[i].revents & POLLIN) == 0) {
        alive = false;
      }
      if (alive && (fds[i].revents & POLLIN) != 0) {
        alive = HandleReadable(conn);
      }
      if (alive && (fds[i].revents & POLLOUT) != 0) {
        alive = FlushWrites(conn);
      }
      if (alive && conn->close_after_write && conn->write_buffer.empty() &&
          conn->in_flight == 0) {
        alive = false;
      }
      if (!alive) CloseConnection(ids[i]);
    }
  }
}

}  // namespace serve
}  // namespace xtopk
