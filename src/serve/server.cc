#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "tensor/tensor.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/net.h"
#include "util/string_util.h"

namespace gmreg {
namespace {

// Request-size guard rails: a prediction row is a few KB of JSON, so these
// caps are generous while keeping a misbehaving client from ballooning the
// process.
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 8 * 1024 * 1024;
constexpr int kMaxRowsPerRequest = 1024;
// Pipelining depth: parsing pauses once this many requests of one
// connection await execution; it resumes as the handler drains them, so a
// deep pipeline is throttled, never dropped.
constexpr std::size_t kMaxPipelinedRequests = 64;
// A graceful drain force-closes connections that have not flushed after
// this long (a peer that stopped reading must not wedge shutdown).
constexpr int kDrainForceCloseMs = 5000;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string ErrorBody(const std::string& message) {
  JsonWriter w;
  w.BeginObject().Key("error").String(message).EndObject();
  return w.str();
}

int HttpStatusFor(const Status& st) {
  switch (st.code()) {
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kOutOfRange: return 429;          // load shed
    case StatusCode::kFailedPrecondition: return 503;  // no model / draining
    default: return 500;
  }
}

char AsciiLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Case-insensitive `line` starts-with `name` (header-name match).
bool HeaderIs(const std::string& line, const char* name) {
  std::size_t n = std::strlen(name);
  if (line.size() < n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (AsciiLower(line[i]) != name[i]) return false;
  }
  return true;
}

std::string TrimWhitespace(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// The response serializer: HTTP/1.1 status line, framing headers, any
/// extra headers (e.g. Retry-After), the keep-alive verdict, then the
/// JSON body.
std::string RenderResponse(int status, const std::string& body,
                           bool keep_alive,
                           const std::string& extra_headers = "") {
  return StrFormat("HTTP/1.1 %d %s\r\n"
                   "Content-Type: application/json\r\n"
                   "Content-Length: %d\r\n",
                   status, ReasonPhrase(status),
                   static_cast<int>(body.size())) +
         extra_headers +
         (keep_alive ? "Connection: keep-alive\r\n\r\n"
                     : "Connection: close\r\n\r\n") +
         body;
}

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(ModelRegistry* registry, const ModelSpec& spec,
               const ServerOptions& options)
    : registry_(registry), spec_(spec), options_(options) {
  GMREG_CHECK(registry_ != nullptr);
  GMREG_CHECK(spec_.factory != nullptr);
  GMREG_CHECK(!spec_.input_shape.empty());
  GMREG_CHECK_GE(options_.idle_timeout_ms, 1);
  GMREG_CHECK_GE(options_.max_connections, 1);
  GMREG_CHECK_GE(options_.num_handler_threads, 1);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  http_requests_ = metrics.counter("gm.serve.http_requests");
  http_errors_ = metrics.counter("gm.serve.http_errors");
  conns_accepted_ = metrics.counter("gm.serve.conns_accepted");
  conns_rejected_ = metrics.counter("gm.serve.conns_rejected");
  conns_idle_ = metrics.counter("gm.serve.conns_idle_closed");
  keepalive_reuse_ = metrics.counter("gm.serve.keepalive_reuses");
  shed_ = metrics.counter("gm.serve.shed_requests");
  open_conns_ = metrics.gauge("gm.serve.open_connections");
  ep_predict_ = {
      metrics.histogram("gm.serve.endpoint.predict.latency_seconds"),
      metrics.counter("gm.serve.endpoint.predict.slo_violations")};
  ep_healthz_ = {
      metrics.histogram("gm.serve.endpoint.healthz.latency_seconds"),
      metrics.counter("gm.serve.endpoint.healthz.slo_violations")};
  ep_metrics_ = {
      metrics.histogram("gm.serve.endpoint.metrics.latency_seconds"),
      metrics.counter("gm.serve.endpoint.metrics.slo_violations")};
  ep_other_ = {metrics.histogram("gm.serve.endpoint.other.latency_seconds"),
               metrics.counter("gm.serve.endpoint.other.slo_violations")};
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  Status listen_st = CreateListenSocket(options_.port, /*nonblocking=*/true,
                                        &listen_fd_, &port_);
  if (!listen_st.ok()) {
    listen_fd_ = -1;
    return listen_st;
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status st = Status::Internal(
        StrFormat("epoll/eventfd: %s", std::strerror(errno)));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  if (options_.quantize) {
    // Before any session binds: the registry republishes the current model
    // (if one is loaded) with publish-time int8 snapshots, and every
    // version from here on carries them.
    registry_->EnableQuantization();
  }
  sessions_.clear();
  for (int w = 0; w < options_.batcher.num_workers; ++w) {
    sessions_.push_back(std::make_unique<InferenceSession>(
        registry_, spec_.factory, options_.quantize));
  }
  batcher_ = std::make_unique<Batcher>(
      options_.batcher,
      [this](int worker, bool rebind, const Tensor& in, Tensor* out,
             BatchInfo* info) {
        InferenceSession& session =
            *sessions_[static_cast<std::size_t>(worker)];
        Status st = session.Predict(in, out, rebind);
        info->model_version = session.bound_version();
        info->model_epoch = session.bound_epoch();
        return st;
      });
  batcher_->Start();
  if (options_.reload_poll_ms > 0) {
    registry_->StartWatcher(options_.reload_poll_ms);
    watcher_started_ = true;
  }
  handlers_stop_ = false;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (int h = 0; h < options_.num_handler_threads; ++h) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  loop_thread_ = std::thread([this] { EventLoop(); });
  GMREG_LOG(Info) << "gmreg_serve: model '" << spec_.name
                  << "' listening on port " << port_ << " (epoll, keep-alive"
                  << ", idle_timeout=" << options_.idle_timeout_ms << "ms"
                  << ", max_connections=" << options_.max_connections << ")";
  return Status::Ok();
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    // A concurrent/second Stop: the first caller does the work.
    return;
  }
  if (!running_.load(std::memory_order_acquire)) return;
  // 1. Wake the event loop: it stops accepting, answers every request
  //    already parsed, flushes, and closes each connection.
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // 2. Stop the handler pool (drains any dispatch-queue stragglers whose
  //    connections the loop already closed).
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers_stop_ = true;
  }
  dispatch_cv_.notify_all();
  for (std::thread& t : handler_threads_) {
    if (t.joinable()) t.join();
  }
  handler_threads_.clear();
  // 3. Drain the batcher (answers everything already queued).
  if (batcher_ != nullptr) batcher_->Shutdown();
  if (watcher_started_) {
    registry_->StopWatcher();
    watcher_started_ = false;
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  running_.store(false, std::memory_order_release);
  GMREG_LOG(Info) << "gmreg_serve: drained and stopped";
}

int Server::open_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(conns_.size());
}

void Server::WakeLoop() {
  std::uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;  // EAGAIN just means a wake is already pending
}

// ---------------------------------------------------------------------------
// Event loop (one thread owns every socket)
// ---------------------------------------------------------------------------

void Server::EventLoop() {
  epoll_event events[64];
  bool draining = false;
  std::chrono::steady_clock::time_point drain_start{};
  for (;;) {
    int timeout_ms;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        if (!draining) {
          draining = true;
          drain_start = std::chrono::steady_clock::now();
          // Stop accepting.
          if (listen_fd_ >= 0) {
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
            ::close(listen_fd_);
            listen_fd_ = -1;
          }
          // Idle keep-alive connections close now; connections with
          // in-flight work finish first (their responses render with
          // `Connection: close`).
          std::vector<std::shared_ptr<Conn>> all;
          for (const auto& [fd, conn] : conns_) all.push_back(conn);
          for (const auto& conn : all) {
            // A complete request already in the read buffer still counts as
            // in-flight: parse it before deciding the connection is idle.
            ParsePendingLocked(conn);
            DispatchIfReadyLocked(conn);
            if (!conn->busy && conn->pending.empty() && conn->wbuf.empty()) {
              CloseConnLocked(conn);
            } else {
              conn->want_close = true;
            }
          }
        }
        if (conns_.empty()) break;
        auto forced = std::chrono::steady_clock::now() - drain_start;
        if (std::chrono::duration_cast<std::chrono::milliseconds>(forced)
                .count() > kDrainForceCloseMs) {
          std::vector<std::shared_ptr<Conn>> all;
          for (const auto& [fd, conn] : conns_) all.push_back(conn);
          for (const auto& conn : all) CloseConnLocked(conn);
          break;
        }
        timeout_ms = 50;
      } else {
        timeout_ms = EpollTimeoutMsLocked();
      }
    }
    int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      GMREG_LOG(Warning) << "gmreg_serve: epoll_wait: "
                         << std::strerror(errno);
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptNewConnectionsLocked();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnLocked(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) ReadAndParseLocked(conn);
      if (!conn->closed && (events[i].events & EPOLLOUT)) FlushLocked(conn);
    }
    // Handler completions: flush their responses, resume any paused
    // pipelines, re-dispatch connections that accumulated more requests.
    std::vector<std::shared_ptr<Conn>> done;
    done.swap(flush_list_);
    for (const std::shared_ptr<Conn>& conn : done) {
      if (conn->closed) continue;
      FlushLocked(conn);
      if (conn->closed) continue;
      ParsePendingLocked(conn);
      DispatchIfReadyLocked(conn);
    }
    SweepLocked(std::chrono::steady_clock::now());
  }
}

int Server::EpollTimeoutMsLocked() const {
  if (conns_.empty()) return -1;  // nothing to sweep; wakes come via eventfd
  // Sweep resolution: a quarter of the idle timeout keeps reaping within
  // ~25% of the configured deadline without spinning.
  return std::clamp(options_.idle_timeout_ms / 4, 10, 500);
}

void Server::AcceptNewConnectionsLocked() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      conns_rejected_->Add(1);
      // Best-effort 503 so the client learns why; the socket buffer of a
      // fresh connection always has room for these few hundred bytes.
      std::string resp =
          RenderResponse(503, ErrorBody("connection limit reached"),
                         /*keep_alive=*/false, "Retry-After: 1\r\n");
      ssize_t ignored = ::send(fd, resp.data(), resp.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      (void)ignored;
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->last_activity = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[fd] = std::move(conn);
    conns_accepted_->Add(1);
    open_conns_->Set(static_cast<double>(conns_.size()));
  }
}

void Server::ReadAndParseLocked(const std::shared_ptr<Conn>& conn) {
  char chunk[16384];
  for (;;) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->rbuf.append(chunk, static_cast<std::size_t>(n));
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n == 0) {
      // Peer closed. Responses it has not read can never be delivered.
      CloseConnLocked(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnLocked(conn);
    return;
  }
  ParsePendingLocked(conn);
  DispatchIfReadyLocked(conn);
}

void Server::ParsePendingLocked(const std::shared_ptr<Conn>& conn) {
  if (conn->want_close) return;  // a framing error already poisoned the pipe
  std::string& buf = conn->rbuf;
  // Requests are parsed at the read offset `start`; the consumed prefix is
  // dropped only once it is at least half the buffer, so a deep pipelined
  // backlog is moved O(1) times per byte instead of once per request.
  std::size_t& start = conn->rpos;
  auto reject = [&](const char* reason) {
    HttpReq bad;
    bad.bad = true;
    bad.bad_reason = reason;
    bad.parsed_at = std::chrono::steady_clock::now();
    conn->pending.push_back(std::move(bad));
    buf.clear();
    start = 0;
  };
  while (conn->pending.size() < kMaxPipelinedRequests) {
    std::size_t header_end = buf.find("\r\n\r\n", start);
    if (header_end == std::string::npos) {
      if (buf.size() - start > kMaxHeaderBytes) {
        reject("request headers exceed 64KB");
      }
      break;
    }
    // Request line: METHOD SP TARGET SP HTTP/1.x
    std::size_t line_end = buf.find("\r\n", start);
    std::string request_line = buf.substr(start, line_end - start);
    std::size_t sp1 = request_line.find(' ');
    std::size_t sp2 = sp1 == std::string::npos
                          ? std::string::npos
                          : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        request_line.compare(sp2 + 1, 7, "HTTP/1.") != 0) {
      reject("malformed HTTP request line");
      return;
    }
    bool http10 = request_line.compare(sp2 + 1, 8, "HTTP/1.0") == 0;

    // Headers: Content-Length frames the body, Connection decides
    // keep-alive (the HTTP/1.1 default) vs close.
    std::size_t content_length = 0;
    bool explicit_close = false;
    bool explicit_keepalive = false;
    std::size_t pos = line_end + 2;
    while (pos < header_end) {
      std::size_t eol = buf.find("\r\n", pos);
      std::string line = buf.substr(pos, eol - pos);
      pos = eol + 2;
      if (HeaderIs(line, "content-length:")) {
        const char* v = line.c_str() + std::strlen("content-length:");
        content_length =
            static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
      } else if (HeaderIs(line, "connection:")) {
        std::string value = TrimWhitespace(
            line.substr(std::strlen("connection:")));
        for (char& c : value) c = AsciiLower(c);
        if (value.find("close") != std::string::npos) explicit_close = true;
        if (value.find("keep-alive") != std::string::npos) {
          explicit_keepalive = true;
        }
      }
    }
    if (content_length > kMaxBodyBytes) {
      reject("request body exceeds 8MB");
      return;
    }
    std::size_t total = header_end + 4 + content_length;
    if (buf.size() < total) break;  // body still in flight

    HttpReq req;
    req.method = request_line.substr(0, sp1);
    req.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    req.body = buf.substr(header_end + 4, content_length);
    req.keep_alive = http10 ? explicit_keepalive : !explicit_close;
    req.parsed_at = std::chrono::steady_clock::now();
    conn->pending.push_back(std::move(req));
    start = total;
  }
  if (start == buf.size()) {
    buf.clear();
    start = 0;
  } else if (start >= buf.size() - start) {
    buf.erase(0, start);
    start = 0;
  }
}

void Server::DispatchIfReadyLocked(const std::shared_ptr<Conn>& conn) {
  if (conn->closed || conn->busy || conn->pending.empty()) return;
  conn->busy = true;
  dispatch_queue_.push_back(conn);
  dispatch_cv_.notify_one();
}

void Server::FlushLocked(const std::shared_ptr<Conn>& conn) {
  while (!conn->wbuf.empty()) {
    ssize_t n = ::send(conn->fd, conn->wbuf.data(), conn->wbuf.size(),
                       MSG_NOSIGNAL);
    if (n > 0) {
      conn->wbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnLocked(conn);
    return;
  }
  bool need_out = !conn->wbuf.empty();
  if (need_out != conn->epollout) {
    epoll_event ev{};
    ev.events = EPOLLIN | (need_out ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->epollout = need_out;
  }
  if (conn->wbuf.empty() && conn->want_close && !conn->busy &&
      conn->pending.empty()) {
    CloseConnLocked(conn);
  }
}

void Server::CloseConnLocked(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  conn->fd = -1;
  conn->closed = true;
  open_conns_->Set(static_cast<double>(conns_.size()));
}

void Server::SweepLocked(std::chrono::steady_clock::time_point now) {
  std::vector<std::shared_ptr<Conn>> idle;
  for (const auto& [fd, conn] : conns_) {
    if (conn->busy || !conn->pending.empty() || !conn->wbuf.empty()) continue;
    auto quiet = std::chrono::duration_cast<std::chrono::milliseconds>(
                     now - conn->last_activity)
                     .count();
    if (quiet > options_.idle_timeout_ms) idle.push_back(conn);
  }
  for (const std::shared_ptr<Conn>& conn : idle) {
    // Covers both parked keep-alive connections and slow-loris peers
    // dribbling a partial request: no bytes for idle_timeout_ms -> gone.
    conns_idle_->Add(1);
    CloseConnLocked(conn);
  }
}

// ---------------------------------------------------------------------------
// Handler pool (JSON decode -> Batcher::Predict -> response render)
// ---------------------------------------------------------------------------

void Server::HandlerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    dispatch_cv_.wait(lock, [this] {
      return handlers_stop_ || !dispatch_queue_.empty();
    });
    if (dispatch_queue_.empty()) {
      if (handlers_stop_) return;
      continue;
    }
    std::shared_ptr<Conn> conn = dispatch_queue_.front();
    dispatch_queue_.pop_front();
    // This handler owns the connection's pending queue (conn->busy) until
    // it drains, which keeps pipelined responses in request order.
    while (!conn->pending.empty() && !conn->closed) {
      HttpReq req = std::move(conn->pending.front());
      conn->pending.pop_front();
      lock.unlock();
      int http_status = 500;
      std::string extra_headers;
      std::string body;
      if (req.bad) {
        http_status = 400;
        body = ErrorBody(req.bad_reason);
        req.keep_alive = false;
      } else {
        body = Dispatch(req.method, req.target, req.body, &http_status,
                        &extra_headers);
        double seconds =
            std::chrono::duration_cast<std::chrono::duration<double>>(
                std::chrono::steady_clock::now() - req.parsed_at)
                .count();
        ObserveEndpoint(req.target, seconds);
      }
      http_requests_->Add(1);
      if (http_status >= 400) http_errors_->Add(1);
      bool keep = req.keep_alive && !req.bad &&
                  !stopping_.load(std::memory_order_acquire);
      std::string response =
          RenderResponse(http_status, body, keep, extra_headers);
      lock.lock();
      if (!conn->closed) {
        conn->wbuf += response;
        conn->served += 1;
        if (conn->served > 1) keepalive_reuse_->Add(1);
        if (!keep) conn->want_close = true;
        conn->last_activity = std::chrono::steady_clock::now();
      }
    }
    conn->busy = false;
    flush_list_.push_back(conn);
    lock.unlock();
    WakeLoop();
    lock.lock();
  }
}

void Server::ObserveEndpoint(const std::string& target, double seconds) {
  std::string path = target.substr(0, target.find('?'));
  EndpointStats* ep = &ep_other_;
  if (path == "/v1/predict") {
    ep = &ep_predict_;
  } else if (path == "/healthz") {
    ep = &ep_healthz_;
  } else if (path == "/metrics") {
    ep = &ep_metrics_;
  }
  ep->latency->Observe(seconds);
  if (seconds * 1000.0 > options_.slo_ms) ep->slo_violations->Add(1);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

std::string Server::Dispatch(const std::string& method,
                             const std::string& target,
                             const std::string& body, int* http_status,
                             std::string* extra_headers) {
  std::string path = target.substr(0, target.find('?'));
  if (path == "/healthz") {
    if (method != "GET") {
      *http_status = 405;
      return ErrorBody("use GET " + path);
    }
    return HandleHealth(http_status);
  }
  if (path == "/metrics") {
    if (method != "GET") {
      *http_status = 405;
      return ErrorBody("use GET " + path);
    }
    *http_status = 200;
    return RecordToJson(MetricsRegistry::Global().Snapshot("metrics"));
  }
  if (path == "/v1/predict") {
    if (method != "POST") {
      *http_status = 405;
      return ErrorBody("use POST " + path);
    }
    return HandlePredict(body, http_status, extra_headers);
  }
  *http_status = 404;
  return ErrorBody("no route for '" + path + "'");
}

std::string Server::HandleHealth(int* http_status) {
  std::shared_ptr<const LoadedModel> current = registry_->Current();
  JsonWriter w;
  w.BeginObject();
  if (current == nullptr) {
    *http_status = 503;
    w.Key("status").String("unavailable");
    w.Key("error").String("no model loaded yet");
  } else {
    *http_status = 200;
    w.Key("status").String("ok");
    w.Key("model").String(spec_.name);
    w.Key("model_version").Int(current->version);
    w.Key("model_epoch").Int(current->snapshot.epoch);
    w.Key("checkpoint").String(registry_->checkpoint_path());
  }
  w.EndObject();
  return w.str();
}

std::string Server::HandlePredict(const std::string& body, int* http_status,
                                  std::string* extra_headers) {
  JsonValue doc;
  Status st = JsonValue::Parse(body, &doc);
  if (!st.ok() || !doc.is_object()) {
    *http_status = 400;
    return ErrorBody("request body is not a JSON object: " +
                     (st.ok() ? std::string("wrong type") : st.ToString()));
  }
  const JsonValue* inputs = doc.Find("inputs");
  const JsonValue* single = doc.Find("input");
  std::vector<const JsonValue*> rows;
  if (inputs != nullptr && inputs->is_array()) {
    for (const JsonValue& item : inputs->items) rows.push_back(&item);
  } else if (single != nullptr && single->is_array()) {
    rows.push_back(single);
  } else {
    *http_status = 400;
    return ErrorBody(
        "expected \"inputs\": [[...], ...] or \"input\": [...]");
  }
  if (rows.empty() ||
      static_cast<int>(rows.size()) > kMaxRowsPerRequest) {
    *http_status = 400;
    return ErrorBody(StrFormat("want 1..%d input rows, got %d",
                               kMaxRowsPerRequest,
                               static_cast<int>(rows.size())));
  }

  // Validate every row and copy it into one [n, ...] tensor: the request
  // is enqueued once, so all its rows share a batch (or one worker's
  // slices) and one model version.
  std::int64_t row_size = ShapeSize(spec_.input_shape);
  std::vector<std::int64_t> shape = spec_.input_shape;
  shape.insert(shape.begin(), static_cast<std::int64_t>(rows.size()));
  Tensor input(shape);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const JsonValue& row = *rows[r];
    if (!row.is_array() ||
        static_cast<std::int64_t>(row.items.size()) != row_size) {
      *http_status = 400;
      return ErrorBody(StrFormat(
          "input row %d must be a flat array of %d numbers (model '%s')",
          static_cast<int>(r), static_cast<int>(row_size),
          spec_.name.c_str()));
    }
    float* dst = input.data() + static_cast<std::int64_t>(r) * row_size;
    for (std::int64_t i = 0; i < row_size; ++i) {
      const JsonValue& v = row.items[static_cast<std::size_t>(i)];
      if (!v.is_number()) {
        *http_status = 400;
        return ErrorBody(StrFormat("input row %d element %d is not a number",
                                   static_cast<int>(r), static_cast<int>(i)));
      }
      dst[i] = static_cast<float>(v.number);
    }
  }
  Batcher::Reply reply;
  st = batcher_->Predict(input, &reply);
  if (!st.ok()) {
    *http_status = HttpStatusFor(st);
    if (*http_status == 429) {
      // Load shed, not a drop: tell the client when the queue should
      // have drained so a well-behaved retry lands in free capacity.
      shed_->Add(1);
      *extra_headers += StrFormat("Retry-After: %d\r\n",
                                  batcher_->RetryAfterSeconds());
    }
    return ErrorBody(st.ToString());
  }

  const Tensor& out = reply.output;
  const std::int64_t classes = out.size() / out.dim(0);
  JsonWriter w;
  w.BeginObject();
  w.Key("model_version").Int(reply.model_version);
  w.Key("model_epoch").Int(reply.model_epoch);
  w.Key("outputs").BeginArray();
  for (std::int64_t r = 0; r < out.dim(0); ++r) {
    w.BeginArray();
    for (std::int64_t i = 0; i < classes; ++i) {
      w.Double(static_cast<double>(out[r * classes + i]));
    }
    w.EndArray();
  }
  w.EndArray();
  w.Key("predictions").BeginArray();
  for (std::int64_t r = 0; r < out.dim(0); ++r) {
    const float* scores = out.data() + r * classes;
    w.Int(std::max_element(scores, scores + classes) - scores);
  }
  w.EndArray();
  w.EndObject();
  *http_status = 200;
  return w.str();
}

// ---------------------------------------------------------------------------
// Loopback client (Content-Length framed; keep-alive capable)
// ---------------------------------------------------------------------------

std::string HttpClient::Serialize(const std::string& method,
                                  const std::string& target,
                                  const std::string& body, bool close_conn) {
  return method + " " + target + " HTTP/1.1\r\n" +
         "Host: 127.0.0.1\r\n"
         "Content-Type: application/json\r\n" +
         StrFormat("Content-Length: %d\r\n", static_cast<int>(body.size())) +
         (close_conn ? "Connection: close\r\n" : "") + "\r\n" + body;
}

Status HttpClient::Connect() {
  if (fd_ >= 0) return Status::Ok();
  GMREG_RETURN_IF_ERROR(ConnectLoopback(port_, &fd_));
  buf_.clear();
  return Status::Ok();
}

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

Status HttpClient::SendRaw(const std::string& bytes) {
  GMREG_RETURN_IF_ERROR(Connect());
  if (!SendAll(fd_, bytes)) {
    Close();
    return Status::Internal("send failed");
  }
  return Status::Ok();
}

Status HttpClient::ReadResponse(int* status_code, std::string* response_body,
                                std::string* response_headers) {
  GMREG_CHECK(status_code != nullptr);
  GMREG_CHECK(response_body != nullptr);
  if (fd_ < 0) return Status::Internal("not connected");
  char chunk[8192];
  std::size_t header_end;
  while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (buf_.size() > kMaxHeaderBytes) {
      Close();
      return Status::Internal("oversized response headers");
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return Status::Internal("connection closed before response headers");
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  std::size_t line_end = buf_.find("\r\n");
  std::string status_line = buf_.substr(0, line_end);
  std::size_t sp = status_line.find(' ');
  if (sp == std::string::npos) {
    Close();
    return Status::Internal("malformed HTTP status line: '" + status_line +
                            "'");
  }
  *status_code = std::atoi(status_line.c_str() + sp + 1);
  std::string headers =
      buf_.substr(line_end + 2, header_end - line_end - 2);
  if (response_headers != nullptr) *response_headers = headers;

  // Content-Length framing — never read-until-EOF, so the connection
  // survives for the next request and a peer that delays close cannot
  // stall us.
  std::size_t content_length = 0;
  std::string length_value = FindHeader(headers, "content-length");
  if (!length_value.empty()) {
    content_length = static_cast<std::size_t>(
        std::strtoull(length_value.c_str(), nullptr, 10));
  }
  std::size_t total = header_end + 4 + content_length;
  while (buf_.size() < total) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return Status::Internal("connection closed mid-body");
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  *response_body = buf_.substr(header_end + 4, content_length);
  buf_.erase(0, total);  // keep pipelined follow-ups

  std::string conn_header = FindHeader(headers, "connection");
  for (char& c : conn_header) c = AsciiLower(c);
  if (conn_header.find("close") != std::string::npos) Close();
  return Status::Ok();
}

Status HttpClient::Request(const std::string& method,
                           const std::string& target, const std::string& body,
                           int* status_code, std::string* response_body,
                           std::string* response_headers) {
  GMREG_RETURN_IF_ERROR(SendRaw(Serialize(method, target, body)));
  return ReadResponse(status_code, response_body, response_headers);
}

std::string FindHeader(const std::string& headers, const std::string& name) {
  std::size_t pos = 0;
  std::string prefix = name + ":";
  for (char& c : prefix) c = AsciiLower(c);
  while (pos < headers.size()) {
    std::size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) eol = headers.size();
    std::string line = headers.substr(pos, eol - pos);
    if (HeaderIs(line, prefix.c_str())) {
      return TrimWhitespace(line.substr(prefix.size()));
    }
    pos = eol + 2;
  }
  return "";
}

Status HttpRequest(int port, const std::string& method,
                   const std::string& target, const std::string& body,
                   int* status_code, std::string* response_body) {
  GMREG_CHECK(status_code != nullptr);
  GMREG_CHECK(response_body != nullptr);
  HttpClient client(port);
  GMREG_RETURN_IF_ERROR(
      client.SendRaw(HttpClient::Serialize(method, target, body,
                                           /*close_conn=*/true)));
  return client.ReadResponse(status_code, response_body);
}

}  // namespace gmreg
