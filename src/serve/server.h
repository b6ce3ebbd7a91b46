#ifndef GMREG_SERVE_SERVER_H_
#define GMREG_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/inference_session.h"
#include "serve/model_registry.h"
#include "util/status.h"

namespace gmreg {

/// Configuration of one serving endpoint.
struct ServerOptions {
  /// TCP port to listen on; 0 asks the kernel for an ephemeral port (the
  /// tests do this) — read the result back from Server::port().
  int port = 8080;
  /// Micro-batching knobs; num_workers also sets the number of
  /// InferenceSession replicas.
  BatcherOptions batcher;
  /// When > 0, the registry's checkpoint watcher is started with this poll
  /// interval, so re-training hot-swaps the model without a restart.
  int reload_poll_ms = 0;
  /// Keep-alive connections with no in-flight work and no bytes received
  /// for this long are closed (also the slow-loris guard: a connection
  /// that dribbles a partial request and then stalls is reaped).
  int idle_timeout_ms = 10000;
  /// Hard cap on concurrently open client connections. Connections past
  /// the cap are answered 503 + Connection: close immediately
  /// (gm.serve.conns_rejected).
  int max_connections = 1024;
  /// Threads executing parsed requests (JSON decode -> Batcher::Predict ->
  /// response render). This bounds the requests concurrently in flight
  /// toward the batcher, so keep it >= the number of requests a full
  /// micro-batch holds (max_batch_size / rows per request).
  int num_handler_threads = 8;
  /// Per-request latency objective: requests slower than this (parse
  /// complete -> response rendered) increment the per-endpoint
  /// gm.serve.endpoint.<name>.slo_violations counter.
  double slo_ms = 250.0;
  /// Serve with int8 per-row-scale quantized weights: Start() turns on
  /// publish-time quantization in the registry and binds every inference
  /// session to the quantized snapshots (docs/KERNELS.md documents the
  /// divergence bound vs float32; gm.serve.quantized_requests counts
  /// examples answered through the path).
  bool quantize = false;
};

/// HTTP/1.1 JSON prediction server — the serving front door of
/// docs/SERVING.md:
///
///   POST /v1/predict   {"inputs": [[...], ...]} or {"input": [...]}
///                      -> {"model_version":V,"model_epoch":E,
///                          "outputs":[[scores...],...],
///                          "predictions":[argmax,...]}
///   GET  /healthz      {"status":"ok",...} (503 before the first load)
///   GET  /metrics      one MetricsRegistry snapshot as a JSON object
///
/// Transport: one epoll event-loop thread owns every socket — accept,
/// non-blocking reads into per-connection buffers, incremental HTTP/1.1
/// parsing (keep-alive and pipelined requests), response writes, idle
/// timeouts, and the max-connection cap. Parsed requests are executed in
/// order per connection by a small handler pool (num_handler_threads).
/// A handler validates all of a request's rows, copies them into one
/// [n, ...] tensor and blocks in a single Batcher::Predict, so concurrent
/// requests coalesce into micro-batches while each request is answered by
/// one model version; responses are handed back to the loop through a
/// wakeup eventfd.
///
/// Admission control: when the batcher queue is saturated the request is
/// shed with 429 + a Retry-After header estimated from the queue's drain
/// rate — the connection stays open, nothing is dropped on the floor.
///
/// Stop() is a graceful drain: stop accepting, answer everything already
/// parsed, flush, close. gmreg_serve wires SIGTERM/SIGINT to it.
class Server {
 public:
  /// `registry` is not owned and must outlive the server. `spec` supplies
  /// the per-worker model factory and the input shape requests are
  /// validated against.
  Server(ModelRegistry* registry, const ModelSpec& spec,
         const ServerOptions& options);
  ~Server();  ///< implies Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop, the handler pool, and the
  /// batcher workers (and the registry watcher when reload_poll_ms > 0).
  /// InvalidArgument / Internal on socket failures (e.g. the port is
  /// taken).
  Status Start();

  /// Graceful shutdown; safe to call from a signal-driven path and
  /// idempotent. In-flight requests are answered (with
  /// `Connection: close`), idle keep-alive connections are closed, then
  /// the batcher drains.
  void Stop();

  /// The bound port (resolves port 0); -1 before Start().
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Currently open client connections (tests poll this).
  int open_connections() const;

 private:
  /// One parsed HTTP request, or a framing error carried in order so the
  /// 400 response does not overtake earlier pipelined replies.
  struct HttpReq {
    std::string method;
    std::string target;
    std::string body;
    bool keep_alive = true;
    bool bad = false;        ///< framing/size violation -> 400 + close
    std::string bad_reason;  ///< error body for bad requests
    std::chrono::steady_clock::time_point parsed_at;
  };

  /// Per-connection state. All fields are guarded by mu_; the event-loop
  /// thread is the only one touching the fd, handlers only append to
  /// wbuf/pending bookkeeping.
  struct Conn {
    int fd = -1;
    std::string rbuf;             ///< inbound bytes; parsed up to rpos
    std::size_t rpos = 0;         ///< offset of the first unparsed byte
    std::string wbuf;             ///< rendered responses awaiting send
    std::deque<HttpReq> pending;  ///< parsed requests not yet executed
    bool busy = false;        ///< a handler owns this connection's pending
    bool want_close = false;  ///< close once wbuf drains and pending empty
    bool closed = false;      ///< fd already closed; late output is dropped
    bool epollout = false;    ///< EPOLLOUT currently armed
    std::int64_t served = 0;  ///< requests answered on this connection
    std::chrono::steady_clock::time_point last_activity;
  };

  void EventLoop();
  void HandlerLoop();

  // All helpers below run on the event-loop thread with mu_ held (the
  // sockets are non-blocking, so syscalls under the lock are brief).
  void AcceptNewConnectionsLocked();
  void ReadAndParseLocked(const std::shared_ptr<Conn>& conn);
  void ParsePendingLocked(const std::shared_ptr<Conn>& conn);
  void FlushLocked(const std::shared_ptr<Conn>& conn);
  void DispatchIfReadyLocked(const std::shared_ptr<Conn>& conn);
  void CloseConnLocked(const std::shared_ptr<Conn>& conn);
  void SweepLocked(std::chrono::steady_clock::time_point now);
  int EpollTimeoutMsLocked() const;

  void WakeLoop();  ///< eventfd write; callable from any thread

  /// Routes one parsed request; returns the response body, sets
  /// `*http_status`, and may append extra response headers (e.g.
  /// `Retry-After` on 429) to `*extra_headers`.
  std::string Dispatch(const std::string& method, const std::string& target,
                       const std::string& body, int* http_status,
                       std::string* extra_headers);
  std::string HandlePredict(const std::string& body, int* http_status,
                            std::string* extra_headers);
  std::string HandleHealth(int* http_status);

  /// Per-endpoint latency + SLO accounting (gm.serve.endpoint.*).
  void ObserveEndpoint(const std::string& target, double seconds);

  ModelRegistry* registry_;
  ModelSpec spec_;
  ServerOptions options_;

  std::unique_ptr<Batcher> batcher_;
  std::vector<std::unique_ptr<InferenceSession>> sessions_;  // one per worker

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = -1;
  std::thread loop_thread_;
  std::vector<std::thread> handler_threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  bool watcher_started_ = false;

  mutable std::mutex mu_;
  std::map<int, std::shared_ptr<Conn>> conns_;  ///< fd -> state
  std::deque<std::shared_ptr<Conn>> dispatch_queue_;
  std::vector<std::shared_ptr<Conn>> flush_list_;  ///< handler -> loop
  std::condition_variable dispatch_cv_;
  bool handlers_stop_ = false;

  Counter* http_requests_;    ///< gm.serve.http_requests
  Counter* http_errors_;      ///< gm.serve.http_errors (status >= 400)
  Counter* conns_accepted_;   ///< gm.serve.conns_accepted
  Counter* conns_rejected_;   ///< gm.serve.conns_rejected (over the cap)
  Counter* conns_idle_;       ///< gm.serve.conns_idle_closed
  Counter* keepalive_reuse_;  ///< gm.serve.keepalive_reuses
  Counter* shed_;             ///< gm.serve.shed_requests (429 + Retry-After)
  Gauge* open_conns_;         ///< gm.serve.open_connections

  struct EndpointStats {
    Histogram* latency;       ///< gm.serve.endpoint.<name>.latency_seconds
    Counter* slo_violations;  ///< gm.serve.endpoint.<name>.slo_violations
  };
  EndpointStats ep_predict_;
  EndpointStats ep_healthz_;
  EndpointStats ep_metrics_;
  EndpointStats ep_other_;
};

/// Minimal loopback HTTP/1.1 client for tests, benches and CI smoke
/// checks. Responses are framed by Content-Length (never read-until-EOF),
/// so one connection carries many requests (keep-alive) and survives peers
/// that delay close. Not thread-safe; one client per thread.
class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Close(); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1:port; no-op when already connected.
  Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// One request/response round trip on the persistent connection
  /// (connecting first if needed). `response_headers`, when non-null,
  /// receives the raw header block (status line excluded).
  Status Request(const std::string& method, const std::string& target,
                 const std::string& body, int* status_code,
                 std::string* response_body,
                 std::string* response_headers = nullptr);

  /// Low-level halves of Request, exposed so tests can pipeline: write
  /// several serialized requests back-to-back, then read the responses in
  /// order.
  Status SendRaw(const std::string& bytes);
  Status ReadResponse(int* status_code, std::string* response_body,
                      std::string* response_headers = nullptr);

  /// Serializes one HTTP/1.1 request (keep-alive unless `close_conn`).
  static std::string Serialize(const std::string& method,
                               const std::string& target,
                               const std::string& body,
                               bool close_conn = false);

 private:
  int port_;
  int fd_ = -1;
  std::string buf_;  ///< bytes read past the previous response
};

/// Case-insensitive lookup of `name` in a raw header block as returned by
/// HttpClient::Request; empty string when absent.
std::string FindHeader(const std::string& headers, const std::string& name);

/// One-shot convenience wrapper (connect, `Connection: close` request,
/// parse, disconnect): sends one `method target` request with `body` to
/// 127.0.0.1:port, parses the status line into `*status_code` and the
/// payload into `*response_body`. Internal on connect/IO failures.
Status HttpRequest(int port, const std::string& method,
                   const std::string& target, const std::string& body,
                   int* status_code, std::string* response_body);

}  // namespace gmreg

#endif  // GMREG_SERVE_SERVER_H_
