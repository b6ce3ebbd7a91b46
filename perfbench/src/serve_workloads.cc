// The serving workloads: gmreg's HTTP server (src/serve) runs in this
// process and one generator thread loads it over 4 keep-alive connections.
//
// A run sets the server up several times (weights, checkpoint, registry,
// server, connections, warm-up requests), then sends Poisson arrivals at
// one fixed rate, open loop and pipelined: each request is timed from when
// it was due, so a stall is charged to every request it delays. The rest
// of the run measures capacity closed loop: each connection sends its next
// request when the previous answer arrives. Server-side numbers are
// changes in GET /metrics readings across the fixed-rate level.
//
// Output checks: every response must be a 200 whose predictions are the
// argmax of its outputs, whose model_version never decreases on its
// connection and was published, and every 64th response must match an
// in-process Layer::Predict on the weights of the version that served it.

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "io/checkpoint.h"
#include "serve/server.h"
#include "util/json_writer.h"
#include "util/net.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gmreg {
namespace perfbench {
namespace {

struct ServeWorkload {
  const char* name;
  const char* model;  ///< ModelSpec grammar
  int rows;           ///< rows per request
  int max_delay_ms;   ///< batcher delay; the rest are gmreg_serve defaults
  double rate;        ///< the fixed open-loop rate, requests/s
  /// Tail percentile: the highest with >= 10 samples beyond it at `rate`.
  double tail_quantile;
  bool swap;  ///< a writer publishes perturbed weights every second
  int warmup_requests;
  /// Capacity window, in answered requests: about 0.2 s at capacity.
  int capacity_window;
};

constexpr ServeWorkload kWorkloads[] = {
    {"serve-mlp-rows1", "mlp:64:128:8", 1, 0, 10000.0, 0.99, false, 2048,
     8192},
    {"serve-alex-rows8-swap", "alex:16", 8, 2, 64.0, 0.90, true, 32, 32},
};

/// The load generator's connections (the machine's core count).
constexpr int kConnections = 4;
constexpr int kBodies = 64;  ///< distinct request bodies per run
constexpr int kBodyOrder = 4096;
constexpr int kVerifyEvery = 64;
constexpr std::int64_t kDrainNs = 5'000'000'000;
constexpr std::int64_t kLateNs = 1'000'000;  ///< generator lateness limit
constexpr int kSetupReps = 7;
/// Share of --seconds at the fixed rate; capacity gets the rest.
constexpr double kFixedRateShare = 0.6;
/// Requests each connection keeps in flight while capacity is measured, so
/// the server, not the client's round trip, sets the rate.
constexpr int kCapacityDepth = 4;
constexpr double kSwapPeriodS = 1.0;
constexpr double kVerifyTolerance = 1e-4;

const ServeWorkload* FindWorkload(const std::string& name) {
  for (const ServeWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Model versions: seeded weights, published as checkpoints.
// ---------------------------------------------------------------------------

/// The weights of every version the benchmark published, keyed by the
/// checkpoint epoch it stamped them with (responses echo it).
class ModelVersions {
 public:
  ModelVersions(const ModelSpec& spec, std::uint64_t seed, std::string path)
      : seed_(seed), path_(std::move(path)) {
    std::unique_ptr<Layer> net = spec.factory();
    std::vector<ParamRef> params;
    net->CollectParams(&params);
    Rng rng(seed_);
    for (const ParamRef& p : params) {
      names_.push_back(p.name);
      Tensor t = *p.value;
      for (std::int64_t i = 0; i < t.size(); ++i) {
        t[i] += static_cast<float>(rng.NextGaussian(0.0, 0.02));
      }
      base_.push_back(std::move(t));
    }
  }

  /// Writes version `epoch` (0 = the base weights; later ones perturb them)
  /// to the served checkpoint path.
  Status Publish(int epoch, std::int64_t* bytes) {
    std::vector<Tensor> weights = base_;
    if (epoch > 0) {
      Rng rng(seed_ * 1000003u + static_cast<std::uint64_t>(epoch));
      for (Tensor& t : weights) {
        for (std::int64_t i = 0; i < t.size(); ++i) {
          t[i] += static_cast<float>(rng.NextGaussian(0.0, 0.01));
        }
      }
    }
    TrainingCheckpoint ckpt;
    ckpt.epoch = epoch;
    ckpt.iteration = epoch;
    ckpt.learning_rate = 0.01;
    ckpt.param_names = names_;
    for (const Tensor& t : weights) ckpt.velocity.push_back(Tensor(t.shape()));
    ckpt.params = weights;
    {
      // Stored first: a response may name this epoch as soon as it is on
      // disk.
      std::lock_guard<std::mutex> lock(mu_);
      weights_[epoch] = std::move(weights);
    }
    Status st = SaveCheckpoint(ckpt, path_);
    struct stat info {};
    *bytes = ::stat(path_.c_str(), &info) == 0 ? info.st_size : 0;
    return st;
  }

  /// Weights of `epoch`, or nullptr when it was never published. Stable:
  /// entries are never removed.
  const std::vector<Tensor>* Find(int epoch) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = weights_.find(epoch);
    return it == weights_.end() ? nullptr : &it->second;
  }

  /// Published epochs at or after `epoch`, oldest first.
  std::vector<int> EpochsFrom(int epoch) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int> out;
    for (auto it = weights_.lower_bound(epoch); it != weights_.end(); ++it) {
      out.push_back(it->first);
    }
    return out;
  }

 private:
  const std::uint64_t seed_;
  const std::string path_;
  std::vector<std::string> names_;
  std::vector<Tensor> base_;
  mutable std::mutex mu_;
  std::map<int, std::vector<Tensor>> weights_;
};

/// Publishes a new version every kSwapPeriodS until stopped, timing each
/// SaveCheckpoint.
class SwapWriter {
 public:
  SwapWriter(ModelVersions* versions, int first_epoch)
      : versions_(versions), next_epoch_(first_epoch) {}
  ~SwapWriter() { Stop(); }

  SwapWriter(const SwapWriter&) = delete;
  SwapWriter& operator=(const SwapWriter&) = delete;

  void Start() {
    stop_ = false;
    thread_ = std::thread([this] { Loop(); });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// After Stop(): the io.checkpoint_save spans.
  const std::vector<Span>& saves() const { return saves_; }
  std::int64_t bytes() const { return bytes_; }
  int failures() const { return failures_; }

 private:
  void Loop() {
    using Clock = std::chrono::steady_clock;
    auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kSwapPeriodS));
    auto next = Clock::now() + period;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_until(lock, next, [this] { return stop_; })) return;
      lock.unlock();
      std::int64_t start = NowNs();
      std::int64_t bytes = 0;
      Status st = versions_->Publish(next_epoch_, &bytes);
      saves_.push_back({"io.checkpoint_save", start, NowNs(), -1, next_epoch_});
      bytes_ += bytes;
      if (!st.ok()) ++failures_;
      ++next_epoch_;
      next += period;
      lock.lock();
    }
  }

  ModelVersions* versions_;
  int next_epoch_;
  std::vector<Span> saves_;
  std::int64_t bytes_ = 0;
  int failures_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: joined before the members it uses die
};

// ---------------------------------------------------------------------------
// Requests and response checks.
// ---------------------------------------------------------------------------

struct Body {
  std::string request;       ///< the serialized HTTP request
  std::vector<float> input;  ///< rows x row_size, as the server parses it
};

std::vector<Body> MakeBodies(const ServeWorkload& w, const ModelSpec& spec,
                             std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedb0d1u);
  std::int64_t row_size = 1;
  for (std::int64_t d : spec.input_shape) row_size *= d;
  std::vector<Body> bodies(kBodies);
  char num[32];
  for (Body& b : bodies) {
    std::string json = w.rows == 1 ? "{\"input\":" : "{\"inputs\":[";
    for (int r = 0; r < w.rows; ++r) {
      if (r > 0) json += ',';
      json += '[';
      for (std::int64_t i = 0; i < row_size; ++i) {
        std::snprintf(num, sizeof(num), "%.4f", rng.NextGaussian());
        if (i > 0) json += ',';
        json += num;
        b.input.push_back(static_cast<float>(std::strtod(num, nullptr)));
      }
      json += ']';
    }
    json += w.rows == 1 ? "}" : "]}";
    b.request = "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(json.size()) + "\r\n\r\n" + json;
  }
  return bodies;
}

/// A response kept for the reference comparison.
struct Sampled {
  std::int64_t seq = 0;
  int body = 0;
  int epoch = 0;
  std::vector<std::vector<double>> outputs;
};

/// Checks each response as it arrives; keeps every kVerifyEvery-th for the
/// reference comparison after the run.
class ResponseChecker {
 public:
  ResponseChecker(const ServeWorkload& w, const ModelRegistry* registry,
                  const ModelVersions* versions)
      : rows_(w.rows), registry_(registry), versions_(versions),
        last_version_(kConnections, 0) {}

  /// True when `body` of a 200 response passes every check.
  bool Check(std::int64_t seq, int body_index, int conn,
             const std::string& body) {
    JsonValue doc;
    if (!JsonValue::Parse(body, &doc).ok() || !doc.is_object()) {
      return Wrong("response is not a JSON object");
    }
    const JsonValue* version = doc.Find("model_version");
    const JsonValue* epoch = doc.Find("model_epoch");
    const JsonValue* outputs = doc.Find("outputs");
    const JsonValue* predictions = doc.Find("predictions");
    if (version == nullptr || !version->is_number() || epoch == nullptr ||
        !epoch->is_number() || outputs == nullptr || !outputs->is_array() ||
        predictions == nullptr || !predictions->is_array()) {
      return Wrong("response lacks a field");
    }
    if (static_cast<int>(outputs->items.size()) != rows_ ||
        static_cast<int>(predictions->items.size()) != rows_) {
      return Wrong("response has the wrong number of rows");
    }
    auto v = static_cast<std::int64_t>(version->number);
    auto e = static_cast<int>(epoch->number);
    std::int64_t& last = last_version_[static_cast<std::size_t>(conn)];
    if (v < last) return Wrong("model_version decreased on a connection");
    last = v;
    if (v < 1 || v > registry_->version()) {
      return Wrong("model_version was never published");
    }
    auto [it, inserted] = epoch_of_version_.emplace(v, e);
    if (!inserted && it->second != e) {
      return Wrong("one model_version reported two epochs");
    }
    if (versions_->Find(e) == nullptr) {
      return Wrong("model_epoch was never published");
    }
    const bool keep = seq % kVerifyEvery == 0;
    Sampled sample{seq, body_index, e, {}};
    for (int r = 0; r < rows_; ++r) {
      const JsonValue& row = outputs->items[static_cast<std::size_t>(r)];
      const JsonValue& pred = predictions->items[static_cast<std::size_t>(r)];
      if (!row.is_array() || row.items.empty() || !pred.is_number()) {
        return Wrong("malformed output row");
      }
      std::size_t best = 0;
      for (std::size_t i = 0; i < row.items.size(); ++i) {
        if (!row.items[i].is_number()) return Wrong("non-numeric output");
        if (row.items[i].number > row.items[best].number) best = i;
      }
      if (pred.number != static_cast<double>(best)) {
        return Wrong("prediction is not the argmax of the outputs");
      }
      if (keep) {
        sample.outputs.emplace_back();
        for (const JsonValue& v : row.items) {
          sample.outputs.back().push_back(v.number);
        }
      }
    }
    if (keep) sampled_.push_back(std::move(sample));
    return true;
  }

  std::int64_t wrong() const { return wrong_; }
  const std::string& first_reason() const { return first_reason_; }
  const std::vector<Sampled>& sampled() const { return sampled_; }

 private:
  bool Wrong(const char* why) {
    if (wrong_++ == 0) first_reason_ = why;
    return false;
  }

  const int rows_;
  const ModelRegistry* registry_;
  const ModelVersions* versions_;
  std::vector<std::int64_t> last_version_;
  std::map<std::int64_t, int> epoch_of_version_;
  std::vector<Sampled> sampled_;
  std::int64_t wrong_ = 0;
  std::string first_reason_;
};

// ---------------------------------------------------------------------------
// Load generator.
// ---------------------------------------------------------------------------

/// GET /metrics on a fresh connection; false on any failure.
bool GetMetrics(int port, JsonValue* doc) {
  int fd = -1;
  if (!ConnectLoopback(port, &fd).ok()) return false;
  bool sent = SendAll(fd,
                      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      "Connection: close\r\n\r\n");
  std::string in;
  char chunk[65536];
  for (ssize_t n; sent && (n = ::recv(fd, chunk, sizeof(chunk), 0)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    in.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  std::size_t header_end = in.find("\r\n\r\n");
  if (in.rfind("HTTP/1.1 200", 0) != 0 || header_end == std::string::npos) {
    return false;
  }
  return JsonValue::Parse(in.substr(header_end + 4), doc).ok();
}

double Field(const JsonValue& doc, const std::string& key) {
  const JsonValue* v = doc.Find(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

/// One request as the generator saw it.
struct Sample {
  std::int64_t seq = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = false;  ///< a 200 that passed the response checks
};

struct Phase {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< when the last request was issued
  std::int64_t issued = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;  ///< non-200, no answer, or a failed check
  /// Open loop only, so the closed loop's memory does not grow with the
  /// server's speed: every finished request, in completion order.
  bool open_loop = false;
  std::vector<Sample> samples;
  /// Closed loop only: when every `window`-th passed request finished.
  int window = 0;
  std::vector<std::int64_t> window_ends;
};

/// One thread, kConnections non-blocking keep-alive connections.
class LoadGen {
 public:
  LoadGen(int port, const std::vector<Body>* bodies,
          const std::vector<int>* order, ResponseChecker* checker)
      : port_(port), bodies_(bodies), order_(order), checker_(checker) {}
  ~LoadGen() {
    for (Conn& c : conns_) CloseConn(&c, nullptr);
  }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool Connect() {
    for (Conn& c : conns_) {
      if (!ConnectLoopback(port_, &c.fd).ok()) return false;
      int flags = ::fcntl(c.fd, F_GETFL);
      ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
    }
    return true;
  }

  /// Open loop: request i is due at due[i], on connection i % kConnections.
  Phase RunOpen(const std::vector<std::int64_t>& due) {
    return Run(&due, 0, 0, 0);
  }

  /// Closed loop: each connection keeps `depth` requests in flight, sending
  /// the next when an answer arrives, until `end_ns` or `max_requests` have
  /// been sent. Marks the end of every `window` passed requests (0: none).
  Phase RunClosed(std::int64_t end_ns, std::int64_t max_requests, int depth,
                  int window) {
    depth_ = depth;
    return Run(nullptr, end_ns, max_requests, window);
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_sent = 0;
    std::string in;
    std::deque<Sample> inflight;
  };

  Phase Run(const std::vector<std::int64_t>* due, std::int64_t end_ns,
            std::int64_t max_requests, int window) {
    Phase phase;
    phase.start_ns = NowNs();
    phase.open_loop = due != nullptr;
    phase.window = window;
    if (phase.open_loop) phase.samples.reserve(due->size());
    std::size_t next = 0;
    bool issuing = true;
    std::int64_t drain_deadline = 0;
    for (;;) {
      std::int64_t now = NowNs();
      if (issuing) {
        if (due != nullptr) {
          while (next < due->size() && (*due)[next] <= now) {
            Issue(static_cast<int>(next % kConnections), (*due)[next], now,
                  &phase);
            ++next;
          }
          issuing = next < due->size();
        } else {
          for (int c = 0; c < kConnections && issuing; ++c) {
            while (conns_[c].fd >= 0 &&
                   static_cast<int>(conns_[c].inflight.size()) < depth_) {
              if (now >= end_ns || phase.issued >= max_requests) {
                issuing = false;
                break;
              }
              Issue(c, now, now, &phase);
            }
          }
        }
        if (!issuing) {
          phase.end_ns = now;
          drain_deadline = now + kDrainNs;
        }
      }
      std::size_t outstanding = 0;
      pollfd fds[kConnections];
      for (int c = 0; c < kConnections; ++c) {
        Conn& conn = conns_[c];
        Flush(&conn, &phase);
        outstanding += conn.inflight.size();
        fds[c].fd = conn.fd;
        fds[c].events = static_cast<short>(
            POLLIN | (conn.out_sent < conn.out.size() ? POLLOUT : 0));
        fds[c].revents = 0;
      }
      if (!issuing && outstanding == 0) break;
      if (!issuing && now >= drain_deadline) {
        // Undrained requests fail; their connections are out of step.
        for (Conn& conn : conns_) CloseConn(&conn, &phase);
        break;
      }
      std::int64_t wake = !issuing           ? drain_deadline
                          : due != nullptr   ? (*due)[next]
                                             : end_ns;
      std::int64_t wait_ns = std::max<std::int64_t>(0, wake - NowNs());
      timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                       static_cast<long>(wait_ns % 1'000'000'000)};
      int n = ::ppoll(fds, kConnections, &timeout, nullptr);
      if (n <= 0) continue;
      for (int c = 0; c < kConnections; ++c) {
        if (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) {
          Read(&conns_[c], c, &phase);
        }
      }
    }
    return phase;
  }

  void Issue(int c, std::int64_t due_ns, std::int64_t now, Phase* phase) {
    Sample s;
    s.seq = seq_++;
    s.due_ns = due_ns;
    s.sent_ns = now;
    ++phase->issued;
    Conn& conn = conns_[c];
    if (conn.fd < 0) {  // a dead connection: the request fails
      Finish(s, phase);
      return;
    }
    conn.out += (*bodies_)[static_cast<std::size_t>(BodyOf(s.seq))].request;
    conn.inflight.push_back(s);
  }

  static void Finish(const Sample& s, Phase* phase) {
    if (phase == nullptr) return;
    if (s.ok) {
      ++phase->ok;
      if (phase->window > 0 && phase->ok % phase->window == 0) {
        phase->window_ends.push_back(s.done_ns);
      }
    } else {
      ++phase->failed;
    }
    if (phase->open_loop) phase->samples.push_back(s);
  }

  int BodyOf(std::int64_t seq) const {
    return (*order_)[static_cast<std::size_t>(seq) % order_->size()];
  }

  void Flush(Conn* conn, Phase* phase) {
    while (conn->fd >= 0 && conn->out_sent < conn->out.size()) {
      ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_sent,
                         conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        CloseConn(conn, phase);
        return;
      }
    }
    conn->out.clear();
    conn->out_sent = 0;
  }

  void Read(Conn* conn, int c, Phase* phase) {
    char chunk[65536];
    for (;;) {
      ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn->in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConn(conn, phase);  // peer closed or failed
      return;
    }
    std::size_t pos = 0;
    for (;;) {
      std::size_t header_end = conn->in.find("\r\n\r\n", pos);
      if (header_end == std::string::npos) break;
      std::size_t cl = conn->in.find("Content-Length: ", pos);
      if (cl == std::string::npos || cl > header_end ||
          conn->inflight.empty()) {
        CloseConn(conn, phase);
        return;
      }
      std::size_t length = std::strtoull(conn->in.c_str() + cl + 16,
                                         nullptr, 10);
      std::size_t total = header_end + 4 + length;
      if (conn->in.size() < total) break;
      Sample s = conn->inflight.front();
      conn->inflight.pop_front();
      s.done_ns = NowNs();
      if (std::atoi(conn->in.c_str() + pos + 9) == 200) {
        s.ok = checker_->Check(s.seq, BodyOf(s.seq), c,
                               conn->in.substr(header_end + 4, length));
      }
      Finish(s, phase);
      bool close = conn->in.find("Connection: close", pos) < header_end;
      pos = total;
      if (close) {
        CloseConn(conn, phase);
        return;
      }
    }
    conn->in.erase(0, pos);
  }

  /// Closes the connection; its in-flight requests fail.
  void CloseConn(Conn* conn, Phase* phase) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
    for (const Sample& s : conn->inflight) Finish(s, phase);
    conn->inflight.clear();
    conn->out.clear();
    conn->out_sent = 0;
    conn->in.clear();
  }

  const int port_;
  const std::vector<Body>* bodies_;
  const std::vector<int>* order_;
  ResponseChecker* checker_;
  Conn conns_[kConnections];
  std::int64_t seq_ = 0;
  int depth_ = 1;
};

// ---------------------------------------------------------------------------
// One server set-up.
// ---------------------------------------------------------------------------

/// Weights and checkpoint, registry, server, connections and warm-up: what
/// setup_s times.
class ServeRig {
 public:
  ServeRig(const ServeWorkload& w, const ModelSpec& spec, std::uint64_t seed,
           const std::string& path, const std::vector<Body>* bodies,
           const std::vector<int>* order)
      : versions_(spec, seed, path), registry_(path) {
    std::int64_t bytes = 0;
    if (!versions_.Publish(0, &bytes).ok()) return;
    if (!registry_.Reload().ok()) return;
    ServerOptions options;
    options.port = 0;
    options.batcher.max_batch_size = 8;
    options.batcher.max_delay_ms = w.max_delay_ms;
    options.batcher.num_workers = 2;
    options.reload_poll_ms = 500;
    options.num_handler_threads = 8;
    server_ = std::make_unique<Server>(&registry_, spec, options);
    if (!server_->Start().ok()) return;
    checker_ = std::make_unique<ResponseChecker>(w, &registry_, &versions_);
    gen_ = std::make_unique<LoadGen>(server_->port(), bodies, order,
                                     checker_.get());
    if (!gen_->Connect()) return;
    Phase warm = gen_->RunClosed(NowNs() + kDrainNs, w.warmup_requests,
                                 /*depth=*/1, /*window=*/0);
    ready_ = warm.failed == 0 && warm.ok == w.warmup_requests;
  }

  ~ServeRig() {
    gen_.reset();  // clients first, then the server drains
    if (server_ != nullptr) server_->Stop();
  }

  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  bool ready() const { return ready_; }
  int port() const { return server_->port(); }
  LoadGen& gen() { return *gen_; }
  ModelVersions& versions() { return versions_; }
  const ResponseChecker& checker() const { return *checker_; }

 private:
  ModelVersions versions_;
  ModelRegistry registry_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<ResponseChecker> checker_;
  std::unique_ptr<LoadGen> gen_;
  bool ready_ = false;
};

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

std::vector<std::int64_t> PoissonSchedule(std::uint64_t seed, double rate,
                                          double seconds,
                                          std::int64_t start_ns) {
  Rng rng(seed ^ 0xa771a1u);
  std::vector<std::int64_t> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) return due;
    due.push_back(start_ns + static_cast<std::int64_t>(t * 1e9));
  }
}

struct Level {
  double p50_ms = 0, tail_ms = 0;
  double rtt_ms = 0;      ///< mean, from the actual send
  double late_share = 0;  ///< sent more than kLateNs after due
  double lag_p99_ms = 0;
  std::int64_t failed = 0;
};

Level Summarize(const Phase& phase, double tail_quantile) {
  Level level;
  std::vector<double> latency, rtt, lag;
  std::int64_t late = 0;
  level.failed = phase.failed;
  for (const Sample& s : phase.samples) {
    if (!s.ok) continue;
    latency.push_back(NsToMs(s.done_ns - s.due_ns));
    rtt.push_back(NsToMs(s.done_ns - s.sent_ns));
    lag.push_back(NsToMs(s.sent_ns - s.due_ns));
    if (s.sent_ns - s.due_ns > kLateNs) ++late;
  }
  level.p50_ms = Median(latency);
  level.tail_ms = Quantile(latency, tail_quantile);
  level.rtt_ms = Mean(rtt);
  level.lag_p99_ms = Quantile(lag, 0.99);
  level.late_share = phase.samples.empty()
                         ? 0.0
                         : static_cast<double>(late) /
                               static_cast<double>(phase.samples.size());
  return level;
}

/// Per-layer metrics from the /metrics readings around a fixed-rate level.
void ReportServerLayers(const JsonValue& before, const JsonValue& after,
                        const Level& level, Report* report) {
  auto delta = [&](const std::string& key) {
    return Field(after, key) - Field(before, key);
  };
  auto mean = [&](const std::string& hist) {
    double n = delta(hist + ".count");
    return n > 0 ? delta(hist + ".sum") / n : 0.0;
  };
  double requests = delta("gm.serve.endpoint.predict.latency_seconds.count");
  double endpoint_ms = 1e3 * mean("gm.serve.endpoint.predict.latency_seconds");
  double rows = delta("gm.serve.request_latency_seconds.count");
  double rows_per_request = requests > 0 ? rows / requests : 0.0;
  double row_ms = 1e3 * mean("gm.serve.request_latency_seconds");
  double predict_ms = 1e3 * mean("gm.serve.batch_predict_seconds");
  double batcher_ms = rows_per_request * row_ms;
  double model_ms = rows_per_request * predict_ms;
  report->Layer("serve.transport_share",
                (level.rtt_ms - endpoint_ms) / level.rtt_ms);
  report->Layer("serve.handler_share",
                (endpoint_ms - batcher_ms) / level.rtt_ms);
  report->Layer("serve.queue_wait_share",
                (batcher_ms - model_ms) / level.rtt_ms);
  report->Layer("serve.model_share", model_ms / level.rtt_ms);
  report->Layer("serve.batch_size_mean", mean("gm.serve.batch_size"));
  report->Layer("serve.reloads", delta("gm.serve.reloads"));
  report->Layer("serve.rebinds", delta("gm.serve.rebinds"));
  report->Layer("serve.shed", delta("gm.serve.shed_requests"));
  report->Layer("serve.errors", delta("gm.serve.http_errors") +
                                    static_cast<double>(level.failed));
  report->Layer("serve.gen_late_share", level.late_share);
  report->Layer("nn.forward_ms", predict_ms);
  double predict_s = delta("gm.serve.batch_predict_seconds.sum");
  report->Layer("tensor.gemm_gflops",
                predict_s > 0 ? delta("gm.kernel.gemm_flops") / predict_s / 1e9
                              : 0.0);
  report->Layer("util.arena_plan_rebuilds", delta("gm.arena.plan_rebuilds"));
  report->Layer("util.arena_steady_allocs",
                delta("gm.arena.steady_state_allocs"));
  report->Detail("serve.transport_ms", level.rtt_ms - endpoint_ms, "ms");
  report->Detail("serve.endpoint_ms", endpoint_ms, "ms");
  report->Detail("serve.queue_wait_ms", batcher_ms - model_ms, "ms");
  report->Detail("serve.model_ms", model_ms, "ms");
}

/// Compares the kept responses with an in-process Layer::Predict on the
/// weights that served them. A multi-row request enqueues its rows one by
/// one, so a hot swap can answer later rows with a newer version: a row
/// may match any version published at or after the one reported.
std::int64_t VerifySampled(const ServeWorkload& w, const ModelSpec& spec,
                           const std::vector<Body>& bodies,
                           const ResponseChecker& checker,
                           const ModelVersions& versions,
                           std::int64_t* mixed) {
  std::unique_ptr<Layer> net = spec.factory();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  std::vector<std::int64_t> shape = spec.input_shape;
  shape.insert(shape.begin(), w.rows);
  std::int64_t mismatches = 0;
  int bound = -1;
  std::map<int, Tensor> refs;  // epoch -> outputs of the current body
  for (const Sampled& s : checker.sampled()) {
    refs.clear();
    Tensor in(shape);
    std::copy(bodies[static_cast<std::size_t>(s.body)].input.begin(),
              bodies[static_cast<std::size_t>(s.body)].input.end(), in.data());
    bool used_newer = false;
    for (int r = 0; r < w.rows; ++r) {
      bool matched = false;
      for (int epoch : versions.EpochsFrom(s.epoch)) {
        if (refs.count(epoch) == 0) {
          if (bound != epoch) {
            const std::vector<Tensor>& weights = *versions.Find(epoch);
            for (std::size_t i = 0; i < params.size(); ++i) {
              *params[i].value = weights[i];
            }
            bound = epoch;
          }
          net->Predict(in, &refs[epoch]);
        }
        const Tensor& ref = refs[epoch];
        const std::vector<double>& got = s.outputs[static_cast<std::size_t>(r)];
        std::int64_t classes = ref.dim(1);
        bool same = static_cast<std::int64_t>(got.size()) == classes;
        for (std::int64_t i = 0; same && i < classes; ++i) {
          double want = ref[r * classes + i];
          same = std::fabs(got[static_cast<std::size_t>(i)] - want) <=
                 kVerifyTolerance * std::max(1.0, std::fabs(want));
        }
        if (same) {
          matched = true;
          used_newer = used_newer || epoch != s.epoch;
          break;
        }
      }
      if (!matched) ++mismatches;
    }
    if (used_newer) ++*mixed;
  }
  return mismatches;
}

}  // namespace

void RunServeWorkload(const RunOptions& options, Report* report) {
  const ServeWorkload* w = FindWorkload(options.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    std::exit(2);
  }
  SetDefaultNumThreads(1);
  // Wake the generator within microseconds of each due time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  ModelSpec spec;
  if (!ParseModelSpec(w->model, &spec).ok()) {
    report->Fail(std::string("bad model spec ") + w->model);
    return;
  }
  const std::string path = options.workdir + "/" + w->name + ".gmckpt";
  std::vector<Body> bodies = MakeBodies(*w, spec, options.seed);
  std::vector<int> order(kBodyOrder);
  {
    Rng rng(options.seed ^ 0x0bdeu);
    for (int& b : order) b = static_cast<int>(rng.NextBounded(kBodies));
  }

  // Set-up is timed kSetupReps times; the repetitions after the first run
  // once everything is measured, because buffers planned in the arena
  // outlive their sessions.
  std::vector<double> setup_s;
  auto set_up = [&] {
    std::int64_t start = NowNs();
    auto rig = std::make_unique<ServeRig>(*w, spec, options.seed, path,
                                          &bodies, &order);
    setup_s.push_back(NsToS(NowNs() - start));
    if (!rig->ready()) {
      report->Fail("server set-up or warm-up failed");
      ++report->attempted;
      ++report->failed;
    }
    return rig;
  };
  std::unique_ptr<ServeRig> rig = set_up();
  if (!rig->ready()) return;

  SwapWriter writer(&rig->versions(), 1);
  if (w->swap) writer.Start();
  auto fixed_rate_level = [&](std::uint64_t salt) {
    std::vector<std::int64_t> due =
        PoissonSchedule(options.seed + salt, w->rate,
                        kFixedRateShare * options.seconds, NowNs() + 1'000'000);
    Phase phase = rig->gen().RunOpen(due);
    report->attempted += phase.issued;
    report->failed += phase.failed;
    return phase;
  };

  Level untraced = Summarize(fixed_rate_level(0), w->tail_quantile);
  report->Layer("p50_ms", untraced.p50_ms);
  report->Layer("tail_ms", untraced.tail_ms);
  report->Detail("fixed_rate", w->rate, "req/s");
  // Memory while serving at the fixed rate; the capacity phase's deeper
  // pipelines are not the operating point.
  report->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  report->Detail("gen_lag_p99_ms", untraced.lag_p99_ms, "ms");

  if (!options.trace) {
    Phase capacity = rig->gen().RunClosed(
        NowNs() + static_cast<std::int64_t>(
                      (1.0 - kFixedRateShare) * options.seconds * 1e9),
        std::int64_t{1} << 40, kCapacityDepth, w->capacity_window);
    report->attempted += capacity.issued;
    report->failed += capacity.failed;
    // Capacity is the rate of the fastest windows (their 90th percentile):
    // windows slowed by other tenants of the machine would otherwise set
    // the run-to-run spread. Windows ending after the last send are the
    // pipeline draining.
    std::vector<double> rates;
    std::int64_t begin = capacity.start_ns;
    for (std::int64_t end : capacity.window_ends) {
      if (end > capacity.end_ns) break;
      rates.push_back(static_cast<double>(w->capacity_window * w->rows) /
                      NsToS(end - begin));
      begin = end;
    }
    report->end_to_end["examples_per_s"] = {Quantile(rates, 0.9), "1/s"};
  } else {
    JsonValue before, after;
    bool read = GetMetrics(rig->port(), &before);
    Phase phase = fixed_rate_level(1);
    read = GetMetrics(rig->port(), &after) && read;
    if (!read) report->Fail("GET /metrics failed");
    Level traced = Summarize(phase, w->tail_quantile);
    ReportServerLayers(before, after, traced, report);
    report->Layer("trace_overhead_pct",
                  100.0 * (traced.p50_ms - untraced.p50_ms) / untraced.p50_ms);
    SpanLog log(phase.samples.size() + 64);
    for (const Sample& s : phase.samples) {
      log.Add("client.request", s.due_ns, s.done_ns, -1, s.seq);
    }
    writer.Stop();
    for (const Span& s : writer.saves()) {
      log.Add(s.name, s.start_ns, s.end_ns, -1, s.id);
    }
    if (!log.AppendJsonl(options.trace_file, options.workload)) {
      report->Fail("cannot write " + options.trace_file);
    }
  }
  writer.Stop();

  double save_s = 0.0;
  for (const Span& s : writer.saves()) save_s += NsToS(s.end_ns - s.start_ns);
  if (options.trace && save_s > 0) {
    report->Layer("io.checkpoint_mb_per_s",
                  static_cast<double>(writer.bytes()) / 1e6 / save_s);
  }
  report->Detail("swaps", static_cast<double>(writer.saves().size()), "count");
  if (writer.failures() > 0) report->Fail("a checkpoint save failed");

  const ResponseChecker& checker = rig->checker();
  if (checker.wrong() > 0) {
    report->Fail(std::to_string(checker.wrong()) +
                 " responses failed a check, first: " +
                 checker.first_reason());
  }
  std::int64_t mixed = 0;
  std::int64_t mismatches =
      VerifySampled(*w, spec, bodies, checker, rig->versions(), &mixed);
  report->Detail("verified_responses",
                 static_cast<double>(checker.sampled().size()), "count");
  report->Detail("mixed_version_responses", static_cast<double>(mixed),
                 "count");
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " sampled rows differ from Layer::Predict");
  }
  rig.reset();
  while (static_cast<int>(setup_s.size()) < kSetupReps) set_up();
  report->end_to_end["setup_s"] = {Median(setup_s), "s"};
  std::remove(path.c_str());
  std::remove(PreviousCheckpointPath(path).c_str());
}

}  // namespace perfbench
}  // namespace gmreg
