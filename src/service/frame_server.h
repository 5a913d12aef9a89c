#ifndef PHOCUS_SERVICE_FRAME_SERVER_H_
#define PHOCUS_SERVICE_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "service/protocol.h"
#include "service/socket.h"
#include "telemetry/metrics.h"
#include "util/json.h"

/// \file frame_server.h
/// The serving core both daemons run: phocusd (ServiceServer) and
/// phocus_coordinator (CoordinatorServer) differ only in what they do with
/// a request. FrameServer owns everything around that:
///
///  - the listener and its accept thread, one thread per connection, and
///    reaping of finished connections,
///  - the per-connection frame loop: an oversized frame is answered with
///    the typed `frame_too_large` error and the connection closed, and a
///    drain closes idle connections only between frames,
///  - the request envelope: `id`, `endpoint`, `request_id` and `params`
///    are parsed here (malformed input is answered `bad_request`) and the
///    client's `request_id` is echoed on every response,
///  - socket instrumentation: connections, bytes in/out and the response
///    write time,
///  - injected crashes: a failpoint `crash` kills one connection (flight
///    event + crash dump), never the daemon,
///  - graceful shutdown: RequestShutdown() starts the drain, Wait() returns
///    once every in-flight response is written and all threads are joined.
///    Until Wait() closes the listener, connections accepted mid-drain are
///    served like any other.

namespace phocus {
namespace service {

/// One request envelope, as parsed off the wire.
struct Request {
  std::uint64_t id = 0;
  std::string endpoint;
  std::string request_id;
  Json params;
};

/// A daemon's answer to one request.
struct Reply {
  Json response;
  /// Optional; runs after the response is written, with the write's
  /// duration in nanoseconds.
  std::function<void(std::uint64_t respond_ns)> after_write;
};

struct FrameServerOptions {
  std::string host;
  int port = 0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// The daemon's name in log lines.
  const char* name = "";
  /// Flight-recorder event names. `drain_event` (detail `requested` /
  /// `drained`) also names the delay-only failpoint on the drain path.
  const char* drain_event = "";
  const char* crash_event = "";
  /// Socket instrumentation, resolved by the daemon so each one registers
  /// its own metric names.
  telemetry::Counter* connections = nullptr;
  telemetry::Counter* bytes_in = nullptr;
  telemetry::Counter* bytes_out = nullptr;
  telemetry::Histogram* respond_ns = nullptr;
};

class FrameServer {
 public:
  /// Runs on the connection thread, once per well-formed request envelope.
  /// The response must carry the request's id; a CheckFailure escaping the
  /// handler is answered `bad_request`.
  using Handler = std::function<Reply(const Request&)>;

  FrameServer(FrameServerOptions options, Handler handler);
  /// Drains like RequestShutdown() + Wait().
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens and spawns the accept thread. Throws CheckFailure when
  /// the address is unavailable.
  void Start();
  /// The bound port (valid after Start).
  int port() const { return port_; }

  /// Begins the drain: connections stay open and every request is still
  /// answered (the handler sees draining()); Wait() closes the listener and
  /// the idle connections. Non-blocking.
  void RequestShutdown();
  /// Blocks until a shutdown was requested and has fully drained.
  void Wait();
  bool draining() const { return draining_.load(); }

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> busy{false};
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* connection);
  /// Parses the envelope, runs the handler, echoes the request id.
  Reply Process(const std::string& frame);
  void FinishShutdown();

  const FrameServerOptions options_;
  const Handler handler_;
  int port_ = 0;
  std::unique_ptr<ListenSocket> listener_;
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::once_flag shutdown_once_;
};

}  // namespace service
}  // namespace phocus

#endif  // PHOCUS_SERVICE_FRAME_SERVER_H_
