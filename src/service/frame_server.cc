#include "service/frame_server.h"

#include <chrono>
#include <utility>

#include "telemetry/flight_recorder.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace phocus {
namespace service {

FrameServer::FrameServer(FrameServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

FrameServer::~FrameServer() {
  RequestShutdown();
  Wait();
}

void FrameServer::Start() {
  PHOCUS_CHECK(!started_.load(), "Start called twice");
  listener_ = std::make_unique<ListenSocket>(options_.host, options_.port);
  port_ = listener_->port();
  started_.store(true);
  accept_thread_ = std::thread(&FrameServer::AcceptLoop, this);
}

void FrameServer::RequestShutdown() {
  if (!draining_.exchange(true)) {
    telemetry::FlightRecorder::Record(options_.drain_event, "requested");
    draining_.notify_all();
  }
}

void FrameServer::Wait() {
  draining_.wait(false);
  if (started_.load()) {
    std::call_once(shutdown_once_, [this] { FinishShutdown(); });
  }
}

void FrameServer::FinishShutdown() {
  // Delay-only: widens the drain window so tests can race requests
  // against shutdown without an exception skipping the join logic below.
  PHOCUS_FAILPOINT_DELAY_ONLY(options_.drain_event);
  if (listener_ != nullptr) listener_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain: connections running a request keep their sockets until the
  // response is written; idle ones are unblocked immediately.
  while (true) {
    bool all_done = true;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      for (const auto& connection : connections_) {
        if (connection->done.load()) continue;
        all_done = false;
        if (!connection->busy.load()) connection->socket.ShutdownBoth();
      }
    }
    if (all_done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  connections_.clear();
  telemetry::FlightRecorder::Record(options_.drain_event, "drained");
  PHOCUS_LOG(kInfo) << options_.name << " drained and stopped";
}

void FrameServer::AcceptLoop() {
  while (true) {
    Socket socket = listener_->Accept();
    if (!socket.valid()) break;  // listener shut down
    if (draining_.load()) continue;  // drop: the socket closes on scope exit
    options_.connections->Increment();
    std::lock_guard<std::mutex> lock(connections_mutex_);
    // Reap connections whose threads already finished.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load()) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    connections_.push_back(std::make_unique<Connection>());
    Connection* connection = connections_.back().get();
    connection->socket = std::move(socket);
    connection->thread =
        std::thread(&FrameServer::ServeConnection, this, connection);
  }
}

void FrameServer::ServeConnection(Connection* connection) {
  FrameDecoder decoder(options_.max_frame_bytes);
  std::string chunk;
  try {
    while (true) {
      std::string frame;
      const FrameDecoder::Status status = decoder.Next(&frame);
      if (status == FrameDecoder::Status::kTooLarge) {
        const std::string encoded = EncodeFrame(MakeErrorResponse(
            0, ErrorCode::kFrameTooLarge,
            StrFormat("frame exceeds %zu bytes", decoder.max_frame_bytes())));
        connection->socket.SendAll(encoded);
        options_.bytes_out->Add(encoded.size());
        break;
      }
      if (status == FrameDecoder::Status::kNeedMore) {
        // Drain closes the connection only here, between requests: frames
        // already buffered still get answers (a pipelined healthz observes
        // the "draining" status deterministically), but we never block for
        // new bytes once shutdown has begun.
        if (draining_.load()) break;
        chunk.clear();
        if (!connection->socket.RecvSome(&chunk)) break;  // clean EOF
        options_.bytes_in->Add(chunk.size());
        decoder.Append(chunk);
        continue;
      }
      connection->busy.store(true);
      const Reply reply = Process(frame);
      const std::string encoded = EncodeFrame(reply.response);
      const Stopwatch respond_timer;
      connection->socket.SendAll(encoded);
      const std::uint64_t respond_ns = respond_timer.ElapsedNanos();
      options_.bytes_out->Add(encoded.size());
      options_.respond_ns->Record(static_cast<double>(respond_ns));
      if (reply.after_write) reply.after_write(respond_ns);
      connection->busy.store(false);
    }
  } catch (const failpoint::InjectedCrash& crash) {
    // A crash failpoint simulates this serving thread dying mid-request.
    // Play the part: write the automatic flight dump exactly as the
    // std::terminate hook would, then drop the connection with no response
    // (the peer sees a dead server). This is the only place outside a
    // scenario harness allowed to stop an InjectedCrash from propagating —
    // letting it escape the connection thread would std::terminate the
    // whole daemon for a fault that tests inject deliberately.
    telemetry::FlightRecorder::Record(options_.crash_event);
    telemetry::FlightRecorder::WriteCrashDump();
    PHOCUS_LOG(kError) << options_.name
                       << ": injected crash on connection thread: "
                       << crash.what();
  } catch (const CheckFailure&) {
    // Peer vanished mid-read or mid-write; nothing left to answer.
  }
  // Half-close so the peer sees EOF now; the Connection (and its fd) is
  // reaped by the accept loop or at shutdown.
  connection->socket.ShutdownBoth();
  connection->busy.store(false);
  connection->done.store(true);
}

Reply FrameServer::Process(const std::string& frame) {
  Request request;
  Reply reply;
  try {
    const Json envelope = Json::Parse(frame);
    request.id = static_cast<std::uint64_t>(envelope.GetOr("id", 0).AsInt());
    request.endpoint = envelope.Get("endpoint").AsString();
    request.request_id = envelope.GetOr("request_id", "").AsString();
    request.params = envelope.GetOr("params", Json::Object());
    reply = handler_(request);
  } catch (const failpoint::InjectedCrash&) {
    throw;  // simulated process death; ServeConnection plays it out
  } catch (const CheckFailure& failure) {
    // Unparseable frames have no id to echo; a malformed envelope echoes
    // whatever id it carried.
    reply.response =
        MakeErrorResponse(request.id, ErrorCode::kBadRequest, failure.what());
  }
  // Echo the client's request id on every response shape (ok, rejection,
  // typed error) so client-side logs correlate with server-side spans.
  if (!request.request_id.empty()) {
    reply.response.Set("request_id", request.request_id);
  }
  return reply;
}

}  // namespace service
}  // namespace phocus
