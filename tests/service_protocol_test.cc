#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coordinator/coordinator.h"
#include "datagen/openimages.h"
#include "phocus/system.h"
#include "service/client.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "util/json.h"
#include "util/logging.h"

namespace phocus {
namespace service {
namespace {

// ---------------------------------------------------------- framing -----

TEST(FramingTest, RoundTripsASingleFrame) {
  const std::string payload = R"({"id":1,"endpoint":"ping"})";
  FrameDecoder decoder;
  decoder.Append(EncodeFrame(std::string_view(payload)));
  std::string frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame, payload);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore);
}

TEST(FramingTest, RoundTripsAnEmptyPayload) {
  FrameDecoder decoder;
  decoder.Append(EncodeFrame(std::string_view("")));
  std::string frame = "sentinel";
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame, "");
}

TEST(FramingTest, HeaderIsBigEndian) {
  const std::string frame = EncodeFrame(std::string_view("abc"));
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
  EXPECT_EQ(frame[0], '\0');
  EXPECT_EQ(frame[1], '\0');
  EXPECT_EQ(frame[2], '\0');
  EXPECT_EQ(frame[3], '\x03');
  EXPECT_EQ(frame.substr(4), "abc");
}

TEST(FramingTest, ExtractsSeveralFramesFromOneAppend) {
  FrameDecoder decoder;
  std::string stream;
  const std::vector<std::string> payloads = {"alpha", "", "gamma gamma"};
  for (const std::string& payload : payloads) {
    stream += EncodeFrame(std::string_view(payload));
  }
  decoder.Append(stream);
  std::string frame;
  for (const std::string& payload : payloads) {
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
    EXPECT_EQ(frame, payload);
  }
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FramingTest, ToleratesByteByByteDelivery) {
  const std::string payload = R"({"id":42,"endpoint":"stats","params":{}})";
  const std::string wire = EncodeFrame(std::string_view(payload));
  FrameDecoder decoder;
  std::string frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Append(std::string_view(&wire[i], 1));
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore)
        << "after byte " << i;
  }
  decoder.Append(std::string_view(&wire[wire.size() - 1], 1));
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame, payload);
}

TEST(FramingTest, TruncatedFrameKeepsWaiting) {
  const std::string wire = EncodeFrame(std::string_view("0123456789"));
  FrameDecoder decoder;
  decoder.Append(std::string_view(wire).substr(0, wire.size() - 3));
  std::string frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore);
  // The tail completes it.
  decoder.Append(std::string_view(wire).substr(wire.size() - 3));
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame, "0123456789");
}

TEST(FramingTest, OversizedDeclaredLengthIsRejectedNotBuffered) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  // Header declaring a 17-byte payload: one past the cap.
  decoder.Append(std::string_view("\x00\x00\x00\x11", 4));
  std::string frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kTooLarge);
  // The decoder stays in kTooLarge; the caller is expected to close.
  decoder.Append("more bytes");
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kTooLarge);
}

TEST(FramingTest, FrameAtExactCapIsAccepted) {
  FrameDecoder decoder(/*max_frame_bytes=*/8);
  decoder.Append(EncodeFrame(std::string_view("12345678")));
  std::string frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame, "12345678");
}

// ------------------------------------------------------- error codes -----

TEST(ErrorCodeTest, NamesRoundTrip) {
  const ErrorCode all[] = {
      ErrorCode::kBadRequest,      ErrorCode::kUnknownEndpoint,
      ErrorCode::kUnknownSession,  ErrorCode::kInfeasible,
      ErrorCode::kOverloaded,      ErrorCode::kDeadlineExceeded,
      ErrorCode::kShuttingDown,    ErrorCode::kFrameTooLarge,
      ErrorCode::kInternal};
  for (ErrorCode code : all) {
    EXPECT_EQ(ErrorCodeFromName(ErrorCodeName(code)), code);
  }
}

TEST(ErrorCodeTest, UnknownNamesMapToInternal) {
  EXPECT_EQ(ErrorCodeFromName("totally_new_code"), ErrorCode::kInternal);
  EXPECT_EQ(ErrorCodeFromName(""), ErrorCode::kInternal);
}

TEST(ErrorCodeTest, ServiceErrorCarriesCodeAndMessage) {
  const ServiceError error(ErrorCode::kOverloaded, "queue full");
  EXPECT_EQ(error.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(std::string(error.what()), "overloaded: queue full");
}

// ---------------------------------------------------------- messages -----

TEST(MessageTest, RequestShape) {
  Json params = Json::Object();
  params.Set("session", "s-1");
  const Json request = MakeRequest(9, "plan", std::move(params));
  EXPECT_EQ(request.Get("id").AsInt(), 9);
  EXPECT_EQ(request.Get("endpoint").AsString(), "plan");
  EXPECT_EQ(request.Get("params").Get("session").AsString(), "s-1");
}

TEST(MessageTest, ResponseShapes) {
  Json result = Json::Object();
  result.Set("pong", true);
  const Json ok = MakeOkResponse(3, std::move(result));
  EXPECT_TRUE(ok.Get("ok").AsBool());
  EXPECT_EQ(ok.Get("id").AsInt(), 3);
  EXPECT_TRUE(ok.Get("result").Get("pong").AsBool());

  const Json err = MakeErrorResponse(4, ErrorCode::kUnknownSession, "nope");
  EXPECT_FALSE(err.Get("ok").AsBool());
  EXPECT_EQ(err.Get("id").AsInt(), 4);
  EXPECT_EQ(err.Get("error").Get("code").AsString(), "unknown_session");
  EXPECT_EQ(err.Get("error").Get("message").AsString(), "nope");
}

// ------------------------------------------------------- cache keying -----

TEST(OptionsKeyTest, EqualOptionsShareAKey) {
  ArchiveOptions a;
  a.budget = 1'000'000;
  ArchiveOptions b;
  b.budget = 1'000'000;
  EXPECT_EQ(CanonicalOptionsKey(a), CanonicalOptionsKey(b));
}

TEST(OptionsKeyTest, EveryFieldChangesTheKey) {
  ArchiveOptions base;
  base.budget = 1'000'000;
  const std::string key = CanonicalOptionsKey(base);

  ArchiveOptions budget = base;
  budget.budget = 2'000'000;
  EXPECT_NE(CanonicalOptionsKey(budget), key);

  ArchiveOptions tau = base;
  tau.representation.sparsify_tau += 0.05;
  EXPECT_NE(CanonicalOptionsKey(tau), key);

  ArchiveOptions exif = base;
  exif.representation.exif_weight += 0.125;
  EXPECT_NE(CanonicalOptionsKey(exif), key);

  ArchiveOptions ctx = base;
  ctx.representation.context_normalize = !ctx.representation.context_normalize;
  EXPECT_NE(CanonicalOptionsKey(ctx), key);

  ArchiveOptions bound = base;
  bound.compute_online_bound = !bound.compute_online_bound;
  EXPECT_NE(CanonicalOptionsKey(bound), key);
}

TEST(Fnv64Test, MatchesKnownVectorsAndIsStable) {
  // FNV-1a 64 published test vectors.
  EXPECT_EQ(Fnv64(""), 14695981039346656037ULL);
  EXPECT_EQ(Fnv64("a"), 12638187200555641996ULL);
  EXPECT_EQ(Fnv64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_NE(Fnv64("plan-a"), Fnv64("plan-b"));
}

// ---------------------------------------------------------- plan cache ---

std::shared_ptr<const ArchivePlan> DummyPlan(double score) {
  auto plan = std::make_shared<ArchivePlan>();
  plan->score = score;
  return plan;
}

TEST(PlanCacheTest, MissThenHit) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert("k1", DummyPlan(1.0));
  const auto hit = cache.Lookup("k1");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->score, 1.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  cache.Insert("a", DummyPlan(1));
  cache.Insert("b", DummyPlan(2));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refresh "a"; "b" is now LRU
  cache.Insert("c", DummyPlan(3));        // evicts "b"
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  cache.Insert("k", DummyPlan(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
}

TEST(PlanCacheTest, InsertOverwritesExistingKey) {
  PlanCache cache(2);
  cache.Insert("k", DummyPlan(1));
  cache.Insert("k", DummyPlan(9));
  const auto hit = cache.Lookup("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->score, 9.0);
  EXPECT_EQ(cache.size(), 1u);
}

// --------------------------------------------- deterministic plan JSON ---

TEST(PlanToJsonTest, IdenticalSolvesSerializeByteIdentically) {
  OpenImagesOptions generate;
  generate.num_photos = 60;
  generate.seed = 21;
  ArchiveOptions options;
  options.budget = 1'500'000;

  PhocusSystem first(GenerateOpenImagesCorpus(generate));
  PhocusSystem second(GenerateOpenImagesCorpus(generate));
  const std::string a = PlanToJson(first.PlanArchive(options)).Dump();
  const std::string b = PlanToJson(second.PlanArchive(options)).Dump();
  EXPECT_EQ(a, b);
  // Wall-clock fields must not leak into the serialization.
  EXPECT_EQ(a.find("seconds"), std::string::npos);
}

// ----------------------------------------- server-side protocol edges ---

/// Raw-socket fixture: a tiny live server and helpers to speak the wire
/// protocol without ServiceClient (so malformed traffic can be sent).
class WireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.num_workers = 2;
    options.queue_capacity = 8;
    options.max_frame_bytes = 4096;
    server_ = std::make_unique<ServiceServer>(options);
    server_->Start();
  }

  void TearDown() override {
    if (coordinator_ != nullptr) {
      coordinator_->RequestShutdown();
      coordinator_->Wait();
    }
    server_->RequestShutdown();
    server_->Wait();
  }

  Socket Connect() { return ConnectTcp("127.0.0.1", server_->port()); }

  struct Daemon {
    const char* name;
    int port;
  };

  /// The fixture's phocusd plus a coordinator fronting it with the same
  /// frame cap. Both run the same serving core; tests pinning the core's
  /// behaviour run against each.
  std::vector<Daemon> BothDaemons() {
    coordinator::CoordinatorOptions options;
    options.max_frame_bytes = 4096;
    options.shards = coordinator::ParseShardList(
        "127.0.0.1:" + std::to_string(server_->port()));
    coordinator_ = std::make_unique<coordinator::CoordinatorServer>(options);
    coordinator_->Start();
    return {{"phocusd", server_->port()},
            {"phocus_coordinator", coordinator_->port()}};
  }

  /// Sends raw bytes and reads exactly one response frame.
  Json Exchange(Socket& socket, const std::string& bytes) {
    socket.SendAll(bytes);
    FrameDecoder decoder;
    std::string chunk;
    std::string frame;
    while (decoder.Next(&frame) != FrameDecoder::Status::kFrame) {
      chunk.clear();
      PHOCUS_CHECK(socket.RecvSome(&chunk), "connection closed mid-response");
      decoder.Append(chunk);
    }
    return Json::Parse(frame);
  }

  std::unique_ptr<ServiceServer> server_;
  std::unique_ptr<coordinator::CoordinatorServer> coordinator_;
};

TEST_F(WireTest, UnknownEndpointGetsTypedError) {
  Socket socket = Connect();
  const Json response = Exchange(
      socket, EncodeFrame(MakeRequest(11, "no_such_endpoint", Json::Object())));
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("id").AsInt(), 11);  // id echoed even on error
  EXPECT_EQ(response.Get("error").Get("code").AsString(), "unknown_endpoint");
}

TEST_F(WireTest, MalformedJsonGetsBadRequest) {
  Socket socket = Connect();
  const Json response =
      Exchange(socket, EncodeFrame(std::string_view("{not json at all")));
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("error").Get("code").AsString(), "bad_request");
}

TEST_F(WireTest, MissingEndpointFieldGetsBadRequest) {
  Socket socket = Connect();
  const Json response =
      Exchange(socket, EncodeFrame(std::string_view(R"({"id": 5})")));
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("error").Get("code").AsString(), "bad_request");
}

TEST_F(WireTest, OversizedFrameGetsFrameTooLargeThenClose) {
  for (const Daemon& daemon : BothDaemons()) {
    SCOPED_TRACE(daemon.name);
    Socket socket = ConnectTcp("127.0.0.1", daemon.port);
    // Declare a payload beyond the server's 4096-byte cap.
    const Json response =
        Exchange(socket, std::string("\x00\x10\x00\x00", 4));
    EXPECT_FALSE(response.Get("ok").AsBool());
    EXPECT_EQ(response.Get("error").Get("code").AsString(),
              "frame_too_large");
    // The server closes the connection after the error: the next read is
    // EOF.
    std::string chunk;
    EXPECT_FALSE(socket.RecvSome(&chunk));
  }
}

TEST_F(WireTest, TruncatedFrameThenDisconnectLeavesServerHealthy) {
  {
    Socket socket = Connect();
    // Header promising 100 bytes, then only a few — then vanish.
    socket.SendAll(std::string("\x00\x00\x00\x64", 4) + "abc");
  }
  // A fresh, well-behaved client still gets served.
  ServiceClient client("127.0.0.1", server_->port());
  EXPECT_TRUE(client.Ping());
}

TEST_F(WireTest, GarbageBytesAreAnsweredOrClosedNeverCrash) {
  {
    Socket socket = Connect();
    // Looks like a huge frame; the server answers frame_too_large and
    // closes, or just closes — either way it must stay up.
    socket.SendAll(std::string("\xff\xff\xff\xff", 4) + "junk");
    std::string chunk;
    while (socket.RecvSome(&chunk)) chunk.clear();  // drain until EOF
  }
  ServiceClient client("127.0.0.1", server_->port());
  EXPECT_TRUE(client.Ping());
}

TEST_F(WireTest, PipelinedRequestsAreAnsweredInOrder) {
  Socket socket = Connect();
  std::string wire;
  for (int id = 1; id <= 3; ++id) {
    wire += EncodeFrame(MakeRequest(static_cast<std::uint64_t>(id), "ping",
                                    Json::Object()));
  }
  socket.SendAll(wire);
  FrameDecoder decoder;
  std::string chunk;
  for (int id = 1; id <= 3; ++id) {
    std::string frame;
    while (decoder.Next(&frame) != FrameDecoder::Status::kFrame) {
      chunk.clear();
      ASSERT_TRUE(socket.RecvSome(&chunk));
      decoder.Append(chunk);
    }
    const Json response = Json::Parse(frame);
    EXPECT_TRUE(response.Get("ok").AsBool());
    EXPECT_EQ(response.Get("id").AsInt(), id);
  }
}

}  // namespace
}  // namespace service
}  // namespace phocus
