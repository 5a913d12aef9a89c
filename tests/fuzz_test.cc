#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "datagen/corpus_io.h"
#include "datagen/openimages.h"
#include "imaging/ppm_io.h"
#include "phocus/ingest_wal.h"
#include "phocus/instance_io.h"
#include "service/protocol.h"
#include "tests/scenario_support.h"
#include "tests/test_support.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/lzss.h"
#include "util/rng.h"

namespace phocus {
namespace {

/// Seeded random byte-level mutations: flip, insert, delete, truncate.
std::string Mutate(const std::string& input, Rng& rng, int mutations) {
  std::string out = input;
  for (int m = 0; m < mutations && !out.empty(); ++m) {
    switch (rng.NextBelow(4)) {
      case 0: {  // flip a byte
        out[rng.NextBelow(out.size())] =
            static_cast<char>(rng.NextBelow(256));
        break;
      }
      case 1: {  // insert a byte
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(
                                     rng.NextBelow(out.size() + 1)),
                   static_cast<char>(rng.NextBelow(256)));
        break;
      }
      case 2: {  // delete a byte
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(
                                    rng.NextBelow(out.size())));
        break;
      }
      default: {  // truncate
        out.resize(rng.NextBelow(out.size() + 1));
        break;
      }
    }
  }
  return out;
}

/// Random JSON document generator (bounded depth).
Json RandomJson(Rng& rng, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.3)) {
    switch (rng.NextBelow(4)) {
      case 0: return Json(static_cast<double>(rng.Normal(0, 1000)));
      case 1: return Json(rng.Bernoulli(0.5));
      case 2: return Json(nullptr);
      default: {
        std::string s;
        const std::size_t length = rng.NextBelow(12);
        for (std::size_t i = 0; i < length; ++i) {
          s.push_back(static_cast<char>(32 + rng.NextBelow(95)));
        }
        return Json(s);
      }
    }
  }
  if (rng.Bernoulli(0.5)) {
    Json array = Json::Array();
    const std::size_t items = rng.NextBelow(5);
    for (std::size_t i = 0; i < items; ++i) {
      array.Append(RandomJson(rng, depth - 1));
    }
    return array;
  }
  Json object = Json::Object();
  const std::size_t keys = rng.NextBelow(5);
  for (std::size_t i = 0; i < keys; ++i) {
    object.Set(std::string("k") + std::to_string(i), RandomJson(rng, depth - 1));
  }
  return object;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, RandomJsonRoundTripsThroughDumpAndParse) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const Json original = RandomJson(rng, 4);
    const std::string compact = original.Dump();
    const std::string pretty = original.Dump(2);
    EXPECT_EQ(Json::Parse(compact).Dump(), compact);
    EXPECT_EQ(Json::Parse(pretty).Dump(), compact);
  }
}

TEST_P(FuzzTest, MutatedJsonNeverCrashesTheParser) {
  Rng rng(GetParam() ^ 0x11);
  const std::string base =
      InstanceToJson(testing::MakeFigure1Instance()).Dump();
  for (int trial = 0; trial < 60; ++trial) {
    const std::string mutated = Mutate(base, rng, 1 + rng.NextBelow(8));
    try {
      const Json parsed = Json::Parse(mutated);
      (void)parsed.Dump();  // whatever parsed must re-serialize
    } catch (const CheckFailure&) {
      // rejected: fine
    }
  }
}

TEST_P(FuzzTest, MutatedInstanceJsonIsRejectedOrValidated) {
  Rng rng(GetParam() ^ 0x22);
  const std::string base =
      InstanceToJson(testing::MakeFigure1Instance()).Dump();
  for (int trial = 0; trial < 40; ++trial) {
    const std::string mutated = Mutate(base, rng, 1 + rng.NextBelow(4));
    try {
      const ParInstance instance = InstanceFromJson(Json::Parse(mutated));
      instance.Validate();  // either throws or the instance is coherent
    } catch (const CheckFailure&) {
      // rejected at parse, decode or validation: the contract holds
    }
  }
}

TEST_P(FuzzTest, MutatedLzssNeverCrashes) {
  Rng rng(GetParam() ^ 0x33);
  std::string payload;
  for (int i = 0; i < 3000; ++i) {
    payload.push_back(static_cast<char>('a' + rng.NextBelow(6)));
  }
  const std::string compressed = LzssCompress(payload);
  for (int trial = 0; trial < 60; ++trial) {
    const std::string mutated = Mutate(compressed, rng, 1 + rng.NextBelow(6));
    try {
      const std::string decoded = LzssDecompress(mutated);
      EXPECT_LE(decoded.size(), payload.size() + 16);  // header-bounded
    } catch (const CheckFailure&) {
      // rejected: fine
    }
  }
}

TEST_P(FuzzTest, MutatedCorpusNeverCrashesTheDecoder) {
  Rng rng(GetParam() ^ 0x44);
  OpenImagesOptions options;
  options.num_photos = 25;
  options.seed = 5;
  options.render_size = 32;
  const std::string encoded = EncodeCorpus(GenerateOpenImagesCorpus(options));
  for (int trial = 0; trial < 30; ++trial) {
    const std::string mutated = Mutate(encoded, rng, 1 + rng.NextBelow(6));
    try {
      const Corpus corpus = DecodeCorpus(mutated);
      (void)corpus.TotalBytes();
    } catch (const CheckFailure&) {
      // rejected: fine
    }
  }
}

TEST_P(FuzzTest, MutatedPpmNeverCrashesTheDecoder) {
  Rng rng(GetParam() ^ 0x55);
  Image image(16, 16, Rgb{10, 20, 30});
  const std::string encoded = EncodePpm(image);
  for (int trial = 0; trial < 60; ++trial) {
    const std::string mutated = Mutate(encoded, rng, 1 + rng.NextBelow(5));
    try {
      const Image decoded = DecodePpm(mutated);
      (void)decoded.width();
    } catch (const CheckFailure&) {
      // rejected: fine
    } catch (const std::exception&) {
      // header numbers can overflow std::stoi: also an orderly rejection
    }
  }
}

TEST_P(FuzzTest, RandomBytesNeverCrashTheFrameDecoder) {
  Rng rng(GetParam() ^ 0x66);
  for (int trial = 0; trial < 40; ++trial) {
    // Small cap so random headers regularly trip every status.
    service::FrameDecoder decoder(/*max_frame_bytes=*/256);
    std::string frame;
    bool closed = false;
    for (int chunks = 0; chunks < 20 && !closed; ++chunks) {
      std::string chunk(1 + rng.NextBelow(40), '\0');
      for (char& c : chunk) c = static_cast<char>(rng.NextBelow(256));
      decoder.Append(chunk);
      while (true) {
        const service::FrameDecoder::Status status = decoder.Next(&frame);
        if (status == service::FrameDecoder::Status::kFrame) {
          EXPECT_LE(frame.size(), decoder.max_frame_bytes());
          continue;  // drain any further complete frames
        }
        if (status == service::FrameDecoder::Status::kTooLarge) {
          closed = true;  // a real peer closes the stream here
        }
        break;
      }
    }
  }
}

TEST_P(FuzzTest, MutatedRequestFramesDecodeOrRejectCleanly) {
  Rng rng(GetParam() ^ 0x77);
  Json params = Json::Object();
  params.Set("session", "s-1");
  params.Set("budget", "25MB");
  const std::string base =
      service::EncodeFrame(service::MakeRequest(7, "plan", std::move(params)));
  for (int trial = 0; trial < 60; ++trial) {
    const std::string mutated = Mutate(base, rng, 1 + rng.NextBelow(6));
    service::FrameDecoder decoder(/*max_frame_bytes=*/4096);
    decoder.Append(mutated);
    std::string frame;
    while (decoder.Next(&frame) == service::FrameDecoder::Status::kFrame) {
      // Whatever survives framing must either parse or throw CheckFailure —
      // exactly what the server does before answering bad_request.
      try {
        (void)Json::Parse(frame).Dump();
      } catch (const CheckFailure&) {
        // rejected: fine
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range<std::uint64_t>(1000, 1008));

// ---------------------------------------------------------------------------
// Seeded-corpus regression: inputs that once exercised interesting
// FrameDecoder states live under tests/corpus/frame_decoder/ and are
// replayed deterministically — as one buffer, byte-at-a-time, under seeded
// random chunkings, and through a socket with injected short reads. The
// decoder must produce the identical frame sequence every way.

/// The cap every corpus entry was authored against (entries marked
/// "over cap" must trip kTooLarge at exactly this setting).
constexpr std::size_t kCorpusFrameCap = 256;

/// Parses a corpus .hex file: '#' lines are comments, the rest is the hex
/// encoding of the input bytes, whitespace ignored.
std::string DecodeHexFile(const std::string& path) {
  const std::string text = ReadFile(path);
  std::string hex;
  bool in_comment = false;
  for (char c : text) {
    if (c == '#') in_comment = true;
    if (c == '\n') in_comment = false;
    if (in_comment || std::isspace(static_cast<unsigned char>(c))) continue;
    hex.push_back(c);
  }
  PHOCUS_CHECK(hex.size() % 2 == 0, "odd hex digit count in " + path);
  auto nibble = [&](char c) -> unsigned {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
    PHOCUS_CHECK(false, "bad hex digit in " + path);
    return 0;
  };
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return bytes;
}

std::vector<std::string> CorpusFiles(const std::string& subdir) {
  const std::string dir = std::string(PHOCUS_TEST_CORPUS_DIR) + "/" + subdir;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".hex") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// What a decoder run observed: the frames delivered, in order, and
/// whether the stream ended in the kTooLarge protocol violation.
struct ReplayResult {
  std::vector<std::string> frames;
  bool too_large = false;

  bool operator==(const ReplayResult& other) const {
    return frames == other.frames && too_large == other.too_large;
  }
};

/// Feeds `bytes` to a fresh decoder in the given chunk sizes (the last
/// chunk takes the remainder; an empty schedule means one buffer).
ReplayResult ReplayChunked(const std::string& bytes,
                           const std::vector<std::size_t>& chunk_sizes) {
  service::FrameDecoder decoder(kCorpusFrameCap);
  ReplayResult result;
  std::size_t pos = 0;
  std::size_t chunk_index = 0;
  while (pos < bytes.size() && !result.too_large) {
    std::size_t take = chunk_index < chunk_sizes.size()
                           ? chunk_sizes[chunk_index++]
                           : bytes.size() - pos;
    take = std::min(std::max<std::size_t>(take, 1), bytes.size() - pos);
    decoder.Append(std::string_view(bytes).substr(pos, take));
    pos += take;
    std::string frame;
    while (true) {
      const service::FrameDecoder::Status status = decoder.Next(&frame);
      if (status == service::FrameDecoder::Status::kFrame) {
        result.frames.push_back(frame);
        continue;
      }
      if (status == service::FrameDecoder::Status::kTooLarge) {
        result.too_large = true;  // a real peer closes the stream here
      }
      break;
    }
  }
  return result;
}

TEST(FrameCorpusTest, EntriesReplayIdenticallyUnderEveryChunking) {
  const std::vector<std::string> files = CorpusFiles("frame_decoder");
  ASSERT_FALSE(files.empty()) << "corpus directory missing or empty";
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    const std::string bytes = DecodeHexFile(file);
    const ReplayResult whole = ReplayChunked(bytes, {});
    for (const std::string& frame : whole.frames) {
      EXPECT_LE(frame.size(), kCorpusFrameCap);
    }

    const ReplayResult byte_at_a_time =
        ReplayChunked(bytes, std::vector<std::size_t>(bytes.size(), 1));
    EXPECT_TRUE(byte_at_a_time == whole)
        << "byte-at-a-time replay diverged from whole-buffer replay";

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      std::vector<std::size_t> chunks;
      std::size_t remaining = bytes.size();
      while (remaining > 0) {
        const std::size_t take = 1 + rng.NextBelow(std::min<std::size_t>(
                                         remaining, 7));
        chunks.push_back(take);
        remaining -= take;
      }
      EXPECT_TRUE(ReplayChunked(bytes, chunks) == whole)
          << "seed " << seed << " chunking diverged";
    }
  }
}

TEST(FrameCorpusTest, CorpusCoversEveryDecoderStatus) {
  bool saw_frame = false, saw_too_large = false, saw_incomplete = false;
  for (const std::string& file : CorpusFiles("frame_decoder")) {
    const ReplayResult result = ReplayChunked(DecodeHexFile(file), {});
    saw_frame = saw_frame || !result.frames.empty();
    saw_too_large = saw_too_large || result.too_large;
    saw_incomplete =
        saw_incomplete || (result.frames.empty() && !result.too_large);
  }
  // Guards corpus erosion: deleting the entry for a status family should
  // fail loudly, not silently shrink coverage.
  EXPECT_TRUE(saw_frame);
  EXPECT_TRUE(saw_too_large);
  EXPECT_TRUE(saw_incomplete);
}

TEST(FrameCorpusTest, EntriesSurviveInjectedShortReadsOverASocket) {
  for (const std::string& file : CorpusFiles("frame_decoder")) {
    SCOPED_TRACE(file);
    const std::string bytes = DecodeHexFile(file);
    if (bytes.empty()) continue;
    const ReplayResult expected = ReplayChunked(bytes, {});

    scenario::SocketPair pair = scenario::MakeSocketPair();
    pair.first.SendAll(bytes);
    pair.first.ShutdownBoth();

    // One-byte reads via the socket.read failpoint: the harshest framing
    // the transport can produce.
    failpoint::ScopedFailpoint armed("socket.read", "short_write");
    service::FrameDecoder decoder(kCorpusFrameCap);
    ReplayResult actual;
    std::string chunk;
    while (!actual.too_large) {
      std::string frame;
      const service::FrameDecoder::Status status = decoder.Next(&frame);
      if (status == service::FrameDecoder::Status::kFrame) {
        actual.frames.push_back(frame);
        continue;
      }
      if (status == service::FrameDecoder::Status::kTooLarge) {
        actual.too_large = true;
        break;
      }
      chunk.clear();
      if (!pair.second.RecvSome(&chunk)) break;  // EOF
      ASSERT_EQ(chunk.size(), 1u);
      decoder.Append(chunk);
    }
    EXPECT_TRUE(actual == expected)
        << "socket replay diverged from direct replay";
  }
}

// ---------------------------------------------------------------------------
// Seeded WAL corpus (format in docs/TESTING.md): each case under
// tests/corpus/ingest_wal/ goes through IngestWal::Load and must produce the
// outcome its "# expect:" line pins — never a crash or an untyped exception.

/// Caps the address space at its current size plus 256 MiB while alive, so
/// an unbounded allocation is a deterministic std::bad_alloc rather than an
/// OOM kill or a silent success.
class ScopedAddressSpaceCap {
 public:
  ScopedAddressSpaceCap() {
    getrlimit(RLIMIT_AS, &saved_);
    rlim_t pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    rlimit capped = saved_;
    const rlim_t page = static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
    capped.rlim_cur = std::min(saved_.rlim_max, pages * page + (256 << 20));
    setrlimit(RLIMIT_AS, &capped);
  }
  ~ScopedAddressSpaceCap() { setrlimit(RLIMIT_AS, &saved_); }

 private:
  rlimit saved_{};
};

/// Loads `ckpt_hex` (and `log_hex`, unless empty) as session "s" in `dir`
/// and names the outcome in the "# expect:" grammar.
std::string LoadOutcome(const std::string& dir, const std::string& ckpt_hex,
                        const std::string& log_hex) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  WriteFile(dir + "/s.ckpt", DecodeHexFile(ckpt_hex));
  if (!log_hex.empty()) WriteFile(dir + "/s.log", DecodeHexFile(log_hex));
  IngestWal wal(dir, "s");
  ScopedAddressSpaceCap cap;
  try {
    const IngestWal::LoadResult result = wal.Load();
    if (result.stale_log) return "stale";
    return (result.torn_tail ? "torn " : "ok ") +
           std::to_string(result.records.size());
  } catch (const WalMismatchError&) {
    return "mismatch";
  } catch (const CheckFailure&) {
    return "error";
  }
}

TEST(WalCorpusTest, EveryCaseLoadsOrFailsTyped) {
  const std::string base = std::string(PHOCUS_TEST_CORPUS_DIR) + "/ingest_wal/";
  const std::string dir =
      (std::filesystem::temp_directory_path() / "phocus_wal_corpus").string();
  std::set<std::string> stems;
  for (const std::string& file : CorpusFiles("ingest_wal")) {
    const std::string name = std::filesystem::path(file).filename().string();
    stems.insert(name.substr(0, name.find('.')));
  }
  std::set<std::string> outcomes;
  for (const std::string& stem : stems) {
    SCOPED_TRACE(stem);
    std::string ckpt = base + stem + ".ckpt.hex";
    std::string log = base + stem + ".log.hex";
    const std::string text =
        ReadFile(std::filesystem::exists(ckpt) ? ckpt : log);
    const std::string tag = "# expect: ";
    const std::size_t at = text.find(tag);
    ASSERT_NE(at, std::string::npos) << "case has no '# expect:' line";
    const std::string expected =
        text.substr(at + tag.size(), text.find('\n', at) - at - tag.size());
    if (!std::filesystem::exists(ckpt)) ckpt = base + "valid.ckpt.hex";
    if (!std::filesystem::exists(log)) log = base + "valid.log.hex";
    EXPECT_EQ(LoadOutcome(dir, ckpt, log), expected);
    outcomes.insert(expected.substr(0, expected.find(' ')));
  }
  std::filesystem::remove_all(dir);
  // Guards corpus erosion: every outcome keeps a case.
  EXPECT_EQ(outcomes, (std::set<std::string>{"error", "mismatch", "ok",
                                             "stale", "torn"}));
}

TEST(WalCorpusTest, OlderCheckpointReencodesByteIdentically) {
  // The retired LSH slots are written back with the values that encoder
  // stored, so the layout, and these bytes, are unchanged.
  const std::string hex = std::string(PHOCUS_TEST_CORPUS_DIR) +
                          "/ingest_wal/older_encoder.ckpt.hex";
  const std::string dir =
      (std::filesystem::temp_directory_path() / "phocus_wal_reencode").string();
  ASSERT_EQ(LoadOutcome(dir, hex, ""), "ok 0");
  IngestWal out(dir + "/out", "s");
  out.Start(IngestWal(dir, "s").Load().checkpoint);
  EXPECT_EQ(ReadFile(out.checkpoint_path()), DecodeHexFile(hex));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace phocus
