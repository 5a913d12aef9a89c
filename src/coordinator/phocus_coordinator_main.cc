/// \file phocus_coordinator_main.cc
/// The phocus_coordinator daemon: fronts N phocusd shards with
/// consistent-hash routing and fan-out/merge observability verbs (see
/// docs/COORDINATOR.md).
///
///   phocusd --port=7411 &
///   phocusd --port=7412 &
///   phocusd --port=7413 &
///   phocus_coordinator --port=7400 --shards=127.0.0.1:7411,127.0.0.1:7412,127.0.0.1:7413
///
/// Point any phocusd client (phocus_client, ServiceClient) at port 7400
/// and it sees one logical service. SIGINT/SIGTERM drain gracefully.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "coordinator/coordinator.h"
#include "service/daemon.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"

namespace {

/// Reads a shard map file: a JSON array of "host:port" strings, or an
/// object with a "shards" array of the same.
std::string ShardListFromFile(const std::string& path) {
  using phocus::Json;
  const Json parsed = Json::Parse(phocus::ReadFile(path));
  const Json list = parsed.Has("shards") ? parsed.Get("shards") : parsed;
  std::vector<std::string> entries;
  for (const Json& item : list.items()) entries.push_back(item.AsString());
  return phocus::Join(entries, ",");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phocus;
  const service::DaemonFlags flags = service::ParseDaemonFlags(argc, argv);
  if (flags.count("help") > 0) {
    std::printf(
        "phocus_coordinator: consistent-hash router over phocusd shards\n"
        "  --host=ADDR            bind address (default 127.0.0.1)\n"
        "  --port=N               TCP port; 0 picks an ephemeral one "
        "(default 7400)\n"
        "  --shards=H:P,H:P,...   shard addresses (required unless "
        "--shard-map)\n"
        "  --shard-map=FILE       JSON file: [\"host:port\", ...] or\n"
        "                         {\"shards\": [...]}\n"
        "  --virtual-nodes=N      ring points per shard (default 64)\n"
        "  --unhealthy-after=N    consecutive transport failures before a\n"
        "                         shard is marked unhealthy (default 3)\n"
        "  --probe-backoff-ms=F   first probe delay for an unhealthy shard;\n"
        "                         doubles up to --probe-backoff-max-ms\n"
        "  --probe-backoff-max-ms=F  probe backoff cap (default 5000)\n"
        "  --retry-attempts=N     attempts for idempotent proxied calls\n"
        "                         (default 3)\n"
        "  --flight-dump=PATH     where a crash writes flight-recorder\n"
        "                         events (default: $PHOCUS_FLIGHT_DUMP,\n"
        "                         else coordinator_flight.json)\n");
    return 0;
  }

  coordinator::CoordinatorOptions options;
  options.port = 7400;
  try {
    if (flags.count("host")) options.host = flags.at("host");
    if (flags.count("port")) options.port = std::stoi(flags.at("port"));
    std::string shard_list;
    if (flags.count("shard-map")) {
      shard_list = ShardListFromFile(flags.at("shard-map"));
    }
    if (flags.count("shards")) {
      if (!shard_list.empty()) shard_list += ",";
      shard_list += flags.at("shards");
    }
    options.shards = coordinator::ParseShardList(shard_list);
    if (flags.count("virtual-nodes")) {
      options.virtual_nodes = std::stoul(flags.at("virtual-nodes"));
    }
    if (flags.count("unhealthy-after")) {
      options.unhealthy_after = std::stoi(flags.at("unhealthy-after"));
    }
    if (flags.count("probe-backoff-ms")) {
      options.probe_backoff_ms = std::stod(flags.at("probe-backoff-ms"));
    }
    if (flags.count("probe-backoff-max-ms")) {
      options.probe_backoff_max_ms =
          std::stod(flags.at("probe-backoff-max-ms"));
    }
    if (flags.count("retry-attempts")) {
      options.retry.max_attempts = std::stoi(flags.at("retry-attempts"));
    }
  } catch (const CheckFailure& failure) {
    std::fprintf(stderr, "bad flags: %s\n", failure.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bad flag value: %s\n", error.what());
    return 2;
  }
  if (options.shards.empty()) {
    std::fprintf(stderr,
                 "phocus_coordinator: no shards given "
                 "(--shards=host:port,... or --shard-map=FILE)\n");
    return 2;
  }

  return service::RunDaemon<coordinator::CoordinatorServer>(
      "phocus_coordinator", flags, "coordinator_flight.json",
      std::move(options));
}
