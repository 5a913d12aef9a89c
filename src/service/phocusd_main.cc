/// \file phocusd_main.cc
/// The phocusd daemon: serves archive planning over TCP (see
/// docs/SERVICE.md for the protocol).
///
///   phocusd --port=7411 --workers=4 --queue=64 --cache=32
///
/// SIGINT/SIGTERM trigger the same graceful drain as the `shutdown`
/// endpoint: in-flight requests finish, then the process exits.

#include <cstdio>
#include <string>
#include <utility>

#include "service/daemon.h"
#include "service/server.h"

int main(int argc, char** argv) {
  using namespace phocus;
  const service::DaemonFlags flags = service::ParseDaemonFlags(argc, argv);
  if (flags.count("help") > 0) {
    std::printf(
        "phocusd: PHOcus archive-planning daemon\n"
        "  --host=ADDR        bind address (default 127.0.0.1)\n"
        "  --port=N           TCP port; 0 picks an ephemeral one (default 7411)\n"
        "  --workers=N        solver worker threads; 0 = hardware (default 0)\n"
        "  --queue=N          admission bound on outstanding requests (default 64)\n"
        "  --cache=N          plan-cache capacity in plans (default 32)\n"
        "  --deadline-ms=F    default per-request deadline; 0 = none\n"
        "  --slow-request-ms=F  log requests slower than this with their span\n"
        "                     tree (default: $PHOCUS_SLOW_REQUEST_MS, else off)\n"
        "  --wal-dir=PATH     durable ingest: write-ahead log each session's\n"
        "                     streaming queue under PATH (created if missing);\n"
        "                     a restarted phocusd recovers queued-but-undrained\n"
        "                     photos (default: off)\n"
        "  --debug            enable debug endpoints (debug_sleep,\n"
        "                     debug_failpoint); never in production\n"
        "  --flight-dump=PATH where a crash writes the flight-recorder events\n"
        "                     (default: $PHOCUS_FLIGHT_DUMP, else\n"
        "                     phocusd_flight.json)\n");
    return 0;
  }

  service::ServerOptions options;
  options.port = 7411;
  try {
    if (flags.count("host")) options.host = flags.at("host");
    if (flags.count("port")) options.port = std::stoi(flags.at("port"));
    if (flags.count("workers")) {
      options.num_workers = std::stoul(flags.at("workers"));
    }
    if (flags.count("queue")) {
      options.queue_capacity = std::stoul(flags.at("queue"));
    }
    if (flags.count("cache")) {
      options.plan_cache_capacity = std::stoul(flags.at("cache"));
    }
    if (flags.count("deadline-ms")) {
      options.default_deadline_ms = std::stod(flags.at("deadline-ms"));
    }
    if (flags.count("slow-request-ms")) {
      options.slow_request_ms = std::stod(flags.at("slow-request-ms"));
    }
    if (flags.count("wal-dir")) options.wal_dir = flags.at("wal-dir");
    if (flags.count("debug")) options.enable_debug_endpoints = true;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bad flag value: %s\n", error.what());
    return 2;
  }

  return service::RunDaemon<service::ServiceServer>(
      "phocusd", flags, "phocusd_flight.json", std::move(options));
}
