#ifndef PHOCUS_SERVICE_DAEMON_H_
#define PHOCUS_SERVICE_DAEMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "telemetry/flight_recorder.h"
#include "util/logging.h"

/// \file daemon.h
/// The process entry both daemons share (phocusd, phocus_coordinator): flag
/// parsing, the crash-time flight dump, and SIGINT/SIGTERM as a graceful
/// drain.

namespace phocus {
namespace service {

using DaemonFlags = std::map<std::string, std::string>;

/// `--key=value` arguments by key; a bare `--key` maps to "1". Any other
/// argument prints "unexpected argument" and exits with status 2.
DaemonFlags ParseDaemonFlags(int argc, char** argv);

/// Blocks in `wait` (a started server's Wait) while SIGINT/SIGTERM call
/// `request_shutdown` (its RequestShutdown): the same graceful drain as
/// the `shutdown` verb.
void WaitWithSignalDrain(const std::function<void()>& request_shutdown,
                         const std::function<void()>& wait);

/// The rest of a daemon's main() once its options are parsed: starts a
/// `Server`, prints "<name> listening on host:port" and serves until it
/// drains. If the daemon dies (std::terminate or a fatal signal), the
/// flight recorder's last events land as JSON at --flight-dump, else
/// $PHOCUS_FLIGHT_DUMP, else `flight_dump`. Returns the exit status: 0, or
/// 1 when the server fails (e.g. its address is unavailable).
template <typename Server, typename Options>
int RunDaemon(const char* name, const DaemonFlags& flags,
              std::string flight_dump, Options options) {
  if (const char* env = std::getenv("PHOCUS_FLIGHT_DUMP")) flight_dump = env;
  if (flags.count("flight-dump")) flight_dump = flags.at("flight-dump");
  telemetry::FlightRecorder::InstallCrashHandler(flight_dump);
  const std::string host = options.host;
  try {
    Server server(std::move(options));
    server.Start();
    std::printf("%s listening on %s:%d\n", name, host.c_str(), server.port());
    std::fflush(stdout);
    WaitWithSignalDrain([&server] { server.RequestShutdown(); },
                        [&server] { server.Wait(); });
  } catch (const CheckFailure& failure) {
    std::fprintf(stderr, "%s: %s\n", name, failure.what());
    return 1;
  }
  return 0;
}

}  // namespace service
}  // namespace phocus

#endif  // PHOCUS_SERVICE_DAEMON_H_
