#include "service/daemon.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace phocus {
namespace service {

namespace {

std::atomic<bool> g_stop_requested{false};

void HandleSignal(int) { g_stop_requested.store(true); }

}  // namespace

DaemonFlags ParseDaemonFlags(int argc, char** argv) {
  DaemonFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    const std::size_t eq = arg.find('=');
    std::string key;
    std::string value = "1";
    if (eq == std::string::npos) {
      key = arg.substr(2);
    } else {
      key = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    }
    flags[key] = value;
  }
  return flags;
}

void WaitWithSignalDrain(const std::function<void()>& request_shutdown,
                         const std::function<void()>& wait) {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // The handler only flips a flag; this watcher turns it into a graceful
  // drain without doing non-signal-safe work inside the handler.
  std::thread signal_watcher([&request_shutdown] {
    while (!g_stop_requested.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    request_shutdown();
  });
  wait();
  g_stop_requested.store(true);
  signal_watcher.join();
}

}  // namespace service
}  // namespace phocus
