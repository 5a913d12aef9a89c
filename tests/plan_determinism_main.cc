#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "datagen/openimages.h"
#include "kernels/kernels.h"
#include "phocus/system.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/json.h"

/// \file plan_determinism_main.cc
/// Emits the deterministic JSON serialization of one full-system archive
/// plan on stdout, then of two plans served concurrently by an in-process
/// phocusd (two clients, two sessions, two budgets, two request slots).
/// cmake/plan_determinism.cmake runs this binary under several
/// PHOCUS_NUM_THREADS values (the variable is read once per process, so
/// each count needs its own process) and fails unless every run is
/// byte-identical — the solver's cross-thread-count determinism guarantee,
/// checked through the whole PhocusSystem path and through the served path,
/// whose solves fan out on the process-wide pool.

namespace {

/// Creates a session over a generated corpus and plans it at
/// `budget_fraction` of its bytes; returns the plan's JSON.
std::string ServedPlan(int port, int corpus_seed, double budget_fraction) {
  phocus::service::ServiceClient client("127.0.0.1", port);
  phocus::Json corpus = phocus::Json::Object();
  corpus.Set("kind", "openimages");
  corpus.Set("num_photos", 400);
  corpus.Set("seed", corpus_seed);
  phocus::Json create = phocus::Json::Object();
  create.Set("corpus", std::move(corpus));
  const phocus::Json session = client.Call("create_session", std::move(create));
  phocus::Json plan = phocus::Json::Object();
  plan.Set("session", session.Get("session").AsString());
  const double total_bytes = session.Get("total_bytes").AsDouble();
  plan.Set("budget", static_cast<phocus::Cost>(budget_fraction * total_bytes));
  return client.Call("plan", std::move(plan)).Get("plan").Dump(1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--list-kernels") == 0) {
    // The driver script (cmake/plan_determinism.cmake) sweeps
    // PHOCUS_KERNELS over every table this machine can run.
    std::puts("scalar");
    if (phocus::kernels::Avx2Table() != nullptr) std::puts("avx2");
    return 0;
  }
  phocus::OpenImagesOptions corpus_options;
  corpus_options.num_photos = 150;
  corpus_options.seed = 17;
  corpus_options.render_size = 32;
  const phocus::Corpus corpus =
      phocus::GenerateOpenImagesCorpus(corpus_options);

  phocus::ArchiveOptions options;
  options.budget = corpus.TotalBytes() / 4;

  phocus::PhocusSystem system(corpus);
  const phocus::ArchivePlan plan = system.PlanArchive(options);
  std::fputs(phocus::service::PlanToJson(plan).Dump(1).c_str(), stdout);
  std::fputc('\n', stdout);

  phocus::service::ServerOptions server_options;
  server_options.num_workers = 2;
  phocus::service::ServiceServer server(server_options);
  server.Start();
  std::string served[2];
  std::string errors[2];
  auto serve = [&](int k, int corpus_seed, double budget_fraction) {
    try {
      served[k] = ServedPlan(server.port(), corpus_seed, budget_fraction);
    } catch (const std::exception& error) {
      errors[k] = error.what();
    }
  };
  std::thread first(serve, 0, 17, 0.25);
  std::thread second(serve, 1, 18, 0.35);
  first.join();
  second.join();
  server.RequestShutdown();
  server.Wait();
  for (int k = 0; k < 2; ++k) {
    if (!errors[k].empty()) {
      std::fprintf(stderr, "served plan %d failed: %s\n", k, errors[k].c_str());
      return 1;
    }
    std::fputs(served[k].c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}
