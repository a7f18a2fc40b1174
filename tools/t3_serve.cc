// t3_serve — the T3 prediction service: serves a trained model over the
// "t3p1" wire protocol (src/server) until shut down.
//
//   t3_serve [--model FILE] [--data DIR] [--host H] [--port N]
//            [--workers N] [--swap-path FILE] [--no-remote-shutdown]
//            [--check]
//
// --model    — serve the "t3model" file at FILE. Without it, the tool
//              trains (or loads the cached) workbench main model from
//              --data, exactly like the bench binaries.
// --data     — workbench data directory (default ./data).
// --host     — bind address (default 127.0.0.1).
// --port     — TCP port; 0 picks an ephemeral port and prints it (default
//              7433).
// --workers  — event-loop threads; 0 = hardware concurrency (default 0).
// --swap-path— model file reloaded on SIGHUP and on empty-path kSwapModel
//              frames (default: the --model path, when given).
// --no-remote-shutdown — refuse kShutdown frames.
// --check    — load and build --model exactly as serving would, print
//              its load and build times, and exit without serving: 0
//              when the model is servable, 1 otherwise. The strict-parsing
//              regression harness runs this against deliberately corrupt
//              fixtures.
//
// SIGHUP hot-swaps to --swap-path without dropping in-flight requests.
//
// Exit status: 0 clean shutdown (or --check pass), 1 startup/model
// failure (or --check fail), 2 usage error.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "cli_util.h"
#include "harness/workbench.h"
#include "model/t3_model.h"
#include "server/server.h"
#include "server/serving_model.h"

namespace t3 {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: t3_serve [--model FILE] [--data DIR] [--host H] [--port N]\n"
      "                [--workers N] [--swap-path FILE]\n"
      "                [--no-remote-shutdown] [--check]\n");
  return 2;
}

struct Args {
  std::string model;
  std::string data = "./data";
  std::string host = "127.0.0.1";
  uint16_t port = 7433;
  size_t workers = 0;
  std::string swap_path;
  bool remote_shutdown = true;
  bool check = false;
};

constexpr const char* kTool = "t3_serve";

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model") {
      if (!CliValue(kTool, argc, argv, &i, "--model", &args->model)) {
        return false;
      }
    } else if (arg == "--data") {
      if (!CliValue(kTool, argc, argv, &i, "--data", &args->data)) {
        return false;
      }
    } else if (arg == "--host") {
      if (!CliValue(kTool, argc, argv, &i, "--host", &args->host)) {
        return false;
      }
    } else if (arg == "--port") {
      uint64_t port = 0;
      if (!CliUint64(kTool, argc, argv, &i, "--port", 0, 65535,
                     "must be an integer in [0, 65535]", &port)) {
        return false;
      }
      args->port = static_cast<uint16_t>(port);
    } else if (arg == "--workers") {
      uint64_t workers = 0;
      if (!CliUint64(kTool, argc, argv, &i, "--workers", 0, 1024,
                     "must be an integer in [0, 1024]", &workers)) {
        return false;
      }
      args->workers = static_cast<size_t>(workers);
    } else if (arg == "--swap-path") {
      if (!CliValue(kTool, argc, argv, &i, "--swap-path",
                    &args->swap_path)) {
        return false;
      }
    } else if (arg == "--no-remote-shutdown") {
      args->remote_shutdown = false;
    } else if (arg == "--check") {
      args->check = true;
    } else {
      return CliError(kTool, arg.c_str(), "is not a recognized argument");
    }
  }
  if (args->check && args->model.empty()) {
    return CliError(kTool, "--check", "requires --model FILE");
  }
  return true;
}

// SIGHUP only stores an atomic flag on the server (async-signal-safe); a
// worker loop performs the actual swap.
PredictionServer* g_server = nullptr;

void OnSighup(int) {
  if (g_server != nullptr) g_server->RequestSwap();
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  Result<std::shared_ptr<const ServingModel>> initial = [&args]()
      -> Result<std::shared_ptr<const ServingModel>> {
    if (!args.model.empty()) return LoadServingModel(args.model, 1);
    // The workbench path: the same cached training pipeline the bench
    // binaries use (first run trains and caches; later runs load).
    Workbench workbench(args.data);
    const T3Model& main_model = workbench.MainModel();
    return MakeServingModel(
        T3Model(main_model.forest(), main_model.target()), 1,
        "workbench:main");
  }();
  if (!initial.ok()) {
    std::fprintf(stderr, "t3_serve: %s\n",
                 initial.status().ToString().c_str());
    return 1;
  }
  if (args.check) {
    std::fprintf(stderr,
                 "t3_serve: %s is servable (%d features, %zu trees; %s)\n",
                 args.model.c_str(), (*initial)->num_features(),
                 (*initial)->model.forest().trees.size(),
                 (*initial)->TimingsText().c_str());
    return 0;
  }

  ServerOptions options;
  options.host = args.host;
  options.port = args.port;
  options.num_workers = args.workers;
  options.allow_remote_shutdown = args.remote_shutdown;
  options.default_swap_path =
      args.swap_path.empty() ? args.model : args.swap_path;

  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(*std::move(initial), options);
  if (!server.ok()) {
    std::fprintf(stderr, "t3_serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  g_server = server->get();
  std::signal(SIGHUP, OnSighup);

  const std::shared_ptr<const ServingModel> serving = (*server)->registry().Current();
  std::fprintf(stderr, "t3_serve: listening on %s:%u (model %s; %s)\n",
               args.host.c_str(), (*server)->port(), serving->source.c_str(),
               serving->TimingsText().c_str());
  (*server)->Wait();

  std::fprintf(stderr, "t3_serve: shut down; final stats:\n%s",
               (*server)->StatsText().c_str());
  std::signal(SIGHUP, SIG_DFL);
  g_server = nullptr;
  return 0;
}

}  // namespace
}  // namespace t3

int main(int argc, char** argv) { return t3::Run(argc, argv); }
