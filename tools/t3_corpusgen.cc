// t3_corpusgen — regenerates training corpora from live runs: datagen
// instances -> querygen plans -> engine execution -> featurizer vectors ->
// "t3corpus v1" text.
//
//   t3_corpusgen [--instances a,b] [--groups 0,10] [--queries N] [--runs N]
//                [--seed N] [--scale X] [--threads N] [--no-fixed]
//                [--out FILE]
//
// --instances — comma-separated instance names (default: all 21).
// --groups    — comma-separated structure-group codes 0..15 (default: all).
// --queries   — generated queries per (instance, group) (default 2).
// --runs      — timed executions per query; medians are stored (default 3).
// --seed      — datagen + querygen seed (default 42).
// --scale     — overrides every instance's scale factor (default: own).
// --no-fixed  — skip the fixed TPC-H-like/TPC-DS-like/JOB-like suites.
// --out       — write the corpus to FILE (default: stdout).
//
// Before writing, the corpus is re-parsed from its own serialization and
// re-serialized; the tool fails if the round-trip is not bit-exact.
//
// Exit status: 0 success, 1 generation/round-trip failure, 2 usage error.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli_util.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "harness/corpus.h"
#include "harness/runner.h"
#include "querygen/querygen.h"

namespace t3 {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: t3_corpusgen [--instances a,b] [--groups 0,10] [--queries N]\n"
      "                    [--runs N] [--seed N] [--scale X] [--threads N]\n"
      "                    [--no-fixed] [--out FILE]\n");
  return 2;
}

struct Args {
  std::vector<std::string> instances;  // empty = all
  std::vector<QueryGroup> groups;      // empty = all
  int queries = 2;
  int runs = 3;
  uint64_t seed = 42;
  double scale = 0.0;  // 0 = each instance's own scale.
  size_t threads = 0;  // 0 = single-threaded datagen.
  bool fixed = true;
  std::string out;  // empty = stdout.
};

constexpr const char* kTool = "t3_corpusgen";

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-fixed") {
      args->fixed = false;
    } else if (arg == "--instances") {
      std::string value;
      if (!CliValue(kTool, argc, argv, &i, "--instances", &value)) {
        return false;
      }
      args->instances = Split(value, ',');
      if (args->instances.empty()) {
        return CliError(kTool, "--instances",
                        "must name at least one instance");
      }
    } else if (arg == "--groups") {
      std::string value;
      if (!CliValue(kTool, argc, argv, &i, "--groups", &value)) return false;
      for (const std::string& token : Split(value, ',')) {
        uint64_t code = 0;
        if (!ParseUint64(token, &code) ||
            code >= static_cast<uint64_t>(kNumQueryGroups)) {
          return CliError(kTool, "--groups", "entries must be codes 0..15");
        }
        Result<QueryGroup> group = QueryGroupFromCode(static_cast<int>(code));
        if (!group.ok()) {
          return CliError(kTool, "--groups", "entries must be codes 0..15");
        }
        args->groups.push_back(*group);
      }
      if (args->groups.empty()) {
        return CliError(kTool, "--groups", "must name at least one group");
      }
    } else if (arg == "--queries") {
      uint64_t queries = 0;
      if (!CliUint64(kTool, argc, argv, &i, "--queries", 1, 10000,
                     "must be an integer in [1, 10000]", &queries)) {
        return false;
      }
      args->queries = static_cast<int>(queries);
    } else if (arg == "--runs") {
      uint64_t runs = 0;
      if (!CliUint64(kTool, argc, argv, &i, "--runs", 1, 1000,
                     "must be an integer in [1, 1000]", &runs)) {
        return false;
      }
      args->runs = static_cast<int>(runs);
    } else if (arg == "--seed") {
      if (!CliUint64(kTool, argc, argv, &i, "--seed", 0, UINT64_MAX,
                     "must be an unsigned integer", &args->seed)) {
        return false;
      }
    } else if (arg == "--scale") {
      if (!CliPositiveDouble(kTool, argc, argv, &i, "--scale",
                             &args->scale)) {
        return false;
      }
    } else if (arg == "--threads") {
      uint64_t threads = 0;
      if (!CliUint64(kTool, argc, argv, &i, "--threads", 0, 1024,
                     "must be an unsigned integer <= 1024", &threads)) {
        return false;
      }
      args->threads = static_cast<size_t>(threads);
    } else if (arg == "--out") {
      if (!CliValue(kTool, argc, argv, &i, "--out", &args->out)) {
        return false;
      }
      if (args->out.empty()) {
        return CliError(kTool, "--out", "must be a file path");
      }
    } else {
      return CliError(kTool, arg.c_str(), "is not a recognized argument");
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  std::unique_ptr<ThreadPool> pool;
  if (args.threads > 0) pool = std::make_unique<ThreadPool>(args.threads);
  LiveCorpusOptions options;
  options.instances = args.instances;
  options.groups = args.groups;
  options.queries_per_group = args.queries;
  options.fixed_suites = args.fixed;
  options.runs = args.runs;
  options.seed = args.seed;
  options.scale_override = args.scale;
  options.pool = pool.get();

  Result<Corpus> corpus = BuildLiveCorpus(options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "t3_corpusgen: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "t3_corpusgen: %zu records\n", corpus->records.size());

  // Self-check: the emitted text must round-trip bit-exactly through the
  // harness loader (the acceptance bar of the live pipeline).
  const std::string text = CorpusToText(*corpus);
  Result<Corpus> reparsed = ParseCorpus(text);
  if (!reparsed.ok()) {
    std::fprintf(stderr, "t3_corpusgen: emitted corpus does not parse: %s\n",
                 reparsed.status().ToString().c_str());
    return 1;
  }
  if (CorpusToText(*reparsed) != text) {
    std::fprintf(stderr,
                 "t3_corpusgen: round-trip through the corpus loader is not "
                 "bit-exact\n");
    return 1;
  }

  if (args.out.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  const Status saved = WriteStringToFile(args.out, text);
  if (!saved.ok()) {
    std::fprintf(stderr, "t3_corpusgen: %s\n", saved.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace t3

int main(int argc, char** argv) { return t3::Run(argc, argv); }
