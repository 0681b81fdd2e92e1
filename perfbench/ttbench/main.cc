/**
 * @file
 * ttbench: the wall-clock benchmark's one binary.
 *
 *     ttbench prepare --cache DIR
 *         Untimed: train weights, collect the rule-training traces
 *         and record the output oracles into this build's directory
 *         under DIR (see buildCacheDir); a no-op once it is prepared.
 *     ttbench serve --stack asr|ic --cache DIR [--fair] [--traced]
 *         The server process (see server.cc).
 *     ttbench drive --workload W --seed S --seconds T --trace 0|1
 *                   --cache DIR --run-dir DIR
 *         The generator: boots servers, drives them over loopback and
 *         prints the result line (see driver.cc).
 *     ttbench selftest --cache DIR
 *         Checks the benchmark's own math; exits non-zero on failure.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/cli.hh"
#include "common/logging.hh"
#include "oracle.hh"
#include "stack.hh"

namespace perfbench {

int serveMain(int argc, char **argv);
int driveMain(int argc, char **argv);
int selftestMain(int argc, char **argv);

namespace {

int
prepareMain(int argc, char **argv)
{
    common::CliArgs args(argc, argv, {"cache"});
    std::string root = args.getString("cache", "");
    if (root.empty())
        common::fatal("prepare needs --cache");
    std::string dir = buildCacheDir(root);
    if (isPrepared(dir))
        return 0;
    std::filesystem::create_directories(dir);
    for (StackKind kind : {StackKind::Asr, StackKind::Ic}) {
        Stack stack(kind, dir, nullptr, /*prepare=*/true);
        Oracle::build(stack, 4).save(dir);
    }
    markPrepared(dir);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: ttbench prepare|serve|drive|selftest ...\n");
        return 2;
    }
    const char *cmd = argv[1];
    // Subcommand flags start at argv[2]; CliArgs skips argv[0].
    if (std::strcmp(cmd, "prepare") == 0)
        return prepareMain(argc - 1, argv + 1);
    if (std::strcmp(cmd, "serve") == 0)
        return serveMain(argc - 1, argv + 1);
    if (std::strcmp(cmd, "drive") == 0)
        return driveMain(argc - 1, argv + 1);
    if (std::strcmp(cmd, "selftest") == 0)
        return selftestMain(argc - 1, argv + 1);
    std::fprintf(stderr, "ttbench: unknown command '%s'\n", cmd);
    return 2;
}
