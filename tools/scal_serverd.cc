/**
 * @file
 * scal_serverd — the long-running campaign daemon.
 *
 *   scal_serverd --socket PATH [--max-inflight N] [--max-queued N]
 *                [--jobs N] [--cache-entries N] [--cache-bytes N]
 *                [--cache-dir DIR] [--progress-ms N]
 *                [--shard-exec SCAL_CLI] [--shard-dir DIR]
 *                [--shard-checkpoint-every N]
 *
 * With --shard-exec, a comb/seq submit whose config carries
 * "shards": N > 1 runs through the multi-process orchestrator: N
 * scal_cli workers each simulate one shard with checkpointing on,
 * killed workers are restarted from their checkpoints, and the merged
 * verdict (byte-identical to an inline run) lands in the same cache
 * entry.
 *
 * Listens on a Unix-domain socket for the newline-delimited JSON
 * protocol of src/server/protocol.hh: clients submit comb/seq/system
 * campaigns (inline circuit text or a path the daemon can read),
 * watch progress, and fetch verdicts. Repeated submissions of the
 * same (circuit, config) are served from the content-addressed
 * verdict cache — bit-identical to a fresh run. Runs until a client
 * sends `shutdown` or the process gets SIGINT/SIGTERM.
 */

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "fault/options.hh"
#include "server/server.hh"

namespace
{

scal::server::Server *g_server = nullptr;
std::atomic<bool> g_signalled{false};

void
onSignal(int)
{
    // Just flag it: Server::stop() takes locks, so it must not run in
    // signal context. The waitShutdown() below is woken via a second
    // self-delivered condition: we request shutdown from a thread.
    g_signalled.store(true, std::memory_order_relaxed);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " --socket PATH [--max-inflight N] [--max-queued N]\n"
           "       [--jobs N] [--cache-entries N] [--cache-bytes N]\n"
           "       [--cache-dir DIR] [--progress-ms N]\n"
           "       [--shard-exec SCAL_CLI] [--shard-dir DIR]\n"
           "       [--shard-checkpoint-every N]\n";
    std::exit(64);
}

} // namespace

int
main(int argc, char **argv)
{
    scal::server::Server::Options opts;
    opts.scheduler.progressInterval = std::chrono::milliseconds(500);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&] {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                usage(argv[0]);
            }
            return std::string(argv[++i]);
        };
        // Numbers go through the CLI's checked parser: trailing
        // garbage and a negative count are refused, not truncated or
        // wrapped.
        const auto number = [&]<class N>(N &field) {
            field = scal::fault::checkedNumber<N>(arg, value());
        };
        auto &sched = opts.scheduler;
        try {
            if (arg == "--socket")
                opts.socketPath = value();
            else if (arg == "--max-inflight")
                number(sched.maxInflight);
            else if (arg == "--max-queued")
                number(sched.maxQueued);
            else if (arg == "--jobs")
                number(sched.jobsPerCampaign);
            else if (arg == "--cache-entries")
                number(sched.cache.maxEntries);
            else if (arg == "--cache-bytes")
                number(sched.cache.maxBytes);
            else if (arg == "--cache-dir")
                sched.cache.spillDir = value();
            else if (arg == "--progress-ms")
                sched.progressInterval = std::chrono::milliseconds(
                    scal::fault::checkedNumber<long>(arg, value()));
            else if (arg == "--shard-exec")
                sched.shardExec = value();
            else if (arg == "--shard-dir")
                sched.shardWorkDir = value();
            else if (arg == "--shard-checkpoint-every")
                number(sched.shardCheckpointEvery);
            else
                usage(argv[0]);
        } catch (const std::exception &e) {
            std::cerr << "scal_serverd: " << e.what() << "\n";
            usage(argv[0]);
        }
    }
    if (opts.socketPath.empty())
        usage(argv[0]);

    try {
        scal::server::Server server(std::move(opts));
        g_server = &server;
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::signal(SIGPIPE, SIG_IGN);
        server.start();
        std::cerr << "scal_serverd: listening on "
                  << server.socketPath() << "\n";
        // Poll the signal flag alongside protocol-driven shutdown: a
        // cheap watcher thread turns the async signal into a clean
        // stop request.
        std::thread watcher([&server] {
            while (!g_signalled.load(std::memory_order_relaxed))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
            server.stop(); // idempotent; protocol shutdown may race it
        });
        server.waitShutdown();
        g_signalled.store(true, std::memory_order_relaxed);
        watcher.join();
        server.stop();
        std::cerr << "scal_serverd: shut down\n";
    } catch (const std::exception &e) {
        std::cerr << "scal_serverd: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
