/**
 * @file
 * The campaign daemon's transport: a Unix-domain stream socket
 * speaking the newline-delimited JSON protocol of server/protocol.hh.
 * One thread per connection; requests on a connection are answered in
 * order, except `subscribe`, whose event lines are interleaved by the
 * scheduler's worker threads under a per-connection write lock.
 *
 * Each Server owns a bounded memo of decoded inline circuits
 * (server/circuit_memo.hh, forward-declared here), so a fresh daemon
 * starts empty and a resubmitted circuit text is decoded once.
 *
 * Usable in-process (tests spin one up on a temp socket path and talk
 * to it through server::Client) and as the backing of the
 * `scal_serverd` binary.
 */

#ifndef SCAL_SERVER_SERVER_HH
#define SCAL_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/scheduler.hh"

namespace scal::server
{

class CircuitMemo;

class Server
{
  public:
    struct Options
    {
        std::string socketPath;
        Scheduler::Options scheduler;
    };

    explicit Server(Options opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and start accepting; throws on socket errors. */
    void start();

    /** Block until a shutdown request arrives or stop() is called. */
    void waitShutdown();

    /** Stop accepting, cancel all jobs, close connections (idempotent). */
    void stop();

    const std::string &socketPath() const { return opts_.socketPath; }
    Scheduler &scheduler() { return *scheduler_; }

  private:
    /** Per-connection state, kept alive by subscription callbacks. */
    struct Conn
    {
        int fd = -1;
        std::mutex writeMu;
        bool open = true; ///< guarded by writeMu
        std::thread thread;
    };

    void acceptLoop();
    void serveConnection(const std::shared_ptr<Conn> &conn);
    /** Handle one request line; returns false to close the connection. */
    bool handleLine(const std::shared_ptr<Conn> &conn,
                    const std::string &line, std::uint64_t lineNo);
    static void sendLine(const std::shared_ptr<Conn> &conn,
                         const std::string &line);

    Options opts_;
    std::unique_ptr<Scheduler> scheduler_;
    int listenFd_ = -1;
    std::thread acceptThread_;
    std::mutex mu_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;
    bool stopped_ = false;
    std::vector<std::shared_ptr<Conn>> conns_;
    /** Decoded inline circuits (server/circuit_memo.hh). */
    std::unique_ptr<CircuitMemo> circuits_;
};

} // namespace scal::server

#endif // SCAL_SERVER_SERVER_HH
