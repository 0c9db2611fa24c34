#include "server/server.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "server/circuit_memo.hh"
#include "server/jsonl.hh"
#include "server/protocol.hh"

namespace scal::server
{

Server::Server(Options opts)
    : opts_(std::move(opts)),
      scheduler_(std::make_unique<Scheduler>(opts_.scheduler)),
      circuits_(std::make_unique<CircuitMemo>())
{
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (opts_.socketPath.empty())
        throw std::runtime_error("server: no socket path");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socketPath.size() >= sizeof addr.sun_path)
        throw std::runtime_error("server: socket path too long: " +
                                 opts_.socketPath);
    std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                 sizeof addr.sun_path - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error(std::string("server: socket: ") +
                                 std::strerror(errno));
    ::unlink(opts_.socketPath.c_str()); // stale socket from a crash
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0 ||
        ::listen(listenFd_, 64) < 0) {
        const std::string err = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("server: bind/listen " +
                                 opts_.socketPath + ": " + err);
    }
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::waitShutdown()
{
    std::unique_lock<std::mutex> lock(mu_);
    shutdownCv_.wait(lock, [&] { return shutdownRequested_; });
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_)
            return;
        stopped_ = true;
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    // Scheduler first: cancels jobs and delivers every pending
    // terminal event, releasing all subscription callbacks (and with
    // them their Conn references) before connections are torn down.
    scheduler_->stop();
    std::vector<std::shared_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lock(mu_);
        conns.swap(conns_);
    }
    for (const auto &conn : conns) {
        {
            std::lock_guard<std::mutex> lock(conn->writeMu);
            if (conn->open)
                ::shutdown(conn->fd, SHUT_RDWR);
        }
        if (conn->thread.joinable())
            conn->thread.join();
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(opts_.socketPath.c_str());
    }
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stopped_) {
                ::close(fd);
                return;
            }
            conn->thread =
                std::thread([this, conn] { serveConnection(conn); });
            conns_.push_back(conn);
        }
    }
}

void
Server::sendLine(const std::shared_ptr<Conn> &conn,
                 const std::string &line)
{
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (!conn->open)
        return;
    std::string out = line;
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n = ::send(conn->fd, out.data() + off,
                                 out.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return; // peer gone; reader will notice and clean up
        off += static_cast<std::size_t>(n);
    }
}

void
Server::serveConnection(const std::shared_ptr<Conn> &conn)
{
    jsonl::LineBuffer buf;
    char chunk[4096];
    std::uint64_t lineNo = 0;
    bool keepGoing = true;
    while (keepGoing) {
        const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            break;
        buf.feed(chunk, static_cast<std::size_t>(n));
        std::string line;
        while (keepGoing && buf.pop(&line)) {
            if (line.empty())
                continue;
            keepGoing = handleLine(conn, line, ++lineNo);
        }
        if (keepGoing && buf.overlong()) {
            // The stream cannot be framed any further: answer and
            // drop this connection only.
            sendLine(conn,
                     errorResponse("request line longer than " +
                                       std::to_string(jsonl::kMaxLineBytes) +
                                       " bytes",
                                   ++lineNo)
                         .dump());
            break;
        }
    }
    std::lock_guard<std::mutex> lock(conn->writeMu);
    conn->open = false;
    ::close(conn->fd);
    conn->fd = -1;
}

bool
Server::handleLine(const std::shared_ptr<Conn> &conn,
                   const std::string &line, std::uint64_t lineNo)
{
    jsonl::Value req;
    std::string op;
    try {
        req = jsonl::parse(line);
        if (!req.isObject())
            throw std::runtime_error("request must be a JSON object");
        const jsonl::Value *opv = req.find("op");
        if (!opv)
            throw std::runtime_error("request has no \"op\"");
        op = opv->asString();
    } catch (const jsonl::ParseError &e) {
        sendLine(conn, errorResponse(std::string("bad JSON: ") +
                                         e.what(),
                                     lineNo)
                           .dump());
        return true;
    } catch (const std::exception &e) {
        sendLine(conn, errorResponse(e.what(), lineNo).dump());
        return true;
    }

    try {
        if (op == "submit") {
            const SubmitOutcome out =
                scheduler_->submit(buildJobConfig(req, circuits_.get()));
            sendLine(conn, submitResponse(out).dump());
            return true;
        }

        if (op == "status" || op == "result" || op == "cancel" ||
            op == "subscribe") {
            const jsonl::Value *idv = req.find("id");
            if (!idv)
                throw std::runtime_error(op + " needs \"id\"");
            const std::uint64_t id = idv->asUint64();
            if (op == "status") {
                JobInfo info;
                if (!scheduler_->info(id, &info))
                    throw std::runtime_error("no such job " +
                                             std::to_string(id));
                sendLine(conn, jobResponse(info, false).dump());
            } else if (op == "result") {
                JobInfo info;
                if (!scheduler_->wait(id, &info))
                    throw std::runtime_error("no such job " +
                                             std::to_string(id));
                sendLine(conn, jobResponse(info, true).dump());
            } else if (op == "cancel") {
                if (!scheduler_->cancel(id))
                    throw std::runtime_error("no such job " +
                                             std::to_string(id));
                jsonl::Object o;
                o.emplace_back("ok", jsonl::Value(true));
                o.emplace_back("id", jsonl::Value(id));
                sendLine(conn, jsonl::Value(std::move(o)).dump());
            } else { // subscribe
                // Ack first so the client can rely on "everything
                // after the ack is an event".
                JobInfo probe;
                if (!scheduler_->info(id, &probe))
                    throw std::runtime_error("no such job " +
                                             std::to_string(id));
                jsonl::Object o;
                o.emplace_back("ok", jsonl::Value(true));
                o.emplace_back("id", jsonl::Value(id));
                o.emplace_back("subscribed", jsonl::Value(true));
                sendLine(conn, jsonl::Value(std::move(o)).dump());
                std::shared_ptr<Conn> sink = conn;
                scheduler_->subscribe(
                    id, [sink](const jsonl::Value &ev) {
                        sendLine(sink, ev.dump());
                    });
            }
            return true;
        }

        if (op == "list") {
            sendLine(conn, listResponse(scheduler_->list()).dump());
            return true;
        }
        if (op == "stats") {
            jsonl::Value stats = statsResponse(scheduler_->stats(),
                                               scheduler_->cacheStats());
            stats.set("circuits", circuitStatsJson(circuits_->stats()));
            sendLine(conn, stats.dump());
            return true;
        }
        if (op == "shutdown") {
            jsonl::Object o;
            o.emplace_back("ok", jsonl::Value(true));
            o.emplace_back("shutting_down", jsonl::Value(true));
            sendLine(conn, jsonl::Value(std::move(o)).dump());
            {
                std::lock_guard<std::mutex> lock(mu_);
                shutdownRequested_ = true;
            }
            shutdownCv_.notify_all();
            return false;
        }
        throw std::runtime_error("unknown op '" + op + "'");
    } catch (const std::exception &e) {
        sendLine(conn, errorResponse(e.what(), lineNo).dump());
        return true;
    }
}

} // namespace scal::server
