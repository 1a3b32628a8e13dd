#include "telemetry/http_server.hh"

#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace voltboot
{
namespace telemetry
{

namespace
{

/** Requests larger than this are garbage, not GETs. */
constexpr size_t kMaxRequestBytes = 8192;

/** A client gets this long to deliver its whole request head; an idle
 * or trickling connection is dropped after it so the next client is
 * served. Loopback scrapers send their request at once. */
constexpr std::chrono::milliseconds kRequestDeadline{2000};

const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      default: return "Internal Server Error";
    }
}

/** Write all of @p data; swallow errors (client went away). */
void
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        // MSG_NOSIGNAL: a client that closed early must not SIGPIPE
        // the whole process.
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return;
        off += static_cast<size_t>(n);
    }
}

} // namespace

HttpServer::HttpServer(uint16_t port, HttpHandler handler)
    : handler_(std::move(handler))
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        fatal("telemetry: cannot create listen socket: ",
              std::strerror(errno));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        fatal("telemetry: cannot bind port ", port, ": ",
              std::strerror(err));
    }
    if (::listen(listen_fd_, 8) != 0) {
        const int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        fatal("telemetry: cannot listen: ", std::strerror(err));
    }

    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    thread_ = std::thread([this] { serveLoop(); });
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::stop()
{
    if (listen_fd_ < 0)
        return;
    // shutdown() wakes the blocked accept() or the in-flight request
    // read; the loop then sees the error and exits.
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        stopping_ = true;
        if (conn_fd_ >= 0)
            ::shutdown(conn_fd_, SHUT_RDWR);
    }
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable())
        thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
}

void
HttpServer::serveLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down (or unrecoverable)
        }
        {
            // Publish the connection so stop() can shut it down; the
            // lock keeps stop() from touching an fd closed below.
            std::lock_guard<std::mutex> lock(conn_mu_);
            if (stopping_) {
                ::close(fd);
                return;
            }
            conn_fd_ = fd;
        }
        serveConnection(fd);
        std::lock_guard<std::mutex> lock(conn_mu_);
        conn_fd_ = -1;
        ::close(fd);
    }
}

void
HttpServer::serveConnection(int fd)
{
    // Read until the end of the request head; we ignore any body. A
    // client that misses the deadline is dropped without a response.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + kRequestDeadline;
    std::string req;
    char buf[1024];
    while (req.size() < kMaxRequestBytes &&
           req.find("\r\n\r\n") == std::string::npos &&
           req.find("\n\n") == std::string::npos) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline - Clock::now());
        pollfd pfd{fd, POLLIN, 0};
        if (left.count() <= 0 ||
            ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0)
            return;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        req.append(buf, static_cast<size_t>(n));
    }

    // Request line: METHOD SP PATH SP VERSION.
    HttpResponse resp;
    const size_t eol = req.find_first_of("\r\n");
    const std::string line =
        eol == std::string::npos ? req : req.substr(0, eol);
    const size_t sp1 = line.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
        resp.status = 400;
        resp.body = "malformed request\n";
    } else if (line.substr(0, sp1) != "GET") {
        resp.status = 405;
        resp.body = "only GET is supported\n";
    } else {
        std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
        // Strip any query string; the endpoints take no parameters.
        if (const size_t q = path.find('?'); q != std::string::npos)
            path.resize(q);
        resp = handler_(path);
    }

    std::string out = "HTTP/1.0 " + std::to_string(resp.status) + " " +
                      statusText(resp.status) + "\r\n";
    out += "Content-Type: " + resp.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(resp.body.size()) +
           "\r\n";
    out += "Connection: close\r\n\r\n";
    out += resp.body;
    sendAll(fd, out);
}

} // namespace telemetry
} // namespace voltboot
