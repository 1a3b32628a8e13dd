/**
 * @file
 * A minimal embedded HTTP/1.0 server for the live telemetry endpoints.
 *
 * One blocking-accept thread, one request per connection, Content-Length
 * framing, connection closed after every response — the smallest server
 * that `curl`, Prometheus scrapers, and `wget` all speak natively. A
 * client gets a short deadline to send its request head, so one idle
 * connection cannot wedge the thread for everyone else. No
 * keep-alive, no chunking, no TLS: this serves loopback-scale
 * observability traffic (`/metrics`, `/healthz`, `/progress`) from a
 * running sweep, not the public internet.
 *
 * Handlers run on the accept thread, so they must be fast and
 * thread-safe against the rest of the process (the telemetry monitor
 * hands out mutex-guarded snapshot copies for exactly this reason).
 * Binding port 0 picks an ephemeral port (see port()), which is what
 * the tests use.
 */

#ifndef VOLTBOOT_TELEMETRY_HTTP_SERVER_HH
#define VOLTBOOT_TELEMETRY_HTTP_SERVER_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace voltboot
{
namespace telemetry
{

/** One response: status code, content type, body. */
struct HttpResponse
{
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
};

/**
 * GET dispatcher: maps a request path ("/metrics") to a response.
 * Invoked on the server thread for every well-formed GET; return
 * status 404 for unknown paths.
 */
using HttpHandler = std::function<HttpResponse(const std::string &path)>;

/** The blocking-accept server. Listens from construction until stop()
 * or destruction. */
class HttpServer
{
  public:
    /**
     * Bind 0.0.0.0:@p port (0 = ephemeral), listen, and start the
     * accept thread. fatal() when the bind fails (port taken,
     * privileged port, no socket support).
     */
    HttpServer(uint16_t port, HttpHandler handler);
    ~HttpServer();
    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** The bound port (the kernel's pick when constructed with 0). */
    uint16_t port() const { return port_; }

    /** Close the listener, drop any in-flight connection and join the
     * accept thread. Idempotent. */
    void stop();

  private:
    void serveLoop();
    void serveConnection(int fd);

    HttpHandler handler_;
    int listen_fd_ = -1;
    uint16_t port_ = 0;
    /** Guards the in-flight connection handle against stop(). */
    std::mutex conn_mu_;
    int conn_fd_ = -1;
    bool stopping_ = false;
    std::thread thread_;
};

} // namespace telemetry
} // namespace voltboot

#endif // VOLTBOOT_TELEMETRY_HTTP_SERVER_HH
