/**
 * @file
 * srbd: the self-routing Benes network daemon.
 *
 * Serves the srbd wire protocol (src/net/protocol.hh) on a TCP
 * socket, routing every submitted permutation through a
 * StreamEngine. SIGTERM / SIGINT trigger the graceful drain: stop
 * accepting, answer everything in flight, flush, exit 0. Any
 * dirtier ending exits nonzero — the CI soak relies on the exit
 * code as the drain verdict.
 *
 *   srbd [--bind=A] [--port=P] [--n=K] [--workers=W]
 *        [--rate=R] [--burst=B] [--max-conns=C] [--quiet]
 *
 * The bound address is printed as soon as the socket is up:
 *
 *   srbd: listening on 127.0.0.1:40913 (n=10, N=1024, workers=2)
 *
 * which is what scripts/service_soak.sh parses to find an
 * ephemeral port.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/server.hh"

namespace
{

srbenes::net::Server *g_server = nullptr;

void
onSignal(int)
{
    // requestDrain is async-signal-safe: an atomic flip plus an
    // eventfd write.
    if (g_server != nullptr)
        g_server->requestDrain();
}

bool
parseFlag(const char *arg, const char *name, std::string &out)
{
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return false;
    out = arg + len + 1;
    return true;
}

void
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--bind=ADDR] [--port=PORT] [--n=LOG2_LINES]\n"
        "          [--workers=K] [--rate=SUBMITS_PER_SEC_PER_TENANT]\n"
        "          [--burst=TOKENS] [--max-conns=C] [--quiet]\n"
        "\n"
        "Serves the srbd binary protocol; --port=0 picks an\n"
        "ephemeral port (printed on stdout). --rate=0 disables\n"
        "tenant quotas. SIGTERM drains gracefully and exits 0.\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace srbenes::net;

    ServerOptions opts;
    opts.n = 10;
    opts.stream.workers = 2;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (parseFlag(argv[i], "--bind", v)) {
            opts.bind_address = v;
        } else if (parseFlag(argv[i], "--port", v)) {
            opts.port = static_cast<std::uint16_t>(std::stoul(v));
        } else if (parseFlag(argv[i], "--n", v)) {
            opts.n = static_cast<unsigned>(std::stoul(v));
        } else if (parseFlag(argv[i], "--workers", v)) {
            opts.stream.workers =
                static_cast<unsigned>(std::stoul(v));
        } else if (parseFlag(argv[i], "--rate", v)) {
            opts.quota.rate_per_sec = std::stod(v);
        } else if (parseFlag(argv[i], "--burst", v)) {
            opts.quota.burst = std::stod(v);
        } else if (parseFlag(argv[i], "--max-conns", v)) {
            opts.max_connections = std::stoul(v);
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    // n=16 is the largest fabric whose payload Submit (12 bytes a
    // line) fits the protocol's 1 MiB frame cap.
    if (opts.n < 1 || opts.n > 16) {
        std::fprintf(stderr, "srbd: --n must be in [1, 16]\n");
        return 2;
    }

    Server server(opts);
    if (!server.valid()) {
        std::fprintf(stderr, "srbd: failed to bind %s:%u\n",
                     opts.bind_address.c_str(),
                     unsigned(opts.port));
        return 1;
    }
    g_server = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    // A client vanishing mid-write must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("srbd: listening on %s:%u (n=%u, N=%llu, "
                "workers=%u)\n",
                opts.bind_address.c_str(), unsigned(server.port()),
                server.n(),
                static_cast<unsigned long long>(server.numLines()),
                opts.stream.workers);
    std::fflush(stdout);

    const bool clean = server.serve();
    const ServerStats stats = server.stats();
    if (!quiet) {
        std::printf(
            "srbd: drained %s; submits=%llu responses=%llu "
            "ok=%llu shed=%llu over_quota=%llu "
            "protocol_errors=%llu\n",
            clean ? "clean" : "DIRTY",
            static_cast<unsigned long long>(stats.submits),
            static_cast<unsigned long long>(stats.responses),
            static_cast<unsigned long long>(stats.ok),
            static_cast<unsigned long long>(stats.sheds),
            static_cast<unsigned long long>(stats.quota_rejected),
            static_cast<unsigned long long>(stats.protocol_errors));
        std::fflush(stdout);
    }
    g_server = nullptr;
    return clean ? 0 : 1;
}
