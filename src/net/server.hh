/**
 * @file
 * srbd: the network front door of the routing fabric (DESIGN.md
 * "serving" layer). One epoll thread owns every socket and acts as
 * the single producer of a StreamEngine, so it runs every plan hit
 * to completion itself — lookup, gather, answer — at any fabric
 * size. Only a plan miss crosses a ring: the engine's worker
 * threads plan it and wake the loop back up through
 * StreamOptions::result_notify.
 *
 *   clients ──TCP──▶ event loop ──rings (misses)──▶ workers
 *      ▲                 │  ▲                         │
 *      └── SubmitResult ─┘  └─ result_notify (eventfd)┘
 *
 * Admission runs in strict order before a request reaches the
 * engine:
 *
 *   draining?            → Status::Draining
 *   dest the wrong size  → Status::BadRequest
 *   tenant bucket empty  → Status::OverQuota   (QuotaManager)
 *   connection at cap    → Status::Shed
 *   dest no permutation  → Status::BadRequest  (the engine's
 *                          validation of a request that misses)
 *   engine rings full    → Status::Shed        (backpressure on a
 *                          miss; a hit never waits on a ring)
 *
 * A Submit is served where its bytes are. The decoder parses it in
 * place, as a view over the connection's receive buffer; the loop
 * hashes its u32 tag lanes there, and Producer::serveHit checks them
 * against the resident plan and gathers the payload lanes straight
 * into a SubmitResult frame reserved in the send buffer. A hit takes
 * no pending_ entry, no result-queue slot and no heap allocation.
 * Only a miss copies its tags and payload out, and the engine
 * validates it (Producer::submitMiss) before its ring.
 *
 * A plan hit is its own validation, so whether a right-sized dest is
 * a permutation is known only inside the engine, after quota: a
 * malformed Submit costs its tenant a token. The engine's
 * shed-on-full-ring
 * semantics surface on the wire unchanged, and a slow READER is
 * handled one layer up: when a
 * connection's out-buffer passes the high watermark the server
 * stops reading that socket (EPOLLIN off) until it drains — TCP
 * then pushes back on the client.
 *
 * Writes are coalesced per loop pass: every answer a pass produces
 * (hits and refusals as its reads are handled, ring results after)
 * is queued first, then each connection it touched is flushed once
 * (one send() however many answers it carries), and EPOLL_CTL_MOD
 * is issued only when a connection's event mask actually changes.
 *
 * Graceful drain (SIGTERM → requestDrain(), async-signal-safe):
 * stop accepting, answer new submits with Draining, let every
 * in-flight request finish through the engine
 * (Producer::inFlight() == 0), flush every out-buffer, close, and
 * return from serve() — the daemon then exits 0 with no request
 * unanswered.
 */

#ifndef SRBENES_NET_SERVER_HH
#define SRBENES_NET_SERVER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/stream.hh"
#include "net/connection.hh"
#include "net/event_loop.hh"
#include "net/session.hh"

namespace srbenes
{
namespace net
{

struct ServerOptions
{
    /** Loopback by default; the daemon flag widens it. */
    std::string bind_address = "127.0.0.1";
    /** 0 = ephemeral (read the result from port()). */
    std::uint16_t port = 0;
    /** Fabric size exponent (N = 2^n lines). */
    unsigned n = 10;
    /** Engine configuration; producers is forced to 1 (the loop). */
    StreamOptions stream;
    QuotaOptions quota;
    std::size_t max_frame_bytes = kDefaultMaxFrame;
    std::size_t max_connections = 256;
    /** Per-connection in-flight cap before submits shed. */
    std::size_t max_conn_inflight = 4096;
    /**
     * Pause reading a connection above this many queued-out bytes.
     * Checked once per loop pass, after the pass's flush: an
     * out-buffer can pass it by at most one pass's answers (one
     * read budget's worth of submits) before reading pauses.
     */
    std::size_t write_high_watermark = 4u << 20;
    /** Resume reading below this (also checked once per pass). */
    std::size_t write_low_watermark = 1u << 20;
    /** Force-close connections still unflushed this long into a
     *  drain. */
    std::uint64_t drain_grace_ms = 10000;
    obs::MetricsRegistry *metrics = obs::defaultRegistry();
};

/**
 * Counter snapshot for tests and the bench (not an exporter) — a
 * view over the registry instruments, all zeros when
 * ServerOptions::metrics was nullptr. Safe to read from any thread
 * at any time.
 */
struct ServerStats
{
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t rejected_connections = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t submits = 0;
    std::uint64_t responses = 0;
    std::uint64_t ok = 0;
    std::uint64_t bad_requests = 0;
    std::uint64_t quota_rejected = 0;
    std::uint64_t sheds = 0;
    std::uint64_t draining_rejected = 0;
    std::uint64_t orphaned_results = 0;
    /** send() calls on client sockets. */
    std::uint64_t socket_writes = 0;
    /** EPOLL_CTL_MOD calls (event-mask changes). */
    std::uint64_t epoll_mods = 0;
    std::uint64_t inflight = 0;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** False when the listen socket or epoll failed to come up. */
    bool valid() const { return listen_fd_ >= 0 && loop_.valid(); }

    /** The bound port (resolves an ephemeral request). */
    std::uint16_t port() const { return port_; }

    unsigned n() const { return opts_.n; }
    Word numLines() const { return Word{1} << opts_.n; }

    /**
     * Run the accept/serve/drain loop on the calling thread until a
     * drain completes. Returns true iff the drain finished with no
     * request unanswered and every response flushed.
     */
    bool serve();

    /** serve() on a background thread (tests, in-process bench). */
    void start();
    /** Join the background thread; returns serve()'s result. */
    bool awaitStop();

    /**
     * Begin graceful shutdown. Async-signal-safe and callable from
     * any thread: flips an atomic and pokes the loop's eventfd.
     */
    void requestDrain();

    bool draining() const
    {
        // order: relaxed; an advisory cross-thread peek, the loop
        // re-reads it after every wakeup.
        return drain_requested_.load(std::memory_order_relaxed);
    }

    ServerStats stats() const;

  private:
    struct Pending
    {
        std::uint64_t conn_id;
        std::uint64_t client_id;
        bool had_payload;
    };

    void onAccept();
    void onConnEvent(std::uint64_t conn_id, std::uint32_t events);
    void handleMessage(Connection &conn, Message &&msg);
    /** Admit and serve a Submit read in place: a hit is answered
     *  from the view, a miss copies out and takes a ring. */
    void handleSubmit(Connection &conn, const SubmitView &m);
    void respond(Connection &conn, SubmitResultMsg &&m);
    /** A payload-less SubmitResult of status @p s, tier Failed. */
    void refuse(Connection &conn, std::uint64_t client_id, Status s);
    /** Count an answer queued on @p conn and mark it for the pass's
     *  flush. */
    void answered(Connection &conn, Status s);
    /** Flush @p conn once at the end of this loop pass. */
    void markFlush(Connection &conn);
    /** The srbd_responses_total series of @p s; null when metrics
     *  are off. */
    obs::Counter *statusCounter(Status s) const;
    void pumpResults();
    void flushConnection(Connection &conn);
    void updateMask(Connection &conn);
    void closeConnection(std::uint64_t conn_id);
    bool drainComplete();

    ServerOptions opts_;
    EventLoop loop_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::unique_ptr<StreamEngine> engine_;
    StreamEngine::Producer *producer_ = nullptr;
    QuotaManager quotas_;

    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        conns_;
    std::unordered_map<std::uint64_t, Pending> pending_;
    /** Connections with answers queued this pass, flushed once each
     *  by pumpResults(). */
    std::vector<std::uint64_t> flush_ids_;
    std::uint64_t next_conn_id_ = 1;
    std::uint64_t next_request_id_ = 1;
    std::uint64_t start_ns_ = 0;

    std::atomic<bool> drain_requested_{false};
    bool accepting_ = true;
    std::uint64_t drain_begin_ns_ = 0;
    bool drain_clean_ = true;

    std::thread thread_;
    bool serve_result_ = false;

    /** @{ Registry instruments; null when metrics are off. */
    obs::Counter *c_accepted_ = nullptr;
    obs::Counter *c_closed_ = nullptr;
    obs::Counter *c_conn_rejected_ = nullptr;
    obs::Counter *c_protocol_errors_ = nullptr;
    obs::Counter *c_submits_ = nullptr;
    /** srbd_responses_total, one series per Status, registered up
     *  front and indexed by the Status value (the gaps stay null). */
    std::array<obs::Counter *,
               static_cast<std::size_t>(Status::Draining) + 1>
        c_status_{};
    obs::Counter *c_orphaned_ = nullptr;
    obs::Counter *c_responses_ = nullptr;
    obs::Counter *c_socket_writes_ = nullptr;
    obs::Counter *c_epoll_mods_ = nullptr;
    obs::Gauge *g_connections_ = nullptr;
    obs::Gauge *g_inflight_ = nullptr;
    obs::Histogram *h_serve_ns_ = nullptr;
    /** @} */
};

} // namespace net
} // namespace srbenes

#endif // SRBENES_NET_SERVER_HH
