/**
 * @file
 * srbd server implementation. Single-threaded invariant: everything
 * in here except requestDrain() and stats() runs on the serve()
 * thread, so connection and pending-request state needs no locks.
 * The engine's worker threads only touch the engine's own rings and
 * the loop's wakeup eventfd.
 */

#include "net/server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/export.hh"

namespace srbenes
{
namespace net
{
namespace
{

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::uint64_t
counterValue(const obs::Counter *c)
{
    return c != nullptr ? c->value() : 0;
}

/** Body bytes of the largest Submit at @p n: one with a payload. */
std::size_t
largestSubmitBody(unsigned n)
{
    // type, id, tenant, deadline, num_lines, has_payload; then a u32
    // tag and a u64 payload word per line.
    constexpr std::size_t kHeader = 1 + 3 * 8 + 4 + 1;
    return n >= 32 ? SIZE_MAX : kHeader + (std::size_t{12} << n);
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), quotas_(opts_.quota, opts_.metrics)
{
    // A fabric whose own full-size requests the decoder would refuse
    // could only ever answer with a protocol error: refuse to serve.
    if (largestSubmitBody(opts_.n) > opts_.max_frame_bytes) {
        warn("srbd: n=%u needs Submit frames of %zu bytes, over the "
             "%zu-byte frame cap",
             opts_.n, largestSubmitBody(opts_.n),
             opts_.max_frame_bytes);
        return;
    }
    // The event loop is the engine's single producer; its workers
    // wake the loop through the eventfd when a result lands.
    opts_.stream.producers = 1;
    opts_.stream.metrics = opts_.metrics;
    opts_.stream.result_notify = [this](unsigned) { loop_.wakeup(); };
    engine_ = std::make_unique<StreamEngine>(opts_.n, opts_.stream);
    producer_ = &engine_->producer(0);

    if (obs::MetricsRegistry *reg = opts_.metrics) {
        c_accepted_ =
            &reg->counter("srbd_connections_accepted_total");
        c_closed_ = &reg->counter("srbd_connections_closed_total");
        c_conn_rejected_ =
            &reg->counter("srbd_connections_rejected_total");
        c_protocol_errors_ =
            &reg->counter("srbd_protocol_errors_total");
        c_submits_ = &reg->counter("srbd_submits_total");
        for (Status s :
             {Status::Ok, Status::NotInF, Status::FaultDetected,
              Status::DeadlineExceeded, Status::Shed, Status::OverQuota,
              Status::BadRequest, Status::Draining})
            c_status_[static_cast<std::size_t>(s)] = &reg->counter(
                "srbd_responses_total", {{"status", statusName(s)}});
        c_orphaned_ = &reg->counter("srbd_orphaned_results_total");
        c_responses_ = &reg->counter("srbd_responses_sent_total");
        c_socket_writes_ = &reg->counter("srbd_socket_writes_total");
        c_epoll_mods_ = &reg->counter("srbd_epoll_mods_total");
        g_connections_ = &reg->gauge("srbd_active_connections");
        g_inflight_ = &reg->gauge("srbd_inflight_requests");
        h_serve_ns_ = &reg->histogram("srbd_serve_ns");
    }

    if (!loop_.valid())
        return;

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        warn("srbd: socket() failed: %s", std::strerror(errno));
        return;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.port);
    if (::inet_pton(AF_INET, opts_.bind_address.c_str(),
                    &addr.sin_addr) != 1) {
        warn("srbd: bad bind address %s", opts_.bind_address.c_str());
        ::close(listen_fd_);
        listen_fd_ = -1;
        return;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0 ||
        !setNonBlocking(listen_fd_)) {
        warn("srbd: bind/listen on %s:%u failed: %s",
             opts_.bind_address.c_str(), unsigned(opts_.port),
             std::strerror(errno));
        ::close(listen_fd_);
        listen_fd_ = -1;
        return;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        port_ = ntohs(bound.sin_port);

    loop_.add(listen_fd_, EPOLLIN,
              [this](std::uint32_t) { onAccept(); });
}

Server::~Server()
{
    if (thread_.joinable()) {
        requestDrain();
        thread_.join();
    }
    if (engine_ && engine_->running())
        engine_->stop();
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
}

void
Server::start()
{
    thread_ = std::thread([this] { serve_result_ = serve(); });
}

bool
Server::awaitStop()
{
    if (thread_.joinable())
        thread_.join();
    return serve_result_;
}

void
Server::requestDrain()
{
    // order: relaxed store + eventfd wakeup; the loop re-reads the
    // flag after epoll_wait returns, so no ordering edge is needed
    // beyond the wakeup itself. Both calls are async-signal-safe.
    drain_requested_.store(true, std::memory_order_relaxed);
    loop_.wakeup();
}

bool
Server::serve()
{
    if (!valid())
        return false;
    start_ns_ = obs::monotonicNs();
    engine_->start();

    for (;;) {
        const bool draining =
            // order: relaxed; see requestDrain().
            drain_requested_.load(std::memory_order_relaxed);
        if (draining && accepting_) {
            // Drain step 1: stop accepting. One final backlog sweep
            // first — a client whose TCP handshake completed before
            // the signal deserves an answer (Draining), not a reset.
            // Connected clients keep their sockets.
            onAccept();
            loop_.del(listen_fd_);
            ::close(listen_fd_);
            listen_fd_ = -1;
            accepting_ = false;
            drain_begin_ns_ = obs::monotonicNs();
        }
        if (!accepting_ && drainComplete()) {
            // Submits that reached the kernel before the drain
            // signal must still be answered: keep taking
            // zero-timeout passes until a pass moves nothing, and
            // only then declare the drain over. Grace expiry bounds
            // a client that chatters forever.
            const bool expired =
                drain_begin_ns_ != 0 &&
                obs::monotonicNs() - drain_begin_ns_ >
                    opts_.drain_grace_ms * 1000000ULL;
            const int events = loop_.runOnce(0);
            if (events < 0)
                break;
            pumpResults();
            if (expired || (events == 0 && drainComplete()))
                break;
            continue;
        }

        // With result_notify wired to the eventfd the loop can
        // sleep: completions, submits, and requestDrain() all wake
        // it. The timeout is only a safety net.
        const int timeout_ms = producer_->inFlight() > 0 ? 10 : 200;
        if (loop_.runOnce(timeout_ms) < 0)
            break;
        pumpResults();
    }

    // Drain step 2 fallback: the loop exits with pending_ empty in
    // the normal case; anything left (grace expiry) is force-closed
    // below and counted against drain_clean_.
    engine_->stop();
    for (auto &[id, conn] : conns_) {
        if (conn->wantsWrite() && !conn->flush())
            drain_clean_ = false;
        if (conn->wantsWrite())
            drain_clean_ = false;
        loop_.del(conn->fd());
        if (c_closed_)
            c_closed_->inc();
    }
    conns_.clear();
    if (g_connections_)
        g_connections_->set(0);
    return drain_clean_ && pending_.empty();
}

bool
Server::drainComplete()
{
    if (!pending_.empty() || producer_->inFlight() > 0) {
        // Grace expiry: a client that stopped reading its socket
        // cannot hold the daemon up forever.
        if (drain_begin_ns_ != 0 &&
            obs::monotonicNs() - drain_begin_ns_ >
                opts_.drain_grace_ms * 1000000ULL) {
            drain_clean_ = false;
            return true;
        }
        return false;
    }
    for (const auto &[id, conn] : conns_)
        if (conn->wantsWrite()) {
            if (drain_begin_ns_ != 0 &&
                obs::monotonicNs() - drain_begin_ns_ >
                    opts_.drain_grace_ms * 1000000ULL) {
                drain_clean_ = false;
                return true;
            }
            return false;
        }
    return true;
}

void
Server::onAccept()
{
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                return;
            warn("srbd: accept failed: %s", std::strerror(errno));
            return;
        }
        if (conns_.size() >= opts_.max_connections) {
            if (c_conn_rejected_)
                c_conn_rejected_->inc();
            ::close(fd);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const std::uint64_t id = next_conn_id_++;
        auto conn = std::make_unique<Connection>(
            fd, id, opts_.max_frame_bytes, c_socket_writes_);
        loop_.add(fd, EPOLLIN, [this, id](std::uint32_t events) {
            onConnEvent(id, events);
        });
        conn->registered_events = EPOLLIN;
        conns_.emplace(id, std::move(conn));
        if (c_accepted_)
            c_accepted_->inc();
        if (g_connections_)
            g_connections_->set(
                static_cast<std::int64_t>(conns_.size()));
    }
}

void
Server::onConnEvent(std::uint64_t conn_id, std::uint32_t events)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    Connection &conn = *it->second;

    if (events & (EPOLLHUP | EPOLLERR)) {
        closeConnection(conn_id);
        return;
    }
    if ((events & EPOLLOUT) != 0) {
        if (!conn.flush()) {
            closeConnection(conn_id);
            return;
        }
        updateMask(conn);
    }
    if ((events & EPOLLIN) != 0 && !conn.reading_paused) {
        if (conn.readReady() == Connection::ReadResult::Closed) {
            closeConnection(conn_id);
            return;
        }
        // Every frame read is handled before the next read, so a
        // Submit's view into the receive buffer outlives its serve.
        // Answers are flushed once, at the end of the pass.
        Frame frame;
        std::string error;
        for (;;) {
            const DecodeStatus st = conn.next(frame, &error);
            if (st == DecodeStatus::NeedMore)
                break;
            if (st == DecodeStatus::Error) {
                if (c_protocol_errors_)
                    c_protocol_errors_->inc();
                warn("srbd: protocol error on connection %llu: %s",
                     static_cast<unsigned long long>(conn_id),
                     error.c_str());
                closeConnection(conn_id);
                return;
            }
            if (frame.type == MsgType::Submit) {
                handleSubmit(conn, frame.submit);
                continue;
            }
            handleMessage(conn, std::move(frame.message));
            if (conns_.find(conn_id) == conns_.end())
                return; // handler closed us
        }
    }
}

void
Server::handleMessage(Connection &conn, Message &&msg)
{
    if (std::get_if<HealthMsg>(&msg) != nullptr) {
        HealthResultMsg h;
        h.state = draining() ? ServeState::Draining
                             : ServeState::Serving;
        h.n = opts_.n;
        h.workers = opts_.stream.workers;
        h.uptime_ns = obs::monotonicNs() - start_ns_;
        h.served = counterValue(c_responses_);
        h.inflight = producer_->inFlight();
        conn.queue(Message{h});
        markFlush(conn);
        return;
    }
    if (auto *stats = std::get_if<StatsMsg>(&msg)) {
        StatsResultMsg s;
        s.format = stats->format;
        if (opts_.metrics != nullptr)
            s.body = stats->format == StatsFormat::Json
                         ? obs::exportJson(*opts_.metrics)
                         : obs::exposeText(*opts_.metrics);
        conn.queue(Message{s});
        markFlush(conn);
        return;
    }
    // A client has no business sending server-to-client types;
    // treat it as a protocol error and drop the connection.
    if (c_protocol_errors_)
        c_protocol_errors_->inc();
    closeConnection(conn.id());
}

obs::Counter *
Server::statusCounter(Status s) const
{
    const auto i = static_cast<std::size_t>(s);
    return i < c_status_.size() ? c_status_[i] : nullptr;
}

void
Server::answered(Connection &conn, Status s)
{
    if (obs::Counter *c = statusCounter(s))
        c->inc();
    if (c_responses_)
        c_responses_->inc();
    markFlush(conn);
}

void
Server::markFlush(Connection &conn)
{
    if (!conn.flush_pending) {
        conn.flush_pending = true;
        flush_ids_.push_back(conn.id());
    }
}

void
Server::respond(Connection &conn, SubmitResultMsg &&m)
{
    const Status s = m.status;
    conn.queue(Message{std::move(m)});
    answered(conn, s);
}

void
Server::refuse(Connection &conn, std::uint64_t client_id, Status s)
{
    std::uint8_t *frame = conn.reserve(kSubmitResultHead);
    putSubmitResultHead(frame, client_id, s, ServeTier::Failed, 0, 0);
    conn.commit(kSubmitResultHead);
    answered(conn, s);
}

void
Server::handleSubmit(Connection &conn, const SubmitView &m)
{
    if (c_submits_)
        c_submits_->inc();
    if (draining()) {
        refuse(conn, m.id, Status::Draining);
        return;
    }
    // A wrong-sized pattern is refused at once. Whether a right-sized
    // one is a permutation is known only after the plan-tier lookup
    // (a hit proves it; the engine validates anything else), so such
    // a Submit is charged its quota token before it is refused.
    const Word N = numLines();
    if (m.num_lines != N) {
        refuse(conn, m.id, Status::BadRequest);
        return;
    }
    // One clock read stamps admission, the deadline and the submit.
    const std::uint64_t now = obs::monotonicNs();
    if (!quotas_.tryAdmit(m.tenant, now)) {
        refuse(conn, m.id, Status::OverQuota);
        return;
    }
    if (conn.inflight >= opts_.max_conn_inflight) {
        refuse(conn, m.id, Status::Shed);
        return;
    }
    // A deadline the clock cannot represent is no deadline: past
    // 2^64 ns the sum would wrap into the past.
    const std::uint64_t deadline =
        m.deadline_rel_ns != 0 && m.deadline_rel_ns <= UINT64_MAX - now
            ? now + m.deadline_rel_ns
            : 0;

    // A hit is served where its bytes are: the tag lanes are hashed
    // and checked in the receive buffer, and the payload is gathered
    // from it straight into a SubmitResult frame reserved in the send
    // buffer, which is committed only if the hit is served.
    const Hash128 hash = hashTags128(m.tags, N);
    const std::uint32_t count = m.has_payload ? m.num_lines : 0;
    const std::size_t frame_len =
        kSubmitResultHead + std::size_t{count} * 8;
    std::uint8_t *frame = conn.reserve(frame_len);
    if (const std::uint64_t done = producer_->serveHit(
            m.tags, hash, m.payload, frame + kSubmitResultHead, now,
            deadline)) {
        putSubmitResultHead(frame, m.id, Status::Ok, ServeTier::Primary,
                            done - now, count);
        conn.commit(frame_len);
        if (h_serve_ns_)
            h_serve_ns_->observe(done - now);
        answered(conn, Status::Ok);
        return;
    }

    // Only a request that takes a ring copies its tags and payload
    // out of the frame.
    std::vector<Word> dest;
    m.copyTags(dest);
    std::vector<Word> payload;
    if (m.has_payload) {
        m.copyPayload(payload);
    } else {
        // Control-plane submit: route the identity payload so the
        // serve is still tag-verified end to end, echo nothing.
        payload.resize(N);
        for (Word i = 0; i < N; ++i)
            payload[i] = i;
    }
    const std::uint64_t sid = next_request_id_++;
    switch (producer_->submitMiss(sid, hash, now, std::move(dest), payload,
                                  deadline)) {
      case SubmitOutcome::Accepted:
        break;
      case SubmitOutcome::Shed:
        // Engine backpressure: the affine ring and its spill
        // neighbour are full. This is the wire form of
        // shed-on-full-ring.
        refuse(conn, m.id, Status::Shed);
        return;
      case SubmitOutcome::Malformed:
        refuse(conn, m.id, Status::BadRequest);
        return;
    }
    pending_.emplace(sid, Pending{conn.id(), m.id, m.has_payload});
    ++conn.inflight;
    if (g_inflight_)
        g_inflight_->set(static_cast<std::int64_t>(pending_.size()));
}

void
Server::pumpResults()
{
    StreamResult res;
    bool any = false;
    while (producer_->tryPoll(res)) {
        any = true;
        auto it = pending_.find(res.id);
        if (it == pending_.end()) {
            if (c_orphaned_)
                c_orphaned_->inc();
            continue;
        }
        const Pending p = it->second;
        pending_.erase(it);

        auto cit = conns_.find(p.conn_id);
        if (cit == conns_.end()) {
            // The client went away mid-request; the work is done,
            // the answer has nowhere to go.
            if (c_orphaned_)
                c_orphaned_->inc();
            continue;
        }
        Connection &conn = *cit->second;
        if (conn.inflight > 0)
            --conn.inflight;

        SubmitResultMsg out;
        out.id = p.client_id;
        out.status = statusFromErrc(res.status);
        out.tier = res.tier;
        out.server_ns = res.latencyNs();
        if (p.had_payload && res.ok())
            out.payload = std::move(res.payload);
        if (h_serve_ns_)
            h_serve_ns_->observe(res.latencyNs());
        respond(conn, std::move(out));
    }
    if (any && g_inflight_)
        g_inflight_->set(static_cast<std::int64_t>(pending_.size()));

    // One flush per connection per pass, however many answers the
    // pass queued on it — hits and refusals from its reads, results
    // from the rings; the watermark check in updateMask() runs once
    // per pass with it.
    for (std::uint64_t id : flush_ids_) {
        auto cit = conns_.find(id);
        if (cit == conns_.end())
            continue;
        cit->second->flush_pending = false;
        flushConnection(*cit->second);
    }
    flush_ids_.clear();
}

void
Server::flushConnection(Connection &conn)
{
    if (!conn.flush()) {
        closeConnection(conn.id());
        return;
    }
    updateMask(conn);
}

void
Server::updateMask(Connection &conn)
{
    // Backpressure on a slow reader: above the high watermark stop
    // reading (and thus admitting) from this client until TCP has
    // taken the backlog back under the low watermark.
    if (!conn.reading_paused &&
        conn.pendingOut() > opts_.write_high_watermark)
        conn.reading_paused = true;
    else if (conn.reading_paused &&
             conn.pendingOut() < opts_.write_low_watermark)
        conn.reading_paused = false;

    std::uint32_t events =
        conn.reading_paused ? 0u : static_cast<std::uint32_t>(EPOLLIN);
    if (conn.wantsWrite())
        events |= EPOLLOUT;
    if (events == conn.registered_events)
        return;
    if (c_epoll_mods_)
        c_epoll_mods_->inc();
    if (loop_.mod(conn.fd(), events))
        conn.registered_events = events;
}

void
Server::closeConnection(std::uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    loop_.del(it->second->fd());
    conns_.erase(it);
    if (c_closed_)
        c_closed_->inc();
    if (g_connections_)
        g_connections_->set(static_cast<std::int64_t>(conns_.size()));
}

ServerStats
Server::stats() const
{
    ServerStats s;
    s.accepted = counterValue(c_accepted_);
    s.closed = counterValue(c_closed_);
    s.rejected_connections = counterValue(c_conn_rejected_);
    s.protocol_errors = counterValue(c_protocol_errors_);
    s.submits = counterValue(c_submits_);
    s.responses = counterValue(c_responses_);
    s.ok = counterValue(statusCounter(Status::Ok));
    s.bad_requests = counterValue(statusCounter(Status::BadRequest));
    s.quota_rejected = counterValue(statusCounter(Status::OverQuota));
    s.sheds = counterValue(statusCounter(Status::Shed));
    s.draining_rejected = counterValue(statusCounter(Status::Draining));
    s.orphaned_results = counterValue(c_orphaned_);
    s.socket_writes = counterValue(c_socket_writes_);
    s.epoll_mods = counterValue(c_epoll_mods_);
    s.inflight =
        g_inflight_ != nullptr
            ? static_cast<std::uint64_t>(g_inflight_->value())
            : 0;
    return s;
}

} // namespace net
} // namespace srbenes
