/**
 * @file
 * End-to-end tests of the srbd server over real loopback sockets:
 * payload-exact serving, admission control (bad request, quota,
 * shed, draining) and its order, malformed Submits refused on every
 * path the engine can take, protocol-error handling with counter
 * bumps, graceful drain with requests in flight, slow-reader
 * backpressure, write coalescing, the fabric-size limit the frame
 * cap sets, and concurrent client threads sharing one server (the
 * tsan target).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <poll.h>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/prng.hh"
#include "core/resilient.hh"
#include "malformed.hh"
#include "net/client.hh"
#include "net/loadgen.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "perm/permutation.hh"

namespace srbenes
{
namespace net
{
namespace
{

/**
 * A plain blocking socket to the server, for hand-built traffic. A
 * nonzero @p rcvbuf fixes the socket's receive buffer before the
 * handshake, which turns off its autotuning.
 */
int
connectRaw(std::uint16_t port, int rcvbuf = 0)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (rcvbuf > 0 && ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                                   sizeof(rcvbuf)) != 0) {
        ::close(fd);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Read one message from @p fd, polling at most @p timeout_ms. */
bool
receiveRaw(int fd, Decoder &dec, Message &out, int timeout_ms)
{
    for (;;) {
        switch (dec.next(out)) {
          case DecodeStatus::Ok:
            return true;
          case DecodeStatus::Error:
            return false;
          case DecodeStatus::NeedMore:
            break;
        }
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, timeout_ms) != 1)
            return false;
        std::uint8_t chunk[65536];
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0)
            return false;
        dec.feed(chunk, static_cast<std::size_t>(got));
    }
}

/** Send all of @p wire on blocking socket @p fd. */
bool
sendAll(int fd, const std::vector<std::uint8_t> &wire)
{
    for (std::size_t sent = 0; sent < wire.size();) {
        const ssize_t put = ::send(fd, wire.data() + sent,
                                   wire.size() - sent, MSG_NOSIGNAL);
        if (put <= 0)
            return false;
        sent += static_cast<std::size_t>(put);
    }
    return true;
}

/** The autotuning ceiling (third field) of a TCP buffer sysctl. */
std::size_t
tcpBufferCeiling(const std::string &name, std::size_t fallback)
{
    std::ifstream in("/proc/sys/net/ipv4/" + name);
    std::size_t lo = 0, dflt = 0, hi = 0;
    return (in >> lo >> dflt >> hi) ? hi : fallback;
}

/**
 * The value on the exposition line of @p series (name and rendered
 * labels) in Prometheus @p text, or -1 when no line carries it.
 */
long long
seriesValue(const std::string &text, const std::string &series)
{
    const std::string key = series + " ";
    for (std::size_t pos = text.find(key); pos != std::string::npos;
         pos = text.find(key, pos + 1))
        if (pos == 0 || text[pos - 1] == '\n')
            return std::stoll(text.substr(pos + key.size()));
    return -1;
}

std::string
responsesSeries(Status s)
{
    return std::string("srbd_responses_total{status=\"") +
           statusName(s) + "\"}";
}

/** A served fixture: its own registry, n=6 (N=64), two workers. */
class SrbdTest : public ::testing::Test
{
  protected:
    void
    startServer(ServerOptions opts)
    {
        opts.metrics = &registry_;
        opts.stream.metrics = &registry_;
        server_ = std::make_unique<Server>(std::move(opts));
        ASSERT_TRUE(server_->valid());
        server_->start();
    }

    ServerOptions
    defaults()
    {
        ServerOptions opts;
        opts.n = 6;
        opts.stream.workers = 2;
        return opts;
    }

    bool
    stopServer()
    {
        server_->requestDrain();
        return server_->awaitStop();
    }

    SubmitMsg
    randomSubmit(std::uint64_t id, Prng &prng,
                 std::vector<Word> *expected = nullptr)
    {
        const Word N = server_->numLines();
        const Permutation perm = Permutation::random(N, prng);
        SubmitMsg m;
        m.id = id;
        m.dest = perm.dest();
        m.has_payload = true;
        m.payload.resize(N);
        for (Word i = 0; i < N; ++i)
            m.payload[i] = id * 1000 + i;
        if (expected != nullptr)
            *expected = perm.applyTo(m.payload);
        return m;
    }

    /** A Submit of @p tags with an iota payload, unchecked. */
    static SubmitMsg
    submitOf(std::uint64_t id, const std::vector<Word> &tags,
             std::uint64_t deadline_rel_ns = 0)
    {
        SubmitMsg m;
        m.id = id;
        m.dest = tags;
        m.deadline_rel_ns = deadline_rel_ns;
        m.has_payload = true;
        m.payload.resize(tags.size());
        for (Word i = 0; i < tags.size(); ++i)
            m.payload[i] = id * 1000 + i;
        return m;
    }

    /** The sum of every series of the counter @p name. */
    std::uint64_t
    counterSum(const std::string &name)
    {
        std::uint64_t total = 0;
        registry_.visit([&](const obs::MetricsRegistry::View &v) {
            if (v.name == name && v.counter != nullptr)
                total += v.counter->value();
        });
        return total;
    }

    /** Plan-tier hits and misses plus cold plans: the sketch records
     *  a sighting only with a hit or a miss, and a worker plans only
     *  with a miss. */
    std::uint64_t
    tierTouches()
    {
        return counterSum("srbenes_router_plan_cache_hits_total") +
               counterSum("srbenes_router_plan_cache_misses_total") +
               counterSum("srbenes_router_plans_total");
    }

    obs::MetricsRegistry registry_;
    std::unique_ptr<Server> server_;
};

TEST_F(SrbdTest, ServesPayloadExactly)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    Prng prng(7);
    for (std::uint64_t id = 1; id <= 16; ++id) {
        std::vector<Word> expected;
        const SubmitMsg m = randomSubmit(id, prng, &expected);
        Message response;
        ASSERT_TRUE(client.roundTrip(Message{m}, response));
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        EXPECT_EQ(res->id, id);
        EXPECT_EQ(res->status, Status::Ok);
        EXPECT_EQ(res->tier, ServeTier::Primary);
        EXPECT_GT(res->server_ns, 0u);
        EXPECT_EQ(res->payload, expected);
    }
    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().ok, 16u);
    EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(SrbdTest, ControlPlaneSubmitEchoesNoPayload)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    Prng prng(11);
    SubmitMsg m = randomSubmit(1, prng);
    m.has_payload = false;
    m.payload.clear();
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{m}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_TRUE(res->payload.empty());
    client.close();
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, RejectsMalformedSubmits)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // Wrong size: 4 lines against an N=64 fabric.
    SubmitMsg wrong_size;
    wrong_size.id = 1;
    wrong_size.dest = {0, 1, 2, 3};
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{wrong_size}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::BadRequest);
    EXPECT_EQ(res->tier, ServeTier::Failed);

    // Right size, not a permutation (output 0 twice).
    SubmitMsg not_perm;
    not_perm.id = 2;
    not_perm.dest.assign(server_->numLines(), 0);
    ASSERT_TRUE(client.roundTrip(Message{not_perm}, response));
    res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::BadRequest);

    // The connection survives semantic refusals.
    Prng prng(3);
    std::vector<Word> expected;
    const SubmitMsg good = randomSubmit(3, prng, &expected);
    ASSERT_TRUE(client.roundTrip(Message{good}, response));
    res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_EQ(res->payload, expected);

    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().bad_requests, 2u);
}

TEST_F(SrbdTest, MalformedSubmitsNearAResidentPlanAreRefused)
{
    // A plan hit is its own validation and anything else is validated
    // before a worker sees it, so each malformed neighbour of a valid
    // pattern is BadRequest whether that pattern is resident or not:
    // no worker plans it, and the plan tier neither serves nor sights
    // it. The pattern itself is served, and a valid transposition of
    // it is served by its own plan.
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    Prng prng(61);
    const Permutation d = Permutation::random(server_->numLines(), prng);
    auto answer = [&](const SubmitMsg &m) {
        Message response;
        EXPECT_TRUE(client.roundTrip(Message{m}, response));
        const auto *res = std::get_if<SubmitResultMsg>(&response);
        return res != nullptr ? *res : SubmitResultMsg{};
    };
    auto expectRefused = [&] {
        const std::uint64_t touches = tierTouches();
        for (const auto &[name, tags] : malformedNeighbours(d)) {
            const SubmitResultMsg res = answer(submitOf(9, tags));
            EXPECT_EQ(res.status, Status::BadRequest) << name;
            EXPECT_EQ(res.tier, ServeTier::Failed) << name;
        }
        EXPECT_EQ(tierTouches(), touches);
    };

    expectRefused();
    for (std::uint64_t id = 1; id <= 2; ++id)
        ASSERT_EQ(answer(submitOf(id, d.dest())).status, Status::Ok);
    expectRefused();

    SubmitMsg hit = submitOf(3, d.dest());
    SubmitResultMsg res = answer(hit);
    EXPECT_EQ(res.status, Status::Ok);
    EXPECT_EQ(res.payload, d.applyTo(hit.payload));

    std::vector<Word> swapped = d.dest();
    std::swap(swapped[5], swapped[60]);
    const Permutation e(swapped);
    const SubmitMsg near = submitOf(4, swapped);
    res = answer(near);
    EXPECT_EQ(res.status, Status::Ok);
    EXPECT_EQ(res.payload, e.applyTo(near.payload));

    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().bad_requests, 8u);
    EXPECT_EQ(server_->stats().ok, 4u);
}

TEST_F(SrbdTest, MalformedSubmitsPastTheirDeadlineAreRefused)
{
    // A Submit past its deadline skips the plan tier, so it is
    // validated first: malformed tags answer BadRequest, not
    // DeadlineExceeded, and the valid pattern expires.
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    Prng prng(62);
    const Permutation d = Permutation::random(server_->numLines(), prng);
    Message response;
    for (std::uint64_t id = 1; id <= 2; ++id)
        ASSERT_TRUE(client.roundTrip(Message{submitOf(id, d.dest())},
                                     response));

    const std::uint64_t touches = tierTouches();
    for (const auto &[name, tags] : malformedNeighbours(d)) {
        ASSERT_TRUE(client.roundTrip(Message{submitOf(9, tags, 1)},
                                     response));
        EXPECT_EQ(std::get<SubmitResultMsg>(response).status,
                  Status::BadRequest)
            << name;
    }
    EXPECT_EQ(tierTouches(), touches);
    ASSERT_TRUE(
        client.roundTrip(Message{submitOf(3, d.dest(), 1)}, response));
    EXPECT_EQ(std::get<SubmitResultMsg>(response).status,
              Status::DeadlineExceeded);
    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().bad_requests, 4u);
}

TEST_F(SrbdTest, MalformedSubmitsBehindAFullLoopQueueAreRefused)
{
    // A pipelined burst in one read, with rings of 2 slots: the loop
    // serves every hit from its frame, taking no result-queue slot,
    // however many there are, and each malformed Submit among them
    // misses the tier and is validated on its way to a ring. Every
    // valid Submit is Ok, every malformed one BadRequest, and none of
    // the malformed ones reaches the tier.
    ServerOptions opts = defaults();
    opts.n = 4;
    opts.stream.ring_capacity = 2;
    startServer(std::move(opts));
    const Word N = server_->numLines();
    Prng prng(63);
    const Permutation d = Permutation::random(N, prng);

    const int fd = connectRaw(server_->port());
    ASSERT_GE(fd, 0);
    Decoder dec;
    Message response;
    std::vector<std::uint8_t> wire;
    for (std::uint64_t id = 1; id <= 2; ++id) {
        wire.clear();
        encode(Message{submitOf(id, d.dest())}, wire);
        ASSERT_TRUE(sendAll(fd, wire));
        ASSERT_TRUE(receiveRaw(fd, dec, response, 5000));
        ASSERT_EQ(std::get<SubmitResultMsg>(response).status, Status::Ok);
    }

    const auto neighbours = malformedNeighbours(d);
    const std::uint64_t hits =
        counterSum("srbenes_router_plan_cache_hits_total");
    const std::uint64_t misses =
        counterSum("srbenes_router_plan_cache_misses_total");
    wire.clear();
    encode(Message{submitOf(10, d.dest())}, wire);
    encode(Message{submitOf(11, d.dest())}, wire);
    for (std::size_t i = 0; i < neighbours.size(); ++i)
        encode(Message{submitOf(20 + i, neighbours[i].second)}, wire);
    encode(Message{submitOf(12, d.dest())}, wire);
    ASSERT_TRUE(sendAll(fd, wire));

    std::size_t ok = 0, refused = 0;
    for (std::size_t i = 0; i < 3 + neighbours.size(); ++i) {
        ASSERT_TRUE(receiveRaw(fd, dec, response, 5000))
            << "answer " << i << " never arrived";
        const auto &res = std::get<SubmitResultMsg>(response);
        if (res.id >= 20) {
            EXPECT_EQ(res.status, Status::BadRequest)
                << neighbours[res.id - 20].first;
            ++refused;
        } else {
            EXPECT_EQ(res.status, Status::Ok) << "id " << res.id;
            EXPECT_EQ(res.payload,
                      d.applyTo(submitOf(res.id, d.dest()).payload));
            ++ok;
        }
    }
    EXPECT_EQ(ok, 3u);
    EXPECT_EQ(refused, neighbours.size());
    // The three valid Submits hit, on the loop or a worker; nothing
    // missed.
    EXPECT_EQ(counterSum("srbenes_router_plan_cache_hits_total"),
              hits + 3);
    EXPECT_EQ(counterSum("srbenes_router_plan_cache_misses_total"),
              misses);
    ::close(fd);
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, MalformedSubmitsToAResilientEngineAreRefused)
{
    // A resilient engine serves every Submit on a worker, so each is
    // validated before its ring: malformed tags answer BadRequest,
    // with the valid neighbour resident or not, and the valid pattern
    // is served.
    ResilientOptions ropts;
    ropts.metrics = &registry_;
    ResilientRouter rr(6, ropts);
    ServerOptions opts = defaults();
    opts.stream.resilient = &rr;
    startServer(std::move(opts));
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    Prng prng(64);
    const Permutation d = Permutation::random(server_->numLines(), prng);
    Message response;
    for (int round = 0; round < 2; ++round) {
        const std::uint64_t touches = tierTouches();
        for (const auto &[name, tags] : malformedNeighbours(d)) {
            ASSERT_TRUE(
                client.roundTrip(Message{submitOf(9, tags)}, response));
            EXPECT_EQ(std::get<SubmitResultMsg>(response).status,
                      Status::BadRequest)
                << name << " round " << round;
        }
        EXPECT_EQ(tierTouches(), touches);
        // Two valid Submits: d is resident for the second round.
        for (std::uint64_t id = 1; id <= 2; ++id) {
            const SubmitMsg m = submitOf(id, d.dest());
            ASSERT_TRUE(client.roundTrip(Message{m}, response));
            const auto &res = std::get<SubmitResultMsg>(response);
            EXPECT_EQ(res.status, Status::Ok);
            EXPECT_EQ(res.payload, d.applyTo(m.payload));
        }
    }
    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().bad_requests, 8u);
}

TEST_F(SrbdTest, AMalformedSubmitCostsItsTenantAToken)
{
    // The admission order: a wrong-sized Submit is refused before
    // quota and costs nothing, but whether a right-sized one is a
    // permutation is known only in the engine, after quota. So with
    // two tokens, a valid Submit takes one, a malformed one takes
    // the last, and the tenant's next valid Submit is OverQuota.
    ServerOptions opts = defaults();
    opts.quota.rate_per_sec = 1;
    opts.quota.burst = 2;
    startServer(std::move(opts));
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    Prng prng(65);
    const Permutation d = Permutation::random(server_->numLines(), prng);
    auto status = [&](const SubmitMsg &m) {
        Message response;
        EXPECT_TRUE(client.roundTrip(Message{m}, response));
        const auto *res = std::get_if<SubmitResultMsg>(&response);
        return res != nullptr ? res->status : Status::Draining;
    };
    EXPECT_EQ(status(submitOf(1, {0, 1, 2, 3})), Status::BadRequest);
    EXPECT_EQ(status(submitOf(2, d.dest())), Status::Ok);
    EXPECT_EQ(status(submitOf(3, malformedNeighbours(d)[0].second)),
              Status::BadRequest);
    EXPECT_EQ(status(submitOf(4, d.dest())), Status::OverQuota);
    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().bad_requests, 2u);
    EXPECT_EQ(server_->stats().quota_rejected, 1u);
}

TEST_F(SrbdTest, HealthAndStatsVerbs)
{
    startServer(defaults());

    HealthResultMsg health;
    ASSERT_TRUE(
        fetchHealth("127.0.0.1", server_->port(), health));
    EXPECT_EQ(health.state, ServeState::Serving);
    EXPECT_EQ(health.n, 6u);
    EXPECT_EQ(health.workers, 2u);

    std::string text;
    ASSERT_TRUE(fetchStats("127.0.0.1", server_->port(),
                           StatsFormat::PrometheusText, text));
    EXPECT_NE(text.find("srbd_submits_total"), std::string::npos);
    EXPECT_NE(text.find("srbd_active_connections"),
              std::string::npos);

    std::string json;
    ASSERT_TRUE(fetchStats("127.0.0.1", server_->port(),
                           StatsFormat::Json, json));
    EXPECT_NE(json.find("\"srbd_submits_total\""),
              std::string::npos);

    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, EveryStatusSeriesIsExportedBeforeTheFirstRequest)
{
    // Each answer status has its series from construction on, so an
    // answer never registers one on the serving path.
    startServer(defaults());
    std::string text;
    ASSERT_TRUE(fetchStats("127.0.0.1", server_->port(),
                           StatsFormat::PrometheusText, text));
    for (Status s :
         {Status::Ok, Status::NotInF, Status::FaultDetected,
          Status::DeadlineExceeded, Status::Shed, Status::OverQuota,
          Status::BadRequest, Status::Draining})
        EXPECT_EQ(seriesValue(text, responsesSeries(s)), 0)
            << statusName(s);
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, QuotaRefusesTheBurstExcess)
{
    ServerOptions opts = defaults();
    // 1 token/s, depth 2: the third back-to-back submit from one
    // tenant must be refused, quota being charged before the ring.
    opts.quota.rate_per_sec = 1;
    opts.quota.burst = 2;
    startServer(std::move(opts));

    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    Prng prng(5);
    std::uint64_t ok = 0, over_quota = 0;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        Message response;
        ASSERT_TRUE(client.roundTrip(
            Message{randomSubmit(id, prng)}, response));
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        if (res->status == Status::Ok)
            ++ok;
        else if (res->status == Status::OverQuota)
            ++over_quota;
    }
    EXPECT_EQ(ok, 2u);
    EXPECT_EQ(over_quota, 1u);

    // A different tenant has its own bucket.
    SubmitMsg other = randomSubmit(4, prng);
    other.tenant = 999;
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{other}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);

    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().quota_rejected, 1u);

    // The per-tenant series took the charge.
    EXPECT_GE(registry_
                  .counter("srbd_tenant_rejected_total",
                           {{"tenant", "0"}})
                  .value(),
              1u);
}

TEST_F(SrbdTest, ShedsAtTheInflightCap)
{
    ServerOptions opts = defaults();
    // Cap 0: every submit finds the connection at its in-flight
    // limit — a deterministic stand-in for full rings.
    opts.max_conn_inflight = 0;
    startServer(std::move(opts));

    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    Prng prng(13);
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{randomSubmit(1, prng)},
                                 response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Shed);
    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().sheds, 1u);
}

TEST_F(SrbdTest, GarbageFrameClosesConnectionAndCounts)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // Hand-roll an unknown-type frame over a plain socket: the
    // Message API cannot produce one.
    const std::vector<std::uint8_t> wire = {1, 0, 0, 0, 0x7F};
    const int fd = connectRaw(server_->port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    // The server must close on us without crashing.
    char buf[16];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_EQ(got, 0) << "expected EOF after protocol error";
    ::close(fd);

    // The well-behaved connection is unaffected.
    Prng prng(17);
    std::vector<Word> expected;
    Message response;
    ASSERT_TRUE(client.roundTrip(
        Message{randomSubmit(1, prng, &expected)}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_EQ(res->payload, expected);

    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().protocol_errors, 1u);
}

TEST_F(SrbdTest, UnsolicitedServerTypeIsAProtocolError)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // A client sending a server-to-client type gets dropped.
    ASSERT_TRUE(client.send(Message{SubmitResultMsg{}}));
    Message out;
    std::string error;
    EXPECT_FALSE(client.receive(out, &error));
    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().protocol_errors, 1u);
}

TEST_F(SrbdTest, WireDeadlineSurfacesAsDeadlineExceeded)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // A 1 ns relative deadline is expired by the time the engine
    // serves the request: the engine's deadline taxonomy must cross
    // the wire intact.
    Prng prng(31);
    SubmitMsg m = randomSubmit(1, prng);
    m.deadline_rel_ns = 1;
    std::string before, after;
    ASSERT_TRUE(fetchStats("127.0.0.1", server_->port(),
                           StatsFormat::PrometheusText, before));
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{m}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::DeadlineExceeded);
    EXPECT_TRUE(res->payload.empty());

    // The answer counts once, under its own status.
    ASSERT_TRUE(fetchStats("127.0.0.1", server_->port(),
                           StatsFormat::PrometheusText, after));
    const std::string expired = responsesSeries(Status::DeadlineExceeded);
    EXPECT_EQ(seriesValue(before, expired), 0);
    EXPECT_EQ(seriesValue(after, expired), 1);
    EXPECT_EQ(seriesValue(after, responsesSeries(Status::Ok)), 0);
    client.close();
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, UnrepresentableWireDeadlineIsNoDeadline)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // now + 2^64 - 1 would wrap into the past; a relative deadline
    // the clock cannot represent must not expire the request.
    Prng prng(37);
    std::vector<Word> expected;
    SubmitMsg m = randomSubmit(1, prng, &expected);
    m.deadline_rel_ns = std::numeric_limits<std::uint64_t>::max();
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{m}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_EQ(res->payload, expected);
    client.close();
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, DrainAnswersEverythingInFlight)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // Fire a burst without reading, drain mid-flight, then collect:
    // every submit must be answered (Ok or Draining), none lost.
    Prng prng(23);
    constexpr std::uint64_t kBurst = 64;
    for (std::uint64_t id = 1; id <= kBurst; ++id)
        ASSERT_TRUE(client.send(Message{randomSubmit(id, prng)}));
    server_->requestDrain();

    std::uint64_t answered = 0, ok = 0, draining = 0;
    while (answered < kBurst) {
        Message response;
        bool timed_out = false;
        if (!client.receiveFor(response, 2000, timed_out))
            break;
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        ++answered;
        if (res->status == Status::Ok)
            ++ok;
        else if (res->status == Status::Draining)
            ++draining;
    }
    EXPECT_EQ(answered, kBurst) << "requests lost across drain";
    EXPECT_EQ(ok + draining, kBurst);
    client.close();
    EXPECT_TRUE(server_->awaitStop()) << "drain was not clean";
    EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(SrbdTest, RefusesSubmitsWhileDrainingButStillAnswers)
{
    // srbd ends a drain only once every answer has left its buffers,
    // so a connection that stops reading holds the drain open, and a
    // submit sent after requestDrain() is then surely read and
    // refused. The reader fixes a small receive buffer, so a few
    // thousand answers overflow what the kernel can hold for it:
    // srbd's send buffer (at most its autotuning ceiling) plus the
    // reader's (the kernel doubles the size asked for). srbd keeps
    // reading the reader, its write watermark above the whole burst,
    // so the burst is sent whole and the rest of its answers wait in
    // srbd's out-buffer.
    constexpr unsigned kN = 8;
    constexpr Word N = Word{1} << kN;
    constexpr int kReaderRcvbuf = 64 << 10;
    const std::size_t answer_bytes = 4 + 22 + 8 * N;
    const std::size_t wmem = tcpBufferCeiling("tcp_wmem", 4u << 20);
    const std::uint64_t burst =
        (wmem + 2 * kReaderRcvbuf) / answer_bytes + 256;

    ServerOptions opts = defaults();
    opts.n = kN;
    opts.write_high_watermark = 2 * burst * answer_bytes;
    opts.max_conn_inflight = burst;
    opts.stream.ring_capacity = std::bit_ceil(burst);
    startServer(std::move(opts));

    const int reader = connectRaw(server_->port(), kReaderRcvbuf);
    ASSERT_GE(reader, 0);
    int rcvbuf = 0;
    socklen_t len = sizeof(rcvbuf);
    ASSERT_EQ(::getsockopt(reader, SOL_SOCKET, SO_RCVBUF, &rcvbuf, &len),
              0);
    ASSERT_LE(rcvbuf, 2 * kReaderRcvbuf);

    constexpr std::uint64_t kPatterns = 16;
    Prng prng(29);
    std::vector<Permutation> perms;
    for (std::uint64_t i = 0; i < kPatterns; ++i)
        perms.push_back(Permutation::random(N, prng));
    const auto submitOf = [&](std::uint64_t id) {
        SubmitMsg m;
        m.id = id;
        m.dest = perms[id % kPatterns].dest();
        m.has_payload = true;
        m.payload.resize(N);
        for (Word i = 0; i < N; ++i)
            m.payload[i] = id * N + i;
        return m;
    };
    std::vector<std::uint8_t> wire;
    for (std::uint64_t id = 0; id < burst; ++id)
        encode(Message{submitOf(id)}, wire);
    ASSERT_TRUE(sendAll(reader, wire));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (server_->stats().responses < burst &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(server_->stats().responses, burst)
        << "the reader's burst was never answered";

    // Submits that reached srbd before the drain are answered; the
    // one sent after it is refused.
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    for (std::uint64_t id = 1; id <= 8; ++id)
        ASSERT_TRUE(client.send(Message{randomSubmit(id, prng)}));
    server_->requestDrain();
    ASSERT_TRUE(client.send(Message{randomSubmit(100, prng)}));

    std::uint64_t answered = 0;
    for (std::uint64_t i = 0; i < 9; ++i) {
        Message response;
        bool timed_out = false;
        if (!client.receiveFor(response, 5000, timed_out))
            break;
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        ++answered;
        if (res->id == 100)
            EXPECT_EQ(res->status, Status::Draining);
        else
            EXPECT_TRUE(res->status == Status::Ok ||
                        res->status == Status::Draining)
                << "id " << res->id;
    }
    EXPECT_EQ(answered, 9u);
    EXPECT_GE(server_->stats().draining_rejected, 1u);

    // The reader catches up: every answer of its burst arrives, and
    // then the drain ends clean.
    Decoder dec;
    std::uint64_t correct = 0;
    for (std::uint64_t i = 0; i < burst; ++i) {
        Message response;
        ASSERT_TRUE(receiveRaw(reader, dec, response, 5000))
            << "answer " << i << " never arrived";
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        ASSERT_LT(res->id, burst);
        if (res->status == Status::Ok &&
            res->payload ==
                perms[res->id % kPatterns].applyTo(
                    submitOf(res->id).payload))
            ++correct;
    }
    EXPECT_EQ(correct, burst);
    client.close();
    ::close(reader);
    EXPECT_TRUE(server_->awaitStop()) << "drain was not clean";
    EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(SrbdTest, PipelinedBurstIsAnsweredInFewWrites)
{
    ServerOptions opts = defaults();
    opts.n = 4;
    startServer(std::move(opts));

    // 16 submits in ONE client send(): srbd reads them in one pass,
    // so their answers share a flush, and nothing in the exchange
    // changes the connection's event mask.
    constexpr std::uint64_t kBurst = 16;
    Prng prng(43);
    std::vector<std::uint8_t> wire;
    std::vector<std::vector<Word>> expected(kBurst);
    for (std::uint64_t id = 0; id < kBurst; ++id)
        encode(Message{randomSubmit(id, prng, &expected[id])}, wire);
    const int fd = connectRaw(server_->port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));

    Decoder dec;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
        Message response;
        ASSERT_TRUE(receiveRaw(fd, dec, response, 5000))
            << "answer " << i << " never arrived";
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        ASSERT_LT(res->id, kBurst);
        EXPECT_EQ(res->status, Status::Ok);
        EXPECT_EQ(res->payload, expected[res->id]);
    }
    const ServerStats stats = server_->stats();
    EXPECT_EQ(stats.responses, kBurst);
    EXPECT_LT(stats.socket_writes, kBurst);
    EXPECT_EQ(stats.epoll_mods, 0u);
    ::close(fd);
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, HitsOverflowingTheLoopQueueTakeTheRingsNotShed)
{
    // Regression: the loop serves plan hits into a result queue of
    // ring_capacity slots that it drains only after a pass, so a
    // pipelined burst of hits used to overflow it and be answered
    // Shed while both worker rings sat empty. Now the overflow
    // crosses to the rings: 2 answered on the loop plus 2 rings of
    // 2 slots each hold all 6, whatever the workers' timing.
    ServerOptions opts = defaults();
    opts.n = 4;
    opts.stream.ring_capacity = 2;
    startServer(std::move(opts));

    const Word N = server_->numLines();
    Prng prng(47);
    const Permutation perm = Permutation::random(N, prng);

    const int fd = connectRaw(server_->port());
    ASSERT_GE(fd, 0);
    Decoder dec;
    Message response;
    // Warm the pattern into the plan tier with two round trips: the
    // tier keeps a pattern from its second sighting.
    std::vector<std::uint8_t> wire;
    for (int sighting = 0; sighting < 2; ++sighting) {
        wire.clear();
        encode(Message{submitOf(0, perm.dest())}, wire);
        ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(wire.size()));
        ASSERT_TRUE(receiveRaw(fd, dec, response, 5000));
        ASSERT_EQ(std::get<SubmitResultMsg>(response).status,
                  Status::Ok);
    }

    constexpr std::uint64_t kBurst = 6;
    wire.clear();
    for (std::uint64_t id = 1; id <= kBurst; ++id)
        encode(Message{submitOf(id, perm.dest())}, wire);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
        ASSERT_TRUE(receiveRaw(fd, dec, response, 5000))
            << "answer " << i << " never arrived";
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        EXPECT_EQ(res->status, Status::Ok) << "id " << res->id;
        if (res->status == Status::Ok &&
            res->payload ==
                perm.applyTo(submitOf(res->id, perm.dest()).payload))
            ++ok;
    }
    EXPECT_EQ(ok, kBurst);
    EXPECT_EQ(server_->stats().sheds, 0u);
    std::uint64_t engine_sheds = 0, loop_served = 0;
    registry_.visit([&](const obs::MetricsRegistry::View &v) {
        if (v.name == "srbenes_stream_sheds_total")
            engine_sheds += v.counter->value();
        if (v.name == "srbenes_stream_inline_served_total")
            loop_served += v.counter->value();
    });
    EXPECT_EQ(engine_sheds, 0u);
    EXPECT_GE(loop_served, 2u);
    ::close(fd);
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, SlowReaderPausesReadingUntilItCatchesUp)
{
    constexpr unsigned kN = 8;
    constexpr Word N = Word{1} << kN;
    constexpr std::size_t kHighWatermark = 64u << 10;

    // Size the burst so srbd must pause with submits still unsent.
    // Before its out-buffer can pass the high watermark, the answers
    // must fill srbd's send buffer and our receive buffer; the pass
    // that passes it may have read one read budget (1 MiB) of
    // submits; and the submits srbd then never reads sit in its
    // receive buffer and our send buffer. Each socket buffer is
    // bounded by its autotuning ceiling.
    constexpr std::size_t kReadBudget = 1u << 20;
    const std::size_t submit_bytes = 4 + 30 + 12 * N;
    const std::size_t answer_bytes = 4 + 22 + 8 * N;
    const std::size_t wmem = tcpBufferCeiling("tcp_wmem", 4u << 20);
    const std::size_t rmem = tcpBufferCeiling("tcp_rmem", 6u << 20);
    const std::uint64_t burst =
        (wmem + rmem + kHighWatermark) / answer_bytes +
        (kReadBudget + rmem + wmem) / submit_bytes + 256;

    ServerOptions opts = defaults();
    opts.n = kN;
    opts.write_high_watermark = kHighWatermark;
    opts.write_low_watermark = 16u << 10;
    // Only the write watermark may hold this client back, so
    // neither the connection's in-flight cap nor the engine's result
    // ring may shed any of the burst.
    opts.max_conn_inflight = burst;
    opts.stream.ring_capacity = std::bit_ceil(burst);
    // Bounds the failure path: a connection srbd never resumes is
    // force-closed this long into the drain, which frees the sender.
    opts.drain_grace_ms = 2000;
    startServer(std::move(opts));

    constexpr std::uint64_t kPatterns = 16;
    Prng prng(41);
    std::vector<Permutation> perms;
    for (std::uint64_t i = 0; i < kPatterns; ++i)
        perms.push_back(Permutation::random(N, prng));
    const auto payloadOf = [N](std::uint64_t id) {
        std::vector<Word> p(N);
        for (Word i = 0; i < N; ++i)
            p[i] = id * N + i;
        return p;
    };

    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    std::atomic<bool> sender_ok{true};
    std::thread sender([&] {
        for (std::uint64_t id = 0; id < burst; ++id) {
            SubmitMsg m;
            m.id = id;
            m.dest = perms[id % kPatterns].dest();
            m.has_payload = true;
            m.payload = payloadOf(id);
            if (!client.send(Message{std::move(m)})) {
                sender_ok = false;
                return;
            }
        }
    });

    // Not reading: admission must stop short of the burst. Settled
    // means the event mask has changed (pausing drops EPOLLIN) and
    // no new submit arrived for half a second; the mask condition
    // keeps a loopback retransmit stall from passing for a pause.
    std::uint64_t admitted = 0;
    int quiet_polls = 0;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (quiet_polls < 5 &&
           std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const ServerStats now = server_->stats();
        quiet_polls = now.submits == admitted && now.epoll_mods > 0
                          ? quiet_polls + 1
                          : 0;
        admitted = now.submits;
    }
    EXPECT_LT(admitted, burst)
        << "srbd kept reading a client that does not read";
    EXPECT_GE(server_->stats().epoll_mods, 1u)
        << "reading paused without an event-mask change";

    // Now read: srbd must resume, and every submit gets its answer.
    std::uint64_t answered = 0, correct = 0;
    while (answered < burst) {
        Message response;
        bool timed_out = false;
        if (!client.receiveFor(response, 5000, timed_out))
            break;
        auto *res = std::get_if<SubmitResultMsg>(&response);
        if (res == nullptr || res->id >= burst)
            break;
        ++answered;
        if (res->status == Status::Ok &&
            res->payload ==
                perms[res->id % kPatterns].applyTo(payloadOf(res->id)))
            ++correct;
    }
    EXPECT_EQ(answered, burst) << "reading never resumed";
    EXPECT_EQ(correct, answered);
    if (answered < burst) {
        // The drain's grace expiry closes our socket under the
        // blocked sender.
        server_->requestDrain();
        server_->awaitStop();
        sender.join();
        return;
    }
    sender.join();
    EXPECT_TRUE(sender_ok);
    client.close();
    EXPECT_TRUE(stopServer()) << "drain was not clean";
    EXPECT_EQ(server_->stats().ok, burst);
    EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(SrbdTest, RefusesAFabricWhoseSubmitsExceedTheFrameCap)
{
    // n=17: a payload Submit has a 1,572,894-byte body, over the
    // 1 MiB cap, so every full request would be a protocol error.
    ServerOptions opts = defaults();
    opts.n = 17;
    opts.metrics = &registry_;
    opts.stream.metrics = &registry_;
    Server server(std::move(opts));
    EXPECT_FALSE(server.valid());
}

TEST_F(SrbdTest, ServesTheLargestFabricThatFitsAFrame)
{
    // n=16: a 786,462-byte Submit body and a 524,311-byte answer.
    ServerOptions opts = defaults();
    opts.n = 16;
    startServer(std::move(opts));
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    Prng prng(47);
    std::vector<Word> expected;
    Message response;
    ASSERT_TRUE(client.roundTrip(
        Message{randomSubmit(1, prng, &expected)}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_EQ(res->payload, expected);
    client.close();
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, LargestFabricHitIsServedFromAFrameSpanningReads)
{
    // n=16: one pattern sent three times. The first two sightings
    // make it resident; the third Submit, a 786,466-byte frame that
    // arrives over many 64 KiB reads, is a hit served from the receive
    // buffer into a reserved reply frame. Its answer is byte for byte
    // encode()'s frame of the routed payload, server_ns aside, and it
    // took no pending entry: the in-flight gauge never moved.
    ServerOptions opts = defaults();
    opts.n = 16;
    startServer(std::move(opts));
    const Word N = server_->numLines();
    Prng prng(48);
    const Permutation perm = Permutation::random(N, prng);
    const int fd = connectRaw(server_->port());
    ASSERT_GE(fd, 0);
    Decoder dec;
    Message response;
    for (std::uint64_t id = 1; id <= 2; ++id) {
        std::vector<std::uint8_t> wire;
        encode(Message{submitOf(id, perm.dest())}, wire);
        ASSERT_TRUE(sendAll(fd, wire));
        ASSERT_TRUE(receiveRaw(fd, dec, response, 20000));
        ASSERT_EQ(std::get<SubmitResultMsg>(response).status, Status::Ok);
    }
    const std::uint64_t served =
        counterSum("srbenes_stream_inline_served_total");
    const long long gauge = registry_.gauge("srbd_inflight_requests").value();

    const SubmitMsg third = submitOf(3, perm.dest());
    std::vector<std::uint8_t> wire;
    encode(Message{third}, wire);
    ASSERT_EQ(wire.size(), 4u + 786462u);
    ASSERT_TRUE(sendAll(fd, wire));

    SubmitResultMsg want;
    want.id = 3;
    want.status = Status::Ok;
    want.tier = ServeTier::Primary;
    want.payload = perm.applyTo(third.payload);
    std::vector<std::uint8_t> expect;
    encode(Message{want}, expect);
    std::vector<std::uint8_t> got;
    while (got.size() < expect.size()) {
        pollfd pfd{fd, POLLIN, 0};
        ASSERT_EQ(::poll(&pfd, 1, 20000), 1) << "answer stalled";
        std::uint8_t chunk[65536];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        ASSERT_GT(n, 0);
        got.insert(got.end(), chunk, chunk + n);
    }
    ASSERT_EQ(got.size(), expect.size());
    // server_ns is the 8 bytes after the length, type, id, status and
    // tier: the one field a time fills.
    constexpr std::size_t kServerNsAt = 4 + 1 + 8 + 1 + 1;
    std::fill_n(got.begin() + kServerNsAt, 8, 0);
    EXPECT_TRUE(got == expect) << "the hit's reply differs";
    EXPECT_EQ(counterSum("srbenes_stream_inline_served_total"), served + 1);
    EXPECT_EQ(registry_.gauge("srbd_inflight_requests").value(), gauge);
    ::close(fd);
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, ConcurrentClientsShareOneEngine)
{
    // The tsan target: several client threads hammer one server,
    // whose single loop feeds a shared StreamEngine.
    startServer(defaults());
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 48;
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> ok_counts(kThreads, 0);

    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([this, t, &ok_counts] {
            Client client;
            if (!client.connect("127.0.0.1", server_->port()))
                return;
            Prng prng(100 + t);
            const Word N = server_->numLines();
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const Permutation perm = Permutation::random(N, prng);
                SubmitMsg m;
                m.id = i;
                m.tenant = t;
                m.dest = perm.dest();
                m.has_payload = true;
                m.payload.resize(N);
                for (Word w = 0; w < N; ++w)
                    m.payload[w] = (std::uint64_t{t} << 32) | w;
                const std::vector<Word> expected =
                    perm.applyTo(m.payload);
                Message response;
                if (!client.roundTrip(Message{m}, response))
                    return;
                auto *res = std::get_if<SubmitResultMsg>(&response);
                if (res != nullptr && res->status == Status::Ok &&
                    res->payload == expected)
                    ++ok_counts[t];
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(ok_counts[t], kPerThread) << "thread " << t;
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().ok, kThreads * kPerThread);
    EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(SrbdTest, LoadgenRunsCleanAgainstTheServer)
{
    // The in-process version of the CI soak: a short open-loop
    // phase must come back clean() with verified payloads.
    startServer(defaults());
    LoadgenOptions opts;
    opts.port = server_->port();
    opts.connections = 2;
    opts.rate_per_sec = 2000;
    opts.duration_ms = 300;
    opts.patterns = 4;
    const LoadgenReport report = runLoadgen(opts);
    EXPECT_TRUE(report.clean())
        << "lost=" << report.lost
        << " protocol_errors=" << report.protocol_errors
        << " mismatches=" << report.payload_mismatches;
    EXPECT_GT(report.ok, 0u);
    EXPECT_GT(report.p99_ns, 0u);
    EXPECT_TRUE(stopServer());
}

} // namespace
} // namespace net
} // namespace srbenes
